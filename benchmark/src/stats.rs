//! Small numeric and OS helpers: exact order statistics, FNV-1a digests and
//! the `/proc` readers behind `cpu_ms_per_query` and `peak_rss_mb`.

use std::fs;

/// Exact nearest-rank percentile of an ascending-sorted, non-empty sample:
/// the smallest value with at least `p` of the sample at or below it. Never
/// interpolates and never buckets — the returned value was observed.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of a sample; 0 when empty (a layer that did no work took no time).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a, the digest behind the pinned input/output fingerprints.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Process CPU time (user + system, every thread, dead ones included) in
/// seconds, from fields 14 and 15 of `/proc/self/stat`. Resolution is one
/// clock tick (10 ms), so callers difference it over whole measurement
/// windows, never over single queries.
pub fn process_cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0; // USER_HZ, fixed at 100 on Linux.
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11).and_then(|f| f.parse().ok()).expect("utime");
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).expect("stime");
    (utime + stime) / TICKS_PER_SECOND
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_observed_values() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[7u64], 0.99), 7);
        // 1000 samples: p99 leaves exactly ten beyond it.
        let w: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&w, 0.99), 990);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(process_cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
