//! Deterministic log2-bucket latency histogram.
//!
//! Values (nanoseconds, but any `u64` works) land in fixed power-of-two
//! buckets: bucket 0 holds the value 0, bucket `i` (1 ≤ i ≤ 64) holds
//! `[2^(i-1), 2^i)`. Fixed buckets mean two runs that record the same
//! multiset of values produce byte-identical snapshots — percentiles are
//! a deterministic function of the bucket counts, reported as the upper
//! bound of the bucket containing the requested rank (clamped to the
//! observed max).
//!
//! The recording path is wait-free: one relaxed `fetch_add` on the bucket
//! plus count/sum/min/max atomics — no locks, safe to share across worker
//! threads via `Arc`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: the zero bucket plus one per bit position.
pub const BUCKETS: usize = 65;

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (the value reported for percentiles
/// that land in it).
pub fn bucket_upper(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// Concurrent histogram. All methods take `&self`; share via `Arc`.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one observation. Wait-free.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Fold a snapshot's counts into this histogram (used to merge a
    /// batch-local histogram into a long-lived registry one).
    pub fn merge(&self, snap: &HistogramSnapshot) {
        if snap.count == 0 {
            return;
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.min.fetch_min(snap.min, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
        for &(idx, n) in &snap.buckets {
            self.buckets[idx as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Consistent snapshot for a quiesced histogram. If recorders are
    /// still running the counts are each individually valid but may be
    /// mutually torn (`count` vs bucket sum); snapshot after the workload
    /// quiesces when exact reconciliation matters.
    pub fn snapshot(
        &self,
        name: impl Into<String>,
        labels: Vec<(String, String)>,
    ) -> HistogramSnapshot {
        let count = self.count.load(Ordering::SeqCst);
        let sum = self.sum.load(Ordering::SeqCst);
        let min = self.min.load(Ordering::SeqCst);
        let max = self.max.load(Ordering::SeqCst);
        let mut buckets = Vec::new();
        for (idx, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::SeqCst);
            if n > 0 {
                buckets.push((idx as u32, n));
            }
        }
        let mut snap = HistogramSnapshot {
            name: name.into(),
            labels,
            count,
            sum,
            min: if count == 0 { 0 } else { min },
            max,
            buckets,
            p50: 0,
            p95: 0,
            p99: 0,
        };
        snap.p50 = snap.percentile(0.50);
        snap.p95 = snap.percentile(0.95);
        snap.p99 = snap.percentile(0.99);
        snap
    }
}

/// Point-in-time view of a [`Histogram`]. `buckets` is
/// sparse `(bucket_index, count)` sorted by index; `p50`/`p95`/`p99` are
/// precomputed from the buckets at snapshot time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<(u32, u64)>,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Value at quantile `q` (0 < q ≤ 1): the upper bound of the bucket
    /// containing rank `ceil(q · count)`, clamped to the observed max.
    ///
    /// Guards: an empty histogram (or a non-positive/NaN `q`) returns 0
    /// rather than dividing by or indexing into nothing.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 || q.is_nan() || q <= 0.0 {
            return 0;
        }
        let q = q.min(1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper(idx as usize).min(self.max);
            }
        }
        // Torn concurrent snapshot (bucket sum < count): fall back to max.
        self.max
    }

    /// Mean observation, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            assert!(v <= bucket_upper(bucket_index(v)));
        }
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let h = Histogram::new();
        let s = h.snapshot("t", vec![]);
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!((s.p50, s.p95, s.p99), (0, 0, 0));
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn percentile_is_bucket_upper_clamped_to_max() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        let s = h.snapshot("t", vec![]);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 1000);
        // rank(0.5, 5) = 3 → value 30 lives in bucket 5 ([16, 32)) → upper 31.
        assert_eq!(s.p50, 31);
        // rank(0.95, 5) = 5 → bucket 10 upper is 1023, clamped to max 1000.
        assert_eq!(s.p95, 1000);
        assert_eq!(s.p99, 1000);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn degenerate_quantiles_guarded() {
        let h = Histogram::new();
        h.record(5);
        let s = h.snapshot("t", vec![]);
        assert_eq!(s.percentile(0.0), 0);
        assert_eq!(s.percentile(-1.0), 0);
        assert_eq!(s.percentile(f64::NAN), 0);
        assert_eq!(s.percentile(2.0), s.percentile(1.0));
    }

    #[test]
    fn merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 100, 10_000] {
            a.record(v);
        }
        b.record(50);
        b.merge(&a.snapshot("a", vec![]));
        let s = b.snapshot("b", vec![]);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1 + 100 + 10_000 + 50);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10_000);
        // Merging an empty snapshot is a no-op (and must not clobber min).
        b.merge(&Histogram::new().snapshot("e", vec![]));
        assert_eq!(b.snapshot("b", vec![]), s);
    }
}
