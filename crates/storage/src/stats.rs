//! I/O accounting.
//!
//! The paper's evaluation is dominated by I/O cost (84–95 % of total running
//! time). Because this reproduction runs on a simulated disk, raw wall-clock
//! time would understate the difference between LSA and CEA; we therefore
//! track logical reads, buffer hits/misses and physical page transfers
//! explicitly. The experiment harness charges a configurable latency per
//! physical read on top of the measured CPU time to recover the paper's time
//! axis (`AlgoMeasurement::charged_seconds` in `mcn-bench`).

use std::ops::Sub;

/// Counters describing the I/O activity of a store (or the delta between two
/// snapshots of it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Page requests issued by callers (through the buffer pool).
    pub logical_reads: u64,
    /// Logical reads satisfied from the buffer pool.
    pub buffer_hits: u64,
    /// Logical reads that had to go to the disk manager.
    pub buffer_misses: u64,
    /// Pages physically read from the underlying disk manager.
    pub physical_reads: u64,
    /// Pages physically written to the underlying disk manager.
    pub physical_writes: u64,
}

impl IoStats {
    /// Buffer hit ratio in `[0, 1]`; zero when no logical reads happened.
    pub fn hit_ratio(&self) -> f64 {
        if self.logical_reads == 0 {
            0.0
        } else {
            self.buffer_hits as f64 / self.logical_reads as f64
        }
    }

    /// Publish this snapshot into a metrics registry under the given
    /// labels (absolute values, so re-publishing is idempotent).
    ///
    /// Because the counters come from one consistent [`IoStats`] snapshot
    /// (see `BufferPool::stats`), the published metrics reconcile exactly:
    /// `storage.logical_reads == storage.buffer_hits + storage.buffer_misses`
    /// and `storage.physical_reads ≤ storage.buffer_misses`. The five
    /// counter stores are not atomic as a group, though — when several
    /// threads publish under the same labels concurrently, a reader may
    /// observe a mix of two snapshots. Keep one publisher per label set
    /// (the engine publishes once per batch) when byte-exact reconciliation
    /// matters.
    pub fn publish(&self, registry: &mcn_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        registry
            .counter("storage.logical_reads", labels)
            .set(self.logical_reads);
        registry
            .counter("storage.buffer_hits", labels)
            .set(self.buffer_hits);
        registry
            .counter("storage.buffer_misses", labels)
            .set(self.buffer_misses);
        registry
            .counter("storage.physical_reads", labels)
            .set(self.physical_reads);
        registry
            .counter("storage.physical_writes", labels)
            .set(self.physical_writes);
        registry
            .gauge("storage.hit_ratio", labels)
            .set(self.hit_ratio());
    }

    /// Adds another snapshot's counters to this one.
    pub fn accumulate(&mut self, other: &IoStats) {
        self.logical_reads += other.logical_reads;
        self.buffer_hits += other.buffer_hits;
        self.buffer_misses += other.buffer_misses;
        self.physical_reads += other.physical_reads;
        self.physical_writes += other.physical_writes;
    }
}

impl Sub for IoStats {
    type Output = IoStats;

    /// Computes `self - rhs` counter-wise (saturating); used to obtain the
    /// activity between two snapshots.
    fn sub(self, rhs: IoStats) -> IoStats {
        IoStats {
            logical_reads: self.logical_reads.saturating_sub(rhs.logical_reads),
            buffer_hits: self.buffer_hits.saturating_sub(rhs.buffer_hits),
            buffer_misses: self.buffer_misses.saturating_sub(rhs.buffer_misses),
            physical_reads: self.physical_reads.saturating_sub(rhs.physical_reads),
            physical_writes: self.physical_writes.saturating_sub(rhs.physical_writes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_handles_zero_reads() {
        assert_eq!(IoStats::default().hit_ratio(), 0.0);
        let s = IoStats {
            logical_reads: 10,
            buffer_hits: 7,
            buffer_misses: 3,
            physical_reads: 3,
            physical_writes: 0,
        };
        assert!((s.hit_ratio() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn subtraction_and_accumulation() {
        let a = IoStats {
            logical_reads: 10,
            buffer_hits: 4,
            buffer_misses: 6,
            physical_reads: 6,
            physical_writes: 1,
        };
        let b = IoStats {
            logical_reads: 3,
            buffer_hits: 1,
            buffer_misses: 2,
            physical_reads: 2,
            physical_writes: 0,
        };
        let d = a - b;
        assert_eq!(d.logical_reads, 7);
        assert_eq!(d.physical_reads, 4);
        let mut acc = b;
        acc.accumulate(&d);
        assert_eq!(acc, a);
        // Saturation instead of underflow.
        assert_eq!((b - a).logical_reads, 0);
    }

    #[test]
    fn publish_mirrors_counters_into_registry() {
        let s = IoStats {
            logical_reads: 10,
            buffer_hits: 7,
            buffer_misses: 3,
            physical_reads: 2,
            physical_writes: 1,
        };
        let registry = mcn_obs::MetricsRegistry::new();
        s.publish(&registry, &[("region", "r0")]);
        let snap = registry.snapshot();
        let labels = [("region", "r0")];
        assert_eq!(
            snap.counter_value("storage.logical_reads", &labels),
            Some(10)
        );
        assert_eq!(snap.counter_value("storage.buffer_hits", &labels), Some(7));
        assert_eq!(
            snap.counter_value("storage.buffer_misses", &labels),
            Some(3)
        );
        assert_eq!(
            snap.counter_value("storage.physical_reads", &labels),
            Some(2)
        );
        assert_eq!(
            snap.counter_value("storage.physical_writes", &labels),
            Some(1)
        );
        assert!((snap.gauge_value("storage.hit_ratio", &labels).unwrap() - 0.7).abs() < 1e-12);
        // Republishing is idempotent (absolute values, not increments).
        s.publish(&registry, &[("region", "r0")]);
        assert_eq!(
            registry
                .snapshot()
                .counter_value("storage.logical_reads", &labels),
            Some(10)
        );
    }
}
