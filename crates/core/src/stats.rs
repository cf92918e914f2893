//! Per-query execution statistics.

use mcn_storage::IoStats;
use std::time::Duration;

/// Execution statistics of one preference query.
///
/// The paper reports total processing time, which in its setting is dominated
/// by I/O (84–95 %). On the simulated disk used here, wall-clock time measures
/// only the CPU side, so the harness additionally *charges* a configurable
/// latency per physical page read (see [`QueryStats::charged_time`]) to
/// recover the paper's time axis.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryStats {
    /// Name of the algorithm that produced the result (e.g. `"LSA"`, `"CEA"`).
    pub algorithm: String,
    /// Wall-clock (CPU) time spent processing the query.
    pub elapsed: Duration,
    /// I/O activity attributable to this query (difference of store snapshots).
    pub io: IoStats,
    /// Network nodes settled across all expansions.
    pub nodes_settled: usize,
    /// Total heap pushes across all expansions.
    pub heap_pushes: usize,
    /// Total heap pops across all expansions.
    pub heap_pops: usize,
    /// Facilities that entered the candidate set during the growing stage.
    pub candidates: usize,
    /// Facilities pinned (complete cost vector computed).
    pub pinned: usize,
    /// Dominance (or score-comparison) checks performed.
    pub dominance_checks: usize,
    /// Number of results returned.
    pub result_size: usize,
}

impl QueryStats {
    /// Total time charged to the query assuming `latency_per_read` seconds per
    /// physical page read on top of the measured CPU time.
    pub fn charged_time(&self, latency_per_read: f64) -> f64 {
        self.elapsed.as_secs_f64() + self.io.charged_read_time(latency_per_read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charged_time_adds_io_model() {
        let stats = QueryStats {
            elapsed: Duration::from_millis(10),
            io: IoStats {
                physical_reads: 100,
                ..Default::default()
            },
            ..Default::default()
        };
        // 10 ms CPU + 100 reads × 10 ms = 1.01 s.
        assert!((stats.charged_time(0.01) - 1.01).abs() < 1e-9);
    }
}
