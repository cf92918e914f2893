//! Per-query execution statistics.

use mcn_storage::IoStats;
use std::time::Duration;

/// Execution statistics of one preference query.
///
/// The paper reports total processing time, which in its setting is dominated
/// by I/O (84–95 %). On the simulated disk used here, wall-clock time measures
/// only the CPU side, so the harness additionally *charges* a configurable
/// latency per physical page read to recover the paper's time axis
/// (`AlgoMeasurement::charged_seconds` in `mcn-bench`).
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
