//! # mcn-bench
//!
//! The experiment harness that regenerates every figure of the paper's
//! Section VI evaluation, plus the deterministic count gates that pin the
//! figures' logical reads and the path tiers' label and settled counts.
//! Wall-clock measurement lives in the repo benchmark (`benchmark/`).
//!
//! The paper's metric is total processing time on a real disk, which is
//! dominated by I/O (84–95 %). This reproduction runs on a simulated
//! in-memory disk, so for every data point the harness reports:
//!
//! * mean **physical page reads** per query (the paper's real cost driver),
//! * mean **CPU time** per query,
//! * mean **charged time** = CPU + physical reads × a configurable random-read
//!   latency (default 5 ms, a 2010-era disk), which is the column to compare
//!   against the paper's time axis,
//! * buffer hit ratio, candidates, pinned facilities and result sizes.
//!
//! Workloads default to the paper's parameters scaled down by a configurable
//! factor (50× by default) so the full sweep finishes in minutes; pass
//! `--scale 1` to the `experiments` binary for the full-size configuration.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alpha;
pub mod experiments;
pub mod gate;
pub mod index;
pub mod measure;
pub mod partition;
pub mod prep;
pub mod report;
pub mod requests;

pub use alpha::{
    measure_scalarized, render_alpha_table, run_alpha, run_alpha_on_graph, AlphaConfig,
    AlphaReport, AlphaRow, ScalarMetrics, ALPHA_ID, MIN_SETTLED_REDUCTION, MIN_SKYLINE_ADVANTAGE,
};
pub use experiments::{all_experiments, Experiment, ExperimentConfig};
pub use gate::{
    compare, gate_graph, run_gate, AlphaGateConfig, AlphaGatePoint, AlphaSettledBaseline, Gate,
    GateBaseline, GateConfig, GatePoint, GateRow, GateTable, IndexGateConfig, IndexGatePoint,
    IndexSettledBaseline, LabelBaseline, LabelGateConfig, LabelGatePoint, GATE_TOLERANCE,
};
pub use index::{
    measure_index, render_index_table, run_index, run_index_on_graph, IndexExperimentConfig,
    IndexMetrics, IndexReport, IndexRow, INDEX_ID, MIN_INDEX_REDUCTION,
};
pub use measure::{measure_point, AlgoMeasurement, PointMeasurement, QueryKind};
pub use partition::{
    dimacs_workload, render_partition_table, run_partition, run_partition_on, PartitionConfig,
    PartitionRow, PartitionTable, PARTITION_ID,
};
pub use prep::{
    dimacs_graph, measure_labels, render_prep_table, run_prep, run_prep_on_graph, LabelMetrics,
    PrepConfig, PrepReport, PrepRow, MIN_LABEL_REDUCTION, PREP_ID,
};
pub use report::{render_table, ExperimentTable, Row};
pub use requests::build_request_batch;
