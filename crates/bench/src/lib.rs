//! # mcn-bench
//!
//! The experiment harness that regenerates every figure of the paper's
//! Section VI evaluation as a text table, plus the deterministic count
//! gates that pin the figures' logical reads and the path tiers' label and
//! settled counts (and assert the tiers' acceptance bars). Wall-clock
//! measurement lives in the repo benchmark (`benchmark/`).
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
pub mod prep;
pub mod report;
pub mod requests;

pub use alpha::{measure_scalarized, ScalarMetrics, MIN_SETTLED_REDUCTION, MIN_SKYLINE_ADVANTAGE};
pub use experiments::{Experiment, ExperimentConfig};
pub use gate::{
    compare, gate_graph, run_gate, AlphaGateConfig, AlphaGatePoint, AlphaSettledBaseline, Gate,
    GateBaseline, GateConfig, GatePoint, GateRow, GateTable, IndexGateConfig, IndexGatePoint,
    IndexSettledBaseline, LabelBaseline, LabelGateConfig, LabelGatePoint, GATE_TOLERANCE,
};
pub use index::{measure_index, IndexMetrics};
pub use measure::{measure_point, AlgoMeasurement, PointMeasurement, QueryKind};
pub use prep::{measure_labels, LabelMetrics, MIN_LABEL_REDUCTION};
pub use report::{render_table, ExperimentTable, Row};
pub use requests::build_request_batch;
