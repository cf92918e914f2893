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

mod alpha;
mod experiments;
mod gate;
mod index;
mod measure;
mod prep;
mod report;
mod requests;

pub use experiments::{Experiment, ExperimentConfig};
pub use gate::{gate_graph, run_gate, Baseline, Gate, GATES, GATE_TOLERANCE};
pub use report::{render_table, ExperimentTable, Row};
pub use requests::build_request_batch;
