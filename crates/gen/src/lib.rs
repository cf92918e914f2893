//! # mcn-gen
//!
//! Synthetic workload generation matching the experimental setup of the
//! paper's Section VI:
//!
//! * `network` — San-Francisco-scale synthetic road networks (planar grid
//!   with jitter, removed edges and diagonal shortcuts), always connected;
//! * `costs` — independent / correlated / anti-correlated edge-cost
//!   assignment with `d ∈ [2, 8]` cost types;
//! * `facilities` — facility sets forming Gaussian clusters around random
//!   network nodes (10 clusters in the paper);
//! * `workload` — one-call assembly of a full experiment workload (graph +
//!   query locations) from a [`WorkloadSpec`], including the paper's default
//!   parameters and scaled-down variants;
//! * `preferences` — deterministic per-user preference-vector pools for
//!   the scalarized serving tier (`mcn_path::alpha`).
//!
//! Everything is deterministic given the spec's seed, so experiments are
//! reproducible run to run.

mod costs;
mod facilities;
mod network;
mod preferences;
mod workload;

pub use costs::CostDistribution;
pub use preferences::{generate_preferences, PreferenceSpec};
pub use workload::{generate_workload, Workload, WorkloadSpec};
