//! # mcn — Preference queries in large multi-cost transportation networks
//!
//! Facade crate re-exporting the whole workspace: a reproduction of
//! Mouratidis, Lin & Yiu, *"Preference Queries in Large Multi-Cost
//! Transportation Networks"*, ICDE 2010.
//!
//! See the individual crates and modules for details:
//!
//! * [`graph`] — the multi-cost network model (nodes, edges, cost vectors,
//!   facilities, network locations).
//! * [`storage`] — the disk-resident storage scheme of the paper's Figure 2
//!   (paged adjacency/facility files, B+-tree indexes, LRU buffer pool).
//! * [`expansion`] — incremental network expansion (Dijkstra-based nearest
//!   facility search) over the paged store.
//! * [`core`] — the paper's contribution: LSA and CEA skyline algorithms
//!   and batch/incremental top-k processing.
//! * [`engine`] — the concurrent multi-query engine: a bounded worker pool
//!   scheduling batches of skyline/top-k queries over one shared store.
//! * [`mcpp`], [`prep`], [`alpha`] and [`index`] — the four path tiers,
//!   modules of one crate (`mcn-path`):
//!   * [`mcpp`] — multi-criteria Pareto (skyline) path computation, with a
//!     ParetoPrep-pruned variant.
//!   * [`prep`] — ParetoPrep precomputation: backward per-cost lower-bound
//!     scans and the prep-table cache behind the engine's path queries.
//!   * [`alpha`] — the scalarized preference serving tier: per-user α
//!     weight vectors, α-collapsed Dijkstra and prep-backed A* fastest
//!     paths.
//!   * [`index`] — the hierarchical partial-path route index: multi-cost
//!     contraction hierarchy with Pareto shortcut bundles, bidirectional
//!     upward queries byte-identical to the prep-backed tier.
//! * [`obs`] — observability: the metrics registry (counters and
//!   gauges), query-lifecycle span tracing, and the `Clock` abstraction
//!   used by every timing path.
//! * [`gen`] — synthetic workload generation matching the paper's Section VI.

pub use mcn_core as core;
pub use mcn_engine as engine;
pub use mcn_expansion as expansion;
pub use mcn_gen as gen;
pub use mcn_graph as graph;
pub use mcn_obs as obs;
pub use mcn_path::{alpha, index, mcpp, prep};
pub use mcn_storage as storage;

pub use mcn_core::prelude::*;
