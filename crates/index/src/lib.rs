//! # mcn-index
//!
//! A **hierarchical partial-path route index** over the multi-cost graph:
//! a contraction-style hierarchy whose shortcut arcs carry the *Pareto set*
//! of witness-path cost vectors, in the spirit of partial-path indexing for
//! multi-cost route queries (Yang et al., arXiv 2004.12424) grafted onto
//! the contraction-hierarchy machinery of single-cost road networks.
//!
//! ## Build phase
//!
//! Nodes are ranked by a deterministic importance heuristic (edge
//! difference + contracted-neighbor count, lazily re-evaluated, node-id
//! tie-break) and contracted bottom-up. Contracting `v` replaces its arcs
//! by **shortcut arcs** `u → w` whose *bundle* is the Pareto set of
//! combined cost vectors `c(u→v) + c(v→w)`; a candidate is dropped iff a
//! bounded witness search finds a `u → w` path avoiding `v` that weakly
//! dominates it — safe for every scalarization α ≥ 0 *and* for skyline
//! assembly, because a weakly dominating substitute path always exists.
//! An inconclusive (budget-bounded) witness search keeps the shortcut:
//! only index size suffers, never correctness. Bundles are capped
//! ([`IndexConfig::max_bundle`]); any truncation clears the index's
//! [`RouteIndex::exact`] flag, and the engine then falls back to the
//! prep-backed tier.
//!
//! ## Query phase
//!
//! Both query kinds run bidirectional *upward* searches (forward over
//! `up_out`, backward over `up_in`) and assemble the answer from indexed
//! path fragments:
//!
//! * [`RouteIndex::alpha_path`] — scalarized bidirectional Dijkstra with
//!   the standard stopping criterion; byte-identical to
//!   [`mcn_alpha::scalarized_path`] (totals and cost vectors are recomputed
//!   edge-by-edge in path order, so the bits match, not just the values).
//! * [`RouteIndex::skyline_paths`] — a dominance-merging variant producing
//!   the full path skyline, byte-identical to
//!   `mcn_mcpp::pareto_paths_prepped`. Its upward label searches keep
//!   paths implicit (a parent-pointer arena per search), so a relaxation
//!   costs its dominance check, not a copy of a fragment list. The query
//!   matches once on `d` and runs a kernel compiled for that width: label
//!   sets and the meeting-node merge hold `[f64; d]` costs, compared by
//!   the fixed-width helpers of [`mcn_graph::dominance`]; only the merge's
//!   survivors become [`mcn_graph::CostVec`]s again, for the path-order
//!   re-filter.
//!
//! Both report their search effort as [`mcn_alpha::ScalarStats`] (the
//! skyline counting labels where the α search counts nodes), and
//! [`RouteIndex::alpha_path`] returns the same [`mcn_alpha::ScalarResult`]
//! as the direct α search.
//!
//! Both inherit the **exact ties caveat** documented on
//! [`mcn_mcpp::pareto_paths`]: on graphs with exactly tied cost vectors the
//! surviving *representative* path may differ; the continuous float costs
//! of every seeded workload have no such ties.
//!
//! Bicriterion (`d == 2`) dominance checks use the sorted-sweep structure
//! of [`mcn_graph::Front2`] — bundles and label sets are kept
//! lexicographically sorted, which at `d == 2` makes weak dominance a
//! binary search instead of a scan.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod build;
pub mod config;
pub mod query;
pub mod structure;

pub use config::IndexConfig;
pub use query::IndexSkylineResult;
pub use structure::{ArcEntry, Fragment, RouteIndex, UpArc};

/// Compile-time thread-safety proof, mirrored from the other workspace
/// crates: instantiated in a `const _` next to each shared type so the
/// build fails the moment a field change makes the type lose
/// `Send`/`Sync`.
pub(crate) const fn assert_send_sync<T: Send + Sync>() {}
