//! # mcn-prep
//!
//! **ParetoPrep-style precomputation** for multi-criteria path-skyline
//! queries (Shekelyan, Jossé & Schubert, *ParetoPrep: Fast computation of
//! Path Skylines Queries*).
//!
//! The paper this repository reproduces contrasts its facility skyline with
//! multi-criteria Pareto path computation (MCPP, Section II-D). The
//! exhaustive MCPP baseline in `mcn-mcpp` keeps every non-dominated label
//! at every node until termination; ParetoPrep showed that one cheap
//! **backward scan** from the target — computing, per node, the vector of
//! single-criterion shortest distances to the target — prunes the vast
//! majority of those labels (and `mcn-mcpp` also orders its search by
//! them):
//!
//! * [`PrepTable`] — the scan result: per-cost **lower bounds** `L(v)` for
//!   every node, per-edge forward bounds, and up to `d` concrete
//!   upper-bound paths ([`PrepTable::upper_bound_cuts`]), stored as flat
//!   `n × d` arrays, plus the summed-cost distance `S(v)`
//!   ([`PrepTable::sum_bound`]) the α tier bounds weighted sums with.
//! * [`PrepCache`] — a bounded, thread-safe LRU of tables keyed by target
//!   node, so concurrent query batches towards popular targets share one
//!   scan (`mcn-engine` serves `QueryRequest::PathSkyline` through it).
//!
//! The pruned search itself lives in `mcn-mcpp`
//! (`pareto_paths_prepped`), which this crate deliberately does not depend
//! on: `mcn-prep` only needs the graph model.
//!
//! ## Example
//!
//! ```
//! use mcn_graph::{CostVec, GraphBuilder, NodeId};
//! use mcn_prep::PrepTable;
//!
//! let mut b = GraphBuilder::new(2);
//! let s = b.add_node(0.0, 0.0);
//! let m = b.add_node(1.0, 0.0);
//! let t = b.add_node(2.0, 0.0);
//! b.add_edge(s, m, CostVec::from_slice(&[1.0, 4.0])).unwrap();
//! b.add_edge(m, t, CostVec::from_slice(&[2.0, 3.0])).unwrap();
//! let g = b.build().unwrap();
//!
//! let prep = PrepTable::build(&g, t);
//! assert_eq!(prep.bound(s), &[3.0, 7.0]);
//! assert!(prep.reaches(m));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod table;

pub use cache::{PrepCache, PrepCacheStats};
pub use table::PrepTable;

/// Compile-time thread-safety proof: instantiated in a `const _` next to
/// each shared type, so the build fails the moment a field change makes the
/// type lose `Send`/`Sync`.
pub(crate) const fn assert_send_sync<T: Send + Sync>() {}
