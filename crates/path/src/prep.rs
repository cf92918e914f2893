//! **ParetoPrep-style precomputation** for multi-criteria path-skyline
//! queries (Shekelyan, Jossé & Schubert, *ParetoPrep: Fast computation of
//! Path Skylines Queries*).
//!
//! The paper this repository reproduces contrasts its facility skyline with
//! multi-criteria Pareto path computation (MCPP, Section II-D). The exhaustive
//! MCPP baseline in [`crate::mcpp`] keeps every non-dominated label at every
//! node until termination; ParetoPrep showed that one cheap **backward
//! scan** from the target — computing, per node, the vector of
//! single-criterion shortest distances to the target — prunes the vast
//! majority of those labels (and the `mcpp` search also orders itself by
//! them):
//!
//! * [`PrepTable`] — the scan result: per-cost **lower bounds** `L(v)` for
//!   every node and up to `d` concrete upper-bound paths
//!   ([`PrepTable::upper_bound_cuts`]), stored as flat `n × d` arrays, plus
//!   the summed-cost distance `S(v)` ([`PrepTable::sum_bound`]) the α tier
//!   bounds weighted sums with.
//! * [`PrepCache`] — a bounded, thread-safe LRU of tables keyed by target
//!   node, so concurrent query batches towards popular targets share one
//!   scan (`mcn-engine` serves `QueryRequest::PathSkyline` through it).
//!
//! The pruned search itself is
//! [`pareto_paths_prepped`](crate::mcpp::pareto_paths_prepped); this module
//! calls nothing of it and needs only the graph model.
//!
//! ## Example
//!
//! ```
//! use mcn_graph::{CostVec, GraphBuilder, NodeId};
//! use mcn_path::prep::PrepTable;
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

pub use crate::cache::{PrepCache, PrepCacheStats};
pub use crate::table::PrepTable;
