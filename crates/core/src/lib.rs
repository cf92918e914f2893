//! # mcn-core
//!
//! The paper's contribution: **preference queries in multi-cost transportation
//! networks** — skyline and top-k queries over a facility set embedded in a
//! road network whose edges carry `d`-dimensional cost vectors
//! (Mouratidis, Lin & Yiu, ICDE 2010).
//!
//! * [`skyline::skyline_query`] / [`skyline::SkylineSearch`] — the **LSA** and
//!   **CEA** algorithms (Section IV); progressive output via the iterator.
//! * [`skyline::baseline_skyline`] — the straightforward baseline (`d` full
//!   expansions + a conventional skyline algorithm).
//! * [`topk::topk_query`] / [`topk::TopKIter`] — batch and **incremental**
//!   top-k processing (Section V), plus [`topk::baseline_topk`].
//! * [`aggregate::WeightedSum`] — the monotone aggregate used in the paper's
//!   evaluation.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use mcn_core::prelude::*;
//! use mcn_graph::{CostVec, GraphBuilder, NetworkLocation};
//! use mcn_storage::{BufferConfig, MCNStore};
//!
//! // Two cost types: travel time and toll fee.
//! let mut b = GraphBuilder::new(2);
//! let q = b.add_node(0.0, 0.0);
//! let v = b.add_node(1.0, 0.0);
//! let e = b.add_edge(q, v, CostVec::from_slice(&[10.0, 2.0])).unwrap();
//! b.add_facility(e, 0.5).unwrap();
//! let graph = b.build().unwrap();
//!
//! let store = Arc::new(MCNStore::build_in_memory(&graph, BufferConfig::Fraction(0.01)).unwrap());
//! let result = skyline_query(&store, NetworkLocation::Node(q), Algorithm::Cea);
//! assert_eq!(result.facilities.len(), 1);
//!
//! let top = topk_query(&store, NetworkLocation::Node(q), WeightedSum::uniform(2), 1, Algorithm::Cea);
//! assert_eq!(top.entries.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod candidate;
mod coordinator;
pub mod skyline;
pub mod stats;
pub mod topk;

#[cfg(test)]
pub(crate) mod test_support;

pub use aggregate::{AggregateCost, WeightedSum};
pub use candidate::{Candidate, CandidateSet};
pub use skyline::{
    baseline_skyline, skyline_query, skyline_query_in, Algorithm, SkylineFacility, SkylineResult,
    SkylineSearch,
};
pub use stats::QueryStats;
pub use topk::{baseline_topk, topk_query, topk_query_in, TopKEntry, TopKIter, TopKResult};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::aggregate::{AggregateCost, WeightedSum};
    pub use crate::skyline::{
        baseline_skyline, skyline_query, skyline_query_in, Algorithm, SkylineFacility,
        SkylineResult, SkylineSearch,
    };
    pub use crate::stats::QueryStats;
    pub use crate::topk::{
        baseline_topk, topk_query, topk_query_in, TopKEntry, TopKIter, TopKResult,
    };
}

/// Compile-time thread-safety proof: instantiated in a `const _` next to
/// each shared type, so the build fails the moment a field change makes the
/// type lose `Send`.
pub(crate) const fn assert_send<T: Send>() {}
