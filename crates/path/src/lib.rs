//! # mcn-path
//!
//! The **path tiers**: queries that answer with routes between a source and
//! a target node rather than with facilities. They are one family — the
//! multi-criteria Pareto path computation the paper contrasts with its MCN
//! skyline (Section II-D), and its accelerations from the related work:
//!
//! * [`mcpp`] — path skylines by best-first multi-criteria label search;
//! * [`prep`] — ParetoPrep per-cost lower bounds from one backward scan
//!   per target, and the bounded cache of those tables;
//! * [`alpha`] — the scalarized serving tier: α-weighted fastest paths by
//!   Dijkstra or by A* over prep bounds;
//! * [`index`] — the partial-path route index, whose bidirectional upward
//!   queries answer both the α and the skyline query byte-identically to
//!   the direct searches.
//!
//! Each public module is the API of one tier. The code behind them lives in
//! private sibling modules, one per file: `label` and `stats` (mcpp),
//! `table` and `cache` (prep), `preference` and `search` (alpha), and
//! `structure`, `build`, `query` and `config` (index).

pub mod alpha;
pub mod index;
pub mod mcpp;
pub mod prep;

mod build;
mod cache;
mod config;
mod label;
mod preference;
mod query;
mod search;
mod stats;
mod structure;
mod table;

/// Compile-time thread-safety proof: instantiated in a `const _` next to
/// each shared type, so the build fails the moment a field change makes the
/// type lose `Send`/`Sync`.
const fn assert_send_sync<T: Send + Sync>() {}

#[cfg(test)]
mod tests {
    use crate::mcpp::pareto_paths;
    use mcn_graph::{CostVec, GraphBuilder, NodeId};

    #[test]
    fn crate_level_smoke_test() {
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        b.add_edge(a, c, CostVec::from_slice(&[1.0, 5.0])).unwrap();
        b.add_edge(a, c, CostVec::from_slice(&[5.0, 1.0])).unwrap();
        let g = b.build().unwrap();
        let paths = pareto_paths(&g, a, NodeId::new(1));
        assert_eq!(paths.len(), 2);
    }
}
