//! # mcn-path
//!
//! The **path tiers**: queries that answer with routes between a source and
//! a target node rather than with facilities. They are one family — the
//! multi-criteria Pareto path computation the paper contrasts with its MCN
//! skyline (Section II-D), and its accelerations from the related work:
//!
//! * [`mcpp`] — path skylines by label-setting multi-criteria search;
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

use std::cmp::Ordering;

/// Compile-time thread-safety proof: instantiated in a `const _` next to
/// each shared type, so the build fails the moment a field change makes the
/// type lose `Send`/`Sync`.
const fn assert_send_sync<T: Send + Sync>() {}

/// A binary-heap entry of the path searches: `id` (a node or a label)
/// queued at `key`. Ordered so the smallest key pops first (IEEE total
/// order) and equal keys by the smallest id, which makes every pop order,
/// and with it every counter, a pure function of the input.
#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    key: f64,
    id: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest key.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.id.cmp(&self.id))
    }
}

#[cfg(test)]
mod tests {
    use crate::mcpp::pareto_paths;
    use mcn_graph::{CostVec, GraphBuilder, MultiCostGraph, NodeId};

    /// Diamond network `(graph, s, t)`: `s → t` over a side cheap in cost
    /// 0 and a side cheap in cost 1, each of two edges.
    pub(crate) fn diamond() -> (MultiCostGraph, NodeId, NodeId) {
        let mut b = GraphBuilder::new(2);
        let s = b.add_node(0.0, 0.0);
        let up = b.add_node(1.0, 1.0);
        let down = b.add_node(1.0, -1.0);
        let t = b.add_node(2.0, 0.0);
        b.add_edge(s, up, CostVec::from_slice(&[1.0, 10.0]))
            .unwrap();
        b.add_edge(up, t, CostVec::from_slice(&[1.0, 10.0]))
            .unwrap();
        b.add_edge(s, down, CostVec::from_slice(&[10.0, 1.0]))
            .unwrap();
        b.add_edge(down, t, CostVec::from_slice(&[10.0, 1.0]))
            .unwrap();
        (b.build().unwrap(), s, t)
    }

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
