//! Paths through the network and their accumulated cost vectors.

use crate::cost::CostVec;
use crate::graph::MultiCostGraph;
use crate::ids::{EdgeId, NodeId};

/// A path through the network, represented as the sequence of traversed edges
/// together with the node sequence and the accumulated cost vector.
///
/// The paper's `s_i(q, p)` is the shortest path w.r.t. cost type `i`; its cost
/// `c_i(q, p)` is one component of the path's [`Path::costs`]. Paths are
/// produced by the Dijkstra / expansion engines (`mcn-expansion`) and by the
/// multi-criteria Pareto path algorithms (`mcn-mcpp`).
#[derive(Clone, Debug, PartialEq)]
pub struct Path {
    /// The visited nodes, in order. A path with a single node and no edges is
    /// the trivial path from a node to itself.
    pub nodes: Vec<NodeId>,
    /// The traversed edges, in order; `edges.len() == nodes.len() - 1`.
    pub edges: Vec<EdgeId>,
    /// The accumulated cost vector (sum of the edge cost vectors, plus any
    /// partial weights at the endpoints).
    pub costs: CostVec,
}

impl Path {
    /// The trivial path that starts and ends at `node` with zero cost.
    pub fn trivial(node: NodeId, num_cost_types: usize) -> Self {
        Self {
            nodes: vec![node],
            edges: Vec::new(),
            costs: CostVec::zeros(num_cost_types),
        }
    }

    /// Number of traversed edges (hops).
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True iff the path has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The first node of the path, if any.
    #[inline]
    pub fn source(&self) -> Option<NodeId> {
        self.nodes.first().copied()
    }

    /// The last node of the path, if any.
    #[inline]
    pub fn target(&self) -> Option<NodeId> {
        self.nodes.last().copied()
    }

    /// Appends an edge to the path, extending the node sequence and adding the
    /// edge's costs.
    ///
    /// # Panics
    /// Panics if the edge is not incident to the current last node or cannot be
    /// traversed from it.
    pub fn push_edge(&mut self, graph: &MultiCostGraph, edge: EdgeId) {
        let last = self
            .target()
            .expect("cannot extend an empty path; start from Path::trivial");
        let e = graph.edge(edge);
        assert!(
            e.traversable_from(last),
            "edge {edge} cannot be traversed from {last}"
        );
        self.nodes.push(e.opposite(last));
        self.edges.push(edge);
        self.costs += e.costs;
    }

    /// Checks that the path is structurally consistent with `graph`: the node
    /// and edge sequences interleave correctly, every edge is traversable in
    /// the direction used, and the recorded cost vector matches the sum of the
    /// edge costs (within `tolerance` per component).
    pub fn validate(&self, graph: &MultiCostGraph, tolerance: f64) -> bool {
        if self.nodes.is_empty() || self.nodes.len() != self.edges.len() + 1 {
            return false;
        }
        let mut acc = CostVec::zeros(graph.num_cost_types());
        for (i, &eid) in self.edges.iter().enumerate() {
            if eid.index() >= graph.num_edges() {
                return false;
            }
            let e = graph.edge(eid);
            let from = self.nodes[i];
            let to = self.nodes[i + 1];
            if !e.traversable_from(from) || e.opposite(from) != to {
                return false;
            }
            acc += e.costs;
        }
        acc.as_slice()
            .iter()
            .zip(self.costs.as_slice())
            .all(|(a, b)| (a - b).abs() <= tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn chain() -> (MultiCostGraph, Vec<NodeId>, Vec<EdgeId>) {
        let mut b = GraphBuilder::new(2);
        let nodes: Vec<NodeId> = (0..4).map(|i| b.add_node(i as f64, 0.0)).collect();
        let mut edges = Vec::new();
        for w in nodes.windows(2) {
            edges.push(
                b.add_edge(w[0], w[1], CostVec::from_slice(&[1.0, 2.0]))
                    .unwrap(),
            );
        }
        (b.build().unwrap(), nodes, edges)
    }

    #[test]
    fn trivial_path() {
        let p = Path::trivial(NodeId::new(3), 2);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.source(), Some(NodeId::new(3)));
        assert_eq!(p.target(), Some(NodeId::new(3)));
        assert_eq!(p.costs.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn push_edges_accumulates_costs() {
        let (g, nodes, edges) = chain();
        let mut p = Path::trivial(nodes[0], 2);
        p.push_edge(&g, edges[0]);
        p.push_edge(&g, edges[1]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.target(), Some(nodes[2]));
        assert_eq!(p.costs.as_slice(), &[2.0, 4.0]);
        assert!(p.validate(&g, 1e-12));
    }

    #[test]
    #[should_panic]
    fn push_non_incident_edge_panics() {
        let (g, nodes, edges) = chain();
        let mut p = Path::trivial(nodes[0], 2);
        p.push_edge(&g, edges[2]); // edge 2 is not incident to node 0
    }

    #[test]
    fn validate_detects_corruption() {
        let (g, nodes, edges) = chain();
        let mut p = Path::trivial(nodes[0], 2);
        p.push_edge(&g, edges[0]);
        // Corrupt the cost vector.
        p.costs[0] += 1.0;
        assert!(!p.validate(&g, 1e-12));
        // Corrupt the node sequence.
        let mut p2 = Path::trivial(nodes[0], 2);
        p2.push_edge(&g, edges[0]);
        p2.nodes[1] = nodes[3];
        assert!(!p2.validate(&g, 1e-12));
    }

    #[test]
    fn directed_traversal_validated() {
        let mut b = GraphBuilder::new(1);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        let e = b
            .add_directed_edge(a, c, CostVec::from_slice(&[1.0]))
            .unwrap();
        let g = b.build().unwrap();
        // Walking the edge backwards is invalid.
        let p = Path {
            nodes: vec![c, a],
            edges: vec![e],
            costs: CostVec::from_slice(&[1.0]),
        };
        assert!(!p.validate(&g, 1e-12));
    }
}
