//! Network edges (road segments) carrying multi-dimensional cost vectors.

use crate::cost::CostVec;
use crate::ids::{EdgeId, NodeId};

/// A network edge (road segment) between two nodes, carrying a cost vector.
///
/// Following the paper, edges are undirected by default: the cost vector in
/// either direction is identical. Directed edges are supported by setting
/// [`Edge::directed`]; a directed edge may only be traversed from
/// [`Edge::source`] to [`Edge::target`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// The edge identifier.
    pub id: EdgeId,
    /// First end-node (the paper's `v_i` in `⟨v_i, v_j⟩`).
    pub source: NodeId,
    /// Second end-node (the paper's `v_j`).
    pub target: NodeId,
    /// The `d`-dimensional cost vector `w(e)`.
    pub costs: CostVec,
    /// Whether the edge may only be traversed from `source` to `target`.
    pub directed: bool,
}

impl Edge {
    /// Creates an undirected edge.
    #[inline]
    pub fn new(id: EdgeId, source: NodeId, target: NodeId, costs: CostVec) -> Self {
        Self {
            id,
            source,
            target,
            costs,
            directed: false,
        }
    }

    /// Creates a directed edge (traversable only from `source` to `target`).
    #[inline]
    pub(crate) fn new_directed(id: EdgeId, source: NodeId, target: NodeId, costs: CostVec) -> Self {
        Self {
            id,
            source,
            target,
            costs,
            directed: true,
        }
    }

    /// Given one end-node, returns the opposite end-node.
    ///
    /// # Panics
    /// Panics if `node` is not an end-node of this edge.
    #[inline]
    pub fn opposite(&self, node: NodeId) -> NodeId {
        if node == self.source {
            self.target
        } else if node == self.target {
            self.source
        } else {
            panic!("{node} is not an end-node of {}", self.id)
        }
    }

    /// Returns true iff `node` is one of the edge's end-nodes.
    #[inline]
    pub(crate) fn touches(&self, node: NodeId) -> bool {
        node == self.source || node == self.target
    }

    /// Returns true iff the edge can be traversed *starting from* `from`.
    ///
    /// Undirected edges can be traversed from either end-node; directed edges
    /// only from their source.
    #[inline]
    pub fn traversable_from(&self, from: NodeId) -> bool {
        if self.directed {
            from == self.source
        } else {
            self.touches(from)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge() -> Edge {
        Edge::new(
            EdgeId::new(0),
            NodeId::new(1),
            NodeId::new(2),
            CostVec::from_slice(&[3.0, 4.0]),
        )
    }

    #[test]
    fn opposite_end_node() {
        let e = edge();
        assert_eq!(e.opposite(NodeId::new(1)), NodeId::new(2));
        assert_eq!(e.opposite(NodeId::new(2)), NodeId::new(1));
    }

    #[test]
    #[should_panic]
    fn opposite_of_foreign_node_panics() {
        edge().opposite(NodeId::new(9));
    }

    #[test]
    fn traversal_rules() {
        let und = edge();
        assert!(und.traversable_from(NodeId::new(1)));
        assert!(und.traversable_from(NodeId::new(2)));
        assert!(!und.traversable_from(NodeId::new(3)));

        let dir = Edge::new_directed(
            EdgeId::new(1),
            NodeId::new(1),
            NodeId::new(2),
            CostVec::from_slice(&[1.0]),
        );
        assert!(dir.traversable_from(NodeId::new(1)));
        assert!(!dir.traversable_from(NodeId::new(2)));
    }

    #[test]
    fn touches_and_dimensions() {
        let e = edge();
        assert!(e.touches(NodeId::new(1)));
        assert!(!e.touches(NodeId::new(7)));
        assert_eq!(e.costs.len(), 2);
    }
}
