//! Network nodes (road intersections).

use crate::ids::NodeId;

/// A network node (road intersection).
///
/// Nodes optionally carry spatial coordinates. The query algorithms do **not**
/// rely on node locations (the paper targets generic cost types with no
/// Euclidean lower bounds); coordinates are used only by the workload
/// generators, the loaders for real datasets, and for computing the position of
/// facilities along their edges.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Node {
    /// The node identifier.
    pub id: NodeId,
    /// X coordinate (e.g. longitude or planar x); `NaN` if unknown.
    pub x: f64,
    /// Y coordinate (e.g. latitude or planar y); `NaN` if unknown.
    pub y: f64,
}

impl Node {
    /// Creates a node with coordinates.
    #[inline]
    pub fn new(id: NodeId, x: f64, y: f64) -> Self {
        Self { id, x, y }
    }

    /// Creates a node without spatial information.
    #[inline]
    pub fn without_position(id: NodeId) -> Self {
        Self {
            id,
            x: f64::NAN,
            y: f64::NAN,
        }
    }

    /// Returns true if the node carries spatial coordinates.
    #[inline]
    pub fn has_position(&self) -> bool {
        !self.x.is_nan() && !self.y.is_nan()
    }

    /// Euclidean distance to another node; `None` if either lacks coordinates.
    #[inline]
    pub fn euclidean_distance(&self, other: &Node) -> Option<f64> {
        if self.has_position() && other.has_position() {
            Some(((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_handling() {
        let a = Node::new(NodeId::new(0), 0.0, 0.0);
        let b = Node::new(NodeId::new(1), 3.0, 4.0);
        let c = Node::without_position(NodeId::new(2));
        assert!(a.has_position());
        assert!(!c.has_position());
        assert_eq!(a.euclidean_distance(&b), Some(5.0));
        assert_eq!(a.euclidean_distance(&c), None);
    }
}
