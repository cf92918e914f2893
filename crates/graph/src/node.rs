//! Network nodes (road intersections).

use crate::ids::NodeId;

/// A network node (road intersection).
///
/// Nodes carry spatial coordinates. The query algorithms do **not**
/// rely on node locations (the paper targets generic cost types with no
/// Euclidean lower bounds); coordinates are used only by the workload
/// generators, the loaders for real datasets, and for computing the position of
/// facilities along their edges.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Node {
    /// The node identifier.
    pub id: NodeId,
    /// X coordinate (e.g. longitude or planar x).
    pub x: f64,
    /// Y coordinate (e.g. latitude or planar y).
    pub y: f64,
}

impl Node {
    /// Creates a node with coordinates.
    #[inline]
    pub fn new(id: NodeId, x: f64, y: f64) -> Self {
        Self { id, x, y }
    }
}
