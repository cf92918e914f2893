//! The in-memory multi-cost graph.

use crate::cost::CostVec;
use crate::edge::Edge;
use crate::facility::Facility;
use crate::ids::{EdgeId, FacilityId, NodeId};
use crate::node::Node;

/// An immutable, validated multi-cost transportation network.
///
/// Construct one with [`crate::GraphBuilder`]. The graph owns:
///
/// * the nodes (with optional coordinates),
/// * the edges, each carrying a `d`-dimensional cost vector,
/// * the facilities, each lying at a fractional position on an edge,
/// * adjacency lists (per node) and facility lists (per edge), each stored
///   as compressed sparse rows: one offsets array and one flat id array.
///
/// All lookups are `O(1)` array indexing; iteration over a node's incident
/// edges or an edge's facilities is a slice scan.
#[derive(Clone, Debug)]
pub struct MultiCostGraph {
    pub(crate) num_cost_types: usize,
    pub(crate) nodes: Vec<Node>,
    pub(crate) edges: Vec<Edge>,
    pub(crate) facilities: Vec<Facility>,
    /// For each node, the identifiers of edges incident to it.
    pub(crate) adjacency: Csr<EdgeId>,
    /// For each edge, the identifiers of facilities lying on it.
    pub(crate) edge_facilities: Csr<FacilityId>,
    /// Whether any edge is one-way.
    pub(crate) has_directed_edges: bool,
}

const _: () = crate::assert_send_sync::<MultiCostGraph>();

/// Compressed sparse rows: row `r` is `items[offsets[r]..offsets[r + 1]]`,
/// so every row of a list-of-lists lives in one allocation.
#[derive(Clone, Debug)]
pub(crate) struct Csr<T> {
    offsets: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy + Default> Csr<T> {
    /// Lays out `rows` rows from `(row, item)` pairs. `entries` is called
    /// twice (count, then fill) and must yield the same pairs both times;
    /// each row keeps its items in the order they are yielded.
    pub(crate) fn build<I>(rows: usize, entries: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (usize, T)>,
    {
        let mut offsets = vec![0; rows + 1];
        for (row, _) in entries() {
            offsets[row + 1] += 1;
        }
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        let mut next = offsets[..rows].to_vec();
        let mut items = vec![T::default(); offsets[rows]];
        for (row, item) in entries() {
            items[next[row]] = item;
            next[row] += 1;
        }
        Self { offsets, items }
    }

    /// The items of row `r`.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[T] {
        &self.items[self.offsets[r]..self.offsets[r + 1]]
    }

    /// Number of items over all rows.
    pub(crate) fn total(&self) -> usize {
        self.items.len()
    }
}

/// One entry of a node's adjacency list: the incident edge, the node at the
/// other end, and the edge's cost vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// The connecting edge.
    pub edge: EdgeId,
    /// The node at the opposite end of the edge.
    pub node: NodeId,
    /// The edge's cost vector.
    pub costs: CostVec,
}

impl MultiCostGraph {
    /// Number of cost types `d` carried by every edge.
    #[inline]
    pub fn num_cost_types(&self) -> usize {
        self.num_cost_types
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of facilities `|P|`.
    #[inline]
    pub fn num_facilities(&self) -> usize {
        self.facilities.len()
    }

    /// True iff some edge may be traversed in one direction only. Without
    /// one, every distance is symmetric: `dist(u → v) = dist(v → u)`.
    #[inline]
    pub fn has_directed_edges(&self) -> bool {
        self.has_directed_edges
    }

    /// Returns the node with the given identifier.
    ///
    /// # Panics
    /// Panics if the identifier is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Returns the edge with the given identifier.
    ///
    /// # Panics
    /// Panics if the identifier is out of range.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Returns the facility with the given identifier.
    ///
    /// # Panics
    /// Panics if the identifier is out of range.
    #[inline]
    pub fn facility(&self, id: FacilityId) -> &Facility {
        &self.facilities[id.index()]
    }

    /// Iterates over all nodes.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = &Node> + '_ {
        self.nodes.iter()
    }

    /// Iterates over all edges.
    #[inline]
    pub fn edges(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.edges.iter()
    }

    /// Iterates over all facilities.
    #[inline]
    pub fn facilities(&self) -> impl Iterator<Item = &Facility> + '_ {
        self.facilities.iter()
    }

    /// Identifiers of the edges incident to `node` (regardless of direction).
    #[inline]
    pub fn incident_edges(&self, node: NodeId) -> &[EdgeId] {
        self.adjacency.row(node.index())
    }

    /// Identifiers of the facilities lying on `edge`.
    #[inline]
    pub fn facilities_on_edge(&self, edge: EdgeId) -> &[FacilityId] {
        self.edge_facilities.row(edge.index())
    }

    /// Iterates over the neighbors reachable from `node` by traversing one
    /// edge, respecting edge direction.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = Neighbor> + '_ {
        self.incident_edges(node).iter().filter_map(move |&eid| {
            let e = self.edge(eid);
            if e.traversable_from(node) {
                Some(Neighbor {
                    edge: eid,
                    node: e.opposite(node),
                    costs: e.costs,
                })
            } else {
                None
            }
        })
    }

    /// Average node degree (counting each undirected edge at both end-points).
    pub fn average_degree(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.adjacency.total() as f64 / self.nodes.len() as f64
    }

    /// Returns true iff the undirected version of the graph is connected.
    ///
    /// Used by the generators and loaders to validate workloads: the paper's
    /// queries implicitly assume every facility is reachable from every query
    /// location.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(n) = stack.pop() {
            for &eid in self.incident_edges(n) {
                let e = self.edge(eid);
                let other = e.opposite(n);
                if !seen[other.index()] {
                    seen[other.index()] = true;
                    count += 1;
                    stack.push(other);
                }
            }
        }
        count == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> MultiCostGraph {
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        let d = b.add_node(0.0, 1.0);
        b.add_edge(a, c, CostVec::from_slice(&[1.0, 4.0])).unwrap();
        b.add_edge(c, d, CostVec::from_slice(&[2.0, 5.0])).unwrap();
        let e = b.add_edge(a, d, CostVec::from_slice(&[3.0, 6.0])).unwrap();
        b.add_facility(e, 0.5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts_and_lookups() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_facilities(), 1);
        assert_eq!(g.num_cost_types(), 2);
        assert_eq!(g.node(NodeId::new(1)).id, NodeId::new(1));
        assert_eq!(g.edge(EdgeId::new(2)).source, NodeId::new(0));
        assert_eq!(g.facility(FacilityId::new(0)).edge, EdgeId::new(2));
    }

    #[test]
    fn neighbors_respect_structure() {
        let g = triangle();
        let mut ns: Vec<NodeId> = g.neighbors(NodeId::new(0)).map(|n| n.node).collect();
        ns.sort();
        assert_eq!(ns, vec![NodeId::new(1), NodeId::new(2)]);
        assert_eq!(g.incident_edges(NodeId::new(0)).len(), 2);
        assert_eq!(g.facilities_on_edge(EdgeId::new(2)), &[FacilityId::new(0)]);
        assert!(g.facilities_on_edge(EdgeId::new(0)).is_empty());
    }

    #[test]
    fn directed_edges_limit_neighbors() {
        let mut b = GraphBuilder::new(1);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        b.add_directed_edge(a, c, CostVec::from_slice(&[1.0]))
            .unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.neighbors(a).count(), 1);
        assert_eq!(g.neighbors(c).count(), 0);
        assert!(g.has_directed_edges());
        assert!(!triangle().has_directed_edges());
        // ...but the undirected connectivity test still sees one component.
        assert!(g.is_connected());
    }

    #[test]
    fn connectivity_detection() {
        let g = triangle();
        assert!(g.is_connected());

        let mut b = GraphBuilder::new(1);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        b.add_node(2.0, 0.0); // isolated node
        b.add_edge(a, c, CostVec::from_slice(&[1.0])).unwrap();
        let g = b.build().unwrap();
        assert!(!g.is_connected());
    }

    #[test]
    fn average_degree() {
        let g = triangle();
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }
}
