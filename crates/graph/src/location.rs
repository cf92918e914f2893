//! Network locations: points that are either a node or lie inside an edge.
//!
//! Query locations `q` and facilities both fall "on the MCN" (paper
//! Section III). This module models such positions and computes the
//! *access points* of a location: the set of nodes reachable from it
//! directly (with their partial cost vectors), as well as facilities on the
//! same edge that can be reached without passing through any node.

use crate::cost::CostVec;
use crate::graph::MultiCostGraph;
use crate::ids::{EdgeId, FacilityId, NodeId};

/// A location on the network: either exactly at a node or at a fractional
/// position along an edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NetworkLocation {
    /// The location coincides with a network node.
    Node(NodeId),
    /// The location lies on an edge at fraction `position ∈ [0, 1]` of the way
    /// from the edge's source to its target.
    OnEdge {
        /// The edge containing the location.
        edge: EdgeId,
        /// Fraction of the way from the edge's source node to its target node.
        position: f64,
    },
}

impl NetworkLocation {
    /// Convenience constructor for a location at a node.
    #[inline]
    pub fn at_node(node: NodeId) -> Self {
        NetworkLocation::Node(node)
    }

    /// Convenience constructor for a location along an edge.
    ///
    /// # Panics
    /// Panics if `position` is outside `[0, 1]`.
    #[inline]
    pub fn on_edge(edge: EdgeId, position: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&position),
            "edge position must lie within [0, 1], got {position}"
        );
        NetworkLocation::OnEdge { edge, position }
    }
}

/// How a [`NetworkLocation`] connects to the rest of the network.
///
/// Produced by [`MultiCostGraph::location_access`]; used by the expansion
/// algorithms to seed their search heaps.
#[derive(Clone, Debug, PartialEq)]
pub struct LocationAccess {
    /// Nodes directly reachable from the location, with the partial cost of
    /// getting there.
    pub node_costs: Vec<(NodeId, CostVec)>,
    /// Facilities on the same edge reachable without traversing any node, with
    /// the partial cost of getting there.
    pub direct_facilities: Vec<(FacilityId, CostVec)>,
}

impl MultiCostGraph {
    /// Computes the [`LocationAccess`] of a location: the entry points into the
    /// node graph and any facilities on the same edge reachable directly.
    ///
    /// For a location at a node, the single access point is that node at zero
    /// cost. For a location at fraction `t` along edge `e = ⟨u, v⟩`:
    ///
    /// * node `u` is reachable at cost `t · w(e)` and node `v` at
    ///   `(1 − t) · w(e)` (only `v` for a directed edge);
    /// * every facility at fraction `s` on the same edge is reachable directly
    ///   at cost `|s − t| · w(e)` (only `s ≥ t` for a directed edge).
    ///
    /// # Panics
    /// Panics if the location refers to an edge not present in the graph.
    pub fn location_access(&self, location: NetworkLocation) -> LocationAccess {
        match location {
            NetworkLocation::Node(n) => {
                assert!(
                    n.index() < self.num_nodes(),
                    "location references unknown node {n}"
                );
                LocationAccess {
                    node_costs: vec![(n, CostVec::zeros(self.num_cost_types()))],
                    direct_facilities: Vec::new(),
                }
            }
            NetworkLocation::OnEdge { edge, position } => {
                let e = self.edge(edge);
                let mut node_costs = Vec::with_capacity(2);
                // Moving "backwards" towards the source is only allowed on
                // undirected edges.
                if !e.directed {
                    node_costs.push((e.source, e.costs.scale(position)));
                }
                node_costs.push((e.target, e.costs.scale(1.0 - position)));

                let mut direct_facilities = Vec::new();
                for &fid in self.facilities_on_edge(edge) {
                    let fac = self.facility(fid);
                    let reachable = if e.directed {
                        fac.position >= position
                    } else {
                        true
                    };
                    if reachable {
                        let span = (fac.position - position).abs();
                        direct_facilities.push((fid, e.costs.scale(span)));
                    }
                }
                LocationAccess {
                    node_costs,
                    direct_facilities,
                }
            }
        }
    }

    /// Returns the [`NetworkLocation`] of a facility.
    pub fn facility_location(&self, facility: FacilityId) -> NetworkLocation {
        let f = self.facility(facility);
        NetworkLocation::OnEdge {
            edge: f.edge,
            position: f.position,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn line_graph() -> MultiCostGraph {
        // v0 --(10, 2)-- v1 --(4, 8)-- v2, facility p0 at 0.5 of edge 0,
        // facility p1 at 0.25 of edge 1.
        let mut b = GraphBuilder::new(2);
        let v0 = b.add_node(0.0, 0.0);
        let v1 = b.add_node(1.0, 0.0);
        let v2 = b.add_node(2.0, 0.0);
        let e0 = b
            .add_edge(v0, v1, CostVec::from_slice(&[10.0, 2.0]))
            .unwrap();
        let e1 = b
            .add_edge(v1, v2, CostVec::from_slice(&[4.0, 8.0]))
            .unwrap();
        b.add_facility(e0, 0.5).unwrap();
        b.add_facility(e1, 0.25).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn node_location_access_is_trivial() {
        let g = line_graph();
        let acc = g.location_access(NetworkLocation::at_node(NodeId::new(1)));
        assert_eq!(acc.node_costs.len(), 1);
        assert_eq!(acc.node_costs[0].0, NodeId::new(1));
        assert_eq!(acc.node_costs[0].1.as_slice(), &[0.0, 0.0]);
        assert!(acc.direct_facilities.is_empty());
    }

    #[test]
    fn edge_location_reaches_both_end_nodes_and_facilities() {
        let g = line_graph();
        // Query at 0.25 along edge 0 (costs (10, 2)).
        let acc = g.location_access(NetworkLocation::on_edge(EdgeId::new(0), 0.25));
        assert_eq!(acc.node_costs.len(), 2);
        let (n0, c0) = &acc.node_costs[0];
        let (n1, c1) = &acc.node_costs[1];
        assert_eq!(*n0, NodeId::new(0));
        assert_eq!(c0.as_slice(), &[2.5, 0.5]);
        assert_eq!(*n1, NodeId::new(1));
        assert_eq!(c1.as_slice(), &[7.5, 1.5]);
        // Facility p0 is at 0.5 of the same edge: span 0.25.
        assert_eq!(acc.direct_facilities.len(), 1);
        assert_eq!(acc.direct_facilities[0].0, FacilityId::new(0));
        assert_eq!(acc.direct_facilities[0].1.as_slice(), &[2.5, 0.5]);
    }

    #[test]
    fn directed_edge_restricts_access() {
        let mut b = GraphBuilder::new(1);
        let v0 = b.add_node(0.0, 0.0);
        let v1 = b.add_node(1.0, 0.0);
        let e = b
            .add_directed_edge(v0, v1, CostVec::from_slice(&[10.0]))
            .unwrap();
        b.add_facility(e, 0.2).unwrap(); // behind the query point
        b.add_facility(e, 0.8).unwrap(); // ahead of the query point
        let g = b.build().unwrap();
        let acc = g.location_access(NetworkLocation::on_edge(e, 0.5));
        // Only the forward end-node is reachable.
        assert_eq!(acc.node_costs.len(), 1);
        assert_eq!(acc.node_costs[0].0, v1);
        assert_eq!(acc.node_costs[0].1.as_slice(), &[5.0]);
        // Only the facility ahead is reachable directly.
        assert_eq!(acc.direct_facilities.len(), 1);
        assert_eq!(acc.direct_facilities[0].0, FacilityId::new(1));
        assert!((acc.direct_facilities[0].1[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn facility_location_roundtrip() {
        let g = line_graph();
        let loc = g.facility_location(FacilityId::new(1));
        assert_eq!(
            loc,
            NetworkLocation::OnEdge {
                edge: EdgeId::new(1),
                position: 0.25
            }
        );
    }

    #[test]
    #[should_panic]
    fn on_edge_position_out_of_range_panics() {
        let _ = NetworkLocation::on_edge(EdgeId::new(0), -0.1);
    }
}
