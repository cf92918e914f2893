//! Seeding expansions from a query location on the disk-resident network.

use crate::access::NetworkAccess;
use mcn_graph::{CostVec, FacilityId, NetworkLocation, NodeId};

/// The entry points of a query location into the network, expressed with full
/// cost vectors so that all `d` expansions can be seeded from one structure.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Seeds {
    /// Nodes directly reachable from the query location and the partial cost
    /// of reaching them.
    pub node_seeds: Vec<(NodeId, CostVec)>,
    /// Facilities on the query's own edge reachable without traversing any
    /// node, and the partial cost of reaching them.
    pub facility_seeds: Vec<(FacilityId, CostVec)>,
}

/// Computes the [`Seeds`] of `location` by reading the edge index, the
/// adjacency file and (if the edge carries facilities) the facility file.
///
/// For a query at a node this costs no I/O; for a query inside an edge it
/// costs one edge-index lookup, one adjacency access and at most one facility
/// run — mirroring how the paper treats query points that "fall between the
/// end-nodes of an edge" (partial weights proportional to the position).
///
/// # Panics
/// Panics if the location references an edge that is not in the store.
pub fn seeds_for_location<A: NetworkAccess>(access: &A, location: NetworkLocation) -> Seeds {
    let d = access.num_cost_types();
    match location {
        NetworkLocation::Node(node) => Seeds {
            node_seeds: vec![(node, CostVec::zeros(d))],
            facility_seeds: Vec::new(),
        },
        NetworkLocation::OnEdge { edge, position } => {
            assert!(
                (0.0..=1.0).contains(&position),
                "query position must lie within [0, 1]"
            );
            let endpoints = access
                .edge_endpoints(edge)
                .unwrap_or_else(|| panic!("query references unknown edge {edge}"));
            // The adjacency record of the source end-node carries the edge's
            // cost vector and its facility pointer.
            let mut adjacency = Vec::new();
            access.adjacency_into(endpoints.source, &mut adjacency);
            let entry = adjacency
                .iter()
                .find(|e| e.edge == edge)
                .unwrap_or_else(|| panic!("edge {edge} missing from its source adjacency record"));

            let mut node_seeds = Vec::with_capacity(2);
            if !endpoints.directed {
                node_seeds.push((endpoints.source, entry.costs.scale(position)));
            }
            node_seeds.push((endpoints.target, entry.costs.scale(1.0 - position)));

            let mut facility_seeds = Vec::new();
            if let Some(run) = entry.facilities {
                for (fid, pos) in access.facilities_in_run(&run).iter() {
                    let reachable = if endpoints.directed {
                        *pos >= position
                    } else {
                        true
                    };
                    if reachable {
                        facility_seeds.push((*fid, entry.costs.scale((pos - position).abs())));
                    }
                }
            }
            Seeds {
                node_seeds,
                facility_seeds,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::DirectAccess;
    use mcn_graph::{CostVec, EdgeId, GraphBuilder};
    use mcn_storage::{BufferConfig, MCNStore};
    use std::sync::Arc;

    fn access() -> DirectAccess {
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        let d = b.add_node(2.0, 0.0);
        let e0 = b.add_edge(a, c, CostVec::from_slice(&[8.0, 4.0])).unwrap();
        b.add_edge(c, d, CostVec::from_slice(&[2.0, 2.0])).unwrap();
        b.add_facility(e0, 0.75).unwrap();
        let g = b.build().unwrap();
        DirectAccess::new(Arc::new(
            MCNStore::build_in_memory(&g, BufferConfig::Pages(8)).unwrap(),
        ))
    }

    #[test]
    fn node_query_has_single_zero_seed() {
        let access = access();
        let s = seeds_for_location(&access, NetworkLocation::Node(NodeId::new(1)));
        assert_eq!(s.node_seeds.len(), 1);
        assert_eq!(s.node_seeds[0].0, NodeId::new(1));
        assert_eq!(s.node_seeds[0].1.as_slice(), &[0.0, 0.0]);
        assert!(s.facility_seeds.is_empty());
    }

    #[test]
    fn edge_query_seeds_both_ends_and_local_facilities() {
        let access = access();
        let s = seeds_for_location(&access, NetworkLocation::on_edge(EdgeId::new(0), 0.25));
        assert_eq!(s.node_seeds.len(), 2);
        // Source (v0) at 0.25 of (8,4) = (2,1); target (v1) at 0.75 = (6,3).
        assert_eq!(s.node_seeds[0].0, NodeId::new(0));
        assert_eq!(s.node_seeds[0].1.as_slice(), &[2.0, 1.0]);
        assert_eq!(s.node_seeds[1].0, NodeId::new(1));
        assert_eq!(s.node_seeds[1].1.as_slice(), &[6.0, 3.0]);
        // Facility at 0.75, query at 0.25 → half the edge away = (4, 2).
        assert_eq!(s.facility_seeds.len(), 1);
        assert_eq!(s.facility_seeds[0].1.as_slice(), &[4.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn unknown_edge_panics() {
        let access = access();
        let _ = seeds_for_location(&access, NetworkLocation::on_edge(EdgeId::new(99), 0.5));
    }
}
