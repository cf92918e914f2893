//! Facility placement: Gaussian clusters around random network nodes.
//!
//! The paper generates its facility set "to form 10 Gaussian clusters centered
//! around 10 random nodes in the network", simulating points of interest
//! concentrated around a business district, the port area, etc. We reproduce
//! this by picking cluster centre nodes and placing each facility on an edge
//! whose end-node lies a (rounded) |N(0, σ)| breadth-first hops away from its
//! cluster's centre, at a uniformly random position along the edge.

use mcn_graph::{EdgeId, MultiCostGraph, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Parameters of the clustered facility placement.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct FacilitySpec {
    /// Total number of facilities |P|.
    pub count: usize,
    /// Number of Gaussian clusters (the paper uses 10).
    pub clusters: usize,
    /// Standard deviation of the cluster radius, in breadth-first hops.
    pub sigma_hops: f64,
    /// Seed of the deterministic generator.
    pub seed: u64,
}

/// A facility placement: the edge it falls on and the position along it.
pub(crate) type Placement = (EdgeId, f64);

/// Computes facility placements on `graph` according to `spec`.
///
/// The placements are returned rather than inserted so that callers can decide
/// how to add them (e.g. `GraphBuilder` round-trips in tests, or directly on a
/// mutable builder in the workload pipeline).
pub(crate) fn place_facilities(graph: &MultiCostGraph, spec: &FacilitySpec) -> Vec<Placement> {
    assert!(spec.clusters >= 1, "at least one cluster required");
    assert!(
        graph.num_edges() > 0,
        "graph has no edges to place facilities on"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0xA5A5_5A5A_DEAD_BEEF);

    // Cluster centres: random distinct-ish nodes (duplicates allowed for tiny
    // graphs — they just merge clusters).
    let centres: Vec<NodeId> = (0..spec.clusters)
        .map(|_| NodeId::from(rng.gen_range(0..graph.num_nodes())))
        .collect();
    // Hop distance from every node to its nearest... we need per-cluster BFS
    // rings: for each cluster pre-compute BFS order so that "k hops from the
    // centre" can be sampled in O(1).
    let rings: Vec<Vec<Vec<NodeId>>> = centres.iter().map(|&c| bfs_rings(graph, c)).collect();

    let mut placements = Vec::with_capacity(spec.count);
    for _ in 0..spec.count {
        let cluster = rng.gen_range(0..spec.clusters);
        let rings = &rings[cluster];
        // |N(0, σ)| hops, clamped to the reachable radius.
        let hops = (normal_sample(&mut rng) * spec.sigma_hops).abs().round() as usize;
        let hops = hops.min(rings.len() - 1);
        let ring = &rings[hops];
        let anchor = ring[rng.gen_range(0..ring.len())];
        // Pick an edge incident to the anchor node and a position along it.
        let incident = graph.incident_edges(anchor);
        let edge = incident[rng.gen_range(0..incident.len())];
        placements.push((edge, rng.gen_range(0.0..=1.0)));
    }
    placements
}

/// Groups the nodes of `graph` by breadth-first hop distance from `centre`
/// (ring 0 = the centre itself). Unreachable nodes are omitted.
fn bfs_rings(graph: &MultiCostGraph, centre: NodeId) -> Vec<Vec<NodeId>> {
    let mut dist: Vec<Option<u32>> = vec![None; graph.num_nodes()];
    let mut queue = VecDeque::new();
    dist[centre.index()] = Some(0);
    queue.push_back(centre);
    let mut rings: Vec<Vec<NodeId>> = vec![vec![centre]];
    while let Some(n) = queue.pop_front() {
        let d = dist[n.index()].expect("queued nodes have distances");
        for &eid in graph.incident_edges(n) {
            let other = graph.edge(eid).opposite(n);
            if dist[other.index()].is_none() {
                dist[other.index()] = Some(d + 1);
                if rings.len() <= (d + 1) as usize {
                    rings.push(Vec::new());
                }
                rings[(d + 1) as usize].push(other);
                queue.push_back(other);
            }
        }
    }
    rings
}

/// A cheap standard-normal sample (sum of 12 uniforms minus 6).
fn normal_sample(rng: &mut ChaCha8Rng) -> f64 {
    (0..12).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() - 6.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::{assign_costs, CostDistribution};
    use crate::network::{build_graph, generate_topology, NetworkSpec};

    fn graph() -> MultiCostGraph {
        let topo = generate_topology(&NetworkSpec::with_target_nodes(2500, 4));
        let costs = assign_costs(&topo, 2, CostDistribution::Independent, 4);
        build_graph(&topo, &costs).0
    }

    /// The paper's shape (10 clusters) with the given facility count.
    fn clustered(count: usize, seed: u64) -> FacilitySpec {
        FacilitySpec {
            count,
            clusters: 10,
            sigma_hops: 8.0,
            seed,
        }
    }

    #[test]
    fn placements_have_requested_count_and_valid_positions() {
        let g = graph();
        let spec = clustered(500, 1);
        let placements = place_facilities(&g, &spec);
        assert_eq!(placements.len(), 500);
        for (edge, pos) in &placements {
            assert!(edge.index() < g.num_edges());
            assert!((0.0..=1.0).contains(pos));
        }
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let g = graph();
        let spec = clustered(100, 9);
        assert_eq!(place_facilities(&g, &spec), place_facilities(&g, &spec));
        let other = clustered(100, 10);
        assert_ne!(place_facilities(&g, &spec), place_facilities(&g, &other));
    }

    #[test]
    fn facilities_are_spatially_clustered() {
        // With few clusters and a small sigma, facilities should touch far
        // fewer distinct edges than a uniform placement would.
        let g = graph();
        let spec = FacilitySpec {
            count: 1000,
            clusters: 5,
            sigma_hops: 3.0,
            seed: 3,
        };
        let placements = place_facilities(&g, &spec);
        let mut edges: Vec<u32> = placements.iter().map(|(e, _)| e.raw()).collect();
        edges.sort_unstable();
        edges.dedup();
        assert!(
            edges.len() < g.num_edges() / 3,
            "facilities touch {} of {} edges — not clustered",
            edges.len(),
            g.num_edges()
        );
    }

    #[test]
    fn bfs_rings_partition_reachable_nodes() {
        let g = graph();
        let rings = bfs_rings(&g, NodeId::new(0));
        let total: usize = rings.iter().map(Vec::len).sum();
        assert_eq!(total, g.num_nodes(), "connected graph: all nodes in rings");
        assert_eq!(rings[0], vec![NodeId::new(0)]);
    }
}
