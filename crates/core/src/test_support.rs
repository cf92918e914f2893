//! Shared helpers for the unit tests of this crate (compiled only for tests).

use mcn_graph::{CostVec, FacilityId, GraphBuilder, MultiCostGraph, NetworkLocation, NodeId};
use mcn_storage::{BufferConfig, MCNStore};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Builds the network of the paper's Figure 1: a port `q` and two candidate
/// warehouses, one fast-but-tolled and one slow-but-free.
///
/// Cost types: (driving time in minutes, toll fee in dollars). Returns the
/// store, the query location and the facility ids `(p1, p2)` where
/// `c(p1) = (20, 0)` and `c(p2) = (10, 1)`.
pub(crate) fn paper_figure1_store() -> (MCNStore, NetworkLocation, (FacilityId, FacilityId)) {
    let mut b = GraphBuilder::new(2);
    let q_node = b.add_node(0.0, 0.0);
    let a = b.add_node(1.0, 1.0);
    let c = b.add_node(1.0, -1.0);
    // Slow toll-free route to p1's edge, and a fast tolled route to p2's edge.
    let e_slow = b
        .add_edge(q_node, a, CostVec::from_slice(&[16.0, 0.0]))
        .unwrap();
    let e_fast = b
        .add_edge(q_node, c, CostVec::from_slice(&[8.0, 1.0]))
        .unwrap();
    // Stub edges carrying the facilities at their midpoints.
    let b1 = b.add_node(2.0, 1.0);
    let b2 = b.add_node(2.0, -1.0);
    let e_p1 = b.add_edge(a, b1, CostVec::from_slice(&[8.0, 0.0])).unwrap();
    let e_p2 = b.add_edge(c, b2, CostVec::from_slice(&[4.0, 0.0])).unwrap();
    let _ = e_slow;
    let _ = e_fast;
    let p1 = b.add_facility(e_p1, 0.5).unwrap(); // 16 + 4 = 20 min, 0 $
    let p2 = b.add_facility(e_p2, 0.5).unwrap(); // 8 + 2 = 10 min, 1 $
    let g = b.build().unwrap();
    let store = MCNStore::build_in_memory(&g, BufferConfig::Pages(16)).unwrap();
    (store, NetworkLocation::Node(q_node), (p1, p2))
}

/// Builds a random connected undirected network with clustered-ish facilities
/// and returns the store, the in-memory graph (for oracles) and a query
/// location at node 0.
pub(crate) fn random_store(
    seed: u64,
    nodes: usize,
    extra_edges: usize,
    facilities: usize,
    d: usize,
) -> (MCNStore, MultiCostGraph, NetworkLocation) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(d);
    let ids: Vec<NodeId> = (0..nodes)
        .map(|i| b.add_node(i as f64, rng.gen_range(0.0..100.0)))
        .collect();
    let mut edges = Vec::new();
    for w in ids.windows(2) {
        let costs: Vec<f64> = (0..d).map(|_| rng.gen_range(0.5..10.0)).collect();
        edges.push(b.add_edge(w[0], w[1], CostVec::from_slice(&costs)).unwrap());
    }
    for _ in 0..extra_edges {
        let a = ids[rng.gen_range(0..nodes)];
        let c = ids[rng.gen_range(0..nodes)];
        if a == c {
            continue;
        }
        let costs: Vec<f64> = (0..d).map(|_| rng.gen_range(0.5..10.0)).collect();
        edges.push(b.add_edge(a, c, CostVec::from_slice(&costs)).unwrap());
    }
    for _ in 0..facilities {
        let e = edges[rng.gen_range(0..edges.len())];
        b.add_facility(e, rng.gen_range(0.0..=1.0)).unwrap();
    }
    let g = b.build().unwrap();
    let store = MCNStore::build_in_memory(&g, BufferConfig::Pages(64)).unwrap();
    (store, g, NetworkLocation::Node(NodeId::new(0)))
}
