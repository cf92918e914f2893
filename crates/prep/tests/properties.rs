//! Property-based tests of the ParetoPrep table on arbitrary seeded
//! networks: structural scan invariants (reachability, triangle inequality
//! along edges, agreement with per-cost and summed-cost Dijkstra at every
//! stride `d`).
//! Admissibility against the exhaustive Pareto path set is cross-checked in
//! the root `tests/prep.rs` (it needs `mcn-mcpp`, which depends on this
//! crate).

use mcn_graph::{CostVec, GraphBuilder, MultiCostGraph, NodeId, MAX_COST_TYPES};
use mcn_prep::PrepTable;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Builds a connected seeded network: a line backbone plus extra edges,
/// with an LCG drawing `d`-dimensional costs.
fn build_network(d: usize, nodes: usize, extra: &[(u16, u16)], seed: u64) -> MultiCostGraph {
    let mut lcg = seed | 1;
    let mut next_cost = move || {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((lcg >> 33) % 1000) as f64 / 100.0 + 0.1
    };
    let mut b = GraphBuilder::new(d);
    let ids: Vec<NodeId> = (0..nodes).map(|i| b.add_node(i as f64, 0.0)).collect();
    for w in ids.windows(2) {
        let costs: Vec<f64> = (0..d).map(|_| next_cost()).collect();
        b.add_edge(w[0], w[1], CostVec::from_slice(&costs)).unwrap();
    }
    for &(a, c) in extra {
        let a = ids[a as usize % nodes];
        let c = ids[c as usize % nodes];
        if a == c {
            continue;
        }
        let costs: Vec<f64> = (0..d).map(|_| next_cost()).collect();
        b.add_edge(a, c, CostVec::from_slice(&costs)).unwrap();
    }
    b.build().unwrap()
}

/// Shortest distances to `target` under the edge weight `weight`, by a
/// backward binary-heap Dijkstra written independently of the scan. Each
/// relaxation adds the edge weight to the settled distance, the scan's
/// summation order, so both compute the minimum of the same float sums.
fn backward_dijkstra(
    graph: &MultiCostGraph,
    target: NodeId,
    weight: impl Fn(&CostVec) -> f64,
) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; graph.num_nodes()];
    let mut done = vec![false; graph.num_nodes()];
    let mut heap = BinaryHeap::new();
    dist[target.index()] = 0.0;
    heap.push(Reverse((0u64, target.raw())));
    while let Some(Reverse((_, raw))) = heap.pop() {
        let u = NodeId::new(raw);
        if std::mem::replace(&mut done[u.index()], true) {
            continue;
        }
        for &eid in graph.incident_edges(u) {
            let e = graph.edge(eid);
            let v = e.opposite(u);
            if !e.traversable_from(v) {
                continue;
            }
            let candidate = weight(&e.costs) + dist[u.index()];
            if candidate < dist[v.index()] {
                dist[v.index()] = candidate;
                // Non-negative floats order like their bit patterns.
                heap.push(Reverse((candidate.to_bits(), v.raw())));
            }
        }
    }
    dist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scan_invariants_hold(
        d in 1usize..=MAX_COST_TYPES,
        nodes in 3usize..=25,
        extra in proptest::collection::vec((0u16..100, 0u16..100), 0..12),
        target_sel in 0u16..100,
        seed in any::<u64>(),
    ) {
        let graph = build_network(d, nodes, &extra, seed);
        let target = NodeId::from(target_sel as usize % nodes);
        let table = PrepTable::build(&graph, target);
        // The target reaches itself at zero cost; the backbone keeps the
        // network connected, so every node reaches it.
        prop_assert_eq!(table.bound(target), CostVec::zeros(d).as_slice());
        prop_assert_eq!(table.reachable_nodes(), graph.num_nodes());
        // Every component is exactly the per-cost shortest distance: an
        // off-by-stride read or write shows as a mismatch at some d.
        for i in 0..d {
            let dist = backward_dijkstra(&graph, target, |c| c[i]);
            for v in (0..nodes).map(NodeId::from) {
                prop_assert_eq!(
                    table.bound(v)[i].to_bits(),
                    dist[v.index()].to_bits(),
                    "L({})[{}] differs from Dijkstra at d = {}", v, i, d
                );
            }
        }
        // The summed column is the summed-cost distance (costs added left
        // to right), rounded down to the nearest f32.
        let summed = backward_dijkstra(&graph, target, CostVec::total);
        for v in (0..nodes).map(NodeId::from) {
            let (stored, exact) = (table.sum_bound(v), summed[v.index()]);
            prop_assert!(
                stored <= exact && f64::from((stored as f32).next_up()) > exact,
                "S({}) = {} is not {} rounded down at d = {}", v, stored, exact, d
            );
            // S(v) ≥ Σ_i L_i(v): one path cannot beat every per-cost optimum.
            let componentwise: f64 = table.bound(v).iter().sum();
            prop_assert!(exact >= componentwise * (1.0 - 1e-12));
        }
        for v in (0..nodes).map(NodeId::from) {
            let bound = table.bound(v);
            prop_assert!(bound.iter().all(|&c| c.is_finite() && c >= 0.0));
            // Per-edge forward bounds respect the node bound: taking any
            // edge cannot beat the component-wise optimum.
            for neighbor in graph.neighbors(v) {
                let fwd = table.forward_bound(&graph, neighbor.edge, v);
                for i in 0..d {
                    prop_assert!(fwd[i] >= bound[i] - bound[i].abs() * 1e-12);
                }
            }
        }
        // Every upper-bound cut is a real path cost, so it can never be
        // below the source's lower-bound vector.
        for v in (0..nodes).map(NodeId::from) {
            for cut in table.upper_bound_cuts(&graph, v) {
                let bound = table.bound(v);
                for i in 0..d {
                    prop_assert!(cut[i] >= bound[i] - bound[i].abs() * 1e-9);
                }
            }
        }
    }
}
