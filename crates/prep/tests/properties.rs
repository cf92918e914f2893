//! Property-based tests of the ParetoPrep table on arbitrary seeded
//! networks: structural scan invariants (restriction consistency,
//! reachability, triangle inequality along edges). Admissibility against the exhaustive Pareto
//! path set is cross-checked in the root `tests/prep.rs` (it needs
//! `mcn-mcpp`, which depends on this crate).

use mcn_graph::{CostVec, GraphBuilder, MultiCostGraph, NodeId};
use mcn_prep::PrepTable;
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scan_invariants_hold(
        d in 2usize..=4,
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
        prop_assert_eq!(table.bound(target).as_slice(), CostVec::zeros(d).as_slice());
        prop_assert_eq!(table.reachable_nodes(), graph.num_nodes());
        for v in (0..nodes).map(NodeId::from) {
            let bound = table.bound(v);
            prop_assert!(bound.as_slice().iter().all(|&c| c.is_finite() && c >= 0.0));
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

    #[test]
    fn restricted_to_all_nodes_matches_the_full_scan(
        d in 2usize..=3,
        nodes in 3usize..=20,
        extra in proptest::collection::vec((0u16..100, 0u16..100), 0..8),
        target_sel in 0u16..100,
        seed in any::<u64>(),
    ) {
        let graph = build_network(d, nodes, &extra, seed);
        let target = NodeId::from(target_sel as usize % nodes);
        let full = PrepTable::build(&graph, target);
        let all: Vec<NodeId> = (0..nodes).map(NodeId::from).collect();
        let restricted = PrepTable::build_restricted(&graph, target, &all);
        prop_assert!(restricted.is_restricted());
        for v in &all {
            prop_assert_eq!(full.bound(*v), restricted.bound(*v));
        }
        // Restricting to a strict subset can only raise bounds (fewer
        // paths available), never lower them.
        let half: Vec<NodeId> = (0..nodes)
            .filter(|i| i % 2 == target.index() % 2 || *i == target.index())
            .map(NodeId::from)
            .collect();
        let sub = PrepTable::build_restricted(&graph, target, &half);
        for v in &half {
            let full_bound = full.bound(*v);
            let sub_bound = sub.bound(*v);
            for i in 0..d {
                prop_assert!(sub_bound[i] >= full_bound[i] - full_bound[i].abs() * 1e-12);
            }
        }
    }
}
