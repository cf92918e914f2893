//! Property-based integration tests: on arbitrary small random networks the
//! disk-based LSA/CEA pipeline must agree with the in-memory brute-force
//! oracle for both query types, and the structural invariants of the paper
//! must hold. One-way and disconnected networks, where a query reaches only
//! part of the facilities or none, get a strategy of their own.

use mcn::core::prelude::*;
use mcn::expansion::oracle;
use mcn::graph::{CostVec, FacilityId, GraphBuilder, MultiCostGraph, NetworkLocation, NodeId};
use mcn::storage::{BufferConfig, MCNStore};
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: a connected undirected network with d cost types, its facility
/// placements, and a query node.
fn network_strategy() -> impl Strategy<Value = (MultiCostGraph, NetworkLocation)> {
    (
        2usize..=4,                                                   // d
        5usize..=40,                                                  // nodes
        proptest::collection::vec((0u16..1000, 0u16..1000), 0..60),   // extra edge endpoints
        proptest::collection::vec((0u16..1000, 0.0f64..=1.0), 1..40), // facilities
        0u16..1000,                                                   // query selector
        any::<u64>(),                                                 // cost seed
    )
        .prop_map(|(d, nodes, extra, facilities, query_sel, seed)| {
            let mut lcg = seed;
            let mut next_cost = move || {
                // Small deterministic LCG so the strategy itself stays simple.
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((lcg >> 33) % 1000) as f64 / 100.0 + 0.1
            };
            let mut b = GraphBuilder::new(d);
            let ids: Vec<NodeId> = (0..nodes).map(|i| b.add_node(i as f64, 0.0)).collect();
            let mut edges = Vec::new();
            for w in ids.windows(2) {
                let costs: Vec<f64> = (0..d).map(|_| next_cost()).collect();
                edges.push(b.add_edge(w[0], w[1], CostVec::from_slice(&costs)).unwrap());
            }
            for (a, c) in extra {
                let a = ids[a as usize % nodes];
                let c = ids[c as usize % nodes];
                if a == c {
                    continue;
                }
                let costs: Vec<f64> = (0..d).map(|_| next_cost()).collect();
                edges.push(b.add_edge(a, c, CostVec::from_slice(&costs)).unwrap());
            }
            for (e, pos) in facilities {
                let e = edges[e as usize % edges.len()];
                b.add_facility(e, pos).unwrap();
            }
            let graph = b.build().unwrap();
            let q = NetworkLocation::Node(ids[query_sel as usize % nodes]);
            (graph, q)
        })
}

/// Strategy: a chain of nodes whose links are each left out with probability
/// 1/4 and made one-way (in either direction) with probability 1/2, plus a
/// few extra links of the same kinds, facilities on the links, and a query at
/// a node or inside a link.
fn one_way_strategy() -> impl Strategy<Value = (MultiCostGraph, NetworkLocation)> {
    (
        1usize..=4,                                                         // d
        proptest::collection::vec(0u8..16, 1..24),                          // chain links
        proptest::collection::vec((0u16..1000, 0u16..1000, 0u8..16), 0..6), // extra links
        proptest::collection::vec((0u16..1000, 0.0f64..=1.0), 0..20),       // facilities
        (0u16..1000, 0.0f64..=1.0, any::<bool>()),                          // query
        any::<u64>(),                                                       // cost seed
    )
        .prop_map(|(d, chain, extra, facilities, query, seed)| {
            let mut lcg = seed;
            let mut next_cost = move || {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((lcg >> 33) % 1000) as f64 / 100.0 + 0.1
            };
            let nodes = chain.len() + 1;
            let mut b = GraphBuilder::new(d);
            let ids: Vec<NodeId> = (0..nodes).map(|i| b.add_node(i as f64, 0.0)).collect();
            let links = chain
                .iter()
                .enumerate()
                .map(|(i, &kind)| (i, i + 1, kind))
                .chain(
                    extra
                        .iter()
                        .map(|&(a, c, kind)| (a as usize % nodes, c as usize % nodes, kind)),
                );
            let mut edges = Vec::new();
            // `kind`: bits 0–1 zero leaves the link out, bit 2 makes it
            // one-way, bit 3 picks its direction.
            for (a, c, kind) in links {
                if a == c || kind & 3 == 0 {
                    continue;
                }
                let (a, c) = if kind & 8 == 0 { (a, c) } else { (c, a) };
                let costs: Vec<f64> = (0..d).map(|_| next_cost()).collect();
                let costs = CostVec::from_slice(&costs);
                let e = if kind & 4 == 0 {
                    b.add_edge(ids[a], ids[c], costs)
                } else {
                    b.add_directed_edge(ids[a], ids[c], costs)
                };
                edges.push(e.unwrap());
            }
            if !edges.is_empty() {
                for (e, pos) in facilities {
                    b.add_facility(edges[e as usize % edges.len()], pos)
                        .unwrap();
                }
            }
            let graph = b.build().unwrap();
            let (sel, pos, inside) = query;
            let q = match edges.len() {
                n if inside && n > 0 => NetworkLocation::on_edge(edges[sel as usize % n], pos),
                _ => NetworkLocation::Node(ids[sel as usize % nodes]),
            };
            (graph, q)
        })
}

fn sorted_ids(result: &SkylineResult) -> Vec<FacilityId> {
    let mut ids: Vec<FacilityId> = result.facilities.iter().map(|f| f.facility).collect();
    ids.sort();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_lsa_and_cea_match_the_oracle_skyline((graph, q) in network_strategy()) {
        let store = Arc::new(MCNStore::build_in_memory(&graph, BufferConfig::Pages(16)).unwrap());
        let expected = oracle::skyline(&graph, q);
        for algo in [Algorithm::Lsa, Algorithm::Cea] {
            let got = sorted_ids(&skyline_query(&store, q, algo));
            prop_assert_eq!(&got, &expected, "{:?} disagrees with the oracle", algo);
        }
    }

    #[test]
    fn prop_topk_scores_match_brute_force((graph, q) in network_strategy(), k in 1usize..10) {
        let d = graph.num_cost_types();
        let store = Arc::new(MCNStore::build_in_memory(&graph, BufferConfig::Pages(16)).unwrap());
        let f = WeightedSum::uniform(d);
        let brute = oracle::top_k(&graph, q, |c| f.score(c), k);

        let got = topk_query(&store, q, f, k, Algorithm::Cea);
        prop_assert_eq!(got.entries.len(), brute.len());
        for (entry, (_, expected)) in got.entries.iter().zip(&brute) {
            prop_assert!((entry.score - expected).abs() < 1e-9,
                "score {} differs from brute force {}", entry.score, expected);
        }
    }

    #[test]
    fn prop_skyline_members_are_non_dominated_and_complete((graph, q) in network_strategy()) {
        let store = Arc::new(MCNStore::build_in_memory(&graph, BufferConfig::Pages(16)).unwrap());
        let result = skyline_query(&store, q, Algorithm::Cea);
        // Mutual non-domination.
        for a in &result.facilities {
            for b in &result.facilities {
                if a.facility != b.facility {
                    prop_assert!(!mcn::graph::dominates(&a.costs, &b.costs));
                }
            }
        }
        // Reported cost vectors are the true shortest-path vectors.
        let oracle = oracle::facility_cost_vectors(&graph, q);
        for member in &result.facilities {
            let truth = &oracle[member.facility.index()];
            for i in 0..graph.num_cost_types() {
                prop_assert!((member.costs[i] - truth[i]).abs() < 1e-6,
                    "cost {i} of {} is {} but the oracle says {}",
                    member.facility, member.costs[i], truth[i]);
            }
        }
    }

    #[test]
    fn prop_one_way_and_disconnected_networks_match_the_oracle(
        (graph, q) in one_way_strategy(),
        k in 1usize..10,
    ) {
        let d = graph.num_cost_types();
        let store = Arc::new(MCNStore::build_in_memory(&graph, BufferConfig::Pages(16)).unwrap());
        let f = WeightedSum::uniform(d);
        let skyline = oracle::skyline(&graph, q);
        let top = oracle::top_k(&graph, q, |c| f.score(c), k);
        let reached = oracle::top_k(&graph, q, |c| f.score(c), usize::MAX).len();
        for algo in [Algorithm::Lsa, Algorithm::Cea] {
            let got = sorted_ids(&skyline_query(&store, q, algo));
            prop_assert_eq!(&got, &skyline, "{:?} skyline at {:?}", algo, q);
            let got = topk_query(&store, q, f.clone(), k, algo);
            prop_assert_eq!(got.entries.len(), top.len(), "{:?} top-{} at {:?}", algo, k, q);
            for (entry, (_, expected)) in got.entries.iter().zip(&top) {
                prop_assert!((entry.score - expected).abs() < 1e-9,
                    "{algo:?} score {} differs from the oracle's {expected}", entry.score);
            }
        }
        prop_assert_eq!(TopKIter::lsa(store.clone(), q, f.clone()).count(), reached);
        prop_assert_eq!(TopKIter::cea(store, q, f).count(), reached);
    }
}
