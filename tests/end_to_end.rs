//! Cross-crate integration tests: generated workloads → paged store → LSA /
//! CEA queries, validated against the brute-force oracle over the in-memory
//! graph.

use mcn::core::prelude::*;
use mcn::expansion::oracle;
use mcn::gen::{generate_workload, CostDistribution, WorkloadSpec};
use mcn::graph::{FacilityId, NetworkLocation};
use mcn::storage::{BufferConfig, MCNStore};
use std::sync::Arc;

fn workload(
    seed: u64,
    distribution: CostDistribution,
    d: usize,
) -> (Arc<MCNStore>, mcn::gen::Workload) {
    let spec = WorkloadSpec {
        nodes: 1600,
        facilities: 500,
        cost_types: d,
        distribution,
        clusters: 5,
        queries: 3,
        seed,
    };
    let w = generate_workload(&spec);
    let store =
        Arc::new(MCNStore::build_in_memory(&w.graph, BufferConfig::Fraction(0.01)).unwrap());
    (store, w)
}

#[test]
fn skyline_agrees_with_oracle_across_distributions() {
    for (seed, dist) in [
        (1, CostDistribution::AntiCorrelated),
        (2, CostDistribution::Independent),
        (3, CostDistribution::Correlated),
    ] {
        let (store, w) = workload(seed, dist, 3);
        for &q in &w.queries {
            let expected = oracle::skyline(&w.graph, q);
            for algo in [Algorithm::Lsa, Algorithm::Cea] {
                let mut got: Vec<FacilityId> = skyline_query(&store, q, algo)
                    .facilities
                    .iter()
                    .map(|f| f.facility)
                    .collect();
                got.sort();
                assert_eq!(got, expected, "{dist:?} seed {seed} {algo:?}");
            }
        }
    }
}

#[test]
fn topk_matches_brute_force() {
    let (store, w) = workload(21, CostDistribution::Independent, 3);
    let q = w.queries[0];
    let weights = vec![0.5, 0.3, 0.2];
    let f = WeightedSum::new(weights);
    let k = 8;

    let brute = oracle::top_k(&w.graph, q, |c| f.score(c), k);

    for algo in [Algorithm::Lsa, Algorithm::Cea] {
        let got = topk_query(&store, q, f.clone(), k, algo);
        assert_eq!(got.entries.len(), k);
        for (i, entry) in got.entries.iter().enumerate() {
            assert!(
                (entry.score - brute[i].1).abs() < 1e-9,
                "{algo:?}: rank {i} score {} vs brute {}",
                entry.score,
                brute[i].1
            );
        }
    }
}

#[test]
fn skyline_contains_every_top1_winner() {
    // The paper's connection between the two queries: the skyline contains all
    // facilities that win a top-1 query under some monotone aggregate.
    let (store, w) = workload(31, CostDistribution::AntiCorrelated, 2);
    let q = w.queries[0];
    let skyline: Vec<FacilityId> = skyline_query(&store, q, Algorithm::Cea)
        .facilities
        .iter()
        .map(|f| f.facility)
        .collect();
    for weights in [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.9, 0.1], [0.2, 0.8]] {
        let top = topk_query(
            &store,
            q,
            WeightedSum::new(weights.to_vec()),
            1,
            Algorithm::Cea,
        );
        let winner = top.entries[0].facility;
        assert!(
            skyline.contains(&winner),
            "top-1 winner {winner} for weights {weights:?} missing from the skyline"
        );
    }
}

#[test]
fn progressive_and_incremental_apis_are_consistent_with_batch() {
    let (store, w) = workload(41, CostDistribution::AntiCorrelated, 3);
    let q = w.queries[1];

    let batch = skyline_query(&store, q, Algorithm::Cea);
    let streamed: Vec<_> = mcn::core::SkylineSearch::cea(store.clone(), q).collect();
    assert_eq!(batch.facilities, streamed);

    let f = WeightedSum::uniform(3);
    let batch_top = topk_query(&store, q, f.clone(), 10, Algorithm::Lsa);
    let incremental: Vec<_> = TopKIter::lsa(store.clone(), q, f).take(10).collect();
    assert_eq!(batch_top.entries.len(), incremental.len());
    for (a, b) in batch_top.entries.iter().zip(&incremental) {
        assert!((a.score - b.score).abs() < 1e-9);
    }
}

#[test]
fn cea_io_advantage_holds_on_generated_workloads() {
    let (store, w) = workload(51, CostDistribution::AntiCorrelated, 4);
    let mut lsa_reads = 0u64;
    let mut cea_reads = 0u64;
    for &q in &w.queries {
        store.buffer().clear();
        lsa_reads += skyline_query(&store, q, Algorithm::Lsa)
            .stats
            .io
            .buffer_misses;
        store.buffer().clear();
        cea_reads += skyline_query(&store, q, Algorithm::Cea)
            .stats
            .io
            .buffer_misses;
    }
    assert!(
        cea_reads < lsa_reads,
        "CEA should read fewer pages: CEA {cea_reads} vs LSA {lsa_reads}"
    );
}

#[test]
fn pareto_paths_bound_facility_costs() {
    // The component-wise minimum of the Pareto path set to a facility's edge
    // end-node lower-bounds the facility's cost vector (path skyline vs
    // facility skyline sanity link between mcn::mcpp and mcn-core).
    let (store, w) = workload(61, CostDistribution::Independent, 2);
    let q = w.queries[0];
    let q_node = match q {
        NetworkLocation::Node(n) => n,
        _ => unreachable!("generated queries are node based"),
    };
    let result = skyline_query(&store, q, Algorithm::Cea);
    for member in result.facilities.iter().take(3) {
        let edge = w.graph.facility(member.facility).edge;
        let end = w.graph.edge(edge).source;
        let paths = mcn::mcpp::pareto_paths(&w.graph, q_node, end);
        if let Some(mins) = mcn::mcpp::componentwise_minimum(&paths) {
            for i in 0..2 {
                assert!(
                    mins[i] <= member.costs[i] + w.graph.edge(edge).costs[i] + 1e-9,
                    "path skyline minimum exceeds facility cost"
                );
            }
        }
    }
}
