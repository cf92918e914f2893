//! Route-index equivalence: answers served from the hierarchical
//! partial-path index must be **byte-identical** to the direct algorithms —
//! `scalarized_path` for α queries and `pareto_paths_prepped` for path
//! skylines — over random graphs at every dimension, and engine batches
//! mixing index-served and prep-backed contexts must stay fingerprint-equal
//! serial vs concurrent. The index skyline's outputs and search counters
//! are pinned exactly on three fixed input sets.

use mcn::alpha::{scalarized_path, Preference};
use mcn::engine::{PathContext, QueryEngine, QueryOutput, QueryRequest};
use mcn::gen::{generate_workload, CostDistribution, WorkloadSpec};
use mcn::graph::{CostVec, GraphBuilder, MultiCostGraph, NodeId};
use mcn::index::{IndexConfig, IndexQueryStats, RouteIndex};
use mcn::mcpp::pareto_paths_prepped;
use mcn::prep::PrepTable;
use mcn::storage::{BufferConfig, MCNStore};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

mod support;
use support::{fnv1a, paths_fingerprint, seeded_pairs, tie_network, FNV_OFFSET};

/// Builds a small connected network: a backbone line plus random extra
/// edges, with deterministic LCG-drawn positive costs.
fn property_network(d: usize, nodes: usize, extra: &[(u16, u16)], seed: u64) -> MultiCostGraph {
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
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Index-served α routes and path skylines are byte-identical to the
    /// direct algorithms from every source, at d = 2..4, over random
    /// topologies — edges, IEEE-754 total bits and full Pareto sets alike.
    #[test]
    fn index_answers_match_direct_algorithms(
        d in 2usize..=4,
        nodes in 3usize..=14,
        extra in proptest::collection::vec((0u16..64, 0u16..64), 0..8),
        target_sel in 0u16..64,
        raw_alpha in proptest::collection::vec(0.01f64..1.0, 4),
        seed in any::<u64>(),
    ) {
        let graph = property_network(d, nodes, &extra, seed);
        let index = RouteIndex::build(&graph, &IndexConfig::default());
        prop_assert!(index.exact(), "small builds must stay exact");
        prop_assert!(index.serves(&graph));
        let target = NodeId::from(target_sel as usize % nodes);
        let alpha = Preference::new(&raw_alpha[..d]).expect("positive weights are valid");
        let prep = PrepTable::build(&graph, target);
        for source in (0..nodes).map(NodeId::from) {
            let direct = scalarized_path(&graph, source, target, &alpha);
            let via = index.alpha_path(&graph, source, target, &alpha);
            match (direct.path, via.path) {
                (Some(p), Some(v)) => {
                    prop_assert_eq!(
                        &p.edges, &v.edges,
                        "index route diverged at {} → {}", source, target
                    );
                    prop_assert_eq!(
                        p.total.to_bits(), v.total.to_bits(),
                        "index total diverged at {} → {}", source, target
                    );
                }
                (None, None) => {}
                other => prop_assert!(
                    false,
                    "index and Dijkstra disagree on reachability at {source} → {target}: {other:?}"
                ),
            }
            let direct_sky = pareto_paths_prepped(&graph, source, target, &prep);
            let via_sky = index.skyline_paths(&graph, source, target);
            prop_assert_eq!(
                &direct_sky.paths, &via_sky.paths,
                "index skyline diverged at {} → {}", source, target
            );
        }
    }
}

/// The engine fixture: one seeded workload graph with a batch mixing
/// α-path and path-skyline requests over a handful of shared targets.
fn engine_fixture() -> (Arc<MCNStore>, Arc<MultiCostGraph>, Vec<QueryRequest>) {
    let graph = Arc::new(
        generate_workload(&WorkloadSpec {
            nodes: 160,
            facilities: 30,
            cost_types: 3,
            queries: 0,
            ..WorkloadSpec::tiny(91)
        })
        .graph,
    );
    let store = Arc::new(MCNStore::build_in_memory(&graph, BufferConfig::Pages(32)).unwrap());
    let mut rng = ChaCha8Rng::seed_from_u64(9100);
    let n = graph.num_nodes();
    let targets: Vec<NodeId> = (0..4).map(|_| NodeId::from(rng.gen_range(0..n))).collect();
    let requests: Vec<QueryRequest> = (0..16)
        .map(|i| {
            let source = NodeId::from(rng.gen_range(0..n));
            let target = targets[i % targets.len()];
            if i % 2 == 0 {
                let w: Vec<f64> = (0..3).map(|_| rng.gen_range(0.05..1.0)).collect();
                QueryRequest::AlphaPath {
                    source,
                    target,
                    alpha: Preference::new(&w).unwrap(),
                }
            } else {
                QueryRequest::PathSkyline { source, target }
            }
        })
        .collect();
    (store, graph, requests)
}

fn fingerprints(result: &mcn::engine::BatchResult) -> Vec<String> {
    result
        .outcomes
        .iter()
        .map(|o| o.output.fingerprint())
        .collect()
}

/// Index-backed and prep-backed engines answer the same mixed batch with
/// byte-identical outputs, serial and with four workers — and the indexed
/// run actually serves from the index (no prep-cache traffic).
#[test]
fn mixed_engine_batches_agree_across_index_and_worker_counts() {
    let (store, graph, requests) = engine_fixture();
    let index = Arc::new(RouteIndex::build(&graph, &IndexConfig::default()));
    assert!(index.serves(&graph), "fixture build must stay exact");

    let prep_ctx = Arc::new(PathContext::new(graph.clone(), 8));
    let baseline = QueryEngine::new(store.clone(), 1)
        .with_path_context(prep_ctx)
        .run_batch(&requests);
    let reference = fingerprints(&baseline);
    assert!(baseline
        .outcomes
        .iter()
        .any(|o| matches!(o.output, QueryOutput::Paths(_))));

    for workers in [1usize, 4] {
        let indexed_ctx =
            Arc::new(PathContext::new(graph.clone(), 8).with_route_index(index.clone()));
        let indexed = QueryEngine::new(store.clone(), workers)
            .with_path_context(indexed_ctx.clone())
            .run_batch(&requests);
        assert_eq!(
            reference,
            fingerprints(&indexed),
            "indexed batch diverged at {workers} worker(s)"
        );
        for outcome in &indexed.outcomes {
            assert!(
                outcome.stats.algorithm.ends_with("-index"),
                "request served by {} instead of the index",
                outcome.stats.algorithm
            );
        }
        // The index answered everything: the prep-table cache saw no traffic.
        let cache = indexed_ctx.cache_stats();
        assert_eq!(cache.hits + cache.misses, 0);
    }
}

/// A case of a pinned set: its dimension, its graph and its pairs.
type Case = (usize, MultiCostGraph, Vec<(NodeId, NodeId)>);

/// One pinned row: the case set's dimension label, the FNV-1a 64 over every
/// pair's skyline fingerprint (cost bits and edges), then the summed
/// `settled`, `pushed`, `relaxed` and `pruned` counters.
type Row = (String, u64, u64, u64, u64, u64);

/// Builds a sequential index per case and folds every pair's index skyline
/// into one row per dimension present in `cases`.
fn measure_skylines(cases: &[Case]) -> Vec<Row> {
    let mut rows = Vec::new();
    for d in [2usize, 3, 4] {
        if !cases.iter().any(|case| case.0 == d) {
            continue;
        }
        let mut fingerprint = FNV_OFFSET;
        let mut sum = IndexQueryStats::default();
        for (_, graph, pairs) in cases.iter().filter(|case| case.0 == d) {
            let index = RouteIndex::build(graph, &IndexConfig::default());
            assert!(index.exact(), "d = {d}: pinned builds must stay exact");
            for &(s, t) in pairs {
                let run = index.skyline_paths(graph, s, t);
                fingerprint = fnv1a(fingerprint, paths_fingerprint(run.paths).as_bytes());
                fingerprint = fnv1a(fingerprint, b";");
                sum.settled += run.stats.settled;
                sum.pushed += run.stats.pushed;
                sum.relaxed += run.stats.relaxed;
                sum.pruned += run.stats.pruned;
            }
        }
        rows.push((
            format!("d{d}"),
            fingerprint,
            sum.settled,
            sum.pushed,
            sum.relaxed,
            sum.pruned,
        ));
    }
    rows
}

/// Checks measured rows against the pinned ones; on any mismatch the panic
/// prints the measured table, ready to paste.
fn check_pinned(name: &str, measured: &[Row], pinned: &[(&str, u64, u64, u64, u64, u64)]) {
    let matches = measured.len() == pinned.len()
        && measured
            .iter()
            .zip(pinned)
            .all(|(m, p)| m.0 == p.0 && (m.1, m.2, m.3, m.4, m.5) == (p.1, p.2, p.3, p.4, p.5));
    if !matches {
        let rows: String = measured
            .iter()
            .map(|m| {
                format!(
                    "        (\"{}\", {:#018x}, {}, {}, {}, {}),\n",
                    m.0, m.1, m.2, m.3, m.4, m.5
                )
            })
            .collect();
        panic!("{name}: pinned index skylines moved; measured\n{rows}");
    }
}

/// The index gate's inputs (`crates/bench` `gate::INDEX`):
/// 150 nodes, d = 2/3/4, three seeded pairs, seed 2010.
#[test]
fn pinned_index_skylines_on_the_index_gate_inputs() {
    const PINNED: &[(&str, u64, u64, u64, u64, u64)] = &[
        ("d2", 0x7d97f3dcdf96b1e9, 543, 767, 6315, 6521),
        ("d3", 0xff6cabc15ec7bf22, 1607, 2160, 58933, 61410),
        ("d4", 0x9c5ef98f8e40afb4, 1670, 2801, 71010, 77837),
    ];
    let seed = 2010;
    let cases: Vec<Case> = [2usize, 3, 4]
        .into_iter()
        .map(|d| {
            let graph = mcn_bench::gate_graph(150, d, seed);
            let pairs = seeded_pairs(&graph, 3, seed ^ 0x1DE8_CAFE);
            (d, graph, pairs)
        })
        .collect();
    check_pinned("index gate", &measure_skylines(&cases), PINNED);
}

/// The `index_serve` benchmark network (its d = 2 graph, generated exactly
/// as the benchmark does) under 64 seeded pairs.
#[test]
fn pinned_index_skylines_on_the_index_serve_network() {
    const PINNED: &[(&str, u64, u64, u64, u64, u64)] =
        &[("d2", 0xc7f95b371e8b351c, 27675, 44941, 598008, 634560)];
    let graph = generate_workload(&WorkloadSpec {
        nodes: 250,
        facilities: 10,
        cost_types: 2,
        distribution: CostDistribution::AntiCorrelated,
        clusters: 1,
        queries: 1,
        seed: 2010,
    })
    .graph;
    let pairs = seeded_pairs(&graph, 64, 2010);
    check_pinned(
        "index_serve",
        &measure_skylines(&[(2, graph, pairs)]),
        PINNED,
    );
}

/// The tie-heavy set: exact ties, zero-cost cycles, parallel and one-way
/// edges. Pinned against its own constants, not the prep tier's answers —
/// with exact ties the surviving representatives may differ between tiers
/// (the ties caveat on `pareto_paths`).
#[test]
fn pinned_index_skylines_on_tie_heavy_inputs() {
    const PINNED: &[(&str, u64, u64, u64, u64, u64)] = &[
        ("d2", 0x38f79a145bf5ead0, 350, 315, 529, 319),
        ("d3", 0x6825350a1489aa12, 521, 516, 1442, 1229),
        ("d4", 0xbc4c6235ae9360a1, 565, 529, 1638, 1567),
    ];
    let mut cases: Vec<Case> = Vec::new();
    for d in [2usize, 3, 4] {
        for seed in 0..8u64 {
            let graph = tie_network(d, 9 + seed as usize, 7_000 + 10 * d as u64 + seed);
            let pairs = seeded_pairs(&graph, 4, 70_000 + seed);
            cases.push((d, graph, pairs));
        }
    }
    check_pinned("tie set", &measure_skylines(&cases), PINNED);
}
