//! Differential test of expansion-table reuse: a long, mixed stream of
//! queries served through ONE [`TablePool`] must be indistinguishable — in
//! results, in statistics and in the expansions' step sequences — from the
//! same stream with fresh tables for every query.
//!
//! The stream alternates between two networks of different size (so the
//! pooled tables meet an id range larger than the one they were first sized
//! for), mixes every query kind and location type, leaves expansions
//! half-run (their tables full of unfinished entries, their decode buffer
//! still holding the adjacency record of the last node they settled) and
//! drops a `TopKIter` after one result in the middle. Half-run expansions
//! read through both accessors, so a pooled decode buffer is also filled
//! from CEA's per-query arena, and what the arena reports (`SharingStats`)
//! is compared too.

use mcn::expansion::{
    seeds_for_location, DirectAccess, Expansion, ExpansionStep, FacilityMode, NetworkAccess,
    SharedAccess, SharingStats, TablePool,
};
use mcn::gen::{generate_workload, WorkloadSpec};
use mcn::graph::{EdgeId, MultiCostGraph, NetworkLocation, NodeId};
use mcn::storage::{BufferConfig, MCNStore};
use mcn::{
    skyline_query, skyline_query_in, topk_query, topk_query_in, Algorithm, QueryStats,
    SkylineFacility, TopKEntry, TopKIter, WeightedSum,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

const QUERIES: usize = 240;

#[derive(Clone, Debug)]
enum Kind {
    Skyline,
    TopK(usize),
    Incremental(usize),
    /// The first `steps` steps of one expansion, then abandoned.
    Steps {
        cost_type: usize,
        steps: usize,
    },
}

#[derive(Clone, Debug)]
struct Query {
    /// Which of the two networks it runs on.
    network: usize,
    location: NetworkLocation,
    algorithm: Algorithm,
    weights: Vec<f64>,
    kind: Kind,
}

/// Everything observable about one served query (`elapsed` zeroed).
#[derive(Debug, PartialEq)]
enum Served {
    Skyline(Vec<SkylineFacility>, QueryStats),
    TopK(Vec<TopKEntry>, QueryStats),
    Steps(
        Vec<ExpansionStep>,
        mcn::expansion::ExpansionStats,
        Option<SharingStats>,
    ),
}

fn timeless(mut stats: QueryStats) -> QueryStats {
    stats.elapsed = std::time::Duration::ZERO;
    stats
}

fn network(spec: &WorkloadSpec) -> (MultiCostGraph, Arc<MCNStore>) {
    let graph = generate_workload(spec).graph;
    // A buffer far smaller than the data: hits and misses depend on the
    // exact page-request sequence, so `QueryStats::io` compares that too.
    let store = Arc::new(MCNStore::build_in_memory(&graph, BufferConfig::Fraction(0.02)).unwrap());
    (graph, store)
}

fn stream(graphs: [&MultiCostGraph; 2], d: usize) -> Vec<Query> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7AB1E5);
    (0..QUERIES)
        .map(|i| {
            let network = usize::from(rng.gen_range(0..3) > 0);
            let graph = graphs[network];
            let location = if rng.gen_range(0..4) == 0 {
                let edge = EdgeId::from(rng.gen_range(0..graph.num_edges()));
                NetworkLocation::on_edge(edge, rng.gen_range(0.0..1.0))
            } else {
                NetworkLocation::Node(NodeId::from(rng.gen_range(0..graph.num_nodes())))
            };
            let kind = match i % 4 {
                0 => Kind::Skyline,
                1 => Kind::TopK(rng.gen_range(1..6)),
                // In the middle of the stream: one result, then dropped.
                2 if i == QUERIES / 2 => Kind::Incremental(1),
                2 => Kind::Incremental(rng.gen_range(1..5)),
                _ => Kind::Steps {
                    cost_type: rng.gen_range(0..d),
                    steps: rng.gen_range(5..120),
                },
            };
            Query {
                network,
                location,
                algorithm: if rng.gen_range(0..2) == 0 {
                    Algorithm::Lsa
                } else {
                    Algorithm::Cea
                },
                weights: (0..d).map(|_| rng.gen_range(0.01..1.0)).collect(),
                kind,
            }
        })
        .collect()
}

/// Serves `query` on tables from `pool`, or on fresh ones (through the
/// pool-less public API) when `pool` is `None`.
fn serve(store: &Arc<MCNStore>, query: &Query, pool: Option<&TablePool>) -> Served {
    let Query {
        location,
        algorithm,
        ..
    } = *query;
    match query.kind {
        Kind::Skyline => {
            let r = match pool {
                Some(pool) => skyline_query_in(store, location, algorithm, pool),
                None => skyline_query(store, location, algorithm),
            };
            Served::Skyline(r.facilities, timeless(r.stats))
        }
        Kind::TopK(k) => {
            let aggregate = WeightedSum::new(query.weights.clone());
            let r = match pool {
                Some(pool) => topk_query_in(store, location, aggregate, k, algorithm, pool),
                None => topk_query(store, location, aggregate, k, algorithm),
            };
            Served::TopK(r.entries, timeless(r.stats))
        }
        Kind::Incremental(take) => {
            fn first<A: NetworkAccess>(
                access: A,
                query: &Query,
                take: usize,
                pool: Option<&TablePool>,
            ) -> Served {
                let (access, location, name) =
                    (Arc::new(access), query.location, query.algorithm.name());
                let aggregate = WeightedSum::new(query.weights.clone());
                let mut it = match pool {
                    Some(pool) => TopKIter::with_pool(access, location, aggregate, name, pool),
                    None => TopKIter::new(access, location, aggregate, name),
                };
                let entries: Vec<TopKEntry> = it.by_ref().take(take).collect();
                Served::TopK(entries, timeless(it.stats()))
            }
            match algorithm {
                Algorithm::Lsa => first(DirectAccess::new(store.clone()), query, take, pool),
                Algorithm::Cea => first(SharedAccess::new(store.clone()), query, take, pool),
            }
        }
        Kind::Steps { cost_type, steps } => {
            fn run<A: NetworkAccess>(
                access: &Arc<A>,
                query: &Query,
                (cost_type, steps): (usize, usize),
                pool: Option<&TablePool>,
            ) -> (Vec<ExpansionStep>, mcn::expansion::ExpansionStats) {
                let seeds = seeds_for_location(access.as_ref(), query.location);
                let (access, mode) = (access.clone(), FacilityMode::All);
                let mut ex = match pool {
                    Some(pool) => Expansion::with_pool(access, cost_type, &seeds, mode, pool),
                    None => Expansion::new(access, cost_type, &seeds, mode),
                };
                ((0..steps).map(|_| ex.advance()).collect(), ex.stats())
            }
            match algorithm {
                Algorithm::Lsa => {
                    let access = Arc::new(DirectAccess::new(store.clone()));
                    let (trace, stats) = run(&access, query, (cost_type, steps), pool);
                    Served::Steps(trace, stats, None)
                }
                Algorithm::Cea => {
                    // Two expansions over one arena: the second re-reads
                    // what the first fetched.
                    let access = Arc::new(SharedAccess::new(store.clone()));
                    let (mut trace, _) = run(&access, query, (cost_type, steps), pool);
                    let (again, stats) = run(&access, query, (cost_type, steps), pool);
                    assert_eq!(trace, again);
                    trace.extend(again);
                    Served::Steps(trace, stats, Some(access.sharing_stats()))
                }
            }
        }
    }
}

#[test]
fn one_reused_pool_is_indistinguishable_from_fresh_tables() {
    let small = WorkloadSpec {
        nodes: 250,
        facilities: 60,
        ..WorkloadSpec::tiny(5)
    };
    let large = WorkloadSpec::tiny(6);
    let d = large.cost_types;
    assert_eq!(small.cost_types, d);

    // Two identical copies of each store, so both sides start from — and go
    // through — the same buffer states.
    let (small_graph, small_a) = network(&small);
    let (large_graph, large_a) = network(&large);
    let reused_stores = [small_a, large_a];
    let fresh_stores = [network(&small).1, network(&large).1];
    assert!(large_graph.num_nodes() > 2 * small_graph.num_nodes());

    let queries = stream([&small_graph, &large_graph], d);
    let pool = TablePool::new();
    let mut nonempty = 0;
    for (i, query) in queries.iter().enumerate() {
        let reused = serve(&reused_stores[query.network], query, Some(&pool));
        let fresh = serve(&fresh_stores[query.network], query, None);
        assert_eq!(reused, fresh, "query {i}: {query:?}");
        nonempty += usize::from(match &reused {
            Served::Skyline(facilities, _) => !facilities.is_empty(),
            Served::TopK(entries, _) => !entries.is_empty(),
            Served::Steps(trace, ..) => trace
                .iter()
                .any(|s| matches!(s, ExpansionStep::Facility { .. })),
        });
        // Every expansion of the query handed its tables back, finished or
        // not; the pool never holds more than one query's worth.
        assert!((1..=d).contains(&pool.idle()), "query {i}");
    }
    assert_eq!(pool.idle(), d);
    assert!(nonempty > QUERIES * 9 / 10, "only {nonempty} non-trivial");
}
