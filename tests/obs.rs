//! Observability integration tests at the facade level: metrics published
//! into a shared registry by the serving stack must reconcile
//! *byte-exactly* with the storage and prep counters they mirror, under
//! concurrency, and span traces must cover every query's lifecycle — all
//! without ever changing a query's results or its per-query counters.

use mcn::engine::{BatchResult, QueryEngine, QueryRequest};
use mcn::gen::{generate_workload, WorkloadSpec};
use mcn::obs::{MetricsRegistry, Obs};
use mcn::storage::{BufferConfig, MCNStore, StoreView};
use mcn::{skyline_query, Algorithm};
use mcn_bench::build_request_batch;
use std::sync::Arc;

/// A deterministic mixed batch over a tiny workload (the same builder the
/// concurrency tests use).
fn mixed_batch(seed: u64, batch: usize) -> (Arc<MCNStore>, Vec<QueryRequest>) {
    let spec = WorkloadSpec::tiny(seed);
    let workload = generate_workload(&spec);
    let store =
        Arc::new(MCNStore::build_in_memory(&workload.graph, BufferConfig::Fraction(0.02)).unwrap());
    let requests = build_request_batch(&workload.queries, spec.cost_types, batch, seed);
    (store, requests)
}

#[test]
fn published_metrics_reconcile_with_io_stats_under_concurrent_load() {
    // Hammer: four query threads drive the shared buffer pool while an
    // observer repeatedly publishes the store's counters into a registry
    // and checks every snapshot. `publish_metrics` reads one consistent
    // `IoStats` snapshot, so the pool invariants must hold in every
    // published view even though the counters race forward underneath.
    let workload = generate_workload(&WorkloadSpec::tiny(31));
    let store =
        Arc::new(MCNStore::build_in_memory(&workload.graph, BufferConfig::Fraction(0.02)).unwrap());
    let registry = MetricsRegistry::new();
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let store = store.clone();
            let queries = workload.queries.clone();
            scope.spawn(move || {
                for i in 0..12 {
                    let q = queries[(t + i) % queries.len()];
                    let algo = if i % 2 == 0 {
                        Algorithm::Cea
                    } else {
                        Algorithm::Lsa
                    };
                    std::hint::black_box(skyline_query(&store, q, algo).facilities.len());
                }
            });
        }
        let mut last_logical = 0u64;
        for _ in 0..200 {
            store.publish_metrics(&registry);
            let snap = registry.snapshot();
            let logical = snap.counter_value("storage.logical_reads", &[]).unwrap();
            let hits = snap.counter_value("storage.buffer_hits", &[]).unwrap();
            let misses = snap.counter_value("storage.buffer_misses", &[]).unwrap();
            let physical = snap.counter_value("storage.physical_reads", &[]).unwrap();
            assert_eq!(logical, hits + misses, "published snapshot is torn");
            assert!(physical <= misses, "physical reads exceed buffer misses");
            assert!(logical >= last_logical, "published counters went backwards");
            last_logical = logical;
        }
    });
    // Final published view equals the quiesced pool byte-for-byte.
    store.publish_metrics(&registry);
    let snap = registry.snapshot();
    let io = store.io_stats();
    assert_eq!(
        snap.counter_value("storage.logical_reads", &[]),
        Some(io.logical_reads)
    );
    assert_eq!(
        snap.counter_value("storage.buffer_hits", &[]),
        Some(io.buffer_hits)
    );
    assert_eq!(
        snap.counter_value("storage.buffer_misses", &[]),
        Some(io.buffer_misses)
    );
    assert_eq!(
        snap.counter_value("storage.physical_reads", &[]),
        Some(io.physical_reads)
    );
}

#[test]
fn four_worker_batch_reconciles_metrics_and_keeps_results_identical() {
    let (store, requests) = mixed_batch(41, 18);
    let prints = |result: &BatchResult| -> Vec<String> {
        result
            .outcomes
            .iter()
            .map(|o| o.output.fingerprint())
            .collect()
    };

    // Baseline: no observability attached.
    let bare_prints = prints(&QueryEngine::new(store.clone(), 4).run_batch(&requests));

    // Attached with tracing off (the production default): same results,
    // and the tracer records nothing.
    store.buffer().clear();
    let untraced = Arc::new(Obs::new());
    untraced.set_tracing(false);
    let engine = QueryEngine::new(store.clone(), 4).with_obs(untraced.clone());
    assert_eq!(bare_prints, prints(&engine.run_batch(&requests)));
    assert!(untraced.tracer().drain().is_empty());

    // Observed run from identical starting conditions (clearing the pool
    // also zeroes its counters, so the shared registry's cumulative view
    // must equal this batch's deltas exactly).
    store.buffer().clear();
    let obs = Arc::new(Obs::new());
    obs.set_tracing(true);
    let engine = QueryEngine::new(store.clone(), 4).with_obs(obs.clone());
    let result = engine.run_batch(&requests);

    // Observability never changes results: byte-identical fingerprints.
    assert_eq!(bare_prints, prints(&result));

    let io = &result.stats.io;
    assert_eq!(io.logical_reads, io.buffer_hits + io.buffer_misses);

    // Shared registry: cumulative storage counters equal the pool's own
    // view (one batch since the clear), and the engine counted it.
    let shared = obs.registry().snapshot();
    let pool = store.io_stats();
    assert_eq!(pool.logical_reads, io.logical_reads);
    assert_eq!(
        shared.counter_value("storage.logical_reads", &[]),
        Some(pool.logical_reads)
    );
    assert_eq!(
        shared.counter_value("storage.buffer_hits", &[]),
        Some(pool.buffer_hits)
    );
    assert_eq!(
        shared.counter_value("storage.buffer_misses", &[]),
        Some(pool.buffer_misses)
    );
    assert_eq!(
        shared.counter_value("storage.physical_reads", &[]),
        Some(pool.physical_reads)
    );
    assert_eq!(shared.counter_value("engine.batches", &[]), Some(1));
    assert_eq!(
        shared.counter_value("engine.queries", &[]),
        Some(requests.len() as u64)
    );
}

#[test]
fn observation_changes_no_per_query_counter() {
    // One worker from a cleared pool: per-query `stats.io` is meaningful
    // only without overlapping queries, and the same starting pool makes
    // the three runs' page-request sequences equal.
    let (store, requests) = mixed_batch(61, 15);
    let run = |obs: Option<Arc<Obs>>| {
        store.buffer().clear();
        let engine = QueryEngine::new(store.clone(), 1);
        let engine = match obs {
            Some(obs) => engine.with_obs(obs),
            None => engine,
        };
        engine.run_batch(&requests)
    };
    let bare = run(None);
    let untraced = run(Some(Arc::new(Obs::new())));
    let traced_obs = Arc::new(Obs::new());
    traced_obs.set_tracing(true);
    let traced = run(Some(traced_obs.clone()));
    assert!(!traced_obs.tracer().drain().is_empty());

    for observed in [&untraced, &traced] {
        for (i, (a, b)) in bare.outcomes.iter().zip(&observed.outcomes).enumerate() {
            assert_eq!(a.stats, b.stats, "request {i}: per-query stats differ");
            assert_eq!(a.output.fingerprint(), b.output.fingerprint());
        }
        assert_eq!(bare.stats.io, observed.stats.io);
    }
    assert!(bare.outcomes.iter().any(|o| o.stats.io.logical_reads > 0));
}

#[test]
fn traced_batch_records_every_query_lifecycle() {
    let (store, requests) = mixed_batch(53, 12);
    let obs = Arc::new(Obs::new());
    obs.set_tracing(true);
    let engine = QueryEngine::new(store, 2).with_obs(obs.clone());
    engine.run_batch(&requests);

    let events = obs.tracer().drain();
    assert!(!events.is_empty());
    // Every query's lifecycle reaches the trace: schedule, search and
    // fingerprint spans for each request, plus unpack for the kinds that
    // have a separate unpacking stage (incremental top-k streams results
    // inside its single search span instead).
    for (i, request) in requests.iter().enumerate() {
        let query = i as u64;
        let mut expected = vec!["schedule", "search", "fingerprint"];
        if request.kind() != "topk-inc" {
            expected.push("unpack");
        }
        for name in expected {
            assert!(
                events.iter().any(|e| e.query == query && e.name == name),
                "query {query} is missing a `{name}` span"
            );
        }
    }
    // Draining again yields nothing: the ring buffers were emptied.
    assert!(obs.tracer().drain().is_empty());
}
