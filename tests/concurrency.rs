//! Concurrent-correctness integration tests: the multi-query engine must be
//! *byte-identical* to serial execution.
//!
//! Run in CI in release mode (`cargo test --release -p mcn --test
//! concurrency`) so the scheduler interleavings resemble production timing.

use mcn::engine::{QueryEngine, QueryRequest};
use mcn::gen::{generate_workload, WorkloadSpec};
use mcn::graph::NetworkLocation;
use mcn::storage::{BufferConfig, MCNStore};
use mcn::{skyline_query, Algorithm};
use mcn_bench::build_request_batch;
use std::sync::Arc;

/// Builds a deterministic mixed batch (skyline / top-k / incremental top-k,
/// LSA and CEA alternating) over a generated workload.
fn mixed_batch(seed: u64, batch: usize) -> (Arc<MCNStore>, Vec<QueryRequest>) {
    let spec = WorkloadSpec::tiny(seed);
    let workload = generate_workload(&spec);
    let store =
        Arc::new(MCNStore::build_in_memory(&workload.graph, BufferConfig::Fraction(0.01)).unwrap());
    let requests = build_request_batch(&workload.queries, spec.cost_types, batch, seed);
    (store, requests)
}

#[test]
fn engine_with_four_workers_matches_serial_byte_for_byte() {
    for seed in [3u64, 19] {
        let (store, requests) = mixed_batch(seed, 18);
        let serial = QueryEngine::new(store.clone(), 1).run_batch(&requests);
        let concurrent = QueryEngine::new(store.clone(), 4).run_batch(&requests);

        // Byte-identical per-query results, in request order.
        let serial_prints: Vec<String> = serial
            .outcomes
            .iter()
            .map(|o| o.output.fingerprint())
            .collect();
        let concurrent_prints: Vec<String> = concurrent
            .outcomes
            .iter()
            .map(|o| o.output.fingerprint())
            .collect();
        assert_eq!(serial_prints, concurrent_prints, "seed {seed}");

        // Deterministic facility ordering: repeat the concurrent run and
        // compare against itself — scheduling must not leak into results.
        let again = QueryEngine::new(store.clone(), 4).run_batch(&requests);
        let again_prints: Vec<String> = again
            .outcomes
            .iter()
            .map(|o| o.output.fingerprint())
            .collect();
        assert_eq!(concurrent_prints, again_prints, "seed {seed}");

        // Logical page reads are a pure function of the queries: exactly
        // equal at any worker count (well inside the 1 % budget).
        assert_eq!(
            serial.stats.io.logical_reads, concurrent.stats.io.logical_reads,
            "seed {seed}"
        );
        // The striped pool's snapshot invariant holds on the aggregates.
        for stats in [&serial.stats.io, &concurrent.stats.io] {
            assert_eq!(stats.logical_reads, stats.buffer_hits + stats.buffer_misses);
        }
    }
}

#[test]
fn concurrent_engine_queries_race_with_parallel_lsa() {
    // Mixed-mode stress: engine workers and LSA queries issued in parallel
    // from the test's own threads all hammer one shared store; results must
    // stay correct and the pool counters consistent.
    let workload = generate_workload(&WorkloadSpec::tiny(23));
    let store =
        Arc::new(MCNStore::build_in_memory(&workload.graph, BufferConfig::Fraction(0.02)).unwrap());
    let q: NetworkLocation = workload.queries[0];
    let expected = skyline_query(&store, q, Algorithm::Lsa).facilities;
    let engine = QueryEngine::new(store.clone(), 3);
    let requests: Vec<QueryRequest> = workload
        .queries
        .iter()
        .map(|&location| QueryRequest::Skyline {
            location,
            algorithm: Algorithm::Cea,
        })
        .collect();
    std::thread::scope(|scope| {
        let store = &store;
        let expected = &expected;
        for _ in 0..2 {
            scope.spawn(move || {
                for _ in 0..3 {
                    assert_eq!(
                        &skyline_query(store, q, Algorithm::Lsa).facilities,
                        expected
                    );
                }
            });
        }
        engine.run_batch(&requests);
    });
    let io = store.io_stats();
    assert_eq!(io.logical_reads, io.buffer_hits + io.buffer_misses);
}

#[test]
fn facade_types_are_thread_safe() {
    // Compile-time Send/Sync contract at the facade level (the per-crate
    // unit tests assert the same for the building blocks).
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = assert_send_sync::<MCNStore>();
    const _: () = assert_send_sync::<QueryEngine>();
    const _: () = assert_send::<mcn::SkylineSearch<mcn::expansion::DirectAccess>>();
}
