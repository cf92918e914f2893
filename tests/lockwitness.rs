//! Runtime lock-order witness: every guard overlap *observed* while a real
//! concurrent workload runs must be an edge the static analysis already
//! *predicted* (observed ⊆ static).
//!
//! The static side is the checked-in `crates/analyze/lock-order.json` (kept
//! current by `mcn-analyze check`); the dynamic side is `mcn-witness`, whose
//! tracker every lock site in storage/expansion/prep/engine registers with.
//! A witness edge missing from the static list means the analyzer's model of
//! the workspace drifted from the code — exactly the bug class this test
//! exists to catch.
//!
//! The witness compiles to a no-op unless `debug_assertions` are on, so the
//! containment assertions are gated on [`mcn_witness::is_active`]; CI also
//! runs this in release with `CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true`
//! so production-like timing is covered too.

use mcn::engine::{PathContext, QueryEngine, QueryRequest};
use mcn::gen::{generate_workload, WorkloadSpec};
use mcn::graph::{NetworkLocation, NodeId};
use mcn::storage::{BufferConfig, MCNStore};
use mcn_analyze::locks::LockOrderFile;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// The witness registry is process-global, and both tests `reset()` it;
/// serialize them so one test's reset never races the other's assertions.
static WITNESS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Loads the checked-in static edge list as a set of (from, to) pairs.
fn static_edges() -> BTreeSet<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/analyze/lock-order.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let file = LockOrderFile::from_json(&text).expect("lock-order.json parses");
    assert!(
        !file.edges.is_empty(),
        "the static lock-order graph should not be empty"
    );
    file.edges
        .into_iter()
        .map(|edge| (edge.from, edge.to))
        .collect()
}

/// A mixed 4-worker batch exercising every instrumented lock family: CEA
/// skylines (SharedAccess + buffer pool), LSA skylines (buffer pool + disk),
/// and path skylines (PrepCache), all over one shared store.
fn run_mixed_batch() {
    let workload = generate_workload(&WorkloadSpec::tiny(61));
    let graph = Arc::new(workload.graph);
    // A small pool fraction forces misses and evictions, so the sharing
    // cache → pool shard and sharing cache → disk chains are all exercised,
    // not just hits — and a shard lock held across a physical read would
    // show up as an edge the static graph does not have.
    let store = Arc::new(MCNStore::build_in_memory(&graph, BufferConfig::Fraction(0.01)).unwrap());
    let ctx = Arc::new(PathContext::new(graph.clone(), 4));
    let mut rng = ChaCha8Rng::seed_from_u64(6100);
    let n = graph.num_nodes();
    let requests: Vec<QueryRequest> = (0..16)
        .map(|i| match i % 4 {
            0 => QueryRequest::Skyline {
                location: NetworkLocation::Node(NodeId::from(rng.gen_range(0..n))),
                algorithm: mcn::Algorithm::Cea,
            },
            1 => QueryRequest::Skyline {
                location: NetworkLocation::Node(NodeId::from(rng.gen_range(0..n))),
                algorithm: mcn::Algorithm::Lsa,
            },
            2 => QueryRequest::PathSkyline {
                source: NodeId::from(rng.gen_range(0..n)),
                target: NodeId::from(rng.gen_range(0..n)),
            },
            _ => QueryRequest::TopK {
                location: NetworkLocation::Node(NodeId::from(rng.gen_range(0..n))),
                weights: vec![0.5, 0.3, 0.2],
                k: 3,
                algorithm: mcn::Algorithm::Cea,
            },
        })
        .collect();
    let result = QueryEngine::new(store, 4)
        .with_path_context(ctx)
        .run_batch(&requests);
    assert_eq!(result.outcomes.len(), requests.len());
}

#[test]
fn observed_lock_edges_are_a_subset_of_the_static_graph() {
    let _serial = WITNESS.lock().unwrap_or_else(|e| e.into_inner());
    mcn_witness::reset();
    run_mixed_batch();

    if !mcn_witness::is_active() {
        // Release build without debug assertions: the witness is compiled
        // out and there is nothing to cross-check.
        assert!(mcn_witness::observed_edges().is_empty());
        return;
    }

    let observed: BTreeSet<(String, String)> = mcn_witness::observed_edges().into_iter().collect();
    assert!(
        !observed.is_empty(),
        "a 4-worker mixed batch should overlap at least one pair of locks"
    );

    let predicted = static_edges();
    let unpredicted: Vec<_> = observed.difference(&predicted).collect();
    assert!(
        unpredicted.is_empty(),
        "witnessed lock edges missing from the static lock-order graph \
         (run `cargo run -p mcn-analyze -- check --update` after auditing): \
         {unpredicted:?}"
    );
}

/// The shape of one entry in [`mcn_witness::dump_json`]'s output.
#[derive(serde::Deserialize)]
struct WitnessEdge {
    from: String,
    to: String,
}

#[test]
fn witness_dump_json_round_trips_the_observed_edges() {
    let _serial = WITNESS.lock().unwrap_or_else(|e| e.into_inner());
    mcn_witness::reset();
    run_mixed_batch();
    let dump = mcn_witness::dump_json();
    let parsed: Vec<WitnessEdge> =
        serde::json::from_str(&dump).expect("witness dump is valid JSON");
    let expected: BTreeSet<(String, String)> = mcn_witness::observed_edges().into_iter().collect();
    let dumped: BTreeSet<(String, String)> = parsed
        .into_iter()
        .map(|edge| (edge.from, edge.to))
        .collect();
    assert_eq!(dumped, expected);
    if mcn_witness::is_active() {
        assert!(!dumped.is_empty());
    }
}
