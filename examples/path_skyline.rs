//! Path-skyline queries with ParetoPrep precomputation.
//!
//! A courier service repeatedly quotes multi-criteria routes — distance,
//! time, toll — towards a handful of depots. Every quote is a *path
//! skyline*: all Pareto-optimal paths from the pickup point to the depot.
//! This example shows the two tiers of the subsystem:
//!
//! 1. the raw [`PrepTable`] backward scan and what it buys over the
//!    exhaustive baseline (identical skylines, a fraction of the labels);
//! 2. the [`QueryEngine`] serving a batch of `PathSkyline` requests
//!    through a shared [`PathContext`] — one scan per depot, cached, cold
//!    vs warm.
//!
//! Run with: `cargo run --release --example path_skyline`

use mcn::engine::{PathContext, QueryEngine, QueryRequest};
use mcn::gen::{generate_workload, WorkloadSpec};
use mcn::graph::NodeId;
use mcn::mcpp::{pareto_paths_exhaustive, pareto_paths_prepped};
use mcn::prep::PrepTable;
use mcn::storage::{BufferConfig, MCNStore};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn main() {
    // A seeded mid-size network with three cost types.
    let workload = generate_workload(&WorkloadSpec {
        nodes: 400,
        facilities: 80,
        cost_types: 3,
        queries: 4,
        ..WorkloadSpec::tiny(2026)
    });
    let graph = Arc::new(workload.graph);
    println!(
        "network: {} nodes, {} edges, d = {}\n",
        graph.num_nodes(),
        graph.num_edges(),
        graph.num_cost_types()
    );

    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let depot = NodeId::from(rng.gen_range(0..graph.num_nodes()));
    let pickup = NodeId::from(rng.gen_range(0..graph.num_nodes()));

    // 1. One backward scan from the depot, then the pruned search.
    let prep = PrepTable::build(&graph, depot);
    println!(
        "prep scan towards {depot}: {} of {} nodes reach it",
        prep.reachable_nodes(),
        graph.num_nodes()
    );

    let exhaustive = pareto_paths_exhaustive(&graph, pickup, depot);
    let prepped = pareto_paths_prepped(&graph, pickup, depot, &prep);
    assert_eq!(
        exhaustive.paths, prepped.paths,
        "pruning never changes results"
    );
    println!(
        "{pickup} → {depot}: {} Pareto-optimal paths",
        prepped.paths.len()
    );
    for label in prepped.paths.iter().take(4) {
        println!("  cost {} via {} edges", label.costs, label.edges.len());
    }
    println!(
        "labels created: exhaustive {}, prepped {} ({:.1}x fewer, {:.0}% bound-pruned)\n",
        exhaustive.stats.labels_created,
        prepped.stats.labels_created,
        exhaustive.stats.labels_created as f64 / prepped.stats.labels_created.max(1) as f64,
        prepped.stats.prune_fraction() * 100.0
    );

    // 2. The engine: a batch of quotes towards three depots, twice — cold
    // cache (one scan per depot) and warm (all scans reused).
    let store = Arc::new(MCNStore::build_in_memory(&graph, BufferConfig::Pages(64)).unwrap());
    let ctx = Arc::new(PathContext::new(graph.clone(), 8));
    let engine = QueryEngine::new(store, 4).with_path_context(ctx.clone());
    let depots: Vec<NodeId> = (0..3)
        .map(|_| NodeId::from(rng.gen_range(0..graph.num_nodes())))
        .collect();
    let batch: Vec<QueryRequest> = (0..24)
        .map(|i| QueryRequest::PathSkyline {
            source: NodeId::from(rng.gen_range(0..graph.num_nodes())),
            target: depots[i % depots.len()],
        })
        .collect();

    let cold = engine.run_batch(&batch);
    let warm = engine.run_batch(&batch);
    let same = cold
        .outcomes
        .iter()
        .zip(&warm.outcomes)
        .all(|(a, b)| a.output.fingerprint() == b.output.fingerprint());
    assert!(same, "warm cache never changes results");
    let stats = ctx.cache().stats();
    println!(
        "engine: {} path quotes × 2 runs over {} depots ({} workers)",
        batch.len(),
        depots.len(),
        engine.workers()
    );
    println!(
        "cold {:.0} QPS → warm {:.0} QPS; cache: {} hits / {} scans, hit ratio {:.2}",
        cold.stats.qps,
        warm.stats.qps,
        stats.hits,
        stats.misses,
        stats.hit_ratio()
    );
}
