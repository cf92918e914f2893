//! Concurrent queries: drive a batch of mixed skyline/top-k queries through
//! the multi-query [`QueryEngine`] serially and with 4 workers over one
//! shared store, and print the page reads and buffer hit ratio of each run.
//!
//! ```text
//! cargo run --release --example concurrent_queries
//! ```
//!
//! Every result of the 4-worker run is byte-identical to the serial run's,
//! which this example verifies with fingerprints. (Throughput is measured by
//! the repo benchmark, `benchmark/`, not here.)

use mcn::engine::{QueryEngine, QueryRequest};
use mcn::gen::{generate_workload, WorkloadSpec};
use mcn::storage::{BufferConfig, MCNStore};
use mcn::Algorithm;
use std::sync::Arc;

fn main() {
    // A synthetic workload in the style of the paper's Section VI, scaled
    // down so the example finishes in seconds.
    let spec = WorkloadSpec {
        nodes: 2000,
        facilities: 600,
        queries: 8,
        ..WorkloadSpec::tiny(42)
    };
    let workload = generate_workload(&spec);
    // A 10 % buffer: the paper's 1 % would be a single page of this small
    // store, and nothing would ever hit.
    let store =
        Arc::new(MCNStore::build_in_memory(&workload.graph, BufferConfig::Fraction(0.1)).unwrap());
    println!(
        "network: {} nodes, {} facilities, d = {}, {} data pages",
        store.num_nodes(),
        store.num_facilities(),
        store.num_cost_types(),
        store.data_pages()
    );

    // A mixed batch: skyline, batch top-k and incremental top-k, alternating
    // LSA and CEA — the kind of traffic a shared service would see.
    let d = spec.cost_types;
    let requests: Vec<QueryRequest> = workload
        .queries
        .iter()
        .cycle()
        .take(24)
        .enumerate()
        .map(|(i, &location)| {
            let weights: Vec<f64> = (0..d).map(|j| 0.2 + ((i + j) % 5) as f64 * 0.2).collect();
            let algorithm = if i % 2 == 0 {
                Algorithm::Cea
            } else {
                Algorithm::Lsa
            };
            match i % 3 {
                0 => QueryRequest::Skyline {
                    location,
                    algorithm,
                },
                1 => QueryRequest::TopK {
                    location,
                    weights,
                    k: 4,
                    algorithm,
                },
                _ => QueryRequest::TopKIncremental {
                    location,
                    weights,
                    take: 4,
                    algorithm,
                },
            }
        })
        .collect();

    println!("\nbatch of {} mixed queries:\n", requests.len());
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "workers", "logical", "phys reads", "hit rate"
    );
    let mut serial: Option<Vec<String>> = None;
    for workers in [1usize, 4] {
        store.buffer().clear();
        let engine = QueryEngine::new(store.clone(), workers);
        let result = engine.run_batch(&requests);
        let fingerprints: Vec<String> = result
            .outcomes
            .iter()
            .map(|o| o.output.fingerprint())
            .collect();
        match &serial {
            None => serial = Some(fingerprints),
            // Concurrency must never change a single result byte.
            Some(serial) => assert_eq!(serial, &fingerprints, "results diverged!"),
        }
        let io = &result.stats.io;
        println!(
            "{:<10} {:>12} {:>12} {:>9.1}%",
            workers,
            io.logical_reads,
            io.physical_reads,
            io.hit_ratio() * 100.0
        );
    }
    println!("\nserial and 4-worker runs produced byte-identical results ✓");
}
