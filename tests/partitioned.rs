//! Partitioned-store equivalence: the whole query stack must produce
//! **byte-identical** results over a region-partitioned store — at any
//! region count, under any algorithm, and under the concurrent engine —
//! compared to the monolithic store the paper's algorithms were built on.
//!
//! Fingerprints ([`QueryOutput::fingerprint`]) encode facility ids plus the
//! raw IEEE-754 bits of every cost, so equality here is bit-exact result
//! equality, not approximate agreement.

use mcn_core::{skyline_query, topk_query, Algorithm, WeightedSum};
use mcn_engine::{QueryEngine, QueryOutput, QueryRequest};
use mcn_gen::{generate_workload, WorkloadSpec};
use mcn_graph::{partition_graph, NetworkLocation, PartitionSpec, RegionId};
use mcn_storage::{BufferConfig, MCNStore, PartitionedStore, StoreView};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Region counts every equivalence property is checked at.
const REGION_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn fixture(seed: u64) -> (mcn_graph::MultiCostGraph, Vec<NetworkLocation>, usize) {
    let workload = generate_workload(&WorkloadSpec::tiny(seed));
    let d = workload.spec.cost_types;
    (workload.graph, workload.queries, d)
}

fn partitioned(
    graph: &mcn_graph::MultiCostGraph,
    regions: usize,
    seed: u64,
) -> Arc<PartitionedStore> {
    let map = partition_graph(graph, &PartitionSpec { regions, seed });
    Arc::new(PartitionedStore::build_in_memory(graph, map, BufferConfig::Fraction(0.02)).unwrap())
}

fn skyline_fingerprint<S: StoreView + ?Sized>(
    store: &Arc<S>,
    q: NetworkLocation,
    algorithm: Algorithm,
) -> String {
    QueryOutput::Skyline(skyline_query(store, q, algorithm).facilities).fingerprint()
}

fn topk_fingerprint<S: StoreView + ?Sized>(
    store: &Arc<S>,
    q: NetworkLocation,
    weights: Vec<f64>,
    k: usize,
    algorithm: Algorithm,
) -> String {
    QueryOutput::TopK(topk_query(store, q, WeightedSum::new(weights), k, algorithm).entries)
        .fingerprint()
}

#[test]
fn skyline_fingerprints_match_the_monolithic_store_at_every_region_count() {
    let (graph, queries, _) = fixture(42);
    let mono = Arc::new(MCNStore::build_in_memory(&graph, BufferConfig::Fraction(0.02)).unwrap());
    for regions in REGION_COUNTS {
        let part = partitioned(&graph, regions, 42);
        for &q in &queries {
            for algorithm in [Algorithm::Lsa, Algorithm::Cea] {
                assert_eq!(
                    skyline_fingerprint(&mono, q, algorithm),
                    skyline_fingerprint(&part, q, algorithm),
                    "{regions} regions, {} diverged at {q:?}",
                    algorithm.name()
                );
            }
        }
    }
}

#[test]
fn topk_fingerprints_match_the_monolithic_store_at_every_region_count() {
    let (graph, queries, d) = fixture(7);
    let mono = Arc::new(MCNStore::build_in_memory(&graph, BufferConfig::Fraction(0.02)).unwrap());
    let mut rng = ChaCha8Rng::seed_from_u64(70);
    for regions in REGION_COUNTS {
        let part = partitioned(&graph, regions, 7);
        for &q in &queries {
            let weights: Vec<f64> = (0..d).map(|_| rng.gen_range(0.01..1.0)).collect();
            let k = rng.gen_range(1..=8);
            for algorithm in [Algorithm::Lsa, Algorithm::Cea] {
                assert_eq!(
                    topk_fingerprint(&mono, q, weights.clone(), k, algorithm),
                    topk_fingerprint(&part, q, weights.clone(), k, algorithm),
                    "{regions} regions, {} top-{k} diverged at {q:?}",
                    algorithm.name()
                );
            }
        }
    }
}

#[test]
fn four_worker_engine_over_partitioned_store_matches_monolithic_serial() {
    let (graph, queries, d) = fixture(11);
    let mono = Arc::new(MCNStore::build_in_memory(&graph, BufferConfig::Fraction(0.02)).unwrap());
    let mut rng = ChaCha8Rng::seed_from_u64(1100);
    let requests: Vec<QueryRequest> = queries
        .iter()
        .cycle()
        .take(15)
        .enumerate()
        .map(|(i, &location)| {
            let weights: Vec<f64> = (0..d).map(|_| rng.gen_range(0.01..1.0)).collect();
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
                    k: 5,
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
    let serial = QueryEngine::new(mono, 1).run_batch(&requests);
    let serial_prints: Vec<String> = serial
        .outcomes
        .iter()
        .map(|o| o.output.fingerprint())
        .collect();

    for regions in REGION_COUNTS {
        let map = partition_graph(&graph, &PartitionSpec { regions, seed: 11 });
        let tags: Vec<RegionId> = requests
            .iter()
            .map(|r| map.region_of_location(&graph, r.location()))
            .collect();
        let part = Arc::new(
            PartitionedStore::build_in_memory(&graph, map, BufferConfig::Fraction(0.02)).unwrap(),
        );
        let engine = QueryEngine::new(part.clone(), 4);
        let mut logical_reads = Vec::new();
        for affine in [false, true] {
            part.reset_region_traffic();
            let result = engine.run_batch_with_regions(&requests, &tags, affine);
            let prints: Vec<String> = result
                .outcomes
                .iter()
                .map(|o| o.output.fingerprint())
                .collect();
            assert_eq!(
                serial_prints, prints,
                "{regions} regions (affine = {affine}) diverged from monolithic serial"
            );
            logical_reads.push(result.stats.io.logical_reads);
            if regions == 1 {
                let traffic = part.region_traffic();
                assert!(traffic.home_reads > 0, "no read was classified");
                assert_eq!(traffic.cross_fraction(), 0.0, "1 region has no cross reads");
            }
        }
        // Scheduling only changes where pages are cached, never what is read.
        assert_eq!(
            logical_reads[0], logical_reads[1],
            "{regions} regions: affine scheduling changed the logical reads"
        );
    }
}
