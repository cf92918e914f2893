//! Exact I/O counts of LSA, CEA and top-k processing behind a small buffer.
//!
//! `mcn-bench`'s figure pin (`pinned_logical_reads_at_every_figure_point`)
//! holds the mean logical reads of every figure point exactly, but logical
//! reads only. The paper's cost driver is the *physical* read, and physical
//! reads are also the only witness of the pool's eviction order: two pools
//! that evict differently answer the same page-request sequence with
//! different hit/miss verdicts. This test pins all four counters, as
//! constants, for a fixed query stream on a seeded graph with the paper's
//! 1 % buffer — at 1, 2 and 4 pinned shards, since striping changes which
//! pages compete for a frame. Any change to the buffer pool, the B+-tree
//! page walk or the access layer that moves one read fails here. The counts
//! belong to the pool, not to what is under it: the same constants hold with
//! the store in RAM and in a file.

use mcn::gen::{generate_workload, WorkloadSpec};
use mcn::storage::{BufferConfig, DiskManager, FileDisk, InMemoryDisk, IoStats, MCNStore};
use mcn::{skyline_query, topk_query, Algorithm, WeightedSum};
use std::sync::Arc;

/// `(logical_reads, buffer_hits, buffer_misses, physical_reads)`.
type Counts = (u64, u64, u64, u64);

fn counts(io: &IoStats) -> Counts {
    (
        io.logical_reads,
        io.buffer_hits,
        io.buffer_misses,
        io.physical_reads,
    )
}

/// Per pinned shard count: the summed per-query counts of the LSA skylines,
/// the CEA skylines, the LSA top-k and the CEA top-k queries, in that order.
const EXPECTED: [(usize, [Counts; 4]); 3] = [
    (
        1,
        [
            (27_010, 11_152, 15_858, 15_858),
            (10_276, 4_241, 6_035, 6_035),
            (37_209, 15_135, 22_074, 22_074),
            (14_233, 5_890, 8_343, 8_343),
        ],
    ),
    (
        2,
        [
            (27_010, 11_188, 15_822, 15_822),
            (10_276, 4_218, 6_058, 6_058),
            (37_209, 15_140, 22_069, 22_069),
            (14_233, 5_818, 8_415, 8_415),
        ],
    ),
    (
        4,
        [
            (27_010, 6_914, 20_096, 20_096),
            (10_276, 2_648, 7_628, 7_628),
            (37_209, 9_503, 27_706, 27_706),
            (14_233, 3_806, 10_427, 10_427),
        ],
    ),
];

#[test]
fn io_counts_are_pinned_for_every_algorithm_and_shard_count() {
    assert_pinned_counts(&|_| Arc::new(InMemoryDisk::new()));
}

#[test]
fn io_counts_do_not_depend_on_the_disk() {
    let dir = std::env::temp_dir().join(format!("mcn-io-counts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    assert_pinned_counts(&|shards| {
        Arc::new(FileDisk::create(dir.join(format!("{shards}-shards.db"))).unwrap())
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the query stream over a store built on `disk_for(shards)` for each
/// pinned shard count and compares every counter with [`EXPECTED`].
fn assert_pinned_counts(disk_for: &dyn Fn(usize) -> Arc<dyn DiskManager>) {
    let spec = WorkloadSpec {
        nodes: 12_000,
        facilities: 2_500,
        queries: 6,
        ..WorkloadSpec::tiny(1_701)
    };
    let workload = generate_workload(&spec);
    let weights = WeightedSum::new(vec![0.5, 0.3, 0.2]);

    let mut observed = Vec::new();
    for (shards, _) in EXPECTED {
        let store = Arc::new(
            MCNStore::build_on_with_shards(
                &workload.graph,
                disk_for(shards),
                BufferConfig::Fraction(0.01),
                shards,
            )
            .unwrap(),
        );
        assert_eq!(store.buffer().shard_count(), shards);
        assert!(
            store.buffer().capacity() >= 4,
            "the 1 % buffer is too small"
        );
        let start = store.io_stats();

        // One stream, interleaved: every query starts from the buffer state
        // the previous one left behind, whatever its kind.
        let mut sums = [IoStats::default(); 4];
        for &location in &workload.queries {
            for (slot, algorithm) in [Algorithm::Lsa, Algorithm::Cea].into_iter().enumerate() {
                let skyline = skyline_query(&store, location, algorithm);
                sums[slot].accumulate(&skyline.stats.io);
                let topk = topk_query(&store, location, weights.clone(), 4, algorithm);
                sums[2 + slot].accumulate(&topk.stats.io);
            }
        }

        // The per-query deltas add up to what the pool counted overall.
        let mut total = IoStats::default();
        sums.iter().for_each(|s| total.accumulate(s));
        assert_eq!(counts(&total), counts(&(store.io_stats() - start)));
        observed.push((shards, sums.map(|s| counts(&s))));
    }
    assert_eq!(observed, EXPECTED, "observed counts: {observed:#?}");
}
