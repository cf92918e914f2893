//! Integration tests for persistence paths: file-backed stores through
//! `mcn-storage::FileDisk`.

use mcn::core::prelude::*;
use mcn::gen::{generate_workload, CostDistribution, WorkloadSpec};
use mcn::graph::FacilityId;
use mcn::storage::{BufferConfig, DiskManager, FileDisk, MCNStore};
use std::sync::Arc;

fn small_workload(seed: u64) -> mcn::gen::Workload {
    generate_workload(&WorkloadSpec {
        nodes: 900,
        facilities: 250,
        cost_types: 3,
        distribution: CostDistribution::AntiCorrelated,
        clusters: 4,
        queries: 2,
        seed,
    })
}

#[test]
fn file_backed_store_answers_like_the_in_memory_one() {
    let w = small_workload(9);
    let dir = std::env::temp_dir().join(format!("mcn-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("network.mcn");

    // Build on a file-backed disk, drop the handle, re-open from the file.
    let header = {
        let disk: Arc<dyn DiskManager> = Arc::new(FileDisk::create(&path).unwrap());
        let store = MCNStore::build_on(&w.graph, disk, BufferConfig::Fraction(0.01)).unwrap();
        assert_eq!(store.num_facilities(), w.graph.num_facilities());
        *store.meta()
    };
    let disk: Arc<dyn DiskManager> = Arc::new(FileDisk::open(&path).unwrap());
    let reopened = Arc::new(MCNStore::open(disk, BufferConfig::Fraction(0.01)).unwrap());

    // The page-0 header read back after the restart is the one the build
    // wrote.
    assert_eq!(&header, reopened.meta());
    let memory =
        Arc::new(MCNStore::build_in_memory(&w.graph, BufferConfig::Fraction(0.01)).unwrap());

    for &q in &w.queries {
        let f = WeightedSum::uniform(3);
        let a = topk_query(&reopened, q, f.clone(), 5, Algorithm::Lsa);
        let b = topk_query(&memory, q, f, 5, Algorithm::Lsa);
        assert_eq!(a.entries.len(), b.entries.len());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.facility, y.facility);
            assert!((x.score - y.score).abs() < 1e-9);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn buffer_size_changes_io_but_not_answers() {
    let w = small_workload(13);
    let store =
        Arc::new(MCNStore::build_in_memory(&w.graph, BufferConfig::Fraction(0.02)).unwrap());
    let q = w.queries[0];

    let with_buffer = skyline_query(&store, q, Algorithm::Lsa);
    store.set_buffer(BufferConfig::Fraction(0.0));
    let without_buffer = skyline_query(&store, q, Algorithm::Lsa);

    let mut a: Vec<FacilityId> = with_buffer.facilities.iter().map(|f| f.facility).collect();
    let mut b: Vec<FacilityId> = without_buffer
        .facilities
        .iter()
        .map(|f| f.facility)
        .collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert!(
        without_buffer.stats.io.buffer_misses >= with_buffer.stats.io.buffer_misses,
        "removing the buffer cannot reduce physical reads"
    );
}
