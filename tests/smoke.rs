//! Workspace smoke test: drives the `mcn` facade end-to-end on a tiny
//! hand-built network so that manifest or re-export regressions (a crate
//! dropped from the workspace, a `pub use` removed from the prelude) fail
//! fast with an obvious signal, independent of the heavier generated-workload
//! integration tests.

use mcn::core::prelude::*;
use mcn::graph::{CostVec, GraphBuilder, NetworkLocation};
use mcn::storage::{BufferConfig, MCNStore};
use std::sync::Arc;

/// A diamond network q → {a, b} → t with two cost types (time, toll) and one
/// facility per edge out of q. Facility on q→a is cheap in time, facility on
/// q→b is cheap in toll, and a third facility behind t is dominated.
fn diamond() -> (mcn::graph::MultiCostGraph, NetworkLocation) {
    let mut b = GraphBuilder::new(2);
    let q = b.add_node(0.0, 0.0);
    let a = b.add_node(1.0, 1.0);
    let bb = b.add_node(1.0, -1.0);
    let t = b.add_node(2.0, 0.0);
    let qa = b.add_edge(q, a, CostVec::from_slice(&[1.0, 8.0])).unwrap();
    let qb = b.add_edge(q, bb, CostVec::from_slice(&[8.0, 1.0])).unwrap();
    let at = b.add_edge(a, t, CostVec::from_slice(&[4.0, 4.0])).unwrap();
    b.add_edge(bb, t, CostVec::from_slice(&[4.0, 4.0])).unwrap();
    b.add_facility(qa, 0.5).unwrap(); // ~ (0.5, 4.0) from q
    b.add_facility(qb, 0.5).unwrap(); // ~ (4.0, 0.5) from q
    b.add_facility(at, 0.5).unwrap(); // dominated by the first facility
    let graph = b.build().unwrap();
    (graph, NetworkLocation::Node(q))
}

#[test]
fn facade_smoke_skyline_and_topk() {
    let (graph, q) = diamond();
    let store = Arc::new(MCNStore::build_in_memory(&graph, BufferConfig::Pages(8)).unwrap());

    for algo in [Algorithm::Lsa, Algorithm::Cea] {
        let skyline = skyline_query(&store, q, algo);
        assert_eq!(
            skyline.facilities.len(),
            2,
            "{}: expected the two extreme facilities, got {:?}",
            algo.name(),
            skyline.facilities
        );
        // Mutual non-domination via the facade's graph re-export.
        for x in &skyline.facilities {
            for y in &skyline.facilities {
                if x.facility != y.facility {
                    assert!(!mcn::graph::dominates(&x.costs, &y.costs));
                }
            }
        }
    }

    let top = topk_query(&store, q, WeightedSum::uniform(2), 2, Algorithm::Cea);
    assert_eq!(top.entries.len(), 2);
    assert!(top.entries[0].score <= top.entries[1].score);
    // Uniform weights score both extreme facilities at (0.5 + 4.0) / 2.
    assert!((top.entries[0].score - 2.25).abs() < 1e-9);
}

#[test]
fn facade_reexports_cover_every_crate() {
    // One cheap touch per re-exported crate, so `cargo test` fails to compile
    // if a workspace member silently falls out of the facade.
    let (graph, q) = diamond();

    // graph + skyline
    let items = vec![
        (
            mcn::graph::FacilityId::from(0usize),
            CostVec::from_slice(&[1.0, 2.0]),
        ),
        (
            mcn::graph::FacilityId::from(1usize),
            CostVec::from_slice(&[2.0, 1.0]),
        ),
    ];
    assert_eq!(mcn::skyline::naive_skyline(&items).len(), 2);

    // storage + expansion
    let store = Arc::new(MCNStore::build_in_memory(&graph, BufferConfig::Pages(8)).unwrap());
    assert!(store.num_facilities() > 0);
    let oracle_costs = mcn::expansion::oracle::facility_cost_vectors(&graph, q);
    assert_eq!(oracle_costs.len(), graph.num_facilities());

    // mcpp
    let q_node = match q {
        NetworkLocation::Node(n) => n,
        _ => unreachable!(),
    };
    let paths = mcn::mcpp::pareto_paths(&graph, q_node, q_node);
    assert!(!paths.is_empty());

    // gen
    let spec = mcn::gen::WorkloadSpec {
        nodes: 64,
        facilities: 16,
        cost_types: 2,
        distribution: mcn::gen::CostDistribution::Independent,
        clusters: 2,
        queries: 1,
        seed: 7,
    };
    let workload = mcn::gen::generate_workload(&spec);
    assert!(workload.graph.num_nodes() > 0);

    // io: write then reload the diamond through the CSV round-trip.
    let mut buf: Vec<u8> = Vec::new();
    mcn::io::write_csv(&graph, &mut buf).unwrap();
    let reloaded = mcn::io::load_csv(std::io::BufReader::new(buf.as_slice())).unwrap();
    assert_eq!(reloaded.num_nodes(), graph.num_nodes());
    assert_eq!(reloaded.num_edges(), graph.num_edges());
}
