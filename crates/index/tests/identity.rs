//! Byte-identity of index-served answers against the direct algorithms on
//! seeded synthetic networks.

use mcn_alpha::{scalarized_path, Preference};
use mcn_gen::{generate_workload, CostDistribution, WorkloadSpec};
use mcn_graph::{MultiCostGraph, NodeId};
use mcn_index::{IndexConfig, RouteIndex};
use mcn_mcpp::pareto_paths_prepped;
use mcn_prep::PrepTable;

fn workload(nodes: usize, d: usize, seed: u64) -> MultiCostGraph {
    generate_workload(&WorkloadSpec {
        nodes,
        facilities: 10,
        cost_types: d,
        distribution: CostDistribution::AntiCorrelated,
        clusters: 3,
        queries: 0,
        seed,
    })
    .graph
}

/// Deterministic endpoint pairs spread over the node range.
fn pairs(n: usize, count: usize) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .map(|i| {
            let s = (i * 7919 + 13) % n;
            let t = (i * 104_729 + n / 2) % n;
            (NodeId::from(s), NodeId::from(t))
        })
        .collect()
}

fn prefs(d: usize) -> Vec<Preference> {
    let mut out = vec![Preference::uniform(d)];
    for axis in 0..d {
        let mut w = vec![0.1; d];
        w[axis] = 1.0;
        out.push(Preference::new(&w).unwrap());
    }
    out
}

fn assert_identity(graph: &MultiCostGraph, index: &RouteIndex, label: &str) {
    assert!(index.exact(), "{label}: build must stay exact");
    let n = graph.num_nodes();
    for (s, t) in pairs(n, 6) {
        for pref in prefs(graph.num_cost_types()) {
            let direct = scalarized_path(graph, s, t, &pref);
            let via = index.alpha_path(graph, s, t, &pref);
            assert_eq!(
                via.path,
                direct.path,
                "{label}: alpha mismatch at ({s}, {t}, α = {:?})",
                pref.weights()
            );
        }
        let prep = PrepTable::build(graph, t);
        let direct = pareto_paths_prepped(graph, s, t, &prep);
        let via = index.skyline_paths(graph, s, t);
        assert_eq!(
            via.paths, direct.paths,
            "{label}: skyline mismatch at ({s}, {t})"
        );
    }
}

#[test]
fn sequential_build_matches_direct_algorithms_at_d2_and_d3() {
    for (d, seed) in [(2, 11u64), (2, 42), (3, 7)] {
        let graph = workload(90, d, seed);
        let index = RouteIndex::build(&graph, &IndexConfig::default());
        assert_identity(&graph, &index, &format!("d = {d}, seed {seed}"));
    }
}
