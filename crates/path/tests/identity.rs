//! Byte-identity of index-served answers against the direct algorithms on
//! seeded synthetic networks.

use mcn_gen::{generate_workload, CostDistribution, WorkloadSpec};
use mcn_graph::{EdgeId, GraphBuilder, MultiCostGraph, NodeId, MAX_COST_TYPES};
use mcn_path::alpha::{scalarized_path, Preference, ScalarStats};
use mcn_path::index::{IndexConfig, RouteIndex};
use mcn_path::mcpp::{pareto_paths, pareto_paths_prepped, ParetoLabel};
use mcn_path::prep::PrepTable;

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

/// `graph` rebuilt with one extra isolated node, which nothing reaches.
fn with_isolated_node(graph: &MultiCostGraph) -> (MultiCostGraph, NodeId) {
    let mut b = GraphBuilder::new(graph.num_cost_types());
    for node in graph.nodes() {
        b.add_node(node.x, node.y);
    }
    for e in graph.edges() {
        if e.directed {
            b.add_directed_edge(e.source, e.target, e.costs).unwrap();
        } else {
            b.add_edge(e.source, e.target, e.costs).unwrap();
        }
    }
    let lone = b.add_node(-1.0, -1.0);
    (b.build().unwrap(), lone)
}

/// A path skyline as raw cost bits and edges, for bit-exact comparison.
fn bits(paths: &[ParetoLabel]) -> Vec<(Vec<u64>, Vec<EdgeId>)> {
    paths
        .iter()
        .map(|p| (p.costs.iter().map(f64::to_bits).collect(), p.edges.clone()))
        .collect()
}

/// A [`ScalarStats`] as `[settled, pushed, relaxed, pruned]`.
fn counters(s: ScalarStats) -> [u64; 4] {
    [s.settled, s.pushed, s.relaxed, s.pruned]
}

#[test]
fn every_width_matches_both_direct_skylines() {
    // The skyline query is compiled once per width 1..=MAX_COST_TYPES;
    // each must give the unpruned and the prepped skyline bit for bit,
    // also when the source is its own target and when the target is an
    // isolated node.
    for d in 1..=MAX_COST_TYPES {
        for nodes in [16, 49] {
            let (graph, lone) = with_isolated_node(&workload(nodes, d, 300 + d as u64));
            let index = RouteIndex::build(&graph, &IndexConfig::default());
            assert!(
                index.exact(),
                "d = {d}, {nodes} nodes: build must stay exact"
            );
            let mut cases = pairs(graph.num_nodes() - 1, 4);
            cases.push((NodeId::new(3), NodeId::new(3)));
            cases.push((NodeId::new(1), lone));
            for (s, t) in cases {
                let via = index.skyline_paths(&graph, s, t);
                let prep = PrepTable::build(&graph, t);
                let prepped = pareto_paths_prepped(&graph, s, t, &prep);
                let label = format!("d = {d}, {nodes} nodes: {s} → {t}");
                assert_eq!(
                    bits(&via.paths),
                    bits(&pareto_paths(&graph, s, t)),
                    "{label}"
                );
                assert_eq!(bits(&via.paths), bits(&prepped.paths), "{label}");
                match (s == t, t == lone) {
                    (true, _) => assert_eq!(bits(&via.paths), vec![(vec![0; d], vec![])]),
                    (_, true) => assert!(via.paths.is_empty(), "{label}"),
                    _ => assert!(!via.paths.is_empty(), "{label}"),
                }
            }
        }
    }
}

#[test]
fn counters_are_pinned_at_every_width() {
    // `[settled, pushed, relaxed, pruned]` of two fixed pairs per width
    // on the 49-node workload graph, exactly as the `CostVec` query
    // before the width-specialised kernel counted them: rows go d = 1..8,
    // two pairs per d.
    const PINNED: [[u64; 4]; 16] = [
        [19, 22, 46, 31],
        [23, 22, 54, 36],
        [42, 47, 242, 211],
        [43, 48, 204, 188],
        [33, 35, 125, 110],
        [54, 69, 224, 185],
        [27, 29, 109, 92],
        [59, 59, 207, 152],
        [87, 93, 515, 465],
        [58, 62, 384, 352],
        [59, 68, 314, 262],
        [90, 98, 441, 456],
        [125, 145, 843, 964],
        [89, 116, 483, 489],
        [107, 120, 1014, 1137],
        [98, 118, 1336, 1301],
    ];
    let mut measured = Vec::new();
    for d in 1..=MAX_COST_TYPES {
        let graph = workload(49, d, 300 + d as u64);
        let index = RouteIndex::build(&graph, &IndexConfig::default());
        for (s, t) in pairs(graph.num_nodes(), 2) {
            measured.push(counters(index.skyline_paths(&graph, s, t).stats));
        }
    }
    assert_eq!(measured, PINNED);
}
