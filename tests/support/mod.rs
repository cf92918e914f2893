//! Helpers shared by the pinned-count suites in `tests/prep.rs` and
//! `tests/index.rs`: the seeded gate network, seeded endpoint pairs and
//! per-user preference vectors, the tie-heavy network, the route
//! comparison and the FNV-1a fold over result fingerprints.

use mcn::alpha::{Preference, ScalarResult};
use mcn::engine::QueryOutput;
use mcn::gen::{
    generate_preferences, generate_workload, CostDistribution, PreferenceSpec, WorkloadSpec,
};
use mcn::graph::{CostVec, GraphBuilder, MultiCostGraph, NodeId};
use mcn::mcpp::ParetoLabel;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The seeded network of the pinned path-tier counts on the gate inputs:
/// `nodes` nodes with `d` anti-correlated costs (facility and query counts
/// do not touch the path tiers, so they stay small).
pub(crate) fn gate_graph(nodes: usize, d: usize, seed: u64) -> MultiCostGraph {
    generate_workload(&WorkloadSpec {
        nodes,
        facilities: (nodes / 5).max(10),
        cost_types: d,
        distribution: CostDistribution::AntiCorrelated,
        clusters: 4,
        queries: 4,
        seed,
    })
    .graph
}

/// `pairs` seeded source/target pairs with distinct endpoints.
pub(crate) fn seeded_pairs(
    graph: &MultiCostGraph,
    pairs: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = graph.num_nodes();
    (0..pairs)
        .map(|_| {
            let s = NodeId::from(rng.gen_range(0..n));
            let mut t = NodeId::from(rng.gen_range(0..n));
            if t == s {
                t = NodeId::from((t.raw() as usize + 1) % n);
            }
            (s, t)
        })
        .collect()
}

/// `users` seeded per-user preference vectors α of arity `d`
/// (`generate_preferences`, Dirichlet-style on the simplex).
pub(crate) fn user_pool(d: usize, users: usize, seed: u64) -> Vec<Preference> {
    generate_preferences(&PreferenceSpec::uniform(users, d, seed))
        .iter()
        .map(|w| Preference::new(w).expect("generated weights are valid"))
        .collect()
}

/// Asserts that two α searches of `s → t` found the same route: the same
/// reachability verdict and, when reachable, the same edges and the same
/// bits of the scalarized total. `what` names the search under test.
pub(crate) fn assert_same_route(
    what: &str,
    (s, t): (NodeId, NodeId),
    expected: &ScalarResult,
    got: &ScalarResult,
) {
    match (&expected.path, &got.path) {
        (Some(e), Some(g)) => {
            assert_eq!(e.edges, g.edges, "{what} changed the {s} → {t} route");
            assert_eq!(
                e.total.to_bits(),
                g.total.to_bits(),
                "{what} changed the {s} → {t} scalarized total"
            );
        }
        (None, None) => {}
        other => panic!("{what} changed the {s} → {t} reachability: {other:?}"),
    }
}

/// The engine fingerprint of a path skyline: cost bits and edge lists.
pub(crate) fn paths_fingerprint(paths: Vec<ParetoLabel>) -> String {
    QueryOutput::Paths(paths).fingerprint()
}

/// Folds `bytes` into the 64-bit FNV-1a `hash`.
pub(crate) fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a 64 offset basis, where every pinned fold starts.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A network full of exact ties: integer costs 0–2 per component, every
/// seventh edge all-zero (zero-cost cycles), every fifth a parallel copy of
/// the one before, a quarter one-way.
pub(crate) fn tie_network(d: usize, nodes: usize, seed: u64) -> MultiCostGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(d);
    let ids: Vec<NodeId> = (0..nodes).map(|i| b.add_node(i as f64, 0.0)).collect();
    let (mut a, mut c) = (0, 1);
    for i in 0..3 * nodes {
        if i % 5 != 4 {
            a = rng.gen_range(0..nodes);
            c = rng.gen_range(0..nodes);
            if a == c {
                c = (c + 1) % nodes;
            }
        }
        let costs: Vec<f64> = (0..d)
            .map(|_| {
                if i % 7 == 6 {
                    0.0
                } else {
                    rng.gen_range(0..3u32) as f64
                }
            })
            .collect();
        let costs = CostVec::from_slice(&costs);
        if rng.gen_range(0..4u32) == 0 {
            b.add_directed_edge(ids[a], ids[c], costs).unwrap();
        } else {
            b.add_edge(ids[a], ids[c], costs).unwrap();
        }
    }
    b.build().unwrap()
}
