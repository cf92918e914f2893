//! ParetoPrep equivalence: the pruned path-skyline pipeline must produce
//! **byte-identical** results to the exhaustive baseline —
//! per dimension, under the concurrent engine, and across cold/warm prep
//! caches — while the prep lower bounds stay admissible against the true
//! per-cost shortest distances.
//!
//! Fingerprints ([`QueryOutput::fingerprint`]) encode the raw IEEE-754 bits
//! of every path cost plus the full edge sequences, so equality here is
//! bit-exact result equality, not approximate agreement.

use mcn::alpha::{
    landmark_bound, scalarized_path, scalarized_path_astar, scalarized_path_landmarks, table_bound,
    Preference, HEURISTIC_DEFLATION,
};
use mcn::engine::{PathContext, QueryEngine, QueryOutput, QueryRequest};
use mcn::gen::{generate_workload, WorkloadSpec};
use mcn::graph::{CostVec, GraphBuilder, MultiCostGraph, NodeId};
use mcn::mcpp::{
    componentwise_minimum, pareto_paths_exhaustive, pareto_paths_prepped, pareto_paths_with_stats,
    PathSkylineResult,
};
use mcn::prep::PrepTable;
use mcn::storage::{BufferConfig, MCNStore};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

mod support;
use support::{fnv1a, paths_fingerprint, seeded_pairs, tie_network, FNV_OFFSET};

/// A seeded workload graph small enough for the exhaustive baseline to
/// stay fast in debug builds (anti-correlated Pareto sets grow steeply
/// with d and network diameter).
fn path_workload(d: usize, seed: u64) -> MultiCostGraph {
    let nodes = if d >= 4 { 120 } else { 190 };
    generate_workload(&WorkloadSpec {
        nodes,
        facilities: 30,
        cost_types: d,
        queries: 3,
        ..WorkloadSpec::tiny(seed)
    })
    .graph
}

#[test]
fn pruned_path_skylines_match_exhaustive_at_every_dimension() {
    for d in [2usize, 3, 4] {
        let graph = path_workload(d, 40 + d as u64);
        for (s, t) in seeded_pairs(&graph, 3, 400 + d as u64) {
            let exhaustive = pareto_paths_exhaustive(&graph, s, t);
            let early = pareto_paths_with_stats(&graph, s, t);
            let prep = PrepTable::build(&graph, t);
            let prepped = pareto_paths_prepped(&graph, s, t, &prep);
            let reference = paths_fingerprint(exhaustive.paths);
            assert_eq!(
                reference,
                paths_fingerprint(early.paths),
                "d = {d}: early termination diverged at {s} → {t}"
            );
            assert_eq!(
                reference,
                paths_fingerprint(prepped.paths),
                "d = {d}: prep pruning diverged at {s} → {t}"
            );
            // Both optimisations strictly reduce work on these workloads.
            assert!(early.stats.labels_created < exhaustive.stats.labels_created);
            assert!(prepped.stats.labels_created <= early.stats.labels_created);
        }
    }
}

/// Relative tolerance of the identities below where the two sides sum in
/// different orders: the α search adds `α·c_e` edge by edge while the
/// skyline scalarizes each path's summed costs, and the prep scan sums
/// backward from the target while labels sum forward. Measured on the 24
/// pairs below: at most 5.1·10⁻¹⁶ over 96 α optima (45 bit-equal) and
/// 4.1·10⁻¹⁶ over 72 per-cost minima (40 bit-equal).
const SUMMATION_TOLERANCE: f64 = 2e-15;

/// Identities between the path skyline and searches that share no code
/// with its kernel (the exhaustive baseline does share it): α Dijkstra and
/// the prep scan. With every weight of α positive, (i) the α-optimal
/// route's cost vector is bit-equal to a skyline member's, since an
/// α-optimal route is Pareto-optimal; (ii) the α optimum is the minimum of
/// α·c over the skyline; (iii) each cost type's minimum over the skyline
/// is `L_i(source)`. (ii) and (iii) hold within [`SUMMATION_TOLERANCE`].
#[test]
fn path_skylines_agree_with_alpha_dijkstra_and_the_prep_scan() {
    let mut rng = ChaCha8Rng::seed_from_u64(5_150);
    let relative = |a: f64, b: f64| (a - b).abs() / b.abs().max(f64::MIN_POSITIVE);
    for d in [2usize, 3, 4] {
        let graph = path_workload(d, 50 + d as u64);
        for (s, t) in seeded_pairs(&graph, 8, 500 + d as u64) {
            let prep = PrepTable::build(&graph, t);
            let skyline = pareto_paths_prepped(&graph, s, t, &prep).paths;
            assert!(!skyline.is_empty(), "d = {d}: {t} unreachable from {s}");
            for (i, &bound) in prep.bound(s).iter().enumerate() {
                let min = skyline
                    .iter()
                    .map(|p| p.costs[i])
                    .fold(f64::INFINITY, f64::min);
                let error = relative(bound, min);
                assert!(
                    error <= SUMMATION_TOLERANCE,
                    "d = {d}: {s} → {t}: cost {i} minimum {min} but L = {bound} ({error:e})"
                );
            }
            for _ in 0..4 {
                let weights: Vec<f64> = (0..d).map(|_| rng.gen_range(0.05..1.0)).collect();
                let alpha = Preference::new(&weights).expect("positive weights are valid");
                let best = scalarized_path(&graph, s, t, &alpha)
                    .path
                    .expect("the skyline shows the target is reachable");
                let bits = |c: &CostVec| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert!(
                    skyline.iter().any(|p| bits(&p.costs) == bits(&best.costs)),
                    "d = {d}: {s} → {t}: the α-optimal {:?} under {weights:?} is no skyline member",
                    best.costs
                );
                let min = skyline
                    .iter()
                    .map(|p| alpha.cost_of(p.costs.as_slice()))
                    .fold(f64::INFINITY, f64::min);
                let error = relative(best.total, min);
                assert!(
                    error <= SUMMATION_TOLERANCE,
                    "d = {d}: {s} → {t}: α optimum {} but skyline minimum {min} ({error:e})",
                    best.total
                );
            }
        }
    }
}

/// The three path-search variants, in the order the pinned tables list them.
const VARIANTS: [&str; 3] = ["exhaustive", "early", "prepped"];

/// One variant's outputs and counters summed over a case set's pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pinned {
    /// FNV-1a 64 over every pair's fingerprint (cost bits and edges).
    fingerprint: u64,
    inserted: u64,
    evicted: u64,
    settled: u64,
    created: u64,
}

/// The cost vectors of a path skyline as raw bits, in its (lexicographic)
/// order: what every variant must share with the exhaustive run, whichever
/// representative of an exactly tied cost vector each keeps.
fn cost_bits(run: &PathSkylineResult) -> Vec<Vec<u64>> {
    run.paths
        .iter()
        .map(|p| p.costs.iter().map(|c| c.to_bits()).collect())
        .collect()
}

/// Folds `variant`'s run of `s → t` into `acc`, checking the run's
/// accounting identity and its cost-vector bits against the exhaustive
/// run's of the same pair.
fn accumulate(
    acc: &mut Pinned,
    variant: &str,
    (s, t): (NodeId, NodeId),
    run: PathSkylineResult,
    exhaustive: &PathSkylineResult,
) {
    let st = run.stats;
    assert_eq!(
        st.labels_created,
        st.labels_inserted + st.labels_pruned + st.labels_dominated,
        "{variant} {s} → {t}: created ≠ inserted + pruned + dominated"
    );
    assert_eq!(
        cost_bits(&run),
        cost_bits(exhaustive),
        "{variant} {s} → {t}: the cost vectors differ from the exhaustive run's"
    );
    acc.fingerprint = fnv1a(acc.fingerprint, paths_fingerprint(run.paths).as_bytes());
    acc.fingerprint = fnv1a(acc.fingerprint, b";");
    acc.inserted += st.labels_inserted;
    acc.evicted += st.labels_evicted;
    acc.settled += st.nodes_settled;
    acc.created += st.labels_created;
}

/// Checks measured rows against the pinned `(fingerprint, inserted,
/// evicted, settled, created)` rows, and each prepped row's `created`
/// against `fifo_prepped` (d = 2, 3, 4): what the node-FIFO search created
/// on the same inputs, which the label-setting order must stay under. On any
/// mismatch the panic prints the measured table, ready to paste.
fn check_pinned(
    name: &str,
    measured: &[(String, Pinned)],
    pinned: &[(&str, u64, u64, u64, u64, u64)],
    fifo_prepped: [u64; 3],
) {
    let matches = measured.len() == pinned.len()
        && measured.iter().zip(pinned).all(|((case, m), p)| {
            case == p.0
                && (m.fingerprint, m.inserted, m.evicted, m.settled, m.created)
                    == (p.1, p.2, p.3, p.4, p.5)
        });
    if !matches {
        let rows: String = measured
            .iter()
            .map(|(case, m)| {
                format!(
                    "    (\"{case}\", {:#018x}, {}, {}, {}, {}),\n",
                    m.fingerprint, m.inserted, m.evicted, m.settled, m.created
                )
            })
            .collect();
        panic!("{name}: pinned counts moved; measured\n{rows}");
    }
    let prepped = measured
        .iter()
        .filter(|(case, _)| case.ends_with("prepped"));
    for ((case, m), fifo) in prepped.zip(fifo_prepped) {
        assert!(
            m.created <= fifo,
            "{name}: {case} created {} labels, the node-FIFO search {fifo}",
            m.created
        );
    }
}

/// The label gate's inputs (`crates/bench` `gate::LABELS`):
/// 150 nodes, d = 2/3/4, three seeded pairs, seed 2010.
fn label_gate_case(d: usize) -> (MultiCostGraph, Vec<(NodeId, NodeId)>) {
    let seed = 2010;
    let graph = mcn_bench::gate_graph(150, d, seed);
    let pairs = seeded_pairs(&graph, 3, seed ^ 0x9E37_79B9);
    (graph, pairs)
}

/// A case of a pinned set: its dimension, its graph and its pairs.
type Case = (usize, MultiCostGraph, Vec<(NodeId, NodeId)>);

/// One row per dimension and variant, summed over that dimension's cases.
fn measure_pinned(cases: &[Case]) -> Vec<(String, Pinned)> {
    let mut rows = Vec::new();
    for d in [2usize, 3, 4] {
        let mut accs = [Pinned {
            fingerprint: FNV_OFFSET,
            inserted: 0,
            evicted: 0,
            settled: 0,
            created: 0,
        }; 3];
        for (_, graph, pairs) in cases.iter().filter(|case| case.0 == d) {
            for &(s, t) in pairs {
                let exhaustive = pareto_paths_exhaustive(graph, s, t);
                for (acc, variant) in accs.iter_mut().zip(VARIANTS) {
                    let run = match variant {
                        "exhaustive" => exhaustive.clone(),
                        "early" => pareto_paths_with_stats(graph, s, t),
                        _ => pareto_paths_prepped(graph, s, t, &PrepTable::build(graph, t)),
                    };
                    accumulate(acc, variant, (s, t), run, &exhaustive);
                }
            }
        }
        for (variant, acc) in VARIANTS.into_iter().zip(accs) {
            rows.push((format!("d{d} {variant}"), acc));
        }
    }
    rows
}

/// The label gate's inputs, all three variants under the label-setting
/// order: the fingerprints (cost bits and edges) are the node-FIFO
/// search's, `settled` and `created` the sum-ordered best-first search's,
/// and no prepped row creates more labels than the node-FIFO search did.
/// `evicted` counts the labels dropped when they pop.
#[test]
fn pinned_counts_on_the_label_gate_inputs() {
    const PINNED: &[(&str, u64, u64, u64, u64, u64)] = &[
        ("d2 exhaustive", 0xf6f3559bee979a28, 6433, 1690, 4743, 15798),
        ("d2 early", 0xf6f3559bee979a28, 2918, 852, 2019, 7054),
        ("d2 prepped", 0xf6f3559bee979a28, 686, 166, 473, 1725),
        (
            "d3 exhaustive",
            0x73aacf10cb934c5d,
            22840,
            4447,
            18393,
            59526,
        ),
        ("d3 early", 0x73aacf10cb934c5d, 6565, 1678, 4740, 16748),
        ("d3 prepped", 0x73aacf10cb934c5d, 1657, 365, 1145, 4325),
        (
            "d4 exhaustive",
            0x4d1885d9ec8d8e9d,
            39470,
            4885,
            34585,
            109861,
        ),
        ("d4 early", 0x4d1885d9ec8d8e9d, 8865, 1831, 6785, 24035),
        ("d4 prepped", 0x4d1885d9ec8d8e9d, 1998, 306, 1443, 5429),
    ];
    let cases: Vec<_> = [2usize, 3, 4]
        .into_iter()
        .map(|d| {
            let (graph, pairs) = label_gate_case(d);
            (d, graph, pairs)
        })
        .collect();
    check_pinned(
        "label gate",
        &measure_pinned(&cases),
        PINNED,
        [4391, 8176, 10334],
    );
}

/// The tie-heavy set, all three variants: with exact ties, zero-cost
/// cycles, parallel and one-way edges every variant's cost vectors equal
/// the exhaustive run's (checked per pair), while the surviving
/// representatives (their edge sequences) may differ — the ties caveat on
/// `pareto_paths` — so each variant's fingerprint is pinned on its own.
/// Equal keys pop target labels first; popping them by id alone made the
/// d3 early and prepped rows create 2 521 and 2 154 labels.
#[test]
fn pinned_counts_on_tie_heavy_inputs() {
    const PINNED: &[(&str, u64, u64, u64, u64, u64)] = &[
        ("d2 exhaustive", 0x6687a7bcf7da967c, 1253, 676, 577, 3073),
        ("d2 early", 0x6687a7bcf7da967c, 737, 464, 222, 1301),
        ("d2 prepped", 0x6687a7bcf7da967c, 491, 225, 215, 1283),
        ("d3 exhaustive", 0xbbc4952c3a8cb6fc, 2140, 952, 1188, 6404),
        ("d3 early", 0xbbc4952c3a8cb6fc, 1077, 567, 422, 2434),
        ("d3 prepped", 0xbbc4952c3a8cb6fc, 675, 228, 359, 2105),
        ("d4 exhaustive", 0x4cbd11dc1153e431, 2794, 1029, 1765, 8838),
        ("d4 early", 0x4cbd11dc1153e431, 1602, 715, 736, 4090),
        ("d4 prepped", 0x4cbd11dc1153e431, 1223, 379, 693, 3950),
    ];
    let mut cases = Vec::new();
    for d in [2usize, 3, 4] {
        for seed in 0..8u64 {
            let graph = tie_network(d, 9 + seed as usize, 7_000 + 10 * d as u64 + seed);
            let pairs = seeded_pairs(&graph, 4, 70_000 + seed);
            cases.push((d, graph, pairs));
        }
    }
    check_pinned(
        "tie set",
        &measure_pinned(&cases),
        PINNED,
        [2061, 3136, 5196],
    );
}

/// The engine fixture: a store + path context over one seeded graph, and a
/// batch mixing path-skyline requests with classic store-bound queries.
fn engine_fixture() -> (Arc<MCNStore>, Arc<PathContext>, Vec<QueryRequest>) {
    let graph = Arc::new(path_workload(3, 77));
    let store = Arc::new(MCNStore::build_in_memory(&graph, BufferConfig::Pages(32)).unwrap());
    let ctx = Arc::new(PathContext::new(graph.clone(), 8));
    let mut rng = ChaCha8Rng::seed_from_u64(7700);
    let n = graph.num_nodes();
    let targets: Vec<NodeId> = (0..4).map(|_| NodeId::from(rng.gen_range(0..n))).collect();
    let requests: Vec<QueryRequest> = (0..16)
        .map(|i| {
            if i % 4 == 3 {
                // Interleave a store-bound skyline query: path and facility
                // requests must coexist in one batch.
                QueryRequest::Skyline {
                    location: mcn::graph::NetworkLocation::Node(NodeId::from(rng.gen_range(0..n))),
                    algorithm: mcn::core::Algorithm::Cea,
                }
            } else {
                QueryRequest::PathSkyline {
                    source: NodeId::from(rng.gen_range(0..n)),
                    target: targets[i % targets.len()],
                }
            }
        })
        .collect();
    (store, ctx, requests)
}

fn fingerprints(result: &mcn::engine::BatchResult) -> Vec<String> {
    result
        .outcomes
        .iter()
        .map(|o| o.output.fingerprint())
        .collect()
}

#[test]
fn engine_path_batches_are_byte_identical_serial_vs_four_workers() {
    let (store, ctx, requests) = engine_fixture();
    let serial = QueryEngine::new(store.clone(), 1)
        .with_path_context(ctx.clone())
        .run_batch(&requests);
    ctx.cache().clear();
    let concurrent = QueryEngine::new(store, 4)
        .with_path_context(ctx)
        .run_batch(&requests);
    assert_eq!(fingerprints(&serial), fingerprints(&concurrent));
    assert!(serial
        .outcomes
        .iter()
        .any(|o| matches!(o.output, QueryOutput::Paths(_))));
    assert!(serial
        .outcomes
        .iter()
        .any(|o| matches!(o.output, QueryOutput::Skyline(_))));
}

#[test]
fn warm_cache_batches_are_fingerprint_equal_to_cold() {
    let (store, ctx, requests) = engine_fixture();
    let engine = QueryEngine::new(store, 2).with_path_context(ctx.clone());
    ctx.cache().clear();
    let cold = engine.run_batch(&requests);
    let cold_misses = ctx.cache().stats().misses;
    let warm = engine.run_batch(&requests);
    assert_eq!(fingerprints(&cold), fingerprints(&warm));
    // The warm batch rebuilt nothing.
    assert_eq!(ctx.cache().stats().misses, cold_misses);
    assert!(ctx.cache().stats().hits > 0);
    // Repeat-run determinism: a third run still agrees.
    assert_eq!(
        fingerprints(&warm),
        fingerprints(&engine.run_batch(&requests))
    );
}

/// Builds a small connected network for the admissibility property.
fn property_network(d: usize, nodes: usize, extra: &[(u16, u16)], seed: u64) -> MultiCostGraph {
    let mut lcg = seed | 1;
    let mut next_cost = move || {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((lcg >> 33) % 1000) as f64 / 100.0 + 0.1
    };
    let mut b = GraphBuilder::new(d);
    let ids: Vec<NodeId> = (0..nodes).map(|i| b.add_node(i as f64, 0.0)).collect();
    for w in ids.windows(2) {
        let costs: Vec<f64> = (0..d).map(|_| next_cost()).collect();
        b.add_edge(w[0], w[1], CostVec::from_slice(&costs)).unwrap();
    }
    for &(a, c) in extra {
        let a = ids[a as usize % nodes];
        let c = ids[c as usize % nodes];
        if a == c {
            continue;
        }
        let costs: Vec<f64> = (0..d).map(|_| next_cost()).collect();
        b.add_edge(a, c, CostVec::from_slice(&costs)).unwrap();
    }
    b.build().unwrap()
}

/// A network built to break the table-free ≡ A* identity if anything can:
/// no connecting backbone (targets may be unreachable), one-way edges,
/// parallel edges, and all-zero cost vectors. Non-zero costs carry 53 random
/// bits, and the zero-cost edges form a matching (no node touches two), so
/// no two distinct simple paths tie on cost — the one case where the two
/// searches may legitimately return different representatives (README,
/// "Preference serving tier").
fn adversarial_network(
    d: usize,
    nodes: usize,
    edges: &[(u16, u16, u8)],
    seed: u64,
) -> MultiCostGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(d);
    let ids: Vec<NodeId> = (0..nodes).map(|i| b.add_node(i as f64, 0.0)).collect();
    let mut has_zero_edge = vec![false; nodes];
    for &(a, c, kind) in edges {
        let (a, c) = (a as usize % nodes, c as usize % nodes);
        if a == c {
            continue;
        }
        let zero = kind & 2 != 0 && !has_zero_edge[a] && !has_zero_edge[c];
        let costs: Vec<f64> = if zero {
            has_zero_edge[a] = true;
            has_zero_edge[c] = true;
            vec![0.0; d]
        } else {
            (0..d).map(|_| rng.gen_range(0.1..10.0)).collect()
        };
        let costs = CostVec::from_slice(&costs);
        if kind & 1 != 0 {
            b.add_directed_edge(ids[a], ids[c], costs).unwrap();
        } else {
            b.add_edge(ids[a], ids[c], costs).unwrap();
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The invariant the prep cache's admission rule leans on: whether an
    /// α request is answered table-free (`scalarized_path`), with its own
    /// table (`scalarized_path_astar`) or with the tables of up to three
    /// other nodes as landmarks (`scalarized_path_landmarks`) must not show
    /// in the answer — same edges, same `total` bits, same cost vector, same
    /// reachability verdict — from every source, including `source ==
    /// target`. The landmarks include ones the target cannot reach and, on
    /// networks with one-way edges, ones reached one way only. Landmark A*
    /// never settles more than Dijkstra, and its heuristic never exceeds the
    /// α-distance to the target at any node.
    #[test]
    fn table_free_and_astar_answers_are_identical_on_adversarial_networks(
        d in 2usize..=4,
        nodes in 2usize..=14,
        edges in proptest::collection::vec((0u16..64, 0u16..64, 0u8..4), 0..28),
        target_sel in 0u16..64,
        landmark_sel in proptest::collection::vec(0u16..64, 0..=3),
        raw_alpha in proptest::collection::vec(0.01f64..1.0, 4),
        seed in any::<u64>(),
    ) {
        let graph = adversarial_network(d, nodes, &edges, seed);
        let target = NodeId::from(target_sel as usize % nodes);
        let alpha = Preference::new(&raw_alpha[..d]).expect("positive weights are valid");
        let prep = PrepTable::build(&graph, target);
        let tables: Vec<PrepTable> = landmark_sel
            .iter()
            .map(|&l| NodeId::from(l as usize % nodes))
            .filter(|&l| l != target)
            .map(|l| PrepTable::build(&graph, l))
            .collect();
        let landmarks: Vec<&PrepTable> = tables.iter().collect();
        for source in (0..nodes).map(NodeId::from) {
            let plain = scalarized_path(&graph, source, target, &alpha);
            let fast = scalarized_path_astar(&graph, source, target, &alpha, &prep).path;
            let rented = scalarized_path_landmarks(&graph, source, target, &alpha, &landmarks);
            prop_assert_eq!(
                plain.path.is_some(),
                prep.reaches(source),
                "reachability verdicts differ at {} → {}", source, target
            );
            prop_assert!(
                rented.stats.settled <= plain.stats.settled,
                "landmarks made A* settle more nodes ({} vs {}) at {source} → {target}",
                rented.stats.settled,
                plain.stats.settled
            );
            // h(source): the largest landmark bound, None once one proves
            // the target out of reach.
            let h = landmarks.iter().try_fold(0.0f64, |best, table| {
                landmark_bound(&graph, target, &alpha, table, source).map(|b| best.max(b))
            });
            for other in [&fast, &rented.path] {
                match (&plain.path, other) {
                    (Some(p), Some(a)) => {
                        prop_assert_eq!(&p.edges, &a.edges, "route differs at {} → {}", source, target);
                        prop_assert_eq!(p.total.to_bits(), a.total.to_bits());
                        prop_assert_eq!(&p.costs, &a.costs);
                        if source == target {
                            prop_assert!(p.edges.is_empty() && p.total == 0.0);
                        }
                    }
                    (None, None) => {}
                    other => prop_assert!(
                        false,
                        "table-free and A* disagree at {source} → {target}: {other:?}"
                    ),
                }
            }
            match (&plain.path, h) {
                (Some(p), Some(h)) => prop_assert!(
                    h <= p.total,
                    "landmark bound {h} at {source} exceeds the α-distance {} to {target}",
                    p.total
                ),
                (Some(_), None) => prop_assert!(
                    false,
                    "a landmark pruned {source}, which reaches {target}"
                ),
                (None, _) => {}
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Admissibility, cross-checked against ground truth: the prep bound of
    /// every node equals the component-wise minimum over the exhaustive
    /// Pareto path set — i.e. the vector of true per-cost shortest distances
    /// — up to float summation order (1e-9 relative, the same margin the
    /// pruned search deflates by). The summed-cost column never exceeds the
    /// smallest `Σ_i c_i` over that set (a min-sum route is Pareto-optimal)
    /// and is that minimum to `f32` precision.
    #[test]
    fn prep_bounds_match_componentwise_minima(
        d in 2usize..=4,
        nodes in 3usize..=16,
        extra in proptest::collection::vec((0u16..64, 0u16..64), 0..8),
        target_sel in 0u16..64,
        seed in any::<u64>(),
    ) {
        let graph = property_network(d, nodes, &extra, seed);
        let target = NodeId::from(target_sel as usize % nodes);
        let prep = PrepTable::build(&graph, target);
        for source in (0..nodes).map(NodeId::from) {
            let paths = pareto_paths_exhaustive(&graph, source, target).paths;
            prop_assert!(!paths.is_empty(), "backbone keeps the network connected");
            let minima = componentwise_minimum(&paths).expect("non-empty set");
            let bound = prep.bound(source);
            for i in 0..d {
                let tolerance = minima[i].abs() * 1e-9 + 1e-12;
                // Admissible: never above the true shortest distance …
                prop_assert!(
                    bound[i] <= minima[i] + tolerance,
                    "bound {} exceeds true distance {} (cost {i}, {source} → {target})",
                    bound[i],
                    minima[i]
                );
                // … and tight: it *is* that distance.
                prop_assert!(
                    bound[i] >= minima[i] - tolerance,
                    "bound {} below true distance {} (cost {i}, {source} → {target})",
                    bound[i],
                    minima[i]
                );
            }
            let min_sum = paths
                .iter()
                .map(|p| p.costs.total())
                .fold(f64::INFINITY, f64::min);
            let sum = prep.sum_bound(source);
            prop_assert!(
                sum <= min_sum * (1.0 + 1e-9),
                "S({source}) = {sum} exceeds the smallest summed cost {min_sum} to {target}"
            );
            prop_assert!(
                sum >= min_sum * (1.0 - 2e-7),
                "S({source}) = {sum} far below the smallest summed cost {min_sum} to {target}"
            );
        }
    }

    /// The scalarized serving tier inherits the same guarantees: prep-backed
    /// A* returns the **byte-identical** route and total as heuristic-free
    /// Dijkstra from every source (while never settling more nodes), and its
    /// heuristic ([`table_bound`], the split bound over L and the summed
    /// column) is at every node at least the per-cost bound α·L(v), deflated,
    /// and never above the α-distance Dijkstra computes to the target — both
    /// with no tolerance.
    #[test]
    fn scalarized_astar_matches_dijkstra_and_alpha_bounds_are_admissible(
        d in 2usize..=4,
        nodes in 3usize..=16,
        extra in proptest::collection::vec((0u16..64, 0u16..64), 0..8),
        target_sel in 0u16..64,
        raw_alpha in proptest::collection::vec(0.01f64..1.0, 4),
        seed in any::<u64>(),
    ) {
        let graph = property_network(d, nodes, &extra, seed);
        let target = NodeId::from(target_sel as usize % nodes);
        let alpha = Preference::new(&raw_alpha[..d]).expect("positive weights are valid");
        let prep = PrepTable::build(&graph, target);
        for source in (0..nodes).map(NodeId::from) {
            let plain = scalarized_path(&graph, source, target, &alpha);
            let fast = scalarized_path_astar(&graph, source, target, &alpha, &prep);
            prop_assert!(
                fast.stats.settled <= plain.stats.settled,
                "the heuristic made A* settle more nodes ({} vs {}) at {source} → {target}",
                fast.stats.settled,
                plain.stats.settled
            );
            match (plain.path, fast.path) {
                (Some(p), Some(a)) => {
                    prop_assert_eq!(
                        &p.edges,
                        &a.edges,
                        "A* route diverged from Dijkstra at {} → {}",
                        source,
                        target
                    );
                    prop_assert_eq!(
                        p.total.to_bits(),
                        a.total.to_bits(),
                        "A* total diverged from Dijkstra at {} → {}",
                        source,
                        target
                    );
                    let h = table_bound(&graph, &alpha, &prep, source)
                        .expect("the table reaches every node Dijkstra does");
                    let per_cost = alpha.cost_of(prep.bound(source)) * HEURISTIC_DEFLATION;
                    prop_assert!(
                        h >= per_cost,
                        "h({source}) = {h} below the per-cost bound {per_cost}"
                    );
                    prop_assert!(
                        h <= p.total,
                        "h({source}) = {h} overestimates the α-distance {} to {target}",
                        p.total
                    );
                }
                (None, None) => {}
                other => prop_assert!(
                    false,
                    "A* and Dijkstra disagree on reachability at {source} → {target}: {other:?}"
                ),
            }
        }
    }
}
