//! Label-correcting multi-criteria Pareto path search.

use crate::stats::PathStats;
use mcn_graph::{dominates, dominates_weak, CostVec, EdgeId, Front2, MultiCostGraph, NodeId};
use mcn_prep::PrepTable;
use std::collections::VecDeque;

/// One Pareto-optimal label: a non-dominated way of reaching a node.
#[derive(Clone, Debug, PartialEq)]
pub struct ParetoLabel {
    /// The node the label belongs to.
    pub node: NodeId,
    /// Accumulated cost vector from the source.
    pub costs: CostVec,
    /// The edges of the path from the source, in order.
    pub edges: Vec<EdgeId>,
}

/// The result of one Pareto path search: the target's path skyline plus the
/// label accounting that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct PathSkylineResult {
    /// The Pareto-optimal labels at the target, sorted lexicographically by
    /// cost vector.
    pub paths: Vec<ParetoLabel>,
    /// Deterministic label counters of the run.
    pub stats: PathStats,
}

/// Computes the Pareto-optimal (skyline) paths from `source` to `target` with
/// a label-correcting algorithm (Section II-D of the paper).
///
/// Every node keeps a set of mutually non-dominated labels; labels are
/// propagated over outgoing edges and inserted only if not (weakly) dominated
/// by an existing label at the head node, evicting labels they dominate. In
/// addition, a candidate that is already weakly dominated by the **current
/// target skyline** is discarded wherever it surfaces: edge costs are
/// non-negative, so every completion of such a path is weakly dominated at
/// the target too (target-dominance early termination — same output, far
/// fewer labels; see [`pareto_paths_exhaustive`] for the unpruned baseline).
/// The returned labels at `target` are sorted lexicographically by cost
/// vector.
///
/// **Exact ties caveat** (applies to every pruned variant in this module):
/// the returned *cost-vector* skyline always equals the exhaustive
/// baseline's. When two **distinct** paths share an exactly equal cost
/// vector, however, only one representative survives, and which one depends
/// on label arrival order — which pruning can change. On such graphs
/// (integer or otherwise discrete costs) the representative's *edge
/// sequence* may differ from the exhaustive run's. Workloads with
/// continuous float costs — everything seeded in this repository — have no
/// exact ties, which is what the byte-identical fingerprint assertions in
/// `tests/prep.rs` and the label gate rely on.
///
/// Complexity is output-sensitive and exponential in the worst case (the
/// Pareto set itself can be exponential); it is intended for moderate-size
/// networks and for validating the per-cost shortest paths of `mcn-expansion`.
pub fn pareto_paths(graph: &MultiCostGraph, source: NodeId, target: NodeId) -> Vec<ParetoLabel> {
    pareto_paths_with_stats(graph, source, target).paths
}

/// [`pareto_paths`] (target-dominance early termination on, no
/// precomputation) with its [`PathStats`].
pub fn pareto_paths_with_stats(
    graph: &MultiCostGraph,
    source: NodeId,
    target: NodeId,
) -> PathSkylineResult {
    search(graph, source, target, None, true)
}

/// The exhaustive label-correcting baseline: **no** pruning beyond
/// node-level dominance, so labels for every node are kept until
/// termination. Like every variant it extends each stored label once (a
/// node settled again extends only the labels it gained since), which
/// leaves its output and stored labels unchanged but lowers
/// `labels_created` — its counts are the baseline as measured since then.
/// Identical output to [`pareto_paths`]; exists as the measurement baseline
/// the label gate (and the early-termination fix) quantify label
/// reductions against.
pub fn pareto_paths_exhaustive(
    graph: &MultiCostGraph,
    source: NodeId,
    target: NodeId,
) -> PathSkylineResult {
    search(graph, source, target, None, false)
}

/// ParetoPrep-pruned path-skyline search: [`pareto_paths`] plus the
/// lower-bound machinery of a precomputed [`PrepTable`] for the same
/// `target`.
///
/// Three additional cuts apply to every candidate label with accumulated
/// cost `a` at node `v`:
///
/// * **Reachability** — if the target is unreachable from `v` (infinite
///   bound), the label can never complete and is dropped.
/// * **Bound dominance** — the *bound vector* `a + L(v)` (the best cost any
///   completion can achieve, since `L` is admissible) is checked against
///   the current target skyline; weak dominance kills the whole subtree,
///   not just the finished path.
/// * **Global upper-bound cuts** — before the search starts, the table
///   reconstructs up to `d` concrete `source → target` paths
///   ([`PrepTable::upper_bound_cuts`]); a bound vector *strictly* dominated
///   by one of those real path costs is cut even while the target skyline
///   is still empty. (Strict dominance keeps the cut paths' own prefixes —
///   and every eventual skyline member — alive, which is what makes the
///   output byte-identical to the exhaustive baseline — up to
///   representatives of exactly tied cost vectors; see the ties caveat on
///   [`pareto_paths`].)
///
/// # Panics
/// Panics if `prep` was built for a different target or a different graph
/// shape (node count / cost types).
pub fn pareto_paths_prepped(
    graph: &MultiCostGraph,
    source: NodeId,
    target: NodeId,
    prep: &PrepTable,
) -> PathSkylineResult {
    assert_eq!(
        prep.target(),
        target,
        "prep table was built for target {}, query targets {target}",
        prep.target()
    );
    assert_eq!(
        prep.num_nodes(),
        graph.num_nodes(),
        "prep table covers {} nodes, graph has {}",
        prep.num_nodes(),
        graph.num_nodes()
    );
    assert_eq!(
        prep.cost_types(),
        graph.num_cost_types(),
        "prep table has d = {}, graph has d = {}",
        prep.cost_types(),
        graph.num_cost_types()
    );
    search(graph, source, target, Some(prep), true)
}

/// Relative deflation applied to prep lower bounds before pruning.
///
/// `PrepTable` distances are accumulated **backwards** (target → node)
/// while search labels accumulate **forwards**, and float addition is not
/// associative: the same physical path can sum to values an ulp apart, so
/// the mathematically admissible bound can overshoot a label's real
/// completion cost by a few ulps — enough for a path's own upper-bound cut
/// to "dominate" its prefix and silently drop a skyline member. Shrinking
/// the lower bound by 1e-9 relative keeps it admissible for any summation
/// order (accumulated float error is ~1e-13 relative even across millions
/// of hops) while giving up a vanishing sliver of pruning power.
const BOUND_DEFLATION: f64 = 1.0 - 1e-9;

/// One stored label in a node's bag: its cost vector, its id in the search's
/// arena, and whether a settle of the node has extended it yet. Bags hold
/// these inline, so a dominance scan walks one contiguous slice.
#[derive(Clone, Copy)]
struct BagEntry {
    costs: CostVec,
    id: u32,
    extended: bool,
}

/// How an admitted label was reached: the label it extends and the edge.
#[derive(Clone, Copy)]
struct Link {
    parent: u32,
    edge: EdgeId,
}

/// The id of the source's empty-path label, where every parent chain ends.
const ROOT: u32 = u32::MAX;

/// The shared label-correcting search. `prep` enables lower-bound pruning
/// and upper-bound cuts; `target_prune` enables target-dominance early
/// termination (subsumed by bound pruning when `prep` is given, since
/// `L ≥ 0`). With both off this is the exhaustive baseline.
///
/// * **Arena:** an admitted label is one `(parent, edge)` link; only the
///   target's survivors are walked back into edge lists, after the loop.
/// * **Extend once:** a settle extends only its node's labels that no
///   earlier settle extended.
/// * **Same output:** a re-extension repeats an earlier candidate that was
///   either discarded (reachability and cuts are static, the target skyline
///   only gains dominators) or admitted (the head's bag still weakly
///   dominates it — eviction takes a strict dominator), so paths, queue
///   order and every counter but `labels_created` and the discarded share
///   are unchanged.
fn search(
    graph: &MultiCostGraph,
    source: NodeId,
    target: NodeId,
    prep: Option<&PrepTable>,
    target_prune: bool,
) -> PathSkylineResult {
    let d = graph.num_cost_types();
    let mut stats = PathStats::default();
    let mut bags: Vec<Vec<BagEntry>> = vec![Vec::new(); graph.num_nodes()];
    let mut arena: Vec<Link> = Vec::new();
    // The settled node's not-yet-extended labels, reused across settles: the
    // inner loop mutates bags at head nodes, so it cannot iterate a borrow.
    let mut snapshot: Vec<(CostVec, u32)> = Vec::new();
    stats.labels_created += 1;
    stats.labels_inserted += 1;
    bags[source.index()].push(BagEntry {
        costs: CostVec::zeros(d),
        id: ROOT,
        extended: false,
    });

    // Bicriterion fast path: a sorted-sweep mirror of the target skyline
    // answers the hot weak-dominance check in O(log k) instead of a scan.
    // The mirror's booleans are identical to the pairwise test over the
    // same points, so every label counter (and the labels gate) is
    // unchanged by construction.
    let mut target_front = (d == 2 && (target_prune || prep.is_some())).then(Front2::new);
    if source == target {
        if let Some(front) = target_front.as_mut() {
            front.insert(0.0, 0.0);
        }
    }

    // Real source → target path costs reconstructed from the prep scan: cut
    // lines available before the first label reaches the target.
    let cuts: Vec<CostVec> = match prep {
        Some(prep) => prep.upper_bound_cuts(graph, source),
        None => Vec::new(),
    };

    let mut queue: VecDeque<NodeId> = VecDeque::new();
    let mut queued = vec![false; graph.num_nodes()];
    queue.push_back(source);
    queued[source.index()] = true;

    while let Some(node) = queue.pop_front() {
        queued[node.index()] = false;
        stats.nodes_settled += 1;
        snapshot.clear();
        for entry in bags[node.index()].iter_mut().filter(|e| !e.extended) {
            entry.extended = true;
            snapshot.push((entry.costs, entry.id));
        }
        for neighbor in graph.neighbors(node) {
            for &(label_costs, parent) in &snapshot {
                let mut costs = label_costs;
                costs += neighbor.costs;
                stats.labels_created += 1;

                // ParetoPrep cuts: reachability, then the bound vector
                // against the target skyline and the upper-bound cuts.
                let mut bound = costs;
                if let Some(prep) = prep {
                    if !prep.reaches(neighbor.node) {
                        stats.labels_pruned += 1;
                        continue;
                    }
                    let lower = prep.bound(neighbor.node);
                    for i in 0..d {
                        bound[i] += lower[i] * BOUND_DEFLATION;
                    }
                }
                if target_prune || prep.is_some() {
                    let dominated_at_target = match &target_front {
                        Some(front) => front.dominates_weak(bound[0], bound[1]),
                        None => bags[target.index()]
                            .iter()
                            .any(|l| dominates_weak(&l.costs, &bound)),
                    };
                    if dominated_at_target {
                        stats.labels_pruned += 1;
                        continue;
                    }
                }
                if cuts.iter().any(|cut| dominates(cut, &bound)) {
                    stats.labels_pruned += 1;
                    continue;
                }

                // Classic node-level dominance at the head node.
                let existing = &mut bags[neighbor.node.index()];
                if existing.iter().any(|l| dominates_weak(&l.costs, &costs)) {
                    stats.labels_dominated += 1;
                    continue;
                }
                let before = existing.len();
                existing.retain(|l| !dominates(&costs, &l.costs));
                stats.labels_evicted += (before - existing.len()) as u64;
                let id = u32::try_from(arena.len())
                    .ok()
                    .filter(|&id| id != ROOT)
                    .expect("label arena holds fewer than u32::MAX labels");
                arena.push(Link {
                    parent,
                    edge: neighbor.edge,
                });
                existing.push(BagEntry {
                    costs,
                    id,
                    extended: false,
                });
                stats.labels_inserted += 1;
                if neighbor.node == target {
                    if let Some(front) = target_front.as_mut() {
                        // Keeps the mirror exact: the pairwise checks above
                        // admitted the label, so the mirror's (identical)
                        // insert protocol admits it too, evicting the same
                        // strictly dominated points `retain` just dropped.
                        front.insert(costs[0], costs[1]);
                    }
                }
                if !queued[neighbor.node.index()] {
                    queued[neighbor.node.index()] = true;
                    queue.push_back(neighbor.node);
                }
            }
        }
    }

    let mut paths: Vec<ParetoLabel> = bags[target.index()]
        .iter()
        .map(|entry| ParetoLabel {
            node: target,
            costs: entry.costs,
            edges: path_edges(&arena, entry.id),
        })
        .collect();
    paths.sort_by(|a, b| a.costs.lex_cmp(&b.costs));
    PathSkylineResult { paths, stats }
}

/// The edges of label `id`'s path, in order, in a `Vec` of exactly their
/// number: one walk up the parent chain counts them, a second fills them.
fn path_edges(arena: &[Link], id: u32) -> Vec<EdgeId> {
    let chain = |mut id: u32| {
        std::iter::from_fn(move || {
            (id != ROOT).then(|| {
                let link = arena[id as usize];
                id = link.parent;
                link.edge
            })
        })
    };
    let mut edges = Vec::with_capacity(chain(id).count());
    edges.extend(chain(id));
    edges.reverse();
    edges
}

/// The component-wise minimum over the Pareto path set, i.e. the vector of
/// single-criterion shortest-path distances from `source` to `target`.
/// Returns `None` if the target is unreachable.
pub fn componentwise_minimum(paths: &[ParetoLabel]) -> Option<CostVec> {
    let first = paths.first()?;
    Some(
        paths
            .iter()
            .skip(1)
            .fold(first.costs, |acc, l| acc.element_min(&l.costs)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_graph::GraphBuilder;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Diamond network with a cheap-slow and an expensive-fast side.
    fn diamond() -> (MultiCostGraph, NodeId, NodeId) {
        let mut b = GraphBuilder::new(2);
        let s = b.add_node(0.0, 0.0);
        let up = b.add_node(1.0, 1.0);
        let down = b.add_node(1.0, -1.0);
        let t = b.add_node(2.0, 0.0);
        b.add_edge(s, up, CostVec::from_slice(&[1.0, 10.0]))
            .unwrap();
        b.add_edge(up, t, CostVec::from_slice(&[1.0, 10.0]))
            .unwrap();
        b.add_edge(s, down, CostVec::from_slice(&[10.0, 1.0]))
            .unwrap();
        b.add_edge(down, t, CostVec::from_slice(&[10.0, 1.0]))
            .unwrap();
        (b.build().unwrap(), s, t)
    }

    /// A seeded random network of `n` nodes: a connected line plus random
    /// extra edges, `d` cost types drawn from `1.0..5.0`.
    fn seeded_network(n: usize, d: usize, seed: u64) -> (MultiCostGraph, Vec<NodeId>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(d);
        let nodes: Vec<NodeId> = (0..n).map(|i| b.add_node(i as f64, 0.0)).collect();
        for w in nodes.windows(2) {
            let c: Vec<f64> = (0..d).map(|_| rng.gen_range(1.0..5.0)).collect();
            b.add_edge(w[0], w[1], CostVec::from_slice(&c)).unwrap();
        }
        for _ in 0..n {
            let a = nodes[rng.gen_range(0..n)];
            let c = nodes[rng.gen_range(0..n)];
            if a == c {
                continue;
            }
            let cv: Vec<f64> = (0..d).map(|_| rng.gen_range(1.0..5.0)).collect();
            b.add_edge(a, c, CostVec::from_slice(&cv)).unwrap();
        }
        (b.build().unwrap(), nodes)
    }

    #[test]
    fn diamond_has_two_pareto_paths() {
        let (g, s, t) = diamond();
        let paths = pareto_paths(&g, s, t);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].costs.as_slice(), &[2.0, 20.0]);
        assert_eq!(paths[1].costs.as_slice(), &[20.0, 2.0]);
        assert_eq!(paths[0].edges.len(), 2);
        assert_eq!(
            componentwise_minimum(&paths).unwrap().as_slice(),
            &[2.0, 2.0]
        );
    }

    #[test]
    fn source_equals_target_gives_trivial_label() {
        let (g, s, _) = diamond();
        let paths = pareto_paths(&g, s, s);
        assert_eq!(paths.len(), 1);
        assert!(paths[0].edges.is_empty());
        assert_eq!(paths[0].costs.as_slice(), &[0.0, 0.0]);
        // The exhaustive baseline agrees even in this degenerate case.
        assert_eq!(pareto_paths_exhaustive(&g, s, s).paths, paths);
    }

    #[test]
    fn unreachable_target_has_no_paths() {
        let mut b = GraphBuilder::new(1);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        b.add_node(5.0, 5.0); // isolated
        b.add_edge(a, c, CostVec::from_slice(&[1.0])).unwrap();
        let g = b.build().unwrap();
        let paths = pareto_paths(&g, a, NodeId::new(2));
        assert!(paths.is_empty());
        assert!(componentwise_minimum(&paths).is_none());
    }

    #[test]
    fn labels_are_mutually_non_dominated() {
        let (g, nodes) = seeded_network(30, 3, 17);
        let paths = pareto_paths(&g, nodes[0], nodes[29]);
        assert!(!paths.is_empty());
        for a in &paths {
            assert!(a.costs.len() == 3);
            for b2 in &paths {
                if a.edges != b2.edges {
                    assert!(!dominates(&a.costs, &b2.costs) || !dominates(&b2.costs, &a.costs));
                }
            }
        }
    }

    #[test]
    fn result_paths_walk_from_source_to_target_at_exact_length() {
        // Edge lists are rebuilt from the arena after the search: in order,
        // summing to the label's costs bit for bit, and at exact capacity
        // (growing them by `push` cost ~8 MiB of peak RSS on `path_explore`).
        let (g, nodes) = seeded_network(40, 3, 11);
        let (s, t) = (nodes[0], nodes[39]);
        let prep = PrepTable::build(&g, t);
        for run in [
            pareto_paths_exhaustive(&g, s, t),
            pareto_paths_prepped(&g, s, t, &prep),
        ] {
            assert!(run.paths.len() > 1);
            for p in &run.paths {
                assert_eq!(p.edges.capacity(), p.edges.len());
                let (mut at, mut costs) = (s, CostVec::zeros(3));
                for &e in &p.edges {
                    let edge = g.edge(e);
                    assert!(edge.traversable_from(at));
                    at = edge.opposite(at);
                    costs += edge.costs;
                }
                assert_eq!((p.node, at), (t, t));
                assert_eq!(costs, p.costs);
            }
        }
    }

    #[test]
    fn componentwise_minimum_matches_single_cost_dijkstra() {
        let (g, s, t) = diamond();
        let paths = pareto_paths(&g, s, t);
        let mins = componentwise_minimum(&paths).unwrap();
        // Single-criterion shortest paths: cost0 via the upper branch = 2,
        // cost1 via the lower branch = 2.
        assert_eq!(mins.as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn early_termination_creates_fewer_labels_and_identical_output() {
        // The satellite fix: target-dominance early termination must shrink
        // the label count on seeded networks without changing a single path.
        for seed in [3u64, 17, 99] {
            let (g, nodes) = seeded_network(60, 3, seed);
            let (s, t) = (nodes[0], nodes[59]);
            let exhaustive = pareto_paths_exhaustive(&g, s, t);
            let pruned = pareto_paths_with_stats(&g, s, t);
            assert_eq!(exhaustive.paths, pruned.paths, "seed {seed} diverged");
            assert!(
                pruned.stats.labels_created < exhaustive.stats.labels_created,
                "seed {seed}: early termination created {} labels, \
                 exhaustive {}",
                pruned.stats.labels_created,
                exhaustive.stats.labels_created
            );
            assert!(pruned.stats.labels_pruned > 0);
            assert_eq!(exhaustive.stats.labels_pruned, 0);
        }
    }

    #[test]
    fn prepped_search_matches_exhaustive_with_fewer_labels() {
        for seed in [5u64, 23] {
            let (g, nodes) = seeded_network(60, 3, seed);
            let (s, t) = (nodes[3], nodes[50]);
            let exhaustive = pareto_paths_exhaustive(&g, s, t);
            let prep = PrepTable::build(&g, t);
            let prepped = pareto_paths_prepped(&g, s, t, &prep);
            assert_eq!(exhaustive.paths, prepped.paths, "seed {seed} diverged");
            assert!(prepped.stats.labels_created < exhaustive.stats.labels_created);
            assert!(prepped.stats.prune_fraction() > 0.0);
        }
    }

    #[test]
    fn prepped_search_handles_unreachable_targets() {
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        let isolated = b.add_node(5.0, 5.0);
        b.add_edge(a, c, CostVec::from_slice(&[1.0, 2.0])).unwrap();
        let g = b.build().unwrap();
        let prep = PrepTable::build(&g, isolated);
        let result = pareto_paths_prepped(&g, a, isolated, &prep);
        assert!(result.paths.is_empty());
        // Every candidate out of the source dies on the reachability cut.
        assert_eq!(result.stats.labels_pruned + 1, result.stats.labels_created);
    }

    #[test]
    #[should_panic]
    fn prepped_search_rejects_mismatched_tables() {
        let (g, s, t) = diamond();
        let wrong = PrepTable::build(&g, s);
        let _ = pareto_paths_prepped(&g, s, t, &wrong);
    }

    #[test]
    fn bicriterion_fast_path_matches_exhaustive_output() {
        // d == 2 engages the Front2 mirror of the target skyline; the
        // output (and, because the mirror's booleans equal the pairwise
        // test, every counter) must match the exhaustive baseline exactly.
        for seed in [7u64, 21, 63] {
            let (g, nodes) = seeded_network(60, 2, seed);
            let (s, t) = (nodes[1], nodes[55]);
            let exhaustive = pareto_paths_exhaustive(&g, s, t);
            let pruned = pareto_paths_with_stats(&g, s, t);
            assert_eq!(exhaustive.paths, pruned.paths, "seed {seed} diverged");
            assert!(pruned.stats.labels_created <= exhaustive.stats.labels_created);
            let prep = PrepTable::build(&g, t);
            let prepped = pareto_paths_prepped(&g, s, t, &prep);
            assert_eq!(
                exhaustive.paths, prepped.paths,
                "seed {seed} prepped diverged"
            );
        }
    }

    #[test]
    fn stats_are_internally_consistent() {
        let (g, nodes) = seeded_network(40, 2, 7);
        let run = pareto_paths_with_stats(&g, nodes[0], nodes[39]);
        let s = run.stats;
        assert_eq!(
            s.labels_created,
            s.labels_inserted + s.labels_pruned + s.labels_dominated
        );
        assert!(s.nodes_settled > 0);
        assert!(s.labels_inserted >= run.paths.len() as u64);
    }
}
