//! Best-first multi-criteria Pareto path search.

use crate::stats::PathStats;
use mcn_graph::dominance::{dominates_strictly, lanes, weakly_dominates};
use mcn_graph::{CostVec, EdgeId, Front2, MultiCostGraph, NodeId, MAX_COST_TYPES};
use mcn_prep::PrepTable;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
/// a best-first label search (the multi-criteria path problem of Section
/// II-D of the paper, solved as multi-objective A* with a zero heuristic).
///
/// Every node keeps a set of mutually non-dominated labels; a label is
/// inserted only if not (weakly) dominated by an existing label at its node,
/// evicting the labels it strictly dominates. Stored labels wait in one
/// priority queue keyed by the sum of their costs (plus the prep lower
/// bounds, in [`pareto_paths_prepped`]); each pop extends its label over
/// the node's outgoing edges once, unless the label was evicted while it
/// waited. In addition, a label that is weakly dominated by the **current
/// target skyline** is discarded wherever it surfaces — as a candidate, or
/// when it is popped: edge costs are non-negative, so every completion of
/// such a path is weakly dominated at the target too (target-dominance
/// early termination — same output, far fewer labels; see
/// [`pareto_paths_exhaustive`] for the unpruned baseline). The returned
/// labels at `target` are sorted lexicographically by cost vector.
///
/// **Exact ties caveat** (applies to every variant in this module): the
/// returned *cost-vector* skyline always equals the exhaustive baseline's.
/// When two **distinct** paths share an exactly equal cost vector, however,
/// only one representative survives, and which one depends on label arrival
/// order — which pruning, and with it the queue's contents, can change. On
/// such graphs (integer or otherwise discrete costs) the representative's
/// *edge sequence* may differ between variants. Workloads with continuous
/// float costs — everything seeded in this repository — have no exact ties,
/// which is what the byte-identical fingerprint assertions in
/// `tests/prep.rs` and the label gate rely on; on the tie-heavy inputs there
/// the tests compare cost-vector bits with the exhaustive run's.
///
/// Complexity is output-sensitive and exponential in the worst case (the
/// Pareto set itself can be exponential); it is intended for moderate-size
/// networks and for validating the per-cost shortest paths of `mcn-expansion`.
///
/// # Panics
/// Panics if `source` or `target` is not a node of `graph` (as does every
/// variant).
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

/// The exhaustive baseline: **no** pruning beyond node-level dominance, so
/// labels for every node are kept until termination. Like every variant it
/// pops labels by the sum of their costs and extends each stored label at
/// most once, skipping the labels evicted while they waited. Identical
/// output to [`pareto_paths`]; exists as the measurement baseline the label
/// gate (and the early-termination fix) quantify label reductions against.
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
/// The bound vector also orders the search: the queue pops the stored label
/// with the smallest `Σ_i (a_i + δ·L_i(v))` first, and re-checks its bound
/// against the target skyline, grown since the label was stored, before
/// extending it.
///
/// # Panics
/// Panics if `prep` was built for a different target or a different graph
/// shape (node count / cost types), or if `source` is not a node of
/// `graph`.
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

/// Relative deflation `δ` of the prep lower bounds: a label with cost `a`
/// at `v` has the bound vector `a + δ·L(v)`, which the pruning tests and
/// the queue key read.
///
/// **Admissibility is all correctness needs**: the bound, as the search
/// rounds it, must never exceed the float cost at which a completion of the
/// label reaches the target. Per cost type, let the label be completed
/// along `k` edges whose exact costs sum to `P`, reaching the target at the
/// forward float sum `F`, and let `u = 2⁻⁵³`. The prep scan sums backward
/// (target → node), and at its fixed point `L(v) ≤ fl(c + L(w))` for every
/// edge `v → w`, so `L(v) ≤ (1 + u)ᵏ·P`; the forward sum gives `F ≥
/// (1 − u)ᵏ·(a + P)`; the bound's own addition rounds up by a factor of at
/// most `1 + u`. So `fl(a + δ·L(v)) ≤ F` whenever `(k + 1)·u·a ≤ (1 − δ −
/// (2k + 2)·u)·P`: on graphs of up to `10⁶` nodes, whenever the rest of the
/// path costs at least `1.5·10⁻⁷·(k + 1)` times the label's cost so far, or
/// nothing at all (`P = 0` gives `L(v) = 0` and `F = a` exactly). Below
/// that the bound can overshoot `F` by at most `k + 1` ulps of `a`, and a
/// pruning decision can then go wrong only against a target label within
/// those ulps of the completion: a near-tie the seeded workloads (edge
/// costs of one order, paths of tens of edges) do not have. Without the
/// deflation (`δ = 1`) one ulp of backward rounding in `L`, on any path,
/// lets the path's own upper-bound cut "dominate" its prefix and silently
/// drop a skyline member.
///
/// **The pop order needs consistency, and only for speed.** The queue key
/// is the sum of the bound vector. `δ·L` is consistent — `δ·L(v) ≤ c +
/// δ·L(w)` along every edge — wherever `L`'s fixed point leaves slack
/// `(1 − δ)·c` above the scan's rounding, i.e. for every edge costing more
/// than about `1.1·10⁻⁷·L(w)`. Then no key falls along an extension (up to
/// the rounding of the key's own sums), every label stored after a pop keys
/// at least the popped label's, and an extended label can be evicted only
/// by one of an equal key — a strict difference lost to rounding. Where a
/// key does fall, a later label may evict an already extended one, whose
/// children then compete in their own bags as in any label-correcting
/// order: the cost-vector skyline is the same, only the work grows.
const BOUND_DEFLATION: f64 = 1.0 - 1e-9;

/// One stored label in a node's bag: its `D` costs and its id in the
/// search's arena. Bags hold these inline (32 B at d = 3), so a dominance
/// scan walks one contiguous slice.
#[derive(Clone, Copy)]
struct BagEntry<const D: usize> {
    costs: [f64; D],
    id: u32,
}

/// An admitted label: its costs and node, how it was reached (the label it
/// extends and the edge), and whether a strict dominator has evicted it
/// from its node's bag since it was queued.
struct Label<const D: usize> {
    costs: [f64; D],
    node: NodeId,
    parent: u32,
    edge: EdgeId,
    evicted: bool,
}

/// The id of the source's empty-path label, the arena's first entry, where
/// every parent chain ends (its own `parent` and `edge` are never read).
const ROOT: u32 = 0;

/// A queued label: its id and its key, the sum of its bound vector. Ordered
/// so the smallest key pops first and equal keys in id (creation) order,
/// which makes the pop order, and every counter, a pure function of the
/// input.
#[derive(Clone, Copy)]
struct Queued {
    key: f64,
    id: u32,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest key.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// One scan of a head node's bag for a candidate: `None` if an entry weakly
/// dominates it, otherwise whether it strictly dominates some entry (which
/// must then be evicted). Same answer as `any` then `retain`, with one scan
/// for an admitted label that evicts nothing.
#[inline(always)]
fn admission<const D: usize>(bag: &[BagEntry<D>], costs: &[f64; D]) -> Option<bool> {
    let mut evicts = false;
    for entry in bag {
        if weakly_dominates(&entry.costs, costs) {
            return None;
        }
        evicts |= dominates_strictly(costs, &entry.costs);
    }
    Some(evicts)
}

/// A mirror of the target's bag for the target-dominance check, answering
/// exactly as the pairwise test over the bag would. At d = 2 a [`Front2`]
/// decides in `O(log k)`; at any other d a copy sorted by cost 0 lets the
/// scan stop at the first member whose cost 0 exceeds the probe's, since no
/// later member can weakly dominate it.
struct TargetFront<const D: usize> {
    /// The mirror at d = 2.
    pair: Front2,
    /// The mirror at d ≠ 2, sorted by cost 0 ascending.
    sorted: Vec<[f64; D]>,
}

impl<const D: usize> TargetFront<D> {
    fn new() -> Self {
        Self {
            pair: Front2::new(),
            sorted: Vec::new(),
        }
    }

    /// True iff some member weakly dominates `p`.
    #[inline(always)]
    fn dominates_weak(&self, p: &[f64; D]) -> bool {
        if D == 2 {
            // `D - 1` is 1 here, spelled so the index is in range at every D.
            self.pair.dominates_weak(p[0], p[D - 1])
        } else {
            self.sorted
                .iter()
                .take_while(|m| m[0] <= p[0])
                .any(|m| weakly_dominates(m, p))
        }
    }

    /// Mirrors an admission to the target's bag: `p` joins and, when
    /// `evicts`, the members it strictly dominates leave.
    fn admit(&mut self, p: &[f64; D], evicts: bool) {
        if D == 2 {
            // Front2's insert protocol evicts the same strictly dominated
            // points the bag's `retain` just dropped.
            self.pair.insert(p[0], p[D - 1]);
        } else {
            if evicts {
                self.sorted.retain(|m| !dominates_strictly(p, m));
            }
            let at = self.sorted.partition_point(|m| m[0] <= p[0]);
            self.sorted.insert(at, *p);
        }
    }
}

/// The shared search: checks the endpoints and hands the graph to
/// [`search_d`] at its width. `prep` enables lower-bound pruning, the
/// upper-bound cuts and the bounds in the queue key; `target_prune` enables
/// target-dominance early termination (subsumed by bound pruning when
/// `prep` is given, since `L ≥ 0`). With both off this is the exhaustive
/// baseline.
///
/// # Panics
/// Panics if `source` or `target` is not a node of `graph`.
fn search(
    graph: &MultiCostGraph,
    source: NodeId,
    target: NodeId,
    prep: Option<&PrepTable>,
    target_prune: bool,
) -> PathSkylineResult {
    let n = graph.num_nodes();
    for (role, node) in [("source", source), ("target", target)] {
        assert!(
            node.index() < n,
            "node out of range: {role} {node} on a graph of {n} nodes"
        );
    }
    // `CostVec` holds 1..=MAX_COST_TYPES costs; the arms cover each width.
    const _: () = assert!(MAX_COST_TYPES == 8);
    match graph.num_cost_types() {
        1 => search_d::<1>(graph, source, target, prep, target_prune),
        2 => search_d::<2>(graph, source, target, prep, target_prune),
        3 => search_d::<3>(graph, source, target, prep, target_prune),
        4 => search_d::<4>(graph, source, target, prep, target_prune),
        5 => search_d::<5>(graph, source, target, prep, target_prune),
        6 => search_d::<6>(graph, source, target, prep, target_prune),
        7 => search_d::<7>(graph, source, target, prep, target_prune),
        8 => search_d::<8>(graph, source, target, prep, target_prune),
        d => unreachable!("a graph has 1..={MAX_COST_TYPES} cost types, not {d}"),
    }
}

/// [`search`] at `D` cost types: bags, labels and the upper-bound cuts hold
/// `[f64; D]`, and only the target's survivors become [`CostVec`]s again.
///
/// * **Arena:** an admitted label is one [`Label`], its id its index; paths
///   stay `(parent, edge)` links until the loop ends, when only the
///   target's survivors are walked back into edge lists.
/// * **Best first:** one binary heap of label ids keyed by the sum of the
///   bound vector (`costs + δ·L(v)` with a table, the costs without), equal
///   keys in id order. A label is queued once, when it is admitted. A
///   popped label is skipped if it was evicted while queued, dropped if the
///   target skyline has grown to weakly dominate its bound vector, and
///   otherwise extended over its node's edges.
/// * **Same output:** admission, target dominance, reachability and the
///   cuts are the rules of any label-correcting order, so the cost-vector
///   skyline is the exhaustive one; [`BOUND_DEFLATION`] states what the
///   pruning and the order need from the bound.
fn search_d<const D: usize>(
    graph: &MultiCostGraph,
    source: NodeId,
    target: NodeId,
    prep: Option<&PrepTable>,
    target_prune: bool,
) -> PathSkylineResult {
    let mut stats = PathStats::default();
    let mut bags: Vec<Vec<BagEntry<D>>> = vec![Vec::new(); graph.num_nodes()];
    // The arena and the queue start at one entry per node, as the bags do:
    // most searches then never regrow them, which on `path_explore` is a
    // tenth of a small query's time.
    let mut labels: Vec<Label<D>> = Vec::with_capacity(graph.num_nodes());
    labels.push(Label {
        costs: [0.0; D],
        node: source,
        parent: ROOT,
        edge: EdgeId::new(0),
        evicted: false,
    });
    stats.labels_created += 1;
    stats.labels_inserted += 1;
    bags[source.index()].push(BagEntry {
        costs: [0.0; D],
        id: ROOT,
    });

    // The target skyline's mirror, kept in step with the target's bag on
    // every admission there (and seeded with the zero label when the
    // source is the target).
    let mut target_front = (target_prune || prep.is_some()).then(TargetFront::<D>::new);
    if source == target {
        if let Some(front) = target_front.as_mut() {
            front.admit(&[0.0; D], false);
        }
    }

    // Real source → target path costs reconstructed from the prep scan: cut
    // lines available before the first label reaches the target.
    let cuts: Vec<[f64; D]> = match prep {
        Some(prep) => prep
            .upper_bound_cuts(graph, source)
            .iter()
            .map(|cut| lanes(cut.as_slice()))
            .collect(),
        None => Vec::new(),
    };

    // The bound vector of costs `costs` at `v`: `costs + δ·L(v)` with a
    // table, the costs themselves without.
    let bound_at = |v: NodeId, costs: &[f64; D]| -> [f64; D] {
        match prep {
            Some(prep) => {
                let lower = lanes::<D>(prep.bound(v));
                std::array::from_fn(|i| costs[i] + lower[i] * BOUND_DEFLATION)
            }
            None => *costs,
        }
    };

    let mut queue = BinaryHeap::with_capacity(graph.num_nodes());
    queue.push(Queued {
        key: bound_at(source, &[0.0; D]).iter().sum(),
        id: ROOT,
    });
    while let Some(Queued { id: parent, .. }) = queue.pop() {
        let label = &labels[parent as usize];
        if label.evicted {
            continue;
        }
        let (node, label_costs) = (label.node, label.costs);
        // The target skyline may have grown since the label was queued.
        if let Some(front) = &target_front {
            if front.dominates_weak(&bound_at(node, &label_costs)) {
                continue;
            }
        }
        stats.nodes_settled += 1;
        for neighbor in graph.neighbors(node) {
            let head = neighbor.node;
            stats.labels_created += 1;
            // ParetoPrep reachability cut.
            if prep.is_some_and(|prep| !prep.reaches(head)) {
                stats.labels_pruned += 1;
                continue;
            }
            let edge_costs: [f64; D] = lanes(neighbor.costs.as_slice());
            let costs: [f64; D] = std::array::from_fn(|i| label_costs[i] + edge_costs[i]);

            // The bound vector against the target skyline and the
            // upper-bound cuts.
            let bound = bound_at(head, &costs);
            if let Some(front) = &target_front {
                if front.dominates_weak(&bound) {
                    stats.labels_pruned += 1;
                    continue;
                }
            }
            if cuts.iter().any(|cut| dominates_strictly(cut, &bound)) {
                stats.labels_pruned += 1;
                continue;
            }

            // Classic node-level dominance at the head node.
            let bag = &mut bags[head.index()];
            let Some(evicts) = admission(bag, &costs) else {
                stats.labels_dominated += 1;
                continue;
            };
            if evicts {
                let before = bag.len();
                bag.retain(|l| {
                    let keep = !dominates_strictly(&costs, &l.costs);
                    if !keep {
                        labels[l.id as usize].evicted = true;
                    }
                    keep
                });
                stats.labels_evicted += (before - bag.len()) as u64;
            }
            let id =
                u32::try_from(labels.len()).expect("label arena holds at most u32::MAX labels");
            labels.push(Label {
                costs,
                node: head,
                parent,
                edge: neighbor.edge,
                evicted: false,
            });
            bag.push(BagEntry { costs, id });
            stats.labels_inserted += 1;
            if head == target {
                if let Some(front) = target_front.as_mut() {
                    front.admit(&costs, evicts);
                }
            }
            // A label at the target would be dropped when popped, the
            // front holding it; only the exhaustive run extends it.
            if head != target || target_front.is_none() {
                queue.push(Queued {
                    key: bound.iter().sum(),
                    id,
                });
            }
        }
    }

    let mut paths: Vec<ParetoLabel> = bags[target.index()]
        .iter()
        .map(|entry| ParetoLabel {
            node: target,
            costs: CostVec::from_slice(&entry.costs),
            edges: path_edges(&labels, entry.id),
        })
        .collect();
    paths.sort_by(|a, b| a.costs.lex_cmp(&b.costs));
    PathSkylineResult { paths, stats }
}

/// The edges of label `id`'s path, in order, in a `Vec` of exactly their
/// number: one walk up the parent chain counts them, a second fills them.
fn path_edges<const D: usize>(labels: &[Label<D>], id: u32) -> Vec<EdgeId> {
    let chain = |mut id: u32| {
        std::iter::from_fn(move || {
            (id != ROOT).then(|| {
                let label = &labels[id as usize];
                id = label.parent;
                label.edge
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
    use mcn_graph::{dominates, GraphBuilder};
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
        let (b, nodes) = seeded_builder(n, d, seed);
        (b.build().unwrap(), nodes)
    }

    /// [`seeded_network`]'s builder, before `build`.
    fn seeded_builder(n: usize, d: usize, seed: u64) -> (GraphBuilder, Vec<NodeId>) {
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
        (b, nodes)
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

    /// A [`PathStats`] as `[created, pruned, dominated, inserted, evicted,
    /// settled]`.
    fn counters(s: PathStats) -> [u64; 6] {
        [
            s.labels_created,
            s.labels_pruned,
            s.labels_dominated,
            s.labels_inserted,
            s.labels_evicted,
            s.nodes_settled,
        ]
    }

    /// A path skyline as raw cost bits and edges, for bit-exact comparison.
    fn bits(paths: &[ParetoLabel]) -> Vec<(Vec<u64>, Vec<EdgeId>)> {
        paths
            .iter()
            .map(|p| (p.costs.iter().map(f64::to_bits).collect(), p.edges.clone()))
            .collect()
    }

    #[test]
    fn every_width_agrees_across_variants() {
        // The search is compiled once per width 1..=MAX_COST_TYPES; each
        // must give the exhaustive skyline bit for bit when early
        // terminating and when prepped, and account for every candidate.
        // The last node is isolated, and a source that is its own target
        // seeds the target front with the zero label.
        for d in 1..=MAX_COST_TYPES {
            let (mut b, nodes) = seeded_builder(24, d, 900 + d as u64);
            let unreachable = b.add_node(-1.0, -1.0);
            let g = b.build().unwrap();
            let pairs = [
                (nodes[0], nodes[23]),
                (nodes[5], nodes[17]),
                (nodes[9], nodes[9]),
                (nodes[3], unreachable),
            ];
            for (s, t) in pairs {
                let exhaustive = pareto_paths_exhaustive(&g, s, t);
                let prep = PrepTable::build(&g, t);
                let runs = [
                    exhaustive.clone(),
                    pareto_paths_with_stats(&g, s, t),
                    pareto_paths_prepped(&g, s, t, &prep),
                ];
                for run in &runs {
                    assert_eq!(
                        bits(&run.paths),
                        bits(&exhaustive.paths),
                        "d = {d}: {s} → {t}"
                    );
                    let st = run.stats;
                    assert_eq!(
                        st.labels_created,
                        st.labels_inserted + st.labels_pruned + st.labels_dominated,
                        "d = {d}: {s} → {t}"
                    );
                }
                match (s == t, t == unreachable) {
                    (true, _) => {
                        assert_eq!(bits(&exhaustive.paths), vec![(vec![0; d], vec![])]);
                        // The seeded front prunes every candidate at once.
                        for run in &runs[1..] {
                            assert_eq!(run.stats.labels_inserted, 1, "d = {d}: {s} → {t}");
                        }
                    }
                    (_, true) => assert!(exhaustive.paths.is_empty()),
                    _ => assert!(!exhaustive.paths.is_empty(), "d = {d}: {s} → {t}"),
                }
            }
        }
    }

    #[test]
    fn a_label_evicted_while_queued_is_never_extended() {
        // `s` reaches `a` directly at [10, 10] and through `via` at
        // [2, 2]; `a` reaches `t` over two edges, [1, 50] and [50, 1], so
        // `L(a)` = [1, 1] and neither target label covers the bound
        // [11, 11] of [10, 10]. Node-FIFO settles `a` (queued before `via`)
        // and extends [10, 10] to `t`; the arrival through `via` then
        // evicts it, and its two target labels with it. Best first pops
        // `via` (key ≈ 6) before [10, 10] (key ≈ 22), which is evicted
        // while queued and, though no bound or cut covers it, never
        // extended.
        let mut b = GraphBuilder::new(2);
        let [s, via, a, t] = [0.0, 1.0, 2.0, 3.0].map(|x| b.add_node(x, 0.0));
        for (from, to, costs) in [
            (s, a, [10.0, 10.0]),
            (s, via, [1.0, 1.0]),
            (via, a, [1.0, 1.0]),
            (a, t, [1.0, 50.0]),
            (a, t, [50.0, 1.0]),
        ] {
            b.add_directed_edge(from, to, CostVec::from_slice(&costs))
                .unwrap();
        }
        let g = b.build().unwrap();
        let prep = PrepTable::build(&g, t);
        let run = pareto_paths_prepped(&g, s, t, &prep);
        assert_eq!(
            bits(&run.paths),
            bits(&pareto_paths_exhaustive(&g, s, t).paths)
        );
        let costs: Vec<&[f64]> = run.paths.iter().map(|p| p.costs.as_slice()).collect();
        assert_eq!(costs, [[3.0, 52.0], [52.0, 3.0]]);
        // Extended: `s`, `via` and `a`'s [2, 2]; the target's labels are
        // never queued, the front holding each of them.
        assert_eq!((run.stats.nodes_settled, run.stats.labels_evicted), (3, 1));
    }

    #[test]
    fn counters_are_pinned_on_fixed_pairs() {
        // Every counter of every variant under the best-first order: rows
        // go d = 2, 3, 4; per d two pairs; per pair exhaustive, early,
        // prepped.
        const PINNED: [[u64; 6]; 18] = [
            [726, 0, 539, 187, 6, 181],
            [306, 179, 49, 78, 2, 73],
            [47, 34, 0, 13, 0, 10],
            [799, 0, 587, 212, 10, 202],
            [331, 185, 68, 78, 0, 77],
            [19, 15, 0, 4, 0, 3],
            [918, 0, 677, 241, 4, 237],
            [876, 240, 407, 229, 4, 223],
            [25, 19, 0, 6, 0, 5],
            [1485, 0, 1097, 388, 3, 385],
            [123, 76, 13, 34, 0, 28],
            [24, 18, 0, 6, 0, 4],
            [1201, 0, 902, 299, 0, 299],
            [352, 220, 46, 86, 0, 84],
            [28, 18, 0, 10, 0, 8],
            [1435, 0, 1073, 362, 1, 361],
            [680, 396, 123, 161, 0, 157],
            [67, 49, 0, 18, 0, 14],
        ];
        // `labels_created` of each prepped run under the node-FIFO order
        // the best-first one replaced: an upper bound it must stay under.
        const FIFO_PREPPED_CREATED: [u64; 6] = [68, 22, 26, 32, 44, 87];
        for (row, fifo) in PINNED.iter().skip(2).step_by(3).zip(FIFO_PREPPED_CREATED) {
            assert!(
                row[0] <= fifo,
                "prepped created {} > node-FIFO {fifo}",
                row[0]
            );
        }
        let mut measured = Vec::new();
        for d in [2usize, 3, 4] {
            let (g, nodes) = seeded_network(100, d, 100 + d as u64);
            for (s, t) in [(nodes[0], nodes[99]), (nodes[13], nodes[71])] {
                let prep = PrepTable::build(&g, t);
                for run in [
                    pareto_paths_exhaustive(&g, s, t),
                    pareto_paths_with_stats(&g, s, t),
                    pareto_paths_prepped(&g, s, t, &prep),
                ] {
                    measured.push(counters(run.stats));
                }
            }
        }
        assert_eq!(measured, PINNED);
    }

    #[test]
    #[should_panic(expected = "node out of range: source v4 on a graph of 4 nodes")]
    fn out_of_range_source_is_named() {
        let (g, _, t) = diamond();
        let _ = pareto_paths(&g, NodeId::new(4), t);
    }

    #[test]
    #[should_panic(expected = "node out of range: target v9 on a graph of 4 nodes")]
    fn out_of_range_target_is_named() {
        let (g, s, _) = diamond();
        let _ = pareto_paths_exhaustive(&g, s, NodeId::new(9));
    }
}
