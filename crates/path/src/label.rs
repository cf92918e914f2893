//! Label-setting multi-criteria Pareto path search.

use crate::prep::PrepTable;
use crate::stats::PathStats;
use mcn_graph::dominance::{dominates_strictly, lanes, lex_cmp, weakly_dominates};
use mcn_graph::{CostVec, EdgeId, MultiCostGraph, NodeId, MAX_COST_TYPES};
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
/// a label-setting search (the multi-criteria path problem of Section II-D
/// of the paper, solved as multi-objective A* with a zero heuristic).
///
/// Labels wait in one priority queue and pop in lexicographic order of
/// their cost vectors (plus the prep lower bounds, in
/// [`pareto_paths_prepped`]). A popped label that no **closed** label of
/// its node — one popped and extended before it — weakly dominates is
/// closed and extended over the node's outgoing edges; a new label is
/// dropped at once if a closed label of its head node weakly dominates it.
/// In addition, a label that is weakly dominated by the **current target
/// skyline** is discarded wherever it surfaces — as a candidate, or when it
/// is popped: edge costs are non-negative, so every completion of such a
/// path is weakly dominated at the target too (target-dominance early
/// termination — same output, far fewer labels; see
/// [`pareto_paths_exhaustive`] for the unpruned baseline). A label at the
/// target joins the skyline when it pops, and the returned labels at
/// `target` are sorted lexicographically by cost vector.
///
/// Every dominance check is exact whatever the float rounding: the checks
/// read only lanes 1..d of the closed labels (lane 0 is the pop order's),
/// and a hit there prunes nothing until the hit member's full cost vector
/// is confirmed to weakly dominate the label.
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
/// pops labels in lexicographic cost order and extends each label at most
/// once, checking new and popped labels against the closed labels of their
/// node. Identical output to [`pareto_paths`]; exists as the measurement
/// baseline the label gate (and the early-termination fix) quantify label
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
/// The bound vector also orders the search: the queue pops the label with
/// the lexicographically smallest `a + δ·L(v)` first, and re-checks that
/// bound against the target skyline, grown since the label was queued,
/// before extending it.
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
/// at `v` has the bound vector `a + δ·L(v)`, which the bound pruning and
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
/// bound-pruning decision can then go wrong only against a target label
/// within those ulps of the completion: a near-tie the seeded workloads
/// (edge costs of one order, paths of tens of edges) do not have. Without
/// the deflation (`δ = 1`) one ulp of backward rounding in `L`, on any
/// path, lets the path's own upper-bound cut "dominate" its prefix and
/// silently drop a skyline member.
///
/// **Node-level dominance is exact whatever the rounding, and consistency
/// buys only speed.** Labels pop in lexicographic order of the bound
/// vector. `δ·L` is consistent — `δ·L(v) ≤ c + δ·L(w)` along every edge —
/// wherever `L`'s fixed point leaves slack `(1 − δ)·c` above the scan's
/// rounding, i.e. for every edge costing more than about `1.1·10⁻⁷·L(w)`.
/// Then no key falls along an extension (up to the rounding of the key's
/// own sums), pops come in non-decreasing key order, every closed label of
/// a node has a lane 0 no larger than a later label's there, and the
/// staircases' test on lanes 1..d alone would decide dominance. It is
/// never trusted alone: a hit prunes only once the hit member's full cost
/// vector weakly dominates the label, and a skyline admission whose hit
/// fails that falls back to a scan of the whole skyline, which also evicts
/// any member the new label strictly dominates. Where a key falls (or key
/// rounding ties two lane-0 costs), a confirmation can fail; the label is
/// then kept and extended, and only the work grows.
const BOUND_DEFLATION: f64 = 1.0 - 1e-9;

/// An admitted label: its costs and node, and how it was reached (the label
/// it extends and the edge).
struct Label<const D: usize> {
    costs: [f64; D],
    node: NodeId,
    parent: u32,
    edge: EdgeId,
}

/// The id of the source's empty-path label, the arena's first entry, where
/// every parent chain ends (its own `parent` and `edge` are never read).
const ROOT: u32 = 0;

/// A queued label: its bound vector, whether it is at the target, and its
/// id. Ordered so the lexicographically smallest key pops first (IEEE total
/// order per lane), equal keys with target labels first and then by the
/// smallest id, which makes every pop order, and with it every counter, a
/// pure function of the input. Target labels first: a label whose bound
/// equals a target label's cost vector is then dropped when it pops, as it
/// would be had the target label joined the skyline when it was created.
#[derive(Clone, Copy)]
struct Queued<const D: usize> {
    key: [f64; D],
    at_target: bool,
    id: u32,
}

impl<const D: usize> PartialEq for Queued<D> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<const D: usize> Eq for Queued<D> {}
impl<const D: usize> PartialOrd for Queued<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for Queued<D> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed where smaller pops first: BinaryHeap is a max-heap.
        lex_cmp(&other.key, &self.key)
            .then_with(|| self.at_target.cmp(&other.at_target))
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// No lane of `a` past lane 0 is larger than `b`'s: the staircases'
/// truncated weak-dominance test, every lane compared.
#[inline(always)]
fn tail_dominates<const D: usize>(a: &[f64; D], b: &[f64; D]) -> bool {
    a.iter()
        .zip(b)
        .skip(1)
        .fold(true, |le, (x, y)| le & (x <= y))
}

/// What the closed labels of a node say of a cost vector `q`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Probe {
    /// No member's lanes 1..D weakly dominate `q`'s.
    Miss,
    /// The hit member's full cost vector weakly dominates `q`.
    Covered,
    /// The hit member's lanes 1..D weakly dominate `q`'s, but its lane 0
    /// is larger: the label is kept, which costs only work.
    Unconfirmed,
}

/// Probes `stairs`, the closed labels of one node as a staircase over
/// lanes 1..D: full cost vectors whose lanes 1..D are mutually
/// non-dominated, sorted lexicographically on those lanes. One member
/// decides, and its full vector confirms the hit. At D = 1 any member
/// decides, and at D = 2 the one member (the running minimum of lane 1);
/// at D = 3 lane 1 rises and lane 2 falls along the staircase, so the
/// member with the largest lane 1 not above `q`'s decides, found by one
/// binary search; at D ≥ 4 the scan stops at the first member above `q` on
/// lane 1.
#[inline(always)]
fn probe<const D: usize>(stairs: &[[f64; D]], q: &[f64; D]) -> Probe {
    let hit = match D {
        1 => stairs.first(),
        2 => stairs.first().filter(|m| m[1] <= q[1]),
        3 => {
            let after = stairs.partition_point(|m| m[1] <= q[1]);
            stairs[..after].last().filter(|m| m[2] <= q[2])
        }
        _ => stairs
            .iter()
            .take_while(|m| m[1] <= q[1])
            .find(|m| tail_dominates(m, q)),
    };
    match hit {
        None => Probe::Miss,
        Some(m) if m[0] <= q[0] => Probe::Covered,
        Some(_) => {
            #[cfg(test)]
            tests::note_unconfirmed();
            Probe::Unconfirmed
        }
    }
}

/// A member of `stairs` weakly dominates `q`, confirmed on its full vector.
#[inline(always)]
fn covers<const D: usize>(stairs: &[[f64; D]], q: &[f64; D]) -> bool {
    probe(stairs, q) == Probe::Covered
}

/// Adds `p` to `stairs`, dropping the members whose lanes 1..D it weakly
/// dominates. `p` must have probed [`Probe::Miss`].
fn stair_insert<const D: usize>(stairs: &mut Vec<[f64; D]>, p: [f64; D]) {
    stairs.retain(|m| !tail_dominates(&p, m));
    let at = stairs.partition_point(|m| {
        let lanes = m.iter().zip(&p).skip(1);
        lanes.map(|(x, y)| x.total_cmp(y)).find(|o| o.is_ne()) == Some(Ordering::Less)
    });
    stairs.insert(at, p);
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

/// [`search`] at `D` cost types: staircases, labels, keys and the
/// upper-bound cuts hold `[f64; D]`, and only the target's skyline becomes
/// [`CostVec`]s again.
///
/// * **Arena:** an admitted label is one [`Label`], its id its index; paths
///   stay `(parent, edge)` links until the loop ends, when only the
///   skyline's labels are walked back into edge lists.
/// * **Label setting:** one binary heap of [`Queued`] labels, keyed by the
///   bound vector (`costs + δ·L(v)` with a table, the costs without) in
///   lexicographic order. A label is queued once, when it is admitted. A
///   popped label is dropped if a closed label of its node, or, with
///   pruning, the target skyline covers it; otherwise it is closed (joins
///   its node's staircase) and extended. Each node keeps only its closed
///   labels, so a new label is checked against those alone.
/// * **The target:** its labels join the skyline when they pop, checked
///   against the target's staircase; `skyline` lists them in
///   lexicographic order, so no sort follows the loop. With pruning they
///   are not extended: every completion through them is dominated.
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
    let prunes = target_prune || prep.is_some();
    let mut stairs: Vec<Vec<[f64; D]>> = vec![Vec::new(); graph.num_nodes()];
    // The arena and the queue start at one entry per node: most searches
    // then never regrow them, which on `path_explore` is a tenth of a small
    // query's time.
    let mut labels: Vec<Label<D>> = Vec::with_capacity(graph.num_nodes());
    labels.push(Label {
        costs: [0.0; D],
        node: source,
        parent: ROOT,
        edge: EdgeId::new(0),
    });
    stats.labels_created += 1;
    stats.labels_inserted += 1;
    // The target's admitted labels, lexicographic by cost vector.
    let mut skyline: Vec<u32> = Vec::new();

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
    // table, the costs themselves without. At the target it is the costs.
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
        key: bound_at(source, &[0.0; D]),
        at_target: source == target,
        id: ROOT,
    });
    while let Some(Queued {
        key, id: parent, ..
    }) = queue.pop()
    {
        let Label {
            costs: label_costs,
            node,
            ..
        } = labels[parent as usize];
        let admitted = if node == target {
            admit(&mut skyline, &mut stairs[target.index()], &labels, parent)
        } else {
            let own = probe(&stairs[node.index()], &label_costs);
            let admitted =
                own != Probe::Covered && !(prunes && covers(&stairs[target.index()], &key));
            if admitted && own == Probe::Miss {
                stair_insert(&mut stairs[node.index()], label_costs);
            }
            admitted
        };
        if !admitted {
            stats.labels_evicted += 1;
            continue;
        }
        // With pruning, every completion through a target label is
        // dominated by the label itself.
        if node == target && prunes {
            continue;
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
            if prunes && covers(&stairs[target.index()], &bound) {
                stats.labels_pruned += 1;
                continue;
            }
            if cuts.iter().any(|cut| dominates_strictly(cut, &bound)) {
                stats.labels_pruned += 1;
                continue;
            }

            // Node-level dominance by the head's closed labels; with
            // pruning, at the target that is the check just made.
            if !(prunes && head == target) && covers(&stairs[head.index()], &costs) {
                stats.labels_dominated += 1;
                continue;
            }
            let id =
                u32::try_from(labels.len()).expect("label arena holds at most u32::MAX labels");
            labels.push(Label {
                costs,
                node: head,
                parent,
                edge: neighbor.edge,
            });
            stats.labels_inserted += 1;
            queue.push(Queued {
                key: bound,
                at_target: head == target,
                id,
            });
        }
    }

    let paths = skyline
        .iter()
        .map(|&id| ParetoLabel {
            node: target,
            costs: CostVec::from_slice(&labels[id as usize].costs),
            edges: path_edges(&labels, id),
        })
        .collect();
    PathSkylineResult { paths, stats }
}

/// Admits the popped target label `id` to `skyline` (the target's labels,
/// lexicographic by cost vector) and to the target's staircase `stairs`,
/// unless a member weakly dominates it. A staircase hit whose member fails
/// the full-vector confirmation falls back to a scan of the skyline, so
/// the skyline is exact whatever the rounding. Returns true iff admitted.
fn admit<const D: usize>(
    skyline: &mut Vec<u32>,
    stairs: &mut Vec<[f64; D]>,
    labels: &[Label<D>],
    id: u32,
) -> bool {
    let costs_of = |id: u32| &labels[id as usize].costs;
    let costs = *costs_of(id);
    let probed = probe(stairs, &costs);
    let dominated = match probed {
        Probe::Miss => false,
        Probe::Covered => true,
        Probe::Unconfirmed => skyline
            .iter()
            .any(|&member| weakly_dominates(costs_of(member), &costs)),
    };
    if dominated {
        return false;
    }
    // Pops come in key order, so the label goes last and dominates no
    // member, unless a key fell on the way here: then it may dominate some
    // of the members after its place (no earlier member is lexicographically
    // larger).
    let at = skyline.partition_point(|&member| lex_cmp(costs_of(member), &costs).is_le());
    if skyline[at..]
        .iter()
        .any(|&member| dominates_strictly(&costs, costs_of(member)))
    {
        skyline.retain(|&member| !dominates_strictly(&costs, costs_of(member)));
    }
    skyline.insert(at, id);
    if probed == Probe::Miss {
        stair_insert(stairs, costs);
    }
    true
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
    use crate::tests::diamond;
    use mcn_graph::{dominates, GraphBuilder};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::cell::Cell;

    thread_local! {
        /// Staircase hits whose member failed the full-vector confirmation
        /// on this thread (each test runs on its own thread).
        static UNCONFIRMED: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts one [`Probe::Unconfirmed`].
    pub(super) fn note_unconfirmed() {
        UNCONFIRMED.with(|n| n.set(n.get() + 1));
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
        // d == 2 reduces every staircase to a running minimum of cost 1;
        // the output must match the exhaustive baseline exactly.
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
        // A label dominated while it waits is dropped when it pops
        // (`labels_evicted`) and never extended. `s` reaches `a` directly
        // at [10, 10] and through `via` at [2, 2]; `a` reaches `t` over two
        // edges, [1, 50] and [50, 1], so `L(a)` = [1, 1] and neither target
        // label covers the bound [11, 11] of [10, 10], nor does a cut. Both
        // labels at `a` are queued when they are created, since `a` has no
        // closed label yet. The pops go by bound: `via` (≈ [3, 3]), then
        // `a`'s [2, 2] (≈ [3, 3]), which is closed and extended, and the
        // target's [3, 52], before [10, 10] (≈ [11, 11]): `a`'s closed
        // [2, 2] then covers it.
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
        // Extended: `s`, `via` and `a`'s [2, 2], which create 2 + 1 + 2
        // candidates after the source's; every one is queued. Dropped at
        // its pop: [10, 10] alone. The target's labels join the skyline
        // and are not extended.
        let st = run.stats;
        assert_eq!((st.nodes_settled, st.labels_evicted), (3, 1));
        assert_eq!((st.labels_created, st.labels_inserted), (6, 6));
    }

    #[test]
    fn a_truncated_hit_prunes_only_once_the_full_vector_confirms_it() {
        // Two labels reach `v` from `s` over parallel edges: X = [2⁵³ + 4,
        // 1] and Y = [2⁵³ + 2, 2], neither dominating the other. In this
        // binade an ulp is 2, and `v`'s deflated bound on lane 0 is exactly
        // 1, so both keys round (ties to even) to 2⁵³ + 4 on lane 0, and X,
        // smaller on lane 1, pops first and closes. Y's lane 1 is then
        // weakly dominated by X's: the staircase hits, and only X's lane 0
        // tells that X does not dominate Y. At the target the sums keep
        // them apart, and Y's completion is a skyline member.
        let rest = 1.0 / BOUND_DEFLATION;
        assert_eq!(rest * BOUND_DEFLATION, 1.0);
        let big = 2f64.powi(53);
        let (x, y) = ([big + 4.0, 1.0], [big + 2.0, 2.0]);
        let mut b = GraphBuilder::new(2);
        let [s, v, t] = [0.0, 1.0, 2.0].map(|at| b.add_node(at, 0.0));
        let to_v = [x, y].map(|c| b.add_directed_edge(s, v, CostVec::from_slice(&c)).unwrap());
        let last = b
            .add_directed_edge(v, t, CostVec::from_slice(&[rest, 1.0]))
            .unwrap();
        let g = b.build().unwrap();
        let prep = PrepTable::build(&g, t);
        let key = |c: [f64; 2]| bound_vector(&prep, v, c);
        assert_eq!(key(x)[0], key(y)[0]);
        assert!(key(x)[1] < key(y)[1]);

        UNCONFIRMED.with(|n| n.set(0));
        let prepped = pareto_paths_prepped(&g, s, t, &prep);
        assert!(
            UNCONFIRMED.with(Cell::get) > 0,
            "no staircase hit failed its confirmation"
        );
        let exhaustive = pareto_paths_exhaustive(&g, s, t);
        assert_eq!(bits(&prepped.paths), bits(&exhaustive.paths));
        assert_eq!(prepped.paths.len(), 2);

        // Pruning on lanes 1.. alone would drop Y at `v`, and with it the
        // skyline member that only Y's label reaches.
        assert_eq!(probe(&[x], &y), Probe::Unconfirmed);
        assert!(tail_dominates(&x, &y) && !weakly_dominates(&x, &y));
        assert!(prepped.paths.iter().any(|p| p.edges == [to_v[1], last]));
    }

    /// `costs + δ·L(v)` as the search rounds it.
    fn bound_vector(prep: &PrepTable, v: NodeId, costs: [f64; 2]) -> [f64; 2] {
        let lower = prep.bound(v);
        std::array::from_fn(|i| costs[i] + lower[i] * BOUND_DEFLATION)
    }

    #[test]
    fn counters_are_pinned_on_fixed_pairs() {
        // Every counter of every variant under the label-setting order:
        // rows go d = 2, 3, 4; per d two pairs; per pair exhaustive, early,
        // prepped. `created` and `settled` are the sum-ordered best-first
        // search's: with a consistent key both orders extend the same
        // labels. A candidate dominated only by open labels, or covered
        // only by target labels not yet popped, is queued and dropped at
        // its pop (`evicted`).
        const PINNED: [[u64; 6]; 18] = [
            [726, 0, 426, 300, 119, 181],
            [306, 130, 61, 115, 39, 73],
            [47, 34, 0, 13, 0, 10],
            [799, 0, 473, 326, 124, 202],
            [331, 4, 127, 200, 122, 77],
            [19, 15, 0, 4, 0, 3],
            [918, 0, 587, 331, 94, 237],
            [876, 109, 447, 320, 96, 223],
            [25, 19, 0, 6, 0, 5],
            [1485, 0, 986, 499, 114, 385],
            [123, 60, 16, 47, 17, 28],
            [24, 18, 0, 6, 0, 4],
            [1201, 0, 795, 406, 107, 299],
            [352, 187, 51, 114, 28, 84],
            [28, 18, 0, 10, 0, 8],
            [1435, 0, 948, 487, 126, 361],
            [680, 273, 159, 248, 87, 157],
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
