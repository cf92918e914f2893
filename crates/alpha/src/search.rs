//! Deterministic scalarized shortest-path search: Dijkstra, A* over the
//! target's own prep table, and A* over landmark tables of other targets.

use crate::preference::Preference;
use mcn_graph::{CostVec, EdgeId, MultiCostGraph, NodeId, MAX_COST_TYPES};
use mcn_prep::PrepTable;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Relative deflation applied to every A* heuristic.
///
/// Same constant and rationale as `mcn-mcpp`: the prep scan accumulates the
/// bounds backward (target → v) while the search accumulates forward
/// (v → target), and float addition is not associative, so a mathematically
/// exact bound can exceed the forward sum by a few ulps. With the summed
/// column the heuristic also carries the rounding of each edge weight
/// `Σ_i c_i` (`d − 1` additions), of `Σ_i L_i(v)`, and of the split
/// `α·L + λ·max(0, S − Σ_i L_i)` that stands for `λ·max(S, Σ_i L_i) + μ·L`.
/// Each error is a few ulps per edge or per cost type, relative to a
/// non-negative term of a sum the α-distance bounds, so the total is of
/// order `(n + d)·2⁻⁵³` relative: far under `10⁻⁹` on any graph of up to
/// `10⁶` nodes. The `f32` column adds nothing: it is rounded down, so it
/// only loosens the bound. Scaling the heuristic down by 1e-9 relative
/// keeps it admissible *and* consistent (δ·h still satisfies the triangle
/// inequality) without giving up any measurable pruning power.
pub const HEURISTIC_DEFLATION: f64 = 1.0 - 1e-9;

/// Relative margin `ε` of a landmark bound: component `i` of the bound
/// from the table of landmark `ℓ` is `max(0, D_i(v→ℓ) − D_i(t→ℓ) −
/// ε·(D_i(v→ℓ) + D_i(t→ℓ)))`.
///
/// `HEURISTIC_DEFLATION` alone does not cover a difference. At the scan's
/// fixed point `D(u) ≤ fl(c(u,w) + D(w))` holds for every edge `u → w`, so
/// along a shortest `v → t` path of `k < n` edges `D(v) ≤ (D(t) +
/// dist(v→t))·(1 + k·u)`, `u = 2⁻⁵³`: `D(v) − D(t)` may overshoot
/// `dist(v→t)` by `k·u·(D(t) + dist)`, an error sized by the operands, not
/// by the difference. One edge cheaper than half an ulp of `D(t)` rounds
/// `D(v)` up a whole ulp and so gives the bound more than that edge costs
/// (`landmark_margin_absorbs_scan_rounding` is that input, and fails
/// without the margin). When the bound is positive and `D(v) ≥ dist/2`,
/// the margin `ε·(D(v) + D(t)) ≥ ε/2·(D(t) + dist)` exceeds that overshoot
/// plus the forward search's own summation error (`(n + d)·u·dist`) as
/// long as `(2n + d)·u ≤ ε/2`: every graph of up to `10⁶` nodes, and the
/// graphs served have a few thousand. When `D(v) < dist/2` the bound is
/// below `dist/2` anyway. So the bound never exceeds the float α-distance
/// the search computes: it is admissible. It is not always consistent — the
/// same rounding can make it drop by more than one cheap edge costs — which
/// the search's reopening absorbs
/// (`a_node_settled_early_by_an_inconsistent_bound_is_reopened`).
const LANDMARK_MARGIN: f64 = 1e-9;

/// Relative margin of a landmark's summed-cost gap `S_ℓ(v) − S_ℓ(t)`, taken
/// times `S_ℓ(v) + S_ℓ(t)`: [`LANDMARK_MARGIN`] for the scan, plus `2⁻²³`
/// (`f32::EPSILON`) for the column. Each stored `S` is rounded down by less
/// than one `f32` ulp, at most `2⁻²³` of its value (`f32`'s normal range,
/// above `1.2·10⁻³⁸`), so the gap overshoots the one of `f64` values by at
/// most `2⁻²³` of the larger operand. With `LANDMARK_MARGIN` alone the
/// adversarial proptest of `tests/prep.rs` finds a landmark bound above the
/// α-distance.
const SUM_MARGIN: f64 = LANDMARK_MARGIN + f32::EPSILON as f64;

/// Counters describing one scalarized search. The route index reports the
/// same four for its α and path-skyline queries (`mcn-index`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScalarStats {
    /// Heap entries pushed (duplicates stand in for decrease-key).
    pub pushed: u64,
    /// Nodes settled — popped as the best open node (a node the landmark
    /// search reopens counts again). The headline number: A* vs Dijkstra
    /// settled counts is exactly the work the heuristic saves.
    pub settled: u64,
    /// Edge relaxations attempted from settled nodes.
    pub relaxed: u64,
    /// Candidates discarded: stale heap entries, relaxations that did not
    /// improve the tentative distance, and neighbors the heuristic proves
    /// cannot reach the target.
    pub pruned: u64,
}

/// One α-optimal route: the scalarized distance, the underlying multi-cost
/// vector, and the edge sequence source → target.
#[derive(Clone, Debug, PartialEq)]
pub struct ScalarPath {
    /// Scalarized distance α·cost accumulated along the path in path order
    /// (bit-identical between the Dijkstra and A* variants).
    pub total: f64,
    /// Component-wise cost of the path, accumulated source → target.
    pub costs: CostVec,
    /// Edges in path order, source first.
    pub edges: Vec<EdgeId>,
}

/// Outcome of one scalarized query: the α-optimal path (None iff the target
/// is unreachable) plus the search counters.
#[derive(Clone, Debug, PartialEq)]
pub struct ScalarResult {
    /// The α-optimal route, if one exists.
    pub path: Option<ScalarPath>,
    /// Search-effort counters.
    pub stats: ScalarStats,
}

/// Max-heap entry ordered so the *smallest* key pops first, tie-broken on
/// the smaller node id — the tie-break makes the pop order (and therefore
/// every counter) a pure function of the input.
#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    /// Priority: g(v) for Dijkstra, g(v) + h(v) for A*.
    key: f64,
    node: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest key.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// α-optimal path by plain binary-heap Dijkstra over the scalarized edge
/// costs. Deterministic: identical inputs give identical paths and stats.
///
/// Panics if `pref.cost_types()` differs from the graph's.
pub fn scalarized_path(
    graph: &MultiCostGraph,
    source: NodeId,
    target: NodeId,
    pref: &Preference,
) -> ScalarResult {
    search(graph, source, target, pref, |_| Some(0.0))
}

/// α-optimal path by A* over `prep`, a backward scan towards `target`.
/// Returns the exact same path as [`scalarized_path`] while settling only
/// the nodes whose f-value does not exceed the optimum — the serving-tier
/// fast path. (When two distinct routes tie on exactly equal scalarized
/// cost the two variants may each return a different one of the tied
/// routes.)
///
/// The heuristic is [`table_bound`]: α splits as `λ·1 + μ` with `λ =
/// min_i α_i` and `μ = α − λ·1 ≥ 0`, and any `v → target` path `p` costs
/// `α·c(p) = λ·Σ_i c_i(p) + μ·c(p) ≥ λ·max(S(v), Σ_i L_i(v)) + μ·L(v)`,
/// where `L(v)` is the table's per-cost bound and `S(v)` its summed-cost
/// distance. The bound is never below α·L(v), and far above it where the
/// per-cost optima `L_i(v)` lie on different routes. Both parts are
/// consistent, so their sum is.
///
/// Panics if the table was built for a different target, graph size or
/// cost-type count (same contract as `pareto_paths_prepped`).
pub fn scalarized_path_astar(
    graph: &MultiCostGraph,
    source: NodeId,
    target: NodeId,
    pref: &Preference,
    prep: &PrepTable,
) -> ScalarResult {
    assert_eq!(prep.target(), target, "prep table built for another target");
    check_table(graph, prep);
    let lambda = uniform_share(pref);
    search(graph, source, target, pref, |v| {
        own_bound(prep, pref, lambda, v)
    })
}

/// The heuristic [`scalarized_path_astar`] reads at `v` from the target's
/// own table, deflation included: `(λ·max(S(v), Σ_i L_i(v)) +
/// μ·L(v))·δ`, computed as `(α·L(v) + λ·max(0, S(v) − Σ_i L_i(v)))·δ` so
/// that it is never below `α·L(v)·δ` in float arithmetic either. `None` when
/// the table proves `v` cannot reach its target.
///
/// Panics if the table was built for a different graph size or cost-type
/// count, or `v` is out of range.
pub fn table_bound(
    graph: &MultiCostGraph,
    pref: &Preference,
    table: &PrepTable,
    v: NodeId,
) -> Option<f64> {
    check_table(graph, table);
    own_bound(table, pref, uniform_share(pref), v)
}

/// λ = min_i α_i: the part of α that weighs every cost type alike, so that
/// `α = λ·1 + μ` with `μ ≥ 0`.
fn uniform_share(pref: &Preference) -> f64 {
    pref.weights().iter().copied().fold(f64::INFINITY, f64::min)
}

/// `α·lb + λ·max(0, sum − Σ_i lb_i)`: the split bound `λ·max(sum, Σ_i lb_i)
/// + μ·lb` for a per-cost lower bound `lb` and a lower bound `sum` on the
/// summed cost, written so that it never falls below `α·lb`.
#[inline]
fn split_bound(pref: &Preference, lambda: f64, lb: &[f64], sum: f64) -> f64 {
    let componentwise: f64 = lb.iter().sum();
    pref.cost_of(lb) + lambda * (sum - componentwise).max(0.0)
}

/// [`table_bound`] with `λ` precomputed.
#[inline]
fn own_bound(table: &PrepTable, pref: &Preference, lambda: f64, v: NodeId) -> Option<f64> {
    table.reaches(v).then(|| {
        split_bound(pref, lambda, table.bound(v), table.sum_bound(v)) * HEURISTIC_DEFLATION
    })
}

/// Number of landmarks one search uses at most: the ones with the largest
/// bound at the source. A constant, not a knob — each landmark costs every
/// heuristic read `d` subtractions, so a few strong ones beat many weak ones.
const LANDMARKS: usize = 2;

/// α-optimal path by A* over **landmarks**: prep tables built for targets
/// other than `target` (ALT, Goldberg & Harrelson). A table towards `ℓ`
/// holds the exact per-cost distances `D_i(v→ℓ)`, and the triangle
/// inequality makes `D_i(v→ℓ) − D_i(t→ℓ)` a lower bound on cost `i` from
/// `v` to `t` (on a graph without one-way edges `|D_i(v→ℓ) − D_i(t→ℓ)|`
/// is one too). Of the landmarks the target reaches, the search uses the
/// two with the largest [`landmark_bound`] at `source` (equal bounds go to
/// the smaller landmark id, so the order of `landmarks` does not matter);
/// with none it is plain Dijkstra. h(v) is the larger of their bounds,
/// deflated like the prep heuristic. A node that cannot reach a landmark
/// the target reaches cannot reach the target, so it is never queued.
///
/// The bound is admissible but not always consistent (near a far landmark
/// the scan's rounding can make it drop by more than an edge costs), so the
/// search reopens a settled node whose distance improves. Returns the same
/// path as [`scalarized_path`], up to the representative of an exactly
/// tied route (as for [`scalarized_path_astar`]).
///
/// Panics if a table was built for a different graph size or cost-type
/// count.
pub fn scalarized_path_landmarks(
    graph: &MultiCostGraph,
    source: NodeId,
    target: NodeId,
    pref: &Preference,
    landmarks: &[&PrepTable],
) -> ScalarResult {
    let symmetric = !graph.has_directed_edges();
    let lambda = uniform_share(pref);
    let mut ranked = Vec::with_capacity(landmarks.len());
    for &table in landmarks {
        check_table(graph, table);
        if !table.reaches(target) {
            continue;
        }
        match bound_towards(table, target, pref, lambda, source, symmetric) {
            Some(at_source) => ranked.push((at_source, table)),
            None => {
                return ScalarResult {
                    path: None,
                    stats: ScalarStats::default(),
                }
            }
        }
    }
    ranked.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then(a.1.target().raw().cmp(&b.1.target().raw()))
    });
    ranked.truncate(LANDMARKS);
    search(graph, source, target, pref, |v| {
        let mut best = 0.0f64;
        for (_, table) in &ranked {
            best = best.max(bound_towards(table, target, pref, lambda, v, symmetric)?);
        }
        Some(best * HEURISTIC_DEFLATION)
    })
}

/// The α-weighted lower bound one landmark table gives on the cost of any
/// `v → target` path. Per cost type, `lb_i = max(0, D_i(v→ℓ) − D_i(t→ℓ) −
/// ε·(D_i(v→ℓ) + D_i(t→ℓ)))`, with `|D_i(v→ℓ) − D_i(t→ℓ)|` in place of the
/// difference when `graph` has no one-way edge (`ε` covers the scan's float
/// summation error, see the margin's docs); the summed-cost distances give
/// `lbS` the same way, with the wider `f32` margin. The bound is the split
/// `λ·max(lbS, Σ_i lb_i) + μ·lb` of [`scalarized_path_astar`], never below
/// `α·lb`. `None` when the table proves `v` cannot reach `target`: `target`
/// reaches `ℓ` and `v` does not. `Some(0.0)` when `target` does not reach
/// `ℓ` either (no information).
///
/// Panics if `v` or `target` is out of the table's range.
pub fn landmark_bound(
    graph: &MultiCostGraph,
    target: NodeId,
    pref: &Preference,
    landmark: &PrepTable,
    v: NodeId,
) -> Option<f64> {
    if !landmark.reaches(target) {
        return Some(0.0);
    }
    let lambda = uniform_share(pref);
    bound_towards(
        landmark,
        target,
        pref,
        lambda,
        v,
        !graph.has_directed_edges(),
    )
}

/// [`landmark_bound`] for a landmark the target is known to reach, with `λ`
/// precomputed.
#[inline]
fn bound_towards(
    landmark: &PrepTable,
    target: NodeId,
    pref: &Preference,
    lambda: f64,
    v: NodeId,
    symmetric: bool,
) -> Option<f64> {
    if !landmark.reaches(v) {
        return None;
    }
    let gap = |dv: f64, dt: f64, margin: f64| {
        let gap = if symmetric { (dv - dt).abs() } else { dv - dt };
        (gap - margin * (dv + dt)).max(0.0)
    };
    let (at_v, at_t) = (landmark.bound(v), landmark.bound(target));
    let mut lb = [0.0; MAX_COST_TYPES];
    for i in 0..at_v.len() {
        lb[i] = gap(at_v[i], at_t[i], LANDMARK_MARGIN);
    }
    let sum = gap(
        landmark.sum_bound(v),
        landmark.sum_bound(target),
        SUM_MARGIN,
    );
    Some(split_bound(pref, lambda, &lb[..at_v.len()], sum))
}

/// Asserts that `table` covers `graph`'s nodes and cost types.
fn check_table(graph: &MultiCostGraph, table: &PrepTable) {
    assert_eq!(
        table.num_nodes(),
        graph.num_nodes(),
        "prep table built for another graph"
    );
    assert_eq!(
        table.cost_types(),
        graph.num_cost_types(),
        "prep table built for another cost dimensionality"
    );
}

/// Shared engine of every variant: A* under the heuristic `h`, which
/// returns `None` for a node proven unable to reach `target`. `h ≡ 0` is
/// Dijkstra.
fn search(
    graph: &MultiCostGraph,
    source: NodeId,
    target: NodeId,
    pref: &Preference,
    h: impl Fn(NodeId) -> Option<f64>,
) -> ScalarResult {
    assert_eq!(
        pref.cost_types(),
        graph.num_cost_types(),
        "preference dimensionality must match the graph"
    );
    let n = graph.num_nodes();
    assert!(
        source.index() < n && target.index() < n,
        "node out of range"
    );

    let mut stats = ScalarStats::default();

    // A source the heuristic proves dead is answered before any search.
    let Some(h0) = h(source) else {
        return ScalarResult { path: None, stats };
    };

    const NO_PARENT: u32 = u32::MAX;
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![NO_PARENT; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();

    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        key: h0,
        node: source.raw(),
    });
    stats.pushed += 1;

    let mut found = false;
    while let Some(entry) = heap.pop() {
        let u = NodeId::from(entry.node);
        // Duplicate pushes stand in for decrease-key; every improvement
        // strictly lowers the key, so a pop of a settled node is stale.
        if settled[u.index()] {
            stats.pruned += 1;
            continue;
        }
        settled[u.index()] = true;
        stats.settled += 1;
        if u == target {
            found = true;
            break;
        }
        let du = dist[u.index()];
        for nb in graph.neighbors(u) {
            stats.relaxed += 1;
            let cand = du + pref.cost_of(nb.costs.as_slice());
            // The heuristic is read only for an improving relaxation. A
            // neighbor it proves dead keeps distance ∞, so each
            // relaxation reaching it still lands in `pruned` exactly once.
            let hn = if cand < dist[nb.node.index()] {
                h(nb.node)
            } else {
                None
            };
            let Some(hn) = hn else {
                stats.pruned += 1;
                continue;
            };
            // Under a consistent heuristic a settled node never improves
            // (and under h ≡ 0 it cannot). An admissible one that is not
            // consistent — a landmark bound, near a far landmark — can
            // settle a node early; reopening it on a strict improvement
            // keeps the answer exact on admissibility alone.
            settled[nb.node.index()] = false;
            dist[nb.node.index()] = cand;
            parent[nb.node.index()] = nb.edge.raw();
            heap.push(HeapEntry {
                key: cand + hn,
                node: nb.node.raw(),
            });
            stats.pushed += 1;
        }
    }

    if !found {
        return ScalarResult { path: None, stats };
    }

    // Walk the parent edges target → source, then accumulate the multi-cost
    // vector in path order so `costs` is deterministic in summation order.
    let mut edges = Vec::new();
    let mut v = target;
    while v != source {
        let eid = EdgeId::from(parent[v.index()]);
        edges.push(eid);
        v = graph.edge(eid).opposite(v);
    }
    edges.reverse();
    let mut costs = CostVec::zeros(graph.num_cost_types());
    for &eid in &edges {
        costs += graph.edge(eid).costs;
    }

    ScalarResult {
        path: Some(ScalarPath {
            total: dist[target.index()],
            costs,
            edges,
        }),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_graph::GraphBuilder;

    /// Diamond: s → t via top (cheap in cost 0) or bottom (cheap in cost 1).
    fn diamond() -> (MultiCostGraph, NodeId, NodeId) {
        let mut b = GraphBuilder::new(2);
        let s = b.add_node(0.0, 0.0);
        let top = b.add_node(1.0, 1.0);
        let bot = b.add_node(1.0, -1.0);
        let t = b.add_node(2.0, 0.0);
        b.add_edge(s, top, CostVec::from_slice(&[1.0, 10.0]))
            .unwrap();
        b.add_edge(top, t, CostVec::from_slice(&[1.0, 10.0]))
            .unwrap();
        b.add_edge(s, bot, CostVec::from_slice(&[10.0, 1.0]))
            .unwrap();
        b.add_edge(bot, t, CostVec::from_slice(&[10.0, 1.0]))
            .unwrap();
        (b.build().unwrap(), s, t)
    }

    #[test]
    fn preference_steers_the_route() {
        let (g, s, t) = diamond();
        let fast = scalarized_path(&g, s, t, &Preference::new(&[1.0, 0.0]).unwrap());
        let cheap = scalarized_path(&g, s, t, &Preference::new(&[0.0, 1.0]).unwrap());
        let fast_path = fast.path.unwrap();
        let cheap_path = cheap.path.unwrap();
        assert_ne!(fast_path.edges, cheap_path.edges);
        assert_eq!(fast_path.costs.as_slice(), &[2.0, 20.0]);
        assert_eq!(cheap_path.costs.as_slice(), &[20.0, 2.0]);
        assert_eq!(fast_path.total, 2.0);
    }

    #[test]
    fn astar_matches_dijkstra_bit_for_bit() {
        let (g, s, t) = diamond();
        let pref = Preference::new(&[0.3, 0.7]).unwrap();
        let prep = PrepTable::build(&g, t);
        let plain = scalarized_path(&g, s, t, &pref);
        let astar = scalarized_path_astar(&g, s, t, &pref, &prep);
        let p = plain.path.unwrap();
        let a = astar.path.unwrap();
        assert_eq!(p.edges, a.edges);
        assert_eq!(p.total.to_bits(), a.total.to_bits());
        assert_eq!(p.costs, a.costs);
        assert!(astar.stats.settled <= plain.stats.settled);
    }

    #[test]
    fn source_equals_target_is_the_empty_path() {
        let (g, s, _) = diamond();
        let pref = Preference::uniform(2);
        let r = scalarized_path(&g, s, s, &pref);
        let p = r.path.unwrap();
        assert!(p.edges.is_empty());
        assert_eq!(p.total, 0.0);
        assert_eq!(r.stats.settled, 1);
    }

    #[test]
    fn unreachable_target_returns_none() {
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let bnode = b.add_node(1.0, 0.0);
        let c = b.add_node(2.0, 0.0);
        let d = b.add_node(3.0, 0.0);
        b.add_edge(a, bnode, CostVec::from_slice(&[1.0, 1.0]))
            .unwrap();
        b.add_edge(c, d, CostVec::from_slice(&[1.0, 1.0])).unwrap();
        let g = b.build().unwrap();
        let pref = Preference::uniform(2);
        assert!(scalarized_path(&g, a, c, &pref).path.is_none());
        let prep = PrepTable::build(&g, c);
        let astar = scalarized_path_astar(&g, a, c, &pref, &prep);
        assert!(astar.path.is_none());
        // The prep table already knows the source is dead: zero work done.
        assert_eq!(astar.stats.settled, 0);
        assert_eq!(astar.stats.pushed, 0);
    }

    #[test]
    fn heuristic_cuts_settled_nodes_on_a_line() {
        // Long line with the target near the source: Dijkstra floods both
        // directions, A* walks straight to the target.
        let mut b = GraphBuilder::new(2);
        let ids: Vec<NodeId> = (0..50).map(|i| b.add_node(i as f64, 0.0)).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], CostVec::from_slice(&[1.0, 2.0]))
                .unwrap();
        }
        let g = b.build().unwrap();
        let (s, t) = (ids[25], ids[30]);
        let pref = Preference::new(&[0.5, 0.5]).unwrap();
        let prep = PrepTable::build(&g, t);
        let plain = scalarized_path(&g, s, t, &pref);
        let astar = scalarized_path_astar(&g, s, t, &pref, &prep);
        assert_eq!(plain.path, astar.path);
        assert!(
            astar.stats.settled < plain.stats.settled,
            "astar {} vs dijkstra {}",
            astar.stats.settled,
            plain.stats.settled
        );
    }

    /// The one input class where the two variants may disagree, pinned so
    /// the caveat in the README stays true: two distinct routes of exactly
    /// equal scalarized cost. Dijkstra breaks the s→p1 / s→p2 tie on node
    /// id; A* orders the same two nodes by heuristic, and p2's side edge to
    /// the target gives it the smaller bound: at α = (0.7, 0.3), h(p1) = 1.0
    /// and h(p2) = 0.35 + 0.3 + 0.3·(2 − 1.5) = 0.8, while the side edge
    /// itself costs 1.85 against 1.0 through v. (At α = (0.5, 0.5) the
    /// summed-cost term lifts h(p2) to h(p1) = 1.0, and the node-id
    /// tie-break agrees with Dijkstra.) Same total, same costs, different
    /// representative.
    #[test]
    fn exactly_tied_routes_may_differ_in_representative_only() {
        let mut b = GraphBuilder::new(2);
        let s = b.add_node(0.0, 0.0);
        let p1 = b.add_node(1.0, 1.0);
        let p2 = b.add_node(1.0, -1.0);
        let v = b.add_node(2.0, 0.0);
        let t = b.add_node(3.0, 0.0);
        let zero = CostVec::from_slice(&[0.0, 0.0]);
        for (from, to) in [(s, p1), (s, p2), (p1, v), (p2, v)] {
            b.add_directed_edge(from, to, zero).unwrap();
        }
        b.add_directed_edge(v, t, CostVec::from_slice(&[1.0, 1.0]))
            .unwrap();
        b.add_directed_edge(p2, t, CostVec::from_slice(&[0.5, 5.0]))
            .unwrap();
        let g = b.build().unwrap();
        let pref = Preference::new(&[0.7, 0.3]).unwrap();
        let prep = PrepTable::build(&g, t);
        let h = |v| table_bound(&g, &pref, &prep, v).unwrap() / HEURISTIC_DEFLATION;
        assert!((h(p1) - 1.0).abs() < 1e-12 && (h(p2) - 0.8).abs() < 1e-12);
        let plain = scalarized_path(&g, s, t, &pref).path.unwrap();
        let astar = scalarized_path_astar(&g, s, t, &pref, &prep).path.unwrap();
        assert_eq!(plain.total.to_bits(), astar.total.to_bits());
        assert_eq!(plain.costs, astar.costs);
        assert_eq!(plain.edges.len(), astar.edges.len());
        assert_ne!(plain.edges, astar.edges, "via p1 vs via p2");
    }

    #[test]
    #[should_panic(expected = "another target")]
    fn astar_rejects_mismatched_table() {
        let (g, s, t) = diamond();
        let prep = PrepTable::build(&g, s);
        scalarized_path_astar(&g, s, t, &Preference::uniform(2), &prep);
    }

    /// A 7 × 7 grid with seeded irregular costs, every node a candidate
    /// landmark.
    fn grid(directed_every: usize) -> MultiCostGraph {
        let mut b = GraphBuilder::new(2);
        let side = 7u32;
        let ids: Vec<NodeId> = (0..side * side)
            .map(|i| b.add_node((i % side) as f64, (i / side) as f64))
            .collect();
        let mut lcg = 0x5EED_u64;
        let mut cost = move || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((lcg >> 11) as f64 / (1u64 << 53) as f64) * 9.0 + 0.5
        };
        let mut k = 0;
        for i in 0..side * side {
            let mut link = |j: u32| {
                k += 1;
                let c = CostVec::from_slice(&[cost(), cost()]);
                let (a, z) = (ids[i as usize], ids[j as usize]);
                if directed_every > 0 && k % directed_every == 0 {
                    b.add_directed_edge(a, z, c).unwrap();
                    b.add_directed_edge(z, a, CostVec::from_slice(&[cost(), cost()]))
                        .unwrap();
                } else {
                    b.add_edge(a, z, c).unwrap();
                }
            };
            if i % side + 1 < side {
                link(i + 1);
            }
            if i + side < side * side {
                link(i + side);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn landmark_astar_matches_dijkstra_from_every_source() {
        for directed_every in [0, 3] {
            let g = grid(directed_every);
            assert_eq!(g.has_directed_edges(), directed_every > 0);
            let pref = Preference::new(&[0.3, 0.7]).unwrap();
            let t = NodeId::new(24);
            let tables = [0u32, 6, 42, 48].map(|l| PrepTable::build(&g, NodeId::new(l)));
            let landmarks: Vec<&PrepTable> = tables.iter().collect();
            let (mut plain_total, mut fast_total) = (0, 0);
            for s in (0..g.num_nodes()).map(NodeId::from) {
                let plain = scalarized_path(&g, s, t, &pref);
                let fast = scalarized_path_landmarks(&g, s, t, &pref, &landmarks);
                let (p, f) = (plain.path.unwrap(), fast.path.unwrap());
                assert_eq!(p.edges, f.edges, "{s} → {t}");
                assert_eq!(p.total.to_bits(), f.total.to_bits());
                assert_eq!(p.costs, f.costs);
                assert!(fast.stats.settled <= plain.stats.settled);
                plain_total += plain.stats.settled;
                fast_total += fast.stats.settled;
            }
            assert!(
                fast_total < plain_total,
                "corner landmarks settle {fast_total} vs Dijkstra's {plain_total}"
            );
        }
    }

    #[test]
    fn the_two_best_landmarks_at_the_source_drive_the_search() {
        // One-way edges: the bound is D(v→ℓ) − D(t→ℓ) clamped at zero, and
        // towards a corner target several landmarks tie at the source.
        let g = grid(3);
        let pref = Preference::new(&[0.6, 0.4]).unwrap();
        let t = NodeId::new(0);
        let tables = [48u32, 6, 42, 24, 3, 21, 27].map(|l| PrepTable::build(&g, NodeId::new(l)));
        let all: Vec<&PrepTable> = tables.iter().collect();
        let reversed: Vec<&PrepTable> = all.iter().rev().copied().collect();
        let mut deciding_ties = 0;
        for s in (0..g.num_nodes()).map(NodeId::from) {
            // Largest bound at s first; equal bounds to the smaller
            // landmark id.
            let mut ranked: Vec<(f64, &PrepTable)> = all
                .iter()
                .map(|&table| (landmark_bound(&g, t, &pref, table, s).unwrap(), table))
                .collect();
            ranked.sort_by(|a, b| {
                b.0.total_cmp(&a.0)
                    .then(a.1.target().raw().cmp(&b.1.target().raw()))
            });
            let chosen = scalarized_path_landmarks(&g, s, t, &pref, &[ranked[0].1, ranked[1].1]);
            assert_eq!(scalarized_path_landmarks(&g, s, t, &pref, &all), chosen);
            assert_eq!(
                scalarized_path_landmarks(&g, s, t, &pref, &reversed),
                chosen
            );
            if ranked[1].0 == ranked[2].0
                && scalarized_path_landmarks(&g, s, t, &pref, &[ranked[0].1, ranked[2].1]) != chosen
            {
                deciding_ties += 1;
            }
        }
        assert!(deciding_ties > 0, "no source where the tie-break decides");
    }

    #[test]
    fn without_a_usable_landmark_the_search_is_dijkstra() {
        // a — b, and a one-way c → a: c's table is one neither a nor b
        // reaches, so it carries no information about a target of b.
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let bn = b.add_node(1.0, 0.0);
        let c = b.add_node(2.0, 0.0);
        b.add_edge(a, bn, CostVec::from_slice(&[1.0, 2.0])).unwrap();
        b.add_directed_edge(c, a, CostVec::from_slice(&[1.0, 1.0]))
            .unwrap();
        let g = b.build().unwrap();
        let pref = Preference::uniform(2);
        let unusable = PrepTable::build(&g, c);
        assert!(!unusable.reaches(bn));
        assert_eq!(landmark_bound(&g, bn, &pref, &unusable, a), Some(0.0));
        for s in [a, bn, c] {
            let plain = scalarized_path(&g, s, bn, &pref);
            assert_eq!(scalarized_path_landmarks(&g, s, bn, &pref, &[]), plain);
            assert_eq!(
                scalarized_path_landmarks(&g, s, bn, &pref, &[&unusable]),
                plain
            );
        }
    }

    #[test]
    fn a_node_cut_off_from_a_landmark_the_target_reaches_is_pruned() {
        // w → t → ℓ → v, all one-way: v reaches nothing, w reaches t.
        let mut b = GraphBuilder::new(2);
        let w = b.add_node(0.0, 0.0);
        let t = b.add_node(1.0, 0.0);
        let l = b.add_node(2.0, 0.0);
        let v = b.add_node(3.0, 0.0);
        for (from, to) in [(w, t), (t, l), (l, v)] {
            b.add_directed_edge(from, to, CostVec::from_slice(&[1.0, 3.0]))
                .unwrap();
        }
        let g = b.build().unwrap();
        let pref = Preference::uniform(2);
        let table = PrepTable::build(&g, l);
        assert!(table.reaches(t) && !table.reaches(v));
        // t reaches ℓ and v does not, so v cannot reach t: no work at all.
        assert_eq!(landmark_bound(&g, t, &pref, &table, v), None);
        let dead = scalarized_path_landmarks(&g, v, t, &pref, &[&table]);
        assert_eq!(dead.path, None);
        assert_eq!(dead.stats, ScalarStats::default());
        // w's bound is w → t's cost, less the margin.
        let h = landmark_bound(&g, t, &pref, &table, w).unwrap();
        assert!(h < 2.0 && h > 2.0 * (1.0 - 1e-8), "{h}");
        let live = scalarized_path_landmarks(&g, w, t, &pref, &[&table]);
        assert_eq!(live.path, scalarized_path(&g, w, t, &pref).path);
    }

    /// The landmark bound is admissible but, near a far landmark, not
    /// consistent: ℓ lies 10⁶ beyond t, so the scan rounds D(u→ℓ) =
    /// fl(7·10⁻¹¹ + D(w→ℓ)) up a whole ulp of 10⁶ (1.16·10⁻¹⁰), and h drops
    /// by more than the u → w edge costs. s reaches w directly through a for
    /// 1 + 10⁻¹⁰, or through u for 1 + 7·10⁻¹¹; the a-route's f-value at w
    /// sits below u's, so w is popped first with the worse distance. The
    /// search must reopen w when u improves it.
    #[test]
    fn a_node_settled_early_by_an_inconsistent_bound_is_reopened() {
        let mut b = GraphBuilder::new(2);
        let s = b.add_node(0.0, 0.0);
        let u = b.add_node(1.0, 1.0);
        let a = b.add_node(1.0, -1.0);
        let w = b.add_node(2.0, 0.0);
        let t = b.add_node(3.0, 0.0);
        let l = b.add_node(4.0, 0.0);
        let both = |c: f64| CostVec::from_slice(&[c, c]);
        b.add_edge(s, u, both(1.0)).unwrap();
        b.add_edge(u, w, both(7e-11)).unwrap();
        b.add_edge(s, a, both(0.5)).unwrap();
        b.add_edge(a, w, both(0.5 + 1e-10)).unwrap();
        b.add_edge(w, t, both(1.0)).unwrap();
        b.add_edge(t, l, both(1e6)).unwrap();
        let g = b.build().unwrap();
        let pref = Preference::uniform(2);
        let table = PrepTable::build(&g, l);
        let h = |v| landmark_bound(&g, t, &pref, &table, v).unwrap();
        let g_u = scalarized_path(&g, s, u, &pref).path.unwrap().total;
        let g_a = scalarized_path(&g, s, a, &pref).path.unwrap().total;
        let c_aw = 0.5 + 1e-10;
        assert!(h(u) - h(w) > 7e-11, "the bound is inconsistent on u → w");
        assert!(g_a + c_aw + h(w) < g_u + h(u), "w pops before u");
        let plain = scalarized_path(&g, s, t, &pref);
        let fast = scalarized_path_landmarks(&g, s, t, &pref, &[&table]);
        let p = plain.path.unwrap();
        assert_eq!(p.edges.len(), 3, "through u");
        assert_eq!(fast.path.unwrap(), p);
    }

    /// The input the landmark margin exists for. t—ℓ costs 10⁶, and v—t
    /// costs 7·10⁻¹¹: more than half an ulp of 10⁶ (1.16·10⁻¹⁰), so the
    /// scan stores D(v→ℓ) = 10⁶ + 1 ulp and the unmargined bound at v is
    /// 1.16·10⁻¹⁰, above the 7·10⁻¹¹ that v → t costs. s reaches t directly
    /// for 1 + 10⁻¹⁰ or through v for 1 + 7·10⁻¹¹; an overestimate at v
    /// would pop t on the direct edge first.
    #[test]
    fn landmark_margin_absorbs_scan_rounding() {
        let mut b = GraphBuilder::new(2);
        let s = b.add_node(0.0, 0.0);
        let v = b.add_node(1.0, 1.0);
        let t = b.add_node(2.0, 0.0);
        let l = b.add_node(3.0, 0.0);
        let both = |c: f64| CostVec::from_slice(&[c, c]);
        b.add_edge(s, v, both(1.0)).unwrap();
        b.add_edge(v, t, both(7e-11)).unwrap();
        b.add_edge(s, t, both(1.0 + 1e-10)).unwrap();
        b.add_edge(t, l, both(1e6)).unwrap();
        let g = b.build().unwrap();
        let pref = Preference::uniform(2);
        let table = PrepTable::build(&g, l);
        assert_eq!(table.bound(t)[0], 1e6);
        assert!(table.bound(v)[0] - table.bound(t)[0] > 7e-11, "v rounds up");
        let plain = scalarized_path(&g, s, t, &pref).path.unwrap();
        assert_eq!(plain.edges.len(), 2, "through v");
        let fast = scalarized_path_landmarks(&g, s, t, &pref, &[&table]);
        assert_eq!(fast.path.unwrap(), plain);
        for node in [s, v, t, l] {
            let exact = scalarized_path(&g, node, t, &pref).path.unwrap().total;
            let h = landmark_bound(&g, t, &pref, &table, node).unwrap();
            assert!(h <= exact, "h({node}) = {h} > {exact}");
        }
    }
}
