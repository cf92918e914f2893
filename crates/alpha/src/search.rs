//! Deterministic scalarized shortest-path search (Dijkstra and prep-backed
//! A*).

use crate::preference::Preference;
use mcn_graph::{CostVec, EdgeId, MultiCostGraph, NodeId};
use mcn_prep::PrepTable;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Relative deflation applied to the A* heuristic α·L(v).
///
/// Same constant and rationale as `mcn-mcpp`: the prep scan accumulates the
/// bounds backward (target → v) while the search accumulates forward
/// (v → target), and float addition is not associative, so a mathematically
/// exact bound can exceed the forward sum by a few ulps. Scaling the
/// heuristic down by 1e-9 relative keeps it admissible *and* consistent
/// (δ·h still satisfies the triangle inequality) without giving up any
/// measurable pruning power.
const HEURISTIC_DEFLATION: f64 = 1.0 - 1e-9;

/// Counters describing one scalarized search, mirroring `mcn-mcpp`'s
/// `PathStats` for the skyline tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScalarStats {
    /// Heap entries pushed (duplicates stand in for decrease-key).
    pub pushed: u64,
    /// Nodes settled — popped with their final distance. The headline
    /// number: A* vs Dijkstra settled counts is exactly the work the
    /// heuristic saves.
    pub settled: u64,
    /// Edge relaxations attempted from settled nodes.
    pub relaxed: u64,
    /// Candidates discarded: stale heap entries, relaxations that did not
    /// improve the tentative distance, and neighbors the prep table proves
    /// cannot reach the target.
    pub pruned: u64,
}

impl ScalarStats {
    /// Fraction of relaxations that failed to improve a label (0 when no
    /// relaxation happened).
    pub fn prune_fraction(&self) -> f64 {
        let total = self.relaxed + self.pushed;
        if total == 0 {
            0.0
        } else {
            self.pruned as f64 / total as f64
        }
    }
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
    search(graph, source, target, pref, None)
}

/// α-optimal path by A* with the consistent heuristic h(v) = α·L(v), where
/// L(v) is the per-cost lower-bound vector of `prep` (a backward scan
/// towards `target`). Returns the exact same path as [`scalarized_path`]
/// while settling only the nodes whose f-value does not exceed the optimum
/// — the serving-tier fast path. (When two distinct routes tie on exactly
/// equal scalarized cost the two variants may each return a different one
/// of the tied routes.)
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
    assert_eq!(
        prep.num_nodes(),
        graph.num_nodes(),
        "prep table built for another graph"
    );
    assert_eq!(
        prep.cost_types(),
        graph.num_cost_types(),
        "prep table built for another cost dimensionality"
    );
    search(graph, source, target, pref, Some(prep))
}

/// Shared engine of both variants; `prep = None` degenerates the heuristic
/// to 0 and A* to Dijkstra.
fn search(
    graph: &MultiCostGraph,
    source: NodeId,
    target: NodeId,
    pref: &Preference,
    prep: Option<&PrepTable>,
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

    // With a prep table, an unreachable source is known before any search.
    if let Some(table) = prep {
        if !table.reaches(source) {
            return ScalarResult { path: None, stats };
        }
    }

    let h = |v: NodeId| -> Option<f64> {
        match prep {
            Some(table) => {
                if table.reaches(v) {
                    Some(pref.cost_of(table.bound(v)) * HEURISTIC_DEFLATION)
                } else {
                    None
                }
            }
            None => Some(0.0),
        }
    };

    const NO_PARENT: u32 = u32::MAX;
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![NO_PARENT; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();

    dist[source.index()] = 0.0;
    let h0 = h(source).expect("source reachability checked above");
    heap.push(HeapEntry {
        key: h0,
        node: source.raw(),
    });
    stats.pushed += 1;

    let mut found = false;
    while let Some(entry) = heap.pop() {
        let u = NodeId::from(entry.node);
        // Duplicate pushes stand in for decrease-key; every improvement
        // strictly lowers the key, so the first pop of a node carries its
        // final distance and later pops are stale.
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
            if settled[nb.node.index()] {
                stats.pruned += 1;
                continue;
            }
            let hn = match h(nb.node) {
                Some(v) => v,
                None => {
                    // The prep table proves this neighbor cannot reach the
                    // target: the whole subtree is dead.
                    stats.pruned += 1;
                    continue;
                }
            };
            let cand = du + pref.cost_of(&nb.costs);
            if cand < dist[nb.node.index()] {
                dist[nb.node.index()] = cand;
                parent[nb.node.index()] = nb.edge.raw();
                heap.push(HeapEntry {
                    key: cand + hn,
                    node: nb.node.raw(),
                });
                stats.pushed += 1;
            } else {
                stats.pruned += 1;
            }
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
    /// the target gives it the smaller bound. Same total, same costs,
    /// different representative.
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
        let pref = Preference::new(&[0.5, 0.5]).unwrap();
        let prep = PrepTable::build(&g, t);
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
}
