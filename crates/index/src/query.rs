//! Index-served queries: bidirectional upward searches that answer both
//! query kinds byte-identically to the prep-backed tier.

use crate::structure::{pareto_merge, pareto_merge_d, RouteIndex, UpArc};
use mcn_alpha::{Preference, ScalarPath, ScalarResult, ScalarStats};
use mcn_graph::dominance::{lanes, lex_cmp};
use mcn_graph::{CostVec, EdgeId, MultiCostGraph, NodeId, MAX_COST_TYPES};
use mcn_mcpp::ParetoLabel;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Outcome of [`RouteIndex::skyline_paths`]: the full path skyline plus the
/// search counters.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexSkylineResult {
    /// The path skyline in lexicographic cost order, byte-identical to
    /// `mcn_mcpp::pareto_paths_prepped`'s.
    pub paths: Vec<ParetoLabel>,
    /// Search counters of the upward label searches, which count labels
    /// where the α search counts nodes: `settled` labels taken from the
    /// queues, `pushed` labels inserted, `relaxed` upward-arc bundle
    /// entries examined, `pruned` stale pops and dominance rejections.
    pub stats: ScalarStats,
}

/// Heap entry of the scalarized upward Dijkstra — the same reversed
/// `total_cmp` ordering with node-id tie-break as `mcn-alpha`, so the pop
/// order (hence the surviving parent on ties) is deterministic.
#[derive(Clone, Copy, Debug)]
struct HeapEntry {
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
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// One direction of the bidirectional scalarized search.
struct Side {
    dist: Vec<f64>,
    parent_node: Vec<u32>,
    parent_frag: Vec<u32>,
    settled: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
    stopped: bool,
}

impl Side {
    fn new(n: usize, start: u32) -> Self {
        let mut side = Self {
            dist: vec![f64::INFINITY; n],
            parent_node: vec![u32::MAX; n],
            parent_frag: vec![u32::MAX; n],
            settled: vec![false; n],
            heap: BinaryHeap::new(),
            stopped: false,
        };
        side.dist[start as usize] = 0.0;
        side.heap.push(HeapEntry {
            key: 0.0,
            node: start,
        });
        side
    }

    fn top_key(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.key)
    }
}

/// Settles one node of `side`, relaxing its upward arcs; updates the
/// tentative best meeting `(cost, node)` when the node is settled in both
/// directions.
///
/// `stall_arcs` is the *opposite* upward adjacency (`up_in` for the
/// forward search, `up_out` for the backward one): a strictly cheaper
/// arrival at the popped node through one of those downward arcs proves
/// the node cannot be the apex of an optimal up-down path, so its own
/// arcs are never relaxed (stall-on-demand). The popped distance is still
/// the exact upward-search distance, so marking the node settled keeps
/// every remaining meet candidate a real — merely non-optimal — path.
#[allow(clippy::too_many_arguments)]
fn alpha_step(
    side: &mut Side,
    other: &Side,
    arcs: &[Vec<UpArc>],
    stall_arcs: &[Vec<UpArc>],
    pref: &Preference,
    best: &mut f64,
    meet: &mut Option<u32>,
    stats: &mut ScalarStats,
) {
    let Some(top) = side.heap.peek().copied() else {
        side.stopped = true;
        return;
    };
    if top.key >= *best {
        // Upward keys only grow: nothing beyond the frontier can improve
        // the best meeting found so far.
        side.stopped = true;
        return;
    }
    side.heap.pop();
    let v = top.node as usize;
    if side.settled[v] {
        stats.pruned += 1;
        return;
    }
    side.settled[v] = true;
    for arc in &stall_arcs[v] {
        let head = arc.head as usize;
        if !side.dist[head].is_finite() {
            continue;
        }
        let mut w = f64::INFINITY;
        for e in &arc.entries {
            let c = pref.cost_of(e.costs.as_slice());
            if c < w {
                w = c;
            }
        }
        if side.dist[head] + w < side.dist[v] {
            // Stalled: a downward detour through `head` reaches this node
            // strictly cheaper, so no optimal up-down path peaks here.
            stats.pruned += 1;
            return;
        }
    }
    stats.settled += 1;
    if other.settled[v] {
        let through = side.dist[v] + other.dist[v];
        if through < *best {
            *best = through;
            *meet = Some(top.node);
        }
    }
    let dv = side.dist[v];
    for arc in &arcs[v] {
        let head = arc.head as usize;
        if side.settled[head] {
            stats.pruned += 1;
            continue;
        }
        // The cheapest scalarization over the bundle; strict `<` keeps the
        // first of equals in the deterministic lexicographic order.
        let mut best_w = f64::INFINITY;
        let mut best_frag = u32::MAX;
        for e in &arc.entries {
            stats.relaxed += 1;
            let w = pref.cost_of(e.costs.as_slice());
            if w < best_w {
                best_w = w;
                best_frag = e.frag;
            }
        }
        let cand = dv + best_w;
        if cand < side.dist[head] {
            side.dist[head] = cand;
            side.parent_node[head] = top.node;
            side.parent_frag[head] = best_frag;
            side.heap.push(HeapEntry {
                key: cand,
                node: arc.head,
            });
            stats.pushed += 1;
        } else {
            stats.pruned += 1;
        }
    }
}

/// How an admitted upward label was reached: the label it extends and the
/// bundle entry's fragment.
#[derive(Clone, Copy)]
struct Link {
    parent: u32,
    frag: u32,
}

/// The id of a search's start label, where every parent chain ends.
const ROOT: u32 = u32::MAX;

/// One upward search's result at `D` cost types: per-node Pareto sets of
/// `(costs, label id)` and the arena the ids index.
struct UpwardLabels<const D: usize> {
    sets: Vec<Vec<([f64; D], u32)>>,
    arena: Vec<Link>,
}

impl<const D: usize> UpwardLabels<D> {
    /// Appends label `id`'s fragments to `out`, its own arc first and the
    /// arc at the search's start last.
    fn chain_into(&self, mut id: u32, out: &mut Vec<u32>) {
        while id != ROOT {
            let link = self.arena[id as usize];
            out.push(link.frag);
            id = link.parent;
        }
    }
}

impl RouteIndex {
    /// Asserts that both endpoints are nodes of the indexed graph, naming
    /// the first that is not.
    fn check_endpoints(&self, source: NodeId, target: NodeId) {
        let n = self.num_nodes;
        for (role, node) in [("source", source), ("target", target)] {
            assert!(
                node.index() < n,
                "node out of range: {role} {node} on a graph of {n} nodes"
            );
        }
    }

    /// The α-optimal `source → target` path through the hierarchy: a
    /// bidirectional upward Dijkstra (forward over `up_out`, backward over
    /// `up_in`) meeting at the apex of the optimal up-down path. The
    /// returned totals and cost vectors are recomputed edge-by-edge in path
    /// order after unpacking, so the result is byte-identical to
    /// [`mcn_alpha::scalarized_path`] (up to the exact-ties caveat on the
    /// crate docs). The counters are the α search's, with `relaxed`
    /// counting upward-arc bundle entries examined.
    ///
    /// # Panics
    /// Panics if the index shape does not match `graph`/`pref` or an
    /// endpoint is out of range.
    pub fn alpha_path(
        &self,
        graph: &MultiCostGraph,
        source: NodeId,
        target: NodeId,
        pref: &Preference,
    ) -> ScalarResult {
        assert_eq!(self.num_nodes, graph.num_nodes(), "index/graph node count");
        assert_eq!(self.dims, graph.num_cost_types(), "index/graph dims");
        assert_eq!(pref.cost_types(), self.dims, "preference dims");
        self.check_endpoints(source, target);
        let mut stats = ScalarStats::default();
        if source == target {
            stats.settled = 1;
            return ScalarResult {
                path: Some(ScalarPath {
                    total: 0.0,
                    costs: CostVec::zeros(self.dims),
                    edges: Vec::new(),
                }),
                stats,
            };
        }

        let mut fwd = Side::new(self.num_nodes, source.raw());
        let mut bwd = Side::new(self.num_nodes, target.raw());
        let mut best = f64::INFINITY;
        let mut meet: Option<u32> = None;
        while !(fwd.stopped && bwd.stopped) {
            // Alternate by the smaller frontier key, forward on ties.
            let fwd_turn = match (fwd.stopped, bwd.stopped) {
                (true, _) => false,
                (_, true) => true,
                (false, false) => {
                    let fk = fwd.top_key().unwrap_or(f64::INFINITY);
                    let bk = bwd.top_key().unwrap_or(f64::INFINITY);
                    fk <= bk
                }
            };
            if fwd_turn {
                alpha_step(
                    &mut fwd,
                    &bwd,
                    &self.up_out,
                    &self.up_in,
                    pref,
                    &mut best,
                    &mut meet,
                    &mut stats,
                );
            } else {
                alpha_step(
                    &mut bwd,
                    &fwd,
                    &self.up_in,
                    &self.up_out,
                    pref,
                    &mut best,
                    &mut meet,
                    &mut stats,
                );
            }
        }

        let Some(m) = meet else {
            return ScalarResult { path: None, stats };
        };

        // Unpack: forward fragments walk meet → source (each travels
        // parent → child), backward fragments walk meet → target (each
        // travels child → parent); both end up in travel order.
        let mut frags: Vec<u32> = Vec::new();
        let mut cur = m;
        while cur != source.raw() {
            frags.push(fwd.parent_frag[cur as usize]);
            cur = fwd.parent_node[cur as usize];
        }
        frags.reverse();
        let mut cur = m;
        while cur != target.raw() {
            frags.push(bwd.parent_frag[cur as usize]);
            cur = bwd.parent_node[cur as usize];
        }
        let mut edges: Vec<EdgeId> = Vec::new();
        for f in frags {
            self.unpack_into(f, &mut edges);
        }
        // Recompute in path order: the same left fold as the prep-backed
        // A*, so the bits match — the shortcut-order sums never leak out.
        let mut total = 0.0;
        let mut costs = CostVec::zeros(self.dims);
        for &eid in &edges {
            let e = graph.edge(eid);
            total += pref.cost_of(e.costs.as_slice());
            costs += e.costs;
        }
        ScalarResult {
            path: Some(ScalarPath {
                total,
                costs,
                edges,
            }),
            stats,
        }
    }

    /// The full `source → target` path skyline through the hierarchy:
    /// Pareto label-correcting searches over both upward directions,
    /// dominance-merged at every meeting node. Costs are recomputed
    /// edge-by-edge in path order, so the result is byte-identical to
    /// `mcn_mcpp::pareto_paths_prepped` (same ties caveat as
    /// [`RouteIndex::alpha_path`]). Checks the endpoints and hands the
    /// query to the kernel compiled for the index's width.
    ///
    /// # Panics
    /// Panics if the index shape does not match `graph` or an endpoint is
    /// out of range.
    pub fn skyline_paths(
        &self,
        graph: &MultiCostGraph,
        source: NodeId,
        target: NodeId,
    ) -> IndexSkylineResult {
        assert_eq!(self.num_nodes, graph.num_nodes(), "index/graph node count");
        assert_eq!(self.dims, graph.num_cost_types(), "index/graph dims");
        self.check_endpoints(source, target);
        let mut stats = ScalarStats::default();
        if source == target {
            stats.settled = 1;
            return IndexSkylineResult {
                paths: vec![ParetoLabel {
                    node: target,
                    costs: CostVec::zeros(self.dims),
                    edges: Vec::new(),
                }],
                stats,
            };
        }

        // `CostVec` holds 1..=MAX_COST_TYPES costs; the arms cover each width.
        const _: () = assert!(MAX_COST_TYPES == 8);
        match self.dims {
            1 => self.skyline_d::<1>(graph, source, target),
            2 => self.skyline_d::<2>(graph, source, target),
            3 => self.skyline_d::<3>(graph, source, target),
            4 => self.skyline_d::<4>(graph, source, target),
            5 => self.skyline_d::<5>(graph, source, target),
            6 => self.skyline_d::<6>(graph, source, target),
            7 => self.skyline_d::<7>(graph, source, target),
            8 => self.skyline_d::<8>(graph, source, target),
            d => unreachable!("a graph has 1..={MAX_COST_TYPES} cost types, not {d}"),
        }
    }

    /// [`RouteIndex::skyline_paths`] at `D` cost types, for distinct
    /// endpoints: the upward label sets and the meeting-node merge hold
    /// `[f64; D]`, and only the merge's survivors become [`CostVec`]s
    /// again, for the path-order re-filter.
    fn skyline_d<const D: usize>(
        &self,
        graph: &MultiCostGraph,
        source: NodeId,
        target: NodeId,
    ) -> IndexSkylineResult {
        let mut stats = ScalarStats::default();
        let fwd = self.upward_labels::<D>(source.raw(), &self.up_out, &mut stats);
        let bwd = self.upward_labels::<D>(target.raw(), &self.up_in, &mut stats);

        // Dominance-merge the combinations at every node reached from both
        // sides. The pre-filter uses the label sums; survivors are
        // re-filtered on path-order costs below, so the final skyline is
        // decided by exactly the arithmetic the prep-backed tier uses.
        let mut combos: Vec<([f64; D], (u32, u32))> = Vec::new();
        for (fs, bs) in fwd.sets.iter().zip(&bwd.sets) {
            for (cf, f) in fs {
                for (cb, b) in bs {
                    let sum = std::array::from_fn(|i| cf[i] + cb[i]);
                    if !pareto_merge_d(&mut combos, sum, (*f, *b)) {
                        stats.pruned += 1;
                    }
                }
            }
        }

        let mut skyline: Vec<(CostVec, ParetoLabel)> = Vec::new();
        let mut frags: Vec<u32> = Vec::new();
        for (_, (f, b)) in combos {
            // A forward chain runs meet → source, so it is reversed; a
            // backward chain runs meet → target, already in travel order.
            frags.clear();
            fwd.chain_into(f, &mut frags);
            frags.reverse();
            bwd.chain_into(b, &mut frags);
            let mut edges: Vec<EdgeId> = Vec::new();
            for &frag in &frags {
                self.unpack_into(frag, &mut edges);
            }
            let mut costs = CostVec::zeros(self.dims);
            for &eid in &edges {
                costs += graph.edge(eid).costs;
            }
            let label = ParetoLabel {
                node: target,
                costs,
                edges,
            };
            if !pareto_merge(&mut skyline, costs, label) {
                stats.pruned += 1;
            }
        }
        let mut paths: Vec<ParetoLabel> = skyline.into_iter().map(|(_, l)| l).collect();
        paths.sort_by(|a, b| a.costs.lex_cmp(&b.costs));
        IndexSkylineResult { paths, stats }
    }

    /// FIFO Pareto label-correcting over one upward direction at `D` cost
    /// types. A node's Pareto set holds `([f64; D], label id)`; the id
    /// indexes a per-search arena of `(parent id, fragment)` links ending
    /// at [`ROOT`], so a relaxation copies no path and one the set rejects
    /// records nothing. A bundle entry's costs are added lane by lane, in
    /// the order `CostVec + CostVec` adds them.
    ///
    /// Same output and counters as storing each label's fragment list:
    /// queue order and every [`pareto_merge_d`] verdict depend on costs
    /// only, and a set never holds two equal cost vectors, so the
    /// stale-pop test by costs still finds exactly the label that was
    /// queued.
    fn upward_labels<const D: usize>(
        &self,
        start: u32,
        arcs: &[Vec<UpArc>],
        stats: &mut ScalarStats,
    ) -> UpwardLabels<D> {
        let mut sets: Vec<Vec<([f64; D], u32)>> = vec![Vec::new(); self.num_nodes];
        let mut arena: Vec<Link> = Vec::new();
        sets[start as usize].push(([0.0; D], ROOT));
        let mut queue: VecDeque<(u32, [f64; D], u32)> = VecDeque::new();
        queue.push_back((start, [0.0; D], ROOT));
        while let Some((node, costs, id)) = queue.pop_front() {
            // Stale labels — evicted from the node's Pareto set since they
            // were queued — are skipped. Equal cost vectors never co-exist
            // in a set, so membership of the costs identifies the label.
            let set = &sets[node as usize];
            let pos = set.partition_point(|(c, _)| lex_cmp(c, &costs).is_lt());
            if set.get(pos).is_none_or(|(c, _)| *c != costs) {
                stats.pruned += 1;
                continue;
            }
            stats.settled += 1;
            for arc in &arcs[node as usize] {
                let head = &mut sets[arc.head as usize];
                for e in &arc.entries {
                    stats.relaxed += 1;
                    let step: [f64; D] = lanes(e.costs.as_slice());
                    let nc = std::array::from_fn(|i| costs[i] + step[i]);
                    let next = u32::try_from(arena.len())
                        .ok()
                        .filter(|&next| next != ROOT)
                        .expect("label arena holds fewer than u32::MAX labels");
                    if pareto_merge_d(head, nc, next) {
                        arena.push(Link {
                            parent: id,
                            frag: e.frag,
                        });
                        stats.pushed += 1;
                        queue.push_back((arc.head, nc, next));
                    } else {
                        stats.pruned += 1;
                    }
                }
            }
        }
        UpwardLabels { sets, arena }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexConfig;
    use mcn_graph::GraphBuilder;

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

    #[test]
    fn diamond_alpha_and_skyline_match_the_direct_algorithms() {
        let (g, s, t) = diamond();
        let idx = RouteIndex::build(&g, &IndexConfig::default());
        for (w0, w1) in [(1.0, 0.0), (0.7, 0.3), (0.5, 0.5), (0.1, 0.9)] {
            let pref = Preference::new(&[w0, w1]).unwrap();
            let direct = mcn_alpha::scalarized_path(&g, s, t, &pref);
            let via = idx.alpha_path(&g, s, t, &pref);
            assert_eq!(via.path, direct.path, "alpha ({w0}, {w1})");
        }
        let direct = mcn_mcpp::pareto_paths(&g, s, t);
        let via = idx.skyline_paths(&g, s, t);
        assert_eq!(via.paths, direct);
        assert_eq!(via.paths.len(), 2);
    }

    #[test]
    fn identical_endpoints_answer_immediately() {
        let (g, s, _) = diamond();
        let idx = RouteIndex::build(&g, &IndexConfig::default());
        let pref = Preference::uniform(2);
        let via = idx.alpha_path(&g, s, s, &pref);
        assert_eq!(via.path.as_ref().unwrap().total, 0.0);
        assert!(via.path.unwrap().edges.is_empty());
        assert_eq!(via.stats.settled, 1);
        let sky = idx.skyline_paths(&g, s, s);
        assert_eq!(sky.paths.len(), 1);
        assert!(sky.paths[0].edges.is_empty());
    }

    #[test]
    fn unreachable_targets_return_empty_results() {
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        let lone = b.add_node(9.0, 9.0);
        b.add_edge(a, c, CostVec::from_slice(&[1.0, 1.0])).unwrap();
        let g = b.build().unwrap();
        let idx = RouteIndex::build(&g, &IndexConfig::default());
        let via = idx.alpha_path(&g, a, lone, &Preference::uniform(2));
        assert!(via.path.is_none());
        assert!(idx.skyline_paths(&g, a, lone).paths.is_empty());
    }

    #[test]
    #[should_panic(expected = "node out of range: source v4 on a graph of 4 nodes")]
    fn alpha_path_names_an_out_of_range_source() {
        let (g, _, t) = diamond();
        let idx = RouteIndex::build(&g, &IndexConfig::default());
        let _ = idx.alpha_path(&g, NodeId::new(4), t, &Preference::uniform(2));
    }

    #[test]
    #[should_panic(expected = "node out of range: target v9 on a graph of 4 nodes")]
    fn alpha_path_names_an_out_of_range_target() {
        let (g, s, _) = diamond();
        let idx = RouteIndex::build(&g, &IndexConfig::default());
        let _ = idx.alpha_path(&g, s, NodeId::new(9), &Preference::uniform(2));
    }

    #[test]
    #[should_panic(expected = "node out of range: source v4 on a graph of 4 nodes")]
    fn skyline_paths_names_an_out_of_range_source() {
        let (g, _, t) = diamond();
        let idx = RouteIndex::build(&g, &IndexConfig::default());
        let _ = idx.skyline_paths(&g, NodeId::new(4), t);
    }

    #[test]
    #[should_panic(expected = "node out of range: target v9 on a graph of 4 nodes")]
    fn skyline_paths_names_an_out_of_range_target() {
        let (g, s, _) = diamond();
        let idx = RouteIndex::build(&g, &IndexConfig::default());
        let _ = idx.skyline_paths(&g, s, NodeId::new(9));
    }

    #[test]
    fn directed_line_routes_one_way_only() {
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let m = b.add_node(1.0, 0.0);
        let c = b.add_node(2.0, 0.0);
        b.add_directed_edge(a, m, CostVec::from_slice(&[1.0, 2.0]))
            .unwrap();
        b.add_directed_edge(m, c, CostVec::from_slice(&[2.0, 1.0]))
            .unwrap();
        let g = b.build().unwrap();
        let idx = RouteIndex::build(&g, &IndexConfig::default());
        let pref = Preference::uniform(2);
        let fwd = idx.alpha_path(&g, a, c, &pref);
        let direct = mcn_alpha::scalarized_path(&g, a, c, &pref);
        assert_eq!(fwd.path, direct.path);
        assert_eq!(fwd.path.unwrap().edges.len(), 2);
        assert!(idx.alpha_path(&g, c, a, &pref).path.is_none());
        assert!(idx.skyline_paths(&g, c, a).paths.is_empty());
    }
}
