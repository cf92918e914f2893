//! The ParetoPrep precomputation table: per-cost lower bounds to a target.

use mcn_graph::{CostVec, EdgeId, MultiCostGraph, NodeId};

/// Sentinel stored in the parent array for "no parent edge".
const NO_PARENT: u32 = u32::MAX;

/// Per-cost-type lower bounds from every network node to one **target**
/// node, produced by a single backward multi-criteria scan (ParetoPrep,
/// Shekelyan et al.).
///
/// For each node `v` the table stores the vector `L(v)` whose `i`-th
/// component is the single-criterion shortest-path distance from `v` to the
/// target under cost type `i`. Because every component is an independent
/// shortest distance, `L(v)` is **admissible**: any `v → target` path has a
/// cost vector `c` with `L(v) ≤ c` component-wise. The pruned path-skyline
/// search in `mcn-mcpp` exploits that: a partial path with accumulated cost
/// `a` at node `v` can only complete to cost vectors dominating-or-equal to
/// `a + L(v)`, so the whole subtree can be cut as soon as that *bound
/// vector* is dominated.
///
/// The scan also records, per node and cost type, the first edge of a
/// concrete `v → target` path achieving the component's shortest distance.
/// Following those parent edges from a query source yields up to `d` real
/// paths whose full cost vectors are **global upper bounds** — see
/// [`PrepTable::upper_bound_cuts`].
///
/// A table is immutable once built and independent of the query source, so
/// one scan serves every query towards the same target (the `PrepCache` in
/// this crate caches tables per target for exactly that reason).
#[derive(Clone, Debug, PartialEq)]
pub struct PrepTable {
    target: NodeId,
    cost_types: usize,
    /// `L(v)` per node id; `∞` in every component when the target is
    /// unreachable from `v` (or `v` lies outside a restricted scan).
    bounds: Vec<CostVec>,
    /// Flattened `num_nodes × d` array: `parents[v·d + i]` is the raw id of
    /// the first edge of a `v → target` path realising `L(v)[i]`
    /// ([`NO_PARENT`] when none).
    parents: Vec<u32>,
    /// True iff the scan was restricted to a node subset.
    restricted: bool,
    /// Edge relaxations performed by the scan (a deterministic cost metric).
    relaxations: u64,
    /// Queue pops performed by the scan — the "nodes settled" analogue the
    /// serving tiers compare their own settle counts against.
    settled: u64,
}

const _: () = crate::assert_send_sync::<PrepTable>();

impl PrepTable {
    /// Runs the backward scan over the whole graph.
    ///
    /// # Panics
    /// Panics if `target` is out of range.
    pub fn build(graph: &MultiCostGraph, target: NodeId) -> Self {
        Self::scan(graph, target, None)
    }

    /// Runs the backward scan restricted to the sub-network induced by
    /// `nodes` (which must contain `target`): only nodes of the set are
    /// relaxed, every other node keeps `∞` bounds.
    ///
    /// The resulting bounds are admissible for paths that stay **inside**
    /// the node set — the contract under which repeated queries over a fixed
    /// region (e.g. one partition shard) reuse a single cheap scan. The
    /// pruned search treats `∞`-bound nodes as unreachable, so running it
    /// with a restricted table computes the path skyline of the induced
    /// sub-network.
    ///
    /// # Panics
    /// Panics if `target` is not a member of `nodes` or any id is out of
    /// range.
    pub fn build_restricted(graph: &MultiCostGraph, target: NodeId, nodes: &[NodeId]) -> Self {
        let mut allowed = vec![false; graph.num_nodes()];
        for &n in nodes {
            allowed[n.index()] = true;
        }
        assert!(
            allowed[target.index()],
            "restricted scan requires the target {target} to be in the node set"
        );
        Self::scan(graph, target, Some(&allowed))
    }

    /// The shared backward label-correcting scan. One pass computes all `d`
    /// per-component shortest distances simultaneously: a FIFO queue of
    /// nodes whose bound vector improved, relaxing every edge that can be
    /// traversed *towards* the queue node. Deterministic: iteration order is
    /// the graph's adjacency order and the queue is FIFO.
    fn scan(graph: &MultiCostGraph, target: NodeId, allowed: Option<&[bool]>) -> Self {
        let n = graph.num_nodes();
        let d = graph.num_cost_types();
        assert!(target.index() < n, "target {target} out of range");
        let mut bounds = vec![CostVec::infinity(d); n];
        let mut parents = vec![NO_PARENT; n * d];
        let mut relaxations = 0u64;
        let mut settled = 0u64;
        bounds[target.index()] = CostVec::zeros(d);

        let mut queue = std::collections::VecDeque::with_capacity(n);
        let mut queued = vec![false; n];
        queue.push_back(target);
        queued[target.index()] = true;

        while let Some(u) = queue.pop_front() {
            queued[u.index()] = false;
            settled += 1;
            let reached = bounds[u.index()];
            for &eid in graph.incident_edges(u) {
                let e = graph.edge(eid);
                let v = e.opposite(u);
                if let Some(allowed) = allowed {
                    if !allowed[v.index()] {
                        continue;
                    }
                }
                // The forward search travels v → u, so the edge must be
                // traversable from v.
                if !e.traversable_from(v) {
                    continue;
                }
                relaxations += 1;
                let mut improved = false;
                for i in 0..d {
                    let candidate = e.costs[i] + reached[i];
                    if candidate < bounds[v.index()][i] {
                        bounds[v.index()][i] = candidate;
                        parents[v.index() * d + i] = eid.raw();
                        improved = true;
                    }
                }
                if improved && !queued[v.index()] {
                    queued[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }

        Self {
            target,
            cost_types: d,
            bounds,
            parents,
            restricted: allowed.is_some(),
            relaxations,
            settled,
        }
    }

    /// The target node the scan ran towards.
    #[inline]
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// Number of cost types `d`.
    #[inline]
    pub fn cost_types(&self) -> usize {
        self.cost_types
    }

    /// Number of nodes the table covers (the graph's node count).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.bounds.len()
    }

    /// True iff the scan was restricted to a node subset.
    #[inline]
    pub fn is_restricted(&self) -> bool {
        self.restricted
    }

    /// Edge relaxations the scan performed — a deterministic cost metric
    /// for the precomputation itself.
    #[inline]
    pub fn relaxations(&self) -> u64 {
        self.relaxations
    }

    /// Queue pops the scan performed — the scan's settled-node count. A
    /// cold-cache query pays this on top of its own search, which is what
    /// the `index` experiment charges the prep-backed tier per cold target.
    #[inline]
    pub fn settled(&self) -> u64 {
        self.settled
    }

    /// The lower-bound vector `L(v)`: component `i` is the cost-`i`
    /// shortest-path distance from `v` to the target (`∞` when
    /// unreachable).
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn bound(&self, v: NodeId) -> &CostVec {
        &self.bounds[v.index()]
    }

    /// True iff the target is reachable from `v` (within the restriction,
    /// if any).
    #[inline]
    pub fn reaches(&self, v: NodeId) -> bool {
        // Per-component distances share reachability: either every
        // component is finite or none is.
        self.bounds[v.index()][0].is_finite()
    }

    /// Number of nodes that reach the target.
    pub fn reachable_nodes(&self) -> usize {
        (0..self.bounds.len())
            .filter(|&i| self.bounds[i][0].is_finite())
            .count()
    }

    /// The **per-edge forward bound**: the minimum possible cost vector of
    /// any path to the target that leaves `from` through `edge`, i.e.
    /// `w(edge) + L(other end)`. Every component is `∞` when the edge leads
    /// away from the target for good.
    ///
    /// # Panics
    /// Panics if `edge` is not traversable from `from` (respecting
    /// direction) or ids are out of range.
    pub fn forward_bound(&self, graph: &MultiCostGraph, edge: EdgeId, from: NodeId) -> CostVec {
        let e = graph.edge(edge);
        assert!(
            e.traversable_from(from),
            "edge {edge} is not traversable from {from}"
        );
        let next = e.opposite(from);
        let mut out = *self.bound(next);
        for i in 0..self.cost_types {
            out[i] += e.costs[i];
        }
        out
    }

    /// Reconstructs up to `d` concrete `source → target` paths — one per
    /// cost type, following the per-component parent edges — and returns
    /// their **full** cost vectors, deduplicated. Each is the cost of a real
    /// path, so each is a *global upper bound*: the final path skyline
    /// weakly dominates every returned vector. The pruned search uses them
    /// as cut lines before the first label even reaches the target.
    ///
    /// Returns an empty vector when the target is unreachable from
    /// `source`. Paths are abandoned defensively if reconstruction exceeds
    /// `num_nodes` hops (possible only through zero-cost cycles).
    pub fn upper_bound_cuts(&self, graph: &MultiCostGraph, source: NodeId) -> Vec<CostVec> {
        let d = self.cost_types;
        let mut cuts: Vec<CostVec> = Vec::with_capacity(d);
        if !self.reaches(source) {
            return cuts;
        }
        'component: for i in 0..d {
            let mut node = source;
            let mut total = CostVec::zeros(d);
            let mut hops = 0usize;
            while node != self.target {
                let raw = self.parents[node.index() * d + i];
                if raw == NO_PARENT {
                    // Finite bound always has a parent chain; defensive.
                    continue 'component;
                }
                let e = graph.edge(EdgeId::new(raw));
                total += e.costs;
                node = e.opposite(node);
                hops += 1;
                if hops > self.num_nodes() {
                    // Zero-cost cycle in the parent pointers; skip the cut.
                    continue 'component;
                }
            }
            if !cuts.contains(&total) {
                cuts.push(total);
            }
        }
        cuts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_graph::GraphBuilder;

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

    #[test]
    fn diamond_bounds_are_per_component_shortest_distances() {
        let (g, s, t) = diamond();
        let prep = PrepTable::build(&g, t);
        assert_eq!(prep.target(), t);
        assert_eq!(prep.cost_types(), 2);
        // From the source: cost 0 via the upper branch (1+1), cost 1 via the
        // lower branch (1+1) — the component-wise minimum over both paths.
        assert_eq!(prep.bound(s).as_slice(), &[2.0, 2.0]);
        assert_eq!(prep.bound(t).as_slice(), &[0.0, 0.0]);
        assert!(prep.reaches(s));
        assert_eq!(prep.reachable_nodes(), 4);
        assert!(prep.relaxations() > 0);
        // Every node improves at least once, so every node pops at least once.
        assert!(prep.settled() >= 4);
        assert!(!prep.is_restricted());
    }

    #[test]
    fn upper_bound_cuts_are_real_path_costs() {
        let (g, s, t) = diamond();
        let prep = PrepTable::build(&g, t);
        let cuts = prep.upper_bound_cuts(&g, s);
        // One concrete path per component: upper branch (2, 20) for cost 0,
        // lower branch (20, 2) for cost 1.
        assert_eq!(cuts.len(), 2);
        assert!(cuts.contains(&CostVec::from_slice(&[2.0, 20.0])));
        assert!(cuts.contains(&CostVec::from_slice(&[20.0, 2.0])));
    }

    #[test]
    fn unreachable_nodes_have_infinite_bounds_and_no_cuts() {
        let mut b = GraphBuilder::new(1);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        let isolated = b.add_node(5.0, 5.0);
        b.add_edge(a, c, CostVec::from_slice(&[1.0])).unwrap();
        let g = b.build().unwrap();
        let prep = PrepTable::build(&g, c);
        assert!(!prep.reaches(isolated));
        assert!(prep.bound(isolated)[0].is_infinite());
        assert!(prep.upper_bound_cuts(&g, isolated).is_empty());
        assert_eq!(prep.reachable_nodes(), 2);
    }

    #[test]
    fn directed_edges_bound_in_travel_direction_only() {
        let mut b = GraphBuilder::new(1);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        b.add_directed_edge(a, c, CostVec::from_slice(&[3.0]))
            .unwrap();
        let g = b.build().unwrap();
        let towards_c = PrepTable::build(&g, c);
        assert_eq!(towards_c.bound(a).as_slice(), &[3.0]);
        // The edge cannot be traversed c → a, so a target of `a` is
        // unreachable from c.
        let towards_a = PrepTable::build(&g, a);
        assert!(!towards_a.reaches(c));
    }

    #[test]
    fn forward_bound_adds_the_edge_cost() {
        let (g, s, t) = diamond();
        let prep = PrepTable::build(&g, t);
        let first_edge = g.incident_edges(s)[0];
        let bound = prep.forward_bound(&g, first_edge, s);
        // Via the upper middle node: edge (1, 10) + L(up) = (1, 10).
        assert_eq!(bound.as_slice(), &[2.0, 20.0]);
    }

    #[test]
    fn restricted_scan_ignores_nodes_outside_the_set() {
        let (g, s, t) = diamond();
        let up = NodeId::new(1);
        let down = NodeId::new(2);
        // Without the upper branch the only s → t path is the lower one.
        let prep = PrepTable::build_restricted(&g, t, &[s, down, t]);
        assert!(prep.is_restricted());
        assert_eq!(prep.bound(s).as_slice(), &[20.0, 2.0]);
        assert!(!prep.reaches(up));
        // Restricting to every node reproduces the full scan's bounds.
        let all: Vec<NodeId> = (0..g.num_nodes() as u32).map(NodeId::new).collect();
        let full = PrepTable::build(&g, t);
        let restricted_all = PrepTable::build_restricted(&g, t, &all);
        for v in &all {
            assert_eq!(full.bound(*v), restricted_all.bound(*v));
        }
    }

    #[test]
    #[should_panic]
    fn restricted_scan_requires_the_target_in_the_set() {
        let (g, s, t) = diamond();
        let _ = PrepTable::build_restricted(&g, t, &[s]);
    }
}
