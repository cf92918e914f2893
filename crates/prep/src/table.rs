//! The ParetoPrep precomputation table: per-cost lower bounds to a target.

use mcn_graph::{CostVec, EdgeId, MultiCostGraph, NodeId, MAX_COST_TYPES};
use std::collections::VecDeque;

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
/// A second scan stores `S(v)`, the shortest distance from `v` under the
/// **summed** cost `Σ_i c_i` ([`PrepTable::sum_bound`]). Each `L_i(v)` may
/// come from a different path, so `Σ_i L_i(v)` can lie far below `S(v)`; a
/// weighted-sum search splits its weights to use both (`mcn-alpha`).
///
/// Bounds and parents are flat and v-major with stride `d`; the summed
/// column is one `f32` per node. A table holds `12·d + 4` bytes per node
/// (`8·d` of bounds, `4·d` of parents, `4` of summed distance) whatever
/// [`MAX_COST_TYPES`] is.
///
/// A table is immutable once built and independent of the query source, so
/// one scan serves every query towards the same target (the `PrepCache` in
/// this crate caches tables per target for exactly that reason).
#[derive(Clone, Debug, PartialEq)]
pub struct PrepTable {
    target: NodeId,
    cost_types: usize,
    /// Flattened `num_nodes × d` array: `bounds[v·d + i]` is `L(v)[i]`, `∞`
    /// in every component when the target is unreachable from `v`.
    bounds: Vec<f64>,
    /// Flattened `num_nodes × d` array: `parents[v·d + i]` is the raw id of
    /// the first edge of a `v → target` path realising `L(v)[i]`
    /// ([`NO_PARENT`] when none).
    parents: Vec<u32>,
    /// `sums[v]` is `S(v)` rounded down to an `f32` (`∞` when the target is
    /// unreachable from `v`), so it stays a lower bound. An `f32` halves the
    /// column's share of every cached table and loosens the bound by at
    /// most `2⁻²³` of `S(v)`.
    sums: Vec<f32>,
}

const _: () = crate::assert_send_sync::<PrepTable>();

impl PrepTable {
    /// Runs the backward label-correcting scan over the whole graph. One
    /// pass computes all `d` per-component shortest distances
    /// simultaneously: a FIFO queue of nodes whose bound vector improved,
    /// relaxing every edge that can be traversed *towards* the queue node.
    /// Deterministic: iteration order is the graph's adjacency order and the
    /// queue is FIFO. A second FIFO pass over the same edges computes the
    /// summed-cost distances.
    ///
    /// # Panics
    /// Panics if `target` is out of range.
    pub fn build(graph: &MultiCostGraph, target: NodeId) -> Self {
        Self::scan(graph, target)
    }

    fn scan(graph: &MultiCostGraph, target: NodeId) -> Self {
        let n = graph.num_nodes();
        let d = graph.num_cost_types();
        assert!(target.index() < n, "target {target} out of range");
        let mut bounds = vec![f64::INFINITY; n * d];
        let mut parents = vec![NO_PARENT; n * d];
        bounds[target.index() * d..][..d].fill(0.0);

        let mut queue = VecDeque::with_capacity(n);
        let mut queued = vec![false; n];
        queue.push_back(target);
        queued[target.index()] = true;

        let mut reached = [0.0; MAX_COST_TYPES];
        while let Some(u) = queue.pop_front() {
            queued[u.index()] = false;
            reached[..d].copy_from_slice(&bounds[u.index() * d..][..d]);
            for &eid in graph.incident_edges(u) {
                let e = graph.edge(eid);
                let v = e.opposite(u);
                // The forward search travels v → u, so the edge must be
                // traversable from v.
                if !e.traversable_from(v) {
                    continue;
                }
                let row = v.index() * d;
                let mut improved = false;
                for i in 0..d {
                    let candidate = e.costs[i] + reached[i];
                    if candidate < bounds[row + i] {
                        bounds[row + i] = candidate;
                        parents[row + i] = eid.raw();
                        improved = true;
                    }
                }
                if improved && !queued[v.index()] {
                    queued[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }

        let sums = Self::sum_scan(graph, target, &mut queue, &mut queued);
        Self {
            target,
            cost_types: d,
            bounds,
            parents,
            sums,
        }
    }

    /// Shortest distances to `target` under the edge weight `Σ_i c_i`
    /// (summed left to right), by the same FIFO label-correcting scan as
    /// the bounds, each rounded down to an `f32`. Reuses the main scan's
    /// emptied queue and flags.
    fn sum_scan(
        graph: &MultiCostGraph,
        target: NodeId,
        queue: &mut VecDeque<NodeId>,
        queued: &mut [bool],
    ) -> Vec<f32> {
        let mut dist = vec![f64::INFINITY; graph.num_nodes()];
        dist[target.index()] = 0.0;
        queue.push_back(target);
        queued[target.index()] = true;
        while let Some(u) = queue.pop_front() {
            queued[u.index()] = false;
            let reached = dist[u.index()];
            for &eid in graph.incident_edges(u) {
                let e = graph.edge(eid);
                let v = e.opposite(u);
                if !e.traversable_from(v) {
                    continue;
                }
                let candidate = e.costs.total() + reached;
                if candidate < dist[v.index()] {
                    dist[v.index()] = candidate;
                    if !queued[v.index()] {
                        queued[v.index()] = true;
                        queue.push_back(v);
                    }
                }
            }
        }
        dist.into_iter().map(round_down_to_f32).collect()
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
        self.bounds.len() / self.cost_types
    }

    /// The lower-bound vector `L(v)`, `d` long: component `i` is the
    /// cost-`i` shortest-path distance from `v` to the target (`∞` when
    /// unreachable).
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn bound(&self, v: NodeId) -> &[f64] {
        let start = v.index() * self.cost_types;
        &self.bounds[start..start + self.cost_types]
    }

    /// `S(v)`: the shortest distance from `v` to the target under the summed
    /// cost `Σ_i c_i`, rounded down to an `f32` (`∞` when unreachable). A
    /// lower bound on `Σ_i c_i(p)` for every `v → target` path `p`, and at
    /// least `Σ_i L_i(v)` up to rounding.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn sum_bound(&self, v: NodeId) -> f64 {
        f64::from(self.sums[v.index()])
    }

    /// True iff the target is reachable from `v`.
    #[inline]
    pub fn reaches(&self, v: NodeId) -> bool {
        // Per-component distances share reachability: either every
        // component is finite or none is.
        self.bounds[v.index() * self.cost_types].is_finite()
    }

    /// Number of nodes that reach the target.
    pub fn reachable_nodes(&self) -> usize {
        self.bounds
            .iter()
            .step_by(self.cost_types)
            .filter(|b| b.is_finite())
            .count()
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

/// The largest `f32` not above `x` (`as` rounds to nearest, and to `∞`
/// past `f32::MAX`).
fn round_down_to_f32(x: f64) -> f32 {
    let y = x as f32;
    if f64::from(y) > x {
        y.next_down()
    } else {
        y
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
        assert_eq!(prep.bound(s), &[2.0, 2.0]);
        assert_eq!(prep.bound(t), &[0.0, 0.0]);
        // Either branch sums to 22: far above Σ_i L_i(s) = 4.
        assert_eq!(prep.sum_bound(s), 22.0);
        assert_eq!(prep.sum_bound(t), 0.0);
        assert!(prep.reaches(s));
        assert_eq!(prep.reachable_nodes(), 4);
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
        assert!(prep.sum_bound(isolated).is_infinite());
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
        assert_eq!(towards_c.bound(a), &[3.0]);
        // The edge cannot be traversed c → a, so a target of `a` is
        // unreachable from c.
        let towards_a = PrepTable::build(&g, a);
        assert!(!towards_a.reaches(c));
    }

    #[test]
    fn summed_distances_round_down_to_f32() {
        assert_eq!(round_down_to_f32(0.1), 0.1f32.next_down());
        assert!(f64::from(round_down_to_f32(0.1)) < 0.1);
        assert_eq!(round_down_to_f32(0.5), 0.5);
        assert_eq!(round_down_to_f32(1e300), f32::MAX);
        assert_eq!(round_down_to_f32(f64::INFINITY), f32::INFINITY);
        assert_eq!(round_down_to_f32(0.0), 0.0);
    }
}
