//! Bottom-up contraction: deterministic importance ordering, bounded
//! witness search and shortcut insertion.

use crate::config::IndexConfig;
use crate::structure::{
    bundle_dominates_weak, bundle_merge, ArcEntry, Fragment, RouteIndex, UpArc,
};
use mcn_graph::{dominates_weak, CostVec, MultiCostGraph};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// Hop limit of the witness search run per candidate shortcut. Larger
/// values drop more shortcuts (smaller index, slower build); an
/// inconclusive search just keeps the candidate.
const WITNESS_HOPS: usize = 5;

/// Label budget of one witness search; exhaustion keeps the candidate.
const WITNESS_BUDGET: usize = 4096;

/// The mutable contraction state: the *core* graph (arcs between
/// not-yet-contracted nodes, as per-node `BTreeMap`s so every iteration
/// order is deterministic) plus the growing fragment arena.
struct Contractor<'a> {
    cfg: &'a IndexConfig,
    d: usize,
    /// Travel direction `v → head`: `out[v][head]` is the Pareto bundle.
    out: Vec<BTreeMap<u32, Vec<ArcEntry>>>,
    /// Travel direction `tail → v`: `inn[v][tail]` mirrors `out[tail][v]`.
    inn: Vec<BTreeMap<u32, Vec<ArcEntry>>>,
    fragments: Vec<Fragment>,
    deleted_neighbors: Vec<u32>,
    shortcuts: u64,
    exact: bool,
}

/// Min-heap entry of the lazy importance queue: smaller score pops first,
/// tie-broken on the smaller node id so the contraction order is a pure
/// function of the input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct OrderEntry {
    score: i64,
    node: u32,
}

impl PartialOrd for OrderEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest score.
        other
            .score
            .cmp(&self.score)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// One contracted node, in contraction order: `(node, up_out, up_in)`.
type ContractedNode = (u32, Vec<UpArc>, Vec<UpArc>);

impl<'a> Contractor<'a> {
    fn new(cfg: &'a IndexConfig, d: usize, n: usize) -> Self {
        Self {
            cfg,
            d,
            out: vec![BTreeMap::new(); n],
            inn: vec![BTreeMap::new(); n],
            fragments: Vec::new(),
            deleted_neighbors: vec![0; n],
            shortcuts: 0,
            exact: true,
        }
    }

    /// Adds one directed core arc `tail → head`, Pareto-merging into the
    /// existing bundle (parallel edges collapse here).
    fn seed_arc(&mut self, tail: u32, head: u32, costs: CostVec, frag: u32) {
        let bundle = self.out[tail as usize].entry(head).or_default();
        if bundle_merge(bundle, costs, frag) {
            if bundle.len() > self.cfg.max_bundle {
                bundle.truncate(self.cfg.max_bundle);
                self.exact = false;
            }
            let mirrored = bundle.clone();
            self.inn[head as usize].insert(tail, mirrored);
        }
    }

    /// Importance of contracting `v` *now*: simulated shortcut pairs minus
    /// removed arcs (edge difference) plus the contracted-neighbor count.
    fn score(&self, v: u32) -> i64 {
        let inn = &self.inn[v as usize];
        let out = &self.out[v as usize];
        let loops = out.keys().filter(|k| inn.contains_key(k)).count();
        let pairs = inn.len() * out.len() - loops;
        pairs as i64 - (inn.len() + out.len()) as i64 + self.deleted_neighbors[v as usize] as i64
    }

    /// Bounded Pareto BFS `u → w` over the current core avoiding `skip`:
    /// true iff some path's cost vector weakly dominates `cand`, proving
    /// the candidate shortcut redundant. Labels above `cand` in any
    /// component are cut (costs are non-negative, so they can never come
    /// back down); running out of hops or label budget returns `false`,
    /// which *keeps* the candidate — always safe.
    fn witness_dominates(&self, u: u32, w: u32, skip: u32, cand: &CostVec) -> bool {
        let mut budget = WITNESS_BUDGET;
        let mut frontier: Vec<(u32, CostVec)> = vec![(u, CostVec::zeros(self.d))];
        for _ in 0..WITNESS_HOPS {
            let mut next: Vec<(u32, CostVec)> = Vec::new();
            for (node, costs) in &frontier {
                for (head, bundle) in &self.out[*node as usize] {
                    if *head == skip || *head == u {
                        continue;
                    }
                    for e in bundle {
                        let c = *costs + e.costs;
                        if !dominates_weak(&c, cand) {
                            continue;
                        }
                        if *head == w {
                            return true;
                        }
                        if budget == 0 {
                            return false;
                        }
                        budget -= 1;
                        next.push((*head, c));
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            frontier = next;
        }
        false
    }

    /// Inserts one surviving shortcut entry `u → w`, creating its `Concat`
    /// fragment only now (rejected candidates never pollute the arena).
    fn insert_shortcut(&mut self, u: u32, w: u32, costs: CostVec, f1: u32, f2: u32) {
        let bundle = self.out[u as usize].entry(w).or_default();
        if bundle_dominates_weak(bundle, &costs) {
            return;
        }
        let frag = self.fragments.len() as u32;
        self.fragments.push(Fragment::Concat(f1, f2));
        bundle_merge(bundle, costs, frag);
        self.shortcuts += 1;
        if bundle.len() > self.cfg.max_bundle {
            bundle.truncate(self.cfg.max_bundle);
            self.exact = false;
        }
        let mirrored = bundle.clone();
        self.inn[w as usize].insert(u, mirrored);
    }

    /// Contracts `v`: for every in/out neighbor pair, Pareto-combines the
    /// bundles, drops candidates a witness path dominates, inserts the
    /// rest as shortcuts, then detaches `v` and returns its upward arcs.
    fn contract(&mut self, v: u32) -> (Vec<UpArc>, Vec<UpArc>) {
        let in_arcs: Vec<(u32, Vec<ArcEntry>)> = self.inn[v as usize]
            .iter()
            .map(|(k, b)| (*k, b.clone()))
            .collect();
        let out_arcs: Vec<(u32, Vec<ArcEntry>)> = self.out[v as usize]
            .iter()
            .map(|(k, b)| (*k, b.clone()))
            .collect();
        for (u, ub) in &in_arcs {
            for (w, wb) in &out_arcs {
                if u == w {
                    continue;
                }
                // Pareto set of the pairwise combinations first, so the
                // witness search runs once per *surviving* candidate.
                let mut cands: Vec<(CostVec, (u32, u32))> = Vec::new();
                for e1 in ub {
                    for e2 in wb {
                        let c = e1.costs + e2.costs;
                        crate::structure::pareto_merge(&mut cands, c, (e1.frag, e2.frag));
                    }
                }
                for (c, (f1, f2)) in cands {
                    if self.witness_dominates(*u, *w, v, &c) {
                        continue;
                    }
                    self.insert_shortcut(*u, *w, c, f1, f2);
                }
            }
        }
        let to_up = |arcs: &[(u32, Vec<ArcEntry>)]| -> Vec<UpArc> {
            arcs.iter()
                .map(|(h, b)| UpArc {
                    head: *h,
                    entries: b.clone(),
                })
                .collect()
        };
        let up_out_v = to_up(&out_arcs);
        let up_in_v = to_up(&in_arcs);
        for (w, _) in &out_arcs {
            self.inn[*w as usize].remove(&v);
            self.deleted_neighbors[*w as usize] += 1;
        }
        for (u, _) in &in_arcs {
            self.out[*u as usize].remove(&v);
            self.deleted_neighbors[*u as usize] += 1;
        }
        self.out[v as usize].clear();
        self.inn[v as usize].clear();
        (up_out_v, up_in_v)
    }

    /// Contracts every node of `nodes` bottom-up by lazily re-evaluated
    /// importance, returning them in contraction order.
    fn contract_set(&mut self, nodes: &[u32]) -> Vec<ContractedNode> {
        let mut heap = BinaryHeap::with_capacity(nodes.len());
        for &v in nodes {
            heap.push(OrderEntry {
                score: self.score(v),
                node: v,
            });
        }
        let mut contracted = vec![false; self.out.len()];
        let mut order = Vec::with_capacity(nodes.len());
        while let Some(entry) = heap.pop() {
            if contracted[entry.node as usize] {
                continue;
            }
            let fresh = self.score(entry.node);
            if fresh > entry.score {
                // Lazy update: the neighborhood changed since this entry
                // was queued; requeue with the fresh score.
                heap.push(OrderEntry {
                    score: fresh,
                    node: entry.node,
                });
                continue;
            }
            let (up_out_v, up_in_v) = self.contract(entry.node);
            contracted[entry.node as usize] = true;
            order.push((entry.node, up_out_v, up_in_v));
        }
        order
    }
}

impl RouteIndex {
    /// Builds the hierarchy over `graph` by contracting every node
    /// bottom-up; the result depends only on the inputs.
    pub fn build(graph: &MultiCostGraph, config: &IndexConfig) -> Self {
        let n = graph.num_nodes();
        let mut c = Contractor::new(config, graph.num_cost_types(), n);
        seed_edges(&mut c, graph);
        let nodes: Vec<u32> = (0..n as u32).collect();
        let mut rank = vec![0; n];
        let mut up_out = vec![Vec::new(); n];
        let mut up_in = vec![Vec::new(); n];
        for (r, (node, out, inn)) in c.contract_set(&nodes).into_iter().enumerate() {
            rank[node as usize] = r as u32;
            up_out[node as usize] = out;
            up_in[node as usize] = inn;
        }
        RouteIndex {
            num_nodes: n,
            num_edges: graph.num_edges(),
            dims: graph.num_cost_types(),
            rank,
            up_out,
            up_in,
            fragments: c.fragments,
            shortcuts: c.shortcuts,
            exact: c.exact,
        }
    }
}

/// Seeds every core arc of `graph`, creating one `Edge` fragment per used
/// edge (shared by both directions of an undirected edge).
fn seed_edges(c: &mut Contractor<'_>, graph: &MultiCostGraph) {
    for e in graph.edges() {
        let (s, t) = (e.source.raw(), e.target.raw());
        if s == t {
            continue;
        }
        let frag = c.fragments.len() as u32;
        c.fragments.push(Fragment::Edge(e.id.raw()));
        c.seed_arc(s, t, e.costs, frag);
        if !e.directed {
            c.seed_arc(t, s, e.costs, frag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_graph::{GraphBuilder, NodeId};

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
    fn diamond_builds_an_exact_hierarchy() {
        let (g, _, _) = diamond();
        let idx = RouteIndex::build(&g, &IndexConfig::default());
        assert!(idx.exact());
        assert_eq!(idx.num_nodes(), 4);
        assert_eq!(idx.dims(), 2);
        // Ranks are a permutation of 0..n.
        let mut ranks: Vec<u32> = (0..4).map(|v| idx.rank_of(v)).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
        // Upward arcs only point to strictly higher ranks.
        for v in 0..4u32 {
            for arc in idx.up_out[v as usize].iter().chain(&idx.up_in[v as usize]) {
                assert!(idx.rank_of(arc.head) > idx.rank_of(v));
            }
        }
    }

    #[test]
    fn witness_search_prunes_dominated_shortcuts() {
        // Line a-b-c plus a direct a-c arc cheaper in both costs: the
        // shortcut a→c created by contracting b is dominated by the direct
        // edge and must be dropped.
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let m = b.add_node(1.0, 0.0);
        let c = b.add_node(2.0, 0.0);
        b.add_edge(a, m, CostVec::from_slice(&[2.0, 2.0])).unwrap();
        b.add_edge(m, c, CostVec::from_slice(&[2.0, 2.0])).unwrap();
        b.add_edge(a, c, CostVec::from_slice(&[1.0, 1.0])).unwrap();
        let g = b.build().unwrap();
        let idx = RouteIndex::build(&g, &IndexConfig::default());
        assert!(idx.exact());
        assert_eq!(
            idx.shortcuts(),
            0,
            "the dominated shortcut was witnessed away"
        );
    }

    #[test]
    fn tiny_bundle_cap_clears_the_exact_flag() {
        // Many incomparable parallel paths force bundles beyond a cap of 1.
        let mut b = GraphBuilder::new(2);
        let s = b.add_node(0.0, 0.0);
        let t = b.add_node(1.0, 0.0);
        let mids: Vec<NodeId> = (0..4).map(|i| b.add_node(0.5, i as f64)).collect();
        for (i, &m) in mids.iter().enumerate() {
            let c = CostVec::from_slice(&[1.0 + i as f64, 4.0 - i as f64]);
            b.add_edge(s, m, c).unwrap();
            b.add_edge(m, t, c).unwrap();
        }
        let g = b.build().unwrap();
        let cfg = IndexConfig { max_bundle: 1 };
        let idx = RouteIndex::build(&g, &cfg);
        assert!(!idx.exact(), "a cap of 1 must truncate some bundle");
        // The default cap keeps everything.
        assert!(RouteIndex::build(&g, &IndexConfig::default()).exact());
    }

    #[test]
    fn build_is_deterministic_and_complete() {
        let graph = mcn_gen::generate_workload(&mcn_gen::WorkloadSpec {
            nodes: 300,
            facilities: 10,
            queries: 0,
            ..mcn_gen::WorkloadSpec::tiny(2010)
        })
        .graph;
        let a = RouteIndex::build(&graph, &IndexConfig::default());
        let b = RouteIndex::build(&graph, &IndexConfig::default());
        assert_eq!(a, b, "two builds of the same input must be identical");
        let n = graph.num_nodes();
        let mut ranks: Vec<u32> = (0..n as u32).map(|v| a.rank_of(v)).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..n as u32).collect::<Vec<_>>());
    }
}
