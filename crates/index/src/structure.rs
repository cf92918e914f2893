//! The index data model: ranks, upward arcs, shortcut bundles and the
//! append-only fragment arena.

use mcn_graph::{CostVec, EdgeId, MultiCostGraph};
use serde::{Deserialize, Serialize};

/// One partial path stored in the fragment arena: either an original graph
/// edge or the concatenation of two earlier fragments. Fragments are
/// append-only — Pareto evictions drop *references* to fragments but never
/// invalidate the arena — so every surviving shortcut entry unpacks to its
/// original edge sequence at query time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fragment {
    /// An original edge, stored by raw [`EdgeId`]. Unpacks to itself; the
    /// travel direction is implied by the arc the fragment hangs off.
    Edge(u32),
    /// Two fragments traversed in order (first, then second).
    Concat(u32, u32),
}

/// One member of a shortcut bundle: a witness-path cost vector plus the
/// arena fragment that reconstructs its edge sequence.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArcEntry {
    /// Cost vector of the underlying path, summed shortcut-first (query
    /// code recomputes final answers edge-by-edge in path order, so this
    /// summation order never leaks into results).
    pub costs: CostVec,
    /// Arena id of the fragment reconstructing the path.
    pub frag: u32,
}

/// An upward arc of the hierarchy: the bundle of Pareto-optimal partial
/// paths between one node and a higher-ranked endpoint.
///
/// In `up_out[v]` the arc travels `v → head`; in `up_in[v]` it travels
/// `head → v`. Either way `rank(head) > rank(v)`, and either way the
/// fragments unpack in *travel* order. Entries are kept sorted
/// lexicographically by cost vector — which at `d == 2` doubles as the
/// sorted-sweep Pareto-front order (first component ascending, second
/// strictly descending).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UpArc {
    /// The higher-ranked endpoint (raw node id).
    pub head: u32,
    /// The Pareto bundle, lexicographically sorted.
    pub entries: Vec<ArcEntry>,
}

/// The hierarchical partial-path route index over one multi-cost graph.
///
/// Built once by [`RouteIndex::build`] (or loaded by [`RouteIndex::load`],
/// which validates its structure), then shared immutably (the engine holds
/// it in an `Arc`); queries allocate only their own search state. For a
/// path skyline that is, per upward search, one Pareto set of `(costs,
/// label id)` per node and one parent-pointer label arena; fragment lists
/// are walked out of the arenas only for the combinations that survive the
/// meeting-node merge.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouteIndex {
    /// Node count of the indexed graph.
    pub(crate) num_nodes: usize,
    /// Edge count of the indexed graph (shape check for serving/loading).
    pub(crate) num_edges: usize,
    /// Cost dimensionality `d` of the indexed graph.
    pub(crate) dims: usize,
    /// Contraction rank per node id; higher = contracted later.
    pub(crate) rank: Vec<u32>,
    /// Upward arcs traversed *away from* each node (travel `v → head`).
    pub(crate) up_out: Vec<Vec<UpArc>>,
    /// Upward arcs traversed *towards* each node (travel `head → v`).
    pub(crate) up_in: Vec<Vec<UpArc>>,
    /// The append-only fragment arena.
    pub(crate) fragments: Vec<Fragment>,
    /// Shortcut entries inserted during contraction (on top of the
    /// original edges).
    pub(crate) shortcuts: u64,
    /// True iff no bundle was ever truncated: every Pareto set survived
    /// whole, so queries are exact. When false the engine must fall back.
    pub(crate) exact: bool,
    /// Number of build regions (1 = sequential).
    pub(crate) regions: usize,
}

const _: () = crate::assert_send_sync::<RouteIndex>();

impl RouteIndex {
    /// Node count of the indexed graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Edge count of the indexed graph.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Cost dimensionality `d` the index was built for.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Contraction rank of a node (0-based, dense).
    pub fn rank_of(&self, node: u32) -> u32 {
        self.rank[node as usize]
    }

    /// Shortcut entries the contraction inserted.
    pub fn shortcuts(&self) -> u64 {
        self.shortcuts
    }

    /// True iff no shortcut bundle was truncated — queries through the
    /// index are exact. A non-exact index is still structurally valid but
    /// the engine refuses to serve from it.
    pub fn exact(&self) -> bool {
        self.exact
    }

    /// Number of regions the build used.
    pub fn regions(&self) -> usize {
        self.regions
    }

    /// Number of fragments in the arena.
    pub fn num_fragments(&self) -> usize {
        self.fragments.len()
    }

    /// Total upward-arc entries (original + shortcut) over both
    /// directions — the index's size metric in the `index` experiment.
    pub fn arc_entries(&self) -> u64 {
        let count = |side: &[Vec<UpArc>]| -> u64 {
            side.iter()
                .flat_map(|arcs| arcs.iter())
                .map(|a| a.entries.len() as u64)
                .sum()
        };
        count(&self.up_out) + count(&self.up_in)
    }

    /// True iff this index can serve queries over `graph` exactly: the
    /// shape matches (node/edge counts, cost dimensionality) and no bundle
    /// was truncated. The engine's fallback predicate.
    pub fn serves(&self, graph: &MultiCostGraph) -> bool {
        self.exact
            && self.num_nodes == graph.num_nodes()
            && self.num_edges == graph.num_edges()
            && self.dims == graph.num_cost_types()
    }

    /// Appends the original-edge sequence of `frag` to `out`, in travel
    /// order.
    pub(crate) fn unpack_into(&self, frag: u32, out: &mut Vec<EdgeId>) {
        match self.fragments[frag as usize] {
            Fragment::Edge(e) => out.push(EdgeId::new(e)),
            Fragment::Concat(a, b) => {
                self.unpack_into(a, out);
                self.unpack_into(b, out);
            }
        }
    }

    /// Serializes the index as indented JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parses an index from its JSON representation and checks the
    /// structural invariants queries rely on, so a malformed body is
    /// rejected here instead of panicking or recursing forever at query
    /// time.
    ///
    /// # Errors
    /// Returns the underlying JSON error message, or the first structural
    /// violation.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let index: Self = serde::json::from_str(text).map_err(|e| e.to_string())?;
        index.validate()?;
        Ok(index)
    }

    /// Checks the invariants queries rely on: `rank`, `up_out` and `up_in`
    /// have one entry per node; every arc head is a node that outranks the
    /// arc's tail; every entry has `dims` costs and a fragment in the arena;
    /// every `Edge` fragment names an edge of the graph; and every `Concat`
    /// refers to earlier arena positions only, so unpacking terminates. The
    /// append-only arena of sequential and partitioned builds guarantees
    /// the last one.
    ///
    /// # Errors
    /// Returns a message naming the first violation.
    fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes;
        for (name, len) in [
            ("rank", self.rank.len()),
            ("up_out", self.up_out.len()),
            ("up_in", self.up_in.len()),
        ] {
            if len != n {
                return Err(format!("{name} has {len} entries for {n} nodes"));
            }
        }
        for (name, side) in [("up_out", &self.up_out), ("up_in", &self.up_in)] {
            for (v, arcs) in side.iter().enumerate() {
                for arc in arcs {
                    let head = arc.head as usize;
                    if head >= n {
                        return Err(format!("{name}[{v}] has an arc to node {head} of {n}"));
                    }
                    if self.rank[head] <= self.rank[v] {
                        return Err(format!(
                            "{name}[{v}] has an arc to node {head}, which does not outrank it"
                        ));
                    }
                    for e in &arc.entries {
                        if e.costs.len() != self.dims {
                            return Err(format!(
                                "{name}[{v}] → {head} has an entry of {} costs at d = {}",
                                e.costs.len(),
                                self.dims
                            ));
                        }
                        if e.frag as usize >= self.fragments.len() {
                            return Err(format!(
                                "{name}[{v}] → {head} has an entry on fragment {} of {}",
                                e.frag,
                                self.fragments.len()
                            ));
                        }
                    }
                }
            }
        }
        for (i, fragment) in self.fragments.iter().enumerate() {
            match *fragment {
                Fragment::Edge(e) if e as usize >= self.num_edges => {
                    return Err(format!("fragment {i} is edge {e} of {}", self.num_edges));
                }
                Fragment::Concat(a, b) if a as usize >= i || b as usize >= i => {
                    return Err(format!(
                        "fragment {i} concatenates fragments {a} and {b}, not both earlier"
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// True iff some entry of the (lexicographically sorted) Pareto `bundle`
/// weakly dominates `costs`. At `d == 2` the sorted order doubles as the
/// sorted-sweep front of [`mcn_graph::Front2`], so one binary search
/// decides; general `d` scans.
pub(crate) fn bundle_dominates_weak(bundle: &[ArcEntry], costs: &CostVec) -> bool {
    if costs.len() == 2 {
        let idx = bundle.partition_point(|e| e.costs[0].total_cmp(&costs[0]).is_le());
        idx > 0 && bundle[idx - 1].costs[1] <= costs[1]
    } else {
        bundle
            .iter()
            .any(|e| mcn_graph::dominates_weak(&e.costs, costs))
    }
}

/// Merges `(costs, frag)` into the sorted Pareto `bundle`: rejected when
/// weakly dominated, otherwise evicts what it strictly dominates and keeps
/// the bundle lexicographically sorted. Returns true iff inserted.
pub(crate) fn bundle_merge(bundle: &mut Vec<ArcEntry>, costs: CostVec, frag: u32) -> bool {
    if bundle_dominates_weak(bundle, &costs) {
        return false;
    }
    bundle.retain(|e| !mcn_graph::dominates(&costs, &e.costs));
    let pos = bundle.partition_point(|e| e.costs.lex_cmp(&costs).is_lt());
    bundle.insert(pos, ArcEntry { costs, frag });
    true
}

/// [`bundle_dominates_weak`] generalized to any payload: true iff some
/// member of the (lexicographically sorted) Pareto `set` weakly dominates
/// `costs`.
pub(crate) fn pareto_dominates_weak<T>(set: &[(CostVec, T)], costs: &CostVec) -> bool {
    if costs.len() == 2 {
        let idx = set.partition_point(|(c, _)| c[0].total_cmp(&costs[0]).is_le());
        idx > 0 && set[idx - 1].0[1] <= costs[1]
    } else {
        set.iter().any(|(c, _)| mcn_graph::dominates_weak(c, costs))
    }
}

/// [`bundle_merge`] generalized to any payload. Returns true iff inserted.
pub(crate) fn pareto_merge<T>(set: &mut Vec<(CostVec, T)>, costs: CostVec, payload: T) -> bool {
    if pareto_dominates_weak(set, &costs) {
        return false;
    }
    set.retain(|(c, _)| !mcn_graph::dominates(&costs, c));
    let pos = set.partition_point(|(c, _)| c.lex_cmp(&costs).is_lt());
    set.insert(pos, (costs, payload));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_graph::Front2;

    fn v2(a: f64, b: f64) -> CostVec {
        CostVec::from_slice(&[a, b])
    }

    #[test]
    fn bundle_merge_matches_front2_at_d2() {
        let mut bundle: Vec<ArcEntry> = Vec::new();
        let mut front = Front2::new();
        let mut lcg = 77u64;
        for i in 0..500u32 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = ((lcg >> 33) % 32) as f64 * 0.5;
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = ((lcg >> 33) % 32) as f64 * 0.5;
            let p = v2(a, b);
            assert_eq!(
                bundle_dominates_weak(&bundle, &p),
                front.dominates_weak(a, b),
                "query diverged at ({a}, {b})"
            );
            assert_eq!(bundle_merge(&mut bundle, p, i), front.insert(a, b));
            assert_eq!(bundle.len(), front.len());
        }
    }

    #[test]
    fn bundle_merge_scans_at_d3() {
        let mut bundle: Vec<ArcEntry> = Vec::new();
        assert!(bundle_merge(
            &mut bundle,
            CostVec::from_slice(&[1.0, 2.0, 3.0]),
            0
        ));
        assert!(bundle_merge(
            &mut bundle,
            CostVec::from_slice(&[2.0, 3.0, 1.0]),
            1
        ));
        // Weakly dominated by the first entry.
        assert!(!bundle_merge(
            &mut bundle,
            CostVec::from_slice(&[1.0, 2.0, 3.0]),
            2
        ));
        // Dominates both: evicts them.
        assert!(bundle_merge(
            &mut bundle,
            CostVec::from_slice(&[0.5, 1.0, 0.5]),
            3
        ));
        assert_eq!(bundle.len(), 1);
        assert_eq!(bundle[0].frag, 3);
    }

    /// A five-node line: contracting its interior inserts shortcuts, so the
    /// arena holds both `Edge` and `Concat` fragments.
    fn line_index() -> RouteIndex {
        let mut b = mcn_graph::GraphBuilder::new(2);
        let nodes: Vec<_> = (0..5).map(|i| b.add_node(i as f64, 0.0)).collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1], v2(1.0, 2.0)).unwrap();
        }
        let index = RouteIndex::build(&b.build().unwrap(), &crate::IndexConfig::default());
        assert!(index
            .fragments
            .iter()
            .any(|f| matches!(f, Fragment::Concat(..))));
        index
    }

    /// The first node with an upward arc in `up_out`.
    fn first_tail(index: &RouteIndex) -> usize {
        index
            .up_out
            .iter()
            .position(|arcs| !arcs.is_empty())
            .unwrap()
    }

    /// Applies `corrupt` to a valid index and asserts that parsing its JSON
    /// fails with a message containing `expected`.
    fn assert_rejected(corrupt: impl FnOnce(&mut RouteIndex), expected: &str) {
        let mut index = line_index();
        corrupt(&mut index);
        let err = RouteIndex::from_json(&index.to_json()).unwrap_err();
        assert!(err.contains(expected), "got: {err}");
    }

    #[test]
    fn per_node_tables_must_have_one_entry_per_node() {
        assert_rejected(
            |index| {
                index.up_in.pop();
            },
            "up_in has 4 entries for 5 nodes",
        );
    }

    #[test]
    fn arc_heads_must_be_nodes() {
        assert_rejected(
            |index| {
                let v = first_tail(index);
                index.up_out[v][0].head = 5;
            },
            "arc to node 5 of 5",
        );
    }

    #[test]
    fn arc_heads_must_outrank_their_tails() {
        assert_rejected(
            |index| {
                let v = first_tail(index);
                index.up_out[v][0].head = v as u32;
            },
            "does not outrank it",
        );
    }

    #[test]
    fn entries_must_have_dims_costs() {
        assert_rejected(
            |index| {
                let v = first_tail(index);
                index.up_out[v][0].entries[0].costs = CostVec::from_slice(&[1.0, 2.0, 3.0]);
            },
            "entry of 3 costs at d = 2",
        );
    }

    #[test]
    fn entry_fragments_must_be_in_the_arena() {
        assert_rejected(
            |index| {
                let v = first_tail(index);
                index.up_out[v][0].entries[0].frag = index.fragments.len() as u32;
            },
            "has an entry on fragment",
        );
    }

    #[test]
    fn edge_fragments_must_name_graph_edges() {
        assert_rejected(
            |index| {
                let edges = index.num_edges as u32;
                let i = index
                    .fragments
                    .iter()
                    .position(|f| matches!(f, Fragment::Edge(_)))
                    .unwrap();
                index.fragments[i] = Fragment::Edge(edges);
            },
            "is edge 4 of 4",
        );
    }

    #[test]
    fn concat_fragments_must_refer_to_earlier_fragments() {
        // A self-referencing `Concat` used to load and then recurse forever
        // in `unpack_into` at query time.
        assert_rejected(
            |index| {
                let i = index
                    .fragments
                    .iter()
                    .position(|f| matches!(f, Fragment::Concat(..)))
                    .unwrap();
                index.fragments[i] = Fragment::Concat(0, i as u32);
            },
            "not both earlier",
        );
    }

    #[test]
    fn sequential_and_partitioned_builds_validate() {
        let graph = mcn_gen::generate_workload(&mcn_gen::WorkloadSpec {
            nodes: 120,
            facilities: 10,
            cost_types: 2,
            queries: 0,
            ..mcn_gen::WorkloadSpec::tiny(23)
        })
        .graph;
        for config in [
            crate::IndexConfig::default(),
            crate::IndexConfig::with_regions(4),
        ] {
            let index = RouteIndex::build(&graph, &config);
            assert_eq!(index.validate(), Ok(()), "regions = {}", config.regions);
            assert_eq!(RouteIndex::from_json(&index.to_json()), Ok(index));
        }
    }
}
