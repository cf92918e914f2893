//! The index data model: ranks, upward arcs, shortcut bundles and the
//! append-only fragment arena.

use mcn_graph::{CostVec, EdgeId, MultiCostGraph};

/// One partial path stored in the fragment arena: either an original graph
/// edge or the concatenation of two earlier fragments. Fragments are
/// append-only — Pareto evictions drop *references* to fragments but never
/// invalidate the arena — so every surviving shortcut entry unpacks to its
/// original edge sequence at query time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fragment {
    /// An original edge, stored by raw [`EdgeId`]. Unpacks to itself; the
    /// travel direction is implied by the arc the fragment hangs off.
    Edge(u32),
    /// Two fragments traversed in order (first, then second).
    Concat(u32, u32),
}

/// One member of a shortcut bundle, `(costs, frag)`: the cost vector of
/// the underlying path, summed shortcut-first (query code recomputes final
/// answers edge-by-edge in path order, so this summation order never leaks
/// into results), and the arena id of the fragment reconstructing it.
pub(crate) type ArcEntry = (CostVec, u32);

/// An upward arc of the hierarchy: the bundle of Pareto-optimal partial
/// paths between one node and a higher-ranked endpoint.
///
/// In `up_out[v]` the arc travels `v → head`; in `up_in[v]` it travels
/// `head → v`. Either way `rank(head) > rank(v)`, and either way the
/// fragments unpack in *travel* order. The entries are a Pareto front of
/// [`mcn_graph::dominance`], sorted lexicographically by cost vector.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct UpArc {
    /// The higher-ranked endpoint (raw node id).
    pub head: u32,
    /// The Pareto bundle, lexicographically sorted.
    pub entries: Vec<ArcEntry>,
}

/// The hierarchical partial-path route index over one multi-cost graph.
///
/// Built once by [`RouteIndex::build`], then shared immutably (the engine
/// holds it in an `Arc`); queries allocate only their own search state. For
/// a path skyline that is, per upward search, one Pareto set of
/// `([f64; d], label id)` per node and one parent-pointer label arena;
/// fragment lists are walked out of the arenas only for the combinations
/// that survive the meeting-node merge.
#[derive(Clone, Debug, PartialEq)]
pub struct RouteIndex {
    /// Node count of the indexed graph.
    pub(crate) num_nodes: usize,
    /// Edge count of the indexed graph (shape check for serving).
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
}

const _: () = crate::assert_send_sync::<RouteIndex>();

impl RouteIndex {
    /// True iff no shortcut bundle was truncated — queries through the
    /// index are exact. A non-exact index is still structurally valid but
    /// the engine refuses to serve from it.
    pub fn exact(&self) -> bool {
        self.exact
    }

    /// Total upward-arc entries (original + shortcut) over both
    /// directions — the index's size metric, pinned by `tests/index.rs`.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_graph::dominance::{front_dominates_weak, front_insert};

    fn v2(a: f64, b: f64) -> CostVec {
        CostVec::from_slice(&[a, b])
    }

    /// A `CostVec` bundle and a `[f64; 2]` front fed the same stream give
    /// the same verdicts and sizes.
    #[test]
    fn bundle_merge_matches_front2_at_d2() {
        let mut bundle: Vec<ArcEntry> = Vec::new();
        let mut front: Vec<([f64; 2], ())> = Vec::new();
        let mut lcg = 77u64;
        for i in 0..500u32 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = ((lcg >> 33) % 32) as f64 * 0.5;
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = ((lcg >> 33) % 32) as f64 * 0.5;
            let p = v2(a, b);
            assert_eq!(
                front_dominates_weak(&bundle, &p),
                front_dominates_weak(&front, &[a, b]),
                "query diverged at ({a}, {b})"
            );
            assert_eq!(
                front_insert(&mut bundle, p, i),
                front_insert(&mut front, [a, b], ())
            );
            assert_eq!(bundle.len(), front.len());
        }
    }

    /// Merges the same seeded stream, with many ties on every lane, into a
    /// `CostVec` set and a `[f64; D]` set: every verdict and every set
    /// state must agree.
    fn point_forms_agree_at<const D: usize>(seed: u64) {
        let mut fixed: Vec<([f64; D], u32)> = Vec::new();
        let mut general: Vec<(CostVec, u32)> = Vec::new();
        let mut lcg = seed;
        for i in 0..400u32 {
            let p: [f64; D] = std::array::from_fn(|_| {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((lcg >> 33) % 6) as f64 * 0.5
            });
            assert_eq!(
                front_insert(&mut fixed, p, i),
                front_insert(&mut general, CostVec::from_slice(&p), i),
                "D = {D}: verdict diverged at {p:?}"
            );
            let as_general: Vec<(CostVec, u32)> = fixed
                .iter()
                .map(|(c, id)| (CostVec::from_slice(c), *id))
                .collect();
            assert_eq!(as_general, general, "D = {D}: sets diverged at {p:?}");
        }
    }

    /// The index keeps upward label sets as `[f64; D]` fronts and bundles
    /// as `CostVec` fronts: the two forms agree at every width.
    #[test]
    fn pareto_merge_d_matches_pareto_merge() {
        point_forms_agree_at::<1>(5);
        point_forms_agree_at::<2>(6);
        point_forms_agree_at::<3>(7);
        point_forms_agree_at::<4>(8);
    }

    #[test]
    fn bundle_merge_scans_at_d3() {
        let mut bundle: Vec<ArcEntry> = Vec::new();
        assert!(front_insert(
            &mut bundle,
            CostVec::from_slice(&[1.0, 2.0, 3.0]),
            0
        ));
        assert!(front_insert(
            &mut bundle,
            CostVec::from_slice(&[2.0, 3.0, 1.0]),
            1
        ));
        // Weakly dominated by the first entry.
        assert!(!front_insert(
            &mut bundle,
            CostVec::from_slice(&[1.0, 2.0, 3.0]),
            2
        ));
        // Dominates both: evicts them.
        assert!(front_insert(
            &mut bundle,
            CostVec::from_slice(&[0.5, 1.0, 0.5]),
            3
        ));
        assert_eq!(bundle.len(), 1);
        assert_eq!(bundle[0].1, 3);
    }
}
