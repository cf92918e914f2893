//! MCN skyline processing: LSA and CEA.
//!
//! Both LSA (Local Search Algorithm) and CEA (Combined Expansion Algorithm)
//! perform the *same logical search* — `d` incremental network expansions
//! probed round-robin, a growing stage that collects candidates until the
//! first facility is pinned, and a shrinking stage that resolves the remaining
//! candidates. They differ only in how the expansions read the network:
//!
//! * LSA uses [`DirectAccess`]: every expansion fetches adjacency and facility
//!   pages independently (the same page may be read up to `d` times, mitigated
//!   only by the LRU buffer).
//! * CEA uses [`SharedAccess`]: fetched records are shared among the `d`
//!   expansions, so each node's adjacency record and each edge's facility list
//!   is read at most once per query.
//!
//! Consequently [`SkylineSearch`] is generic over the access discipline and
//! instantiating it with one or the other yields LSA or CEA; both encounter
//! and pin facilities in exactly the same order and report exactly the same
//! skyline (paper Section IV-B).
//!
//! The search is **progressive**: [`SkylineSearch`] implements [`Iterator`]
//! and yields every skyline facility the moment it is pinned.

use crate::coordinator::{Coordinator, Stage};
use crate::stats::QueryStats;
use mcn_expansion::{DirectAccess, NetworkAccess, SharedAccess};
use mcn_graph::{CostVec, FacilityId, NetworkLocation};
use mcn_storage::StoreView;
use std::sync::Arc;

/// Which algorithm variant to run: which access discipline the expansions
/// read through ([`NetworkAccess::ALGORITHM`] names it in the statistics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Local Search Algorithm: `d` independent expansions.
    Lsa,
    /// Combined Expansion Algorithm: expansions share fetched information.
    Cea,
}

/// One skyline member: a facility together with its complete cost vector.
#[derive(Clone, Debug, PartialEq)]
pub struct SkylineFacility {
    /// The facility.
    pub facility: FacilityId,
    /// Its per-cost-type network distances from the query location.
    pub costs: CostVec,
}

/// The result of a skyline query.
#[derive(Clone, Debug)]
pub struct SkylineResult {
    /// The skyline facilities, in the order they were pinned.
    pub facilities: Vec<SkylineFacility>,
    /// Execution statistics.
    pub stats: QueryStats,
}

/// A progressive MCN skyline computation, generic over the access discipline.
///
/// Use [`skyline_query`] for the common case; instantiate this type directly
/// (or via [`SkylineSearch::lsa`] / [`SkylineSearch::cea`]) when progressive
/// output is needed.
pub struct SkylineSearch<A: NetworkAccess> {
    state: Coordinator<A>,
    next_probe: usize,
    /// Every member pinned so far, in pinning order.
    emitted: Vec<SkylineFacility>,
    /// How many of `emitted` the iterator has yielded.
    yielded: usize,
}

// Thread-safety contract: searches must be movable onto `QueryEngine`
// worker threads under either access discipline.
const _: () = crate::assert_send::<SkylineSearch<DirectAccess>>();
const _: () = crate::assert_send::<SkylineSearch<SharedAccess>>();

impl<S: StoreView + ?Sized> SkylineSearch<DirectAccess<S>> {
    /// Starts an LSA skyline computation at `location`. The store may be
    /// monolithic (`MCNStore`, the default) or any other [`StoreView`],
    /// e.g. a region-partitioned store — the results are identical.
    pub fn lsa(store: Arc<S>, location: NetworkLocation) -> Self {
        Self::new(Arc::new(DirectAccess::new(store)), location)
    }
}

impl<S: StoreView + ?Sized> SkylineSearch<SharedAccess<S>> {
    /// Starts a CEA skyline computation at `location` (over any
    /// [`StoreView`], like [`SkylineSearch::lsa`]).
    pub fn cea(store: Arc<S>, location: NetworkLocation) -> Self {
        Self::new(Arc::new(SharedAccess::new(store)), location)
    }
}

impl<A: NetworkAccess> SkylineSearch<A> {
    /// Starts a skyline computation over an arbitrary access discipline.
    pub fn new(access: Arc<A>, location: NetworkLocation) -> Self {
        Self {
            state: Coordinator::new(access, location),
            next_probe: 0,
            emitted: Vec::new(),
            yielded: 0,
        }
    }

    /// Handles a pinned facility: emits it and prunes the candidate set.
    fn pin(&mut self, facility: FacilityId, costs: CostVec) {
        if self.state.stage == Stage::Growing {
            self.state.enter_shrinking();
        }
        let (_, checks) = self.state.candidates.eliminate_dominated(&costs);
        self.state.dominance_checks += checks;
        self.emitted.push(SkylineFacility { facility, costs });
    }

    /// Performs one round-robin probe. Returns `false` once the search has
    /// finished.
    fn step(&mut self) -> bool {
        // A pin opens the shrinking stage, which ends with its last candidate.
        let finished = self.state.stage == Stage::Shrinking && self.state.candidates.is_empty();
        if finished || self.state.all_inactive() {
            debug_assert!(self.state.candidates.is_empty());
            return false;
        }
        let i = self.next_probe;
        self.next_probe = (self.next_probe + 1) % self.state.d();
        if !self.state.active[i] {
            return true;
        }
        let shrinking = self.state.stage == Stage::Shrinking;
        // Early-stop optimisation (Section IV-A): once every remaining
        // candidate knows its i-th cost, the i-th expansion contributes
        // nothing further.
        if shrinking && (self.state.candidates.is_empty() || self.state.candidates.all_know_cost(i))
        {
            self.state.active[i] = false;
            return true;
        }
        // In the shrinking stage, facilities that are not (or no longer)
        // candidates may still surface from the frontier — they were
        // en-heaped during the growing stage. Recording them would be a
        // no-op, so they are skipped without consuming this probe turn.
        let hit = loop {
            match self.state.expansions[i].next_nearest() {
                None => break None,
                Some((facility, cost)) => {
                    if shrinking && !self.state.candidates.contains(facility) {
                        continue;
                    }
                    break Some((facility, cost));
                }
            }
        };
        match hit {
            None => self.state.active[i] = false,
            Some((facility, cost)) => {
                if let Some(costs) = self.state.record(facility, i, cost) {
                    self.pin(facility, costs);
                }
            }
        }
        true
    }

    /// Runs the search to completion and returns the full result.
    pub(crate) fn into_result(mut self) -> SkylineResult {
        while self.step() {}
        let stats = self.collect_stats();
        SkylineResult {
            facilities: self.emitted,
            stats,
        }
    }

    /// Execution statistics gathered so far.
    pub fn collect_stats(&self) -> QueryStats {
        self.state
            .collect_stats(self.emitted.len(), self.emitted.len())
    }
}

impl<A: NetworkAccess> Iterator for SkylineSearch<A> {
    type Item = SkylineFacility;

    /// Yields the next skyline facility as soon as it is pinned (progressive
    /// output).
    fn next(&mut self) -> Option<SkylineFacility> {
        loop {
            if let Some(member) = self.emitted.get(self.yielded) {
                self.yielded += 1;
                return Some(member.clone());
            }
            if !self.step() {
                return None;
            }
        }
    }
}

/// Computes the complete skyline of `location` with the chosen algorithm,
/// over any [`StoreView`] (monolithic or partitioned — identical results).
pub fn skyline_query<S: StoreView + ?Sized>(
    store: &Arc<S>,
    location: NetworkLocation,
    algorithm: Algorithm,
) -> SkylineResult {
    match algorithm {
        Algorithm::Lsa => SkylineSearch::lsa(store.clone(), location).into_result(),
        Algorithm::Cea => SkylineSearch::cea(store.clone(), location).into_result(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{paper_figure1_store, random_store};
    use mcn_expansion::oracle;
    use mcn_graph::NodeId;
    use mcn_storage::BufferConfig;

    /// The result's facility ids in ascending order, as the oracle lists them.
    fn ids(r: &SkylineResult) -> Vec<FacilityId> {
        let mut v: Vec<FacilityId> = r.facilities.iter().map(|f| f.facility).collect();
        v.sort();
        v
    }

    fn result_set(r: &SkylineResult) -> Vec<(FacilityId, Vec<u64>)> {
        let mut v: Vec<(FacilityId, Vec<u64>)> = r
            .facilities
            .iter()
            .map(|f| {
                (
                    f.facility,
                    f.costs.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn paper_figure1_both_warehouses_are_skyline() {
        // Figure 1: p1 = (20 min, 0 $), p2 = (10 min, 1 $): both are skyline.
        let (store, q, _) = paper_figure1_store();
        let store = Arc::new(store);
        for algo in [Algorithm::Lsa, Algorithm::Cea] {
            let result = skyline_query(&store, q, algo);
            assert_eq!(result.facilities.len(), 2, "{algo:?}");
            assert_eq!(result.stats.result_size, 2);
        }
    }

    #[test]
    fn lsa_and_cea_agree_with_the_oracle_on_random_networks() {
        for seed in 0..6 {
            let (store, graph, q) = random_store(seed, 150, 80, 60, 3);
            let store = Arc::new(store);
            let lsa = skyline_query(&store, q, Algorithm::Lsa);
            let cea = skyline_query(&store, q, Algorithm::Cea);
            assert_eq!(ids(&lsa), oracle::skyline(&graph, q), "seed {seed}");
            assert_eq!(
                result_set(&lsa),
                result_set(&cea),
                "LSA/CEA mismatch, seed {seed}"
            );
        }
    }

    #[test]
    fn lsa_and_cea_report_in_the_same_order() {
        // CEA pins facilities in exactly the same order as LSA (Section IV-B).
        let (store, _, q) = random_store(42, 200, 120, 80, 4);
        let store = Arc::new(store);
        let lsa: Vec<FacilityId> = SkylineSearch::lsa(store.clone(), q)
            .map(|f| f.facility)
            .collect();
        let cea: Vec<FacilityId> = SkylineSearch::cea(store.clone(), q)
            .map(|f| f.facility)
            .collect();
        assert_eq!(lsa, cea);
    }

    #[test]
    fn progressive_iterator_matches_batch_result() {
        let (store, _, q) = random_store(7, 120, 60, 50, 2);
        let store = Arc::new(store);
        let batch = skyline_query(&store, q, Algorithm::Cea);
        let streamed: Vec<SkylineFacility> = SkylineSearch::cea(store.clone(), q).collect();
        assert_eq!(batch.facilities, streamed);
    }

    #[test]
    fn cea_never_does_more_io_than_lsa() {
        for seed in [1u64, 5, 9] {
            let (store, _, q) = random_store(seed, 300, 200, 120, 4);
            let store = Arc::new(store);
            store.set_buffer(BufferConfig::Pages(8)); // small buffer, like 1 %
            store.buffer().clear();
            let lsa = skyline_query(&store, q, Algorithm::Lsa);
            store.buffer().clear();
            let cea = skyline_query(&store, q, Algorithm::Cea);
            assert!(
                cea.stats.io.buffer_misses <= lsa.stats.io.buffer_misses,
                "seed {seed}: CEA misses {} > LSA misses {}",
                cea.stats.io.buffer_misses,
                lsa.stats.io.buffer_misses
            );
        }
    }

    #[test]
    fn query_on_edge_interior_works() {
        let (store, graph, _) = random_store(11, 100, 60, 40, 3);
        let store = Arc::new(store);
        let q = NetworkLocation::on_edge(mcn_graph::EdgeId::new(5), 0.3);
        let got = skyline_query(&store, q, Algorithm::Cea);
        assert_eq!(ids(&got), oracle::skyline(&graph, q));
    }

    #[test]
    fn skyline_members_are_mutually_incomparable() {
        let (store, _, q) = random_store(21, 200, 150, 100, 4);
        let store = Arc::new(store);
        let result = skyline_query(&store, q, Algorithm::Lsa);
        for a in &result.facilities {
            for b in &result.facilities {
                if a.facility != b.facility {
                    assert!(
                        !mcn_graph::dominates(&a.costs, &b.costs),
                        "{} dominates {}",
                        a.facility,
                        b.facility
                    );
                }
            }
        }
    }

    #[test]
    fn directed_unreachable_parts_resolve_like_the_oracle() {
        // One-way edges make parts of the network unreachable: from `c` the
        // facility on a → c must stay out of the skyline, and from the sink
        // `s` no facility is reachable at all, so every expansion runs dry
        // with nothing pinned.
        let mut b = mcn_graph::GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        let d = b.add_node(2.0, 0.0);
        let s = b.add_node(3.0, 0.0);
        let e0 = b
            .add_directed_edge(a, c, mcn_graph::CostVec::from_slice(&[1.0, 2.0]))
            .unwrap();
        let e1 = b
            .add_edge(c, d, mcn_graph::CostVec::from_slice(&[1.0, 2.0]))
            .unwrap();
        b.add_directed_edge(d, s, mcn_graph::CostVec::from_slice(&[1.0, 2.0]))
            .unwrap();
        b.add_facility(e0, 0.5).unwrap();
        b.add_facility(e1, 0.5).unwrap();
        let g = b.build().unwrap();
        let store =
            Arc::new(mcn_storage::MCNStore::build_in_memory(&g, BufferConfig::Pages(8)).unwrap());
        for (node, reachable) in [(c, 1), (s, 0)] {
            let q = NetworkLocation::Node(node);
            let lsa = skyline_query(&store, q, Algorithm::Lsa);
            let cea = skyline_query(&store, q, Algorithm::Cea);
            assert_eq!(lsa.facilities.len(), reachable);
            assert_eq!(lsa.facilities, cea.facilities);
            assert_eq!(ids(&lsa), oracle::skyline(&g, q));
        }
    }

    #[test]
    fn stats_are_populated() {
        let (store, _, _) = random_store(2, 100, 60, 40, 2);
        let store = Arc::new(store);
        let result = skyline_query(
            &store,
            NetworkLocation::Node(NodeId::new(0)),
            Algorithm::Lsa,
        );
        assert_eq!(result.stats.algorithm, "LSA");
        assert!(result.stats.nodes_settled > 0);
        assert!(result.stats.io.logical_reads > 0);
        assert!(result.stats.pinned >= result.stats.result_size);
        assert_eq!(result.stats.result_size, result.facilities.len());
    }
}
