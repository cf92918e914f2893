//! MCN skyline processing: LSA, CEA and the straightforward baseline.
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

use crate::candidate::CandidateSet;
use crate::coordinator::{Coordinator, Stage};
use crate::stats::QueryStats;
use mcn_expansion::{
    seeds_for_location, DirectAccess, Expansion, FacilityMode, NetworkAccess, SharedAccess,
    TablePool,
};
use mcn_graph::{dominates_weak, CostVec, FacilityId, NetworkLocation, MAX_COST_TYPES};
use mcn_storage::StoreView;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Which algorithm variant to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Local Search Algorithm: `d` independent expansions.
    Lsa,
    /// Combined Expansion Algorithm: expansions share fetched information.
    Cea,
}

impl Algorithm {
    /// Human-readable name as used in the paper's plots.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Lsa => "LSA",
            Algorithm::Cea => "CEA",
        }
    }
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
    /// The skyline facilities, in the order they were pinned (LSA/CEA) or in
    /// facility order (baseline).
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
    emitted: Vec<SkylineFacility>,
    pending: VecDeque<SkylineFacility>,
    finished: bool,
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
        Self::new(Arc::new(DirectAccess::new(store)), location, "LSA")
    }
}

impl<S: StoreView + ?Sized> SkylineSearch<SharedAccess<S>> {
    /// Starts a CEA skyline computation at `location` (over any
    /// [`StoreView`], like [`SkylineSearch::lsa`]).
    pub fn cea(store: Arc<S>, location: NetworkLocation) -> Self {
        Self::new(Arc::new(SharedAccess::new(store)), location, "CEA")
    }
}

impl<A: NetworkAccess> SkylineSearch<A> {
    /// Starts a skyline computation over an arbitrary access discipline.
    pub fn new(access: Arc<A>, location: NetworkLocation, algorithm: &'static str) -> Self {
        Self::with_pool(access, location, algorithm, &TablePool::new())
    }

    /// [`SkylineSearch::new`] with the expansions' tables borrowed from
    /// `pool` until the search is dropped.
    pub fn with_pool(
        access: Arc<A>,
        location: NetworkLocation,
        algorithm: &'static str,
        pool: &TablePool,
    ) -> Self {
        Self {
            state: Coordinator::new(access, location, algorithm, pool),
            next_probe: 0,
            emitted: Vec::new(),
            pending: VecDeque::new(),
            finished: false,
        }
    }

    /// Handles a pinned facility: emits it and prunes the candidate set.
    fn pin(&mut self, facility: FacilityId, costs: CostVec) {
        if self.state.stage == Stage::Growing {
            self.state.enter_shrinking();
        }
        let (_, checks) = self.state.candidates.eliminate_dominated(&costs);
        self.state.dominance_checks += checks;
        let member = SkylineFacility { facility, costs };
        self.emitted.push(member.clone());
        self.pending.push_back(member);
        if self.state.candidates.is_empty() {
            self.finished = true;
        }
    }

    /// Resolves the candidates left when every expansion is exhausted (only
    /// possible when parts of the network are unreachable w.r.t. some cost
    /// type, e.g. with directed edges): unknown costs are `+∞` and the usual
    /// dominance rules apply.
    fn resolve_leftovers(&mut self) {
        let leftovers: Vec<(FacilityId, CostVec)> = self.state.leftover_costs().collect();
        for (facility, costs) in &leftovers {
            let dominated_by_emitted = self
                .emitted
                .iter()
                .any(|s| dominates_weak(&s.costs, costs) && s.costs.as_slice() != costs.as_slice());
            let dominated_by_peer = leftovers
                .iter()
                .any(|(other, oc)| other != facility && mcn_graph::dominates(oc, costs));
            self.state.dominance_checks += self.emitted.len() + leftovers.len();
            if !dominated_by_emitted && !dominated_by_peer {
                let member = SkylineFacility {
                    facility: *facility,
                    costs: *costs,
                };
                self.emitted.push(member.clone());
                self.pending.push_back(member);
            }
        }
        self.state.candidates = CandidateSet::new(self.state.d());
        self.finished = true;
    }

    /// Performs one round-robin probe. Returns `false` once the search has
    /// finished.
    fn step(&mut self) -> bool {
        if self.finished {
            return false;
        }
        if self.state.all_inactive() {
            // Every expansion is exhausted or was stopped early. If candidates
            // remain it is either because the early-stop optimisation turned
            // everything off (all their costs are known — resolve them) or
            // because parts of the network are unreachable.
            self.resolve_leftovers();
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
    pub fn into_result(mut self) -> SkylineResult {
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
            if let Some(member) = self.pending.pop_front() {
                return Some(member);
            }
            if !self.step() && self.pending.is_empty() {
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
    skyline_query_in(store, location, algorithm, &TablePool::new())
}

/// [`skyline_query`] with the expansions' tables borrowed from `pool` — the
/// same search, minus the per-query table set-up when the pool is reused.
pub fn skyline_query_in<S: StoreView + ?Sized>(
    store: &Arc<S>,
    location: NetworkLocation,
    algorithm: Algorithm,
    pool: &TablePool,
) -> SkylineResult {
    let name = algorithm.name();
    match algorithm {
        Algorithm::Lsa => {
            let access = Arc::new(DirectAccess::new(store.clone()));
            SkylineSearch::with_pool(access, location, name, pool).into_result()
        }
        Algorithm::Cea => {
            let access = Arc::new(SharedAccess::new(store.clone()));
            SkylineSearch::with_pool(access, location, name, pool).into_result()
        }
    }
}

/// The straightforward baseline of Section IV: run `d` complete network
/// expansions to compute every facility's cost vector, then apply a
/// conventional main-memory skyline algorithm (BNL).
///
/// Facilities unreachable w.r.t. some cost type keep `+∞` for that component.
pub fn baseline_skyline<S: StoreView + ?Sized>(
    store: &Arc<S>,
    location: NetworkLocation,
) -> SkylineResult {
    let started = Instant::now();
    let (items, mut stats) = baseline_costs(store, location);
    let skyline_idx = mcn_skyline::block_nested_loops(&items);
    let mut facilities: Vec<SkylineFacility> = skyline_idx
        .into_iter()
        .map(|i| SkylineFacility {
            facility: items[i].0,
            costs: items[i].1,
        })
        .collect();
    facilities.sort_by_key(|f| f.facility);
    stats.elapsed = started.elapsed();
    stats.result_size = facilities.len();
    SkylineResult { facilities, stats }
}

/// The first phase of both baselines: `d` complete network expansions from
/// `location`, one per cost type, giving every reached facility's cost
/// vector in facility order (`+∞` for a cost type whose expansion does not
/// reach it). The stats hold the expansions' I/O and work counters and
/// count every facility as a candidate and as pinned; the caller sets
/// `elapsed` and `result_size`.
pub(crate) fn baseline_costs<S: StoreView + ?Sized>(
    store: &Arc<S>,
    location: NetworkLocation,
) -> (Vec<(FacilityId, CostVec)>, QueryStats) {
    let access = Arc::new(DirectAccess::new(store.clone()));
    let start_io = access.io_stats();
    let d = access.num_cost_types();
    let seeds = seeds_for_location(access.as_ref(), location);
    let unreached = CostVec::from_slice(&[f64::INFINITY; MAX_COST_TYPES][..d]);
    let mut costs: BTreeMap<FacilityId, CostVec> = BTreeMap::new();
    let mut stats = QueryStats {
        algorithm: "Baseline".to_string(),
        ..QueryStats::default()
    };
    for i in 0..d {
        let mut ex = Expansion::new(access.clone(), i, &seeds, FacilityMode::All);
        while let Some((facility, cost)) = ex.next_nearest() {
            costs.entry(facility).or_insert(unreached)[i] = cost;
        }
        let s = ex.stats();
        stats.nodes_settled += s.nodes_settled;
        stats.heap_pushes += s.heap_pushes;
        stats.heap_pops += s.heap_pops;
    }
    stats.io = access.io_stats() - start_io;
    stats.candidates = costs.len();
    stats.pinned = costs.len();
    (costs.into_iter().collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{paper_figure1_store, random_store, skyline_oracle};
    use mcn_graph::NodeId;
    use mcn_storage::BufferConfig;

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
            assert_eq!(result.facilities.len(), 2, "{}", algo.name());
            assert_eq!(result.stats.result_size, 2);
        }
    }

    #[test]
    fn lsa_cea_and_baseline_agree_on_random_networks() {
        for seed in 0..6 {
            let (store, graph, q) = random_store(seed, 150, 80, 60, 3);
            let store = Arc::new(store);
            let expected = skyline_oracle(&graph, q);
            let lsa = skyline_query(&store, q, Algorithm::Lsa);
            let cea = skyline_query(&store, q, Algorithm::Cea);
            let base = baseline_skyline(&store, q);
            let lsa_ids: Vec<FacilityId> = {
                let mut v: Vec<_> = lsa.facilities.iter().map(|f| f.facility).collect();
                v.sort();
                v
            };
            assert_eq!(lsa_ids, expected, "LSA mismatch, seed {seed}");
            assert_eq!(
                result_set(&lsa),
                result_set(&cea),
                "LSA/CEA mismatch, seed {seed}"
            );
            assert_eq!(
                result_set(&lsa),
                result_set(&base),
                "LSA/baseline mismatch, seed {seed}"
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
    fn baseline_reads_far_more_than_lsa_on_local_queries() {
        let (store, _, q) = random_store(3, 400, 300, 200, 2);
        let store = Arc::new(store);
        store.buffer().clear();
        let lsa = skyline_query(&store, q, Algorithm::Lsa);
        store.buffer().clear();
        let base = baseline_skyline(&store, q);
        // The baseline expands the whole network d times; LSA stays local.
        assert!(base.stats.nodes_settled >= lsa.stats.nodes_settled);
    }

    #[test]
    fn query_on_edge_interior_works() {
        let (store, graph, _) = random_store(11, 100, 60, 40, 3);
        let store = Arc::new(store);
        let q = NetworkLocation::on_edge(mcn_graph::EdgeId::new(5), 0.3);
        let expected = skyline_oracle(&graph, q);
        let mut got: Vec<FacilityId> = skyline_query(&store, q, Algorithm::Cea)
            .facilities
            .iter()
            .map(|f| f.facility)
            .collect();
        got.sort();
        assert_eq!(got, expected);
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
    fn directed_unreachable_parts_resolve_like_the_baseline() {
        // One-way edges make parts of the network unreachable: from `c` the
        // facility on a → c must stay out of the skyline, and from the sink
        // `s` no facility is reachable at all, so every expansion runs dry
        // with nothing pinned (the resolve_leftovers exit).
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
            let base = baseline_skyline(&store, q);
            assert_eq!(lsa.facilities.len(), reachable);
            assert_eq!(lsa.facilities, cea.facilities);
            assert_eq!(result_set(&lsa), result_set(&base));
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
