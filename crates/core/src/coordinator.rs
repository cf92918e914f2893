//! The coordinator state that LSA/CEA skyline and top-k processing share
//! (paper Sections IV and V): `d` seeded expansions probed round-robin, the
//! candidate set they feed, and the growing → shrinking switch.

use crate::candidate::CandidateSet;
use crate::stats::QueryStats;
use mcn_expansion::{seeds_for_location, Expansion, FacilityMode, NetworkAccess, TablePool};
use mcn_graph::{CostVec, EdgeId, FacilityId, NetworkLocation};
use mcn_storage::{IdMap, IoStats};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Every facility an expansion returns is admitted as a candidate.
    Growing,
    /// Admission is closed; only the remaining candidates are resolved.
    Shrinking,
}

pub(crate) struct Coordinator<A: NetworkAccess> {
    access: Arc<A>,
    pub(crate) expansions: Vec<Expansion<A>>,
    /// `active[i]` is false once expansion `i` is exhausted or stopped early.
    pub(crate) active: Vec<bool>,
    pub(crate) stage: Stage,
    pub(crate) candidates: CandidateSet,
    pub(crate) dominance_checks: usize,
    algorithm: &'static str,
    start_io: IoStats,
    started: Instant,
}

const _: () = crate::assert_send::<Coordinator<mcn_expansion::DirectAccess>>();

impl<A: NetworkAccess> Coordinator<A> {
    /// Seeds one expansion per cost type at `location`, in the growing stage,
    /// each on tables borrowed from `pool` until the coordinator is dropped.
    pub(crate) fn new(
        access: Arc<A>,
        location: NetworkLocation,
        algorithm: &'static str,
        pool: &TablePool,
    ) -> Self {
        let d = access.num_cost_types();
        let start_io = access.io_stats();
        let started = Instant::now();
        let seeds = seeds_for_location(access.as_ref(), location);
        let expansions = (0..d)
            .map(|i| Expansion::with_pool(access.clone(), i, &seeds, FacilityMode::All, pool))
            .collect();
        Self {
            access,
            expansions,
            active: vec![true; d],
            stage: Stage::Growing,
            candidates: CandidateSet::new(d),
            dominance_checks: 0,
            algorithm,
            start_io,
            started,
        }
    }

    pub(crate) fn d(&self) -> usize {
        self.expansions.len()
    }

    pub(crate) fn all_inactive(&self) -> bool {
        self.active.iter().all(|a| !a)
    }

    /// Fills `bounds` with the per-cost-type lower bounds on the cost of any
    /// facility not yet returned (`+∞` for an exhausted expansion).
    pub(crate) fn frontiers(&self, bounds: &mut Vec<f64>) {
        bounds.clear();
        bounds.extend(
            self.expansions
                .iter()
                .map(|ex| ex.frontier_bound().unwrap_or(f64::INFINITY)),
        );
    }

    /// Switches the search to the shrinking stage: admission to the candidate
    /// set is closed, the candidates' edges are looked up in the facility tree
    /// and the expansions stop touching the facility file (Section IV-A; top-k
    /// processing applies the same switch, Section V).
    pub(crate) fn enter_shrinking(&mut self) {
        self.stage = Stage::Shrinking;
        let mut by_edge: IdMap<EdgeId, Vec<(FacilityId, f64)>> = IdMap::default();
        for cand in self.candidates.iter() {
            if let Some(info) = self.access.facility_info(cand.facility) {
                by_edge
                    .entry(info.edge)
                    .or_default()
                    .push((cand.facility, info.position));
            }
        }
        let by_edge = Arc::new(by_edge);
        for ex in &mut self.expansions {
            ex.set_facility_mode(FacilityMode::CandidatesOnly(by_edge.clone()));
        }
    }

    /// Records that expansion `i` reached `facility` at `cost` (admitting it
    /// as a new candidate only in the growing stage). If that pins the
    /// facility, removes it from the candidate set and returns its complete
    /// cost vector.
    pub(crate) fn record(&mut self, facility: FacilityId, i: usize, cost: f64) -> Option<CostVec> {
        let admit = self.stage == Stage::Growing;
        let costs = self
            .candidates
            .record(facility, i, cost, admit)
            .filter(|c| c.is_pinned())
            .map(|c| c.cost_vector())?;
        self.candidates.remove(facility);
        Some(costs)
    }

    /// The remaining candidates' cost vectors with unknown costs set to `+∞`:
    /// how candidates are resolved once every expansion is exhausted (parts
    /// of the network unreachable w.r.t. some cost type, e.g. directed edges).
    pub(crate) fn leftover_costs(&self) -> impl Iterator<Item = (FacilityId, CostVec)> + '_ {
        let d = self.d();
        self.candidates.iter().map(move |c| {
            let mut cv = CostVec::zeros(d);
            for i in 0..d {
                cv[i] = c.known[i].unwrap_or(f64::INFINITY);
            }
            (c.facility, cv)
        })
    }

    pub(crate) fn collect_stats(&self, pinned: usize, result_size: usize) -> QueryStats {
        let mut nodes_settled = 0;
        let mut heap_pushes = 0;
        let mut heap_pops = 0;
        for ex in &self.expansions {
            let s = ex.stats();
            nodes_settled += s.nodes_settled;
            heap_pushes += s.heap_pushes;
            heap_pops += s.heap_pops;
        }
        QueryStats {
            algorithm: self.algorithm.to_string(),
            elapsed: self.started.elapsed(),
            io: self.access.io_stats() - self.start_io,
            nodes_settled,
            heap_pushes,
            heap_pops,
            candidates: self.candidates.admitted(),
            pinned,
            dominance_checks: self.dominance_checks,
            result_size,
        }
    }
}
