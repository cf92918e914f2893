//! The coordinator state that LSA/CEA skyline and top-k processing share
//! (paper Sections IV and V): `d` seeded expansions probed round-robin, the
//! candidate set they feed, and the growing → shrinking switch.

use crate::candidate::CandidateSet;
use crate::stats::QueryStats;
use mcn_expansion::{seeds_for_location, Expansion, FacilityMode, NetworkAccess};
use mcn_graph::{CostVec, EdgeId, FacilityId, NetworkLocation};
use mcn_storage::{IdMap, IoStats};
use std::sync::Arc;

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
    start_io: IoStats,
}

const _: () = crate::assert_send::<Coordinator<mcn_expansion::DirectAccess>>();

impl<A: NetworkAccess> Coordinator<A> {
    /// Seeds one expansion per cost type at `location`, in the growing stage.
    pub(crate) fn new(access: Arc<A>, location: NetworkLocation) -> Self {
        let d = access.num_cost_types();
        let start_io = access.io_stats();
        let seeds = seeds_for_location(access.as_ref(), location);
        let expansions = (0..d)
            .map(|i| Expansion::new(access.clone(), i, &seeds, FacilityMode::All))
            .collect();
        Self {
            access,
            expansions,
            active: vec![true; d],
            stage: Stage::Growing,
            candidates: CandidateSet::new(d),
            dominance_checks: 0,
            start_io,
        }
    }

    pub(crate) fn d(&self) -> usize {
        self.expansions.len()
    }

    /// True once every expansion is exhausted or stopped early. The
    /// candidate set is then empty, which is why no search resolves
    /// leftover candidates:
    /// * edge costs are finite (`GraphBuilder::validate_edge` rejects the
    ///   rest), so all `d` expansions reach the same facilities, and an
    ///   exhausted expansion has recorded its cost for every candidate;
    /// * an expansion stops early only when every candidate knows its cost;
    /// * so a candidate left here would know every cost, yet [`Self::record`]
    ///   pins and removes a candidate the moment its last cost is known.
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
            algorithm: A::ALGORITHM.to_string(),
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
