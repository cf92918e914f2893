//! The candidate set shared by the skyline and top-k algorithms.
//!
//! During the growing stage every facility returned by any expansion becomes a
//! *candidate*, with the costs discovered so far recorded and the rest
//! unknown. A candidate whose `d` costs are all known is **pinned**: its cost
//! vector is complete and (for the skyline) it can be reported immediately.

use mcn_graph::{dominance::pinned_dominates_partial, CostVec, FacilityId};
use std::collections::BTreeMap;

/// Partially known costs of a candidate facility.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Candidate {
    /// The facility.
    pub facility: FacilityId,
    /// Known costs per cost type (`None` = the expansion for that cost type
    /// has not reached the facility yet).
    pub known: Vec<Option<f64>>,
}

impl Candidate {
    fn new(facility: FacilityId, d: usize) -> Self {
        Self {
            facility,
            known: vec![None; d],
        }
    }

    /// True iff every cost is known.
    pub(crate) fn is_pinned(&self) -> bool {
        self.known.iter().all(Option::is_some)
    }

    /// The complete cost vector (only valid when pinned).
    ///
    /// # Panics
    /// Panics if the candidate is not pinned.
    pub(crate) fn cost_vector(&self) -> CostVec {
        assert!(self.is_pinned(), "cost vector requested before pinning");
        self.known.iter().map(|c| c.unwrap()).collect()
    }
}

/// The candidate set `CS` of the paper, keyed by facility.
///
/// Ordered by facility id on purpose: [`CandidateSet::iter`] feeds the
/// shrinking-stage facility index, so iteration order must be identical run-to-run for the fingerprints
/// and gate baselines to stay byte-stable. Candidate sets are small, so
/// the `BTreeMap` costs nothing measurable over a hash map.
#[derive(Clone, Debug, Default)]
pub(crate) struct CandidateSet {
    d: usize,
    candidates: BTreeMap<FacilityId, Candidate>,
    /// Total number of distinct facilities ever admitted.
    admitted: usize,
}

impl CandidateSet {
    /// Creates an empty candidate set for `d` cost types.
    pub(crate) fn new(d: usize) -> Self {
        Self {
            d,
            candidates: BTreeMap::new(),
            admitted: 0,
        }
    }

    /// True iff no candidates remain.
    pub(crate) fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Total number of distinct facilities ever admitted.
    pub(crate) fn admitted(&self) -> usize {
        self.admitted
    }

    /// True iff `facility` is currently a candidate.
    pub(crate) fn contains(&self, facility: FacilityId) -> bool {
        self.candidates.contains_key(&facility)
    }

    /// Iterates over the current candidates.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Candidate> + '_ {
        self.candidates.values()
    }

    /// Records that expansion `cost_type` reached `facility` at cost `cost`.
    ///
    /// If `admit_new` is true (growing stage) an unseen facility is inserted;
    /// otherwise (shrinking stage) unseen facilities are ignored. Returns a
    /// reference to the candidate when it is now tracked.
    pub(crate) fn record(
        &mut self,
        facility: FacilityId,
        cost_type: usize,
        cost: f64,
        admit_new: bool,
    ) -> Option<&Candidate> {
        debug_assert!(cost_type < self.d);
        if !self.candidates.contains_key(&facility) {
            if !admit_new {
                return None;
            }
            self.candidates
                .insert(facility, Candidate::new(facility, self.d));
            self.admitted += 1;
        }
        let entry = self.candidates.get_mut(&facility).expect("just inserted");
        // Expansions emit each facility at most once per cost type, and always
        // at its final network distance; keep the first (smallest) value.
        if entry.known[cost_type].is_none() {
            entry.known[cost_type] = Some(cost);
        }
        Some(&*entry)
    }

    /// Removes and returns a candidate (e.g. when it gets pinned).
    pub(crate) fn remove(&mut self, facility: FacilityId) -> Option<Candidate> {
        self.candidates.remove(&facility)
    }

    /// Keeps only the candidates `keep` accepts, asking it about each current
    /// candidate exactly once, in facility order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&Candidate) -> bool) {
        self.candidates.retain(|_, cand| keep(cand));
    }

    /// Removes every candidate dominated by the pinned cost vector `pinned`
    /// (using the partial-information dominance rule of Section IV-A) and
    /// returns how many were eliminated, along with the number of dominance
    /// checks performed.
    pub(crate) fn eliminate_dominated(&mut self, pinned: &CostVec) -> (usize, usize) {
        let mut checks = 0;
        let before = self.candidates.len();
        self.retain(|cand| {
            checks += 1;
            !pinned_dominates_partial(pinned, &cand.known)
        });
        (before - self.candidates.len(), checks)
    }

    /// True iff every remaining candidate already knows its `cost_type` cost —
    /// the condition under which the paper stops the corresponding expansion
    /// early (Section IV-A).
    pub(crate) fn all_know_cost(&self, cost_type: usize) -> bool {
        self.candidates
            .values()
            .all(|c| c.known[cost_type].is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_pin() {
        let mut cs = CandidateSet::new(2);
        assert!(cs.is_empty());
        let c = cs.record(FacilityId::new(1), 0, 5.0, true).unwrap();
        assert!(!c.is_pinned());
        assert_eq!(cs.iter().count(), 1);
        let c = cs.record(FacilityId::new(1), 1, 7.0, true).unwrap();
        assert!(c.is_pinned());
        assert_eq!(c.cost_vector().as_slice(), &[5.0, 7.0]);
        assert_eq!(cs.admitted(), 1);
    }

    #[test]
    fn shrinking_stage_ignores_new_facilities() {
        let mut cs = CandidateSet::new(2);
        assert!(cs.record(FacilityId::new(9), 0, 1.0, false).is_none());
        assert!(cs.is_empty());
        cs.record(FacilityId::new(9), 0, 1.0, true);
        // Updating an existing candidate works even when admission is closed.
        assert!(cs.record(FacilityId::new(9), 1, 2.0, false).is_some());
    }

    #[test]
    fn duplicate_records_keep_first_value() {
        let mut cs = CandidateSet::new(2);
        cs.record(FacilityId::new(3), 0, 4.0, true);
        let c = cs.record(FacilityId::new(3), 0, 9.0, true).unwrap();
        assert_eq!(c.known[0], Some(4.0));
    }

    #[test]
    fn elimination_uses_partial_dominance() {
        let mut cs = CandidateSet::new(2);
        // Candidate a: known (6, ?) — dominated by pinned (5, 7).
        cs.record(FacilityId::new(0), 0, 6.0, true);
        // Candidate b: known (?, 3) — survives because 3 < 7.
        cs.record(FacilityId::new(1), 1, 3.0, true);
        let pinned = CostVec::from_slice(&[5.0, 7.0]);
        let (eliminated, checks) = cs.eliminate_dominated(&pinned);
        assert_eq!(eliminated, 1);
        assert_eq!(checks, 2);
        assert!(cs.contains(FacilityId::new(1)));
        assert!(!cs.contains(FacilityId::new(0)));
    }

    #[test]
    fn retain_visits_every_candidate_once_in_facility_order() {
        let mut cs = CandidateSet::new(1);
        for i in [4u32, 0, 2, 3, 1] {
            cs.record(FacilityId::new(i), 0, f64::from(i), true);
        }
        let mut visited = Vec::new();
        cs.retain(|c| {
            visited.push(c.facility.raw());
            c.facility.raw() % 2 == 0
        });
        assert_eq!(visited, vec![0, 1, 2, 3, 4]);
        let left: Vec<u32> = cs.iter().map(|c| c.facility.raw()).collect();
        assert_eq!(left, vec![0, 2, 4]);
        // Removal by pruning is not un-admission.
        assert_eq!(cs.admitted(), 5);
    }

    #[test]
    fn early_expansion_stop_condition() {
        let mut cs = CandidateSet::new(2);
        cs.record(FacilityId::new(0), 0, 1.0, true);
        cs.record(FacilityId::new(1), 0, 2.0, true);
        assert!(cs.all_know_cost(0));
        assert!(!cs.all_know_cost(1));
        cs.record(FacilityId::new(0), 1, 5.0, true);
        cs.record(FacilityId::new(1), 1, 5.0, true);
        assert!(cs.all_know_cost(1));
    }

    #[test]
    fn iteration_is_ordered_by_facility() {
        let mut cs = CandidateSet::new(1);
        for i in [5u32, 1, 9, 3] {
            cs.record(FacilityId::new(i), 0, f64::from(i), true);
        }
        let order: Vec<u32> = cs.iter().map(|c| c.facility.raw()).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
    }

    #[test]
    fn peak_tracks_maximum_size() {
        let mut cs = CandidateSet::new(1);
        for i in 0..5 {
            cs.record(FacilityId::new(i), 0, i as f64, true);
        }
        assert_eq!(cs.iter().count(), 5);
        let pinned = CostVec::from_slice(&[-1.0]);
        // Everything is dominated by a (hypothetical) better vector: the set
        // empties, and the count of admissions keeps its peak.
        let (eliminated, _) =
            cs.eliminate_dominated(&pinned.element_max(&CostVec::from_slice(&[0.0])));
        assert_eq!(eliminated, 5);
        assert!(cs.is_empty());
        assert_eq!(cs.admitted(), 5);
    }
}
