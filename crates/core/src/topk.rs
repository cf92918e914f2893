//! MCN top-k processing: batch (known `k`) and incremental variants.
//!
//! Top-k processing reuses the skyline machinery (paper Section V): the
//! growing stage runs the `d` expansions round-robin and collects candidates
//! until **k** facilities are pinned (instead of one); the shrinking stage
//! stops admitting new facilities, stops touching the facility file, and
//! resolves the remaining candidates, pruning them with the frontier-based
//! lower bound on their aggregate cost.
//!
//! The incremental variant ([`TopKIter`]) does not require `k` up front: it
//! reports facilities one at a time in ascending aggregate-cost order, and can
//! be driven until the whole facility set is exhausted.

use crate::aggregate::AggregateCost;
use crate::coordinator::{Coordinator, Stage};
use crate::skyline::{baseline_costs, Algorithm};
use crate::stats::QueryStats;
use mcn_expansion::{DirectAccess, ExpansionStep, NetworkAccess, SharedAccess, TablePool};
use mcn_graph::{CostVec, FacilityId, NetworkLocation};
use mcn_storage::StoreView;
use std::sync::Arc;
use std::time::Instant;

/// One member of a top-k result.
#[derive(Clone, Debug, PartialEq)]
pub struct TopKEntry {
    /// The facility.
    pub facility: FacilityId,
    /// Its per-cost-type network distances from the query location.
    pub costs: CostVec,
    /// Its aggregate cost `f(⃗c(p))`.
    pub score: f64,
}

/// The result of a batch top-k query.
#[derive(Clone, Debug)]
pub struct TopKResult {
    /// The `k` best facilities in ascending aggregate-cost order.
    pub entries: Vec<TopKEntry>,
    /// Execution statistics.
    pub stats: QueryStats,
}

/// Starts the expansions of a top-k query scored by `aggregate`.
fn start<A: NetworkAccess, F: AggregateCost>(
    access: Arc<A>,
    location: NetworkLocation,
    aggregate: &F,
    algorithm: &'static str,
    pool: &TablePool,
) -> Coordinator<A> {
    assert_eq!(
        aggregate.arity(),
        access.num_cost_types(),
        "aggregate arity must match the number of cost types"
    );
    Coordinator::new(access, location, algorithm, pool)
}

/// Resolves the remaining candidates with `+∞` for unknown costs.
fn leftover_entries<A: NetworkAccess, F: AggregateCost>(
    state: &Coordinator<A>,
    aggregate: &F,
) -> Vec<TopKEntry> {
    state
        .leftover_costs()
        .map(|(facility, costs)| TopKEntry {
            facility,
            costs,
            score: aggregate.score(&costs),
        })
        .collect()
}

/// Runs a batch top-k query with the given access discipline.
fn topk_with_access<A: NetworkAccess, F: AggregateCost>(
    access: Arc<A>,
    location: NetworkLocation,
    aggregate: F,
    k: usize,
    algorithm: &'static str,
    pool: &TablePool,
) -> TopKResult {
    let mut state = start(access, location, &aggregate, algorithm, pool);
    let d = state.d();
    let mut frontiers = Vec::with_capacity(d);
    // The tentative top-k, kept sorted by (score, facility id).
    let mut top: Vec<TopKEntry> = Vec::new();
    let mut pinned_total = 0usize;

    if k == 0 {
        let stats = state.collect_stats(0, 0);
        return TopKResult {
            entries: Vec::new(),
            stats,
        };
    }

    let mut probe = 0usize;
    loop {
        if state.all_inactive() {
            break;
        }
        let i = probe % d;
        probe += 1;
        if !state.active[i] {
            continue;
        }
        // Early-stop optimisation: an expansion whose cost is known for every
        // remaining candidate contributes nothing further (shrinking only).
        if state.stage == Stage::Shrinking
            && (state.candidates.is_empty() || state.candidates.all_know_cost(i))
        {
            state.active[i] = false;
            continue;
        }

        // Growing probes until the next NN; shrinking advances one step at a
        // time (facilities are rare in the heaps then — paper Section V).
        let popped: Option<(FacilityId, f64)> = match state.stage {
            Stage::Growing => match state.expansions[i].next_nearest() {
                Some(hit) => Some(hit),
                None => {
                    state.active[i] = false;
                    None
                }
            },
            Stage::Shrinking => match state.expansions[i].advance() {
                ExpansionStep::Facility { facility, cost } => Some((facility, cost)),
                ExpansionStep::NodeSettled { .. } => None,
                ExpansionStep::Exhausted => {
                    state.active[i] = false;
                    None
                }
            },
        };

        if let Some((facility, cost)) = popped {
            if let Some(costs) = state.record(facility, i, cost) {
                pinned_total += 1;
                let score = aggregate.score(&costs);
                let entry = TopKEntry {
                    facility,
                    costs,
                    score,
                };
                match state.stage {
                    Stage::Growing => {
                        top.push(entry);
                        top.sort_by(|a, b| {
                            a.score
                                .total_cmp(&b.score)
                                .then(a.facility.cmp(&b.facility))
                        });
                        if top.len() == k {
                            state.enter_shrinking();
                        }
                    }
                    Stage::Shrinking => {
                        state.dominance_checks += 1;
                        let kth = top.last().expect("top is full in shrinking").score;
                        if entry.score < kth {
                            top.pop();
                            top.push(entry);
                            top.sort_by(|a, b| {
                                a.score
                                    .total_cmp(&b.score)
                                    .then(a.facility.cmp(&b.facility))
                            });
                        }
                    }
                }
            }
        }

        // After every complete pass, prune candidates whose aggregate-cost
        // lower bound cannot beat the current k-th best (shrinking only).
        if state.stage == Stage::Shrinking && probe.is_multiple_of(d) && top.len() == k {
            let kth = top.last().expect("top is full").score;
            state.frontiers(&mut frontiers);
            let mut checks = 0usize;
            state.candidates.retain(|c| {
                checks += 1;
                // Not `bound < kth`: a NaN bound (zero weight × ∞ frontier)
                // has always kept its candidate.
                let beaten = aggregate.lower_bound(&c.known, &frontiers) >= kth;
                !beaten
            });
            state.dominance_checks += checks;
            if state.candidates.is_empty() {
                break;
            }
        }
    }

    // If the expansions ran dry before k facilities were pinned (tiny or
    // partially unreachable facility sets), fill up from the remaining
    // candidates, treating unknown costs as +∞.
    if top.len() < k {
        let mut leftovers = leftover_entries(&state, &aggregate);
        leftovers.sort_by(|a, b| {
            a.score
                .total_cmp(&b.score)
                .then(a.facility.cmp(&b.facility))
        });
        for entry in leftovers {
            if top.len() == k {
                break;
            }
            top.push(entry);
        }
        top.sort_by(|a, b| {
            a.score
                .total_cmp(&b.score)
                .then(a.facility.cmp(&b.facility))
        });
    }

    top.truncate(k);
    let stats = state.collect_stats(pinned_total, top.len());
    TopKResult {
        entries: top,
        stats,
    }
}

/// Computes the `k` facilities with the smallest aggregate cost from
/// `location`, using LSA- or CEA-style expansion, over any [`StoreView`]
/// (monolithic or partitioned — identical results).
pub fn topk_query<S: StoreView + ?Sized, F: AggregateCost>(
    store: &Arc<S>,
    location: NetworkLocation,
    aggregate: F,
    k: usize,
    algorithm: Algorithm,
) -> TopKResult {
    topk_query_in(store, location, aggregate, k, algorithm, &TablePool::new())
}

/// [`topk_query`] with the expansions' tables borrowed from `pool` — the
/// same search, minus the per-query table set-up when the pool is reused.
pub fn topk_query_in<S: StoreView + ?Sized, F: AggregateCost>(
    store: &Arc<S>,
    location: NetworkLocation,
    aggregate: F,
    k: usize,
    algorithm: Algorithm,
    pool: &TablePool,
) -> TopKResult {
    let name = algorithm.name();
    match algorithm {
        Algorithm::Lsa => {
            let access = Arc::new(DirectAccess::new(store.clone()));
            topk_with_access(access, location, aggregate, k, name, pool)
        }
        Algorithm::Cea => {
            let access = Arc::new(SharedAccess::new(store.clone()));
            topk_with_access(access, location, aggregate, k, name, pool)
        }
    }
}

/// The straightforward top-k baseline: `d` complete expansions to obtain every
/// facility's cost vector, then sort by aggregate cost.
pub fn baseline_topk<S: StoreView + ?Sized, F: AggregateCost>(
    store: &Arc<S>,
    location: NetworkLocation,
    aggregate: F,
    k: usize,
) -> TopKResult {
    let started = Instant::now();
    let (costs, mut stats) = baseline_costs(store, location);
    let mut entries: Vec<TopKEntry> = costs
        .into_iter()
        .map(|(facility, costs)| TopKEntry {
            facility,
            costs,
            score: aggregate.score(&costs),
        })
        .collect();
    entries.sort_by(|a, b| {
        a.score
            .total_cmp(&b.score)
            .then(a.facility.cmp(&b.facility))
    });
    entries.truncate(k);
    stats.elapsed = started.elapsed();
    stats.result_size = entries.len();
    TopKResult { entries, stats }
}

/// Incremental top-k: reports facilities one at a time in ascending
/// aggregate-cost order, without needing `k` in advance (paper Section V).
///
/// A facility is reported once (i) it is pinned, (ii) it has the smallest
/// aggregate cost among unreported pinned facilities, and (iii) no candidate's
/// aggregate-cost lower bound beats it.
pub struct TopKIter<A: NetworkAccess, F: AggregateCost> {
    /// Stays in the growing stage: incremental processing never closes
    /// admission.
    state: Coordinator<A>,
    aggregate: F,
    /// Pinned but not yet reported, sorted ascending by (score, facility).
    ready: Vec<TopKEntry>,
    reported: usize,
    probe: usize,
    exhausted_resolved: bool,
    /// Scratch for the frontier bounds [`TopKIter::best_is_safe`] compares
    /// against.
    frontiers: Vec<f64>,
}

impl<S: StoreView + ?Sized, F: AggregateCost> TopKIter<DirectAccess<S>, F> {
    /// Starts an incremental top-k iteration with LSA-style access (over any
    /// [`StoreView`]).
    pub fn lsa(store: Arc<S>, location: NetworkLocation, aggregate: F) -> Self {
        Self::new(
            Arc::new(DirectAccess::new(store)),
            location,
            aggregate,
            "LSA",
        )
    }
}

impl<S: StoreView + ?Sized, F: AggregateCost> TopKIter<SharedAccess<S>, F> {
    /// Starts an incremental top-k iteration with CEA-style access (over any
    /// [`StoreView`]).
    pub fn cea(store: Arc<S>, location: NetworkLocation, aggregate: F) -> Self {
        Self::new(
            Arc::new(SharedAccess::new(store)),
            location,
            aggregate,
            "CEA",
        )
    }
}

impl<A: NetworkAccess, F: AggregateCost> TopKIter<A, F> {
    /// Starts an incremental top-k iteration over an arbitrary access
    /// discipline.
    pub fn new(
        access: Arc<A>,
        location: NetworkLocation,
        aggregate: F,
        algorithm: &'static str,
    ) -> Self {
        Self::with_pool(access, location, aggregate, algorithm, &TablePool::new())
    }

    /// [`TopKIter::new`] with the expansions' tables borrowed from `pool`
    /// until the iterator is dropped, however far it was driven.
    pub fn with_pool(
        access: Arc<A>,
        location: NetworkLocation,
        aggregate: F,
        algorithm: &'static str,
        pool: &TablePool,
    ) -> Self {
        Self {
            state: start(access, location, &aggregate, algorithm, pool),
            aggregate,
            ready: Vec::new(),
            reported: 0,
            probe: 0,
            exhausted_resolved: false,
            frontiers: Vec::new(),
        }
    }

    /// Number of facilities reported so far.
    pub fn reported(&self) -> usize {
        self.reported
    }

    /// Execution statistics gathered so far.
    pub fn stats(&self) -> QueryStats {
        self.state
            .collect_stats(self.ready.len() + self.reported, self.reported)
    }

    fn sort_ready(&mut self) {
        self.ready.sort_by(|a, b| {
            a.score
                .total_cmp(&b.score)
                .then(a.facility.cmp(&b.facility))
        });
    }

    /// True iff the best ready entry may be reported (condition (iii)).
    fn best_is_safe(&mut self) -> bool {
        let Some(best) = self.ready.first() else {
            return false;
        };
        self.state.frontiers(&mut self.frontiers);
        self.state
            .candidates
            .iter()
            .all(|c| self.aggregate.lower_bound(&c.known, &self.frontiers) >= best.score)
    }
}

impl<A: NetworkAccess, F: AggregateCost> Iterator for TopKIter<A, F> {
    type Item = TopKEntry;

    fn next(&mut self) -> Option<TopKEntry> {
        let d = self.state.d();
        loop {
            if !self.ready.is_empty() && (self.best_is_safe() || self.state.all_inactive()) {
                let entry = self.ready.remove(0);
                self.reported += 1;
                return Some(entry);
            }
            if self.state.all_inactive() {
                if !self.exhausted_resolved {
                    // Resolve every remaining candidate with +∞ for unknown
                    // costs so the iteration can run through the whole set.
                    for entry in leftover_entries(&self.state, &self.aggregate) {
                        self.state.candidates.remove(entry.facility);
                        self.ready.push(entry);
                    }
                    self.sort_ready();
                    self.exhausted_resolved = true;
                    continue;
                }
                return None;
            }

            // Make progress: probe the next active expansion for its next NN.
            let i = self.probe % d;
            self.probe += 1;
            if !self.state.active[i] {
                continue;
            }
            match self.state.expansions[i].next_nearest() {
                None => {
                    self.state.active[i] = false;
                }
                Some((facility, cost)) => {
                    if let Some(costs) = self.state.record(facility, i, cost) {
                        let score = self.aggregate.score(&costs);
                        self.ready.push(TopKEntry {
                            facility,
                            costs,
                            score,
                        });
                        self.sort_ready();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::WeightedSum;
    use crate::test_support::{paper_figure1_store, random_store, topk_oracle};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Compile-time thread-safety contract: incremental iterations must be
    /// movable onto `QueryEngine` worker threads.
    const fn assert_send<T: Send>() {}
    const _: () = assert_send::<TopKIter<DirectAccess, WeightedSum>>();
    const _: () = assert_send::<TopKIter<SharedAccess, WeightedSum>>();

    fn scores(r: &TopKResult) -> Vec<f64> {
        r.entries.iter().map(|e| e.score).collect()
    }

    #[test]
    fn paper_figure1_weighting_selects_expected_warehouse() {
        let (store, q, (p1, p2)) = paper_figure1_store();
        let store = Arc::new(store);
        // 90 % sensitive goods → time dominates → p2 (10 min, 1 $) wins.
        let time_heavy = WeightedSum::new(vec![0.9, 0.1]);
        let r = topk_query(&store, q, time_heavy, 1, Algorithm::Cea);
        assert_eq!(r.entries[0].facility, p2);
        // Money-dominated weighting prefers the toll-free p1.
        let money_heavy = WeightedSum::new(vec![0.01, 0.99]);
        let r = topk_query(&store, q, money_heavy, 1, Algorithm::Lsa);
        assert_eq!(r.entries[0].facility, p1);
    }

    #[test]
    fn lsa_cea_and_baseline_match_the_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for seed in 0..5 {
            let d = rng.gen_range(2..=4);
            let (store, graph, q) = random_store(seed, 150, 90, 70, d);
            let store = Arc::new(store);
            let weights: Vec<f64> = (0..d).map(|_| rng.gen_range(0.01..1.0)).collect();
            let f = WeightedSum::new(weights);
            let k = rng.gen_range(1..=8);
            let expected = topk_oracle(&graph, q, &f, k);

            for algo in [Algorithm::Lsa, Algorithm::Cea] {
                let got = topk_query(&store, q, f.clone(), k, algo);
                assert_eq!(got.entries.len(), expected.len());
                for (g, e) in got.entries.iter().zip(&expected) {
                    assert!(
                        (g.score - e.1).abs() < 1e-9,
                        "seed {seed} {}: score {} vs oracle {}",
                        algo.name(),
                        g.score,
                        e.1
                    );
                }
            }
            let base = baseline_topk(&store, q, f.clone(), k);
            for (g, e) in base.entries.iter().zip(&expected) {
                assert!((g.score - e.1).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn k_zero_and_k_larger_than_population() {
        let (store, _, q) = random_store(9, 80, 40, 10, 2);
        let store = Arc::new(store);
        let f = WeightedSum::uniform(2);
        let none = topk_query(&store, q, f.clone(), 0, Algorithm::Cea);
        assert!(none.entries.is_empty());
        let all = topk_query(&store, q, f.clone(), 1000, Algorithm::Cea);
        assert_eq!(all.entries.len(), 10);
        // Scores are reported in ascending order.
        let s = scores(&all);
        assert!(s.windows(2).all(|w| w[0] <= w[1] + 1e-12));
    }

    #[test]
    fn incremental_iterator_matches_batch_prefixes() {
        let (store, graph, q) = random_store(13, 150, 100, 60, 3);
        let store = Arc::new(store);
        let f = WeightedSum::new(vec![0.5, 0.3, 0.2]);
        let oracle = topk_oracle(&graph, q, &f, 20);
        let incremental: Vec<TopKEntry> = TopKIter::cea(store.clone(), q, f.clone())
            .take(20)
            .collect();
        assert_eq!(incremental.len(), 20);
        for (g, e) in incremental.iter().zip(&oracle) {
            assert!(
                (g.score - e.1).abs() < 1e-9,
                "incremental score {} vs oracle {}",
                g.score,
                e.1
            );
        }
        // The iterator can keep going and eventually report everything.
        let all: Vec<TopKEntry> = TopKIter::lsa(store.clone(), q, f.clone()).collect();
        assert_eq!(all.len(), graph.num_facilities());
        assert!(all.windows(2).all(|w| w[0].score <= w[1].score + 1e-12));
    }

    #[test]
    fn cea_does_not_read_more_than_lsa() {
        let (store, _, q) = random_store(31, 300, 200, 150, 4);
        let store = Arc::new(store);
        let f = WeightedSum::uniform(4);
        store.set_buffer(mcn_storage::BufferConfig::Pages(8));
        store.buffer().clear();
        let lsa = topk_query(&store, q, f.clone(), 4, Algorithm::Lsa);
        store.buffer().clear();
        let cea = topk_query(&store, q, f.clone(), 4, Algorithm::Cea);
        assert!(cea.stats.io.buffer_misses <= lsa.stats.io.buffer_misses);
        // Both return identical scores.
        for (a, b) in lsa.entries.iter().zip(&cea.entries) {
            assert!((a.score - b.score).abs() < 1e-9);
        }
    }

    #[test]
    fn stats_are_populated() {
        let (store, _, q) = random_store(3, 100, 50, 40, 2);
        let store = Arc::new(store);
        let r = topk_query(&store, q, WeightedSum::uniform(2), 4, Algorithm::Cea);
        assert_eq!(r.stats.algorithm, "CEA");
        assert_eq!(r.stats.result_size, 4);
        assert!(r.stats.pinned >= 4);
        assert!(r.stats.nodes_settled > 0);
    }
}
