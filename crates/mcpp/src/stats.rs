//! Label-accounting statistics of one Pareto path search.

/// Counters of one [`crate::pareto_paths`]-family run.
///
/// The unit of work of a multi-criteria label search is the **label**: one
/// non-dominated way of reaching a node. Every optimisation in this crate
/// shows up here: target-dominance early termination and ParetoPrep bound
/// pruning as candidate labels discarded before they are stored and
/// propagated, the best-first order as fewer labels extended and created.
/// The search is deterministic, so the counters are exactly reproducible
/// (the bench regression gate compares them run-over-run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Candidate labels generated: the initial source label, plus one per
    /// popped label × relaxed edge — each label the search extends (see
    /// `nodes_settled`) creates one candidate per edge out of its node.
    pub labels_created: u64,
    /// Candidates discarded by bound pruning: the label's optimistic
    /// completion (its cost plus the prep lower bound, or the cost itself
    /// without prep) was weakly dominated by the current target skyline or
    /// strictly dominated by an upper-bound cut.
    pub labels_pruned: u64,
    /// Candidates discarded by classic node-level dominance (an existing
    /// label at the node weakly dominates the candidate), among the
    /// candidates `labels_created` counts.
    pub labels_dominated: u64,
    /// Labels actually stored at a node (created − pruned − dominated).
    pub labels_inserted: u64,
    /// Labels evicted from a node's set by a newly inserted dominating
    /// label (whether or not they were extended before).
    pub labels_evicted: u64,
    /// Labels extended: popped from the best-first queue and neither
    /// evicted while queued nor dropped because the target skyline had
    /// grown to dominate their bound. Each stored label is extended at most
    /// once. (The name is the node-FIFO search's, whose pops settled a node
    /// and extended all of its new labels at once.)
    pub nodes_settled: u64,
}

impl PathStats {
    /// Fraction of created candidates removed by bound pruning
    /// (0 when nothing was created).
    pub fn prune_fraction(&self) -> f64 {
        if self.labels_created == 0 {
            0.0
        } else {
            self.labels_pruned as f64 / self.labels_created as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_fraction_handles_empty_runs() {
        assert_eq!(PathStats::default().prune_fraction(), 0.0);
        let stats = PathStats {
            labels_created: 10,
            labels_pruned: 4,
            ..Default::default()
        };
        assert!((stats.prune_fraction() - 0.4).abs() < 1e-12);
    }
}
