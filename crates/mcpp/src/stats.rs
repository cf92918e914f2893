//! Label-accounting statistics of one Pareto path search.

/// Counters of one [`crate::pareto_paths`]-family run.
///
/// The unit of work of a label-correcting multi-criteria search is the
/// **label**: one non-dominated way of reaching a node. Every optimisation
/// in this crate (target-dominance early termination, ParetoPrep bound
/// pruning) shows up as candidate labels that are discarded before they are
/// stored and propagated — these counters make that measurable and, because
/// the search is deterministic, exactly reproducible (the bench regression
/// gate compares them run-over-run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Candidate labels generated (the initial source label plus one per
    /// relaxed edge × stored label not yet extended from its node).
    pub labels_created: u64,
    /// Candidates discarded by bound pruning: the label's optimistic
    /// completion (its cost plus the prep lower bound, or the cost itself
    /// without prep) was weakly dominated by the current target skyline or
    /// strictly dominated by an upper-bound cut.
    pub labels_pruned: u64,
    /// Candidates discarded by classic node-level dominance (an existing
    /// label at the node weakly dominates the candidate), among the
    /// candidates `labels_created` counts: a node settled again does not
    /// re-extend its labels, whose repeats would all be discarded, so they
    /// count neither here nor in `labels_pruned`.
    pub labels_dominated: u64,
    /// Labels actually stored at a node (created − pruned − dominated).
    pub labels_inserted: u64,
    /// Labels evicted from a node's set by a newly inserted dominating
    /// label.
    pub labels_evicted: u64,
    /// Nodes popped from the label-correcting queue ("settled" in the loose
    /// sense of SPFA — a node can be settled several times).
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
