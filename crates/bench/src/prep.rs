//! ParetoPrep's label counts: the multi-criteria path-skyline search over
//! seeded source/target pairs, run exhaustively
//! (`pareto_paths_exhaustive`, no pruning beyond node-level dominance) and
//! pruned (`pareto_paths_prepped` with a fresh [`PrepTable`] backward scan
//! per pair), with the two skylines asserted **byte-identical** on every
//! pair (fingerprint comparison; the workloads draw continuous costs, so
//! the exact-tie representative caveat on `mcn_path::mcpp::pareto_paths` cannot
//! trigger). The label gate pins the means and enforces
//! [`MIN_LABEL_REDUCTION`]; how fast either search serves is the repo
//! benchmark's `path_explore` workload.

use mcn_engine::QueryOutput;
use mcn_graph::{MultiCostGraph, NodeId};
use mcn_path::mcpp::{pareto_paths_exhaustive, pareto_paths_prepped};
use mcn_path::prep::PrepTable;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Minimum factor by which prep must shrink the mean labels created at
/// d = 3 (the acceptance bar of the precomputation subsystem, asserted by
/// the label gate).
pub(crate) const MIN_LABEL_REDUCTION: f64 = 2.0;

/// Mean labels with/without prep over seeded pairs, asserted
/// byte-identical.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct LabelMetrics {
    /// Mean labels created per pair, exhaustive.
    pub exhaustive_labels: f64,
    /// Mean labels created per pair, prepped.
    pub prepped_labels: f64,
}

/// Draws `pairs` deterministic source/target pairs over the graph's nodes
/// from a generator seeded with `seed` (each tier salts its own, so the
/// tiers do not accidentally share routes).
pub(crate) fn seeded_pairs(
    graph: &MultiCostGraph,
    pairs: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = graph.num_nodes();
    (0..pairs)
        .map(|_| {
            let s = NodeId::from(rng.gen_range(0..n));
            let mut t = NodeId::from(rng.gen_range(0..n));
            if t == s {
                t = NodeId::from((t.raw() as usize + 1) % n);
            }
            (s, t)
        })
        .collect()
}

/// Runs the exhaustive and prepped searches over seeded pairs and returns
/// the label metrics.
///
/// # Panics
/// Panics if any pair's pruned skyline differs from the exhaustive one —
/// prep pruning must never change a result.
pub(crate) fn measure_labels(graph: &MultiCostGraph, pairs: usize, seed: u64) -> LabelMetrics {
    let pair_list = seeded_pairs(graph, pairs, seed ^ 0x9E37_79B9);
    let mut exhaustive_labels = 0u64;
    let mut prepped_labels = 0u64;
    for &(s, t) in &pair_list {
        let exhaustive = pareto_paths_exhaustive(graph, s, t);
        let prep = PrepTable::build(graph, t);
        let prepped = pareto_paths_prepped(graph, s, t, &prep);
        assert_eq!(
            QueryOutput::Paths(exhaustive.paths.clone()).fingerprint(),
            QueryOutput::Paths(prepped.paths.clone()).fingerprint(),
            "prep pruning changed the {s} → {t} path skyline"
        );
        exhaustive_labels += exhaustive.stats.labels_created;
        prepped_labels += prepped.stats.labels_created;
    }
    let n = pair_list.len().max(1) as f64;
    LabelMetrics {
        exhaustive_labels: exhaustive_labels as f64 / n,
        prepped_labels: prepped_labels as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::gate_graph;

    #[test]
    fn label_metrics_are_deterministic() {
        let graph = gate_graph(120, 3, 2010);
        let a = measure_labels(&graph, 3, 2010);
        let b = measure_labels(&graph, 3, 2010);
        assert_eq!(a.exhaustive_labels, b.exhaustive_labels);
        assert_eq!(a.prepped_labels, b.prepped_labels);
        assert!(a.prepped_labels < a.exhaustive_labels);
    }
}
