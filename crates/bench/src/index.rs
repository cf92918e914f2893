//! The hierarchical partial-path route index's (`mcn-index`) settled-node
//! counts against the prep-backed serving tier.
//!
//! Over seeded (pair, α) queries on a built [`RouteIndex`], every answer is
//! found two ways:
//!
//! * **prep tier** — a [`PrepTable`] backward scan per target followed by
//!   `scalarized_path_astar` per user (the existing serving tier; the scan
//!   is the tier's per-target cold cost);
//! * **index tier** — [`RouteIndex::alpha_path`], a bidirectional upward
//!   search over the hierarchy, no per-target precomputation at all.
//!
//! The full path skyline runs the same comparison:
//! `pareto_paths_prepped` vs [`RouteIndex::skyline_paths`]. Every index
//! route is asserted **byte-identical** to the prep-backed A* route (edge
//! list and the raw bits of the scalarized total), and every index skyline
//! equal to the prepped skyline label-for-label. The index gate pins the
//! means; query and build times are the repo benchmark's `index_serve`
//! workload.

use crate::alpha::user_pool;
use crate::prep::seeded_pairs;
use mcn_alpha::scalarized_path_astar;
use mcn_graph::MultiCostGraph;
use mcn_index::RouteIndex;
use mcn_mcpp::pareto_paths_prepped;
use mcn_prep::PrepTable;

/// Mean settled nodes of the index vs the prep tier on the same seeded
/// queries, byte-identical answers asserted throughout.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexMetrics {
    /// Mean nodes settled per (pair, α) query by the index.
    pub index_settled: f64,
    /// Mean nodes settled per (pair, α) query by prep-backed A*.
    pub astar_settled: f64,
    /// Mean queue pops of one prep backward scan.
    pub prep_scan_settled: f64,
    /// Mean labels the prepped skyline created per pair.
    pub skyline_labels: f64,
    /// Mean labels the index skyline settled per pair.
    pub index_sky_settled: f64,
}

/// Runs every (pair, α) query through both tiers plus the skyline per pair
/// and returns the metrics.
///
/// # Panics
/// Panics if any index answer differs from the prep-backed tier's — the
/// index must never change a result, only the work done finding it.
pub fn measure_index(
    graph: &MultiCostGraph,
    index: &RouteIndex,
    pairs: usize,
    users: usize,
    seed: u64,
) -> IndexMetrics {
    let pair_list = seeded_pairs(graph, pairs, seed ^ 0x1DE8_CAFE);
    let pool = user_pool(graph.num_cost_types(), users, seed ^ 0x1DE8);
    let mut index_settled = 0u64;
    let mut astar_settled = 0u64;
    let mut prep_scan_settled = 0u64;
    let mut skyline_labels = 0u64;
    let mut index_sky_settled = 0u64;
    for &(s, t) in &pair_list {
        let prep = PrepTable::build(graph, t);
        prep_scan_settled += prep.settled();
        for alpha in &pool {
            let tier = scalarized_path_astar(graph, s, t, alpha, &prep);
            let via = index.alpha_path(graph, s, t, alpha);
            astar_settled += tier.stats.settled;
            index_settled += via.stats.settled;
            match (tier.path, via.path) {
                (Some(p), Some(i)) => {
                    assert_eq!(
                        p.edges,
                        i.edges,
                        "the index changed the {s} → {t} route for α = {:?}",
                        alpha.weights()
                    );
                    assert_eq!(
                        p.total.to_bits(),
                        i.total.to_bits(),
                        "the index changed the {s} → {t} scalarized total"
                    );
                }
                (None, None) => {}
                other => panic!("index and prep tier disagree on reachability: {other:?}"),
            }
        }

        let tier_sky = pareto_paths_prepped(graph, s, t, &prep);
        let via_sky = index.skyline_paths(graph, s, t);
        assert_eq!(
            tier_sky.paths, via_sky.paths,
            "the index changed the {s} → {t} path skyline"
        );
        skyline_labels += tier_sky.stats.labels_created;
        index_sky_settled += via_sky.stats.settled;
    }
    let queries = (pair_list.len() * pool.len()).max(1) as f64;
    let n = pair_list.len().max(1) as f64;
    IndexMetrics {
        index_settled: index_settled as f64 / queries,
        astar_settled: astar_settled as f64 / queries,
        prep_scan_settled: prep_scan_settled as f64 / n,
        skyline_labels: skyline_labels as f64 / n,
        index_sky_settled: index_sky_settled as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::gate_graph;
    use mcn_index::IndexConfig;

    #[test]
    fn index_metrics_are_deterministic() {
        let graph = gate_graph(100, 2, 2010);
        let index = RouteIndex::build(&graph, &IndexConfig::default());
        let a = measure_index(&graph, &index, 3, 3, 2010);
        let b = measure_index(&graph, &index, 3, 3, 2010);
        assert_eq!(a.index_settled, b.index_settled);
        assert_eq!(a.astar_settled, b.astar_settled);
        assert_eq!(a.prep_scan_settled, b.prep_scan_settled);
        assert!(a.index_settled > 0.0);
    }
}
