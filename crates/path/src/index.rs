//! A **hierarchical partial-path route index** over the multi-cost graph:
//! a contraction-style hierarchy whose shortcut arcs carry the *Pareto set*
//! of witness-path cost vectors, in the spirit of partial-path indexing for
//! multi-cost route queries (Yang et al., arXiv 2004.12424) grafted onto
//! the contraction-hierarchy machinery of single-cost road networks.
//!
//! ## Build phase
//!
//! Nodes are ranked by a deterministic importance heuristic (edge
//! difference + contracted-neighbor count, lazily re-evaluated, node-id
//! tie-break) and contracted bottom-up. Contracting `v` replaces its arcs
//! by **shortcut arcs** `u → w` whose *bundle* is the Pareto set of
//! combined cost vectors `c(u→v) + c(v→w)`; a candidate is dropped iff a
//! bounded witness search finds a `u → w` path avoiding `v` that weakly
//! dominates it — safe for every scalarization α ≥ 0 *and* for skyline
//! assembly, because a weakly dominating substitute path always exists.
//! An inconclusive (budget-bounded) witness search keeps the shortcut:
//! only index size suffers, never correctness. Bundles are capped
//! ([`IndexConfig::max_bundle`]); any truncation clears the index's
//! [`RouteIndex::exact`] flag, and the engine then falls back to the
//! prep-backed tier.
//!
//! ## Query phase
//!
//! Both query kinds run bidirectional *upward* searches (forward over
//! `up_out`, backward over `up_in`) and assemble the answer from indexed
//! path fragments:
//!
//! * [`RouteIndex::alpha_path`] — scalarized bidirectional Dijkstra with
//!   the standard stopping criterion; byte-identical to
//!   [`scalarized_path`](crate::alpha::scalarized_path) (totals and cost
//!   vectors are recomputed edge-by-edge in path order, so the bits match,
//!   not just the values).
//! * [`RouteIndex::skyline_paths`] — a dominance-merging variant producing
//!   the full path skyline, byte-identical to
//!   [`pareto_paths_prepped`](crate::mcpp::pareto_paths_prepped). Its upward label searches keep
//!   paths implicit (a parent-pointer arena per search), so a relaxation
//!   costs its dominance check, not a copy of a fragment list. The query
//!   matches once on `d` and runs a kernel compiled for that width: label
//!   sets and the meeting-node merge hold `[f64; d]` costs, compared by
//!   the fixed-width helpers of [`mcn_graph::dominance`]; only the merge's
//!   survivors become [`mcn_graph::CostVec`]s again, for the path-order
//!   re-filter.
//!
//! Both report their search effort as
//! [`ScalarStats`](crate::alpha::ScalarStats) (the skyline counting labels
//! where the α search counts nodes), and [`RouteIndex::alpha_path`] returns
//! the same [`ScalarResult`](crate::alpha::ScalarResult) as the direct α
//! search.
//!
//! Both inherit the **exact ties caveat** documented on
//! [`pareto_paths`](crate::mcpp::pareto_paths): on graphs with exactly tied
//! cost vectors the surviving *representative* path may differ; the
//! continuous float costs of every seeded workload have no such ties.
//!
//! Shortcut bundles, upward label sets and the meeting-node merge are the
//! Pareto fronts of [`mcn_graph::dominance`]: kept lexicographically
//! sorted, which at `d == 2` makes weak dominance a binary search instead
//! of a scan.

pub use crate::config::IndexConfig;
pub use crate::query::IndexSkylineResult;
pub use crate::structure::RouteIndex;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha::{scalarized_path_astar, ScalarResult};
    use crate::mcpp::pareto_paths_prepped;
    use crate::prep::PrepTable;
    use crate::tests::seeded_queries;

    /// Summed (α settled, skyline labels settled) of the index over every
    /// (pair, α) query, each answer asserted byte-identical to the
    /// prep-backed tier's.
    fn index_metrics(nodes: usize, d: usize, seed: u64) -> (u64, u64) {
        let (graph, pairs, pool) = seeded_queries(nodes, d, 3, 3, seed);
        let index = RouteIndex::build(&graph, &IndexConfig::default());
        let (mut settled, mut sky_settled) = (0, 0);
        for &(s, t) in &pairs {
            let prep = PrepTable::build(&graph, t);
            for alpha in &pool {
                let tier = scalarized_path_astar(&graph, s, t, alpha, &prep);
                let via = index.alpha_path(&graph, s, t, alpha);
                settled += via.stats.settled;
                let route = |r: &ScalarResult| {
                    r.path
                        .as_ref()
                        .map(|p| (p.edges.clone(), p.total.to_bits()))
                };
                assert_eq!(
                    route(&tier),
                    route(&via),
                    "the index changed the {s} → {t} route"
                );
            }
            let via_sky = index.skyline_paths(&graph, s, t);
            assert_eq!(
                pareto_paths_prepped(&graph, s, t, &prep).paths,
                via_sky.paths,
                "the index changed the {s} → {t} path skyline"
            );
            sky_settled += via_sky.stats.settled;
        }
        (settled, sky_settled)
    }

    #[test]
    fn index_metrics_are_deterministic() {
        let a = index_metrics(100, 2, 2010);
        assert_eq!(a, index_metrics(100, 2, 2010));
        assert!(a.0 > 0, "the index must settle nodes: {a:?}");
    }
}
