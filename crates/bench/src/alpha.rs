//! The scalarized preference *serving* tier's settled-node counts.
//!
//! Over seeded source/target pairs and a pool of per-user preference
//! vectors α (via `mcn_gen::generate_preferences`), the same α-optimal route
//! is found two ways:
//!
//! * **dijkstra** — `scalarized_path`, the heuristic-free binary-heap
//!   Dijkstra over α-collapsed edge costs;
//! * **astar** — `scalarized_path_astar`, driven by the split bound
//!   h(v) = λ·max(S(v), Σ_i L_i(v)) + μ·L(v) (α = λ·1 + μ, λ = min_i α_i)
//!   from a [`PrepTable`] backward scan: its per-cost bounds L and its
//!   summed-cost distances S (built once per target and amortized across
//!   the user pool — the serving-tier regime).
//!
//! The full `pareto_paths_prepped` skyline also runs on every pair, putting
//! the two tiers side by side: the skyline *explores* every Pareto-optimal
//! route, the scalarized query *serves* the single best route for one
//! user's α at a fraction of the labels. Every (pair, α) A* route is
//! asserted **byte-identical** to plain Dijkstra's (edge list and the raw
//! bits of the scalarized total). The alpha gate pins the means and
//! enforces [`MIN_SETTLED_REDUCTION`] and [`MIN_SKYLINE_ADVANTAGE`]; how the
//! engine serves these requests through the prep cache is the repo
//! benchmark's `alpha_serve` workload.

use crate::prep::seeded_pairs;
use mcn_alpha::{scalarized_path, scalarized_path_astar, Preference};
use mcn_gen::{generate_preferences, PreferenceSpec};
use mcn_graph::MultiCostGraph;
use mcn_mcpp::pareto_paths_prepped;
use mcn_prep::PrepTable;

/// Minimum factor by which the prep-backed A* must shrink the mean settled
/// nodes against heuristic-free Dijkstra (the acceptance bar of the
/// serving tier's heuristic, asserted by the alpha gate).
pub const MIN_SETTLED_REDUCTION: f64 = 2.0;

/// Minimum factor between the skyline tier's labels created and the
/// scalarized tier's nodes settled on the same (source, target) pairs —
/// the "orders of magnitude cheaper" claim, enforced at 10× by the alpha
/// gate.
pub const MIN_SKYLINE_ADVANTAGE: f64 = 10.0;

/// Mean settled nodes with and without the heuristic and the skyline's
/// labels on the same pairs, byte-identical routes asserted throughout.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalarMetrics {
    /// Mean nodes settled per query, heuristic-free Dijkstra.
    pub dijkstra_settled: f64,
    /// Mean nodes settled per query, prep-backed A*.
    pub astar_settled: f64,
    /// Mean labels created per pair by the path-skyline search.
    pub skyline_labels: f64,
}

/// The seeded per-user α pool of one point.
pub(crate) fn user_pool(d: usize, users: usize, seed: u64) -> Vec<Preference> {
    generate_preferences(&PreferenceSpec::uniform(users.max(1), d, seed))
        .iter()
        .map(|w| Preference::new(w).expect("generated weights are valid"))
        .collect()
}

/// Runs every (pair, α) query with and without the heuristic plus the
/// skyline search per pair, and returns the metrics.
///
/// # Panics
/// Panics if any A* route differs from plain Dijkstra's — the heuristic
/// must never change a result, only the work done finding it.
pub fn measure_scalarized(
    graph: &MultiCostGraph,
    pairs: usize,
    users: usize,
    seed: u64,
) -> ScalarMetrics {
    let pair_list = seeded_pairs(graph, pairs, seed ^ 0xA1FA_97B1);
    let pool = user_pool(graph.num_cost_types(), users, seed);
    let mut dijkstra_settled = 0u64;
    let mut astar_settled = 0u64;
    let mut skyline_labels = 0u64;
    for &(s, t) in &pair_list {
        let prep = PrepTable::build(graph, t);
        for alpha in &pool {
            let plain = scalarized_path(graph, s, t, alpha);
            let astar = scalarized_path_astar(graph, s, t, alpha, &prep);
            dijkstra_settled += plain.stats.settled;
            astar_settled += astar.stats.settled;
            match (plain.path, astar.path) {
                (Some(p), Some(a)) => {
                    assert_eq!(
                        p.edges,
                        a.edges,
                        "A* changed the {s} → {t} route for α = {:?}",
                        alpha.weights()
                    );
                    assert_eq!(
                        p.total.to_bits(),
                        a.total.to_bits(),
                        "A* changed the {s} → {t} scalarized total"
                    );
                }
                (None, None) => {}
                other => panic!("A* and Dijkstra disagree on reachability: {other:?}"),
            }
        }

        let skyline = pareto_paths_prepped(graph, s, t, &prep);
        skyline_labels += skyline.stats.labels_created;
    }
    let queries = (pair_list.len() * pool.len()).max(1) as f64;
    let n = pair_list.len().max(1) as f64;
    ScalarMetrics {
        dijkstra_settled: dijkstra_settled as f64 / queries,
        astar_settled: astar_settled as f64 / queries,
        skyline_labels: skyline_labels as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::gate_graph;

    #[test]
    fn scalar_metrics_are_deterministic() {
        let graph = gate_graph(120, 3, 2010);
        let a = measure_scalarized(&graph, 3, 3, 2010);
        let b = measure_scalarized(&graph, 3, 3, 2010);
        assert_eq!(a.dijkstra_settled, b.dijkstra_settled);
        assert_eq!(a.astar_settled, b.astar_settled);
        assert_eq!(a.skyline_labels, b.skyline_labels);
        assert!(a.astar_settled < a.dijkstra_settled);
    }
}
