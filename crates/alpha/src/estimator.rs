//! Recovering a user's preference α from an observed route.

use crate::preference::Preference;
use crate::search::{scalarized_path, ScalarPath};
use mcn_graph::{CostVec, EdgeId, MultiCostGraph, NodeId};

/// Result of one [`PreferenceEstimator::estimate`] call.
#[derive(Clone, Debug, PartialEq)]
pub struct EstimateOutcome {
    /// A preference under which the observed route is α-optimal.
    pub preference: Preference,
    /// Outer feasibility rounds used (1 = the starting point already
    /// reproduced the route).
    pub rounds: u32,
    /// Shortest-path probes issued in total (outer rounds + bisection).
    pub probes: u64,
}

/// Learns a user's α from a route they actually took, Lesstat-style but
/// without an LP dependency: an iterative feasibility search against
/// [`scalarized_path`].
///
/// Starting from the uniform α, each round computes the α-optimal route.
/// If it reproduces the observation (identical edges, or equal scalarized
/// cost — the route is co-optimal), that α is the answer. Otherwise the
/// observation is strictly worse under the current α, and the *violated
/// component* — the cost type where the observation overpays the most
/// relative to the optimum — is telling us the user cares less about that
/// cost than the current α does. The round line-searches that component's
/// weight (scale factor in [0, 1], renormalizing the rest). The
/// **suboptimality gap** `α·c(observed) − min_routes α·c(route)` is convex
/// along the segment (a linear function minus a concave minimum of linear
/// route costs), so a golden-section search finds its minimum — including
/// *interior* feasible scales that endpoint bisection would miss. If the
/// minimum reaches (near) zero the observation is optimal there and a
/// final bisection widens back towards the *largest* feasible scale — the
/// least-committal α consistent with the evidence; otherwise the round
/// keeps the gap-minimizing scale as a coordinate-descent step and moves
/// on to the next violated component.
///
/// Not every route is α-optimal for *any* α (strictly dominated detours
/// are unexplainable by linear scalarization); `estimate` returns `None`
/// for those once the round budget is exhausted.
pub struct PreferenceEstimator<'g> {
    graph: &'g MultiCostGraph,
}

/// 1/φ, the golden-section shrink factor.
const INV_PHI: f64 = 0.618_033_988_749_894_9;

/// Outer feasibility rounds before giving up (plenty for d ≤ 8).
const MAX_ROUNDS: u32 = 16;

/// Line-search refinement steps per round (golden-section and the widening
/// bisection each get this many probes).
const BISECT_STEPS: u32 = 12;

impl<'g> PreferenceEstimator<'g> {
    /// Estimator over `graph` (16 rounds × 12 bisection steps).
    pub fn new(graph: &'g MultiCostGraph) -> Self {
        Self { graph }
    }

    /// Recovers an α that makes the observed `edges` (a route source →
    /// target) optimal, or `None` if the route cannot be explained by any
    /// linear scalarization within the round budget.
    pub fn estimate(
        &self,
        source: NodeId,
        target: NodeId,
        edges: &[EdgeId],
    ) -> Option<EstimateOutcome> {
        let d = self.graph.num_cost_types();
        let observed_costs = self.route_costs(source, target, edges);
        let mut weights = vec![1.0; d];
        let mut probes = 0u64;

        for round in 1..=MAX_ROUNDS {
            let alpha = Preference::new(&weights).expect("weights stay valid");
            probes += 1;
            let best = match scalarized_path(self.graph, source, target, &alpha).path {
                Some(p) => p,
                None => return None, // target unreachable: nothing to explain
            };
            if Self::feasible(&alpha, &best, edges, &observed_costs) {
                return Some(EstimateOutcome {
                    preference: alpha,
                    rounds: round,
                    probes,
                });
            }

            // The component where the observation overpays the most is the
            // one the user evidently discounts.
            let violated = self.most_violated(&observed_costs, &best.costs);

            // One probe: the suboptimality gap at `scale` and whether the
            // observation is optimal there.
            let eval = |scale: f64, probes: &mut u64| -> Option<(f64, bool)> {
                let cand = Self::scaled(&weights, violated, scale);
                *probes += 1;
                let cand_best = scalarized_path(self.graph, source, target, &cand).path?;
                let feasible = Self::feasible(&cand, &cand_best, edges, &observed_costs);
                Some((cand.cost_of(&observed_costs) - cand_best.total, feasible))
            };

            // Golden-section search on the convex gap over scale ∈ [0, 1].
            let mut feasible_scale: Option<f64> = None;
            let (mut best_scale, mut best_gap) = (0.0f64, f64::INFINITY);
            let record = |scale: f64,
                          gap: f64,
                          ok: bool,
                          at: &mut Option<f64>,
                          bs: &mut f64,
                          bg: &mut f64| {
                if gap < *bg {
                    *bg = gap;
                    *bs = scale;
                }
                if ok && at.is_none() {
                    *at = Some(scale);
                }
            };
            let (gap0, ok0) = eval(0.0, &mut probes)?;
            record(
                0.0,
                gap0,
                ok0,
                &mut feasible_scale,
                &mut best_scale,
                &mut best_gap,
            );
            let (mut a, mut b) = (0.0f64, 1.0f64);
            let mut c = b - (b - a) * INV_PHI;
            let mut d_probe = a + (b - a) * INV_PHI;
            let (mut gap_c, ok_c) = eval(c, &mut probes)?;
            record(
                c,
                gap_c,
                ok_c,
                &mut feasible_scale,
                &mut best_scale,
                &mut best_gap,
            );
            let (mut gap_d, ok_d) = eval(d_probe, &mut probes)?;
            record(
                d_probe,
                gap_d,
                ok_d,
                &mut feasible_scale,
                &mut best_scale,
                &mut best_gap,
            );
            let mut steps = BISECT_STEPS;
            while feasible_scale.is_none() && steps > 0 {
                steps -= 1;
                if gap_c <= gap_d {
                    b = d_probe;
                    d_probe = c;
                    gap_d = gap_c;
                    c = b - (b - a) * INV_PHI;
                    let (g, ok) = eval(c, &mut probes)?;
                    gap_c = g;
                    record(
                        c,
                        g,
                        ok,
                        &mut feasible_scale,
                        &mut best_scale,
                        &mut best_gap,
                    );
                } else {
                    a = c;
                    c = d_probe;
                    gap_c = gap_d;
                    d_probe = a + (b - a) * INV_PHI;
                    let (g, ok) = eval(d_probe, &mut probes)?;
                    gap_d = g;
                    record(
                        d_probe,
                        g,
                        ok,
                        &mut feasible_scale,
                        &mut best_scale,
                        &mut best_gap,
                    );
                }
            }

            let Some(found) = feasible_scale else {
                // The whole segment is infeasible: keep the gap-minimizing
                // scale as a coordinate-descent step (the gap never
                // increases) and let the next round pick the — possibly
                // different — most-violated component. A floor forces
                // progress when the minimizer sits at the current weight.
                weights[violated] *= best_scale.clamp(1e-3, 1.0 - 1e-3);
                continue;
            };

            // Widen back towards the *largest* feasible scale: the feasible
            // scales form an interval and scale 1 (the current α) is known
            // infeasible, so bisect [found, 1] with the lo-feasible /
            // hi-infeasible invariant.
            let (mut lo, mut hi) = (found, 1.0f64);
            for _ in 0..BISECT_STEPS {
                let mid = 0.5 * (lo + hi);
                let (_, ok) = eval(mid, &mut probes)?;
                if ok {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            return Some(EstimateOutcome {
                preference: Self::scaled(&weights, violated, lo),
                rounds: round,
                probes,
            });
        }
        None
    }

    /// Validates the edge sequence as a route source → target and sums its
    /// cost vector in path order.
    fn route_costs(&self, source: NodeId, target: NodeId, edges: &[EdgeId]) -> CostVec {
        let mut costs = CostVec::zeros(self.graph.num_cost_types());
        let mut at = source;
        for &eid in edges {
            let e = self.graph.edge(eid);
            assert!(
                e.touches(at) && e.traversable_from(at),
                "observed route is not a connected traversable walk"
            );
            costs += e.costs;
            at = e.opposite(at);
        }
        assert_eq!(at, target, "observed route does not end at the target");
        costs
    }

    /// The observation is explained by `alpha` when the α-optimal route is
    /// the observation itself, or costs the same under α (co-optimal tie).
    fn feasible(
        alpha: &Preference,
        best: &ScalarPath,
        observed_edges: &[EdgeId],
        observed_costs: &CostVec,
    ) -> bool {
        if best.edges == observed_edges {
            return true;
        }
        let observed = alpha.cost_of(observed_costs);
        observed <= best.total * (1.0 + 1e-9) + 1e-12
    }

    /// Index of the cost type where the observation overpays the most over
    /// the current optimum (ties break to the smallest index).
    fn most_violated(&self, observed: &CostVec, best: &CostVec) -> usize {
        let mut worst = 0;
        let mut gap = f64::NEG_INFINITY;
        for i in 0..observed.len() {
            let g = observed[i] - best[i];
            if g > gap {
                gap = g;
                worst = i;
            }
        }
        worst
    }

    /// `weights` with component `i` scaled by `factor` (the simplex
    /// projection happens in `Preference::new`). A floor keeps the vector
    /// valid even when every other component is already pinned at ~0.
    fn scaled(weights: &[f64], i: usize, factor: f64) -> Preference {
        let mut w = weights.to_vec();
        w[i] = (w[i] * factor).max(1e-12);
        Preference::new(&w).expect("scaled weights stay valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_graph::GraphBuilder;

    fn diamond() -> (MultiCostGraph, NodeId, NodeId) {
        let mut b = GraphBuilder::new(2);
        let s = b.add_node(0.0, 0.0);
        let top = b.add_node(1.0, 1.0);
        let bot = b.add_node(1.0, -1.0);
        let t = b.add_node(2.0, 0.0);
        b.add_edge(s, top, CostVec::from_slice(&[1.0, 10.0]))
            .unwrap();
        b.add_edge(top, t, CostVec::from_slice(&[1.0, 10.0]))
            .unwrap();
        b.add_edge(s, bot, CostVec::from_slice(&[10.0, 1.0]))
            .unwrap();
        b.add_edge(bot, t, CostVec::from_slice(&[10.0, 1.0]))
            .unwrap();
        (b.build().unwrap(), s, t)
    }

    /// The recovered α must make the observed route optimal — the
    /// estimator's contract, checked by replaying the search.
    fn assert_explains(g: &MultiCostGraph, s: NodeId, t: NodeId, route: &ScalarPath) {
        let est = PreferenceEstimator::new(g);
        let out = est
            .estimate(s, t, &route.edges)
            .expect("route is explainable");
        let replay = scalarized_path(g, s, t, &out.preference).path.unwrap();
        let observed = out.preference.cost_of(&route.costs);
        assert!(
            replay.edges == route.edges || observed <= replay.total * (1.0 + 1e-9) + 1e-12,
            "recovered alpha {:?} does not explain the route",
            out.preference.weights()
        );
    }

    #[test]
    fn recovers_alpha_for_both_diamond_routes() {
        let (g, s, t) = diamond();
        for hidden in [[0.9, 0.1], [0.1, 0.9]] {
            let alpha = Preference::new(&hidden).unwrap();
            let route = scalarized_path(&g, s, t, &alpha).path.unwrap();
            assert_explains(&g, s, t, &route);
        }
    }

    #[test]
    fn uniform_route_is_explained_in_one_round() {
        let (g, s, t) = diamond();
        let route = scalarized_path(&g, s, t, &Preference::new(&[0.8, 0.2]).unwrap())
            .path
            .unwrap();
        let out = PreferenceEstimator::new(&g)
            .estimate(s, t, &route.edges)
            .unwrap();
        assert!(out.rounds >= 1 && out.probes >= 1);
    }

    #[test]
    fn dominated_detour_is_unexplainable() {
        // A strictly dominated detour s → a → t next to a direct edge that
        // is better in every component: no α makes the detour optimal.
        let mut b = GraphBuilder::new(2);
        let s = b.add_node(0.0, 0.0);
        let a = b.add_node(1.0, 1.0);
        let t = b.add_node(2.0, 0.0);
        b.add_edge(s, t, CostVec::from_slice(&[1.0, 1.0])).unwrap();
        let e1 = b.add_edge(s, a, CostVec::from_slice(&[5.0, 5.0])).unwrap();
        let e2 = b.add_edge(a, t, CostVec::from_slice(&[5.0, 5.0])).unwrap();
        let g = b.build().unwrap();
        let est = PreferenceEstimator::new(&g);
        assert!(est.estimate(s, t, &[e1, e2]).is_none());
    }

    #[test]
    #[should_panic(expected = "does not end at the target")]
    fn rejects_routes_that_miss_the_target() {
        let (g, s, t) = diamond();
        let est = PreferenceEstimator::new(&g);
        est.estimate(s, t, &[]);
    }
}
