//! Edge-cost assignment: independent, correlated and anti-correlated
//! distributions.
//!
//! These are the standard distributions of skyline evaluation (Börzsönyi et
//! al.) that the paper uses for its Section VI experiments:
//!
//! * **independent** — each of the `d` costs of an edge is drawn
//!   independently;
//! * **correlated** — when one cost of an edge is low the others tend to be
//!   low too (e.g. a short edge is also quick and cheap);
//! * **anti-correlated** — when one cost is low the others tend to be high
//!   (e.g. the fast highway is the expensive tolled one). This is the paper's
//!   default and the hardest case (largest skylines).
//!
//! All costs are strictly positive and proportional to the edge's Euclidean
//! length, so they behave like plausible travel metrics.

use crate::network::Topology;
use mcn_graph::CostVec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The joint distribution of the `d` costs of an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostDistribution {
    /// Costs are drawn independently of each other.
    Independent,
    /// Costs are positively correlated.
    Correlated,
    /// Costs are negatively correlated (the paper's default).
    AntiCorrelated,
}

impl CostDistribution {
    /// Short label used in experiment tables ("IND", "CORR", "ANTI").
    pub fn label(&self) -> &'static str {
        match self {
            CostDistribution::Independent => "IND",
            CostDistribution::Correlated => "CORR",
            CostDistribution::AntiCorrelated => "ANTI",
        }
    }
}

/// Assigns a `d`-dimensional cost vector to every edge of `topology` following
/// `distribution`. Deterministic in `seed`.
pub(crate) fn assign_costs(
    topology: &Topology,
    d: usize,
    distribution: CostDistribution,
    seed: u64,
) -> Vec<CostVec> {
    assert!(d >= 1, "at least one cost type required");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    topology
        .edges
        .iter()
        .map(|&(_, _, length)| {
            let factors = cost_factors(&mut rng, d, distribution);
            let mut cv = CostVec::zeros(d);
            for i in 0..d {
                cv[i] = (length * factors[i]).max(1e-9);
            }
            cv
        })
        .collect()
}

/// Draws `d` multiplicative factors (centred around 1) with the requested
/// joint distribution.
fn cost_factors(rng: &mut ChaCha8Rng, d: usize, distribution: CostDistribution) -> Vec<f64> {
    match distribution {
        CostDistribution::Independent => (0..d).map(|_| rng.gen_range(0.2..1.8)).collect(),
        CostDistribution::Correlated => {
            let base: f64 = rng.gen_range(0.2..1.8);
            (0..d)
                .map(|_| (base + rng.gen_range(-0.1f64..0.1)).clamp(0.05, 2.0))
                .collect()
        }
        CostDistribution::AntiCorrelated => {
            // Draw a point near the simplex Σ factors = d: components compete,
            // so a small value in one dimension forces large values elsewhere.
            let mut raw: Vec<f64> = (0..d).map(|_| rng.gen_range(0.05f64..1.0)).collect();
            let sum: f64 = raw.iter().sum();
            let target = d as f64;
            for f in &mut raw {
                *f = (*f / sum * target + rng.gen_range(-0.05..0.05)).clamp(0.05, 2.0 * target);
            }
            raw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{generate_topology, NetworkSpec};

    fn sample(distribution: CostDistribution) -> Vec<CostVec> {
        let topo = generate_topology(&NetworkSpec::with_target_nodes(2000, 5));
        assign_costs(&topo, 4, distribution, 11)
    }

    /// Empirical Pearson correlation between cost dimension `a` and `b` over a set
    /// of cost vectors.
    fn empirical_correlation(costs: &[CostVec], a: usize, b: usize) -> f64 {
        let n = costs.len() as f64;
        if costs.is_empty() {
            return 0.0;
        }
        let mean = |i: usize| costs.iter().map(|c| c[i]).sum::<f64>() / n;
        let (ma, mb) = (mean(a), mean(b));
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for c in costs {
            cov += (c[a] - ma) * (c[b] - mb);
            va += (c[a] - ma).powi(2);
            vb += (c[b] - mb).powi(2);
        }
        // Exactly zero: an epsilon would misclassify legitimately tiny variances.
        if va == 0.0 || vb == 0.0 {
            0.0
        } else {
            cov / (va.sqrt() * vb.sqrt())
        }
    }

    #[test]
    fn costs_are_positive_and_dimensioned() {
        for dist in [
            CostDistribution::Independent,
            CostDistribution::Correlated,
            CostDistribution::AntiCorrelated,
        ] {
            let costs = sample(dist);
            assert!(!costs.is_empty());
            for cv in &costs {
                assert_eq!(cv.len(), 4);
                assert!(
                    cv.iter().all(|c| c > 0.0),
                    "{dist:?} produced non-positive cost"
                );
            }
        }
    }

    #[test]
    fn correlation_signs_match_distribution() {
        // Normalise by edge length influence by looking at factor ratios: the
        // raw costs share the length factor, so compare the correlation ranks
        // relative to the independent baseline instead of absolute signs.
        let corr = empirical_correlation(&sample(CostDistribution::Correlated), 0, 1);
        let anti = empirical_correlation(&sample(CostDistribution::AntiCorrelated), 0, 1);
        let ind = empirical_correlation(&sample(CostDistribution::Independent), 0, 1);
        assert!(
            corr > ind,
            "correlated ({corr}) should exceed independent ({ind})"
        );
        assert!(
            anti < ind,
            "anti-correlated ({anti}) should fall below independent ({ind})"
        );
        assert!(corr > 0.8, "correlated correlation too weak: {corr}");
    }

    #[test]
    fn assignment_is_deterministic() {
        let topo = generate_topology(&NetworkSpec::with_target_nodes(400, 1));
        let a = assign_costs(&topo, 3, CostDistribution::AntiCorrelated, 7);
        let b = assign_costs(&topo, 3, CostDistribution::AntiCorrelated, 7);
        assert_eq!(a, b);
        let c = assign_costs(&topo, 3, CostDistribution::AntiCorrelated, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(CostDistribution::Independent.label(), "IND");
        assert_eq!(CostDistribution::Correlated.label(), "CORR");
        assert_eq!(CostDistribution::AntiCorrelated.label(), "ANTI");
    }
}
