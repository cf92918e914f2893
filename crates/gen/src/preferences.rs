//! Per-user preference-vector synthesis for the scalarized serving tier.
//!
//! A production deployment stores one α per user; experiments need a
//! deterministic *pool* of such vectors covering the simplex. The weights
//! are drawn Dirichlet-style — d independent exponential variates,
//! normalized to unit sum — which is uniform on the simplex for
//! `concentration = 1` and biases towards the corners (opinionated users)
//! for smaller values.
//!
//! The raw vectors are plain `Vec<f64>` so this crate stays independent of
//! `mcn-alpha`; `Preference::new` in that crate validates and re-normalizes
//! them on ingestion.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Specification of a synthetic per-user preference pool.
#[derive(Clone, Debug, PartialEq)]
pub struct PreferenceSpec {
    /// Number of users (one weight vector each).
    pub users: usize,
    /// Number of cost types d each vector weighs.
    pub cost_types: usize,
    /// Shape of the pool: 1.0 draws uniformly from the simplex; values
    /// below 1 push the mass towards single-cost extremists, values above 1
    /// towards the uniform center.
    pub concentration: f64,
    /// Master seed; the pool is a pure function of the spec.
    pub seed: u64,
}

impl PreferenceSpec {
    /// A uniform-on-the-simplex pool.
    pub fn uniform(users: usize, cost_types: usize, seed: u64) -> Self {
        Self {
            users,
            cost_types,
            concentration: 1.0,
            seed,
        }
    }
}

/// Generates the pool: `spec.users` weight vectors of length
/// `spec.cost_types`, each normalized to unit sum with every component
/// strictly positive.
///
/// Deterministic: the same spec always produces the same pool, and user `i`
/// keeps their vector when the pool grows (draws are sequential from one
/// seeded stream).
///
/// # Panics
/// Panics if `cost_types == 0`, `users == 0`, or `concentration` is not a
/// positive finite number.
pub fn generate_preferences(spec: &PreferenceSpec) -> Vec<Vec<f64>> {
    assert!(spec.cost_types >= 1, "need at least one cost type");
    assert!(spec.users >= 1, "need at least one user");
    assert!(
        spec.concentration.is_finite() && spec.concentration > 0.0,
        "concentration must be positive and finite"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0xA17A_0001);
    (0..spec.users)
        .map(|_| {
            // Exponential variates via inverse CDF, raised to 1/concentration:
            // Gamma(k) is awkward without a gamma sampler, but the power
            // transform reshapes the spread the same qualitative way and
            // stays deterministic and dependency-free.
            let raw: Vec<f64> = (0..spec.cost_types)
                .map(|_| {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    (-u.ln()).powf(1.0 / spec.concentration).max(1e-9)
                })
                .collect();
            let sum: f64 = raw.iter().sum();
            raw.iter().map(|w| w / sum).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_deterministic_and_on_the_simplex() {
        let spec = PreferenceSpec::uniform(20, 4, 7);
        let a = generate_preferences(&spec);
        let b = generate_preferences(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        for alpha in &a {
            assert_eq!(alpha.len(), 4);
            let sum: f64 = alpha.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(alpha.iter().all(|&w| w > 0.0 && w < 1.0));
        }
    }

    #[test]
    fn different_seeds_give_different_pools() {
        let a = generate_preferences(&PreferenceSpec::uniform(5, 3, 1));
        let b = generate_preferences(&PreferenceSpec::uniform(5, 3, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn user_vectors_are_stable_when_the_pool_grows() {
        let small = generate_preferences(&PreferenceSpec::uniform(3, 3, 9));
        let large = generate_preferences(&PreferenceSpec::uniform(8, 3, 9));
        assert_eq!(small[..], large[..3]);
    }

    #[test]
    fn concentration_shapes_the_spread() {
        // Extremist pools (low concentration) have a larger max component
        // on average than centrist pools (high concentration).
        let spread = |c: f64| -> f64 {
            let pool = generate_preferences(&PreferenceSpec {
                users: 200,
                cost_types: 3,
                concentration: c,
                seed: 42,
            });
            pool.iter()
                .map(|a| a.iter().cloned().fold(0.0, f64::max))
                .sum::<f64>()
                / pool.len() as f64
        };
        assert!(spread(0.3) > spread(1.0));
        assert!(spread(1.0) > spread(5.0));
    }
}
