//! User preference vectors α ∈ Δ^{d-1}.

use mcn_graph::{CostVec, MAX_COST_TYPES};

/// A user's preference over the d cost types: a point on the standard
/// simplex Δ^{d-1} (non-negative weights summing to 1).
///
/// Constructed through [`Preference::new`], which validates the raw weights
/// (finite, non-negative, at least one strictly positive) and normalizes
/// them to unit sum, so every `Preference` in the system is already on the
/// simplex. The scalarized cost of a multi-cost vector is the dot product
/// [`Preference::cost_of`].
#[derive(Clone, Debug, PartialEq)]
pub struct Preference {
    weights: Vec<f64>,
}

const _: () = crate::assert_send_sync::<Preference>();

impl Preference {
    /// Validates and normalizes `weights` onto the simplex.
    ///
    /// Requirements: 1 ≤ d ≤ [`MAX_COST_TYPES`], every weight
    /// finite and ≥ 0, and at least one weight strictly positive. The
    /// stored vector is `weights / sum(weights)`.
    pub fn new(weights: &[f64]) -> Result<Self, String> {
        if weights.is_empty() || weights.len() > MAX_COST_TYPES {
            return Err(format!(
                "preference needs 1..={} weights, got {}",
                MAX_COST_TYPES,
                weights.len()
            ));
        }
        let mut sum = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(format!("weight {i} must be finite and >= 0, got {w}"));
            }
            sum += w;
        }
        if sum <= 0.0 {
            return Err("at least one weight must be strictly positive".into());
        }
        Ok(Self {
            weights: weights.iter().map(|w| w / sum).collect(),
        })
    }

    /// The uniform preference 1/d · (1, …, 1) — the natural "no stated
    /// preference" default.
    pub fn uniform(cost_types: usize) -> Self {
        Self::new(&vec![1.0; cost_types.max(1)]).expect("uniform weights are valid")
    }

    /// Number of cost types d this preference scores.
    pub fn cost_types(&self) -> usize {
        self.weights.len()
    }

    /// The normalized weights (sum to 1 up to rounding).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Scalarized cost α·c of a multi-cost vector.
    ///
    /// Zero-weight components are skipped so an infinite cost in an ignored
    /// component never poisons the product with `0 · ∞ = NaN` (prep bounds
    /// are ∞ in every component for unreachable nodes).
    pub fn cost_of(&self, costs: &CostVec) -> f64 {
        debug_assert_eq!(costs.len(), self.weights.len());
        let mut acc = 0.0;
        for (i, &w) in self.weights.iter().enumerate() {
            if w > 0.0 {
                acc += w * costs[i];
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_onto_the_simplex() {
        let p = Preference::new(&[2.0, 6.0]).unwrap();
        assert_eq!(p.weights(), &[0.25, 0.75]);
        assert_eq!(p.cost_types(), 2);
        let sum: f64 = p.weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_is_one_over_d() {
        let p = Preference::uniform(4);
        for &w in p.weights() {
            assert!((w - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_invalid_weights() {
        assert!(Preference::new(&[]).is_err());
        assert!(Preference::new(&[1.0; 9]).is_err());
        assert!(Preference::new(&[0.0, 0.0]).is_err());
        assert!(Preference::new(&[1.0, -0.5]).is_err());
        assert!(Preference::new(&[1.0, f64::NAN]).is_err());
        assert!(Preference::new(&[1.0, f64::INFINITY]).is_err());
    }

    #[test]
    fn cost_of_skips_zero_weights() {
        let p = Preference::new(&[1.0, 0.0]).unwrap();
        let c = CostVec::from_slice(&[3.0, f64::INFINITY]);
        assert_eq!(p.cost_of(&c), 3.0);
    }
}
