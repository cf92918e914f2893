//! The monotone aggregate cost function of top-k queries.

use mcn_graph::CostVec;

/// The weighted sum `f(p) = Σ αᵢ·cᵢ(p)` with non-negative coefficients — the
/// aggregate used throughout the paper's evaluation (coefficients drawn
/// uniformly from `[0, 1]`).
///
/// It is increasingly monotone (`cᵢ(p) ≤ cᵢ(p′) ∀i ⇒ f(p) ≤ f(p′)`, paper
/// Section III), which is what allows the growing stage to stop after
/// pinning `k` facilities and what makes the frontier-based lower bound of
/// the shrinking stage valid.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedSum {
    weights: Vec<f64>,
}

impl WeightedSum {
    /// Creates a weighted sum with the given non-negative, finite weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty or contains a negative / non-finite value.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "at least one weight is required");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be non-negative and finite"
        );
        Self { weights }
    }

    /// Equal weights `1/d`.
    pub fn uniform(d: usize) -> Self {
        Self::new(vec![1.0 / d as f64; d])
    }

    /// Number of cost types the function expects.
    pub(crate) fn arity(&self) -> usize {
        self.weights.len()
    }

    /// The aggregate score of a fully known cost vector (lower is better).
    ///
    /// # Panics
    /// Panics if `costs` does not have one entry per weight.
    pub fn score(&self, costs: &CostVec) -> f64 {
        assert_eq!(costs.len(), self.weights.len(), "arity mismatch");
        self.weights
            .iter()
            .zip(costs.as_slice())
            .map(|(w, c)| w * c)
            .sum()
    }

    /// A lower bound on the score of a facility whose costs are only
    /// partially known: unknown components are replaced by the current
    /// expansion frontiers `tᵢ`, which lower-bound the true unknown costs.
    /// A fully known vector scores exactly as [`WeightedSum::score`].
    pub(crate) fn lower_bound(&self, known: &[Option<f64>], frontiers: &[f64]) -> f64 {
        debug_assert_eq!(known.len(), self.arity());
        debug_assert_eq!(frontiers.len(), self.arity());
        self.weights
            .iter()
            .zip(known.iter().zip(frontiers))
            .map(|(w, (k, t))| w * k.unwrap_or(*t))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_sum_scores() {
        let f = WeightedSum::new(vec![0.9, 0.1]);
        assert!((f.score(&CostVec::from_slice(&[10.0, 20.0])) - 11.0).abs() < 1e-12);
        assert_eq!(f.arity(), 2);
        assert_eq!(WeightedSum::uniform(4).weights, &[0.25; 4]);
    }

    #[test]
    fn lower_bound_uses_frontiers_for_unknowns() {
        let f = WeightedSum::new(vec![1.0, 1.0, 1.0]);
        let lb = f.lower_bound(&[Some(2.0), None, Some(4.0)], &[9.0, 3.0, 9.0]);
        assert!((lb - (2.0 + 3.0 + 4.0)).abs() < 1e-12);
        // Fully known ⇒ lower bound equals the exact score.
        let lb = f.lower_bound(&[Some(1.0), Some(2.0), Some(3.0)], &[0.0, 0.0, 0.0]);
        assert!((lb - 6.0).abs() < 1e-12);
    }

    #[test]
    fn lower_bound_never_exceeds_true_score() {
        let f = WeightedSum::new(vec![0.3, 0.7]);
        // True costs (5, 8); frontier (4, 6) lower-bounds the unknown cost.
        let truth = f.score(&CostVec::from_slice(&[5.0, 8.0]));
        let lb = f.lower_bound(&[Some(5.0), None], &[4.0, 6.0]);
        assert!(lb <= truth + 1e-12);
    }

    #[test]
    #[should_panic]
    fn empty_weights_rejected() {
        let _ = WeightedSum::new(vec![]);
    }

    #[test]
    #[should_panic]
    fn negative_weights_rejected() {
        let _ = WeightedSum::new(vec![0.2, -0.4]);
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let f = WeightedSum::uniform(3);
        let _ = f.score(&CostVec::from_slice(&[1.0, 2.0]));
    }
}
