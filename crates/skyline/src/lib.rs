//! # mcn-skyline
//!
//! A classic **main-memory skyline algorithm** over generic
//! multi-dimensional tuples, from those surveyed in Section II-A of the
//! paper (Börzsönyi et al. ICDE'01 and successors). It is used here
//!
//! * by the *straightforward baseline* of Section IV: compute the complete
//!   cost vectors of all facilities with `d` full network expansions, then run
//!   a conventional skyline algorithm over them;
//! * as an independent oracle in tests: LSA and CEA must produce exactly the
//!   same skyline as BNL over the brute-force cost vectors.
//!
//! [`block_nested_loops`] is the BNL algorithm of Börzsönyi et al.;
//! [`naive_skyline`] is the `O(n²)` reference it is tested against. Both
//! operate on items implementing [`SkylineItem`], i.e. anything exposing a
//! [`CostVec`], and return indices into the input slice so callers can
//! recover their own payloads.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bnl;

pub use bnl::block_nested_loops;

use mcn_graph::CostVec;

/// An item that can participate in skyline computation.
pub trait SkylineItem {
    /// The item's cost vector (lower is better in every dimension).
    fn costs(&self) -> &CostVec;
}

impl SkylineItem for CostVec {
    fn costs(&self) -> &CostVec {
        self
    }
}

impl<T> SkylineItem for (T, CostVec) {
    fn costs(&self) -> &CostVec {
        &self.1
    }
}

/// Naive `O(n²)` skyline used as the reference implementation in tests.
///
/// Returns the indices of all items not dominated by any other item, in input
/// order. Duplicate cost vectors are all retained (neither dominates the other).
pub fn naive_skyline<T: SkylineItem>(items: &[T]) -> Vec<usize> {
    let mut result = Vec::new();
    'outer: for (i, item) in items.iter().enumerate() {
        for (j, other) in items.iter().enumerate() {
            if i != j && mcn_graph::dominates(other.costs(), item.costs()) {
                continue 'outer;
            }
        }
        result.push(i);
    }
    result
}

/// Verifies that `skyline` (indices into `items`) is exactly the set of
/// non-dominated items. Used by property tests.
pub fn is_valid_skyline<T: SkylineItem>(items: &[T], skyline: &[usize]) -> bool {
    let mut expected = naive_skyline(items);
    let mut got: Vec<usize> = skyline.to_vec();
    expected.sort_unstable();
    got.sort_unstable();
    expected == got
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cv(v: &[f64]) -> CostVec {
        CostVec::from_slice(v)
    }

    #[test]
    fn naive_skyline_simple() {
        let items = vec![
            cv(&[1.0, 5.0]), // skyline
            cv(&[2.0, 6.0]), // dominated by 0
            cv(&[3.0, 2.0]), // skyline
            cv(&[0.5, 9.0]), // skyline
        ];
        assert_eq!(naive_skyline(&items), vec![0, 2, 3]);
    }

    #[test]
    fn naive_skyline_retains_duplicates() {
        let items = vec![cv(&[1.0, 1.0]), cv(&[1.0, 1.0]), cv(&[2.0, 2.0])];
        assert_eq!(naive_skyline(&items), vec![0, 1]);
    }

    #[test]
    fn skyline_item_for_pairs() {
        let items = vec![("a", cv(&[1.0, 5.0])), ("b", cv(&[2.0, 6.0]))];
        assert_eq!(naive_skyline(&items), vec![0]);
    }

    #[test]
    fn is_valid_skyline_checks_set_equality() {
        let items = vec![cv(&[1.0, 5.0]), cv(&[2.0, 6.0]), cv(&[3.0, 2.0])];
        assert!(is_valid_skyline(&items, &[2, 0]));
        assert!(!is_valid_skyline(&items, &[0]));
        assert!(!is_valid_skyline(&items, &[0, 1, 2]));
    }
}
