//! Dominance tests between cost vectors.
//!
//! The MCN skyline (paper Section III) is defined through Pareto dominance over
//! the per-cost-type shortest-path cost vectors: a facility `p'` **dominates**
//! `p` iff `c_i(p') ≤ c_i(p)` for every cost type `i` and `c_j(p') < c_j(p)`
//! for at least one `j`.
//!
//! Two families of tests live here. [`dominates`], [`dominates_weak`] and
//! [`relation`] take [`CostVec`]s of any width and stop at the first
//! deciding lane. [`weakly_dominates`] and [`dominates_strictly`] take
//! `[f64; D]` arrays and compare every lane without an early exit, so a
//! search compiled for one width `D` runs them as straight-line code;
//! [`lex_cmp`] orders such arrays as [`CostVec::lex_cmp`] orders vectors,
//! and [`lanes`] turns a cost slice into one.

use crate::cost::CostVec;
use std::cmp::Ordering;

/// The possible Pareto relations between two cost vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DominanceRelation {
    /// The first vector dominates the second.
    Dominates,
    /// The second vector dominates the first.
    DominatedBy,
    /// The two vectors are identical in every component.
    Equal,
    /// Neither vector dominates the other (they are incomparable).
    Incomparable,
}

/// Returns true iff `a` dominates `b`: `a` is no larger in every component and
/// strictly smaller in at least one.
#[inline]
pub fn dominates(a: &CostVec, b: &CostVec) -> bool {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    let mut strictly_smaller = false;
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_smaller = true;
        }
    }
    strictly_smaller
}

/// Returns true iff `a` *weakly* dominates `b`: no component of `a` is larger.
///
/// Unlike [`dominates`], equal vectors weakly dominate each other. This is the
/// test used by LSA/CEA when eliminating candidates against a newly pinned
/// facility: a candidate whose *known* costs are all ≥ the pinned facility's is
/// dominated, because its unknown costs are guaranteed to be no smaller
/// (incremental NN retrieval discovers facilities in increasing cost order).
#[inline]
pub fn dominates_weak(a: &CostVec, b: &CostVec) -> bool {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x <= y)
}

/// Returns true iff neither vector dominates the other and they are not equal.
#[inline]
pub fn incomparable(a: &CostVec, b: &CostVec) -> bool {
    relation(a, b) == DominanceRelation::Incomparable
}

/// Computes the full [`DominanceRelation`] between `a` and `b` in one pass.
#[inline]
pub fn relation(a: &CostVec, b: &CostVec) -> DominanceRelation {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    let mut a_smaller = false;
    let mut b_smaller = false;
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        if x < y {
            a_smaller = true;
        } else if y < x {
            b_smaller = true;
        }
        if a_smaller && b_smaller {
            return DominanceRelation::Incomparable;
        }
    }
    match (a_smaller, b_smaller) {
        (true, false) => DominanceRelation::Dominates,
        (false, true) => DominanceRelation::DominatedBy,
        (false, false) => DominanceRelation::Equal,
        (true, true) => unreachable!("handled by early return"),
    }
}

/// Partial-information dominance used during the shrinking stage of LSA/CEA.
///
/// `pinned` is a fully known cost vector; `partial` contains the candidate's
/// known costs, with `None` for cost types whose expansion has not reached it
/// yet. Because NN retrieval is incremental, every unknown cost of the
/// candidate is guaranteed to be **no smaller** than the pinned facility's
/// corresponding cost, so the candidate can be eliminated iff all of its known
/// costs are ≥ the pinned facility's costs.
#[inline]
pub fn pinned_dominates_partial(pinned: &CostVec, partial: &[Option<f64>]) -> bool {
    debug_assert_eq!(pinned.len(), partial.len(), "dimensionality mismatch");
    pinned
        .as_slice()
        .iter()
        .zip(partial)
        .all(|(&p, known)| match known {
            Some(c) => p <= *c,
            // Unknown cost: the expansion frontier has already passed `p`'s
            // cost on this type, so the candidate's cost is ≥ p's.
            None => true,
        })
}

/// `a` weakly dominates `b`: no component of `a` is larger. Every lane is
/// compared (no early exit), so at a fixed `D` this is straight-line code.
/// Search costs and bounds are never NaN, where this agrees with
/// [`dominates_weak`].
#[inline(always)]
pub fn weakly_dominates<const D: usize>(a: &[f64; D], b: &[f64; D]) -> bool {
    a.iter().zip(b).fold(true, |le, (x, y)| le & (x <= y))
}

/// `a` strictly dominates `b`: no component larger and one smaller. The
/// fixed-width, branch-free twin of [`dominates`] (they agree on every
/// input without NaN).
#[inline(always)]
pub fn dominates_strictly<const D: usize>(a: &[f64; D], b: &[f64; D]) -> bool {
    let (le, lt) = a.iter().zip(b).fold((true, false), |(le, lt), (x, y)| {
        (le & (x <= y), lt | (x < y))
    });
    le & lt
}

/// Lexicographic comparison of two `D`-cost arrays using IEEE total order
/// per component: the fixed-width twin of [`CostVec::lex_cmp`].
#[inline(always)]
pub fn lex_cmp<const D: usize>(a: &[f64; D], b: &[f64; D]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            Ordering::Equal => continue,
            non_eq => return non_eq,
        }
    }
    Ordering::Equal
}

/// A slice of exactly `D` costs as an array.
///
/// # Panics
/// Panics if `costs` does not hold exactly `D` costs.
#[inline(always)]
pub fn lanes<const D: usize>(costs: &[f64]) -> [f64; D] {
    costs.try_into().expect("one cost per cost type")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cv(v: &[f64]) -> CostVec {
        CostVec::from_slice(v)
    }

    #[test]
    fn strict_dominance() {
        assert!(dominates(&cv(&[1.0, 2.0]), &cv(&[2.0, 3.0])));
        assert!(dominates(&cv(&[1.0, 2.0]), &cv(&[1.0, 3.0])));
        assert!(!dominates(&cv(&[1.0, 2.0]), &cv(&[1.0, 2.0])));
        assert!(!dominates(&cv(&[1.0, 4.0]), &cv(&[2.0, 3.0])));
        assert!(!dominates(&cv(&[2.0, 3.0]), &cv(&[1.0, 2.0])));
    }

    #[test]
    fn weak_dominance_accepts_equality() {
        assert!(dominates_weak(&cv(&[1.0, 2.0]), &cv(&[1.0, 2.0])));
        assert!(dominates_weak(&cv(&[1.0, 2.0]), &cv(&[1.0, 3.0])));
        assert!(!dominates_weak(&cv(&[1.0, 4.0]), &cv(&[1.0, 3.0])));
    }

    #[test]
    fn relation_covers_all_cases() {
        assert_eq!(
            relation(&cv(&[1.0, 1.0]), &cv(&[2.0, 2.0])),
            DominanceRelation::Dominates
        );
        assert_eq!(
            relation(&cv(&[2.0, 2.0]), &cv(&[1.0, 1.0])),
            DominanceRelation::DominatedBy
        );
        assert_eq!(
            relation(&cv(&[1.0, 1.0]), &cv(&[1.0, 1.0])),
            DominanceRelation::Equal
        );
        assert_eq!(
            relation(&cv(&[1.0, 3.0]), &cv(&[3.0, 1.0])),
            DominanceRelation::Incomparable
        );
        assert!(incomparable(&cv(&[1.0, 3.0]), &cv(&[3.0, 1.0])));
        assert!(!incomparable(&cv(&[1.0, 1.0]), &cv(&[1.0, 1.0])));
    }

    #[test]
    fn paper_figure1_example() {
        // p1 = (20 min, 0 $), p2 = (10 min, 1 $): neither dominates the other,
        // both belong to the skyline (paper Figure 1 discussion).
        let p1 = cv(&[20.0, 0.0]);
        let p2 = cv(&[10.0, 1.0]);
        assert_eq!(relation(&p1, &p2), DominanceRelation::Incomparable);
    }

    #[test]
    fn partial_dominance_shrinking_stage() {
        // Pinned p1 = (5, 7). Candidate p2 has known c1 = 6 and unknown c2.
        // Since 5 <= 6 and c2(p2) >= 7 is guaranteed, p1 dominates p2.
        let pinned = cv(&[5.0, 7.0]);
        assert!(pinned_dominates_partial(&pinned, &[Some(6.0), None]));
        // Candidate p5 has known c2 = 3 < 7, so it cannot be eliminated.
        assert!(!pinned_dominates_partial(&pinned, &[None, Some(3.0)]));
        // Fully known candidate strictly better in one dimension survives.
        assert!(!pinned_dominates_partial(&pinned, &[Some(4.0), Some(9.0)]));
        // Fully known candidate worse everywhere is eliminated.
        assert!(pinned_dominates_partial(&pinned, &[Some(6.0), Some(8.0)]));
    }

    /// Checks the fixed-width helpers against the `CostVec` tests at width
    /// `D`, on seeded vectors whose lanes repeat, include `0.0` and `-0.0`
    /// and include `∞`: a quarter of the pairs are all-equal and a quarter
    /// differ in one lane only.
    fn fixed_width_helpers_agree_at<const D: usize>(seed: u64) {
        const POOL: [f64; 6] = [0.0, -0.0, 0.5, 1.0, 2.0, f64::INFINITY];
        let mut lcg = seed;
        let mut draw = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            POOL[((lcg >> 33) % POOL.len() as u64) as usize]
        };
        for round in 0..500 {
            let a: [f64; D] = std::array::from_fn(|_| draw());
            let b: [f64; D] = match round % 4 {
                0 => a,
                1 => {
                    let mut b = a;
                    b[round / 4 % D] = draw();
                    b
                }
                _ => std::array::from_fn(|_| draw()),
            };
            let (ca, cb) = (cv(&a), cv(&b));
            let label = format!("D = {D}: {a:?} vs {b:?}");
            assert_eq!(
                lanes::<D>(ca.as_slice()).map(f64::to_bits),
                a.map(f64::to_bits)
            );
            assert_eq!(
                weakly_dominates(&a, &b),
                dominates_weak(&ca, &cb),
                "{label}"
            );
            assert_eq!(dominates_strictly(&a, &b), dominates(&ca, &cb), "{label}");
            assert_eq!(lex_cmp(&a, &b), ca.lex_cmp(&cb), "{label}");
        }
    }

    #[test]
    fn fixed_width_helpers_agree_with_the_cost_vector_tests_at_every_width() {
        // One call per width 1..=MAX_COST_TYPES.
        const _: () = assert!(crate::MAX_COST_TYPES == 8);
        fixed_width_helpers_agree_at::<1>(11);
        fixed_width_helpers_agree_at::<2>(12);
        fixed_width_helpers_agree_at::<3>(13);
        fixed_width_helpers_agree_at::<4>(14);
        fixed_width_helpers_agree_at::<5>(15);
        fixed_width_helpers_agree_at::<6>(16);
        fixed_width_helpers_agree_at::<7>(17);
        fixed_width_helpers_agree_at::<8>(18);
    }

    #[test]
    fn fixed_width_helpers_on_signed_zeros_and_infinities() {
        // Dominance compares `-0.0` and `0.0` as equal; the lexicographic
        // order puts `-0.0` first, as `f64::total_cmp` does.
        assert!(weakly_dominates(&[0.0, -0.0], &[-0.0, 0.0]));
        assert!(!dominates_strictly(&[-0.0, 1.0], &[0.0, 1.0]));
        assert_eq!(lex_cmp(&[-0.0, 1.0], &[0.0, 0.0]), Ordering::Less);
        assert_eq!(lex_cmp(&[1.0, 2.0], &[1.0, 2.0]), Ordering::Equal);
        let inf = f64::INFINITY;
        assert!(weakly_dominates(&[inf, 1.0], &[inf, 1.0]));
        assert!(!dominates_strictly(&[inf, 1.0], &[inf, 1.0]));
        assert!(dominates_strictly(&[inf, 1.0], &[inf, 2.0]));
        assert_eq!(lex_cmp(&[1.0, inf], &[inf, 0.0]), Ordering::Less);
    }

    #[test]
    #[should_panic(expected = "one cost per cost type")]
    fn lanes_rejects_a_slice_of_another_width() {
        let _ = lanes::<3>(&[1.0, 2.0]);
    }

    proptest! {
        #[test]
        fn prop_dominance_is_antisymmetric(
            a in proptest::collection::vec(0.0f64..100.0, 2..=5),
        ) {
            let b: Vec<f64> = a.iter().map(|x| x + 1.0).collect();
            let ca = cv(&a);
            let cb = cv(&b);
            prop_assert!(dominates(&ca, &cb));
            prop_assert!(!dominates(&cb, &ca));
        }

        #[test]
        fn prop_relation_consistent_with_predicates(
            a in proptest::collection::vec(0.0f64..10.0, 2..=5),
            b in proptest::collection::vec(0.0f64..10.0, 2..=5),
        ) {
            prop_assume!(a.len() == b.len());
            let ca = cv(&a);
            let cb = cv(&b);
            match relation(&ca, &cb) {
                DominanceRelation::Dominates => {
                    prop_assert!(dominates(&ca, &cb));
                    prop_assert!(dominates_weak(&ca, &cb));
                }
                DominanceRelation::DominatedBy => {
                    prop_assert!(dominates(&cb, &ca));
                }
                DominanceRelation::Equal => {
                    prop_assert!(!dominates(&ca, &cb) && !dominates(&cb, &ca));
                    prop_assert!(dominates_weak(&ca, &cb) && dominates_weak(&cb, &ca));
                }
                DominanceRelation::Incomparable => {
                    prop_assert!(!dominates(&ca, &cb) && !dominates(&cb, &ca));
                }
            }
        }

        #[test]
        fn prop_partial_with_all_known_matches_weak_dominance(
            a in proptest::collection::vec(0.0f64..10.0, 2..=5),
            b in proptest::collection::vec(0.0f64..10.0, 2..=5),
        ) {
            prop_assume!(a.len() == b.len());
            let ca = cv(&a);
            let partial: Vec<Option<f64>> = b.iter().copied().map(Some).collect();
            prop_assert_eq!(
                pinned_dominates_partial(&ca, &partial),
                dominates_weak(&ca, &cv(&b))
            );
        }
    }
}
