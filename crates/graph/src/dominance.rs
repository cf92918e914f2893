//! Dominance tests between cost vectors.
//!
//! The MCN skyline (paper Section III) is defined through Pareto dominance over
//! the per-cost-type shortest-path cost vectors: a facility `p'` **dominates**
//! `p` iff `c_i(p') ≤ c_i(p)` for every cost type `i` and `c_j(p') < c_j(p)`
//! for at least one `j`.
//!
//! Two families of tests live here. [`dominates`] and [`dominates_weak`]
//! take [`CostVec`]s of any width and stop at the first deciding lane.
//! [`weakly_dominates`] and [`dominates_strictly`] take `[f64; D]` arrays
//! and compare every lane without an early exit, so a search compiled for
//! one width `D` runs them as straight-line code; [`lex_cmp`] orders such
//! arrays as [`CostVec::lex_cmp`] orders vectors, and [`lanes`] turns a
//! cost slice into one.
//!
//! On top of them sit the two operations of a Pareto front, a
//! lexicographically sorted `Vec<(point, payload)>` whose points are
//! mutually non-dominated: [`front_dominates_weak`] asks whether a member
//! weakly dominates a point, and [`front_insert`] adds the point unless one
//! does, evicting the members it strictly dominates. Both take either
//! point form through [`FrontPoint`], which compares [`CostVec`]s with the
//! first family of tests and arrays with the second. The route index's
//! shortcut bundles, upward label sets and meeting-node merge are such
//! fronts.

use crate::cost::CostVec;
use std::cmp::Ordering;

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

/// A point of a Pareto front: a cost vector in either form the code keeps,
/// with that form's dominance tests and lexicographic order. Costs are
/// never NaN.
pub trait FrontPoint {
    /// The costs, one per cost type.
    fn costs(&self) -> &[f64];
    /// No cost of `self` is larger than `other`'s.
    fn weakly_dominates(&self, other: &Self) -> bool;
    /// No cost of `self` is larger than `other`'s and one is smaller.
    fn strictly_dominates(&self, other: &Self) -> bool;
    /// Lexicographic order, IEEE total order per cost.
    fn lex_cmp(&self, other: &Self) -> Ordering;
}

/// Any width, with the early-exit tests.
impl FrontPoint for CostVec {
    #[inline(always)]
    fn costs(&self) -> &[f64] {
        self.as_slice()
    }
    #[inline(always)]
    fn weakly_dominates(&self, other: &Self) -> bool {
        dominates_weak(self, other)
    }
    #[inline(always)]
    fn strictly_dominates(&self, other: &Self) -> bool {
        dominates(self, other)
    }
    #[inline(always)]
    fn lex_cmp(&self, other: &Self) -> Ordering {
        CostVec::lex_cmp(self, other)
    }
}

/// One width fixed at compile time, with the branch-free tests.
impl<const D: usize> FrontPoint for [f64; D] {
    #[inline(always)]
    fn costs(&self) -> &[f64] {
        self
    }
    #[inline(always)]
    fn weakly_dominates(&self, other: &Self) -> bool {
        weakly_dominates(self, other)
    }
    #[inline(always)]
    fn strictly_dominates(&self, other: &Self) -> bool {
        dominates_strictly(self, other)
    }
    #[inline(always)]
    fn lex_cmp(&self, other: &Self) -> Ordering {
        lex_cmp(self, other)
    }
}

/// True iff some member of `front` weakly dominates `p`.
///
/// `front` is sorted lexicographically and mutually non-dominated, as
/// [`front_insert`] keeps it. At d = 2 its members' cost 1 then falls
/// strictly as cost 0 grows, so the member with the largest cost 0 not
/// above `p`'s decides alone, found by one binary search. At any other d
/// the scan stops at the first member whose cost 0 exceeds `p`'s: no later
/// member can weakly dominate `p`. The d = 2 search orders cost 0 by
/// [`f64::total_cmp`], which puts `-0.0` before `0.0`; elsewhere `-0.0` and
/// `0.0` are equal.
#[inline(always)]
pub fn front_dominates_weak<P: FrontPoint, T>(front: &[(P, T)], p: &P) -> bool {
    let costs = p.costs();
    if costs.len() == 2 {
        let after = front.partition_point(|(m, _)| m.costs()[0].total_cmp(&costs[0]).is_le());
        after > 0 && front[after - 1].0.costs()[1] <= costs[1]
    } else {
        front
            .iter()
            .take_while(|(m, _)| m.costs()[0] <= costs[0])
            .any(|(m, _)| m.weakly_dominates(p))
    }
}

/// Inserts `(p, payload)` into `front` unless a member weakly dominates
/// `p`; otherwise evicts every member `p` strictly dominates and inserts
/// `p` at its lexicographic position. Returns true iff `p` joined.
#[inline(always)]
pub fn front_insert<P: FrontPoint, T>(front: &mut Vec<(P, T)>, p: P, payload: T) -> bool {
    if front_dominates_weak(front, &p) {
        return false;
    }
    // Only the members whose cost 0 is not below `p`'s, the sorted
    // front's tail, can be strictly dominated by `p`: scan them for one
    // before paying for a `retain` over the whole front.
    let tail = front.partition_point(|(m, _)| m.costs()[0] < p.costs()[0]);
    if front[tail..].iter().any(|(m, _)| p.strictly_dominates(m)) {
        front.retain(|(m, _)| !p.strictly_dominates(m));
    }
    let at = front.partition_point(|(m, _)| m.lex_cmp(&p).is_lt());
    front.insert(at, (p, payload));
    true
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
    fn paper_figure1_example() {
        // p1 = (20 min, 0 $), p2 = (10 min, 1 $): neither dominates the other,
        // both belong to the skyline (paper Figure 1 discussion).
        let p1 = cv(&[20.0, 0.0]);
        let p2 = cv(&[10.0, 1.0]);
        assert!(!dominates_weak(&p1, &p2) && !dominates_weak(&p2, &p1));
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

    /// A pairwise reference model of a front: a member weakly dominating
    /// the point rejects it, otherwise the members it strictly dominates
    /// leave and it joins at the end. Returns true iff it was rejected.
    fn model_insert(model: &mut Vec<(Vec<f64>, u32)>, p: &[f64], id: u32) -> bool {
        let le = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x <= y);
        let dominated = model.iter().any(|(m, _)| le(m, p));
        if !dominated {
            model.retain(|(m, _)| !(le(p, m) && p != m.as_slice()));
            model.push((p.to_vec(), id));
        }
        dominated
    }

    /// Feeds one seeded stream into a `CostVec` front and a `[f64; D]`
    /// front and checks, point by point, the probe verdict, the insert
    /// verdict and the whole front against [`model_insert`]. A quarter of
    /// the points repeat an earlier point and a quarter share cost 0 with
    /// the point before.
    fn front_matches_the_model_at<const D: usize>(seed: u64) {
        const POOL: [f64; 7] = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0];
        let mut lcg = seed;
        let mut draw = move |n: usize| {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((lcg >> 33) % n as u64) as usize
        };
        let mut seen: Vec<[f64; D]> = Vec::new();
        let mut fixed: Vec<([f64; D], u32)> = Vec::new();
        let mut general: Vec<(CostVec, u32)> = Vec::new();
        let mut model: Vec<(Vec<f64>, u32)> = Vec::new();
        for id in 0..600u32 {
            let mut p: [f64; D] = std::array::from_fn(|_| POOL[draw(POOL.len())]);
            match (id % 4, seen.last()) {
                (0, Some(_)) => p = seen[draw(seen.len())],
                (1, Some(last)) => p[0] = last[0],
                _ => {}
            }
            seen.push(p);
            let label = format!("D = {D}, point {id}: {p:?}");
            let dominated = model_insert(&mut model, &p, id);
            assert_eq!(front_dominates_weak(&fixed, &p), dominated, "{label}");
            assert_eq!(
                front_dominates_weak(&general, &cv(&p)),
                dominated,
                "{label}"
            );
            assert_eq!(front_insert(&mut fixed, p, id), !dominated, "{label}");
            assert_eq!(
                front_insert(&mut general, cv(&p), id),
                !dominated,
                "{label}"
            );
            model.sort_by(|(a, _), (b, _)| cv(a).lex_cmp(&cv(b)));
            let want: Vec<(CostVec, u32)> = model.iter().map(|(m, i)| (cv(m), *i)).collect();
            let got: Vec<(CostVec, u32)> = fixed.iter().map(|(m, i)| (cv(m), *i)).collect();
            assert_eq!(got, want, "{label}");
            assert_eq!(general, want, "{label}");
        }
    }

    #[test]
    fn fronts_of_both_point_forms_match_the_pairwise_model() {
        front_matches_the_model_at::<1>(21);
        front_matches_the_model_at::<2>(22);
        front_matches_the_model_at::<3>(23);
        front_matches_the_model_at::<4>(24);
        front_matches_the_model_at::<8>(28);
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
            // Strict dominance is weak dominance without equality.
            prop_assert_eq!(
                dominates(&ca, &cb),
                dominates_weak(&ca, &cb) && !dominates_weak(&cb, &ca)
            );
            // A vector weakly dominates itself and never dominates itself.
            prop_assert!(dominates_weak(&ca, &ca) && !dominates(&ca, &ca));
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
