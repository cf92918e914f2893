//! Fixed-capacity cost vectors.
//!
//! Every edge of an MCN carries `d` non-negative costs, one per *cost type*
//! (Euclidean length, driving time, walking time, toll fee, …). The paper
//! evaluates `d ∈ [2, 5]`; we support up to [`MAX_COST_TYPES`] costs stored
//! inline so that cost arithmetic on the query hot path never allocates.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut};

/// Maximum number of cost types supported by a [`CostVec`].
///
/// The paper uses at most five cost types; eight gives headroom without
/// growing the inline representation past a cache line.
pub const MAX_COST_TYPES: usize = 8;

/// A fixed-capacity vector of `d` non-negative costs, stored inline.
///
/// `CostVec` behaves like a tiny `Vec<f64>` capped at [`MAX_COST_TYPES`]
/// elements. Arithmetic (`+`, `+=`) is element-wise and requires both operands
/// to have the same dimensionality.
#[derive(Clone, Copy)]
pub struct CostVec {
    len: u8,
    values: [f64; MAX_COST_TYPES],
}

impl CostVec {
    /// Creates a zero vector with `d` cost types.
    ///
    /// # Panics
    /// Panics if `d == 0` or `d > MAX_COST_TYPES`.
    #[inline]
    pub fn zeros(d: usize) -> Self {
        assert!(
            (1..=MAX_COST_TYPES).contains(&d),
            "number of cost types must be in [1, {MAX_COST_TYPES}], got {d}"
        );
        Self {
            len: d as u8,
            values: [0.0; MAX_COST_TYPES],
        }
    }

    /// Creates a vector with `d` cost types all equal to `value`.
    #[inline]
    pub fn splat(d: usize, value: f64) -> Self {
        let mut v = Self::zeros(d);
        for i in 0..d {
            v.values[i] = value;
        }
        v
    }

    /// Creates a vector with `d` cost types all equal to `f64::INFINITY`.
    ///
    /// Useful as the identity for element-wise minima and as the "unknown /
    /// unreached" distance in expansion algorithms.
    #[inline]
    pub fn infinity(d: usize) -> Self {
        Self::splat(d, f64::INFINITY)
    }

    /// Creates a cost vector from a slice.
    ///
    /// # Panics
    /// Panics if the slice is empty or longer than [`MAX_COST_TYPES`].
    #[inline]
    pub fn from_slice(costs: &[f64]) -> Self {
        let mut v = Self::zeros(costs.len());
        v.values[..costs.len()].copy_from_slice(costs);
        v
    }

    /// Number of cost types (the paper's `d`).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Always false: a cost vector has at least one dimension.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The costs as a slice of length `d`.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.values[..self.len as usize]
    }

    /// The costs as a mutable slice of length `d`.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.values[..self.len as usize]
    }

    /// Returns the `i`-th cost, or `None` if `i >= d`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<f64> {
        self.as_slice().get(i).copied()
    }

    /// Returns true iff every component is finite and non-negative.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.as_slice().iter().all(|&c| c.is_finite() && c >= 0.0)
    }

    /// Returns true iff every component is non-negative (infinities allowed).
    #[inline]
    pub fn is_non_negative(&self) -> bool {
        self.as_slice().iter().all(|&c| c >= 0.0)
    }

    /// Element-wise sum of all components.
    #[inline]
    pub fn total(&self) -> f64 {
        self.as_slice().iter().sum()
    }

    /// Multiplies every component by `factor`, returning a new vector.
    ///
    /// Used to compute *partial* edge weights: a facility lying at fraction
    /// `t ∈ [0, 1]` along an edge is reachable from the first end-node at cost
    /// `t · w(e)` and from the second at `(1 − t) · w(e)` (Section III of the
    /// paper: partial weights proportional to Euclidean distance).
    #[inline]
    pub fn scale(&self, factor: f64) -> Self {
        let mut out = *self;
        for c in out.as_mut_slice() {
            *c *= factor;
        }
        out
    }

    /// Element-wise minimum of two vectors of the same dimensionality.
    #[inline]
    pub fn element_min(&self, other: &Self) -> Self {
        assert_eq!(self.len, other.len, "dimensionality mismatch");
        let mut out = *self;
        for (o, &b) in out.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *o = o.min(b);
        }
        out
    }

    /// Element-wise maximum of two vectors of the same dimensionality.
    #[inline]
    pub fn element_max(&self, other: &Self) -> Self {
        assert_eq!(self.len, other.len, "dimensionality mismatch");
        let mut out = *self;
        for (o, &b) in out.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *o = o.max(b);
        }
        out
    }

    /// Lexicographic comparison using IEEE total order per component.
    ///
    /// This is *not* the dominance relation (see [`crate::dominance`]); it is a
    /// total order used for deterministic tie-breaking and sorting.
    #[inline]
    pub fn lex_cmp(&self, other: &Self) -> Ordering {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.as_slice().iter().zip(other.as_slice()) {
            match a.total_cmp(b) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        Ordering::Equal
    }

    /// Returns an iterator over the costs.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.as_slice().iter().copied()
    }
}

impl Index<usize> for CostVec {
    type Output = f64;

    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.as_slice()[i]
    }
}

impl IndexMut<usize> for CostVec {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.as_mut_slice()[i]
    }
}

impl Add for CostVec {
    type Output = CostVec;

    #[inline]
    fn add(mut self, rhs: CostVec) -> CostVec {
        self += rhs;
        self
    }
}

impl AddAssign for CostVec {
    #[inline]
    fn add_assign(&mut self, rhs: CostVec) {
        assert_eq!(self.len, rhs.len, "dimensionality mismatch");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += b;
        }
    }
}

impl PartialEq for CostVec {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for CostVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl fmt::Display for CostVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.3}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<f64> for CostVec {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut values = [0.0; MAX_COST_TYPES];
        let mut len = 0usize;
        for v in iter {
            assert!(len < MAX_COST_TYPES, "too many cost types");
            values[len] = v;
            len += 1;
        }
        assert!(len >= 1, "cost vector must have at least one component");
        Self {
            len: len as u8,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_splat() {
        let z = CostVec::zeros(3);
        assert_eq!(z.len(), 3);
        assert_eq!(z.as_slice(), &[0.0, 0.0, 0.0]);
        let s = CostVec::splat(2, 4.5);
        assert_eq!(s.as_slice(), &[4.5, 4.5]);
        let inf = CostVec::infinity(2);
        assert!(inf[0].is_infinite() && inf[1].is_infinite());
    }

    #[test]
    #[should_panic]
    fn zero_dimensions_panics() {
        let _ = CostVec::zeros(0);
    }

    #[test]
    #[should_panic]
    fn too_many_dimensions_panics() {
        let _ = CostVec::zeros(MAX_COST_TYPES + 1);
    }

    #[test]
    fn from_slice_roundtrip() {
        let v = CostVec::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[2], 3.0);
        assert_eq!(v.get(3), None);
        assert_eq!(v.total(), 6.0);
    }

    #[test]
    fn add_is_elementwise() {
        let a = CostVec::from_slice(&[1.0, 2.0]);
        let b = CostVec::from_slice(&[10.0, 20.0]);
        assert_eq!((a + b).as_slice(), &[11.0, 22.0]);
    }

    #[test]
    #[should_panic]
    fn add_dimension_mismatch_panics() {
        let a = CostVec::from_slice(&[1.0, 2.0]);
        let b = CostVec::from_slice(&[1.0]);
        let _ = a + b;
    }

    #[test]
    fn scale_computes_partial_weights() {
        let w = CostVec::from_slice(&[10.0, 4.0]);
        assert_eq!(w.scale(0.25).as_slice(), &[2.5, 1.0]);
        assert_eq!(w.scale(0.75).as_slice(), &[7.5, 3.0]);
        // The two partial weights sum back to the full edge weight.
        assert_eq!((w.scale(0.25) + w.scale(0.75)).as_slice(), w.as_slice());
    }

    #[test]
    fn element_min_max() {
        let a = CostVec::from_slice(&[1.0, 5.0]);
        let b = CostVec::from_slice(&[2.0, 3.0]);
        assert_eq!(a.element_min(&b).as_slice(), &[1.0, 3.0]);
        assert_eq!(a.element_max(&b).as_slice(), &[2.0, 5.0]);
    }

    #[test]
    fn lex_cmp_is_total_and_deterministic() {
        let a = CostVec::from_slice(&[1.0, 2.0]);
        let b = CostVec::from_slice(&[1.0, 3.0]);
        assert_eq!(a.lex_cmp(&b), Ordering::Less);
        assert_eq!(b.lex_cmp(&a), Ordering::Greater);
        assert_eq!(a.lex_cmp(&a), Ordering::Equal);
    }

    #[test]
    fn validity_checks() {
        assert!(CostVec::from_slice(&[0.0, 1.0]).is_valid());
        assert!(!CostVec::from_slice(&[-1.0, 1.0]).is_valid());
        assert!(!CostVec::infinity(2).is_valid());
        assert!(CostVec::infinity(2).is_non_negative());
    }

    #[test]
    fn display_formats_tuple() {
        let v = CostVec::from_slice(&[1.0, 2.5]);
        assert_eq!(v.to_string(), "(1.000, 2.500)");
    }

    #[test]
    fn from_iterator_collects() {
        let v: CostVec = [3.0, 4.0].into_iter().collect();
        assert_eq!(v.as_slice(), &[3.0, 4.0]);
    }

    proptest! {
        #[test]
        fn prop_add_commutative(
            a in proptest::collection::vec(0.0f64..1e6, 1..=MAX_COST_TYPES),
        ) {
            let b: Vec<f64> = a.iter().map(|x| x * 0.5 + 1.0).collect();
            let ca = CostVec::from_slice(&a);
            let cb = CostVec::from_slice(&b);
            let ab = ca + cb;
            let ba = cb + ca;
            prop_assert_eq!(ab.as_slice(), ba.as_slice());
        }

        #[test]
        fn prop_scale_bounds(
            a in proptest::collection::vec(0.0f64..1e6, 1..=MAX_COST_TYPES),
            t in 0.0f64..=1.0,
        ) {
            let c = CostVec::from_slice(&a);
            let s = c.scale(t);
            for i in 0..c.len() {
                prop_assert!(s[i] <= c[i] + 1e-9);
                prop_assert!(s[i] >= 0.0);
            }
        }

        #[test]
        fn prop_element_min_dominates_neither(
            a in proptest::collection::vec(0.0f64..1e3, 2..=4),
        ) {
            let b: Vec<f64> = a.iter().rev().copied().collect();
            let ca = CostVec::from_slice(&a);
            let cb = CostVec::from_slice(&b);
            let m = ca.element_min(&cb);
            for i in 0..ca.len() {
                prop_assert!(m[i] <= ca[i] && m[i] <= cb[i]);
            }
        }
    }
}
