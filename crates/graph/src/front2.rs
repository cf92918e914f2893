//! Sorted-sweep Pareto front for the bicriterion (d = 2) case.
//!
//! With exactly two cost types a Pareto front has a total structure the
//! general pairwise dominance test cannot exploit: sorted by the first
//! component ascending, the second component is **strictly descending**.
//! Membership and dominance queries therefore reduce to one binary search
//! instead of a scan over the whole front — the classic bicriterion
//! fast path (ROADMAP item "Bicriterion d = 2 fast path").
//!
//! [`Front2`] is used as a *mirror* of a label set that the general-purpose
//! code keeps anyway: `mcn-mcpp` mirrors the target skyline with one and
//! answers its hot weak-dominance check in `O(log k)`, and `mcn-index`
//! maintains shortcut bundles and assembled skylines through it. The
//! boolean answers are defined to be *identical* to the pairwise test over
//! the same multiset of points, so switching the fast path on cannot change
//! a single label count.

/// A 2-dimensional Pareto front under *minimisation*, kept sorted by the
/// first component ascending (and, as an invariant, the second component
/// strictly descending).
///
/// Points on the front are mutually non-dominated in the **weak** sense:
/// inserting a point weakly dominated by a member is a no-op, and inserting
/// a new member evicts every member it strictly dominates. Duplicate points
/// are kept once. This mirrors exactly how the label-correcting code treats
/// its skylines (`dominates_weak` to reject, `dominates` to evict).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Front2 {
    /// `(c0, c1)` pairs sorted by `c0` ascending, `c1` strictly descending.
    points: Vec<(f64, f64)>,
}

impl Front2 {
    /// An empty front.
    pub fn new() -> Self {
        Self { points: Vec::new() }
    }

    /// Number of points on the front.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff the front has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Drops every point.
    pub fn clear(&mut self) {
        self.points.clear();
    }

    /// True iff some front member weakly dominates `(c0, c1)` — i.e. has
    /// both components `≤`. Equivalent to
    /// `members.iter().any(|m| dominates_weak(m, p))` over the same points,
    /// in `O(log k)`: the best candidate is the member with the largest
    /// first component still `≤ c0` (its second component is the smallest
    /// among those), so one binary search decides.
    pub fn dominates_weak(&self, c0: f64, c1: f64) -> bool {
        // partition_point: first index whose member has points[i].0 > c0.
        let idx = self.points.partition_point(|p| p.0.total_cmp(&c0).is_le());
        if idx == 0 {
            return false;
        }
        self.points[idx - 1].1 <= c1
    }

    /// Inserts `(c0, c1)` unless a member weakly dominates it; evicts every
    /// member it strictly dominates. Returns `true` iff the point joined
    /// the front.
    pub fn insert(&mut self, c0: f64, c1: f64) -> bool {
        if self.dominates_weak(c0, c1) {
            return false;
        }
        // The new point survives. Members strictly dominated by it form a
        // contiguous run starting at its insertion position: every member
        // with a first component ≥ c0 and second component ≥ c1 (with one
        // strict, guaranteed because no member weakly dominates the new
        // point and members are pairwise non-dominated).
        let start = self.points.partition_point(|p| p.0.total_cmp(&c0).is_lt());
        let mut end = start;
        while end < self.points.len() && self.points[end].1 >= c1 {
            end += 1;
        }
        self.points.splice(start..end, [(c0, c1)]);
        true
    }

    /// The points of the front, sorted by first component ascending.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostVec;
    use crate::dominance::{dominates, dominates_weak};

    /// Pairwise reference model of the same weak/strict dominance protocol.
    #[derive(Default)]
    struct Reference {
        points: Vec<CostVec>,
    }

    impl Reference {
        fn dominates_weak(&self, p: &CostVec) -> bool {
            self.points.iter().any(|m| dominates_weak(m, p))
        }

        fn insert(&mut self, p: CostVec) -> bool {
            if self.dominates_weak(&p) {
                return false;
            }
            self.points.retain(|m| !dominates(&p, m));
            self.points.push(p);
            true
        }
    }

    fn vec2(a: f64, b: f64) -> CostVec {
        CostVec::from_slice(&[a, b])
    }

    #[test]
    fn basic_insert_and_dominance() {
        let mut f = Front2::new();
        assert!(f.insert(3.0, 1.0));
        assert!(f.insert(1.0, 3.0));
        assert_eq!(f.len(), 2);
        // Weakly dominated by (1, 3).
        assert!(f.dominates_weak(1.5, 3.0));
        assert!(!f.insert(1.0, 3.0)); // duplicate is weakly dominated
        assert!(!f.dominates_weak(0.5, 2.0));
        // Dominates both members: evicts them.
        assert!(f.insert(0.5, 0.5));
        assert_eq!(f.len(), 1);
        assert_eq!(f.points(), &[(0.5, 0.5)]);
    }

    #[test]
    fn incomparable_points_accumulate_sorted() {
        let mut f = Front2::new();
        for &(a, b) in &[(5.0, 1.0), (1.0, 5.0), (3.0, 3.0), (2.0, 4.0), (4.0, 2.0)] {
            assert!(f.insert(a, b));
        }
        let firsts: Vec<f64> = f.points().iter().map(|p| p.0).collect();
        assert_eq!(firsts, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let seconds: Vec<f64> = f.points().iter().map(|p| p.1).collect();
        assert_eq!(seconds, vec![5.0, 4.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn partial_eviction_keeps_survivors() {
        let mut f = Front2::new();
        f.insert(1.0, 5.0);
        f.insert(3.0, 3.0);
        f.insert(5.0, 1.0);
        // Dominates (3,3) only.
        assert!(f.insert(2.0, 2.0));
        assert_eq!(f.points(), &[(1.0, 5.0), (2.0, 2.0), (5.0, 1.0)]);
    }

    #[test]
    fn matches_pairwise_reference_on_seeded_stream() {
        // Deterministic LCG stream of points on a small lattice so exact
        // duplicates and exact component ties both occur.
        let mut lcg = 0x5EEDu64;
        let mut next = || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((lcg >> 33) % 16) as f64 * 0.25
        };
        let mut fast = Front2::new();
        let mut reference = Reference::default();
        for _ in 0..2000 {
            let p = vec2(next(), next());
            // The query answer must agree *before* mutation...
            assert_eq!(
                fast.dominates_weak(p[0], p[1]),
                reference.dominates_weak(&p),
                "query diverged at {p:?}"
            );
            // ...and the insertion outcome must agree too.
            assert_eq!(
                fast.insert(p[0], p[1]),
                reference.insert(p),
                "insert diverged"
            );
            assert_eq!(fast.len(), reference.points.len());
        }
        // Final fronts hold the same point set.
        let mut got: Vec<(u64, u64)> = fast
            .points()
            .iter()
            .map(|p| (p.0.to_bits(), p.1.to_bits()))
            .collect();
        let mut want: Vec<(u64, u64)> = reference
            .points
            .iter()
            .map(|m| (m[0].to_bits(), m[1].to_bits()))
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
