//! Tests of a [`crate::dominance`] front at d = 2, the width at which
//! [`front_dominates_weak`](crate::dominance::front_dominates_weak)
//! decides the probe with one binary search instead of a scan.

mod tests {
    use crate::cost::CostVec;
    use crate::dominance::{dominates, dominates_weak, front_dominates_weak, front_insert};

    /// A front of two-cost points without payloads.
    type TwoCostFront = Vec<([f64; 2], ())>;

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

    fn points(f: &TwoCostFront) -> Vec<[f64; 2]> {
        f.iter().map(|(p, ())| *p).collect()
    }

    #[test]
    fn basic_insert_and_dominance() {
        let mut f = TwoCostFront::new();
        assert!(front_insert(&mut f, [3.0, 1.0], ()));
        assert!(front_insert(&mut f, [1.0, 3.0], ()));
        assert_eq!(f.len(), 2);
        // Weakly dominated by (1, 3).
        assert!(front_dominates_weak(&f, &[1.5, 3.0]));
        assert!(!front_insert(&mut f, [1.0, 3.0], ())); // duplicate is weakly dominated
        assert!(!front_dominates_weak(&f, &[0.5, 2.0]));
        // Dominates both members: evicts them.
        assert!(front_insert(&mut f, [0.5, 0.5], ()));
        assert_eq!(f.len(), 1);
        assert_eq!(points(&f), [[0.5, 0.5]]);
    }

    #[test]
    fn incomparable_points_accumulate_sorted() {
        let mut f = TwoCostFront::new();
        for &(a, b) in &[(5.0, 1.0), (1.0, 5.0), (3.0, 3.0), (2.0, 4.0), (4.0, 2.0)] {
            assert!(front_insert(&mut f, [a, b], ()));
        }
        let firsts: Vec<f64> = f.iter().map(|(p, ())| p[0]).collect();
        assert_eq!(firsts, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let seconds: Vec<f64> = f.iter().map(|(p, ())| p[1]).collect();
        assert_eq!(seconds, vec![5.0, 4.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn partial_eviction_keeps_survivors() {
        let mut f = TwoCostFront::new();
        front_insert(&mut f, [1.0, 5.0], ());
        front_insert(&mut f, [3.0, 3.0], ());
        front_insert(&mut f, [5.0, 1.0], ());
        // Dominates (3,3) only.
        assert!(front_insert(&mut f, [2.0, 2.0], ()));
        assert_eq!(points(&f), [[1.0, 5.0], [2.0, 2.0], [5.0, 1.0]]);
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
        let mut fast = TwoCostFront::new();
        let mut reference = Reference::default();
        for _ in 0..2000 {
            let p = [next(), next()];
            let v = CostVec::from_slice(&p);
            // The query answer must agree *before* mutation...
            assert_eq!(
                front_dominates_weak(&fast, &p),
                reference.dominates_weak(&v),
                "query diverged at {p:?}"
            );
            // ...and the insertion outcome must agree too.
            assert_eq!(
                front_insert(&mut fast, p, ()),
                reference.insert(v),
                "insert diverged"
            );
            assert_eq!(fast.len(), reference.points.len());
        }
        // Final fronts hold the same point set.
        let mut got: Vec<(u64, u64)> = fast
            .iter()
            .map(|(p, ())| (p[0].to_bits(), p[1].to_bits()))
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
