//! Hashing for maps keyed by the store's own dense ids (`PageId`, `NodeId`,
//! record pointers).
//!
//! Such keys are produced by this program — never by a caller — so SipHash's
//! protection against crafted collisions buys nothing on the path that pays
//! one probe per logical page read. One multiply per key word spreads
//! consecutive ids over all buckets. Keep the default hasher for any key
//! that arrives from outside the program.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`IdHasher`]. Its users only probe it.
#[expect(
    clippy::disallowed_types,
    reason = "lookup-only, and `IdHasher` has no per-run seed, so even its iteration order repeats between runs"
)]
pub type IdMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiplicative (Fx-style) hasher for small integer keys.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.mix(u64::from(b)));
    }

    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageId;

    #[test]
    fn behaves_like_a_map_and_spreads_dense_ids() {
        let mut map: IdMap<PageId, usize> = IdMap::default();
        for i in 0..10_000u32 {
            assert_eq!(map.insert(PageId(i), i as usize), None);
        }
        assert_eq!(map.len(), 10_000);
        assert!((0..10_000u32).all(|i| map.get(&PageId(i)) == Some(&(i as usize))));
        assert_eq!(map.remove(&PageId(17)), Some(17));
        assert_eq!(map.get(&PageId(17)), None);

        // Consecutive ids must not share low bits (the bucket index) nor the
        // top seven (the control byte): both are injective on a dense range.
        let hash = |n: u32| {
            let mut h = IdHasher::default();
            h.write_u32(n);
            h.finish()
        };
        let low: std::collections::BTreeSet<u64> = (0..256).map(|n| hash(n) & 0xff).collect();
        assert_eq!(low.len(), 256);
        let top: std::collections::BTreeSet<u64> = (0..4096).map(|n| hash(n) >> 57).collect();
        assert_eq!(top.len(), 128);
    }

    #[test]
    fn composite_keys_mix_every_word() {
        let mut map: IdMap<(u32, u16), u8> = IdMap::default();
        map.insert((1, 2), 1);
        map.insert((2, 1), 2);
        assert_eq!(map.get(&(1, 2)), Some(&1));
        assert_eq!(map.get(&(2, 1)), Some(&2));
        assert_eq!(map.get(&(1, 1)), None);
    }
}
