//! A static, bulk-loaded B+-tree over `u32` keys with fixed-size values.
//!
//! The paper's storage scheme (its Figure 2) uses three disk-resident index
//! structures: the *adjacency tree* (node id → adjacency-file position), the
//! *facility tree* (facility id → containing edge and position) and — added in
//! this reproduction — an *edge index* (edge id → end-nodes) used to seed
//! queries whose location lies in the interior of an edge.
//!
//! The MCN is write-once/read-many, so the trees are bulk loaded bottom-up
//! from sorted `(key, value)` pairs and never updated in place. Lookups walk
//! from the root through the buffer pool, so index I/O is accounted exactly
//! like data I/O (as in the paper's experiments).

use crate::buffer::BufferPool;
use crate::codec::{RecordReader, RecordWriter};
use crate::disk::DiskManager;
use crate::page::{Page, PageId, PAGE_SIZE};

/// Size in bytes of every value stored in a tree leaf.
pub const VALUE_SIZE: usize = 12;

/// A fixed-size value stored in tree leaves.
pub type Value = [u8; VALUE_SIZE];

const LEAF: u8 = 0;
const INTERNAL: u8 = 1;
const HEADER: usize = 1 + 2; // node type + entry count
const LEAF_ENTRY: usize = 4 + VALUE_SIZE;
const INTERNAL_ENTRY: usize = 4 + 4; // max key of child + child page id
const LEAF_CAPACITY: usize = (PAGE_SIZE - HEADER) / LEAF_ENTRY;
const INTERNAL_CAPACITY: usize = (PAGE_SIZE - HEADER) / INTERNAL_ENTRY;

/// Handle to a bulk-loaded static B+-tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaticBTree {
    /// Root page of the tree.
    pub root: PageId,
    /// Number of pages the tree occupies (leaves + internal nodes).
    pub num_pages: u32,
    /// Number of key/value pairs stored.
    pub num_entries: u32,
}

impl StaticBTree {
    /// Bulk loads a tree from `entries`, which must be sorted by key with no
    /// duplicates, writing its pages through `disk`. Returns the tree handle.
    ///
    /// # Panics
    /// Panics if `entries` is empty or not strictly sorted by key.
    pub fn bulk_load(disk: &dyn DiskManager, entries: &[(u32, Value)]) -> Self {
        assert!(!entries.is_empty(), "cannot bulk load an empty tree");
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk load input must be strictly sorted by key"
        );
        let mut pages_used = 0u32;
        // Every node is laid out in this one page, cleared before each use.
        let mut page = Page::zeroed();

        // Level 0: leaves. Remember (max key, page id) per leaf.
        let mut level: Vec<(u32, PageId)> = Vec::new();
        for chunk in entries.chunks(LEAF_CAPACITY) {
            pages_used += 1;
            page.bytes_mut().fill(0);
            {
                let mut w = RecordWriter::new(page.bytes_mut());
                w.put_u8(LEAF);
                w.put_u16(chunk.len() as u16);
                for (key, value) in chunk {
                    w.put_u32(*key);
                    for b in value {
                        w.put_u8(*b);
                    }
                }
            }
            let id = disk.append_page(&page);
            level.push((chunk.last().unwrap().0, id));
        }

        // Upper levels until a single root remains.
        while level.len() > 1 {
            let mut next: Vec<(u32, PageId)> = Vec::new();
            for chunk in level.chunks(INTERNAL_CAPACITY) {
                pages_used += 1;
                page.bytes_mut().fill(0);
                {
                    let mut w = RecordWriter::new(page.bytes_mut());
                    w.put_u8(INTERNAL);
                    w.put_u16(chunk.len() as u16);
                    for (max_key, child) in chunk {
                        w.put_u32(*max_key);
                        w.put_u32(child.raw());
                    }
                }
                let id = disk.append_page(&page);
                next.push((chunk.last().unwrap().0, id));
            }
            level = next;
        }

        StaticBTree {
            root: level[0].1,
            num_pages: pages_used,
            num_entries: entries.len() as u32,
        }
    }

    /// Looks up `key`, reading pages through `pool`. Returns the stored value
    /// or `None` if the key is absent.
    pub fn lookup(&self, pool: &BufferPool, key: u32) -> Option<Value> {
        let mut current = self.root;
        loop {
            let step = pool.with_page(current, |bytes| {
                let mut r = RecordReader::new(bytes, 0);
                let node_type = r.get_u8();
                let count = r.get_u16() as usize;
                if node_type == LEAF {
                    let entries = &bytes[HEADER..HEADER + count * LEAF_ENTRY];
                    let slot = lower_bound::<LEAF_ENTRY>(entries, key);
                    match entries[slot * LEAF_ENTRY..].first_chunk::<LEAF_ENTRY>() {
                        Some(entry) if entry[..4] == key.to_le_bytes() => {
                            Step::Found(entry[4..].try_into().unwrap())
                        }
                        _ => Step::Missing,
                    }
                } else {
                    // Internal node: first child whose max key is >= key.
                    let entries = &bytes[HEADER..HEADER + count * INTERNAL_ENTRY];
                    let slot = lower_bound::<INTERNAL_ENTRY>(entries, key);
                    match entries[slot * INTERNAL_ENTRY..].first_chunk::<INTERNAL_ENTRY>() {
                        Some(entry) => Step::Descend(PageId::new(u32::from_le_bytes(
                            entry[4..].try_into().unwrap(),
                        ))),
                        None => Step::Missing,
                    }
                }
            });
            match step {
                Step::Found(v) => return Some(v),
                Step::Missing => return None,
                Step::Descend(child) => current = child,
            }
        }
    }

    /// Height of the tree (1 for a single leaf). Computed from the entry count.
    pub fn height(&self) -> u32 {
        let mut nodes = (self.num_entries as usize).div_ceil(LEAF_CAPACITY).max(1);
        let mut h = 1;
        while nodes > 1 {
            nodes = nodes.div_ceil(INTERNAL_CAPACITY);
            h += 1;
        }
        h
    }
}

enum Step {
    Found(Value),
    Missing,
    Descend(PageId),
}

/// The first slot whose key is `>= key` — the slot count if there is none —
/// in a node's entry area: `ENTRY`-byte entries, each led by its
/// little-endian `u32` key, in ascending key order.
///
/// The trees are bulk loaded over node, facility and edge ids, which are
/// dense (every id present) or nearly so, so the keys of one node grow almost
/// linearly with the slot. The search therefore probes the slot interpolated
/// between the node's first and last key, then that slot's neighbour on the
/// side the answer lies — on evenly spread keys the two probes pin the answer
/// — and halves whatever interval is left, which is all it does on keys that
/// are anything but evenly spread.
fn lower_bound<const ENTRY: usize>(entries: &[u8], key: u32) -> usize {
    let count = entries.len() / ENTRY;
    let key_at = |slot: usize| {
        let at = slot * ENTRY;
        u32::from_le_bytes(entries[at..at + 4].try_into().unwrap())
    };
    if count == 0 {
        return 0;
    }
    let (first, last) = (key_at(0), key_at(count - 1));
    if key <= first {
        return 0;
    }
    if key > last {
        return count;
    }
    // first < key <= last: the answer lies in lo..=hi, and throughout
    // key_at(lo - 1) < key <= key_at(hi).
    let (mut lo, mut hi) = (1, count - 1);
    let guess = (u64::from(key - first) * (count - 1) as u64 / u64::from(last - first)) as usize;
    if key_at(guess) < key {
        lo = guess + 1;
        if lo < hi {
            if key_at(lo) < key {
                lo += 1;
            } else {
                hi = lo;
            }
        }
    } else {
        hi = guess;
        if lo < hi {
            if key_at(hi - 1) < key {
                lo = hi;
            } else {
                hi -= 1;
            }
        }
    }
    while lo < hi {
        let mid = (lo + hi) / 2;
        if key_at(mid) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Packs a `(u32, u16)` pair into a tree [`Value`] (used by the adjacency
/// index: page id + in-page offset).
pub fn pack_u32_u16(a: u32, b: u16) -> Value {
    let mut v = [0u8; VALUE_SIZE];
    v[..4].copy_from_slice(&a.to_le_bytes());
    v[4..6].copy_from_slice(&b.to_le_bytes());
    v
}

/// Unpacks a value created by [`pack_u32_u16`].
pub fn unpack_u32_u16(v: &Value) -> (u32, u16) {
    (
        u32::from_le_bytes(v[..4].try_into().unwrap()),
        u16::from_le_bytes(v[4..6].try_into().unwrap()),
    )
}

/// Packs a `(u32, f64)` pair into a tree [`Value`] (used by the facility tree:
/// containing edge + fractional position).
pub fn pack_u32_f64(a: u32, b: f64) -> Value {
    let mut v = [0u8; VALUE_SIZE];
    v[..4].copy_from_slice(&a.to_le_bytes());
    v[4..12].copy_from_slice(&b.to_le_bytes());
    v
}

/// Unpacks a value created by [`pack_u32_f64`].
pub fn unpack_u32_f64(v: &Value) -> (u32, f64) {
    (
        u32::from_le_bytes(v[..4].try_into().unwrap()),
        f64::from_le_bytes(v[4..12].try_into().unwrap()),
    )
}

/// Packs `(u32, u32, u8)` into a tree [`Value`] (used by the edge index:
/// source node, target node, flags).
pub fn pack_u32_u32_u8(a: u32, b: u32, c: u8) -> Value {
    let mut v = [0u8; VALUE_SIZE];
    v[..4].copy_from_slice(&a.to_le_bytes());
    v[4..8].copy_from_slice(&b.to_le_bytes());
    v[8] = c;
    v
}

/// Unpacks a value created by [`pack_u32_u32_u8`].
pub fn unpack_u32_u32_u8(v: &Value) -> (u32, u32, u8) {
    (
        u32::from_le_bytes(v[..4].try_into().unwrap()),
        u32::from_le_bytes(v[4..8].try_into().unwrap()),
        v[8],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::InMemoryDisk;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn build_tree(n: u32, stride: u32) -> (Arc<InMemoryDisk>, StaticBTree) {
        let disk = Arc::new(InMemoryDisk::new());
        let entries: Vec<(u32, Value)> = (0..n)
            .map(|i| (i * stride, pack_u32_u16(i * 10, (i % 100) as u16)))
            .collect();
        let tree = StaticBTree::bulk_load(disk.as_ref(), &entries);
        (disk, tree)
    }

    #[test]
    fn single_leaf_tree() {
        let (disk, tree) = build_tree(10, 1);
        assert_eq!(tree.num_pages, 1);
        assert_eq!(tree.height(), 1);
        let pool = BufferPool::new(disk, 4);
        for i in 0..10u32 {
            let v = tree.lookup(&pool, i).expect("key present");
            assert_eq!(unpack_u32_u16(&v), (i * 10, i as u16));
        }
        assert!(tree.lookup(&pool, 10).is_none());
    }

    #[test]
    fn multi_level_tree_lookups() {
        // 200_000 keys force at least three levels (255 per leaf, 511 per node).
        let (disk, tree) = build_tree(200_000, 2);
        assert!(tree.height() >= 3, "height = {}", tree.height());
        let pool = BufferPool::new(disk, 64);
        for &probe in &[0u32, 2, 4, 399_998, 123_456, 199_999 * 2] {
            let v = tree.lookup(&pool, probe).expect("even keys present");
            assert_eq!(unpack_u32_u16(&v).0, probe / 2 * 10);
        }
        // Odd keys (between stored keys) and keys beyond the maximum are absent.
        assert!(tree.lookup(&pool, 1).is_none());
        assert!(tree.lookup(&pool, 131_071).is_none());
        assert!(tree.lookup(&pool, 1_000_000).is_none());
    }

    #[test]
    fn lookup_goes_through_buffer_pool_counters() {
        let (disk, tree) = build_tree(10_000, 1);
        let pool = BufferPool::new(disk, 128);
        pool.clear();
        let _ = tree.lookup(&pool, 5_000);
        let s = pool.stats();
        assert_eq!(s.logical_reads as u32, tree.height());
        // Repeating the same lookup is served from the buffer.
        let _ = tree.lookup(&pool, 5_000);
        let s2 = pool.stats();
        assert_eq!(s2.buffer_misses, s.buffer_misses);
    }

    /// Strictly increasing keys of one of the shapes the trees meet:
    /// 0 = dense (every id from a base on, a monolithic store's trees),
    /// 1 = clumped (runs of consecutive ids with gaps, a region shard's
    /// adjacency tree), 2 = sparse (irregular gaps of any size), 3 = the
    /// extremes of the key space.
    fn keys_of_shape(shape: u8, n: usize, seed: u64) -> Vec<u32> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut keys = Vec::with_capacity(n);
        let mut next: u32 = match shape {
            0 | 1 => rng.gen_range(0..1_000),
            _ => 0,
        };
        let mut run_left = 0u32;
        while keys.len() < n {
            keys.push(next);
            let gap = match shape {
                0 => 1,
                1 if run_left > 0 => {
                    run_left -= 1;
                    1
                }
                1 => {
                    run_left = rng.gen_range(1..400);
                    rng.gen_range(2..3_000)
                }
                2 => match rng.gen_range(0..100) {
                    0 => rng.gen_range(1..2_000_000),
                    1..=30 => rng.gen_range(1..5_000),
                    _ => rng.gen_range(1..4),
                },
                // A handful of keys at the bottom, then a leap to the top.
                _ if keys.len() == n.div_ceil(2) => {
                    (u32::MAX - next) - (n / 2).saturating_sub(1) as u32
                }
                _ => 1,
            };
            match next.checked_add(gap) {
                Some(k) => next = k,
                None => break,
            }
        }
        keys
    }

    /// Checks `tree.lookup` against `BTreeMap::get` on `keys` and around
    /// them, and that every lookup walks one page per level.
    fn check_lookups(keys: &[u32]) -> u32 {
        let entries: Vec<(u32, Value)> = keys
            .iter()
            .map(|&k| (k, pack_u32_u16(k ^ 0xA5A5, (k % 1_000) as u16)))
            .collect();
        let model: std::collections::BTreeMap<u32, Value> = entries.iter().copied().collect();
        let disk = Arc::new(InMemoryDisk::new());
        let tree = StaticBTree::bulk_load(disk.as_ref(), &entries);
        let pool = BufferPool::new(disk, 16);
        let height = u64::from(tree.height());

        // A lookup walks root to leaf, one page a level, also for a key
        // that turns out to be absent — except above the tree's last key,
        // where the root alone says so.
        let last = keys[keys.len() - 1];
        let check = |key: u32| {
            let before = pool.stats().logical_reads;
            assert_eq!(
                tree.lookup(&pool, key),
                model.get(&key).copied(),
                "key {key}"
            );
            let reads = pool.stats().logical_reads - before;
            assert_eq!(reads, if key > last { 1 } else { height }, "key {key}");
        };
        // Every key of a small tree; of a tall one every 61st (coprime
        // to both node fan-outs, so every in-node position comes up) and
        // the ends. Each with both neighbours, present or not.
        let stride = if keys.len() > 2_000 { 61 } else { 1 };
        let ends = keys.iter().take(3).chain(keys.iter().rev().take(3));
        for &key in keys.iter().step_by(stride).chain(ends) {
            check(key);
            check(key.saturating_sub(1));
            check(key.saturating_add(1));
        }
        // Below the first key, above the last, and the ends of the key
        // space.
        for key in [0, keys[0] / 2, last / 2 + u32::MAX / 2 + 1, u32::MAX] {
            check(key);
        }
        tree.height()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn lookup_agrees_with_a_btree_map(
            // A height, and a key count that bulk loads to it.
            (height, n) in (1u32..=3, 0usize..1_200).prop_map(|(height, extra)| match height {
                1 => (1, 1 + extra % LEAF_CAPACITY),
                2 => (2, LEAF_CAPACITY + 1 + extra),
                _ => (3, LEAF_CAPACITY * INTERNAL_CAPACITY + 1 + extra),
            }),
            seed in any::<u64>(),
        ) {
            for shape in 0..3 {
                let keys = keys_of_shape(shape, n, seed);
                assert_eq!(keys.len(), n, "shape {shape} ran out of key space");
                assert_eq!(check_lookups(&keys), height, "shape {shape}");
            }
            // The extremes: one key, and a few keys at either end of `u32`.
            check_lookups(&[seed as u32]);
            check_lookups(&keys_of_shape(3, 2 + n % 40, seed));
        }

        #[test]
        fn lower_bound_agrees_with_partition_point(
            shape in 0u8..4,
            n in 0usize..600,
            seed in any::<u64>(),
            probes in proptest::collection::vec(any::<u32>(), 8),
        ) {
            let keys = keys_of_shape(shape, n, seed);
            let mut entries = vec![0u8; keys.len() * INTERNAL_ENTRY];
            for (slot, key) in keys.iter().enumerate() {
                entries[slot * INTERNAL_ENTRY..][..4].copy_from_slice(&key.to_le_bytes());
            }
            let neighbours = keys.iter().flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)]);
            for key in neighbours.chain(probes.iter().copied()).chain([0, u32::MAX]) {
                assert_eq!(
                    lower_bound::<INTERNAL_ENTRY>(&entries, key),
                    keys.partition_point(|&k| k < key),
                    "key {key} in {keys:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn unsorted_input_is_rejected() {
        let disk = InMemoryDisk::new();
        let entries = vec![(2u32, [0u8; VALUE_SIZE]), (1u32, [0u8; VALUE_SIZE])];
        let _ = StaticBTree::bulk_load(&disk, &entries);
    }

    #[test]
    #[should_panic]
    fn empty_input_is_rejected() {
        let disk = InMemoryDisk::new();
        let _ = StaticBTree::bulk_load(&disk, &[]);
    }

    #[test]
    fn value_packing_roundtrips() {
        let v = pack_u32_u16(77, 13);
        assert_eq!(unpack_u32_u16(&v), (77, 13));
        let v = pack_u32_f64(9, 0.625);
        assert_eq!(unpack_u32_f64(&v), (9, 0.625));
        let v = pack_u32_u32_u8(1, 2, 3);
        assert_eq!(unpack_u32_u32_u8(&v), (1, 2, 3));
    }
}
