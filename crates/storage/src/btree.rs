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
use serde::{Deserialize, Serialize};

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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
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

        // Level 0: leaves. Remember (max key, page id) per leaf.
        let mut level: Vec<(u32, PageId)> = Vec::new();
        for chunk in entries.chunks(LEAF_CAPACITY) {
            pages_used += 1;
            let mut page = Page::zeroed();
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
                let mut page = Page::zeroed();
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
                    // Binary search over fixed-size leaf entries.
                    let entries = &bytes[HEADER..HEADER + count * LEAF_ENTRY];
                    let (mut lo, mut hi) = (0usize, count);
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        let off = mid * LEAF_ENTRY;
                        let k = u32::from_le_bytes(entries[off..off + 4].try_into().unwrap());
                        if k < key {
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    if lo < count {
                        let off = lo * LEAF_ENTRY;
                        let k = u32::from_le_bytes(entries[off..off + 4].try_into().unwrap());
                        if k == key {
                            let mut v = [0u8; VALUE_SIZE];
                            v.copy_from_slice(&entries[off + 4..off + 4 + VALUE_SIZE]);
                            return Step::Found(v);
                        }
                    }
                    Step::Missing
                } else {
                    // Internal node: first child whose max key is >= key.
                    let entries = &bytes[HEADER..HEADER + count * INTERNAL_ENTRY];
                    let (mut lo, mut hi) = (0usize, count);
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        let off = mid * INTERNAL_ENTRY;
                        let k = u32::from_le_bytes(entries[off..off + 4].try_into().unwrap());
                        if k < key {
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    if lo == count {
                        return Step::Missing;
                    }
                    let off = lo * INTERNAL_ENTRY;
                    let child = u32::from_le_bytes(entries[off + 4..off + 8].try_into().unwrap());
                    Step::Descend(PageId::new(child))
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
