//! A lock-striped LRU buffer pool over a [`DiskManager`].
//!
//! The paper's experiments vary the buffer size between 0 % and 2 % of the
//! pages occupied by the MCN (1 % by default) and show that LSA — which may
//! request the same adjacency or facility page up to `d` times — benefits from
//! the buffer much more than CEA, which touches each page at most once. The
//! pool therefore keeps precise hit/miss counters (see [`IoStats`]).
//!
//! # Striping
//!
//! The pool is divided into `N` independent **shards**, each a fixed-capacity
//! LRU protected by its own mutex; a page is assigned to the shard
//! `page_id % N`. Concurrent queries touching different graph regions (and
//! therefore different pages) proceed without contending on a single global
//! lock, which is what makes the multi-query engine (`mcn-engine`) scale.
//! `N` is chosen from the capacity (one shard per [`MIN_PAGES_PER_SHARD`]
//! cached pages, at most [`MAX_SHARDS`]); [`BufferPool::with_shards`] pins an
//! explicit count — `with_shards(disk, cap, 1)` recovers the exact global-LRU
//! eviction order of the unsharded pool.
//!
//! # Counter consistency
//!
//! The hit/miss/logical counters live **inside** the shard they describe and
//! are updated under the shard lock, in the same critical section as the
//! lookup they count. A snapshot ([`BufferPool::stats`]) therefore always
//! satisfies `logical_reads == buffer_hits + buffer_misses` exactly, even
//! while other threads are reading through the pool — every shard contributes
//! an internally consistent triple, and a sum of consistent triples is
//! consistent. The *physical* counters come from the disk manager's atomics
//! and are only monotonic with respect to the pool counters: a concurrent
//! snapshot may observe a miss whose physical read has not been issued yet
//! (so `physical_reads` can briefly trail `buffer_misses` by the number of
//! in-flight misses). Both facts are asserted by
//! `concurrent_snapshots_are_consistent` below.

use crate::disk::DiskManager;
use crate::idhash::IdMap;
use crate::page::{Page, PageId};
use crate::stats::IoStats;
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// Witness lock-class ids — the exact strings `mcn-analyze` derives
/// (`crate::Type.field`), so observed edges diff against the static graph.
const W_POOL: &str = "storage::BufferPool.shards";
const W_SHARD: &str = "storage::ShardSet.shards";

/// Upper bound on the number of LRU shards.
pub const MAX_SHARDS: usize = 8;

/// Minimum cached pages per shard before another shard is added; keeps tiny
/// buffers (the paper's 0.5 %–2 % settings on small stores) from fragmenting
/// into single-page segments.
pub const MIN_PAGES_PER_SHARD: usize = 4;

/// A fixed-capacity page cache with least-recently-used eviction, striped
/// across independently locked shards.
///
/// * `capacity == 0` models the paper's "no buffer" configuration: every
///   logical read becomes a physical read.
/// * The pool is read-oriented (the MCN store is write-once/read-many);
///   [`BufferPool::write_through`] updates both the cache and the disk.
pub struct BufferPool {
    disk: Arc<dyn DiskManager>,
    /// The shard set is only rebuilt by [`BufferPool::set_capacity`]; reads
    /// take the shared lock, so the common path is one shared acquisition
    /// plus one shard mutex.
    shards: RwLock<ShardSet>,
    /// Shard count pinned by [`BufferPool::with_shards`], honoured across
    /// [`BufferPool::set_capacity`] calls; `None` = derive from capacity.
    pinned_shards: Option<usize>,
}

const _: () = crate::assert_send_sync::<BufferPool>();

/// The striped cache: per-shard LRUs plus the total configured capacity.
struct ShardSet {
    capacity: usize,
    shards: Vec<Mutex<Shard>>,
}

/// One stripe: an LRU segment plus the I/O counters for the pages it owns.
/// Counters are mutated under the shard lock so any snapshot of the triple is
/// consistent (`logical == hits + misses`).
struct Shard {
    lru: Lru,
    logical_reads: u64,
    hits: u64,
    misses: u64,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Self {
            lru: Lru::new(capacity),
            logical_reads: 0,
            hits: 0,
            misses: 0,
        }
    }
}

impl ShardSet {
    /// Builds `count` shards sharing `capacity` pages as evenly as possible
    /// (the first `capacity % count` shards hold one extra page).
    fn new(capacity: usize, count: usize) -> Self {
        assert!(count >= 1, "a buffer pool needs at least one shard");
        let base = capacity / count;
        let extra = capacity % count;
        let shards = (0..count)
            .map(|i| Mutex::new(Shard::new(base + usize::from(i < extra))))
            .collect();
        Self { capacity, shards }
    }

    /// The shard owning `id`.
    fn shard_of(&self, id: PageId) -> &Mutex<Shard> {
        &self.shards[id.raw() as usize % self.shards.len()]
    }
}

/// Default shard count for a pool of `capacity` pages.
fn default_shard_count(capacity: usize) -> usize {
    (capacity / MIN_PAGES_PER_SHARD).clamp(1, MAX_SHARDS)
}

/// Doubly-linked-list LRU over page frames. `usize::MAX` acts as the null link.
struct Lru {
    capacity: usize,
    frames: Vec<Frame>,
    map: IdMap<PageId, usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    free: Vec<usize>,
}

struct Frame {
    id: PageId,
    page: Page,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl Lru {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            frames: Vec::with_capacity(capacity.min(1024)),
            map: IdMap::with_capacity_and_hasher(capacity.min(1024), Default::default()),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.frames[idx].prev, self.frames[idx].next);
        if prev != NIL {
            self.frames[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.frames[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.frames[idx].prev = NIL;
        self.frames[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.frames[idx].prev = NIL;
        self.frames[idx].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.detach(idx);
        self.push_front(idx);
    }

    /// Looks up a page, marking it most recently used.
    fn get(&mut self, id: PageId) -> Option<usize> {
        let idx = *self.map.get(&id)?;
        self.touch(idx);
        Some(idx)
    }

    /// Inserts a page, evicting the LRU entry if at capacity. Returns the frame
    /// index, or `None` if the capacity is zero.
    fn insert(&mut self, id: PageId, page: Page) -> Option<usize> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&idx) = self.map.get(&id) {
            self.frames[idx].page = page;
            self.touch(idx);
            return Some(idx);
        }
        let idx = if self.map.len() < self.capacity {
            if let Some(idx) = self.free.pop() {
                idx
            } else {
                self.frames.push(Frame {
                    id,
                    page: Page::zeroed(),
                    prev: NIL,
                    next: NIL,
                });
                self.frames.len() - 1
            }
        } else {
            // Evict the least recently used frame.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "capacity > 0 but no victim");
            self.detach(victim);
            let old_id = self.frames[victim].id;
            self.map.remove(&old_id);
            victim
        };
        self.frames[idx].id = id;
        self.frames[idx].page = page;
        self.map.insert(id, idx);
        self.push_front(idx);
        Some(idx)
    }

    fn clear(&mut self) {
        self.map.clear();
        self.frames.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

impl BufferPool {
    /// Creates a pool over `disk` holding at most `capacity` pages, striped
    /// over the default shard count for that capacity.
    pub fn new(disk: Arc<dyn DiskManager>, capacity: usize) -> Self {
        Self {
            disk,
            shards: RwLock::new(ShardSet::new(capacity, default_shard_count(capacity))),
            pinned_shards: None,
        }
    }

    /// Creates a pool with an explicit shard count, which is also honoured
    /// by later [`BufferPool::set_capacity`] calls. `with_shards(d, c, 1)`
    /// reproduces the strict global LRU eviction order of an unsharded pool.
    ///
    /// The effective count is capped at the capacity so every shard can hold
    /// at least one page (a zero-capacity pool uses a single shard) —
    /// otherwise the starved shards would silently behave as the "no buffer"
    /// configuration for their slice of the page space.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn with_shards(disk: Arc<dyn DiskManager>, capacity: usize, shards: usize) -> Self {
        assert!(shards >= 1, "a buffer pool needs at least one shard");
        Self {
            disk,
            shards: RwLock::new(ShardSet::new(capacity, shards.min(capacity.max(1)))),
            pinned_shards: Some(shards),
        }
    }

    /// The underlying disk manager.
    pub fn disk(&self) -> &Arc<dyn DiskManager> {
        &self.disk
    }

    /// Maximum number of cached pages (summed over the shards).
    pub fn capacity(&self) -> usize {
        self.shards.read().capacity
    }

    /// Number of LRU shards the capacity is striped over.
    pub fn shard_count(&self) -> usize {
        self.shards.read().shards.len()
    }

    /// Number of pages currently cached.
    pub fn cached_pages(&self) -> usize {
        let set = self.shards.read();
        let _set_w = mcn_witness::acquire(W_POOL);
        set.shards.iter().map(|s| s.lock().lru.len()).sum()
    }

    /// Empties the cache and resets the hit/miss counters (the underlying
    /// disk's physical counters are not touched).
    pub fn clear(&self) {
        let set = self.shards.read();
        let _set_w = mcn_witness::acquire(W_POOL);
        for shard in &set.shards {
            let mut shard = shard.lock();
            let _shard_w = mcn_witness::acquire(W_SHARD);
            shard.lru.clear();
            shard.logical_reads = 0;
            shard.hits = 0;
            shard.misses = 0;
        }
    }

    /// Changes the capacity, clearing the cache and re-striping (the hit/miss
    /// counters carry over, as they always have). A shard count pinned via
    /// [`BufferPool::with_shards`] is kept (still capped at the capacity);
    /// otherwise the default policy re-derives it from the new capacity.
    pub fn set_capacity(&self, capacity: usize) {
        let count = self
            .pinned_shards
            .map(|pinned| pinned.min(capacity.max(1)))
            .unwrap_or_else(|| default_shard_count(capacity));
        let mut set = self.shards.write();
        let _set_w = mcn_witness::acquire(W_POOL);
        // Carry the counters across the rebuild: each old triple is consistent
        // and they are all folded into the first new shard, so totals (and the
        // hits + misses == logical invariant) are preserved.
        let (mut logical, mut hits, mut misses) = (0u64, 0u64, 0u64);
        for shard in &set.shards {
            let shard = shard.lock();
            let _shard_w = mcn_witness::acquire(W_SHARD);
            logical += shard.logical_reads;
            hits += shard.hits;
            misses += shard.misses;
        }
        *set = ShardSet::new(capacity, count);
        let mut first = set.shards[0].lock();
        let _first_w = mcn_witness::acquire(W_SHARD);
        first.logical_reads = logical;
        first.hits = hits;
        first.misses = misses;
    }

    /// Reads page `id` (from the cache if possible) and passes its bytes to
    /// `f`, returning `f`'s result.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> R {
        let set = self.shards.read();
        let set_w = mcn_witness::acquire(W_POOL);
        let mut shard = set.shard_of(id).lock();
        let shard_w = mcn_witness::acquire(W_SHARD);
        shard.logical_reads += 1;
        if let Some(idx) = shard.lru.get(id) {
            shard.hits += 1;
            return f(shard.lru.frames[idx].page.bytes());
        }
        shard.misses += 1;
        let zero_capacity = shard.lru.capacity == 0;
        // Never hold the shard lock across the physical read: striping gives
        // cross-shard parallelism, and releasing here lets same-shard misses
        // overlap their disk latency too. Two threads racing to fetch the
        // same page both count a miss and both read it — the second insert
        // just refreshes the frame, mirroring a real pool without an
        // in-flight pin table. Single-threaded accounting is unchanged.
        drop(shard_w);
        drop(shard);
        let mut page = Page::zeroed();
        // mcn-lint: allow(lock-across-io, reason = "only the shard-set read guard spans the read: it blocks set resizing, never other page accesses; the per-shard mutex was dropped above")
        self.disk.read_page(id, &mut page);
        if zero_capacity {
            // The paper's "no buffer" setting: serve the closure from the
            // transient copy without caching it.
            drop(set_w);
            drop(set);
            return f(page.bytes());
        }
        let mut shard = set.shard_of(id).lock();
        let _shard_w = mcn_witness::acquire(W_SHARD);
        let idx = shard
            .lru
            .insert(id, page)
            .expect("insert cannot fail with non-zero capacity");
        f(shard.lru.frames[idx].page.bytes())
    }

    /// Writes `page` to the disk and refreshes any cached copy.
    pub fn write_through(&self, id: PageId, page: &Page) {
        self.disk.write_page(id, page);
        let set = self.shards.read();
        let _set_w = mcn_witness::acquire(W_POOL);
        let mut shard = set.shard_of(id).lock();
        let _shard_w = mcn_witness::acquire(W_SHARD);
        if shard.lru.map.contains_key(&id) {
            shard.lru.insert(id, page.clone());
        }
    }

    /// Snapshot of the I/O counters (pool + underlying disk).
    ///
    /// The pool triple is exactly consistent (`logical_reads == buffer_hits +
    /// buffer_misses` always holds, even under concurrent readers); the
    /// physical counters are monotonic but may trail in-flight misses — see
    /// the module docs.
    pub fn stats(&self) -> IoStats {
        // Read the physical counters *before* the pool counters: every
        // physical read is preceded by its miss being counted under the shard
        // lock, so sampling in this order keeps `physical_reads <=
        // buffer_misses` in every snapshot (the reverse order could observe a
        // read whose miss had not been summed yet).
        let physical_reads = self.disk.physical_reads();
        let physical_writes = self.disk.physical_writes();
        let set = self.shards.read();
        let _set_w = mcn_witness::acquire(W_POOL);
        let (mut logical, mut hits, mut misses) = (0u64, 0u64, 0u64);
        for shard in &set.shards {
            let shard = shard.lock();
            let _shard_w = mcn_witness::acquire(W_SHARD);
            logical += shard.logical_reads;
            hits += shard.hits;
            misses += shard.misses;
        }
        IoStats {
            logical_reads: logical,
            buffer_hits: hits,
            buffer_misses: misses,
            physical_reads,
            physical_writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::InMemoryDisk;

    fn make_disk(pages: usize) -> Arc<InMemoryDisk> {
        let disk = Arc::new(InMemoryDisk::new());
        for i in 0..pages {
            let id = disk.allocate_page();
            let mut p = Page::zeroed();
            p.bytes_mut()[0] = i as u8;
            disk.write_page(id, &p);
        }
        disk
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let disk = make_disk(4);
        let pool = BufferPool::new(disk, 2);
        assert_eq!(pool.with_page(PageId::new(0), |b| b[0]), 0);
        assert_eq!(pool.with_page(PageId::new(0), |b| b[0]), 0);
        assert_eq!(pool.with_page(PageId::new(1), |b| b[0]), 1);
        let s = pool.stats();
        assert_eq!(s.logical_reads, 3);
        assert_eq!(s.buffer_hits, 1);
        assert_eq!(s.buffer_misses, 2);
        assert_eq!(s.physical_reads, 2); // the writes in make_disk are not reads
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Strict global LRU order requires a single shard.
        let disk = make_disk(3);
        let pool = BufferPool::with_shards(disk, 2, 1);
        pool.with_page(PageId::new(0), |_| ());
        pool.with_page(PageId::new(1), |_| ());
        // Touch page 0 so page 1 becomes the LRU victim.
        pool.with_page(PageId::new(0), |_| ());
        pool.with_page(PageId::new(2), |_| ()); // evicts page 1
        let before = pool.stats();
        pool.with_page(PageId::new(0), |_| ()); // still cached → hit
        let after = pool.stats();
        assert_eq!(after.buffer_hits, before.buffer_hits + 1);
        pool.with_page(PageId::new(1), |_| ()); // evicted → miss
        assert_eq!(pool.stats().buffer_misses, after.buffer_misses + 1);
        assert_eq!(pool.cached_pages(), 2);
    }

    #[test]
    fn write_through_updates_cache_and_disk() {
        let disk = make_disk(1);
        let pool = BufferPool::new(disk.clone(), 2);
        pool.with_page(PageId::new(0), |_| ());
        let mut p = Page::zeroed();
        p.bytes_mut()[0] = 200;
        pool.write_through(PageId::new(0), &p);
        // Cached copy refreshed → read returns the new value without a miss.
        let misses_before = pool.stats().buffer_misses;
        assert_eq!(pool.with_page(PageId::new(0), |b| b[0]), 200);
        assert_eq!(pool.stats().buffer_misses, misses_before);
        // Disk also has the new value.
        let mut out = Page::zeroed();
        disk.read_page(PageId::new(0), &mut out);
        assert_eq!(out.bytes()[0], 200);
    }

    #[test]
    fn zero_capacity_pool_never_caches() {
        let disk = make_disk(2);
        let pool = BufferPool::new(disk, 0);
        for _ in 0..3 {
            assert_eq!(pool.with_page(PageId::new(1), |b| b[0]), 1);
        }
        let s = pool.stats();
        assert_eq!(s.buffer_hits, 0);
        assert_eq!(s.buffer_misses, 3);
        assert_eq!(pool.cached_pages(), 0);
        assert_eq!(pool.shard_count(), 1);
    }

    #[test]
    fn capacity_can_be_reconfigured() {
        let disk = make_disk(2);
        let pool = BufferPool::new(disk, 1);
        pool.with_page(PageId::new(0), |_| ());
        assert_eq!(pool.cached_pages(), 1);
        let logical_before = pool.stats().logical_reads;
        pool.set_capacity(0);
        assert_eq!(pool.cached_pages(), 0);
        assert_eq!(pool.capacity(), 0);
        // Reconfiguration clears the cache but carries the counters over.
        assert_eq!(pool.stats().logical_reads, logical_before);
    }

    #[test]
    fn many_pages_cycle_through_small_pool() {
        let disk = make_disk(64);
        let pool = BufferPool::new(disk, 8);
        for round in 0..3 {
            for i in 0..64u32 {
                let v = pool.with_page(PageId::new(i), |b| b[0]);
                assert_eq!(v, i as u8, "round {round}");
            }
        }
        assert_eq!(pool.cached_pages(), 8);
        let s = pool.stats();
        assert_eq!(s.logical_reads, 3 * 64);
        // Sequential scans over 64 pages with an 8-page pool never hit, with
        // any striping: each shard sees a strided scan longer than itself.
        assert_eq!(s.buffer_hits, 0);
    }

    #[test]
    fn default_shard_count_scales_with_capacity() {
        assert_eq!(default_shard_count(0), 1);
        assert_eq!(default_shard_count(3), 1);
        assert_eq!(default_shard_count(8), 2);
        assert_eq!(default_shard_count(32), 8);
        assert_eq!(default_shard_count(10_000), MAX_SHARDS);
    }

    #[test]
    fn striping_distributes_pages_and_splits_capacity() {
        let disk = make_disk(32);
        let pool = BufferPool::with_shards(disk, 7, 4); // 2+2+2+1 pages
        assert_eq!(pool.shard_count(), 4);
        assert_eq!(pool.capacity(), 7);
        for i in 0..32u32 {
            pool.with_page(PageId::new(i), |_| ());
        }
        // Every shard is full, so the pool holds exactly its capacity.
        assert_eq!(pool.cached_pages(), 7);
        // The most recently used page of each shard is resident: the last
        // four accesses (28..32) map to the four distinct shards.
        let hits_before = pool.stats().buffer_hits;
        for i in 28..32u32 {
            pool.with_page(PageId::new(i), |_| ());
        }
        assert_eq!(pool.stats().buffer_hits, hits_before + 4);
    }

    #[test]
    fn pinned_shard_count_survives_set_capacity() {
        let disk = make_disk(8);
        let pool = BufferPool::with_shards(disk, 8, 1);
        assert_eq!(pool.shard_count(), 1);
        // Re-sizing must not silently re-stripe a pool pinned to strict
        // global-LRU order (the default policy would pick 2 shards here).
        pool.set_capacity(8);
        assert_eq!(pool.shard_count(), 1);
        pool.set_capacity(64);
        assert_eq!(pool.shard_count(), 1);
        // An unpinned pool re-derives its count from the new capacity.
        let disk = make_disk(8);
        let pool = BufferPool::new(disk, 4);
        assert_eq!(pool.shard_count(), 1);
        pool.set_capacity(64);
        assert_eq!(pool.shard_count(), MAX_SHARDS);
    }

    #[test]
    fn shard_count_is_capped_at_capacity() {
        // Requesting more shards than cached pages must not create starved
        // zero-capacity shards that never cache their slice of the pages.
        let disk = make_disk(8);
        let pool = BufferPool::with_shards(disk, 2, 4);
        assert_eq!(pool.shard_count(), 2);
        pool.with_page(PageId::new(0), |_| ());
        pool.with_page(PageId::new(1), |_| ());
        assert_eq!(pool.cached_pages(), 2);
        let hits_before = pool.stats().buffer_hits;
        pool.with_page(PageId::new(0), |_| ());
        pool.with_page(PageId::new(1), |_| ());
        assert_eq!(pool.stats().buffer_hits, hits_before + 2);
        // Zero capacity always resolves to a single (uncaching) shard.
        let disk = make_disk(2);
        let pool = BufferPool::with_shards(disk, 0, 4);
        assert_eq!(pool.shard_count(), 1);
        assert_eq!(pool.capacity(), 0);
    }

    #[test]
    fn sharded_accounting_stays_exact() {
        let disk = make_disk(16);
        let pool = BufferPool::with_shards(disk, 8, 4);
        for round in 0..5 {
            for i in 0..16u32 {
                pool.with_page(PageId::new(i), |_| ());
            }
            let s = pool.stats();
            assert_eq!(
                s.logical_reads,
                s.buffer_hits + s.buffer_misses,
                "round {round}"
            );
        }
        assert_eq!(pool.stats().logical_reads, 5 * 16);
    }

    #[test]
    fn concurrent_snapshots_are_consistent() {
        // Hammer the pool from several threads while a reader thread takes
        // snapshots; every snapshot must satisfy logical == hits + misses
        // exactly (the satellite guarantee the throughput bench relies on),
        // and physical reads may only trail misses, never exceed them.
        let disk = make_disk(64);
        let pool = Arc::new(BufferPool::new(disk, 16));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let pool = Arc::clone(&pool);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut i = t;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        pool.with_page(PageId::new(i % 64), |_| ());
                        i = i.wrapping_add(7);
                    }
                });
            }
            for _ in 0..200 {
                let s = pool.stats();
                assert_eq!(s.logical_reads, s.buffer_hits + s.buffer_misses);
                assert!(s.physical_reads <= s.buffer_misses);
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        let s = pool.stats();
        assert_eq!(s.logical_reads, s.buffer_hits + s.buffer_misses);
    }

    #[test]
    fn concurrent_reads_return_correct_bytes() {
        let disk = make_disk(64);
        let pool = Arc::new(BufferPool::new(disk, 16));
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for round in 0..50u32 {
                        let id = (t * 13 + round * 5) % 64;
                        let v = pool.with_page(PageId::new(id), |b| b[0]);
                        assert_eq!(v, id as u8);
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.logical_reads, 8 * 50);
        assert_eq!(s.logical_reads, s.buffer_hits + s.buffer_misses);
    }
}
