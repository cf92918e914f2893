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
//! # One lock per page read
//!
//! The shard mutexes are the pool's only locks. All [`MAX_SHARDS`] of them
//! exist from the start (an unused stripe holds no frames); the number in use
//! sits in an atomic, and every shard remembers the stripe count it was last
//! configured under. A reader loads the count, locks shard `page_id % count`
//! and compares the two: they differ only if [`BufferPool::set_capacity`]
//! re-striped the pool between the load and the lock, in which case the
//! reader lets go and picks its shard again. `set_capacity` re-stripes while
//! holding **every** shard lock (taken in index order), so whoever holds any
//! one shard lock sees all shards under the same configuration. A hit is
//! therefore one atomic load and one mutex; nothing at all is held across the
//! physical read of a miss.
//!
//! # The miss path
//!
//! A miss counts itself and lets go of its shard, reads the page from the
//! disk manager with no lock held, then locks the shard that owns the page
//! *now* and inserts it. No frame is reserved across the read and there is no
//! in-flight table: two threads missing the same page both count a miss and
//! both read it, and the second insert refreshes the frame the first one
//! filled.
//!
//! The page the read lands in is recycled. An insert into a full stripe
//! displaces a page — the evicted victim's, or the refreshed frame's after
//! such a race — and the stripe keeps it as its one **spare**; the next miss
//! on the stripe takes the spare under the lock it already holds for the
//! lookup and reads into it ([`DiskManager::read_page`] overwrites every
//! byte). Only a stripe with no spare allocates: while it is still filling,
//! when two misses on it overlap, and in the "no buffer" configuration,
//! which displaces nothing. In the steady state of a full pool a miss
//! therefore allocates and frees nothing. The pool's memory is its capacity
//! plus at most one page per stripe ([`MAX_SHARDS`] × 4 KiB = 32 KiB).
//!
//! # Counter consistency
//!
//! The hit/miss/logical counters live **inside** the shard they describe and
//! are updated under the shard lock, in the same critical section as the
//! lookup they count; re-striping leaves them where they are (a stripe that
//! falls out of use keeps its counts), and a snapshot sums all
//! [`MAX_SHARDS`]. A snapshot ([`BufferPool::stats`]) therefore always
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
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, MutexGuard};

/// Upper bound on the number of LRU shards.
pub(crate) const MAX_SHARDS: usize = 8;

/// Minimum cached pages per shard before another shard is added; keeps tiny
/// buffers (the paper's 0.5 %–2 % settings on small stores) from fragmenting
/// into single-page segments.
pub(crate) const MIN_PAGES_PER_SHARD: usize = 4;

/// A fixed-capacity page cache with least-recently-used eviction, striped
/// across independently locked shards.
///
/// * `capacity == 0` models the paper's "no buffer" configuration: every
///   logical read becomes a physical read.
/// * The pool is read-only: the MCN store is built, then read (see
///   [`DiskManager`]), so a cached page never goes stale and nothing is ever
///   written through the pool.
pub struct BufferPool {
    disk: Arc<dyn DiskManager>,
    /// Every stripe the pool can ever use; the first `stripes` are in use.
    shards: [Mutex<Shard>; MAX_SHARDS],
    /// Stripes in use. Written only while every shard lock is held.
    stripes: AtomicUsize,
    /// Total configured capacity. Written only while every shard lock is held.
    capacity: AtomicUsize,
    /// Shard count pinned by [`BufferPool::with_shards`], honoured across
    /// [`BufferPool::set_capacity`] calls; `None` = derive from capacity.
    pinned_shards: Option<usize>,
}

const _: () = crate::assert_send_sync::<BufferPool>();

/// One stripe: an LRU segment plus the I/O counters for the pages it owns.
/// Counters are mutated under the shard lock so any snapshot of the triple is
/// consistent (`logical == hits + misses`).
struct Shard {
    /// The stripe count the pool had when this shard was last configured; a
    /// reader that chose the shard under another count must choose again.
    stripes: usize,
    lru: Lru,
    /// The page the last insert displaced, for the next miss to read into.
    spare: Option<Page>,
    logical_reads: u64,
    hits: u64,
    misses: u64,
}

/// Pages stripe `index` may cache when `capacity` pages are split over
/// `stripes` stripes as evenly as possible (the first `capacity % stripes`
/// hold one extra page; a stripe out of use holds none).
fn stripe_capacity(capacity: usize, stripes: usize, index: usize) -> usize {
    if index < stripes {
        capacity / stripes + usize::from(index < capacity % stripes)
    } else {
        0
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
    /// index and the page the insert displaced, if any — the evicted one, or
    /// the previous copy of `id` — or hands `page` back if the capacity is zero.
    fn insert(&mut self, id: PageId, page: Page) -> Result<(usize, Option<Page>), Page> {
        if self.capacity == 0 {
            return Err(page);
        }
        if let Some(&idx) = self.map.get(&id) {
            let stale = std::mem::replace(&mut self.frames[idx].page, page);
            self.touch(idx);
            return Ok((idx, Some(stale)));
        }
        let (idx, evicted) = if self.frames.len() != self.capacity {
            self.frames.push(Frame {
                id,
                page,
                prev: NIL,
                next: NIL,
            });
            (self.frames.len() - 1, None)
        } else {
            // Evict the least recently used frame.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "capacity > 0 but no victim");
            self.detach(victim);
            let old_id = self.frames[victim].id;
            self.map.remove(&old_id);
            self.frames[victim].id = id;
            let evicted = std::mem::replace(&mut self.frames[victim].page, page);
            (victim, Some(evicted))
        };
        self.map.insert(id, idx);
        self.push_front(idx);
        Ok((idx, evicted))
    }

    fn clear(&mut self) {
        self.map.clear();
        self.frames.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

impl BufferPool {
    /// Creates a pool over `disk` holding at most `capacity` pages, striped
    /// over the default shard count for that capacity.
    pub(crate) fn new(disk: Arc<dyn DiskManager>, capacity: usize) -> Self {
        Self::striped(disk, capacity, None)
    }

    /// Creates a pool with an explicit shard count, which is also honoured
    /// by later [`BufferPool::set_capacity`] calls. `with_shards(d, c, 1)`
    /// reproduces the strict global LRU eviction order of an unsharded pool.
    ///
    /// The effective count is capped at the capacity so every shard can hold
    /// at least one page (a zero-capacity pool uses a single shard) —
    /// otherwise the starved shards would silently behave as the "no buffer"
    /// configuration for their slice of the page space — and at
    /// [`MAX_SHARDS`].
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub(crate) fn with_shards(disk: Arc<dyn DiskManager>, capacity: usize, shards: usize) -> Self {
        assert!(shards >= 1, "a buffer pool needs at least one shard");
        Self::striped(disk, capacity, Some(shards))
    }

    fn striped(disk: Arc<dyn DiskManager>, capacity: usize, pinned_shards: Option<usize>) -> Self {
        let stripes = stripes_for(capacity, pinned_shards);
        Self {
            disk,
            shards: std::array::from_fn(|i| {
                Mutex::new(Shard {
                    stripes,
                    lru: Lru::new(stripe_capacity(capacity, stripes, i)),
                    spare: None,
                    logical_reads: 0,
                    hits: 0,
                    misses: 0,
                })
            }),
            stripes: AtomicUsize::new(stripes),
            capacity: AtomicUsize::new(capacity),
            pinned_shards,
        }
    }

    /// Maximum number of cached pages (summed over the shards).
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Number of LRU shards the capacity is striped over.
    pub fn shard_count(&self) -> usize {
        self.stripes.load(Ordering::Relaxed)
    }

    /// Empties the cache and resets the hit/miss counters (the underlying
    /// disk's physical counters are not touched).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
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
    pub(crate) fn set_capacity(&self, capacity: usize) {
        let stripes = stripes_for(capacity, self.pinned_shards);
        // Every shard lock, in index order — the one order in which more than
        // one of them is ever held, so two resizers cannot deadlock. While
        // they are all held no reader is inside any shard, and the next one
        // in finds its shard, the stripe count and every other shard changed
        // together.
        let mut shards: [MutexGuard<'_, Shard>; MAX_SHARDS] =
            std::array::from_fn(|i| self.shards[i].lock());
        for (i, shard) in shards.iter_mut().enumerate() {
            shard.stripes = stripes;
            shard.lru = Lru::new(stripe_capacity(capacity, stripes, i));
        }
        self.capacity.store(capacity, Ordering::Relaxed);
        self.stripes.store(stripes, Ordering::Relaxed);
    }

    /// Locks the shard that owns `id`.
    fn lock_shard(&self, id: PageId) -> MutexGuard<'_, Shard> {
        loop {
            // Relaxed is enough: the value is only a hint until the shard
            // confirms it under its lock, and a reader sent round again by a
            // re-striped shard has synchronised with `set_capacity` through
            // that shard's mutex, so its next load sees the new count.
            let stripes = self.stripes.load(Ordering::Relaxed);
            let shard = self.shards[(id.raw() % stripes as u32) as usize].lock();
            if shard.stripes == stripes {
                return shard;
            }
        }
    }

    /// Reads page `id` (from the cache if possible) and passes its bytes to
    /// `f`, returning `f`'s result.
    pub(crate) fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> R {
        let mut shard = self.lock_shard(id);
        shard.logical_reads += 1;
        if let Some(idx) = shard.lru.get(id) {
            shard.hits += 1;
            return f(shard.lru.frames[idx].page.bytes());
        }
        shard.misses += 1;
        let zero_capacity = shard.lru.capacity == 0;
        let spare = shard.spare.take();
        // Never hold the shard lock across the physical read: striping gives
        // cross-shard parallelism, and releasing here lets same-shard misses
        // overlap their disk latency too. Two threads racing to fetch the
        // same page both count a miss and both read it — the second insert
        // just refreshes the frame, mirroring a real pool without an
        // in-flight pin table. Single-threaded accounting is unchanged.
        drop(shard);
        // The read overwrites the whole page, whatever the spare held.
        let mut page = spare.unwrap_or_else(Page::zeroed);
        self.disk.read_page(id, &mut page);
        if zero_capacity {
            // The paper's "no buffer" setting: serve the closure from the
            // transient copy without caching it.
            return f(page.bytes());
        }
        let mut shard = self.lock_shard(id);
        match shard.lru.insert(id, page) {
            Ok((idx, displaced)) => {
                if displaced.is_some() {
                    shard.spare = displaced;
                }
                f(shard.lru.frames[idx].page.bytes())
            }
            // The pool was resized during the read and the shard that owns
            // the page now has no room at all.
            Err(page) => f(page.bytes()),
        }
    }

    /// Snapshot of the I/O counters (pool + underlying disk).
    ///
    /// The pool triple is exactly consistent (`logical_reads == buffer_hits +
    /// buffer_misses` always holds, even under concurrent readers); the
    /// physical counters are monotonic but may trail in-flight misses — see
    /// the module docs.
    pub(crate) fn stats(&self) -> IoStats {
        // Read the physical counters *before* the pool counters: every
        // physical read is preceded by its miss being counted under the shard
        // lock, so sampling in this order keeps `physical_reads <=
        // buffer_misses` in every snapshot (the reverse order could observe a
        // read whose miss had not been summed yet).
        let physical_reads = self.disk.physical_reads();
        let physical_writes = self.disk.physical_writes();
        let (mut logical, mut hits, mut misses) = (0u64, 0u64, 0u64);
        for shard in &self.shards {
            let shard = shard.lock();
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

/// The stripe count for `capacity` pages: a pinned count capped at the
/// capacity (at least one stripe) and at [`MAX_SHARDS`], or the default
/// policy's.
fn stripes_for(capacity: usize, pinned_shards: Option<usize>) -> usize {
    match pinned_shards {
        Some(pinned) => pinned.min(capacity.max(1)).min(MAX_SHARDS),
        None => default_shard_count(capacity),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::InMemoryDisk;

    impl BufferPool {
        /// Number of pages currently cached.
        fn cached_pages(&self) -> usize {
            self.shards
                .iter()
                .map(|shard| shard.lock().lru.map.len())
                .sum()
        }
    }

    /// Appends `pages` pages to `disk`, page `i` holding the byte `i`
    /// throughout.
    fn stamp_pages(disk: &dyn DiskManager, pages: usize) {
        for i in 0..pages {
            let id = disk.allocate_page();
            let mut p = Page::zeroed();
            p.bytes_mut().fill(i as u8);
            disk.write_page(id, &p);
        }
    }

    fn make_disk(pages: usize) -> Arc<InMemoryDisk> {
        let disk = Arc::new(InMemoryDisk::new());
        stamp_pages(disk.as_ref(), pages);
        disk
    }

    /// Reads page `id` of a [`stamp_pages`] disk through `pool` and checks
    /// every byte served — a recycled page that was not wholly overwritten,
    /// or a frame handed to the wrong reader, fails here.
    fn read_checked(pool: &BufferPool, id: u32) {
        let whole = pool.with_page(PageId::new(id), |b| {
            b.len() == crate::page::PAGE_SIZE && b.iter().all(|&x| x == id as u8)
        });
        assert!(whole, "wrong bytes served for page{id}");
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
        // exactly (the guarantee every batch-level `IoStats` relies on),
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

    /// What `op` means in the model-based test below.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Read(u32),
        SetCapacity(usize),
        Clear,
    }

    /// A plain per-stripe LRU: most recently used page first.
    struct Model {
        pinned: Option<usize>,
        stripes: Vec<(usize, std::collections::VecDeque<u32>)>,
        logical: u64,
        hits: u64,
        physical: u64,
    }

    impl Model {
        fn new(capacity: usize, pinned: Option<usize>) -> Self {
            let mut model = Self {
                pinned,
                stripes: Vec::new(),
                logical: 0,
                hits: 0,
                physical: 0,
            };
            model.set_capacity(capacity);
            model
        }

        fn set_capacity(&mut self, capacity: usize) {
            let count = match self.pinned {
                Some(pinned) => pinned.min(capacity.max(1)),
                None => (capacity / MIN_PAGES_PER_SHARD).clamp(1, MAX_SHARDS),
            };
            self.stripes = (0..count)
                .map(|i| {
                    let share = capacity / count + usize::from(i < capacity % count);
                    (share, std::collections::VecDeque::new())
                })
                .collect();
        }

        /// Whether the read hits.
        fn read(&mut self, page: u32) -> bool {
            self.logical += 1;
            let count = self.stripes.len();
            let (share, lru) = &mut self.stripes[page as usize % count];
            let hit = match lru.iter().position(|&p| p == page) {
                Some(at) => {
                    lru.remove(at);
                    true
                }
                None => false,
            };
            if hit {
                self.hits += 1;
            } else {
                self.physical += 1;
            }
            if *share > 0 {
                lru.push_front(page);
                lru.truncate(*share);
            }
            hit
        }

        fn cached(&self) -> usize {
            self.stripes.iter().map(|(_, lru)| lru.len()).sum()
        }
    }

    proptest::proptest! {
        #[test]
        fn pool_matches_a_per_stripe_lru_model(
            capacity in 0usize..=12,
            // 0 = unpinned (the default policy picks the stripe count).
            pinned in 0usize..=4,
            ops in proptest::collection::vec((0u8..16, 0u32..24, 0usize..=12), 1..200),
        ) {
            let pinned = (pinned > 0).then_some(pinned);
            let disk = make_disk(24);
            let reads_before = disk.physical_reads();
            let pool = match pinned {
                Some(shards) => BufferPool::with_shards(disk.clone(), capacity, shards),
                None => BufferPool::new(disk.clone(), capacity),
            };
            let mut model = Model::new(capacity, pinned);
            for (step, &(kind, page, capacity)) in ops.iter().enumerate() {
                let op = match kind {
                    0 => Op::SetCapacity(capacity),
                    1 => Op::Clear,
                    _ => Op::Read(page),
                };
                match op {
                    Op::Read(page) => {
                        let hits_before = pool.stats().buffer_hits;
                        read_checked(&pool, page);
                        let hit = pool.stats().buffer_hits > hits_before;
                        assert_eq!(hit, model.read(page), "step {step}: {op:?}");
                    }
                    Op::SetCapacity(capacity) => {
                        pool.set_capacity(capacity);
                        model.set_capacity(capacity);
                        assert_eq!(pool.capacity(), capacity);
                        assert_eq!(pool.shard_count(), model.stripes.len());
                    }
                    Op::Clear => {
                        pool.clear();
                        for (_, lru) in &mut model.stripes {
                            lru.clear();
                        }
                        (model.logical, model.hits) = (0, 0);
                    }
                }
                let stats = pool.stats();
                assert_eq!(pool.cached_pages(), model.cached(), "step {step}: {op:?}");
                assert_eq!(stats.logical_reads, model.logical, "step {step}: {op:?}");
                assert_eq!(stats.buffer_hits, model.hits, "step {step}: {op:?}");
                assert_eq!(stats.buffer_misses, model.logical - model.hits);
                assert_eq!(stats.physical_reads - reads_before, model.physical);
            }
        }
    }

    #[test]
    fn readers_race_with_resizing() {
        // Readers hammer the pool while another thread re-stripes it through
        // "no buffer", one stripe and all stripes. Every read must return its
        // own page, and no read may be lost or counted twice on the way.
        const READERS: u32 = 4;
        const READS: u32 = 4_000;
        let disk = make_disk(64);
        let pool = Arc::new(BufferPool::new(disk, 16));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            let resizer = {
                let (pool, stop) = (Arc::clone(&pool), Arc::clone(&stop));
                s.spawn(move || {
                    let mut resizes = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        for capacity in [0, 3, 64, 1, 9] {
                            pool.set_capacity(capacity);
                            resizes += 1;
                        }
                    }
                    resizes
                })
            };
            let readers: Vec<_> = (0..READERS)
                .map(|t| {
                    let pool = Arc::clone(&pool);
                    s.spawn(move || {
                        for round in 0..READS {
                            let id = (t * 17 + round * 5) % 64;
                            assert_eq!(pool.with_page(PageId::new(id), |b| b[0]), id as u8);
                            let s = pool.stats();
                            assert_eq!(s.logical_reads, s.buffer_hits + s.buffer_misses);
                        }
                    })
                })
                .collect();
            for reader in readers {
                reader.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
            assert!(resizer.join().unwrap() >= 5);
        });
        let s = pool.stats();
        assert_eq!(s.logical_reads, u64::from(READERS * READS));
        assert_eq!(s.logical_reads, s.buffer_hits + s.buffer_misses);
        assert!(pool.cached_pages() <= pool.capacity());
    }

    /// A disk that runs a hook in the middle of its next read — the window
    /// in which `with_page` holds no lock. A hook that calls back into the
    /// pool probes it with [`assert_no_shard_is_locked`] first.
    struct HookedDisk {
        inner: InMemoryDisk,
        during_next_read: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl HookedDisk {
        fn take_hook(&self) -> Option<Box<dyn FnOnce() + Send>> {
            self.during_next_read.lock().take()
        }
    }

    impl DiskManager for HookedDisk {
        fn read_page(&self, id: PageId, out: &mut Page) {
            if let Some(hook) = self.take_hook() {
                hook();
            }
            self.inner.read_page(id, out);
        }

        fn write_page(&self, id: PageId, page: &Page) {
            self.inner.write_page(id, page);
        }

        fn allocate_page(&self) -> PageId {
            self.inner.allocate_page()
        }

        fn num_pages(&self) -> usize {
            self.inner.num_pages()
        }

        fn physical_reads(&self) -> u64 {
            self.inner.physical_reads()
        }

        fn physical_writes(&self) -> u64 {
            self.inner.physical_writes()
        }
    }

    #[test]
    fn a_miss_survives_the_pool_being_resized_under_it() {
        let disk = Arc::new(HookedDisk {
            inner: InMemoryDisk::new(),
            during_next_read: Mutex::new(None),
        });
        for i in 0..16u8 {
            let id = disk.allocate_page();
            let mut p = Page::zeroed();
            p.bytes_mut()[0] = i;
            disk.write_page(id, &p);
        }
        let pool = Arc::new(BufferPool::new(disk.clone(), 8));
        let resize_to = |capacity: usize| {
            let pool = Arc::clone(&pool);
            *disk.during_next_read.lock() = Some(Box::new(move || {
                assert_no_shard_is_locked(&pool);
                pool.set_capacity(capacity);
            }));
        };

        // Resized to "no buffer" while the page was being read: the shard
        // that counted the miss with room to spare has none when the insert
        // arrives, and the closure is served from the transient copy.
        resize_to(0);
        assert_eq!(pool.with_page(PageId::new(5), |b| b[0]), 5);
        assert_eq!((pool.capacity(), pool.cached_pages()), (0, 0));

        // Re-striped from one shard to eight while the page was being read:
        // the page lands in the shard that owns it *now*, where the next
        // read finds it.
        pool.set_capacity(4);
        assert_eq!(pool.shard_count(), 1);
        resize_to(64);
        assert_eq!(pool.with_page(PageId::new(13), |b| b[0]), 13);
        assert_eq!((pool.shard_count(), pool.cached_pages()), (MAX_SHARDS, 1));
        assert_eq!(pool.with_page(PageId::new(13), |b| b[0]), 13);

        let s = pool.stats();
        assert_eq!((s.logical_reads, s.buffer_hits, s.buffer_misses), (3, 1, 2));
        assert_eq!(s.physical_reads, 2);
    }

    #[test]
    fn recycled_pages_serve_the_right_bytes() {
        // One stripe of two frames over eight pages: from the third miss on,
        // every read lands in the page the previous eviction displaced.
        let pool = BufferPool::with_shards(make_disk(8), 2, 1);
        for round in 0..3 {
            for id in 0..8 {
                read_checked(&pool, id);
                read_checked(&pool, (id + 7 * round) % 8);
            }
        }
        // The spare outlives a resize and a clear, and is still only a
        // buffer: "no buffer" reads into it once, a refilled pool goes on.
        pool.set_capacity(0);
        for id in [3, 3, 5] {
            read_checked(&pool, id);
        }
        pool.set_capacity(3);
        pool.clear();
        for id in (0..8).chain([1, 7, 2, 7]) {
            read_checked(&pool, id);
        }
        let s = pool.stats();
        assert_eq!(s.logical_reads, s.buffer_hits + s.buffer_misses);
        assert_eq!(pool.cached_pages(), 3);
    }

    /// Four stamped pages and no hook yet.
    fn hooked_disk() -> Arc<HookedDisk> {
        let disk = HookedDisk {
            inner: InMemoryDisk::new(),
            during_next_read: Mutex::new(None),
        };
        stamp_pages(&disk, 4);
        Arc::new(disk)
    }

    /// The rule `with_page` documents at its physical read: no shard lock
    /// is held across it. Called from a hook while the read is in flight, so
    /// a guard held across the read fails the probe instead of deadlocking
    /// whatever the hook does with the pool next.
    fn assert_no_shard_is_locked(pool: &BufferPool) {
        for (i, shard) in pool.shards.iter().enumerate() {
            assert!(
                shard.try_lock().is_some(),
                "shard {i} is locked during a physical read"
            );
        }
    }

    #[test]
    fn no_shard_lock_is_held_across_the_physical_read() {
        let disk = hooked_disk();
        let pool = Arc::new(BufferPool::with_shards(disk.clone(), 4, MAX_SHARDS));
        for id in 0..4 {
            let probe = Arc::clone(&pool);
            *disk.during_next_read.lock() =
                Some(Box::new(move || assert_no_shard_is_locked(&probe)));
            read_checked(&pool, id);
            assert!(disk.take_hook().is_none(), "page {id} was not read");
        }
        assert_eq!(pool.stats().physical_reads, 4);
    }

    #[test]
    fn two_threads_missing_the_same_page_both_get_it() {
        let disk = hooked_disk();
        let pool = Arc::new(BufferPool::with_shards(disk.clone(), 2, 1));
        // While this thread is inside its physical read of page 2, a second
        // thread misses page 2 as well, reads it and caches it first.
        let racer = Arc::clone(&pool);
        *disk.during_next_read.lock() = Some(Box::new(move || {
            assert_no_shard_is_locked(&racer);
            std::thread::spawn(move || read_checked(&racer, 2))
                .join()
                .expect("the racing reader got its page");
        }));
        read_checked(&pool, 2);
        let s = pool.stats();
        assert_eq!(
            (s.buffer_hits, s.buffer_misses, s.physical_reads),
            (0, 2, 2)
        );
        // One frame holds the page; the copy the late insert replaced became
        // the stripe's spare, and the next misses read into it.
        assert_eq!(pool.cached_pages(), 1);
        for id in [2, 0, 1, 3, 2] {
            read_checked(&pool, id);
        }
        let s = pool.stats();
        assert_eq!((s.buffer_hits, s.buffer_misses), (1, 6));
    }

    #[test]
    fn a_pool_resized_to_nothing_under_a_miss_serves_the_right_bytes() {
        let disk = hooked_disk();
        let pool = Arc::new(BufferPool::with_shards(disk.clone(), 1, 1));
        // Two misses on one frame leave the stripe a spare holding page 0.
        read_checked(&pool, 0);
        read_checked(&pool, 1);
        // The next miss reads into that spare while the pool is resized to
        // "no buffer": nothing to insert into, served from the read itself.
        let resizer = Arc::clone(&pool);
        *disk.during_next_read.lock() = Some(Box::new(move || {
            assert_no_shard_is_locked(&resizer);
            resizer.set_capacity(0);
        }));
        read_checked(&pool, 3);
        assert_eq!((pool.capacity(), pool.cached_pages()), (0, 0));
        read_checked(&pool, 2);
        assert_eq!(pool.stats().buffer_misses, 4);
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
