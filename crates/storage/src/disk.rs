//! Disk managers: the physical page store underneath the buffer pool.

use crate::page::{Page, PageId, PAGE_SIZE};
use parking_lot::RwLock;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Witness lock-class ids — the exact strings `mcn-analyze` derives
/// (`crate::Type.field`), so observed edges diff against the static graph.
const W_MEM: &str = "storage::InMemoryDisk.pages";
const W_FILE: &str = "storage::FileDisk.file";

/// A physical page store.
///
/// Two implementations are provided:
///
/// * [`InMemoryDisk`] — pages live in RAM; physical reads/writes are counted
///   so the benchmark harness can charge a synthetic latency per transfer.
///   This is the default substrate for experiments (see DESIGN.md §3 on the
///   substitution of the paper's real disk).
/// * [`FileDisk`] — pages live in an ordinary file; useful for persisting a
///   built store and for validating the layout end-to-end.
///
/// All implementations are thread-safe; counters are atomics.
pub trait DiskManager: Send + Sync {
    /// Reads page `id` into `out`.
    ///
    /// # Panics
    /// Panics if the page has never been allocated.
    fn read_page(&self, id: PageId, out: &mut Page);

    /// Writes `page` to page `id`.
    ///
    /// # Panics
    /// Panics if the page has never been allocated.
    fn write_page(&self, id: PageId, page: &Page);

    /// Allocates a fresh zeroed page at the end of the file and returns its id.
    fn allocate_page(&self) -> PageId;

    /// Allocates the next page and writes `page` to it — what a sequential
    /// build does with every page but the header. Same result and the same
    /// physical-write count as [`DiskManager::allocate_page`] followed by
    /// [`DiskManager::write_page`], which is what the default does; a
    /// manager that can skip the intermediate zero-fill overrides it.
    fn append_page(&self, page: &Page) -> PageId {
        let id = self.allocate_page();
        self.write_page(id, page);
        id
    }

    /// Number of allocated pages.
    fn num_pages(&self) -> usize;

    /// Number of physical page reads served so far.
    fn physical_reads(&self) -> u64;

    /// Number of physical page writes served so far.
    fn physical_writes(&self) -> u64;
}

/// An in-memory disk manager with physical-transfer accounting.
///
/// An optional **simulated read latency** turns the paper's *charged* I/O
/// model into real blocking time: every physical read sleeps for the
/// configured duration. The throughput experiment uses this to measure how
/// the multi-query engine overlaps I/O waits — with zero latency (the
/// default) reads are as fast as RAM and nothing sleeps.
pub struct InMemoryDisk {
    pages: RwLock<Vec<Page>>,
    read_latency: std::time::Duration,
    reads: AtomicU64,
    writes: AtomicU64,
}

const _: () = crate::assert_send_sync::<InMemoryDisk>();

impl InMemoryDisk {
    /// Creates an empty in-memory disk with no simulated latency.
    pub fn new() -> Self {
        Self::with_read_latency(std::time::Duration::ZERO)
    }

    /// Creates an empty in-memory disk whose physical reads each block for
    /// `latency`.
    pub fn with_read_latency(latency: std::time::Duration) -> Self {
        Self {
            pages: RwLock::new(Vec::new()),
            read_latency: latency,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    /// The simulated per-read latency.
    pub fn read_latency(&self) -> std::time::Duration {
        self.read_latency
    }
}

impl Default for InMemoryDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl DiskManager for InMemoryDisk {
    fn read_page(&self, id: PageId, out: &mut Page) {
        if !self.read_latency.is_zero() {
            // Simulate the seek outside any lock so concurrent reads overlap.
            std::thread::sleep(self.read_latency);
        }
        let pages = self.pages.read();
        let _pages_w = mcn_witness::acquire(W_MEM);
        let page = pages
            .get(id.index())
            .unwrap_or_else(|| panic!("read of unallocated {id}"));
        out.copy_from(page.bytes());
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    fn write_page(&self, id: PageId, page: &Page) {
        let mut pages = self.pages.write();
        let _pages_w = mcn_witness::acquire(W_MEM);
        let slot = pages
            .get_mut(id.index())
            .unwrap_or_else(|| panic!("write to unallocated {id}"));
        slot.copy_from(page.bytes());
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    fn allocate_page(&self) -> PageId {
        let mut pages = self.pages.write();
        let _pages_w = mcn_witness::acquire(W_MEM);
        let id = PageId::new(pages.len() as u32);
        pages.push(Page::zeroed());
        id
    }

    fn num_pages(&self) -> usize {
        self.pages.read().len()
    }

    fn physical_reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    fn physical_writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

/// A file-backed disk manager.
///
/// Pages are stored back to back in a single file. The file handle is wrapped
/// in a lock, so concurrent access serialises; this implementation exists for
/// persistence and end-to-end validation rather than performance.
pub struct FileDisk {
    file: RwLock<File>,
    num_pages: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
}

const _: () = crate::assert_send_sync::<FileDisk>();

impl FileDisk {
    /// Creates (or truncates) a database file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            file: RwLock::new(file),
            num_pages: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        })
    }

    /// Opens an existing database file at `path`.
    pub fn open<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        assert!(
            len % PAGE_SIZE as u64 == 0,
            "database file length {len} is not a multiple of the page size"
        );
        Ok(Self {
            file: RwLock::new(file),
            num_pages: AtomicU64::new(len / PAGE_SIZE as u64),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        })
    }
}

/// Writes all of `buf` at byte `offset`: one positional call where the
/// platform has one (half the system calls of a store build, which is
/// nothing but page writes), seek + write elsewhere.
fn write_at(file: &mut File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::Write;
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(buf)
    }
}

impl DiskManager for FileDisk {
    fn read_page(&self, id: PageId, out: &mut Page) {
        assert!(
            (id.index() as u64) < self.num_pages.load(Ordering::SeqCst),
            "read of unallocated {id}"
        );
        let mut file = self.file.write();
        let _file_w = mcn_witness::acquire(W_FILE);
        // mcn-lint: allow(lock-across-io, reason = "the file-handle mutex IS the I/O serialization point; the seek/read pair must be atomic")
        file.seek(SeekFrom::Start(id.index() as u64 * PAGE_SIZE as u64))
            .expect("seek failed");
        // mcn-lint: allow(lock-across-io, reason = "paired with the seek above under the same handle lock")
        file.read_exact(out.bytes_mut()).expect("page read failed");
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    fn write_page(&self, id: PageId, page: &Page) {
        assert!(
            (id.index() as u64) < self.num_pages.load(Ordering::SeqCst),
            "write to unallocated {id}"
        );
        let mut file = self.file.write();
        let _file_w = mcn_witness::acquire(W_FILE);
        // mcn-lint: allow(lock-across-io, reason = "the file-handle mutex IS the I/O serialization point")
        write_at(
            &mut file,
            page.bytes(),
            id.index() as u64 * PAGE_SIZE as u64,
        )
        .expect("page write failed");
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    fn allocate_page(&self) -> PageId {
        let id = self.num_pages.fetch_add(1, Ordering::SeqCst);
        let mut file = self.file.write();
        let _file_w = mcn_witness::acquire(W_FILE);
        // mcn-lint: allow(lock-across-io, reason = "allocation must extend the file atomically under the handle lock or concurrent allocators interleave their extents")
        write_at(&mut file, &[0u8; PAGE_SIZE], id * PAGE_SIZE as u64).expect("page extend failed");
        PageId::new(id as u32)
    }

    fn append_page(&self, page: &Page) -> PageId {
        let mut file = self.file.write();
        let _file_w = mcn_witness::acquire(W_FILE);
        // Bumped under the handle lock: a reader that sees the new count
        // queues behind this write instead of reading past the end.
        let id = self.num_pages.fetch_add(1, Ordering::SeqCst);
        // mcn-lint: allow(lock-across-io, reason = "allocation must extend the file atomically under the handle lock or concurrent allocators interleave their extents")
        write_at(&mut file, page.bytes(), id * PAGE_SIZE as u64).expect("page append failed");
        self.writes.fetch_add(1, Ordering::Relaxed);
        PageId::new(id as u32)
    }

    fn num_pages(&self) -> usize {
        self.num_pages.load(Ordering::SeqCst) as usize
    }

    fn physical_reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    fn physical_writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(disk: &dyn DiskManager) {
        let a = disk.allocate_page();
        let b = disk.allocate_page();
        assert_eq!(disk.num_pages(), 2);

        let mut p = Page::zeroed();
        p.bytes_mut()[0] = 42;
        p.bytes_mut()[100] = 7;
        disk.write_page(a, &p);

        let mut q = Page::zeroed();
        q.bytes_mut()[0] = 99;
        disk.write_page(b, &q);

        let mut out = Page::zeroed();
        disk.read_page(a, &mut out);
        assert_eq!(out.bytes()[0], 42);
        assert_eq!(out.bytes()[100], 7);
        disk.read_page(b, &mut out);
        assert_eq!(out.bytes()[0], 99);

        assert_eq!(disk.physical_reads(), 2);
        assert_eq!(disk.physical_writes(), 2);

        // Appending is allocate + write in one step: next id, one write.
        let mut r = Page::zeroed();
        r.bytes_mut()[PAGE_SIZE - 1] = 5;
        let c = disk.append_page(&r);
        assert_eq!(c, PageId::new(2));
        assert_eq!(disk.num_pages(), 3);
        assert_eq!(disk.physical_writes(), 3);
        disk.read_page(c, &mut out);
        assert_eq!(out.bytes(), r.bytes());
        // … and plain allocation carries on behind it.
        assert_eq!(disk.allocate_page(), PageId::new(3));
        disk.read_page(PageId::new(3), &mut out);
        assert!(out.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn in_memory_roundtrip() {
        roundtrip(&InMemoryDisk::new());
    }

    #[test]
    fn file_disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mcn-disk-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.db");
        {
            let disk = FileDisk::create(&path).unwrap();
            roundtrip(&disk);
        }
        // Re-open and verify persistence.
        let disk = FileDisk::open(&path).unwrap();
        assert_eq!(disk.num_pages(), 4);
        let mut out = Page::zeroed();
        disk.read_page(PageId::new(0), &mut out);
        assert_eq!(out.bytes()[0], 42);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic]
    fn reading_unallocated_page_panics() {
        let disk = InMemoryDisk::new();
        let mut out = Page::zeroed();
        disk.read_page(PageId::new(0), &mut out);
    }

    #[test]
    fn allocation_is_sequential() {
        let disk = InMemoryDisk::new();
        let ids: Vec<u32> = (0..5).map(|_| disk.allocate_page().raw()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
