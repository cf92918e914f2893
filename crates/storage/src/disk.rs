//! Disk managers: the physical page store underneath the buffer pool.

use crate::page::{Page, PageId, PAGE_SIZE};
use parking_lot::{Mutex, RwLock};
use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// A physical page store.
///
/// Two implementations are provided:
///
/// * [`InMemoryDisk`] — pages live in RAM; physical reads/writes are counted
///   so the benchmark harness can charge a synthetic latency per transfer.
///   This is the default substrate for experiments (see DESIGN.md §3 on the
///   substitution of the paper's real disk).
/// * [`FileDisk`] — pages live in an ordinary file, read and written with
///   one positional system call each and no lock; the substrate for a
///   persisted store and for the file-backed benchmark workloads.
///
/// All implementations are thread-safe; counters are atomics.
///
/// # Build, then read
///
/// The store is write-once/read-many, and the trait leans on it twice:
///
/// * [`DiskManager::read_page`] overwrites **all** [`PAGE_SIZE`] bytes of
///   `out`, so a caller may pass a page that is not zeroed (the buffer pool
///   reads into recycled pages).
/// * A page is written before its id is handed to any reader. Reads of one
///   page may overlap each other, and reads may overlap writes and
///   allocations of *other* pages, but nothing orders a read against a
///   concurrent rewrite of the same page — the one in-place rewrite in the
///   product is the header page, at the end of a build, before the store it
///   describes exists.
pub trait DiskManager: Send + Sync {
    /// Reads page `id` into `out`, overwriting every byte of it.
    ///
    /// # Panics
    /// Panics if the page has never been allocated, or if the transfer fails.
    fn read_page(&self, id: PageId, out: &mut Page);

    /// Writes `page` to page `id`.
    ///
    /// # Panics
    /// Panics if the page has never been allocated, or if the transfer fails.
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
pub struct InMemoryDisk {
    pages: RwLock<Vec<Page>>,
    reads: AtomicU64,
    writes: AtomicU64,
}

const _: () = crate::assert_send_sync::<InMemoryDisk>();

impl InMemoryDisk {
    /// Creates an empty in-memory disk.
    pub fn new() -> Self {
        Self {
            pages: RwLock::new(Vec::new()),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }
}

impl Default for InMemoryDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl DiskManager for InMemoryDisk {
    fn read_page(&self, id: PageId, out: &mut Page) {
        let pages = self.pages.read();
        let page = pages
            .get(id.index())
            .unwrap_or_else(|| panic!("read of unallocated {id}"));
        out.copy_from(page.bytes());
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    fn write_page(&self, id: PageId, page: &Page) {
        let mut pages = self.pages.write();
        let slot = pages
            .get_mut(id.index())
            .unwrap_or_else(|| panic!("write to unallocated {id}"));
        slot.copy_from(page.bytes());
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    fn allocate_page(&self) -> PageId {
        let mut pages = self.pages.write();
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
/// Pages are stored back to back in a single file. A read or a write is one
/// positional system call (`pread` / `pwrite`) on the shared handle: no
/// cursor, hence no lock, and any number of threads transfer pages at once.
/// Only growing the file is serialised, by `grow`; the page count is
/// published after the new page has been written, so a reader that passes
/// the bounds check never reads past the end of the file.
pub struct FileDisk {
    file: File,
    /// Held by whoever is extending the file; guards no data of its own.
    grow: Mutex<()>,
    /// Pages readers may ask for. Stored only under `grow`.
    num_pages: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
}

const _: () = crate::assert_send_sync::<FileDisk>();

impl FileDisk {
    /// Creates (or truncates) a database file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self::over(file, 0))
    }

    /// Opens an existing database file at `path`.
    ///
    /// # Errors
    /// Besides what opening the file can return, fails with
    /// [`io::ErrorKind::InvalidData`] if the file is not a whole number of
    /// pages long.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("database file length {len} is not a multiple of the page size"),
            ));
        }
        Ok(Self::over(file, len / PAGE_SIZE as u64))
    }

    fn over(file: File, num_pages: u64) -> Self {
        Self {
            file,
            grow: Mutex::new(()),
            num_pages: AtomicU64::new(num_pages),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    /// Writes `bytes` as the next page of the file and returns its id — the
    /// one routine under both ways of allocating.
    fn grow(&self, bytes: &[u8]) -> PageId {
        let _grow = self.grow.lock();
        let id = self.num_pages.load(Ordering::SeqCst);
        // mcn-lint: allow(lock-across-io, reason = "growers must extend the file one at a time or two of them write the same extent; readers and writers of existing pages never take this lock")
        write_at(&self.file, bytes, id * PAGE_SIZE as u64)
            .unwrap_or_else(|e| panic!("extending the file by page{id} failed: {e}"));
        // Published only now: whoever sees the new count finds the page.
        self.num_pages.store(id + 1, Ordering::SeqCst);
        PageId::new(id as u32)
    }
}

/// Fills `buf` from byte `offset` of `file`, wherever the handle's cursor is.
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
    }
    #[cfg(windows)]
    {
        use std::os::windows::fs::FileExt;
        let mut done = 0;
        while done < buf.len() {
            match file.seek_read(&mut buf[done..], offset + done as u64) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => done += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Writes all of `buf` at byte `offset` of `file`, wherever the handle's
/// cursor is.
fn write_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
    }
    #[cfg(windows)]
    {
        use std::os::windows::fs::FileExt;
        let mut done = 0;
        while done < buf.len() {
            match file.seek_write(&buf[done..], offset + done as u64) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => done += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl DiskManager for FileDisk {
    fn read_page(&self, id: PageId, out: &mut Page) {
        assert!(
            (id.index() as u64) < self.num_pages.load(Ordering::SeqCst),
            "read of unallocated {id}"
        );
        read_at(
            &self.file,
            out.bytes_mut(),
            id.index() as u64 * PAGE_SIZE as u64,
        )
        .unwrap_or_else(|e| panic!("read of {id} failed: {e}"));
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    fn write_page(&self, id: PageId, page: &Page) {
        assert!(
            (id.index() as u64) < self.num_pages.load(Ordering::SeqCst),
            "write to unallocated {id}"
        );
        write_at(
            &self.file,
            page.bytes(),
            id.index() as u64 * PAGE_SIZE as u64,
        )
        .unwrap_or_else(|e| panic!("write of {id} failed: {e}"));
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    fn allocate_page(&self) -> PageId {
        self.grow(&[0u8; PAGE_SIZE])
    }

    fn append_page(&self, page: &Page) -> PageId {
        let id = self.grow(page.bytes());
        self.writes.fetch_add(1, Ordering::Relaxed);
        id
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

    /// A scratch file of this process and test; removed when dropped.
    struct TempFile(std::path::PathBuf);

    impl TempFile {
        fn new(test: &str) -> Self {
            let name = format!("mcn-disk-test-{}-{test}.db", std::process::id());
            Self(std::env::temp_dir().join(name))
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    /// A page whose every 512-byte sector starts with `id` and carries its
    /// low byte throughout — a read torn between two pages, or served from
    /// another page's bytes, cannot pass [`assert_stamped`].
    fn stamped(id: u32) -> Page {
        let mut page = Page::zeroed();
        for sector in page.bytes_mut().chunks_exact_mut(512) {
            sector.fill(id as u8);
            sector[..4].copy_from_slice(&id.to_le_bytes());
        }
        page
    }

    fn assert_stamped(page: &Page, id: u32) {
        assert!(
            page.bytes() == stamped(id).bytes(),
            "wrong bytes for page{id}"
        );
    }

    #[test]
    fn concurrent_positional_reads_return_their_own_page() {
        use rand::{Rng, SeedableRng};
        const THREADS: u64 = 4;
        const READS: u64 = 20_000;
        let file = TempFile::new("concurrent-reads");
        let disk = FileDisk::create(&file.0).unwrap();
        for id in 0..64 {
            assert_eq!(disk.append_page(&stamped(id)), PageId::new(id));
        }
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let disk = &disk;
                s.spawn(move || {
                    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(t);
                    // One page for all reads, never cleared in between.
                    let mut out = Page::zeroed();
                    for _ in 0..READS {
                        let id = rng.gen_range(0..64);
                        disk.read_page(PageId::new(id), &mut out);
                        assert_stamped(&out, id);
                    }
                });
            }
        });
        assert_eq!(disk.physical_reads(), THREADS * READS);
    }

    #[test]
    fn a_page_is_readable_as_soon_as_it_is_counted() {
        // Both growers publish the page count after the page is on disk, so
        // a reader that trusts `num_pages()` never meets the end of the file
        // (`allocate_page` used to count first and write second). Even pages
        // are appended with their stamp, odd ones allocated and left zero.
        use rand::{Rng, SeedableRng};
        const PAGES: u32 = 2_000;
        const READERS: u64 = 3;
        const READS: u64 = 4_000;
        let file = TempFile::new("grow-under-readers");
        let disk = FileDisk::create(&file.0).unwrap();
        disk.append_page(&stamped(0));
        std::thread::scope(|s| {
            let disk = &disk;
            s.spawn(move || {
                for id in 1..PAGES {
                    let got = match id % 2 {
                        0 => disk.append_page(&stamped(id)),
                        _ => disk.allocate_page(),
                    };
                    assert_eq!(got, PageId::new(id));
                }
            });
            for t in 0..READERS {
                s.spawn(move || {
                    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(t);
                    let mut out = Page::zeroed();
                    for _ in 0..READS {
                        // Half the reads go for the page counted last.
                        let counted = disk.num_pages() as u32;
                        let id = match rng.gen_bool(0.5) {
                            true => counted - 1,
                            false => rng.gen_range(0..counted),
                        };
                        disk.read_page(PageId::new(id), &mut out);
                        match id % 2 {
                            0 => assert_stamped(&out, id),
                            _ => assert!(out.bytes().iter().all(|&b| b == 0), "page{id}"),
                        }
                    }
                });
            }
        });
        assert_eq!(disk.num_pages(), PAGES as usize);
        assert_eq!(disk.physical_reads(), READERS * READS);
        assert_eq!(disk.physical_writes(), u64::from(PAGES / 2));
    }

    #[test]
    fn opening_a_file_that_is_not_whole_pages_is_an_error() {
        let file = TempFile::new("ragged");
        std::fs::write(&file.0, vec![0u8; PAGE_SIZE + 1]).unwrap();
        let err = FileDisk::open(&file.0)
            .err()
            .expect("4 097 bytes is not a page file");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("4097"), "{err}");
    }

    #[test]
    #[should_panic(expected = "read of page1 failed: ")]
    fn a_failed_read_names_the_page_and_the_os_error() {
        let file = TempFile::new("truncated");
        let disk = FileDisk::create(&file.0).unwrap();
        disk.append_page(&stamped(0));
        disk.append_page(&stamped(1));
        // Cut the file short behind the manager's back.
        File::options()
            .write(true)
            .open(&file.0)
            .unwrap()
            .set_len(PAGE_SIZE as u64)
            .unwrap();
        disk.read_page(PageId::new(1), &mut Page::zeroed());
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
