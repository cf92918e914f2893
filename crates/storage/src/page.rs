//! Fixed-size disk pages and page identifiers.

use std::fmt;

/// Size of every disk page in bytes.
///
/// 4 KiB matches the typical filesystem block size used by the storage scheme
/// of Yiu & Mamoulis (SIGMOD'04) that the paper adopts (its Figure 2).
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a disk page (zero-based position within the database file).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

impl PageId {
    /// Creates a page identifier from a raw index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Returns the raw index.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the identifier as a `usize`.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page{}", self.0)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page{}", self.0)
    }
}

/// A fixed-size page of bytes.
///
/// Pages are heap-allocated (`Box<[u8; PAGE_SIZE]>`) so that moving a `Page`
/// value around never copies 4 KiB on the stack.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// Creates a zero-filled page.
    pub fn zeroed() -> Self {
        Self {
            // Of the query path only the buffer pool's miss makes a page, and
            // only until its stripe has evicted once: from then on a miss
            // reads into the page the last eviction displaced.
            data: Box::new([0u8; PAGE_SIZE]),
        }
    }

    /// Read-only view of the page contents.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data[..]
    }

    /// Mutable view of the page contents.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data[..]
    }

    /// Copies the contents of `src` into this page.
    ///
    /// # Panics
    /// Panics if `src` is not exactly [`PAGE_SIZE`] bytes long.
    pub fn copy_from(&mut self, src: &[u8]) {
        assert_eq!(
            src.len(),
            PAGE_SIZE,
            "page copy source must be {PAGE_SIZE} bytes"
        );
        self.data.copy_from_slice(src);
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nonzero = self.data.iter().filter(|&&b| b != 0).count();
        write!(f, "Page {{ {nonzero}/{PAGE_SIZE} non-zero bytes }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_ids_are_ordered_and_displayable() {
        assert!(PageId::new(1) < PageId::new(2));
        assert_eq!(PageId::new(7).to_string(), "page7");
        assert_eq!(PageId::new(7).index(), 7);
    }

    #[test]
    fn pages_start_zeroed_and_are_copyable() {
        let mut p = Page::zeroed();
        assert!(p.bytes().iter().all(|&b| b == 0));
        p.bytes_mut()[0] = 0xAB;
        p.bytes_mut()[PAGE_SIZE - 1] = 0xCD;
        let q = p.clone();
        assert_eq!(q.bytes()[0], 0xAB);
        assert_eq!(q.bytes()[PAGE_SIZE - 1], 0xCD);

        let src = vec![0x11u8; PAGE_SIZE];
        let mut r = Page::zeroed();
        r.copy_from(&src);
        assert!(r.bytes().iter().all(|&b| b == 0x11));
    }

    #[test]
    #[should_panic]
    fn copy_from_wrong_size_panics() {
        let mut p = Page::zeroed();
        p.copy_from(&[0u8; 10]);
    }

    #[test]
    fn debug_reports_occupancy() {
        let mut p = Page::zeroed();
        p.bytes_mut()[3] = 1;
        assert!(format!("{p:?}").contains("1/4096"));
    }
}
