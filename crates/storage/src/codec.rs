//! Little-endian encoding helpers for fixed-layout records inside pages.

/// A cursor that appends fixed-width values to a byte buffer (typically a
/// region of a page).
pub(crate) struct RecordWriter<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> RecordWriter<'a> {
    /// Creates a writer over `buf` starting at offset 0.
    pub(crate) fn new(buf: &'a mut [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn put(&mut self, bytes: &[u8]) {
        let end = self.pos + bytes.len();
        assert!(end <= self.buf.len(), "record overflows the page");
        self.buf[self.pos..end].copy_from_slice(bytes);
        self.pos = end;
    }

    /// Appends a `u8`.
    pub(crate) fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Appends a little-endian `u16`.
    pub(crate) fn put_u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub(crate) fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    pub(crate) fn put_f64(&mut self, v: f64) {
        self.put(&v.to_le_bytes());
    }
}

/// A cursor that reads fixed-width values from a byte buffer.
pub(crate) struct RecordReader<'a> {
    buf: &'a [u8],
}

impl<'a> RecordReader<'a> {
    /// Creates a reader over `buf` starting at `offset`.
    ///
    /// # Panics
    /// Panics if `offset` is beyond the end of the buffer.
    pub(crate) fn new(buf: &'a [u8], offset: usize) -> Self {
        assert!(offset <= buf.len(), "record offset out of range");
        Self {
            buf: &buf[offset..],
        }
    }

    /// Consumes the next `N` bytes.
    ///
    /// # Panics
    /// Panics if fewer than `N` bytes remain.
    fn take<const N: usize>(&mut self) -> [u8; N] {
        assert!(N <= self.buf.len(), "record read past end of buffer");
        let (head, tail) = self.buf.split_at(N);
        self.buf = tail;
        head.try_into().unwrap()
    }

    /// Reads a `u8`.
    pub(crate) fn get_u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    /// Reads a little-endian `u16`.
    pub(crate) fn get_u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take())
    }

    /// Reads a little-endian `u32`.
    pub(crate) fn get_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    /// Reads a little-endian `f64`.
    pub(crate) fn get_f64(&mut self) -> f64 {
        f64::from_le_bytes(self.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = vec![0u8; 64];
        {
            let mut w = RecordWriter::new(&mut buf);
            w.put_u8(7);
            w.put_u16(65535);
            w.put_u32(123_456_789);
            w.put_f64(3.5);
        }
        // The four writes fill exactly the first 1 + 2 + 4 + 8 bytes.
        assert_ne!(buf[14], 0);
        assert!(buf[15..].iter().all(|&b| b == 0));
        let mut r = RecordReader::new(&buf, 0);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16(), 65535);
        assert_eq!(r.get_u32(), 123_456_789);
        assert_eq!(r.get_f64(), 3.5);
    }

    #[test]
    fn reader_with_offset() {
        let mut buf = vec![0u8; 16];
        {
            let mut w = RecordWriter::new(&mut buf[4..]);
            w.put_u32(42);
        }
        let mut r = RecordReader::new(&buf, 4);
        assert_eq!(r.get_u32(), 42);
        // The eight bytes after the record are still readable.
        assert_eq!(r.get_f64(), 0.0);
    }

    #[test]
    #[should_panic]
    fn writer_overflow_panics() {
        let mut buf = vec![0u8; 3];
        let mut w = RecordWriter::new(&mut buf);
        w.put_u32(1);
    }
}
