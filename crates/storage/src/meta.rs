//! The store header: global metadata persisted in page 0.

use crate::btree::StaticBTree;
use crate::codec::{RecordReader, RecordWriter};
use crate::error::StorageError;
use crate::page::{Page, PageId};

const MAGIC: u32 = 0x4D_43_4E_31; // "MCN1"

/// Bytes occupied by the fixed header layout: magic, four counts, three
/// tree handles of three `u32`s each, and three page counts.
pub(crate) const HEADER_SIZE: usize = 4 * (1 + 4 + 3 * 3 + 3);

/// Global metadata of a disk-resident MCN store.
///
/// The header records the graph dimensions, the location of the three index
/// trees (adjacency tree, facility tree, edge index) and the number of pages
/// occupied by the MCN data. The latter is what the paper's buffer-size
/// parameter (0 %–2 %) is expressed against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StorageMeta {
    /// Number of cost types `d`.
    pub(crate) num_cost_types: u32,
    /// Number of nodes.
    pub(crate) num_nodes: u32,
    /// Number of edges.
    pub(crate) num_edges: u32,
    /// Number of facilities.
    pub(crate) num_facilities: u32,
    /// The adjacency tree (node id → adjacency record position).
    pub(crate) adjacency_tree: StaticBTree,
    /// The facility tree (facility id → containing edge + position).
    pub(crate) facility_tree: StaticBTree,
    /// The edge index (edge id → end nodes + direction flag).
    pub(crate) edge_index: StaticBTree,
    /// Pages of the adjacency file.
    pub(crate) adjacency_file_pages: u32,
    /// Pages of the facility file.
    pub(crate) facility_file_pages: u32,
    /// Total number of pages occupied by MCN information (files + trees),
    /// excluding the header page.
    pub(crate) data_pages: u32,
}

impl StorageMeta {
    /// Serialises the header into a page image.
    pub(crate) fn encode(&self) -> Page {
        let mut page = Page::zeroed();
        let mut w = RecordWriter::new(page.bytes_mut());
        w.put_u32(MAGIC);
        w.put_u32(self.num_cost_types);
        w.put_u32(self.num_nodes);
        w.put_u32(self.num_edges);
        w.put_u32(self.num_facilities);
        for tree in [&self.adjacency_tree, &self.facility_tree, &self.edge_index] {
            w.put_u32(tree.root.raw());
            w.put_u32(tree.num_pages);
            w.put_u32(tree.num_entries);
        }
        w.put_u32(self.adjacency_file_pages);
        w.put_u32(self.facility_file_pages);
        w.put_u32(self.data_pages);
        page
    }

    /// Parses a header from a page image.
    ///
    /// # Errors
    /// Returns [`StorageError::InvalidHeader`] if the magic number or the
    /// page accounting is wrong.
    pub(crate) fn decode(page: &Page) -> Result<Self, StorageError> {
        Self::decode_bytes(page.bytes())
    }

    /// Parses a header from a raw byte image, which need not be a full page.
    ///
    /// # Errors
    /// * [`StorageError::TruncatedHeader`] if fewer than [`HEADER_SIZE`]
    ///   bytes are available;
    /// * [`StorageError::InvalidHeader`] if the magic number is wrong (which
    ///   also catches byte-swapped headers written on the wrong endianness)
    ///   or the recorded page counts cannot describe a real store.
    pub(crate) fn decode_bytes(bytes: &[u8]) -> Result<Self, StorageError> {
        if bytes.len() < HEADER_SIZE {
            return Err(StorageError::TruncatedHeader {
                required: HEADER_SIZE,
                actual: bytes.len(),
            });
        }
        let mut r = RecordReader::new(bytes, 0);
        let magic = r.get_u32();
        if magic != MAGIC {
            return Err(StorageError::InvalidHeader(format!(
                "bad magic number 0x{magic:08x}"
            )));
        }
        let num_cost_types = r.get_u32();
        let num_nodes = r.get_u32();
        let num_edges = r.get_u32();
        let num_facilities = r.get_u32();
        let mut trees = [StaticBTree {
            root: PageId::new(0),
            num_pages: 0,
            num_entries: 0,
        }; 3];
        for tree in &mut trees {
            tree.root = PageId::new(r.get_u32());
            tree.num_pages = r.get_u32();
            tree.num_entries = r.get_u32();
        }
        let adjacency_file_pages = r.get_u32();
        let facility_file_pages = r.get_u32();
        let data_pages = r.get_u32();
        let meta = Self {
            num_cost_types,
            num_nodes,
            num_edges,
            num_facilities,
            adjacency_tree: trees[0],
            facility_tree: trees[1],
            edge_index: trees[2],
            adjacency_file_pages,
            facility_file_pages,
            data_pages,
        };
        meta.validate_shape()?;
        Ok(meta)
    }

    /// Rejects headers whose page accounting cannot describe a real store:
    /// the data files and index trees must fit inside `data_pages`, and any
    /// non-empty tree must root at a data page (page 0 is the header).
    fn validate_shape(&self) -> Result<(), StorageError> {
        let tree_pages = self.adjacency_tree.num_pages as u64
            + self.facility_tree.num_pages as u64
            + self.edge_index.num_pages as u64;
        let file_pages = self.adjacency_file_pages as u64 + self.facility_file_pages as u64;
        if tree_pages + file_pages > self.data_pages as u64 {
            return Err(StorageError::InvalidHeader(format!(
                "{file_pages} file pages + {tree_pages} tree pages exceed {} data pages",
                self.data_pages
            )));
        }
        for (label, tree) in [
            ("adjacency tree", &self.adjacency_tree),
            ("facility tree", &self.facility_tree),
            ("edge index", &self.edge_index),
        ] {
            if tree.num_entries > 0 && (tree.root.raw() == 0 || tree.root.raw() > self.data_pages) {
                return Err(StorageError::InvalidHeader(format!(
                    "{label} roots at {} outside the {} data pages",
                    tree.root, self.data_pages
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StorageMeta {
        StorageMeta {
            num_cost_types: 4,
            num_nodes: 1000,
            num_edges: 1500,
            num_facilities: 200,
            adjacency_tree: StaticBTree {
                root: PageId::new(10),
                num_pages: 5,
                num_entries: 1000,
            },
            facility_tree: StaticBTree {
                root: PageId::new(20),
                num_pages: 2,
                num_entries: 200,
            },
            edge_index: StaticBTree {
                root: PageId::new(30),
                num_pages: 7,
                num_entries: 1500,
            },
            adjacency_file_pages: 40,
            facility_file_pages: 3,
            data_pages: 57,
        }
    }

    #[test]
    fn header_roundtrip() {
        let meta = sample();
        let page = meta.encode();
        let decoded = StorageMeta::decode(&page).unwrap();
        assert_eq!(decoded, meta);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let page = Page::zeroed();
        assert!(matches!(
            StorageMeta::decode(&page),
            Err(StorageError::InvalidHeader(_))
        ));
    }

    #[test]
    fn truncated_image_is_rejected_not_panicking() {
        let page = sample().encode();
        for cut in [0, 1, 4, HEADER_SIZE - 1] {
            assert_eq!(
                StorageMeta::decode_bytes(&page.bytes()[..cut]),
                Err(StorageError::TruncatedHeader {
                    required: HEADER_SIZE,
                    actual: cut,
                }),
                "cut at {cut} bytes"
            );
        }
        // Exactly the header length is fine even without page padding.
        assert_eq!(
            StorageMeta::decode_bytes(&page.bytes()[..HEADER_SIZE]).unwrap(),
            sample()
        );
    }

    #[test]
    fn wrong_endian_image_is_rejected() {
        // A writer with the opposite endianness would store every u32
        // byte-swapped; the magic check catches that before any field is
        // trusted.
        let page = sample().encode();
        let mut swapped = Page::zeroed();
        for (i, chunk) in page.bytes().chunks(4).enumerate() {
            let word = u32::from_le_bytes(chunk.try_into().unwrap()).swap_bytes();
            swapped.bytes_mut()[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        assert!(matches!(
            StorageMeta::decode(&swapped),
            Err(StorageError::InvalidHeader(msg)) if msg.contains("magic")
        ));
    }

    #[test]
    fn inconsistent_page_accounting_is_rejected() {
        // Files + trees claiming more pages than the store records.
        let mut meta = sample();
        meta.data_pages = 10;
        assert!(matches!(
            StorageMeta::decode(&meta.encode()),
            Err(StorageError::InvalidHeader(msg)) if msg.contains("data pages")
        ));

        // A non-empty tree rooted at the header page (or past the end).
        let mut meta = sample();
        meta.adjacency_tree.root = PageId::new(0);
        assert!(matches!(
            StorageMeta::decode(&meta.encode()),
            Err(StorageError::InvalidHeader(msg)) if msg.contains("roots")
        ));
        let mut meta = sample();
        meta.edge_index.root = PageId::new(meta.data_pages + 1);
        assert!(matches!(
            StorageMeta::decode(&meta.encode()),
            Err(StorageError::InvalidHeader(_))
        ));
    }
}
