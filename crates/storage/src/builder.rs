//! Building the disk-resident store from an in-memory graph.

use crate::btree::{pack_u32_f64, pack_u32_u16, pack_u32_u32_u8, StaticBTree, Value};
use crate::disk::DiskManager;
use crate::error::StorageError;
use crate::meta::StorageMeta;
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::records::{
    adjacency_record_size, encode_adjacency_record, encode_facility_entry, AdjacencyEntry,
    FacilityRun, RecordPtr, FACILITY_ENTRY_SIZE,
};
use mcn_graph::{MultiCostGraph, NodeId};

/// A sequential page writer used while laying out the data files.
struct PageCursor {
    /// The id the page under construction gets when it is appended. The
    /// build is its disk's only allocator, so that is simply the next one.
    id: PageId,
    page: Page,
    offset: usize,
    pages_written: u32,
}

impl PageCursor {
    fn new(disk: &dyn DiskManager) -> Self {
        Self {
            id: next_page_id(disk),
            page: Page::zeroed(),
            offset: 0,
            pages_written: 0,
        }
    }

    /// Appends the page under construction to the disk.
    fn flush(&mut self, disk: &dyn DiskManager) {
        let id = disk.append_page(&self.page);
        assert_eq!(
            id, self.id,
            "a store build must be its disk's only allocator"
        );
        self.pages_written += 1;
    }

    /// Flushes the current page and starts a new one.
    fn advance(&mut self, disk: &dyn DiskManager) {
        self.flush(disk);
        self.id = next_page_id(disk);
        self.page.bytes_mut().fill(0);
        self.offset = 0;
    }

    /// Makes sure at least `size` contiguous bytes are available on the current
    /// page, advancing to a fresh page if necessary.
    fn ensure_space(&mut self, disk: &dyn DiskManager, size: usize) {
        debug_assert!(size <= PAGE_SIZE);
        if PAGE_SIZE - self.offset < size {
            self.advance(disk);
        }
    }

    /// Current write position.
    fn ptr(&self) -> RecordPtr {
        RecordPtr {
            page: self.id,
            offset: self.offset as u16,
        }
    }

    /// Flushes the final, partially filled page.
    fn finish(mut self, disk: &dyn DiskManager) -> u32 {
        self.flush(disk);
        self.pages_written
    }
}

/// The id the next page allocated on `disk` will get.
fn next_page_id(disk: &dyn DiskManager) -> PageId {
    PageId::new(disk.num_pages() as u32)
}

/// Lays out `graph` on `disk` following the paper's storage scheme (Figure 2)
/// and returns the resulting header, which is also persisted to page 0.
///
/// Layout order: header page, facility file, adjacency file, adjacency tree,
/// facility tree, edge index. Facility runs of a single edge may span
/// consecutive facility-file pages; adjacency records never span pages.
///
/// # Errors
/// Fails if a node's adjacency record exceeds one page
/// ([`StorageError::RecordTooLarge`]).
pub fn build_store(
    graph: &MultiCostGraph,
    disk: &dyn DiskManager,
) -> Result<StorageMeta, StorageError> {
    build_region_store(graph, disk, &|_| true)
}

/// Lays out the region of `graph` selected by `owned` on `disk`: the same
/// scheme as [`build_store`], restricted to the adjacency records of the
/// owned nodes (this is what one shard of a
/// [`crate::partitioned::PartitionedStore`] holds).
///
/// * The **facility file** covers every edge incident to at least one owned
///   node, so each region resolves the facility runs its own adjacency
///   records reference without leaving the shard. Facilities of boundary
///   edges are therefore replicated in both incident regions.
/// * The **adjacency tree** is keyed by global node ids but holds entries
///   only for owned nodes ([`StaticBTree`] supports sparse sorted keys).
/// * The **facility tree** and **edge index** are replicated in full: they
///   are global id → metadata maps, small next to the data files, and
///   replication lets every lookup stay in the querying region's shard.
/// * The header counts (`num_nodes`, `num_edges`, `num_facilities`) describe
///   the **whole network**, not the shard; per-shard entry counts live in
///   the tree handles.
///
/// `build_store` is exactly this function with every node owned.
///
/// # Errors
/// Fails if an owned node's adjacency record exceeds one page
/// ([`StorageError::RecordTooLarge`]).
pub fn build_region_store(
    graph: &MultiCostGraph,
    disk: &dyn DiskManager,
    owned: &dyn Fn(NodeId) -> bool,
) -> Result<StorageMeta, StorageError> {
    let d = graph.num_cost_types();
    let header_id = disk.allocate_page();
    debug_assert_eq!(header_id, PageId::new(0), "header must be the first page");

    // ---- Facility file -----------------------------------------------------
    let mut edge_runs: Vec<Option<FacilityRun>> = vec![None; graph.num_edges()];
    let mut facility_file_pages = 0u32;
    if graph.num_facilities() > 0 {
        let mut cursor = PageCursor::new(disk);
        for edge in graph.edges() {
            if !owned(edge.source) && !owned(edge.target) {
                continue;
            }
            let fids = graph.facilities_on_edge(edge.id);
            if fids.is_empty() {
                continue;
            }
            cursor.ensure_space(disk, FACILITY_ENTRY_SIZE);
            let start = cursor.ptr();
            for &fid in fids {
                cursor.ensure_space(disk, FACILITY_ENTRY_SIZE);
                let fac = graph.facility(fid);
                encode_facility_entry(
                    &mut cursor.page.bytes_mut()[cursor.offset..],
                    fid,
                    fac.position,
                );
                cursor.offset += FACILITY_ENTRY_SIZE;
            }
            edge_runs[edge.id.index()] = Some(FacilityRun {
                start,
                count: fids.len() as u16,
            });
        }
        facility_file_pages = cursor.finish(disk);
    }

    // ---- Adjacency file ----------------------------------------------------
    let mut node_ptrs: Vec<(u32, RecordPtr)> = Vec::with_capacity(graph.num_nodes());
    let mut cursor = PageCursor::new(disk);
    // One buffer for every node's record: a Vec per node is 5 000
    // allocations on the `alpha_serve` graph, a tenth of its set-up time.
    let mut entries: Vec<AdjacencyEntry> = Vec::new();
    for node in graph.nodes() {
        if !owned(node.id) {
            continue;
        }
        let incident = graph.incident_edges(node.id);
        let size = adjacency_record_size(incident.len(), d);
        if size > PAGE_SIZE {
            return Err(StorageError::RecordTooLarge {
                node: node.id,
                required: size,
                maximum: PAGE_SIZE,
            });
        }
        cursor.ensure_space(disk, size);
        entries.clear();
        entries.extend(incident.iter().map(|&eid| {
            let e = graph.edge(eid);
            AdjacencyEntry {
                neighbor: e.opposite(node.id),
                edge: eid,
                traversable: e.traversable_from(node.id),
                costs: e.costs,
                facilities: edge_runs[eid.index()],
            }
        }));
        node_ptrs.push((node.id.raw(), cursor.ptr()));
        encode_adjacency_record(&mut cursor.page.bytes_mut()[cursor.offset..], &entries);
        cursor.offset += size;
    }
    let adjacency_file_pages = cursor.finish(disk);

    // ---- Index trees -------------------------------------------------------
    // `graph.nodes()` iterates in id order, so the (possibly sparse) keys are
    // already strictly sorted as bulk loading requires.
    let adjacency_entries: Vec<(u32, Value)> = node_ptrs
        .iter()
        .map(|(id, ptr)| (*id, pack_u32_u16(ptr.page.raw(), ptr.offset)))
        .collect();
    let adjacency_tree = bulk_load_or_empty(disk, &adjacency_entries);

    let facility_entries: Vec<(u32, Value)> = graph
        .facilities()
        .map(|f| (f.id.raw(), pack_u32_f64(f.edge.raw(), f.position)))
        .collect();
    let facility_tree = bulk_load_or_empty(disk, &facility_entries);

    let edge_entries: Vec<(u32, Value)> = graph
        .edges()
        .map(|e| {
            (
                e.id.raw(),
                pack_u32_u32_u8(e.source.raw(), e.target.raw(), e.directed as u8),
            )
        })
        .collect();
    let edge_index = bulk_load_or_empty(disk, &edge_entries);

    if disk.num_pages() > u32::MAX as usize {
        return Err(StorageError::TooManyPages);
    }

    // ---- Header ------------------------------------------------------------
    let meta = StorageMeta {
        num_cost_types: d as u32,
        num_nodes: graph.num_nodes() as u32,
        num_edges: graph.num_edges() as u32,
        num_facilities: graph.num_facilities() as u32,
        adjacency_tree,
        facility_tree,
        edge_index,
        adjacency_file_pages,
        facility_file_pages,
        data_pages: (disk.num_pages() - 1) as u32,
    };
    disk.write_page(header_id, &meta.encode());
    Ok(meta)
}

/// Bulk loads a tree, or returns an empty handle if there are no entries.
fn bulk_load_or_empty(disk: &dyn DiskManager, entries: &[(u32, Value)]) -> StaticBTree {
    if entries.is_empty() {
        StaticBTree {
            root: PageId::new(0),
            num_pages: 0,
            num_entries: 0,
        }
    } else {
        StaticBTree::bulk_load(disk, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::InMemoryDisk;
    use mcn_graph::{CostVec, GraphBuilder};

    fn small_graph() -> MultiCostGraph {
        let mut b = GraphBuilder::new(3);
        let nodes: Vec<_> = (0..5).map(|i| b.add_node(i as f64, 0.0)).collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1], CostVec::from_slice(&[1.0, 2.0, 3.0]))
                .unwrap();
        }
        let e = b
            .add_edge(nodes[0], nodes[4], CostVec::from_slice(&[9.0, 9.0, 9.0]))
            .unwrap();
        b.add_facility(e, 0.25).unwrap();
        b.add_facility(e, 0.75).unwrap();
        b.add_facility(mcn_graph::EdgeId::new(0), 0.5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn build_produces_consistent_header() {
        let g = small_graph();
        let disk = InMemoryDisk::new();
        let meta = build_store(&g, &disk).unwrap();
        assert_eq!(meta.num_cost_types, 3);
        assert_eq!(meta.num_nodes, 5);
        assert_eq!(meta.num_edges, 5);
        assert_eq!(meta.num_facilities, 3);
        assert_eq!(meta.data_pages as usize, disk.num_pages() - 1);
        assert!(meta.adjacency_file_pages >= 1);
        assert!(meta.facility_file_pages >= 1);
        // The header round-trips through page 0.
        let mut page = Page::zeroed();
        disk.read_page(PageId::new(0), &mut page);
        assert_eq!(StorageMeta::decode(&page).unwrap(), meta);
    }

    #[test]
    fn graph_without_facilities_builds() {
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        b.add_edge(a, c, CostVec::from_slice(&[1.0, 1.0])).unwrap();
        let g = b.build().unwrap();
        let disk = InMemoryDisk::new();
        let meta = build_store(&g, &disk).unwrap();
        assert_eq!(meta.num_facilities, 0);
        assert_eq!(meta.facility_tree.num_entries, 0);
        assert_eq!(meta.facility_file_pages, 0);
    }

    #[test]
    fn many_nodes_span_multiple_pages() {
        // A long chain: 2000 nodes → adjacency records spill over several pages.
        let mut b = GraphBuilder::new(4);
        let nodes: Vec<_> = (0..2000).map(|i| b.add_node(i as f64, 0.0)).collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1], CostVec::from_slice(&[1.0, 1.0, 1.0, 1.0]))
                .unwrap();
        }
        let g = b.build().unwrap();
        let disk = InMemoryDisk::new();
        let meta = build_store(&g, &disk).unwrap();
        assert!(meta.adjacency_file_pages > 1);
        assert!(meta.adjacency_tree.num_pages >= 1);
        assert_eq!(meta.adjacency_tree.num_entries, 2000);
    }
}
