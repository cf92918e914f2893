//! The read API of a disk-resident multi-cost network.

use crate::btree::{unpack_u32_f64, unpack_u32_u16, unpack_u32_u32_u8};
use crate::buffer::BufferPool;
use crate::builder::build_store;
use crate::disk::{DiskManager, InMemoryDisk};
use crate::error::StorageError;
use crate::meta::StorageMeta;
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::records::{
    decode_adjacency_record, decode_facility_entry, AdjacencyEntry, AdjacencyList, FacilityRun,
    FACILITY_ENTRY_SIZE,
};
use crate::stats::IoStats;
use mcn_graph::{EdgeId, FacilityId, MultiCostGraph, NodeId};
use std::sync::Arc;

/// How large the LRU buffer pool should be.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BufferConfig {
    /// A fixed number of pages.
    Pages(usize),
    /// A fraction of the store's data pages — the paper's 0 %–2 % parameter.
    Fraction(f64),
}

impl BufferConfig {
    /// Resolves the configuration into a page count for a store with
    /// `data_pages` data pages.
    pub fn resolve(&self, data_pages: usize) -> usize {
        match *self {
            BufferConfig::Pages(n) => n,
            BufferConfig::Fraction(f) => {
                assert!(
                    (0.0..=1.0).contains(&f),
                    "buffer fraction must be in [0, 1]"
                );
                (data_pages as f64 * f).round() as usize
            }
        }
    }
}

/// Handle to a disk-resident MCN: the buffer pool plus the header metadata.
///
/// All read methods go through the LRU buffer pool, so every access is
/// reflected in [`MCNStore::io_stats`]. The store is read-only once built;
/// it is `Send + Sync` and can be shared across threads behind an `Arc`.
pub struct MCNStore {
    pool: BufferPool,
    meta: StorageMeta,
}

const _: () = crate::assert_send_sync::<MCNStore>();

/// Basic information about a facility obtained from the facility tree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FacilityInfo {
    /// The edge the facility lies on.
    pub edge: EdgeId,
    /// Fraction of the way from the edge's source to its target.
    pub position: f64,
}

/// End-point information about an edge obtained from the edge index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeEndpoints {
    /// First end-node.
    pub source: NodeId,
    /// Second end-node.
    pub target: NodeId,
    /// Whether the edge is directed (source → target only).
    pub directed: bool,
}

impl MCNStore {
    /// Builds a store for `graph` on the given disk and wraps it with a buffer
    /// pool of the requested size.
    pub fn build_on(
        graph: &MultiCostGraph,
        disk: Arc<dyn DiskManager>,
        buffer: BufferConfig,
    ) -> Result<Self, StorageError> {
        let meta = build_store(graph, disk.as_ref())?;
        let capacity = buffer.resolve(meta.data_pages as usize);
        Ok(Self {
            pool: BufferPool::new(disk, capacity),
            meta,
        })
    }

    /// Like [`MCNStore::build_on`], but pins the buffer pool's shard count
    /// (see `BufferPool::with_shards`). The pinned count survives every
    /// later [`MCNStore::set_buffer`] call; `shards == 1` gives the strict
    /// global-LRU order of an unsharded pool.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn build_on_with_shards(
        graph: &MultiCostGraph,
        disk: Arc<dyn DiskManager>,
        buffer: BufferConfig,
        shards: usize,
    ) -> Result<Self, StorageError> {
        let meta = build_store(graph, disk.as_ref())?;
        let capacity = buffer.resolve(meta.data_pages as usize);
        Ok(Self {
            pool: BufferPool::with_shards(disk, capacity, shards),
            meta,
        })
    }

    /// Builds a store for `graph` on a fresh in-memory disk — the default
    /// substrate for experiments.
    pub fn build_in_memory(
        graph: &MultiCostGraph,
        buffer: BufferConfig,
    ) -> Result<Self, StorageError> {
        Self::build_on(graph, Arc::new(InMemoryDisk::new()), buffer)
    }

    /// Opens an already-built store by reading the header from page 0.
    pub fn open(disk: Arc<dyn DiskManager>, buffer: BufferConfig) -> Result<Self, StorageError> {
        let mut page = Page::zeroed();
        disk.read_page(PageId::new(0), &mut page);
        let meta = StorageMeta::decode(&page)?;
        let capacity = buffer.resolve(meta.data_pages as usize);
        Ok(Self {
            pool: BufferPool::new(disk, capacity),
            meta,
        })
    }

    /// The store header.
    pub fn meta(&self) -> &StorageMeta {
        &self.meta
    }

    /// Number of cost types `d`.
    pub fn num_cost_types(&self) -> usize {
        self.meta.num_cost_types as usize
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.meta.num_nodes as usize
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.meta.num_edges as usize
    }

    /// Number of facilities.
    pub fn num_facilities(&self) -> usize {
        self.meta.num_facilities as usize
    }

    /// Number of pages occupied by MCN data (the basis for percentage-sized
    /// buffers).
    pub fn data_pages(&self) -> usize {
        self.meta.data_pages as usize
    }

    /// The buffer pool (e.g. to clear it between queries).
    pub fn buffer(&self) -> &BufferPool {
        &self.pool
    }

    /// Changes the buffer capacity (clears the cache, carries the hit/miss
    /// counters over). A shard count pinned at construction
    /// ([`MCNStore::build_on_with_shards`]) is preserved across the rebuild —
    /// it is **not** silently reset to the capacity-derived default; an
    /// unpinned pool re-derives its count from the new capacity as it always
    /// has.
    pub fn set_buffer(&self, buffer: BufferConfig) {
        self.pool
            .set_capacity(buffer.resolve(self.meta.data_pages as usize));
    }

    /// Snapshot of the I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Reads the adjacency record of `node`: one lookup in the adjacency tree
    /// followed by one data-page access.
    ///
    /// # Panics
    /// Panics if the node does not exist in the store.
    pub fn adjacency(&self, node: NodeId) -> AdjacencyList {
        let mut entries = Vec::new();
        self.adjacency_into(node, &mut entries);
        AdjacencyList { node, entries }
    }

    /// [`MCNStore::adjacency`] into a buffer the caller keeps: the entries of
    /// `node`'s record are appended to `out`, decoded straight from the page.
    ///
    /// # Panics
    /// Panics if the node does not exist in the store.
    pub fn adjacency_into(&self, node: NodeId, out: &mut Vec<AdjacencyEntry>) {
        let value = self
            .meta
            .adjacency_tree
            .lookup(&self.pool, node.raw())
            .unwrap_or_else(|| panic!("node {node} not present in the adjacency tree"));
        let (page, offset) = unpack_u32_u16(&value);
        let d = self.num_cost_types();
        self.pool.with_page(PageId::new(page), |bytes| {
            decode_adjacency_record(bytes, offset as usize, d, out)
        })
    }

    /// Reads the facilities of a [`FacilityRun`] (as referenced from an
    /// adjacency entry), returning `(facility, position)` pairs. The run is
    /// handed over by value: `DirectAccess` passes it on and `SharedAccess`
    /// keeps it for the rest of the query.
    pub fn facilities_in_run(&self, run: &FacilityRun) -> Vec<(FacilityId, f64)> {
        let mut out = Vec::with_capacity(run.count as usize);
        let mut page = run.start.page;
        let mut offset = run.start.offset as usize;
        let mut remaining = run.count as usize;
        while remaining > 0 {
            let fit = (PAGE_SIZE - offset) / FACILITY_ENTRY_SIZE;
            let take = fit.min(remaining);
            if take > 0 {
                self.pool.with_page(page, |bytes| {
                    for i in 0..take {
                        out.push(decode_facility_entry(
                            bytes,
                            offset + i * FACILITY_ENTRY_SIZE,
                        ));
                    }
                });
                remaining -= take;
            }
            // Runs continue on the next physically consecutive facility page.
            page = PageId::new(page.raw() + 1);
            offset = 0;
        }
        out
    }

    /// Looks up a facility in the facility tree.
    pub fn facility_info(&self, facility: FacilityId) -> Option<FacilityInfo> {
        if self.meta.facility_tree.num_entries == 0 {
            return None;
        }
        let value = self.meta.facility_tree.lookup(&self.pool, facility.raw())?;
        let (edge, position) = unpack_u32_f64(&value);
        Some(FacilityInfo {
            edge: EdgeId::new(edge),
            position,
        })
    }

    /// Looks up an edge's end-nodes in the edge index.
    pub fn edge_endpoints(&self, edge: EdgeId) -> Option<EdgeEndpoints> {
        if self.meta.edge_index.num_entries == 0 {
            return None;
        }
        let value = self.meta.edge_index.lookup(&self.pool, edge.raw())?;
        let (source, target, flags) = unpack_u32_u32_u8(&value);
        Some(EdgeEndpoints {
            source: NodeId::new(source),
            target: NodeId::new(target),
            directed: flags != 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_graph::{CostVec, GraphBuilder};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Builds a random connected graph with facilities for round-trip testing.
    fn random_graph(
        seed: u64,
        nodes: usize,
        extra_edges: usize,
        facilities: usize,
    ) -> MultiCostGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let d = 4;
        let mut b = GraphBuilder::new(d);
        let ids: Vec<_> = (0..nodes)
            .map(|i| b.add_node(i as f64, rng.gen_range(0.0..100.0)))
            .collect();
        let mut edges = Vec::new();
        // Spanning chain keeps the graph connected.
        for w in ids.windows(2) {
            let costs: Vec<f64> = (0..d).map(|_| rng.gen_range(0.1..10.0)).collect();
            edges.push(b.add_edge(w[0], w[1], CostVec::from_slice(&costs)).unwrap());
        }
        for _ in 0..extra_edges {
            let a = ids[rng.gen_range(0..nodes)];
            let c = ids[rng.gen_range(0..nodes)];
            if a == c {
                continue;
            }
            let costs: Vec<f64> = (0..d).map(|_| rng.gen_range(0.1..10.0)).collect();
            edges.push(b.add_edge(a, c, CostVec::from_slice(&costs)).unwrap());
        }
        for _ in 0..facilities {
            let e = edges[rng.gen_range(0..edges.len())];
            b.add_facility(e, rng.gen_range(0.0..=1.0)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn adjacency_round_trips_through_disk() {
        let g = random_graph(1, 300, 200, 150);
        let store = MCNStore::build_in_memory(&g, BufferConfig::Pages(64)).unwrap();
        for node in g.nodes() {
            let adj = store.adjacency(node.id);
            assert_eq!(adj.node, node.id);
            assert_eq!(adj.entries.len(), g.incident_edges(node.id).len());
            for entry in &adj.entries {
                let e = g.edge(entry.edge);
                assert_eq!(entry.neighbor, e.opposite(node.id));
                assert_eq!(entry.costs.as_slice(), e.costs.as_slice());
                assert_eq!(entry.traversable, e.traversable_from(node.id));
                let on_edge = g.facilities_on_edge(entry.edge);
                match entry.facilities {
                    Some(run) => assert_eq!(run.count as usize, on_edge.len()),
                    None => assert!(on_edge.is_empty()),
                }
            }
        }
    }

    #[test]
    fn facility_runs_round_trip() {
        let g = random_graph(2, 100, 80, 400);
        let store = MCNStore::build_in_memory(&g, BufferConfig::Pages(32)).unwrap();
        for node in g.nodes() {
            for entry in store.adjacency(node.id).entries {
                if let Some(run) = entry.facilities {
                    let got = store.facilities_in_run(&run);
                    let expected = g.facilities_on_edge(entry.edge);
                    assert_eq!(got.len(), expected.len());
                    for ((fid, pos), &exp) in got.iter().zip(expected) {
                        assert_eq!(*fid, exp);
                        assert!((pos - g.facility(exp).position).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn facility_tree_and_edge_index_lookups() {
        let g = random_graph(3, 120, 60, 200);
        let store = MCNStore::build_in_memory(&g, BufferConfig::Pages(32)).unwrap();
        for f in g.facilities() {
            let info = store.facility_info(f.id).unwrap();
            assert_eq!(info.edge, f.edge);
            assert!((info.position - f.position).abs() < 1e-12);
        }
        for e in g.edges() {
            let ends = store.edge_endpoints(e.id).unwrap();
            assert_eq!(ends.source, e.source);
            assert_eq!(ends.target, e.target);
            assert_eq!(ends.directed, e.directed);
        }
        assert!(store.facility_info(FacilityId::new(99_999)).is_none());
        assert!(store.edge_endpoints(EdgeId::new(99_999)).is_none());
    }

    #[test]
    fn io_stats_reflect_buffer_behaviour() {
        let g = random_graph(4, 500, 300, 100);
        let store = MCNStore::build_in_memory(&g, BufferConfig::Pages(256)).unwrap();
        store.buffer().clear();
        let before = store.io_stats();
        let _ = store.adjacency(NodeId::new(0));
        let after = store.io_stats();
        assert!(after.logical_reads > before.logical_reads);
        // Repeating the same access should be pure buffer hits.
        let _ = store.adjacency(NodeId::new(0));
        let again = store.io_stats();
        assert_eq!(again.buffer_misses, after.buffer_misses);
        assert!(again.buffer_hits > after.buffer_hits);
    }

    #[test]
    fn open_reads_header_from_disk() {
        let g = random_graph(5, 50, 20, 30);
        let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new());
        let built = MCNStore::build_on(&g, disk.clone(), BufferConfig::Pages(8)).unwrap();
        let reopened = MCNStore::open(disk, BufferConfig::Fraction(0.01)).unwrap();
        assert_eq!(reopened.meta(), built.meta());
        assert_eq!(reopened.num_nodes(), 50);
        // A 1 % buffer over a small store resolves to at least zero pages and
        // still answers queries correctly.
        let adj = reopened.adjacency(NodeId::new(10));
        assert_eq!(adj.entries.len(), g.incident_edges(NodeId::new(10)).len());
    }

    #[test]
    fn pinned_shards_survive_set_buffer() {
        // The satellite contract: reconfiguring the buffer through the store
        // must not silently drop a shard count pinned at construction.
        let g = random_graph(6, 200, 100, 80);
        let disk = Arc::new(InMemoryDisk::new());
        let store = MCNStore::build_on_with_shards(&g, disk, BufferConfig::Pages(64), 1).unwrap();
        assert_eq!(store.buffer().shard_count(), 1);
        // The capacity-derived default for 64 pages would be 8 shards …
        store.set_buffer(BufferConfig::Pages(64));
        assert_eq!(store.buffer().shard_count(), 1);
        // … and stays pinned across fractional reconfigurations too.
        store.set_buffer(BufferConfig::Fraction(0.5));
        assert_eq!(store.buffer().shard_count(), 1);
        assert!(store.buffer().capacity() > 0);
        // An unpinned store re-derives the count from the new capacity.
        let unpinned = MCNStore::build_in_memory(&g, BufferConfig::Pages(4)).unwrap();
        assert_eq!(unpinned.buffer().shard_count(), 1);
        unpinned.set_buffer(BufferConfig::Pages(64));
        assert_eq!(unpinned.buffer().shard_count(), 8);
        // Queries still answer correctly after the rebuilds.
        let adj = store.adjacency(NodeId::new(5));
        assert_eq!(adj.entries.len(), g.incident_edges(NodeId::new(5)).len());
    }

    #[test]
    fn buffer_config_resolution() {
        assert_eq!(BufferConfig::Pages(7).resolve(1000), 7);
        assert_eq!(BufferConfig::Fraction(0.01).resolve(1000), 10);
        assert_eq!(BufferConfig::Fraction(0.0).resolve(1000), 0);
        assert_eq!(BufferConfig::Fraction(0.02).resolve(12345), 247);
    }

    #[test]
    fn graph_without_facilities_has_empty_lookups() {
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        b.add_edge(a, c, CostVec::from_slice(&[1.0, 2.0])).unwrap();
        let g = b.build().unwrap();
        let store = MCNStore::build_in_memory(&g, BufferConfig::Pages(4)).unwrap();
        assert!(store.facility_info(FacilityId::new(0)).is_none());
        let adj = store.adjacency(a);
        assert_eq!(adj.entries.len(), 1);
        assert!(adj.entries[0].facilities.is_none());
    }
}
