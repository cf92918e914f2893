//! `StoreView`: the read API shared by every store shape.
//!
//! The expansion / query layers only ever *read* a network: adjacency
//! records, facility runs, the two id indexes, and I/O counters. This trait
//! captures exactly that surface so the whole query stack — LSA, CEA, top-k,
//! the multi-query engine — runs unchanged (and byte-identically) over
//! either a monolithic [`MCNStore`] or a region-sharded
//! [`PartitionedStore`](crate::partitioned::PartitionedStore).
//!
//! The generic layers take `S: StoreView + ?Sized` with `MCNStore` as the
//! default type parameter, so existing `Arc<MCNStore>` call sites compile
//! unchanged while `Arc<PartitionedStore>` (or a trait object) slots in
//! transparently.

use crate::records::{AdjacencyEntry, AdjacencyList, FacilityRun};
use crate::stats::IoStats;
use crate::store::{BufferConfig, EdgeEndpoints, FacilityInfo, MCNStore};
use mcn_graph::{EdgeId, FacilityId, NodeId};

/// Read interface of a disk-resident multi-cost network, buffer management
/// included. All implementations are immutable network views: two stores
/// built from the same graph return identical records, whatever their page
/// layout, which is what makes query results independent of partitioning.
pub trait StoreView: Send + Sync + 'static {
    /// Number of cost types `d`.
    fn num_cost_types(&self) -> usize;

    /// Number of nodes of the whole network.
    fn num_nodes(&self) -> usize;

    /// Number of edges of the whole network.
    fn num_edges(&self) -> usize;

    /// Number of facilities of the whole network.
    fn num_facilities(&self) -> usize;

    /// Pages occupied by MCN data (summed over shards for a partitioned
    /// store) — the basis for percentage-sized buffers.
    fn data_pages(&self) -> usize;

    /// Reads the adjacency record of `node`.
    ///
    /// # Panics
    /// Panics if the node does not exist in the store.
    fn adjacency(&self, node: NodeId) -> AdjacencyList;

    /// [`StoreView::adjacency`] into a buffer the caller keeps: appends the
    /// entries of `node`'s record to `out` (which is not cleared). The
    /// expansion layer reads every record this way, so a store that can
    /// decode straight from its page into `out` overrides this and the read
    /// allocates nothing; the default goes through [`StoreView::adjacency`].
    ///
    /// # Panics
    /// Panics if the node does not exist in the store.
    fn adjacency_into(&self, node: NodeId, out: &mut Vec<AdjacencyEntry>) {
        out.append(&mut self.adjacency(node).entries);
    }

    /// Reads the facilities of a run referenced from an adjacency entry
    /// returned by [`StoreView::adjacency`] **of the same store view** (a
    /// partitioned store hands out globally rebased run pointers that only
    /// it can resolve).
    fn facilities_in_run(&self, run: &FacilityRun) -> Vec<(FacilityId, f64)>;

    /// Facility-tree lookup.
    fn facility_info(&self, facility: FacilityId) -> Option<FacilityInfo>;

    /// Edge-index lookup.
    fn edge_endpoints(&self, edge: EdgeId) -> Option<EdgeEndpoints>;

    /// Snapshot of the I/O counters (aggregated over shards).
    fn io_stats(&self) -> IoStats;

    /// Publish the current I/O counters into a metrics registry
    /// (absolute values; see [`IoStats::publish`] for the reconciliation
    /// guarantees). A partitioned store additionally publishes per-region
    /// counters and home/cross traffic.
    fn publish_metrics(&self, registry: &mcn_obs::MetricsRegistry) {
        self.io_stats().publish(registry, &[]);
    }

    /// Empties every buffer pool and resets its hit/miss counters.
    fn clear_buffers(&self);

    /// Reconfigures the buffer capacity (applied per shard for a partitioned
    /// store; clears the cached pages).
    fn set_buffer(&self, buffer: BufferConfig);
}

impl StoreView for MCNStore {
    fn num_cost_types(&self) -> usize {
        MCNStore::num_cost_types(self)
    }

    fn num_nodes(&self) -> usize {
        MCNStore::num_nodes(self)
    }

    fn num_edges(&self) -> usize {
        MCNStore::num_edges(self)
    }

    fn num_facilities(&self) -> usize {
        MCNStore::num_facilities(self)
    }

    fn data_pages(&self) -> usize {
        MCNStore::data_pages(self)
    }

    fn adjacency(&self, node: NodeId) -> AdjacencyList {
        MCNStore::adjacency(self, node)
    }

    fn adjacency_into(&self, node: NodeId, out: &mut Vec<AdjacencyEntry>) {
        MCNStore::adjacency_into(self, node, out);
    }

    fn facilities_in_run(&self, run: &FacilityRun) -> Vec<(FacilityId, f64)> {
        MCNStore::facilities_in_run(self, run)
    }

    fn facility_info(&self, facility: FacilityId) -> Option<FacilityInfo> {
        MCNStore::facility_info(self, facility)
    }

    fn edge_endpoints(&self, edge: EdgeId) -> Option<EdgeEndpoints> {
        MCNStore::edge_endpoints(self, edge)
    }

    fn io_stats(&self) -> IoStats {
        MCNStore::io_stats(self)
    }

    fn clear_buffers(&self) {
        self.buffer().clear();
    }

    fn set_buffer(&self, buffer: BufferConfig) {
        MCNStore::set_buffer(self, buffer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_graph::{CostVec, GraphBuilder};
    use std::sync::Arc;

    const fn assert_object_safe(_: &dyn StoreView) {}

    /// A view that, like a decorator written before `adjacency_into`
    /// existed, implements only the required methods.
    struct RequiredOnly(MCNStore);

    impl StoreView for RequiredOnly {
        fn num_cost_types(&self) -> usize {
            self.0.num_cost_types()
        }
        fn num_nodes(&self) -> usize {
            self.0.num_nodes()
        }
        fn num_edges(&self) -> usize {
            self.0.num_edges()
        }
        fn num_facilities(&self) -> usize {
            self.0.num_facilities()
        }
        fn data_pages(&self) -> usize {
            self.0.data_pages()
        }
        fn adjacency(&self, node: NodeId) -> AdjacencyList {
            self.0.adjacency(node)
        }
        fn facilities_in_run(&self, run: &FacilityRun) -> Vec<(FacilityId, f64)> {
            self.0.facilities_in_run(run)
        }
        fn facility_info(&self, facility: FacilityId) -> Option<FacilityInfo> {
            self.0.facility_info(facility)
        }
        fn edge_endpoints(&self, edge: EdgeId) -> Option<EdgeEndpoints> {
            self.0.edge_endpoints(edge)
        }
        fn io_stats(&self) -> IoStats {
            self.0.io_stats()
        }
        fn clear_buffers(&self) {
            self.0.buffer().clear();
        }
        fn set_buffer(&self, buffer: BufferConfig) {
            self.0.set_buffer(buffer);
        }
    }

    #[test]
    fn the_provided_adjacency_into_goes_through_adjacency() {
        let mut b = GraphBuilder::new(3);
        let n: Vec<_> = (0..5).map(|i| b.add_node(i as f64, 0.0)).collect();
        for (i, w) in n.windows(2).enumerate() {
            let e = b
                .add_edge(w[0], w[1], CostVec::from_slice(&[1.0, 2.0, i as f64]))
                .unwrap();
            b.add_facility(e, 0.25).unwrap();
        }
        b.add_edge(n[0], n[3], CostVec::from_slice(&[4.0, 4.0, 4.0]))
            .unwrap();
        let g = b.build().unwrap();
        let view = RequiredOnly(MCNStore::build_in_memory(&g, BufferConfig::Pages(8)).unwrap());
        let mut gathered = Vec::new();
        for &node in &n {
            let before = view.io_stats().logical_reads;
            let held = gathered.len();
            view.adjacency_into(node, &mut gathered);
            let reads = view.io_stats().logical_reads - before;
            // Same entries, behind what the buffer held, for the same reads
            // as the store's own (overriding) form.
            assert_eq!(gathered[held..], view.0.adjacency(node).entries[..]);
            let before = view.io_stats().logical_reads;
            let mut direct = Vec::new();
            view.0.adjacency_into(node, &mut direct);
            assert_eq!(view.io_stats().logical_reads - before, reads);
            assert_eq!(direct[..], gathered[held..]);
        }
        assert_eq!(gathered.len(), 2 * g.num_edges());
    }

    #[test]
    fn mcn_store_implements_the_view() {
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        let e = b.add_edge(a, c, CostVec::from_slice(&[1.0, 2.0])).unwrap();
        b.add_facility(e, 0.5).unwrap();
        let g = b.build().unwrap();
        let store = MCNStore::build_in_memory(&g, BufferConfig::Pages(4)).unwrap();
        // Trait and inherent methods agree.
        assert_eq!(StoreView::num_cost_types(&store), store.num_cost_types());
        assert_eq!(StoreView::num_nodes(&store), 2);
        let adj = StoreView::adjacency(&store, a);
        assert_eq!(adj.entries.len(), 1);
        let run = adj.entries[0].facilities.unwrap();
        assert_eq!(StoreView::facilities_in_run(&store, &run).len(), 1);
        assert!(StoreView::facility_info(&store, FacilityId::new(0)).is_some());
        assert!(StoreView::edge_endpoints(&store, EdgeId::new(0)).is_some());
        StoreView::clear_buffers(&store);
        assert_eq!(StoreView::io_stats(&store).buffer_hits, 0);
        // The buffer-filling form appends the same entries.
        let mut into = adj.entries.clone();
        StoreView::adjacency_into(&store, c, &mut into);
        assert_eq!(into[..1], adj.entries[..]);
        assert_eq!(into[1..], StoreView::adjacency(&store, c).entries[..]);
        // The trait is object safe: `Arc<dyn StoreView>` is a valid handle.
        let dynamic: Arc<dyn StoreView> = Arc::new(store);
        assert_object_safe(dynamic.as_ref());
        assert_eq!(dynamic.num_edges(), 1);
    }
}
