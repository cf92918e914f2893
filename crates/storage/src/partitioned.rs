//! Region-partitioned storage: one shard (disk + buffer pool) per graph
//! region behind the shared [`StoreView`] read API.
//!
//! A [`PartitionedStore`] slices a network along a [`PartitionMap`] (see
//! `mcn_graph::partition`): each region gets its **own** [`MCNStore`] — own
//! [`DiskManager`], own pages, own LRU [`BufferPool`](crate::BufferPool) —
//! holding the adjacency records of its nodes, the facility runs of its
//! incident edges, and full replicas of the (small) facility tree and edge
//! index. A single huge network can thereby spread across disks, and
//! concurrent queries seeded in different regions touch disjoint pools.
//!
//! # Global page ids
//!
//! Adjacency records embed facility-run pointers whose page ids are local to
//! the shard that wrote them. The partitioned store translates between the
//! two spaces: every shard owns a disjoint slice `[base, base + pages)` of a
//! **global** page-id space, [`PartitionedStore::adjacency`] rebases run
//! pointers into it, and [`PartitionedStore::facilities_in_run`] routes a
//! global pointer back to `(shard, local page)`. Callers never see the
//! difference — which is exactly what lets LSA/CEA/top-k run unchanged.
//!
//! # Cross-region accounting
//!
//! A query expanding from its seed region eventually crosses a boundary
//! edge and reads a record owned by a neighbouring shard. Wrap query
//! execution in [`with_seed_region`] and the store counts every
//! adjacency/facility-run read as *home* or *cross*
//! ([`PartitionedStore::region_traffic`]) — the "cross-region page
//! fraction" reported by the `partition` experiment in `mcn-bench`.

use crate::builder::build_region_store;
use crate::disk::{DiskManager, InMemoryDisk};
use crate::error::StorageError;
use crate::page::PageId;
use crate::records::{AdjacencyEntry, AdjacencyList, FacilityRun};
use crate::stats::IoStats;
use crate::store::{BufferConfig, EdgeEndpoints, FacilityInfo, MCNStore};
use crate::view::StoreView;
use mcn_graph::{EdgeId, FacilityId, MultiCostGraph, NodeId, PartitionMap, RegionId};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// The region the query running on this thread was seeded in, if any.
    static SEED_REGION: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Restores the previous seed region when dropped (panic-safe).
struct SeedScope(Option<u32>);

impl Drop for SeedScope {
    fn drop(&mut self) {
        SEED_REGION.with(|c| c.set(self.0));
    }
}

/// Runs `f` with `region` recorded as the current thread's query seed
/// region, so a [`PartitionedStore`] can classify its reads as home or
/// cross-region. Scopes nest and restore on unwind; on a monolithic store
/// the tag is simply never read.
pub fn with_seed_region<R>(region: RegionId, f: impl FnOnce() -> R) -> R {
    let _scope = SeedScope(SEED_REGION.with(|c| c.replace(Some(region.raw()))));
    f()
}

/// The seed region recorded for the current thread, if inside a
/// [`with_seed_region`] scope.
pub fn current_seed_region() -> Option<RegionId> {
    SEED_REGION.with(|c| c.get().map(RegionId::new))
}

/// Home/cross read counters of a [`PartitionedStore`] (only reads performed
/// inside a [`with_seed_region`] scope are classified).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionTraffic {
    /// Adjacency/facility-run reads served by the querying thread's seed
    /// region.
    pub home_reads: u64,
    /// Reads that had to leave the seed region.
    pub cross_reads: u64,
}

impl RegionTraffic {
    /// Fraction of classified reads that crossed a region boundary.
    pub fn cross_fraction(&self) -> f64 {
        let total = self.home_reads + self.cross_reads;
        if total == 0 {
            0.0
        } else {
            self.cross_reads as f64 / total as f64
        }
    }
}

/// A network sharded by graph region: one [`MCNStore`] per region behind
/// the [`StoreView`] API, with cross-region reads resolved through the
/// partition map.
pub struct PartitionedStore {
    regions: Vec<MCNStore>,
    map: PartitionMap,
    /// Global page-id base of each region (prefix sums of per-shard page
    /// counts, header included), plus one trailing entry with the total.
    page_base: Vec<u32>,
    home_reads: AtomicU64,
    cross_reads: AtomicU64,
}

const _: () = crate::assert_send_sync::<PartitionedStore>();

impl PartitionedStore {
    /// Builds one region store per region of `map` on the supplied disks
    /// and wraps each with a buffer pool of the requested size (fractional
    /// configurations resolve against each shard's own data pages).
    ///
    /// # Errors
    /// Fails when the disk count does not match the region count, the map
    /// does not cover the graph, or any region build fails.
    pub fn build_on(
        graph: &MultiCostGraph,
        map: PartitionMap,
        disks: Vec<Arc<dyn DiskManager>>,
        buffer: BufferConfig,
    ) -> Result<Self, StorageError> {
        map.validate().map_err(StorageError::Partition)?;
        if map.num_nodes() != graph.num_nodes() {
            return Err(StorageError::Partition(format!(
                "partition covers {} nodes, graph has {}",
                map.num_nodes(),
                graph.num_nodes()
            )));
        }
        if disks.len() != map.num_regions() {
            return Err(StorageError::Partition(format!(
                "{} disks for {} regions",
                disks.len(),
                map.num_regions()
            )));
        }
        let mut regions = Vec::with_capacity(map.num_regions());
        for (r, disk) in disks.into_iter().enumerate() {
            let assignment = &map.assignment;
            build_region_store(graph, disk.as_ref(), &|node: NodeId| {
                assignment[node.index()] == r as u32
            })?;
            regions.push(MCNStore::open(disk, buffer)?);
        }
        Self::assemble(regions, map)
    }

    /// Builds the store on fresh in-memory disks — the default substrate
    /// for experiments.
    pub fn build_in_memory(
        graph: &MultiCostGraph,
        map: PartitionMap,
        buffer: BufferConfig,
    ) -> Result<Self, StorageError> {
        let disks = (0..map.num_regions())
            .map(|_| Arc::new(InMemoryDisk::new()) as Arc<dyn DiskManager>)
            .collect();
        Self::build_on(graph, map, disks, buffer)
    }

    fn assemble(regions: Vec<MCNStore>, map: PartitionMap) -> Result<Self, StorageError> {
        let mut page_base = Vec::with_capacity(regions.len() + 1);
        let mut base = 0u32;
        for store in &regions {
            page_base.push(base);
            // +1: the shard's header page also occupies the global id space.
            // Each shard fits u32 individually (build_store checks), but the
            // *sum* must too — a silent wrap would overlap the slices and
            // route facility runs to the wrong shard.
            base = base
                .checked_add(store.meta().data_pages + 1)
                .ok_or(StorageError::TooManyPages)?;
        }
        page_base.push(base);
        Ok(Self {
            regions,
            map,
            page_base,
            home_reads: AtomicU64::new(0),
            cross_reads: AtomicU64::new(0),
        })
    }

    /// The partition map the shards were built from.
    pub fn partition(&self) -> &PartitionMap {
        &self.map
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// The region owning `node`.
    pub fn region_of(&self, node: NodeId) -> RegionId {
        self.map.region_of(node)
    }

    /// Per-region I/O counter snapshots, in region order.
    pub fn per_region_stats(&self) -> Vec<IoStats> {
        self.regions.iter().map(|s| s.io_stats()).collect()
    }

    /// Home/cross read counters (see [`with_seed_region`]).
    pub fn region_traffic(&self) -> RegionTraffic {
        RegionTraffic {
            home_reads: self.home_reads.load(Ordering::Relaxed),
            cross_reads: self.cross_reads.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the home/cross counters.
    pub fn reset_region_traffic(&self) {
        self.home_reads.store(0, Ordering::Relaxed);
        self.cross_reads.store(0, Ordering::Relaxed);
    }

    /// Classifies a read served by `region` against the thread's seed.
    fn count_read(&self, region: u32) {
        if let Some(seed) = SEED_REGION.with(|c| c.get()) {
            if seed == region {
                self.home_reads.fetch_add(1, Ordering::Relaxed);
            } else {
                self.cross_reads.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The region whose global page slice contains `page`.
    fn region_of_page(&self, page: PageId) -> usize {
        debug_assert!(page.raw() < *self.page_base.last().unwrap());
        // partition_point: first base greater than the page, minus one.
        self.page_base.partition_point(|&b| b <= page.raw()) - 1
    }
}

impl StoreView for PartitionedStore {
    fn num_cost_types(&self) -> usize {
        self.regions[0].num_cost_types()
    }

    fn num_nodes(&self) -> usize {
        self.regions[0].num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.regions[0].num_edges()
    }

    fn num_facilities(&self) -> usize {
        self.regions[0].num_facilities()
    }

    fn data_pages(&self) -> usize {
        self.regions.iter().map(|s| s.data_pages()).sum()
    }

    fn adjacency(&self, node: NodeId) -> AdjacencyList {
        let mut entries = Vec::new();
        self.adjacency_into(node, &mut entries);
        AdjacencyList { node, entries }
    }

    fn adjacency_into(&self, node: NodeId, out: &mut Vec<AdjacencyEntry>) {
        let r = self.map.region_of(node).index();
        self.count_read(r as u32);
        let appended_from = out.len();
        self.regions[r].adjacency_into(node, out);
        // Rebase run pointers into the global page-id space so they can be
        // routed back to this shard later.
        let base = self.page_base[r];
        for entry in &mut out[appended_from..] {
            if let Some(run) = &mut entry.facilities {
                run.start.page = PageId::new(run.start.page.raw() + base);
            }
        }
    }

    fn facilities_in_run(&self, run: &FacilityRun) -> Vec<(FacilityId, f64)> {
        let r = self.region_of_page(run.start.page);
        self.count_read(r as u32);
        let mut local = *run;
        local.start.page = PageId::new(run.start.page.raw() - self.page_base[r]);
        self.regions[r].facilities_in_run(&local)
    }

    fn facility_info(&self, facility: FacilityId) -> Option<FacilityInfo> {
        // The facility tree is replicated in every shard; serve the lookup
        // from the querying thread's seed region so index reads stay in its
        // hot pool.
        let r = current_seed_region()
            .map(|r| r.index())
            .filter(|&r| r < self.regions.len())
            .unwrap_or(0);
        self.regions[r].facility_info(facility)
    }

    fn edge_endpoints(&self, edge: EdgeId) -> Option<EdgeEndpoints> {
        let r = current_seed_region()
            .map(|r| r.index())
            .filter(|&r| r < self.regions.len())
            .unwrap_or(0);
        self.regions[r].edge_endpoints(edge)
    }

    fn io_stats(&self) -> IoStats {
        let mut total = IoStats::default();
        for store in &self.regions {
            total.accumulate(&store.io_stats());
        }
        total
    }

    fn publish_metrics(&self, registry: &mcn_obs::MetricsRegistry) {
        // Per-region snapshots first, then their sum as the unlabelled
        // aggregate, so the aggregate is exactly the sum of what was
        // published per region.
        let per_region = self.per_region_stats();
        let mut total = IoStats::default();
        for (r, stats) in per_region.iter().enumerate() {
            let region = format!("r{r}");
            stats.publish(registry, &[("region", region.as_str())]);
            total.accumulate(stats);
        }
        total.publish(registry, &[]);
        let traffic = self.region_traffic();
        registry
            .counter("storage.home_reads", &[])
            .set(traffic.home_reads);
        registry
            .counter("storage.cross_reads", &[])
            .set(traffic.cross_reads);
        registry
            .gauge("storage.cross_fraction", &[])
            .set(traffic.cross_fraction());
    }

    fn clear_buffers(&self) {
        for store in &self.regions {
            store.buffer().clear();
        }
    }

    fn set_buffer(&self, buffer: BufferConfig) {
        for store in &self.regions {
            store.set_buffer(buffer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_graph::{partition_graph, CostVec, GraphBuilder, PartitionSpec};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Random connected graph with facilities (mirrors the store.rs fixture).
    fn random_graph(seed: u64, nodes: usize, extra: usize, facilities: usize) -> MultiCostGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let d = 3;
        let mut b = GraphBuilder::new(d);
        let ids: Vec<_> = (0..nodes)
            .map(|i| b.add_node(i as f64, rng.gen_range(0.0..100.0)))
            .collect();
        let mut edges = Vec::new();
        for w in ids.windows(2) {
            let costs: Vec<f64> = (0..d).map(|_| rng.gen_range(0.1..10.0)).collect();
            edges.push(b.add_edge(w[0], w[1], CostVec::from_slice(&costs)).unwrap());
        }
        for _ in 0..extra {
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

    fn build(graph: &MultiCostGraph, regions: usize) -> PartitionedStore {
        let map = partition_graph(graph, &PartitionSpec::new(regions));
        PartitionedStore::build_in_memory(graph, map, BufferConfig::Pages(32)).unwrap()
    }

    #[test]
    fn adjacency_matches_the_monolithic_store_at_any_region_count() {
        let g = random_graph(1, 200, 120, 150);
        let mono = MCNStore::build_in_memory(&g, BufferConfig::Pages(64)).unwrap();
        for regions in [1, 2, 4, 8] {
            let part = build(&g, regions);
            assert_eq!(part.num_regions(), regions);
            for node in g.nodes() {
                let a = StoreView::adjacency(&mono, node.id);
                let b = StoreView::adjacency(&part, node.id);
                assert_eq!(a.node, b.node);
                // The buffer-filling form appends the same (rebased) entries
                // and leaves what the buffer held alone.
                let mut into = a.entries.clone();
                StoreView::adjacency_into(&part, node.id, &mut into);
                assert_eq!(into[..a.entries.len()], a.entries[..]);
                assert_eq!(into[a.entries.len()..], b.entries[..]);
                assert_eq!(a.entries.len(), b.entries.len());
                for (ea, eb) in a.entries.iter().zip(&b.entries) {
                    assert_eq!(ea.neighbor, eb.neighbor);
                    assert_eq!(ea.edge, eb.edge);
                    assert_eq!(ea.traversable, eb.traversable);
                    assert_eq!(ea.costs.as_slice(), eb.costs.as_slice());
                    // Run *pointers* differ by design; resolved contents
                    // must not.
                    match (ea.facilities, eb.facilities) {
                        (None, None) => {}
                        (Some(ra), Some(rb)) => {
                            assert_eq!(
                                StoreView::facilities_in_run(&mono, &ra),
                                StoreView::facilities_in_run(&part, &rb),
                            );
                        }
                        other => panic!("run presence diverged: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn index_lookups_match_the_monolithic_store() {
        let g = random_graph(2, 150, 80, 100);
        let mono = MCNStore::build_in_memory(&g, BufferConfig::Pages(64)).unwrap();
        let part = build(&g, 4);
        for f in g.facilities() {
            assert_eq!(
                StoreView::facility_info(&mono, f.id),
                StoreView::facility_info(&part, f.id)
            );
        }
        for e in g.edges() {
            assert_eq!(
                StoreView::edge_endpoints(&mono, e.id),
                StoreView::edge_endpoints(&part, e.id)
            );
        }
        assert!(StoreView::facility_info(&part, FacilityId::new(99_999)).is_none());
        assert_eq!(StoreView::num_nodes(&part), g.num_nodes());
        assert_eq!(StoreView::num_edges(&part), g.num_edges());
        assert_eq!(StoreView::num_facilities(&part), g.num_facilities());
    }

    #[test]
    fn global_page_ids_are_disjoint_and_route_back() {
        let g = random_graph(3, 120, 60, 200);
        let part = build(&g, 4);
        // Every rebased run pointer must land inside its owning region's
        // global slice.
        for node in g.nodes() {
            let r = part.region_of(node.id).index();
            let adjacency = StoreView::adjacency(&part, node.id);
            for entry in adjacency.entries {
                if let Some(run) = entry.facilities {
                    assert_eq!(part.region_of_page(run.start.page), r);
                    let facilities = StoreView::facilities_in_run(&part, &run);
                    assert_eq!(facilities.len(), run.count as usize);
                }
            }
        }
    }

    #[test]
    fn io_stats_aggregate_the_region_pools() {
        let g = random_graph(4, 150, 80, 60);
        let part = build(&g, 3);
        StoreView::clear_buffers(&part);
        for node in g.nodes() {
            let _ = StoreView::adjacency(&part, node.id);
        }
        let total = StoreView::io_stats(&part);
        let per_region = part.per_region_stats();
        assert_eq!(per_region.len(), 3);
        let summed: u64 = per_region.iter().map(|s| s.logical_reads).sum();
        assert_eq!(total.logical_reads, summed);
        assert!(total.logical_reads > 0);
        assert_eq!(total.logical_reads, total.buffer_hits + total.buffer_misses);
    }

    #[test]
    fn cross_fraction_guards_the_zero_sample_case() {
        assert_eq!(RegionTraffic::default().cross_fraction(), 0.0);
        let t = RegionTraffic {
            home_reads: 3,
            cross_reads: 1,
        };
        assert!((t.cross_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn publish_metrics_exposes_per_region_and_aggregate_counters() {
        let g = random_graph(7, 150, 80, 60);
        let part = build(&g, 3);
        StoreView::clear_buffers(&part);
        let home_node = g
            .nodes()
            .find(|n| part.region_of(n.id) == RegionId::new(0))
            .unwrap()
            .id;
        with_seed_region(RegionId::new(0), || {
            for node in g.nodes() {
                let _ = StoreView::adjacency(&part, node.id);
            }
            let _ = StoreView::adjacency(&part, home_node);
        });

        let registry = mcn_obs::MetricsRegistry::new();
        StoreView::publish_metrics(&part, &registry);
        let snap = registry.snapshot();

        // Aggregate reconciles exactly with io_stats and with the sum of
        // the per-region series.
        let total = StoreView::io_stats(&part);
        assert_eq!(
            snap.counter_value("storage.logical_reads", &[]),
            Some(total.logical_reads)
        );
        let mut per_region_sum = 0;
        for r in 0..3 {
            let region = format!("r{r}");
            per_region_sum += snap
                .counter_value("storage.logical_reads", &[("region", region.as_str())])
                .unwrap();
        }
        assert_eq!(per_region_sum, total.logical_reads);
        assert_eq!(
            snap.counter_value("storage.buffer_hits", &[]).unwrap()
                + snap.counter_value("storage.buffer_misses", &[]).unwrap(),
            total.logical_reads
        );

        // Traffic counters and the guarded fraction ride along.
        let traffic = part.region_traffic();
        assert_eq!(
            snap.counter_value("storage.home_reads", &[]),
            Some(traffic.home_reads)
        );
        assert_eq!(
            snap.counter_value("storage.cross_reads", &[]),
            Some(traffic.cross_reads)
        );
        assert!(
            (snap.gauge_value("storage.cross_fraction", &[]).unwrap() - traffic.cross_fraction())
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn traffic_counters_follow_the_seed_region_scope() {
        let g = random_graph(5, 100, 50, 40);
        let part = build(&g, 2);
        // Unscoped reads are not classified.
        let _ = StoreView::adjacency(&part, NodeId::new(0));
        assert_eq!(part.region_traffic(), RegionTraffic::default());
        // Scoped reads split by the owning region.
        let home_node = g
            .nodes()
            .find(|n| part.region_of(n.id) == RegionId::new(0))
            .unwrap()
            .id;
        let away_node = g
            .nodes()
            .find(|n| part.region_of(n.id) == RegionId::new(1))
            .unwrap()
            .id;
        with_seed_region(RegionId::new(0), || {
            let _ = StoreView::adjacency(&part, home_node);
            let _ = StoreView::adjacency(&part, away_node);
        });
        let traffic = part.region_traffic();
        assert_eq!(traffic.home_reads, 1);
        assert_eq!(traffic.cross_reads, 1);
        assert!((traffic.cross_fraction() - 0.5).abs() < 1e-12);
        part.reset_region_traffic();
        assert_eq!(part.region_traffic(), RegionTraffic::default());
        // The scope restores the previous tag.
        assert_eq!(current_seed_region(), None);
        with_seed_region(RegionId::new(1), || {
            assert_eq!(current_seed_region(), Some(RegionId::new(1)));
            with_seed_region(RegionId::new(0), || {
                assert_eq!(current_seed_region(), Some(RegionId::new(0)));
            });
            assert_eq!(current_seed_region(), Some(RegionId::new(1)));
        });
    }

    #[test]
    fn build_rejects_mismatched_inputs() {
        let g = random_graph(7, 60, 30, 20);
        let map = partition_graph(&g, &PartitionSpec::new(2));
        // Wrong disk count.
        let one_disk: Vec<Arc<dyn DiskManager>> = vec![Arc::new(InMemoryDisk::new())];
        assert!(matches!(
            PartitionedStore::build_on(&g, map.clone(), one_disk, BufferConfig::Pages(8)),
            Err(StorageError::Partition(_))
        ));
        // Map for a different graph size.
        let small = PartitionMap::single(3);
        assert!(matches!(
            PartitionedStore::build_in_memory(&g, small, BufferConfig::Pages(8)),
            Err(StorageError::Partition(_))
        ));
    }

    #[test]
    fn single_region_store_mirrors_monolithic_layout() {
        let g = random_graph(8, 80, 40, 50);
        let part = build(&g, 1);
        let mono = MCNStore::build_in_memory(&g, BufferConfig::Pages(32)).unwrap();
        // One region, same builder: the shard's header equals the
        // monolithic header.
        assert_eq!(part.regions[0].meta(), mono.meta());
        assert_eq!(StoreView::data_pages(&part), StoreView::data_pages(&mono));
    }
}
