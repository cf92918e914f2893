//! Network access abstraction: how expansions read the disk-resident MCN.
//!
//! The difference between the paper's two algorithms is *purely* an access
//! pattern:
//!
//! * **LSA** runs `d` independent expansions; each reads adjacency records and
//!   facility lists straight from the store, so the same page may be fetched
//!   up to `d` times (mitigated only by the LRU buffer).
//! * **CEA** shares the physically fetched information among the `d`
//!   expansions, guaranteeing that each node's adjacency record and each
//!   edge's facility list is read from the store **at most once** per query.
//!
//! Both are expressed here as implementations of [`NetworkAccess`]:
//! [`DirectAccess`] forwards every call to the store, while [`SharedAccess`]
//! memoises the decoded records in an in-memory cache keyed by node / run, so
//! a second request (from another expansion) never touches the buffer pool or
//! the disk.
//!
//! Adjacency records — one per settled node, the inner loop of every
//! expansion — are handed over by filling a buffer the expansion owns
//! ([`NetworkAccess::adjacency_into`]), so reading one allocates nothing on
//! either accessor.
//!
//! Both accessors are generic over the [`StoreView`] they read —
//! `MCNStore` by default, so existing call sites are unchanged, or a
//! region-partitioned store (`mcn_storage::PartitionedStore`), over which
//! every algorithm built on this layer produces byte-identical results.

use mcn_graph::{EdgeId, FacilityId, NodeId};
use mcn_storage::store::{EdgeEndpoints, FacilityInfo};
use mcn_storage::{AdjacencyEntry, FacilityRun, IdMap, IoStats, MCNStore, StoreView};
use parking_lot::Mutex;
use std::sync::Arc;

/// Read interface used by the expansion engine.
pub trait NetworkAccess {
    /// Number of cost types `d` of the underlying network.
    fn num_cost_types(&self) -> usize;

    /// Number of nodes: node ids are `0..num_nodes()`.
    fn num_nodes(&self) -> usize;

    /// Number of facilities: facility ids are `0..num_facilities()`.
    fn num_facilities(&self) -> usize;

    /// Appends the entries of `node`'s adjacency record to `out` (which is
    /// not cleared).
    fn adjacency_into(&self, node: NodeId, out: &mut Vec<AdjacencyEntry>);

    /// The facilities referenced by `run` as `(facility, position)` pairs.
    fn facilities_in_run(&self, run: &FacilityRun) -> Arc<Vec<(FacilityId, f64)>>;

    /// Facility-tree lookup.
    fn facility_info(&self, facility: FacilityId) -> Option<FacilityInfo>;

    /// Edge-index lookup.
    fn edge_endpoints(&self, edge: EdgeId) -> Option<EdgeEndpoints>;

    /// Current I/O statistics of the underlying store.
    fn io_stats(&self) -> IoStats;
}

/// Pass-through access: every request goes to the store (LSA's behaviour).
pub struct DirectAccess<S: StoreView + ?Sized = MCNStore> {
    store: Arc<S>,
}

const _: () = crate::assert_send_sync::<DirectAccess>();

impl<S: StoreView + ?Sized> DirectAccess<S> {
    /// Creates a pass-through accessor over `store`.
    pub fn new(store: Arc<S>) -> Self {
        Self { store }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<S> {
        &self.store
    }
}

impl<S: StoreView + ?Sized> NetworkAccess for DirectAccess<S> {
    fn num_cost_types(&self) -> usize {
        self.store.num_cost_types()
    }

    fn num_nodes(&self) -> usize {
        self.store.num_nodes()
    }

    fn num_facilities(&self) -> usize {
        self.store.num_facilities()
    }

    fn adjacency_into(&self, node: NodeId, out: &mut Vec<AdjacencyEntry>) {
        self.store.adjacency_into(node, out);
    }

    fn facilities_in_run(&self, run: &FacilityRun) -> Arc<Vec<(FacilityId, f64)>> {
        Arc::new(self.store.facilities_in_run(run))
    }

    fn facility_info(&self, facility: FacilityId) -> Option<FacilityInfo> {
        self.store.facility_info(facility)
    }

    fn edge_endpoints(&self, edge: EdgeId) -> Option<EdgeEndpoints> {
        self.store.edge_endpoints(edge)
    }

    fn io_stats(&self) -> IoStats {
        self.store.io_stats()
    }
}

/// Counters describing how often the shared cache avoided a store access.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharingStats {
    /// Adjacency requests answered from the shared cache.
    pub adjacency_reuses: u64,
    /// Adjacency requests that had to go to the store.
    pub adjacency_fetches: u64,
    /// Facility-run requests answered from the shared cache.
    pub run_reuses: u64,
    /// Facility-run requests that had to go to the store.
    pub run_fetches: u64,
}

/// Information-sharing access: each node's adjacency record and each facility
/// run is fetched from the store at most once per query (CEA's behaviour).
///
/// The cache corresponds to the paper's notion of *expanded* nodes: once some
/// expansion has paid the I/O to expand a node, the decoded record is kept in
/// memory and every other expansion reuses it.
pub struct SharedAccess<S: StoreView + ?Sized = MCNStore> {
    adjacency: Mutex<AdjacencyArena>,
    runs: Mutex<RunCache>,
    store: Arc<S>,
}

const _: () = crate::assert_send_sync::<SharedAccess>();

/// Every adjacency record fetched so far, back to back in one vector that
/// lives as long as the query, with its hit/miss counters. They live under
/// the arena's own lock: a request takes exactly one lock.
#[derive(Default)]
struct AdjacencyArena {
    /// Node → where its record sits in `entries`: `(start, len)`.
    spans: IdMap<NodeId, (u32, u32)>,
    entries: Vec<AdjacencyEntry>,
    reuses: u64,
    fetches: u64,
}

/// The decoded facilities of one run, as [`NetworkAccess`] hands them out.
type Run = Arc<Vec<(FacilityId, f64)>>;

/// The facility runs fetched so far, keyed by where the run starts (page,
/// offset), with the hit/miss counters under the same lock.
#[derive(Default)]
struct RunCache {
    records: IdMap<(u32, u16), Run>,
    reuses: u64,
    fetches: u64,
}

impl<S: StoreView + ?Sized> SharedAccess<S> {
    /// Creates a sharing accessor over `store` with an empty cache.
    pub fn new(store: Arc<S>) -> Self {
        Self {
            store,
            adjacency: Mutex::default(),
            runs: Mutex::default(),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<S> {
        &self.store
    }

    /// Cache reuse counters.
    pub fn sharing_stats(&self) -> SharingStats {
        let (adjacency_reuses, adjacency_fetches) = {
            let cache = self.adjacency.lock();
            (cache.reuses, cache.fetches)
        };
        let runs = self.runs.lock();
        SharingStats {
            adjacency_reuses,
            adjacency_fetches,
            run_reuses: runs.reuses,
            run_fetches: runs.fetches,
        }
    }
}

impl<S: StoreView + ?Sized> NetworkAccess for SharedAccess<S> {
    fn num_cost_types(&self) -> usize {
        self.store.num_cost_types()
    }

    fn num_nodes(&self) -> usize {
        self.store.num_nodes()
    }

    fn num_facilities(&self) -> usize {
        self.store.num_facilities()
    }

    fn adjacency_into(&self, node: NodeId, out: &mut Vec<AdjacencyEntry>) {
        let mut arena = self.adjacency.lock();
        let arena = &mut *arena;
        let (start, len) = match arena.spans.get(&node) {
            Some(&span) => {
                arena.reuses += 1;
                span
            }
            None => {
                let start = arena.entries.len();
                self.store.adjacency_into(node, &mut arena.entries);
                let span = (start as u32, (arena.entries.len() - start) as u32);
                arena.fetches += 1;
                arena.spans.insert(node, span);
                span
            }
        };
        out.extend_from_slice(&arena.entries[start as usize..][..len as usize]);
    }

    fn facilities_in_run(&self, run: &FacilityRun) -> Arc<Vec<(FacilityId, f64)>> {
        let key = (run.start.page.raw(), run.start.offset);
        let mut cache = self.runs.lock();
        let cache = &mut *cache;
        if let Some(hit) = cache.records.get(&key) {
            cache.reuses += 1;
            return hit.clone();
        }
        let record = Arc::new(self.store.facilities_in_run(run));
        cache.fetches += 1;
        cache.records.insert(key, record.clone());
        record
    }

    fn facility_info(&self, facility: FacilityId) -> Option<FacilityInfo> {
        self.store.facility_info(facility)
    }

    fn edge_endpoints(&self, edge: EdgeId) -> Option<EdgeEndpoints> {
        self.store.edge_endpoints(edge)
    }

    fn io_stats(&self) -> IoStats {
        self.store.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_graph::{CostVec, GraphBuilder};
    use mcn_storage::BufferConfig;

    fn store() -> Arc<MCNStore> {
        let mut b = GraphBuilder::new(2);
        let n: Vec<_> = (0..4).map(|i| b.add_node(i as f64, 0.0)).collect();
        for w in n.windows(2) {
            let e = b
                .add_edge(w[0], w[1], CostVec::from_slice(&[1.0, 2.0]))
                .unwrap();
            b.add_facility(e, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        Arc::new(MCNStore::build_in_memory(&g, BufferConfig::Pages(16)).unwrap())
    }

    fn adjacency<A: NetworkAccess>(access: &A, node: u32) -> Vec<AdjacencyEntry> {
        let mut entries = Vec::new();
        access.adjacency_into(NodeId::new(node), &mut entries);
        entries
    }

    #[test]
    fn direct_access_hits_the_store_every_time() {
        let store = store();
        let access = DirectAccess::new(store.clone());
        store.buffer().clear();
        let first = adjacency(&access, 1);
        assert_eq!(first, store.adjacency(NodeId::new(1)).entries);
        assert_eq!(adjacency(&access, 1), first);
        // Two logical reads of the data page (plus tree traversals).
        let stats = access.io_stats();
        assert!(stats.logical_reads >= 4);
    }

    #[test]
    fn shared_access_fetches_each_node_once() {
        let store = store();
        let access = SharedAccess::new(store.clone());
        store.buffer().clear();
        let a = adjacency(&access, 1);
        let logical_after_first = access.io_stats().logical_reads;
        let b = adjacency(&access, 1);
        let c = adjacency(&access, 1);
        assert_eq!(access.io_stats().logical_reads, logical_after_first);
        assert_eq!(a, store.adjacency(NodeId::new(1)).entries);
        assert!(a == b && b == c);
        assert_eq!(access.adjacency.lock().spans.len(), 1);
        let s = access.sharing_stats();
        assert_eq!(s.adjacency_fetches, 1);
        assert_eq!(s.adjacency_reuses, 2);
    }

    #[test]
    fn shared_records_stay_apart_in_the_arena() {
        // Records of different degree, fetched in one order and re-read in
        // another, each appended behind what the caller's buffer holds.
        let store = store();
        let access = SharedAccess::new(store.clone());
        let expected: Vec<_> = (0..4)
            .map(|n| store.adjacency(NodeId::new(n)).entries)
            .collect();
        assert_ne!(expected[0].len(), expected[1].len());
        for n in [2, 0, 3, 1] {
            assert_eq!(adjacency(&access, n), expected[n as usize], "node {n}");
        }
        let mut gathered = Vec::new();
        for n in [1, 3, 0, 2, 1] {
            let held = gathered.len();
            access.adjacency_into(NodeId::new(n), &mut gathered);
            assert_eq!(gathered[held..], expected[n as usize][..], "node {n}");
        }
        assert_eq!(gathered[..expected[1].len()], expected[1][..]);
        let s = access.sharing_stats();
        assert_eq!((s.adjacency_fetches, s.adjacency_reuses), (4, 5));
        assert_eq!(access.adjacency.lock().spans.len(), 4);
    }

    #[test]
    fn shared_access_caches_facility_runs() {
        let store = store();
        let access = SharedAccess::new(store.clone());
        let adj = adjacency(&access, 0);
        let run = adj[0].facilities.expect("edge 0 has a facility");
        let before = access.io_stats().logical_reads;
        let f1 = access.facilities_in_run(&run);
        let after_first = access.io_stats().logical_reads;
        assert!(after_first > before);
        let f2 = access.facilities_in_run(&run);
        assert_eq!(access.io_stats().logical_reads, after_first);
        assert!(Arc::ptr_eq(&f1, &f2));
        assert_eq!(f1.len(), 1);
        let s = access.sharing_stats();
        assert_eq!((s.run_fetches, s.run_reuses), (1, 1));
    }

    #[test]
    fn both_accessors_expose_lookups() {
        let store = store();
        let direct = DirectAccess::new(store.clone());
        let shared = SharedAccess::new(store);
        assert_eq!(direct.num_cost_types(), 2);
        assert_eq!(shared.num_cost_types(), 2);
        assert_eq!(
            direct.facility_info(FacilityId::new(0)),
            shared.facility_info(FacilityId::new(0))
        );
        assert_eq!(
            direct.edge_endpoints(EdgeId::new(2)),
            shared.edge_endpoints(EdgeId::new(2))
        );
    }
}
