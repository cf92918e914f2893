//! Incremental network expansion: Dijkstra-based nearest-facility search.
//!
//! This is the *network expansion* (NE) primitive of Papadias et al. (VLDB'03)
//! that both LSA and CEA are built on (paper Section II-C): starting from the
//! query location, nodes are settled in increasing distance order w.r.t. one
//! cost type; when a node is settled, the facilities on its incident edges are
//! pushed into the same heap with their network distance, so facilities pop
//! out of the heap in increasing nearest-neighbour order.

use crate::access::NetworkAccess;
use crate::seeds::Seeds;
use crate::tables::{StampedTable, TablePool, Tables};
use mcn_graph::{EdgeId, FacilityId, NodeId};
use mcn_storage::{FacilityRun, IdMap};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// How an expansion discovers facilities.
#[derive(Clone)]
pub enum FacilityMode {
    /// Load and en-heap every facility on every traversed edge (growing stage).
    All,
    /// Do not touch the facility file; only the candidate facilities listed
    /// here (keyed by their containing edge, with their fractional position)
    /// are en-heaped when their edge is traversed. This implements the
    /// shrinking-stage optimisation of Section IV-A.
    CandidatesOnly(Arc<IdMap<EdgeId, Vec<(FacilityId, f64)>>>),
    /// Ignore facilities entirely (plain one-to-all Dijkstra).
    Ignore,
}

/// One step of progress of an expansion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExpansionStep {
    /// A facility was reached; its network distance w.r.t. this expansion's
    /// cost type is final.
    Facility {
        /// The facility.
        facility: FacilityId,
        /// Its network distance from the query location.
        cost: f64,
    },
    /// A network node was settled (its adjacency information was consumed).
    NodeSettled {
        /// The node.
        node: NodeId,
        /// Its network distance from the query location.
        cost: f64,
    },
    /// The expansion frontier is empty; nothing remains to be discovered.
    Exhausted,
}

/// Where the facilities an edge contributes to the heap come from.
enum OnEdge<'a> {
    /// The edge's run in the facility file (growing stage).
    Run(&'a FacilityRun),
    /// The remaining candidates lying on the edge (shrinking stage).
    Listed(&'a [(FacilityId, f64)]),
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum HeapItem {
    Node(NodeId),
    Facility(FacilityId),
}

#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    key: f64,
    item: HeapItem,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the smallest key pops first.
        // Ties: facilities before nodes, then by identifier, for determinism.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| {
                let rank = |i: &HeapItem| match i {
                    HeapItem::Facility(_) => 0u8,
                    HeapItem::Node(_) => 1u8,
                };
                rank(&other.item).cmp(&rank(&self.item))
            })
            .then_with(|| {
                let id = |i: &HeapItem| match i {
                    HeapItem::Facility(f) => f.raw(),
                    HeapItem::Node(n) => n.raw(),
                };
                id(&other.item).cmp(&id(&self.item))
            })
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Counters describing the work performed by one expansion.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExpansionStats {
    /// Nodes settled (adjacency records consumed).
    pub nodes_settled: usize,
    /// Heap pushes.
    pub heap_pushes: usize,
    /// Heap pops.
    pub heap_pops: usize,
    /// Facilities emitted.
    pub facilities_emitted: usize,
}

/// An incremental single-cost network expansion.
///
/// Created via [`Expansion::new`] with the seeds of a query location, it
/// yields the nearest facilities one at a time ([`Expansion::next_nearest`]),
/// or advances in finer-grained steps ([`Expansion::advance`]) as required by
/// the top-k shrinking stage.
pub struct Expansion<A: NetworkAccess> {
    access: Arc<A>,
    cost_type: usize,
    facility_mode: FacilityMode,
    frontier: Frontier,
    /// Where `frontier.tables` came from and goes back to on drop.
    pool: TablePool,
}

/// The mutable search state: the heap, the per-id tables that de-duplicate
/// what enters it, and the work counters.
struct Frontier {
    heap: BinaryHeap<HeapEntry>,
    tables: Tables,
    stats: ExpansionStats,
}

const _: () = crate::assert_send_sync::<Expansion<crate::DirectAccess>>();
const _: () = crate::assert_send_sync::<Expansion<crate::SharedAccess>>();

impl<A: NetworkAccess> Expansion<A> {
    /// Creates an expansion for `cost_type` starting from the given seeds,
    /// on freshly made tables.
    ///
    /// # Panics
    /// Panics if `cost_type` is not a valid cost index for the network.
    pub fn new(
        access: Arc<A>,
        cost_type: usize,
        seeds: &Seeds,
        facility_mode: FacilityMode,
    ) -> Self {
        Self::with_pool(access, cost_type, seeds, facility_mode, &TablePool::new())
    }

    /// Like [`Expansion::new`], with the per-id tables taken from `pool` and
    /// handed back to it when the expansion is dropped. Which tables an
    /// expansion runs on never shows in its steps or counters.
    ///
    /// # Panics
    /// Panics if `cost_type` is not a valid cost index for the network.
    pub fn with_pool(
        access: Arc<A>,
        cost_type: usize,
        seeds: &Seeds,
        facility_mode: FacilityMode,
        pool: &TablePool,
    ) -> Self {
        assert!(
            cost_type < access.num_cost_types(),
            "cost type {cost_type} out of range (d = {})",
            access.num_cost_types()
        );
        let tables = pool.take(access.num_nodes(), access.num_facilities());
        let mut ex = Self {
            access,
            cost_type,
            facility_mode,
            frontier: Frontier {
                heap: BinaryHeap::new(),
                tables,
                stats: ExpansionStats::default(),
            },
            pool: pool.clone(),
        };
        for (node, costs) in &seeds.node_seeds {
            ex.frontier.push_node(*node, costs[cost_type]);
        }
        for (facility, costs) in &seeds.facility_seeds {
            ex.frontier.push_facility(*facility, costs[cost_type]);
        }
        ex
    }

    /// The cost type this expansion searches on.
    pub fn cost_type(&self) -> usize {
        self.cost_type
    }

    /// Work counters.
    pub fn stats(&self) -> ExpansionStats {
        self.frontier.stats
    }

    /// Smallest key currently in the frontier, i.e. a lower bound on the cost
    /// of the next facility this expansion can return (the paper's `tᵢ`).
    /// `None` when the frontier is exhausted.
    pub fn frontier_bound(&self) -> Option<f64> {
        self.frontier.heap.peek().map(|e| e.key)
    }

    /// Replaces the facility mode (used when a query transitions from the
    /// growing to the shrinking stage).
    pub fn set_facility_mode(&mut self, mode: FacilityMode) {
        self.facility_mode = mode;
    }

    /// Performs one unit of work: pops the heap until something meaningful
    /// happens (a facility is reached, a node is settled, or the frontier is
    /// exhausted). Stale heap entries are skipped silently.
    pub fn advance(&mut self) -> ExpansionStep {
        loop {
            let Some(entry) = self.frontier.heap.pop() else {
                return ExpansionStep::Exhausted;
            };
            self.frontier.stats.heap_pops += 1;
            // Skip stale entries: the item is already finished, or a better
            // key was en-heaped later.
            let stale = |table: &StampedTable, id: u32| {
                table
                    .get(id)
                    .is_some_and(|(best, done)| done || entry.key > best)
            };
            match entry.item {
                HeapItem::Facility(fid) => {
                    if stale(&self.frontier.tables.facilities, fid.raw()) {
                        continue;
                    }
                    self.frontier.tables.facilities.mark_done(fid.raw());
                    self.frontier.stats.facilities_emitted += 1;
                    return ExpansionStep::Facility {
                        facility: fid,
                        cost: entry.key,
                    };
                }
                HeapItem::Node(node) => {
                    if stale(&self.frontier.tables.nodes, node.raw()) {
                        continue;
                    }
                    self.frontier.tables.nodes.mark_done(node.raw());
                    self.frontier.stats.nodes_settled += 1;
                    self.expand_node(node, entry.key);
                    return ExpansionStep::NodeSettled {
                        node,
                        cost: entry.key,
                    };
                }
            }
        }
    }

    fn expand_node(&mut self, node: NodeId, dist: f64) {
        // The record is decoded into the scratch buffer that travels with
        // the tables; it is taken out for the loop because relaxing an edge
        // needs the rest of the frontier mutably.
        let mut adjacency = std::mem::take(&mut self.frontier.tables.adjacency);
        adjacency.clear();
        self.access.adjacency_into(node, &mut adjacency);
        for e in &adjacency {
            // `traversable` tells us whether we may leave `node` via this edge.
            let edge_cost = e.costs[self.cost_type];
            if e.traversable {
                self.frontier.push_node(e.neighbor, dist + edge_cost);
            }
            // Which facilities of the edge to en-heap. In the shrinking stage
            // one probe of the candidate map tells whether there are any.
            let on_edge = match (&self.facility_mode, &e.facilities) {
                (FacilityMode::Ignore, _) | (FacilityMode::All, None) => continue,
                (FacilityMode::All, Some(run)) => OnEdge::Run(run),
                (FacilityMode::CandidatesOnly(by_edge), _) => match by_edge.get(&e.edge) {
                    Some(candidates) => OnEdge::Listed(candidates),
                    None => continue,
                },
            };
            // Facilities on the edge are reachable from this end-node as long
            // as movement towards them is allowed: from the edge's source any
            // facility is reachable; from the target only if undirected.
            let endpoints = self
                .access
                .edge_endpoints(e.edge)
                .expect("edge present in the edge index");
            let node_is_source = endpoints.source == node;
            if endpoints.directed && !node_is_source {
                continue;
            }
            // The run is only fetched now that its facilities are known to
            // be reachable from this end.
            let fetched;
            let targets = match on_edge {
                OnEdge::Listed(candidates) => candidates,
                OnEdge::Run(run) => {
                    fetched = self.access.facilities_in_run(run);
                    &fetched[..]
                }
            };
            // Position of a facility is the fraction from the edge's *source*.
            // If `node` is the source, partial weight = pos · w; otherwise
            // (node is the target) it is (1 − pos) · w.
            for &(fid, pos) in targets {
                let fraction = if node_is_source { pos } else { 1.0 - pos };
                self.frontier
                    .push_facility(fid, dist + fraction * edge_cost);
            }
        }
        self.frontier.tables.adjacency = adjacency;
    }

    /// Advances until the next nearest facility is found, returning it together
    /// with its cost, or `None` when the network is exhausted.
    pub fn next_nearest(&mut self) -> Option<(FacilityId, f64)> {
        loop {
            match self.advance() {
                ExpansionStep::Facility { facility, cost } => return Some((facility, cost)),
                ExpansionStep::NodeSettled { .. } => continue,
                ExpansionStep::Exhausted => return None,
            }
        }
    }
}

impl Frontier {
    fn push_node(&mut self, node: NodeId, key: f64) {
        if !self.tables.nodes.improve(node.raw(), key) {
            return;
        }
        self.heap.push(HeapEntry {
            key,
            item: HeapItem::Node(node),
        });
        self.stats.heap_pushes += 1;
    }

    fn push_facility(&mut self, facility: FacilityId, key: f64) {
        if self.tables.facilities.is_done(facility.raw())
            || !self.tables.facilities.improve(facility.raw(), key)
        {
            return;
        }
        self.heap.push(HeapEntry {
            key,
            item: HeapItem::Facility(facility),
        });
        self.stats.heap_pushes += 1;
    }
}

impl<A: NetworkAccess> Drop for Expansion<A> {
    fn drop(&mut self) {
        self.pool
            .give_back(std::mem::take(&mut self.frontier.tables));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::DirectAccess;
    use crate::seeds::seeds_for_location;
    use mcn_graph::{CostVec, GraphBuilder, NetworkLocation};
    use mcn_storage::{BufferConfig, MCNStore};

    /// Line network: v0 -(2,10)- v1 -(2,10)- v2 -(2,10)- v3, facilities:
    /// p0 at 0.5 on edge 0, p1 at 0.5 on edge 2.
    fn line_store() -> (Arc<MCNStore>, mcn_graph::MultiCostGraph) {
        let mut b = GraphBuilder::new(2);
        let n: Vec<_> = (0..4).map(|i| b.add_node(i as f64, 0.0)).collect();
        let mut edges = Vec::new();
        for w in n.windows(2) {
            edges.push(
                b.add_edge(w[0], w[1], CostVec::from_slice(&[2.0, 10.0]))
                    .unwrap(),
            );
        }
        b.add_facility(edges[0], 0.5).unwrap();
        b.add_facility(edges[2], 0.5).unwrap();
        let g = b.build().unwrap();
        let store = Arc::new(MCNStore::build_in_memory(&g, BufferConfig::Pages(16)).unwrap());
        (store, g)
    }

    #[test]
    fn facilities_pop_in_distance_order() {
        let (store, _) = line_store();
        let access = Arc::new(DirectAccess::new(store));
        let seeds = seeds_for_location(access.as_ref(), NetworkLocation::Node(NodeId::new(0)));
        let mut ex = Expansion::new(access, 0, &seeds, FacilityMode::All);
        // p0 is 1.0 away (half of edge 0), p1 is 2 + 2 + 1 = 5.0 away.
        assert_eq!(ex.next_nearest(), Some((FacilityId::new(0), 1.0)));
        assert_eq!(ex.next_nearest(), Some((FacilityId::new(1), 5.0)));
        assert_eq!(ex.next_nearest(), None);
        assert_eq!(ex.frontier_bound(), None);
    }

    #[test]
    fn different_cost_types_scale_distances() {
        let (store, _) = line_store();
        let access = Arc::new(DirectAccess::new(store));
        let seeds = seeds_for_location(access.as_ref(), NetworkLocation::Node(NodeId::new(0)));
        let mut ex = Expansion::new(access, 1, &seeds, FacilityMode::All);
        assert_eq!(ex.next_nearest(), Some((FacilityId::new(0), 5.0)));
        assert_eq!(ex.next_nearest(), Some((FacilityId::new(1), 25.0)));
    }

    #[test]
    fn query_in_edge_interior_uses_partial_weights() {
        let (store, _) = line_store();
        let access = Arc::new(DirectAccess::new(store));
        // Query at 0.25 along edge 1 (between v1 and v2).
        let seeds = seeds_for_location(
            access.as_ref(),
            NetworkLocation::on_edge(EdgeId::new(1), 0.25),
        );
        let mut ex = Expansion::new(access, 0, &seeds, FacilityMode::All);
        // To p0: 0.25·2 back to v1, 1·2 to mid of edge 0 → wait: v1→p0 is half
        // of edge 0 = 1.0, so total 0.5 + 1.0 = 1.5.
        // To p1: 0.75·2 to v2 + 1.0 = 2.5.
        assert_eq!(ex.next_nearest(), Some((FacilityId::new(0), 1.5)));
        assert_eq!(ex.next_nearest(), Some((FacilityId::new(1), 2.5)));
    }

    #[test]
    fn candidates_only_mode_skips_other_facilities() {
        let (store, _) = line_store();
        let access = Arc::new(DirectAccess::new(store));
        let seeds = seeds_for_location(access.as_ref(), NetworkLocation::Node(NodeId::new(0)));
        let mut by_edge: IdMap<EdgeId, Vec<(FacilityId, f64)>> = IdMap::default();
        by_edge.insert(EdgeId::new(2), vec![(FacilityId::new(1), 0.5)]);
        let mut ex = Expansion::new(
            access,
            0,
            &seeds,
            FacilityMode::CandidatesOnly(Arc::new(by_edge)),
        );
        // p0 is skipped entirely; the first facility found is p1.
        assert_eq!(ex.next_nearest(), Some((FacilityId::new(1), 5.0)));
        assert_eq!(ex.next_nearest(), None);
    }

    #[test]
    fn ignore_mode_is_plain_dijkstra() {
        let (store, _) = line_store();
        let access = Arc::new(DirectAccess::new(store));
        let seeds = seeds_for_location(access.as_ref(), NetworkLocation::Node(NodeId::new(0)));
        let mut ex = Expansion::new(access, 0, &seeds, FacilityMode::Ignore);
        let mut settled = Vec::new();
        loop {
            match ex.advance() {
                ExpansionStep::NodeSettled { node, cost } => settled.push((node, cost)),
                ExpansionStep::Facility { .. } => panic!("facilities must be ignored"),
                ExpansionStep::Exhausted => break,
            }
        }
        assert_eq!(
            settled,
            vec![
                (NodeId::new(0), 0.0),
                (NodeId::new(1), 2.0),
                (NodeId::new(2), 4.0),
                (NodeId::new(3), 6.0),
            ]
        );
    }

    #[test]
    fn frontier_bound_is_monotone() {
        let (store, _) = line_store();
        let access = Arc::new(DirectAccess::new(store));
        let seeds = seeds_for_location(access.as_ref(), NetworkLocation::Node(NodeId::new(0)));
        let mut ex = Expansion::new(access, 0, &seeds, FacilityMode::All);
        let mut last = 0.0;
        while let Some(bound) = ex.frontier_bound() {
            assert!(bound + 1e-12 >= last, "frontier bound decreased");
            last = bound;
            if matches!(ex.advance(), ExpansionStep::Exhausted) {
                break;
            }
        }
    }

    #[test]
    fn directed_edges_are_not_traversed_backwards() {
        let mut b = GraphBuilder::new(1);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        let d = b.add_node(2.0, 0.0);
        // a → c directed, c — d undirected; a facility on each edge.
        let e0 = b
            .add_directed_edge(a, c, CostVec::from_slice(&[4.0]))
            .unwrap();
        let e1 = b.add_edge(c, d, CostVec::from_slice(&[4.0])).unwrap();
        b.add_facility(e0, 0.5).unwrap();
        b.add_facility(e1, 0.5).unwrap();
        let g = b.build().unwrap();
        let store = Arc::new(MCNStore::build_in_memory(&g, BufferConfig::Pages(8)).unwrap());
        let access = Arc::new(DirectAccess::new(store));

        // From c, the directed edge back to a cannot be traversed, and its
        // facility (p0, sitting "behind" the direction of travel) is not
        // reachable via that edge either.
        let seeds = seeds_for_location(access.as_ref(), NetworkLocation::Node(c));
        let mut ex = Expansion::new(access.clone(), 0, &seeds, FacilityMode::All);
        assert_eq!(ex.next_nearest(), Some((FacilityId::new(1), 2.0)));
        assert_eq!(ex.next_nearest(), None);

        // From a, both facilities are reachable.
        let seeds = seeds_for_location(access.as_ref(), NetworkLocation::Node(a));
        let mut ex = Expansion::new(access, 0, &seeds, FacilityMode::All);
        assert_eq!(ex.next_nearest(), Some((FacilityId::new(0), 2.0)));
        assert_eq!(ex.next_nearest(), Some((FacilityId::new(1), 6.0)));
    }
}
