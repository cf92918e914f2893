//! Deterministic graph partitioning into connected regions.
//!
//! The disk-resident store can be sharded by graph region (`mcn-storage`'s
//! `PartitionedStore`): each region holds the adjacency records of its own
//! nodes, so a query expanding locally touches mostly one shard. This module
//! produces the [`PartitionMap`] that drives the sharding and the
//! region-affine scheduling on top of it.
//!
//! Partitioning is a **BFS growing** scheme: `regions` seed nodes are chosen
//! spread over the id space (jittered deterministically from the spec's
//! seed), then all regions grow breadth-first in round-robin, one settled
//! node per region per round, claiming unassigned neighbours. Round-robin
//! growth keeps the regions balanced; BFS keeps them connected and compact,
//! which is what bounds the cross-region edge fraction. Components that no
//! seed can reach are flooded into the currently smallest region.
//!
//! Everything is deterministic in `(spec, graph)`: same seed and spec on the
//! same graph yields an identical map, run after run.

use crate::graph::MultiCostGraph;
use crate::ids::{NodeId, RegionId};
use crate::location::NetworkLocation;
use std::collections::VecDeque;

/// Parameters of the BFS-growing partitioner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Number of regions to grow (clamped to the node count).
    pub regions: usize,
    /// Seed jittering the region seed nodes.
    pub seed: u64,
}

impl PartitionSpec {
    /// A spec with the given region count and the default seed.
    pub fn new(regions: usize) -> Self {
        Self {
            regions,
            seed: 2010,
        }
    }
}

/// The result of partitioning a graph: one region per node, plus the
/// boundary-edge accounting the partitioned store and the experiments report.
///
/// Use the accessors, which uphold the documented invariants
/// (`assignment[v] < num_regions` for every node, `region_sizes` summing to
/// the node count, and per-region boundary counts summing to
/// `2 × boundary_edges`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionMap {
    /// Number of regions (≥ 1).
    pub num_regions: u32,
    /// Region of each node, indexed by `NodeId::index()`.
    pub assignment: Vec<u32>,
    /// Number of nodes per region.
    pub region_sizes: Vec<u32>,
    /// Edges whose end-nodes lie in different regions.
    pub boundary_edges: u64,
    /// Boundary edges incident to each region (each boundary edge is counted
    /// once from each side, so these sum to `2 × boundary_edges`).
    pub region_boundary: Vec<u64>,
    /// The seed the map was grown from (provenance only).
    pub seed: u64,
}

impl PartitionMap {
    /// The trivial map: every node in region 0 (the monolithic layout).
    pub fn single(num_nodes: usize) -> Self {
        Self {
            num_regions: 1,
            assignment: vec![0; num_nodes],
            region_sizes: vec![num_nodes as u32],
            boundary_edges: 0,
            region_boundary: vec![0],
            seed: 0,
        }
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.num_regions as usize
    }

    /// Number of nodes the map covers.
    pub fn num_nodes(&self) -> usize {
        self.assignment.len()
    }

    /// The region of `node`.
    ///
    /// # Panics
    /// Panics if the node is not covered by the map.
    pub fn region_of(&self, node: NodeId) -> RegionId {
        RegionId::new(self.assignment[node.index()])
    }

    /// Nodes per region.
    pub fn region_sizes(&self) -> &[u32] {
        &self.region_sizes
    }

    /// Number of edges crossing a region boundary.
    pub fn boundary_edges(&self) -> u64 {
        self.boundary_edges
    }

    /// Boundary edges incident to each region.
    pub fn region_boundary(&self) -> &[u64] {
        &self.region_boundary
    }

    /// The region a query location is seeded in: the node's region, or the
    /// region of the edge's source node for a location in an edge interior.
    pub fn region_of_location(
        &self,
        graph: &MultiCostGraph,
        location: NetworkLocation,
    ) -> RegionId {
        match location {
            NetworkLocation::Node(node) => self.region_of(node),
            NetworkLocation::OnEdge { edge, .. } => self.region_of(graph.edge(edge).source),
        }
    }

    /// Checks the documented invariants.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_regions == 0 {
            return Err("a partition needs at least one region".into());
        }
        if self.region_sizes.len() != self.num_regions as usize
            || self.region_boundary.len() != self.num_regions as usize
        {
            return Err(format!(
                "per-region vectors ({} sizes, {} boundary counts) do not match {} regions",
                self.region_sizes.len(),
                self.region_boundary.len(),
                self.num_regions
            ));
        }
        if let Some(bad) = self.assignment.iter().find(|&&r| r >= self.num_regions) {
            return Err(format!(
                "node assigned to region {bad} outside the {} regions",
                self.num_regions
            ));
        }
        let total: u64 = self.region_sizes.iter().map(|&s| s as u64).sum();
        if total != self.assignment.len() as u64 {
            return Err(format!(
                "region sizes sum to {total}, but {} nodes are assigned",
                self.assignment.len()
            ));
        }
        let sides: u64 = self.region_boundary.iter().sum();
        if sides != 2 * self.boundary_edges {
            return Err(format!(
                "per-region boundary counts sum to {sides}, expected 2 × {}",
                self.boundary_edges
            ));
        }
        Ok(())
    }
}

/// `splitmix64`: a tiny deterministic mixer, enough to jitter seed choices
/// without pulling a full RNG into the graph crate.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Partitions `graph` into `spec.regions` BFS-grown regions.
///
/// Every node is assigned exactly one region; the returned map always passes
/// [`PartitionMap::validate`]. The region count is clamped to the number of
/// nodes (an empty graph yields a single empty region).
pub fn partition_graph(graph: &MultiCostGraph, spec: &PartitionSpec) -> PartitionMap {
    let n = graph.num_nodes();
    if n == 0 {
        let mut map = PartitionMap::single(0);
        map.seed = spec.seed;
        return map;
    }
    let regions = spec.regions.clamp(1, n.max(1));
    const UNASSIGNED: u32 = u32::MAX;
    let mut assignment = vec![UNASSIGNED; n];
    let mut queues: Vec<VecDeque<NodeId>> = vec![VecDeque::new(); regions];
    let mut sizes = vec![0u32; regions];

    // Seed nodes: evenly spaced over the id space, jittered within their
    // stride so different seeds explore different layouts. Collisions (tiny
    // graphs) fall forward to the next unassigned id.
    let mut mix = spec.seed ^ 0xC0FF_EE00_2010_1CDE;
    for r in 0..regions {
        let stride = n / regions;
        let base = r * stride;
        let jitter = if stride > 1 {
            (splitmix64(&mut mix) % stride as u64) as usize
        } else {
            0
        };
        let mut idx = (base + jitter) % n;
        while assignment[idx] != UNASSIGNED {
            idx = (idx + 1) % n;
        }
        assignment[idx] = r as u32;
        sizes[r] += 1;
        queues[r].push_back(NodeId::from(idx));
    }

    // Round-robin BFS growth: one settled node per region per round, so
    // regions expand at the same rate regardless of where their seed sits.
    let mut remaining: usize = queues.iter().map(|q| q.len()).sum();
    while remaining > 0 {
        for r in 0..regions {
            let Some(v) = queues[r].pop_front() else {
                continue;
            };
            remaining -= 1;
            for &eid in graph.incident_edges(v) {
                let u = graph.edge(eid).opposite(v);
                if assignment[u.index()] == UNASSIGNED {
                    assignment[u.index()] = r as u32;
                    sizes[r] += 1;
                    queues[r].push_back(u);
                    remaining += 1;
                }
            }
        }
    }

    // Disconnected leftovers: flood each remaining component into the
    // currently smallest region (deterministic: nodes visited in id order,
    // ties broken by the lowest region id).
    for start in 0..n {
        if assignment[start] != UNASSIGNED {
            continue;
        }
        let r = (0..regions).min_by_key(|&r| (sizes[r], r)).unwrap_or(0);
        let mut queue = VecDeque::from([NodeId::from(start)]);
        assignment[start] = r as u32;
        sizes[r] += 1;
        while let Some(v) = queue.pop_front() {
            for &eid in graph.incident_edges(v) {
                let u = graph.edge(eid).opposite(v);
                if assignment[u.index()] == UNASSIGNED {
                    assignment[u.index()] = r as u32;
                    sizes[r] += 1;
                    queue.push_back(u);
                }
            }
        }
    }

    // Boundary accounting, counted once per edge and once per incident side.
    let mut boundary_edges = 0u64;
    let mut region_boundary = vec![0u64; regions];
    for e in graph.edges() {
        let a = assignment[e.source.index()];
        let b = assignment[e.target.index()];
        if a != b {
            boundary_edges += 1;
            region_boundary[a as usize] += 1;
            region_boundary[b as usize] += 1;
        }
    }

    let map = PartitionMap {
        num_regions: regions as u32,
        assignment,
        region_sizes: sizes,
        boundary_edges,
        region_boundary,
        seed: spec.seed,
    };
    debug_assert!(map.validate().is_ok());
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::cost::CostVec;
    use crate::ids::EdgeId;

    /// A `width × height` grid with unit costs (d = 2).
    fn grid(width: usize, height: usize) -> MultiCostGraph {
        let mut b = GraphBuilder::new(2);
        let ids: Vec<_> = (0..width * height)
            .map(|i| b.add_node((i % width) as f64, (i / width) as f64))
            .collect();
        for y in 0..height {
            for x in 0..width {
                let v = ids[y * width + x];
                if x + 1 < width {
                    b.add_edge(v, ids[y * width + x + 1], CostVec::from_slice(&[1.0, 2.0]))
                        .unwrap();
                }
                if y + 1 < height {
                    b.add_edge(
                        v,
                        ids[(y + 1) * width + x],
                        CostVec::from_slice(&[1.0, 2.0]),
                    )
                    .unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn every_node_gets_exactly_one_region() {
        let g = grid(12, 9);
        for regions in [1, 2, 4, 8] {
            let map = partition_graph(&g, &PartitionSpec::new(regions));
            assert_eq!(map.num_regions(), regions);
            assert_eq!(map.num_nodes(), g.num_nodes());
            map.validate().expect("map is consistent");
            let total: u32 = map.region_sizes().iter().sum();
            assert_eq!(total as usize, g.num_nodes());
        }
    }

    #[test]
    fn same_seed_and_spec_is_deterministic() {
        let g = grid(15, 10);
        let spec = PartitionSpec {
            regions: 4,
            seed: 77,
        };
        let a = partition_graph(&g, &spec);
        let b = partition_graph(&g, &spec);
        assert_eq!(a, b);
        // A different seed is allowed to (and here does) move the layout.
        let c = partition_graph(
            &g,
            &PartitionSpec {
                regions: 4,
                seed: 78,
            },
        );
        assert_ne!(a.assignment, c.assignment);
    }

    #[test]
    fn boundary_counts_are_consistent_from_both_sides() {
        let g = grid(10, 10);
        let map = partition_graph(&g, &PartitionSpec::new(4));
        // Recount from scratch and compare with the stored accounting.
        let mut expected = 0u64;
        let mut sides = vec![0u64; map.num_regions()];
        for e in g.edges() {
            let a = map.region_of(e.source);
            let b = map.region_of(e.target);
            if a != b {
                expected += 1;
                sides[a.index()] += 1;
                sides[b.index()] += 1;
            }
        }
        assert_eq!(map.boundary_edges(), expected);
        assert_eq!(map.region_boundary(), sides.as_slice());
        assert!(expected > 0, "4 regions on a grid must cut some edges");
    }

    #[test]
    fn one_region_has_no_boundary() {
        let g = grid(6, 6);
        let map = partition_graph(&g, &PartitionSpec::new(1));
        assert_eq!(map.boundary_edges(), 0);
        assert_eq!(map.region_sizes(), &[36]);
        assert_eq!(map, {
            let mut single = PartitionMap::single(36);
            single.seed = map.seed;
            single
        });
    }

    #[test]
    fn regions_grow_balanced_on_a_grid() {
        let g = grid(20, 20);
        let map = partition_graph(&g, &PartitionSpec::new(4));
        let min = *map.region_sizes().iter().min().unwrap() as f64;
        let max = *map.region_sizes().iter().max().unwrap() as f64;
        // Round-robin BFS keeps regions within a reasonable factor.
        assert!(
            max / min <= 2.5,
            "unbalanced regions: {:?}",
            map.region_sizes()
        );
    }

    #[test]
    fn more_regions_than_nodes_is_clamped() {
        let g = grid(2, 2);
        let map = partition_graph(&g, &PartitionSpec::new(64));
        assert_eq!(map.num_regions(), 4);
        map.validate().unwrap();
    }

    #[test]
    fn disconnected_components_are_assigned() {
        // Two disjoint paths: BFS from seeds in one component must still
        // cover the other.
        let mut b = GraphBuilder::new(1);
        let ids: Vec<_> = (0..8).map(|i| b.add_node(i as f64, 0.0)).collect();
        b.add_edge(ids[0], ids[1], CostVec::from_slice(&[1.0]))
            .unwrap();
        b.add_edge(ids[1], ids[2], CostVec::from_slice(&[1.0]))
            .unwrap();
        b.add_edge(ids[4], ids[5], CostVec::from_slice(&[1.0]))
            .unwrap();
        b.add_edge(ids[6], ids[7], CostVec::from_slice(&[1.0]))
            .unwrap();
        let g = b.build().unwrap();
        let map = partition_graph(&g, &PartitionSpec::new(2));
        map.validate().unwrap();
        assert!(map.assignment.iter().all(|&r| r < 2));
    }

    #[test]
    fn location_regions_follow_nodes_and_edge_sources() {
        let g = grid(6, 6);
        let map = partition_graph(&g, &PartitionSpec::new(3));
        let node = NodeId::new(7);
        assert_eq!(
            map.region_of_location(&g, NetworkLocation::Node(node)),
            map.region_of(node)
        );
        let edge = EdgeId::new(5);
        assert_eq!(
            map.region_of_location(&g, NetworkLocation::on_edge(edge, 0.4)),
            map.region_of(g.edge(edge).source)
        );
    }

    #[test]
    fn validate_names_the_broken_invariant() {
        let g = grid(8, 8);
        let map = partition_graph(&g, &PartitionSpec::new(4));
        let mut broken = map.clone();
        broken.region_sizes[0] += 1;
        assert!(broken.validate().unwrap_err().contains("sum"));
        let mut broken = map.clone();
        broken.assignment[0] = 99;
        assert!(broken.validate().unwrap_err().contains("region 99"));
    }
}
