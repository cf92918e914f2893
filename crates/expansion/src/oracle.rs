//! In-memory brute-force oracle: exact cost vectors of every facility, and
//! the skyline and top-k over them.
//!
//! This module runs `d` plain Dijkstra expansions over the *in-memory* graph
//! (no storage layer) and returns, for every facility, the full cost vector
//! `⃗c(q, p) = (c₁(q, p), …, c_d(q, p))`. [`skyline`] and [`top_k`] answer the
//! paper's two preference queries from these vectors by exhaustive
//! comparison; they are the reference that LSA and CEA must agree with
//! exactly.

use mcn_graph::{dominates, CostVec, FacilityId, MultiCostGraph, NetworkLocation, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The exact network distance from `location` to every node of `graph`
/// according to cost type `cost_type`. Unreachable nodes get `+∞`.
pub(crate) fn node_distances(
    graph: &MultiCostGraph,
    location: NetworkLocation,
    cost_type: usize,
) -> Vec<f64> {
    assert!(cost_type < graph.num_cost_types(), "cost type out of range");
    let mut dist = vec![f64::INFINITY; graph.num_nodes()];
    let mut heap: BinaryHeap<DijkstraEntry> = BinaryHeap::new();
    let access = graph.location_access(location);
    for (node, costs) in &access.node_costs {
        let key = costs[cost_type];
        if key < dist[node.index()] {
            dist[node.index()] = key;
            heap.push(DijkstraEntry { key, node: *node });
        }
    }
    while let Some(DijkstraEntry { key, node }) = heap.pop() {
        if key > dist[node.index()] {
            continue;
        }
        for n in graph.neighbors(node) {
            let next = key + n.costs[cost_type];
            if next < dist[n.node.index()] {
                dist[n.node.index()] = next;
                heap.push(DijkstraEntry {
                    key: next,
                    node: n.node,
                });
            }
        }
    }
    dist
}

/// The exact network distance from `location` to every facility according to
/// cost type `cost_type`. Unreachable facilities get `+∞`.
pub(crate) fn facility_distances(
    graph: &MultiCostGraph,
    location: NetworkLocation,
    cost_type: usize,
) -> Vec<f64> {
    let node_dist = node_distances(graph, location, cost_type);
    let mut out = vec![f64::INFINITY; graph.num_facilities()];

    // Reach each facility through the end-nodes of its edge.
    for f in graph.facilities() {
        let e = graph.edge(f.edge);
        let w = e.costs[cost_type];
        let via_source = node_dist[e.source.index()] + f.position * w;
        let mut best = via_source;
        if !e.directed {
            let via_target = node_dist[e.target.index()] + (1.0 - f.position) * w;
            best = best.min(via_target);
        }
        out[f.id.index()] = best;
    }

    // Facilities on the query's own edge may be reachable directly.
    let access = graph.location_access(location);
    for (fid, costs) in &access.direct_facilities {
        let direct = costs[cost_type];
        if direct < out[fid.index()] {
            out[fid.index()] = direct;
        }
    }
    out
}

/// The full cost vector of every facility: `d` Dijkstra runs.
pub fn facility_cost_vectors(graph: &MultiCostGraph, location: NetworkLocation) -> Vec<CostVec> {
    let d = graph.num_cost_types();
    let per_type: Vec<Vec<f64>> = (0..d)
        .map(|i| facility_distances(graph, location, i))
        .collect();
    (0..graph.num_facilities())
        .map(|p| {
            let mut cv = CostVec::zeros(d);
            for i in 0..d {
                cv[i] = per_type[i][p];
            }
            cv
        })
        .collect()
}

/// The skyline of the facilities `location` reaches, in facility order: every
/// reached facility whose cost vector no other reached facility dominates
/// (equal vectors are all kept).
pub fn skyline(graph: &MultiCostGraph, location: NetworkLocation) -> Vec<FacilityId> {
    let reached = reached(graph, location);
    reached
        .iter()
        .filter(|(_, c)| !reached.iter().any(|(_, other)| dominates(other, c)))
        .map(|&(facility, _)| facility)
        .collect()
}

/// The `k` facilities `location` reaches with the smallest `score` of their
/// cost vector, in ascending order of score, ties broken by facility id.
pub fn top_k(
    graph: &MultiCostGraph,
    location: NetworkLocation,
    score: impl Fn(&CostVec) -> f64,
    k: usize,
) -> Vec<(FacilityId, f64)> {
    let mut scored: Vec<(FacilityId, f64)> = reached(graph, location)
        .into_iter()
        .map(|(facility, c)| (facility, score(&c)))
        .collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// Every facility `location` reaches, with its cost vector. Edge costs are
/// finite, so a facility is reached under every cost type or under none: its
/// first cost tells which.
fn reached(graph: &MultiCostGraph, location: NetworkLocation) -> Vec<(FacilityId, CostVec)> {
    facility_cost_vectors(graph, location)
        .into_iter()
        .enumerate()
        .filter(|(_, c)| c[0].is_finite())
        .map(|(i, c)| (FacilityId::from(i), c))
        .collect()
}

struct DijkstraEntry {
    key: f64,
    node: NodeId,
}

impl PartialEq for DijkstraEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for DijkstraEntry {}
impl Ord for DijkstraEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.node.raw().cmp(&self.node.raw()))
    }
}
impl PartialOrd for DijkstraEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_graph::{EdgeId, GraphBuilder};

    /// Square network with a diagonal shortcut for one cost type.
    ///
    /// ```text
    ///   v0 --(1,9)-- v1
    ///    |            |
    ///  (9,1)        (1,1)
    ///    |            |
    ///   v3 --(1,1)-- v2
    /// ```
    fn square() -> MultiCostGraph {
        let mut b = GraphBuilder::new(2);
        let v: Vec<_> = (0..4).map(|i| b.add_node(i as f64, 0.0)).collect();
        let e01 = b
            .add_edge(v[0], v[1], CostVec::from_slice(&[1.0, 9.0]))
            .unwrap();
        b.add_edge(v[1], v[2], CostVec::from_slice(&[1.0, 1.0]))
            .unwrap();
        b.add_edge(v[2], v[3], CostVec::from_slice(&[1.0, 1.0]))
            .unwrap();
        b.add_edge(v[3], v[0], CostVec::from_slice(&[9.0, 1.0]))
            .unwrap();
        b.add_facility(e01, 1.0).unwrap(); // p0 exactly at v1
        b.add_facility(EdgeId::new(2), 0.5).unwrap(); // p1 mid of v2–v3
        b.build().unwrap()
    }

    /// One-way chain a → c — d → s with facility p0 on a → c and p1 on c — d:
    /// from c only p1 is reachable, from the sink s nothing is.
    fn one_way() -> (MultiCostGraph, [NodeId; 4]) {
        let mut b = GraphBuilder::new(2);
        let n: Vec<_> = (0..4).map(|i| b.add_node(i as f64, 0.0)).collect();
        let cost = CostVec::from_slice(&[1.0, 2.0]);
        let e0 = b.add_directed_edge(n[0], n[1], cost).unwrap();
        let e1 = b.add_edge(n[1], n[2], cost).unwrap();
        b.add_directed_edge(n[2], n[3], cost).unwrap();
        b.add_facility(e0, 0.5).unwrap();
        b.add_facility(e1, 0.5).unwrap();
        (b.build().unwrap(), [n[0], n[1], n[2], n[3]])
    }

    #[test]
    fn node_distances_match_hand_computation() {
        let g = square();
        let d0 = node_distances(&g, NetworkLocation::Node(NodeId::new(0)), 0);
        assert_eq!(d0, vec![0.0, 1.0, 2.0, 3.0]);
        let d1 = node_distances(&g, NetworkLocation::Node(NodeId::new(0)), 1);
        assert_eq!(d1, vec![0.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn facility_distances_use_best_end_node() {
        let g = square();
        let q = NetworkLocation::Node(NodeId::new(0));
        let f0 = facility_distances(&g, q, 0);
        // p0 at v1: distance 1 (via edge 0). p1 mid of v2–v3: min(2+0.5, 3+0.5)=2.5.
        assert_eq!(f0, vec![1.0, 2.5]);
        let f1 = facility_distances(&g, q, 1);
        // Cost type 1: to v1 = 3, so p0 = 3 (position 1.0 on edge 0 adds 9·0? —
        // p0 sits at the far end of edge 0, i.e. exactly at v1: min(0+9·1, 3+0)=3).
        // p1: min(d(v2)=2 + 0.5, d(v3)=1 + 0.5) = 1.5.
        assert_eq!(f1, vec![3.0, 1.5]);
    }

    #[test]
    fn query_on_edge_reaches_local_facility_directly() {
        let g = square();
        let q = NetworkLocation::on_edge(EdgeId::new(2), 0.25);
        let f0 = facility_distances(&g, q, 0);
        // p1 is at 0.5 on the same edge: 0.25 of the edge away = 0.25.
        assert!((f0[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cost_vectors_combine_all_types() {
        let g = square();
        let cvs = facility_cost_vectors(&g, NetworkLocation::Node(NodeId::new(0)));
        assert_eq!(cvs.len(), 2);
        assert_eq!(cvs[0].as_slice(), &[1.0, 3.0]);
        assert_eq!(cvs[1].as_slice(), &[2.5, 1.5]);
    }

    #[test]
    fn disconnected_facilities_are_infinite() {
        let mut b = GraphBuilder::new(1);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        let d = b.add_node(5.0, 0.0);
        let e = b.add_node(6.0, 0.0);
        b.add_edge(a, c, CostVec::from_slice(&[1.0])).unwrap();
        let far = b.add_edge(d, e, CostVec::from_slice(&[1.0])).unwrap();
        b.add_facility(far, 0.5).unwrap();
        let g = b.build().unwrap();
        let f = facility_distances(&g, NetworkLocation::Node(a), 0);
        assert!(f[0].is_infinite());
    }

    #[test]
    fn skyline_drops_a_dominated_facility() {
        let g = square();
        // From v0, p0 = (1, 3) and p1 = (2.5, 1.5) are incomparable.
        let q = NetworkLocation::Node(NodeId::new(0));
        assert_eq!(skyline(&g, q), vec![FacilityId::new(0), FacilityId::new(1)]);
        // From v1, p0 = (0, 0) dominates p1 = (1.5, 1.5).
        let q = NetworkLocation::Node(NodeId::new(1));
        assert_eq!(skyline(&g, q), vec![FacilityId::new(0)]);
    }

    #[test]
    fn skyline_keeps_equal_cost_vectors() {
        let g = square();
        // Three quarters along v1 → v2, both facilities cost (0.75, 0.75).
        let q = NetworkLocation::on_edge(EdgeId::new(1), 0.75);
        let cvs = facility_cost_vectors(&g, q);
        assert_eq!(cvs[0].as_slice(), cvs[1].as_slice());
        assert_eq!(skyline(&g, q), vec![FacilityId::new(0), FacilityId::new(1)]);
    }

    #[test]
    fn top_k_breaks_score_ties_by_facility_id() {
        let g = square();
        let (p0, p1) = (FacilityId::new(0), FacilityId::new(1));
        // From v0, p0 = (1, 3) and p1 = (2.5, 1.5) both sum to 4.
        let q = NetworkLocation::Node(NodeId::new(0));
        let sum = |c: &CostVec| c.iter().sum::<f64>();
        assert_eq!(top_k(&g, q, sum, 2), vec![(p0, 4.0), (p1, 4.0)]);
        assert_eq!(top_k(&g, q, sum, 1), vec![(p0, 4.0)]);
        // Without a tie the score decides, not the id.
        assert_eq!(top_k(&g, q, |c| c[1], 1), vec![(p1, 1.5)]);
    }

    #[test]
    fn unreached_facilities_are_in_no_skyline_and_no_top_k() {
        let (g, [_, c, _, sink]) = one_way();
        let sum = |cv: &CostVec| cv.iter().sum::<f64>();
        let from_c = NetworkLocation::Node(c);
        assert_eq!(skyline(&g, from_c), vec![FacilityId::new(1)]);
        assert_eq!(top_k(&g, from_c, sum, 5), vec![(FacilityId::new(1), 1.5)]);
        // From the sink both cost vectors are (+∞, +∞): equal, so neither
        // dominates the other, yet neither facility is reached.
        let from_sink = NetworkLocation::Node(sink);
        assert!(facility_cost_vectors(&g, from_sink)
            .iter()
            .all(|cv| cv.iter().all(|x| x.is_infinite())));
        assert!(skyline(&g, from_sink).is_empty());
        assert!(top_k(&g, from_sink, sum, 5).is_empty());
    }

    #[test]
    fn directed_edge_facility_only_reachable_forward() {
        let mut b = GraphBuilder::new(1);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        let e = b
            .add_directed_edge(a, c, CostVec::from_slice(&[10.0]))
            .unwrap();
        b.add_facility(e, 0.5).unwrap();
        let g = b.build().unwrap();
        // From a (the source) the facility is 5 away.
        let fa = facility_distances(&g, NetworkLocation::Node(a), 0);
        assert_eq!(fa[0], 5.0);
        // From c (the target) it cannot be reached at all (no way back).
        let fc = facility_distances(&g, NetworkLocation::Node(c), 0);
        assert!(fc[0].is_infinite());
    }
}
