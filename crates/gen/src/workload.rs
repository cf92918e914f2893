//! End-to-end workload assembly: network + costs + facilities + queries.

use crate::costs::{assign_costs, CostDistribution};
use crate::facilities::{place_facilities, FacilitySpec};
use crate::network::{build_graph, generate_topology, NetworkSpec};
use mcn_graph::{GraphBuilder, MultiCostGraph, NetworkLocation, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Full description of a synthetic experiment workload, mirroring the
/// parameters of the paper's Section VI (network, |P|, d, cost distribution,
/// number of query locations).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Approximate number of network nodes.
    pub nodes: usize,
    /// Number of facilities |P|.
    pub facilities: usize,
    /// Number of cost types d.
    pub cost_types: usize,
    /// Joint distribution of the edge costs.
    pub distribution: CostDistribution,
    /// Number of facility clusters (10 in the paper).
    pub clusters: usize,
    /// Number of random query locations to generate.
    pub queries: usize,
    /// Master seed; every derived generator is seeded deterministically.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The paper's default parameters (|P| = 100 K, d = 4, anti-correlated,
    /// 10 clusters, San-Francisco-sized network, 100 queries).
    ///
    /// Running this at full size is expensive; the experiment harness scales
    /// it down by default (see `mcn-bench`).
    pub fn paper_default() -> Self {
        Self {
            nodes: 175_000,
            facilities: 100_000,
            cost_types: 4,
            distribution: CostDistribution::AntiCorrelated,
            clusters: 10,
            queries: 100,
            seed: 2010,
        }
    }

    /// The paper's defaults scaled down by `factor` (nodes, facilities and
    /// query count are divided by it). `factor = 1` is the full-size workload.
    pub fn paper_scaled(factor: usize) -> Self {
        assert!(factor >= 1);
        let base = Self::paper_default();
        Self {
            nodes: (base.nodes / factor).max(100),
            facilities: (base.facilities / factor).max(10),
            queries: (base.queries / factor.min(5)).max(5),
            ..base
        }
    }

    /// A small workload suitable for unit tests and doc examples.
    pub fn tiny(seed: u64) -> Self {
        Self {
            nodes: 900,
            facilities: 300,
            cost_types: 3,
            distribution: CostDistribution::AntiCorrelated,
            clusters: 4,
            queries: 5,
            seed,
        }
    }
}

/// A fully materialised workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The generated multi-cost network with facilities embedded.
    pub graph: MultiCostGraph,
    /// Query locations (uniformly random network nodes, as in the paper).
    pub queries: Vec<NetworkLocation>,
    /// The spec the workload was generated from.
    pub spec: WorkloadSpec,
}

/// Generates the workload described by `spec`. Fully deterministic in
/// `spec.seed`.
pub fn generate_workload(spec: &WorkloadSpec) -> Workload {
    let network_spec = NetworkSpec::with_target_nodes(spec.nodes, spec.seed);
    let topology = generate_topology(&network_spec);
    let costs = assign_costs(&topology, spec.cost_types, spec.distribution, spec.seed);

    // Build an intermediate graph (without facilities) to run the clustered
    // placement, then assemble the final graph with facilities included.
    let (skeleton, edge_ids) = build_graph(&topology, &costs);
    let facility_spec = FacilitySpec {
        count: spec.facilities,
        clusters: spec.clusters,
        sigma_hops: 8.0,
        seed: spec.seed.wrapping_add(1),
    };
    let placements = place_facilities(&skeleton, &facility_spec);

    let mut builder = GraphBuilder::with_capacity(
        spec.cost_types,
        topology.num_nodes(),
        topology.num_edges(),
        spec.facilities,
    );
    for &(x, y) in &topology.positions {
        builder.add_node(x, y);
    }
    for ((a, b, _), w) in topology.edges.iter().zip(&costs) {
        builder
            .add_edge(*a, *b, *w)
            .expect("edge re-insertion is valid");
    }
    for (edge, position) in placements {
        // Edge identifiers are identical between the skeleton and the rebuilt
        // graph because edges are inserted in the same order.
        debug_assert!(edge_ids.contains(&edge) || edge.index() < topology.num_edges());
        builder
            .add_facility(edge, position)
            .expect("placement is valid");
    }
    let graph = builder.build().expect("workload graph is valid");

    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed.wrapping_add(2));
    let queries = (0..spec.queries)
        .map(|_| NetworkLocation::Node(NodeId::from(rng.gen_range(0..graph.num_nodes()))))
        .collect();

    Workload {
        graph,
        queries,
        spec: spec.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_workload_matches_its_spec() {
        let spec = WorkloadSpec::tiny(3);
        let w = generate_workload(&spec);
        assert_eq!(w.graph.num_facilities(), spec.facilities);
        assert_eq!(w.graph.num_cost_types(), spec.cost_types);
        assert_eq!(w.queries.len(), spec.queries);
        assert!(w.graph.num_nodes() >= spec.nodes);
        assert!(w.graph.is_connected());
    }

    #[test]
    fn workload_generation_is_deterministic() {
        let spec = WorkloadSpec::tiny(8);
        let a = generate_workload(&spec);
        let b = generate_workload(&spec);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        assert_eq!(
            a.graph.facilities().collect::<Vec<_>>(),
            b.graph.facilities().collect::<Vec<_>>()
        );
    }

    #[test]
    fn paper_scaled_reduces_size_sensibly() {
        let full = WorkloadSpec::paper_default();
        let scaled = WorkloadSpec::paper_scaled(50);
        assert_eq!(scaled.cost_types, full.cost_types);
        assert_eq!(scaled.distribution, full.distribution);
        assert!(scaled.nodes <= full.nodes / 40);
        assert!(scaled.facilities <= full.facilities / 40);
        assert!(scaled.queries >= 5);
    }

    #[test]
    fn queries_fall_on_existing_nodes() {
        let w = generate_workload(&WorkloadSpec::tiny(5));
        for q in &w.queries {
            match q {
                NetworkLocation::Node(n) => assert!(n.index() < w.graph.num_nodes()),
                NetworkLocation::OnEdge { .. } => panic!("default queries are node-based"),
            }
        }
    }
}
