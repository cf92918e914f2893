//! Synthetic road-network generation.
//!
//! The paper evaluates on the San Francisco road network (174,956 nodes,
//! 223,001 edges, average degree ≈ 2.5) produced by the Brinkhoff generator.
//! That dataset is not redistributable here, so this module generates
//! structurally similar networks: a planar grid with per-node jitter, a
//! configurable fraction of removed edges (dead ends, irregular blocks) and a
//! sprinkling of diagonal shortcuts. Degree distribution and locality match
//! what the expansion algorithms care about; see DESIGN.md §3 for the
//! substitution argument.

use mcn_graph::{EdgeId, GraphBuilder, MultiCostGraph, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parameters of the synthetic road network.
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkSpec {
    /// Grid columns.
    pub width: usize,
    /// Grid rows.
    pub height: usize,
    /// Distance between neighbouring intersections (arbitrary length unit).
    pub spacing: f64,
    /// Random jitter applied to node coordinates, as a fraction of `spacing`.
    pub jitter: f64,
    /// Fraction of grid edges removed (dead ends / irregular blocks), in
    /// `[0, 0.4]`. Removal never disconnects the network.
    pub removal_rate: f64,
    /// Fraction of cells that receive a diagonal shortcut edge.
    pub diagonal_rate: f64,
    /// Seed of the deterministic generator.
    pub seed: u64,
}

impl NetworkSpec {
    /// A spec with roughly `target_nodes` nodes and default shape parameters.
    pub fn with_target_nodes(target_nodes: usize, seed: u64) -> Self {
        let side = (target_nodes as f64).sqrt().ceil().max(2.0) as usize;
        Self {
            width: side,
            height: side,
            spacing: 100.0,
            jitter: 0.25,
            removal_rate: 0.12,
            diagonal_rate: 0.05,
            seed,
        }
    }

    /// Number of nodes the spec will produce.
    pub fn num_nodes(&self) -> usize {
        self.width * self.height
    }
}

impl Default for NetworkSpec {
    fn default() -> Self {
        Self::with_target_nodes(10_000, 42)
    }
}

/// The generated topology: node positions, edges and their Euclidean lengths.
/// Costs are assigned separately (see [`crate::costs`]).
#[derive(Clone, Debug)]
pub struct Topology {
    /// Node coordinates, indexed by node.
    pub positions: Vec<(f64, f64)>,
    /// Edges as `(source, target, euclidean_length)`.
    pub edges: Vec<(NodeId, NodeId, f64)>,
}

impl Topology {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.positions.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

/// Generates the road-network topology described by `spec`.
///
/// The result is always connected: edge removal is performed on a shuffled
/// candidate list and skipped whenever it would disconnect the graph (checked
/// with a union-find structure built over the retained edges).
pub fn generate_topology(spec: &NetworkSpec) -> Topology {
    assert!(
        spec.width >= 2 && spec.height >= 2,
        "grid must be at least 2×2"
    );
    assert!(
        (0.0..=0.4).contains(&spec.removal_rate),
        "removal rate must be within [0, 0.4]"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let n = spec.width * spec.height;
    let node = |x: usize, y: usize| NodeId::from(y * spec.width + x);

    let mut positions = Vec::with_capacity(n);
    for y in 0..spec.height {
        for x in 0..spec.width {
            let jx = rng.gen_range(-spec.jitter..=spec.jitter) * spec.spacing;
            let jy = rng.gen_range(-spec.jitter..=spec.jitter) * spec.spacing;
            positions.push((x as f64 * spec.spacing + jx, y as f64 * spec.spacing + jy));
        }
    }
    let length = |a: NodeId, b: NodeId| -> f64 {
        let (ax, ay) = positions[a.index()];
        let (bx, by) = positions[b.index()];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt().max(1e-6)
    };

    // Candidate grid edges.
    let mut candidates: Vec<(NodeId, NodeId)> = Vec::new();
    for y in 0..spec.height {
        for x in 0..spec.width {
            if x + 1 < spec.width {
                candidates.push((node(x, y), node(x + 1, y)));
            }
            if y + 1 < spec.height {
                candidates.push((node(x, y), node(x, y + 1)));
            }
        }
    }

    // Decide which edges to drop without disconnecting the graph: keep a
    // spanning structure first, then drop from the rest.
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut uf = UnionFind::new(n);
    let mut keep = vec![false; candidates.len()];
    let mut kept_extra: Vec<usize> = Vec::new();
    for &i in &order {
        let (a, b) = candidates[i];
        if uf.union(a.index(), b.index()) {
            keep[i] = true; // spanning edge: must stay
        } else {
            kept_extra.push(i);
        }
    }
    // Drop `removal_rate` of *all* candidate edges, taken from the redundant ones.
    let to_drop = ((candidates.len() as f64) * spec.removal_rate).round() as usize;
    for &i in kept_extra.iter().skip(to_drop) {
        keep[i] = true;
    }

    let mut edges: Vec<(NodeId, NodeId, f64)> = candidates
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(&(a, b), _)| (a, b, length(a, b)))
        .collect();

    // Diagonal shortcuts.
    for y in 0..spec.height.saturating_sub(1) {
        for x in 0..spec.width.saturating_sub(1) {
            if rng.gen_bool(spec.diagonal_rate) {
                let (a, b) = (node(x, y), node(x + 1, y + 1));
                edges.push((a, b, length(a, b)));
            }
        }
    }

    Topology { positions, edges }
}

/// Assembles a [`MultiCostGraph`] from a topology and per-edge cost vectors
/// produced by [`crate::costs::assign_costs`].
pub fn build_graph(
    topology: &Topology,
    costs: &[mcn_graph::CostVec],
) -> (MultiCostGraph, Vec<EdgeId>) {
    assert_eq!(
        topology.edges.len(),
        costs.len(),
        "one cost vector per edge"
    );
    let d = costs.first().map(|c| c.len()).unwrap_or(2);
    let mut b = GraphBuilder::with_capacity(d, topology.num_nodes(), topology.num_edges(), 0);
    for &(x, y) in &topology.positions {
        b.add_node(x, y);
    }
    let mut edge_ids = Vec::with_capacity(topology.edges.len());
    for ((a, c, _), w) in topology.edges.iter().zip(costs) {
        edge_ids.push(b.add_edge(*a, *c, *w).expect("generated edge is valid"));
    }
    (b.build().expect("generated graph is valid"), edge_ids)
}

/// Minimal union-find used to keep the generated network connected.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        // Iterative find with full path compression (avoids deep recursion on
        // the long chains that arise before compression kicks in).
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Returns true if the two elements were in different components.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            false
        } else {
            self.parent[ra] = rb;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::{assign_costs, CostDistribution};

    #[test]
    fn generated_topology_has_expected_size_and_connectivity() {
        let spec = NetworkSpec::with_target_nodes(2500, 7);
        let topo = generate_topology(&spec);
        assert_eq!(topo.num_nodes(), spec.num_nodes());
        // Grid edges ≈ 2·n minus borders, minus removals, plus diagonals.
        assert!(topo.num_edges() > topo.num_nodes());
        let costs = assign_costs(&topo, 2, CostDistribution::Independent, 1);
        let (graph, _) = build_graph(&topo, &costs);
        assert!(graph.is_connected(), "generated network must be connected");
        let avg = graph.average_degree();
        assert!(avg > 2.0 && avg < 5.0, "average degree {avg} unrealistic");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = NetworkSpec::with_target_nodes(400, 99);
        let a = generate_topology(&spec);
        let b = generate_topology(&spec);
        assert_eq!(a.edges, b.edges);
        let c = generate_topology(&NetworkSpec {
            seed: 100,
            ..spec.clone()
        });
        assert_ne!(a.edges, c.edges);
    }

    #[test]
    fn edge_lengths_are_positive_and_local() {
        let spec = NetworkSpec::with_target_nodes(900, 3);
        let topo = generate_topology(&spec);
        for &(_, _, len) in &topo.edges {
            assert!(len > 0.0);
            assert!(len < 4.0 * spec.spacing, "edge length {len} is not local");
        }
    }

    #[test]
    #[should_panic]
    fn degenerate_grid_is_rejected() {
        let spec = NetworkSpec {
            width: 1,
            height: 5,
            ..NetworkSpec::default()
        };
        let _ = generate_topology(&spec);
    }
}
