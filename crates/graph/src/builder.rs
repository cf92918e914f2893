//! Validated construction of [`MultiCostGraph`] instances.

use crate::cost::CostVec;
use crate::edge::Edge;
use crate::error::GraphError;
use crate::facility::Facility;
use crate::graph::{Csr, MultiCostGraph};
use crate::ids::{EdgeId, FacilityId, NodeId};
use crate::node::Node;

/// Incremental, validating builder for [`MultiCostGraph`].
///
/// Nodes, edges and facilities receive dense, zero-based identifiers in the
/// order they are added. Every mutation is validated eagerly (unknown node,
/// wrong cost dimensionality, invalid facility position, …) so that
/// [`GraphBuilder::build`] can only fail on graph-global conditions.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_cost_types: usize,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    facilities: Vec<Facility>,
    allow_self_loops: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_cost_types` cost types.
    ///
    /// # Panics
    /// Panics if `num_cost_types` is zero or exceeds
    /// [`crate::MAX_COST_TYPES`].
    pub fn new(num_cost_types: usize) -> Self {
        // CostVec::zeros performs the range validation.
        let _ = CostVec::zeros(num_cost_types);
        Self {
            num_cost_types,
            nodes: Vec::new(),
            edges: Vec::new(),
            facilities: Vec::new(),
            allow_self_loops: false,
        }
    }

    /// Pre-allocates capacity for the given numbers of nodes, edges and
    /// facilities.
    pub fn with_capacity(
        num_cost_types: usize,
        nodes: usize,
        edges: usize,
        facilities: usize,
    ) -> Self {
        let mut b = Self::new(num_cost_types);
        b.nodes.reserve(nodes);
        b.edges.reserve(edges);
        b.facilities.reserve(facilities);
        b
    }

    /// Number of cost types the graph under construction will have.
    #[inline]
    pub fn num_cost_types(&self) -> usize {
        self.num_cost_types
    }

    /// Number of nodes added so far.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges added so far.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of facilities added so far.
    #[inline]
    pub fn num_facilities(&self) -> usize {
        self.facilities.len()
    }

    /// Permits self-loop edges (disallowed by default).
    pub fn allow_self_loops(&mut self, allow: bool) -> &mut Self {
        self.allow_self_loops = allow;
        self
    }

    /// Adds a node with coordinates and returns its identifier.
    pub fn add_node(&mut self, x: f64, y: f64) -> NodeId {
        let id = NodeId::from(self.nodes.len());
        self.nodes.push(Node::new(id, x, y));
        id
    }

    fn validate_edge(
        &self,
        id: EdgeId,
        source: NodeId,
        target: NodeId,
        costs: &CostVec,
    ) -> Result<(), GraphError> {
        if source.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(source));
        }
        if target.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(target));
        }
        if source == target && !self.allow_self_loops {
            return Err(GraphError::SelfLoop(id));
        }
        if costs.len() != self.num_cost_types {
            return Err(GraphError::CostDimensionMismatch {
                edge: id,
                expected: self.num_cost_types,
                found: costs.len(),
            });
        }
        if !costs.is_valid() {
            return Err(GraphError::InvalidCost(id));
        }
        Ok(())
    }

    /// Adds an undirected edge and returns its identifier.
    pub fn add_edge(
        &mut self,
        source: NodeId,
        target: NodeId,
        costs: CostVec,
    ) -> Result<EdgeId, GraphError> {
        let id = EdgeId::from(self.edges.len());
        self.validate_edge(id, source, target, &costs)?;
        self.edges.push(Edge::new(id, source, target, costs));
        Ok(id)
    }

    /// Adds a directed edge (traversable only from `source` to `target`) and
    /// returns its identifier.
    pub fn add_directed_edge(
        &mut self,
        source: NodeId,
        target: NodeId,
        costs: CostVec,
    ) -> Result<EdgeId, GraphError> {
        let id = EdgeId::from(self.edges.len());
        self.validate_edge(id, source, target, &costs)?;
        self.edges
            .push(Edge::new_directed(id, source, target, costs));
        Ok(id)
    }

    /// Adds a facility at fraction `position` along `edge` and returns its
    /// identifier.
    pub fn add_facility(&mut self, edge: EdgeId, position: f64) -> Result<FacilityId, GraphError> {
        let id = FacilityId::from(self.facilities.len());
        if edge.index() >= self.edges.len() {
            return Err(GraphError::UnknownEdge(edge));
        }
        if !(0.0..=1.0).contains(&position) || !position.is_finite() {
            return Err(GraphError::InvalidFacilityPosition {
                facility: id,
                position,
            });
        }
        self.facilities.push(Facility { id, edge, position });
        Ok(id)
    }

    /// Finalizes the builder into an immutable [`MultiCostGraph`].
    ///
    /// # Errors
    /// Returns [`GraphError::EmptyGraph`] if no nodes were added.
    pub fn build(self) -> Result<MultiCostGraph, GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::EmptyGraph);
        }
        // Rows list ids in insertion order: a node's incident edges by edge
        // id, an edge's facilities by facility id.
        let adjacency = Csr::build(self.nodes.len(), || {
            self.edges.iter().flat_map(|e| {
                let back = (e.source != e.target).then_some((e.target.index(), e.id));
                std::iter::once((e.source.index(), e.id)).chain(back)
            })
        });
        let edge_facilities = Csr::build(self.edges.len(), || {
            self.facilities.iter().map(|f| (f.edge.index(), f.id))
        });
        let has_directed_edges = self.edges.iter().any(|e| e.directed);
        Ok(MultiCostGraph {
            num_cost_types: self.num_cost_types,
            nodes: self.nodes,
            edges: self.edges,
            facilities: self.facilities,
            adjacency,
            edge_facilities,
            has_directed_edges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_rejects_empty_graph() {
        let b = GraphBuilder::new(2);
        assert_eq!(b.build().unwrap_err(), GraphError::EmptyGraph);
    }

    #[test]
    fn edge_validation() {
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);

        // Unknown node.
        let err = b
            .add_edge(a, NodeId::new(9), CostVec::from_slice(&[1.0, 1.0]))
            .unwrap_err();
        assert_eq!(err, GraphError::UnknownNode(NodeId::new(9)));

        // Wrong dimensionality.
        let err = b.add_edge(a, c, CostVec::from_slice(&[1.0])).unwrap_err();
        assert!(matches!(err, GraphError::CostDimensionMismatch { .. }));

        // Negative cost.
        let err = b
            .add_edge(a, c, CostVec::from_slice(&[1.0, -3.0]))
            .unwrap_err();
        assert!(matches!(err, GraphError::InvalidCost(_)));

        // Self-loop rejected by default…
        let err = b
            .add_edge(a, a, CostVec::from_slice(&[1.0, 1.0]))
            .unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop(_)));
        // …but allowed when opted in.
        b.allow_self_loops(true);
        assert!(b.add_edge(a, a, CostVec::from_slice(&[1.0, 1.0])).is_ok());
    }

    #[test]
    fn facility_validation() {
        let mut b = GraphBuilder::new(1);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        let e = b.add_edge(a, c, CostVec::from_slice(&[1.0])).unwrap();

        assert!(b.add_facility(e, 0.3).is_ok());
        assert!(matches!(
            b.add_facility(EdgeId::new(5), 0.3),
            Err(GraphError::UnknownEdge(_))
        ));
        assert!(matches!(
            b.add_facility(e, 1.5),
            Err(GraphError::InvalidFacilityPosition { .. })
        ));
        assert!(matches!(
            b.add_facility(e, f64::NAN),
            Err(GraphError::InvalidFacilityPosition { .. })
        ));
    }

    #[test]
    fn dense_identifiers_in_insertion_order() {
        let mut b = GraphBuilder::with_capacity(1, 4, 3, 2);
        let ids: Vec<NodeId> = (0..4).map(|i| b.add_node(i as f64, 0.0)).collect();
        assert_eq!(ids, (0..4).map(NodeId::new).collect::<Vec<_>>());
        let e0 = b
            .add_edge(ids[0], ids[1], CostVec::from_slice(&[1.0]))
            .unwrap();
        let e1 = b
            .add_edge(ids[1], ids[2], CostVec::from_slice(&[1.0]))
            .unwrap();
        assert_eq!((e0, e1), (EdgeId::new(0), EdgeId::new(1)));
        let p0 = b.add_facility(e0, 0.0).unwrap();
        let p1 = b.add_facility(e1, 1.0).unwrap();
        assert_eq!((p0, p1), (FacilityId::new(0), FacilityId::new(1)));
        assert_eq!(b.num_nodes(), 4);
        assert_eq!(b.num_edges(), 2);
        assert_eq!(b.num_facilities(), 2);
        let g = b.build().unwrap();
        assert_eq!(g.num_nodes(), 4);
    }

    #[test]
    fn adjacency_and_facility_lists_are_built() {
        let mut b = GraphBuilder::new(1);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        let d = b.add_node(2.0, 0.0);
        let e0 = b.add_edge(a, c, CostVec::from_slice(&[1.0])).unwrap();
        let e1 = b.add_edge(c, d, CostVec::from_slice(&[1.0])).unwrap();
        b.add_facility(e1, 0.5).unwrap();
        b.add_facility(e1, 0.7).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.incident_edges(c), &[e0, e1]);
        assert_eq!(g.facilities_on_edge(e1).len(), 2);
    }
}
