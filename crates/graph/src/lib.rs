//! # mcn-graph
//!
//! In-memory model of a **multi-cost transportation network** (MCN) as defined by
//! Mouratidis, Lin and Yiu, *"Preference Queries in Large Multi-Cost Transportation
//! Networks"*, ICDE 2010.
//!
//! An MCN is a graph `G = {V, E, W}` whose edges carry a *d*-dimensional,
//! non-negative **cost vector** (e.g. Euclidean length, driving time, walking time,
//! toll fee). A set of **facilities** (points of interest) lies on the edges of the
//! network; queries originate from a **network location** which may be a node or a
//! point in the interior of an edge.
//!
//! This crate contains only the logical model: identifiers, cost vectors and
//! dominance tests, nodes/edges/facilities, network locations, paths, and a
//! validated [`GraphBuilder`]. The disk-resident representation used by the query
//! algorithms lives in `mcn-storage`; the algorithms themselves live in `mcn-core`.
//!
//! ## Quick example
//!
//! ```
//! use mcn_graph::{GraphBuilder, CostVec, NodeId};
//!
//! // A triangle network with two cost types (say, minutes and dollars).
//! let mut b = GraphBuilder::new(2);
//! let a = b.add_node(0.0, 0.0);
//! let c = b.add_node(1.0, 0.0);
//! let d = b.add_node(0.0, 1.0);
//! b.add_edge(a, c, CostVec::from_slice(&[10.0, 0.0])).unwrap();
//! b.add_edge(c, d, CostVec::from_slice(&[5.0, 1.0])).unwrap();
//! b.add_edge(a, d, CostVec::from_slice(&[20.0, 0.0])).unwrap();
//! let g = b.build().unwrap();
//! assert_eq!(g.num_nodes(), 3);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.num_cost_types(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod cost;
pub mod dominance;
pub mod edge;
pub mod error;
pub mod facility;
pub mod front2;
pub mod graph;
pub mod ids;
pub mod location;
pub mod node;
pub mod partition;
pub mod path;

pub use builder::GraphBuilder;
pub use cost::{CostVec, MAX_COST_TYPES};
pub use dominance::{dominates, dominates_weak, incomparable, DominanceRelation};
pub use edge::Edge;
pub use error::GraphError;
pub use facility::Facility;
pub use front2::Front2;
pub use graph::MultiCostGraph;
pub use ids::{EdgeId, FacilityId, NodeId, RegionId};
pub use location::NetworkLocation;
pub use node::Node;
pub use partition::{partition_graph, PartitionMap, PartitionSpec};
pub use path::Path;

/// Compile-time thread-safety proof: instantiated in a `const _` next to
/// each shared type, so the build fails the moment a field change makes the
/// type lose `Send`/`Sync`.
pub(crate) const fn assert_send_sync<T: Send + Sync>() {}
