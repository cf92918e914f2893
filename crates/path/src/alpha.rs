//! Scalarized preference serving tier: α-personalized fastest paths.
//!
//! The skyline machinery in [`crate::mcpp`] answers "all Pareto-optimal
//! routes" — the *explore* tier. A production service mostly answers "the best
//! route for this user": a linear scalarization α·cost over the d cost types,
//! which collapses the multi-cost search to a single-criterion shortest path
//! that is orders of magnitude cheaper than a full path skyline — the
//! *serve* tier.
//!
//! The module provides:
//!
//! - [`Preference`] — a user's weight vector α on the standard simplex
//!   Δ^{d-1} (validated, normalized);
//! - [`scalarized_path`] — a deterministic binary-heap Dijkstra over the
//!   α-collapsed edge costs;
//! - [`scalarized_path_astar`] — the same search driven by the admissible,
//!   consistent heuristic [`table_bound`]: α split as λ·1 + μ (λ = min_i
//!   α_i), h(v) = λ·max(S(v), Σ_i L_i(v)) + μ·L(v), where L(v) are the
//!   per-cost lower bounds and S(v) the summed-cost distance of a
//!   [`PrepTable`](crate::prep::PrepTable);
//! - [`scalarized_path_landmarks`] — the same search driven by landmark
//!   bounds ([`landmark_bound`]) from prep tables of *other* targets, for a
//!   target that has no table of its own;
//! - [`ScalarStats`] — pushed/settled/relaxed/pruned counters, which the
//!   route index in [`crate::index`] reports for its queries too.
//!
//! Determinism contract: identical inputs produce byte-identical results —
//! the heap tie-breaks on node id, and the A* variants reconstruct the
//! exact same shortest-path tree edges as the plain Dijkstra whenever the
//! optimum is unique (which seeded continuous costs guarantee).

pub use crate::preference::Preference;
pub use crate::search::{
    landmark_bound, scalarized_path, scalarized_path_astar, scalarized_path_landmarks, table_bound,
    ScalarPath, ScalarResult, ScalarStats, HEURISTIC_DEFLATION,
};
