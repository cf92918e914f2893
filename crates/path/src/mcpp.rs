//! **Multi-criteria Pareto path computation** (MCPP): given a source and a
//! destination node in a multi-cost network, compute the *skyline of paths*
//! between them — every path whose cost vector is not dominated by the cost
//! vector of another path.
//!
//! This is the operations-research problem the paper contrasts with its MCN
//! skyline (Section II-D): MCPP produces a skyline of *paths* to a single,
//! given destination, whereas the MCN skyline is a skyline of *facilities*
//! reached via each cost type's own shortest path. The module exists
//!
//! * as the classic related-work baseline (multi-criteria label search in
//!   the style of Skriver & Andersen / Brumbaugh-Smith & Shier);
//! * to cross-validate the per-cost shortest path distances used elsewhere:
//!   the component-wise minimum over the Pareto path set equals the vector of
//!   single-criterion shortest-path distances;
//! * as the serving layer for **pruned** path-skyline queries:
//!   [`pareto_paths_prepped`] accelerates the search with the per-cost lower
//!   bounds of a [`PrepTable`](crate::prep::PrepTable) (ParetoPrep,
//!   Shekelyan et al.), producing byte-identical skylines with a fraction of
//!   the labels; [`PathStats`] makes the reduction measurable.
//!
//! Every variant runs one label-setting search (multi-objective A*):
//! labels wait in one priority queue and pop in lexicographic order of
//! `c + δ·L(v)` — the label's costs plus the deflated ParetoPrep lower
//! bounds of its node, `L ≡ 0` without a table — with equal keys popping
//! target labels first, then in creation order. Each node keeps only its
//! **closed** labels, those popped and extended, and a label is checked
//! against them twice: when it is created, and when it pops. A popped
//! label that survives both checks and the target skyline's is closed and
//! extended once; a label at the target joins the skyline when it pops,
//! so the skyline grows in lexicographic order. Paths stay implicit until
//! the search ends: each queued label is one entry of a per-search arena
//! (costs, node, parent, edge), and only the skyline's labels are walked
//! back into edge lists.
//!
//! Lexicographic pops make the checks cheap (BOA*, EMOA*/LTMOA*): when no
//! key falls along an extension, every closed label at a node is no larger
//! on cost 0 than a later label there, so dominance is decided by costs
//! 1..d alone. A node's closed labels therefore form a staircase over
//! those costs: a running minimum at d = 2, a 2-D staircase probed by one
//! binary search at d = 3, a lexicographically sorted front scanned up to
//! the first member larger on cost 1 at d ≥ 4; the target skyline is probed
//! the same way. A staircase hit names one member, and nothing is pruned
//! unless that member's full cost vector weakly dominates the label, so
//! the answer is exact whatever the float rounding; a key that falls only
//! costs work.
//!
//! The search is specialised by width: it matches once on the graph's
//! number of cost types `d` and runs a kernel whose staircases, labels,
//! keys and upper-bound cuts hold `[f64; d]` (the fixed-width, branch-free
//! dominance tests of [`mcn_graph::dominance`]; only the skyline's labels
//! become [`CostVec`]s again).
//!
//! [`CostVec`]: mcn_graph::CostVec

pub use crate::label::{
    componentwise_minimum, pareto_paths, pareto_paths_exhaustive, pareto_paths_prepped,
    pareto_paths_with_stats, ParetoLabel, PathSkylineResult,
};
pub use crate::stats::PathStats;
