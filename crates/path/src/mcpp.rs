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
//! Every variant runs one best-first label search (multi-objective A*):
//! stored labels wait in one priority queue keyed by `Σ_i (c_i + δ·L_i(v))`
//! — the label's costs plus the deflated ParetoPrep lower bounds of its
//! node, `L ≡ 0` without a table — and equal keys pop in creation order. A
//! popped label is skipped if a strict dominator evicted it while it
//! waited, dropped if the target skyline has grown to weakly dominate its
//! bound vector, and otherwise extended once. The lower bounds thus order
//! the search as well as prune it: a label that a later arrival would
//! evict, or that the growing target skyline would cover, is rarely
//! extended first. Paths stay implicit until the search ends: a node's bag
//! holds only cost vectors and label ids, each admitted label is one entry
//! of a per-search arena (costs, node, parent, edge), and only the target's
//! surviving labels are walked back into edge lists.
//!
//! The search is specialised by width: it matches once on the graph's
//! number of cost types `d` and runs a kernel whose bags, labels and
//! upper-bound cuts hold `[f64; d]` (the fixed-width, branch-free
//! dominance tests of `mcn_graph::dominance`; only the target's survivors
//! become [`CostVec`]s again). A
//! candidate is admitted in one scan of its head node's bag, and the
//! target-dominance check reads a mirror of the target's bag kept as a
//! Pareto front of [`mcn_graph::dominance`]: at d = 2 one binary search
//! decides, elsewhere the scan stops at the first member costlier on cost
//! 0 than the candidate's bound.
//!
//! [`CostVec`]: mcn_graph::CostVec

pub use crate::label::{
    componentwise_minimum, pareto_paths, pareto_paths_exhaustive, pareto_paths_prepped,
    pareto_paths_with_stats, ParetoLabel, PathSkylineResult,
};
pub use crate::stats::PathStats;
