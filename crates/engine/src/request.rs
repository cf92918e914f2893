//! Query requests and their outcomes.

use crate::context::PathContext;
use mcn_core::{
    skyline_query, topk_query, Algorithm, QueryStats, SkylineFacility, TopKEntry, TopKIter,
    WeightedSum,
};
use mcn_expansion::NetworkAccess;
use mcn_graph::{NetworkLocation, NodeId};
use mcn_obs::{default_clock, Clock, Obs};
use mcn_path::alpha::{
    scalarized_path_astar, scalarized_path_landmarks, Preference, ScalarPath, ScalarStats,
};
use mcn_path::mcpp::{pareto_paths_prepped, ParetoLabel};
use mcn_path::prep::PrepTable;
use mcn_storage::StoreView;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// One self-contained preference query, ready to be scheduled.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryRequest {
    /// A complete MCN skyline query.
    Skyline {
        /// The query location.
        location: NetworkLocation,
        /// LSA or CEA.
        algorithm: Algorithm,
    },
    /// A batch top-k query with a weighted-sum aggregate.
    TopK {
        /// The query location.
        location: NetworkLocation,
        /// Weighted-sum coefficients; the length must equal the store's `d`.
        weights: Vec<f64>,
        /// Number of results.
        k: usize,
        /// LSA or CEA.
        algorithm: Algorithm,
    },
    /// An incremental top-k query: drive a [`TopKIter`] for the first `take`
    /// results without fixing `k` up front.
    TopKIncremental {
        /// The query location.
        location: NetworkLocation,
        /// Weighted-sum coefficients; the length must equal the store's `d`.
        weights: Vec<f64>,
        /// How many results to draw from the iterator.
        take: usize,
        /// LSA or CEA.
        algorithm: Algorithm,
    },
    /// A multi-criteria path-skyline query (MCPP, Section II-D): every
    /// Pareto-optimal path from `source` to `target`, served by the
    /// ParetoPrep-pruned search over a [`PathContext`]'s cached prep
    /// tables. Requires [`crate::QueryEngine::with_path_context`].
    PathSkyline {
        /// The path's start node.
        source: NodeId,
        /// The path's destination node — the prep-table cache key.
        target: NodeId,
    },
    /// A scalarized fastest-path query — the preference *serving* tier: the
    /// single α-optimal route for one user's preference vector, answered by
    /// prep-backed A* (`mcn_path::alpha`) over the same [`PathContext`] prep
    /// tables the skyline tier uses, or by plain Dijkstra while the target
    /// has not been asked for often enough to pay for a table. Requires
    /// [`crate::QueryEngine::with_path_context`].
    AlphaPath {
        /// The path's start node.
        source: NodeId,
        /// The path's destination node — the prep-table cache key.
        target: NodeId,
        /// The user's preference over the d cost types.
        alpha: Preference,
    },
}

impl QueryRequest {
    /// Short kind label for logs and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            QueryRequest::Skyline { .. } => "skyline",
            QueryRequest::TopK { .. } => "topk",
            QueryRequest::TopKIncremental { .. } => "topk-inc",
            QueryRequest::PathSkyline { .. } => "path-skyline",
            QueryRequest::AlphaPath { .. } => "alpha-path",
        }
    }

    /// The query location — what region-affine scheduling tags a request by
    /// (via `PartitionMap::region_of_location`). Path-skyline queries are
    /// tagged by their source node: that is where the forward search starts
    /// expanding.
    pub fn location(&self) -> NetworkLocation {
        match self {
            QueryRequest::Skyline { location, .. }
            | QueryRequest::TopK { location, .. }
            | QueryRequest::TopKIncremental { location, .. } => *location,
            QueryRequest::PathSkyline { source, .. } | QueryRequest::AlphaPath { source, .. } => {
                NetworkLocation::Node(*source)
            }
        }
    }

    /// Executes the request against `store` (any [`StoreView`] — monolithic
    /// or region-partitioned) on the calling thread, serving path-flavored
    /// requests from `paths` (the graph + prep-table cache).
    ///
    /// Wall time comes from the observability context's [`Clock`] (the
    /// process-wide monotonic clock when `obs` is `None`), and — when
    /// tracing is enabled — each phase of the query lifecycle
    /// (`prep-lookup`/`prep-build`, `search`, `unpack`) is recorded as a span
    /// tagged with `query` (the request's batch index). Observation never
    /// changes results: outputs are byte-identical with any `obs` value.
    ///
    /// Facility searches run on the calling thread's idle expansion tables,
    /// which a thread serving many requests therefore reuses. What they held
    /// before never shows in the outcome.
    ///
    /// # Panics
    /// Panics on path-flavored requests when `paths` is `None`.
    pub(crate) fn execute<S: StoreView + ?Sized>(
        &self,
        store: &Arc<S>,
        paths: Option<&PathContext>,
        obs: Option<&Obs>,
        query: u64,
    ) -> QueryOutcome {
        let clock: &dyn Clock = match obs {
            Some(o) => o.clock(),
            None => default_clock(),
        };
        let tier = self.kind();
        // `Option<Span>`: `None` when unobserved, dropped (= recorded) at
        // the end of the enclosing block otherwise.
        let span = |name: &'static str| obs.map(|o| o.span(name, tier, query));
        let started_ns = clock.now_ns();
        let (output, stats) = match self {
            QueryRequest::Skyline {
                location,
                algorithm,
            } => {
                let r = {
                    let _s = span("search");
                    skyline_query(store, *location, *algorithm)
                };
                let _s = span("unpack");
                (QueryOutput::Skyline(r.facilities), r.stats)
            }
            QueryRequest::TopK {
                location,
                weights,
                k,
                algorithm,
            } => {
                let r = {
                    let _s = span("search");
                    let aggregate = WeightedSum::new(weights.clone());
                    topk_query(store, *location, aggregate, *k, *algorithm)
                };
                let _s = span("unpack");
                (QueryOutput::TopK(r.entries), r.stats)
            }
            QueryRequest::TopKIncremental {
                location,
                weights,
                take,
                algorithm,
            } => {
                let _s = span("search");
                let aggregate = WeightedSum::new(weights.clone());
                fn first<A: NetworkAccess>(
                    mut it: TopKIter<A>,
                    take: usize,
                ) -> (QueryOutput, QueryStats) {
                    let entries: Vec<TopKEntry> = it.by_ref().take(take).collect();
                    (QueryOutput::TopK(entries), it.stats())
                }
                let store = store.clone();
                match algorithm {
                    Algorithm::Lsa => first(TopKIter::lsa(store, *location, aggregate), *take),
                    Algorithm::Cea => first(TopKIter::cea(store, *location, aggregate), *take),
                }
            }
            QueryRequest::PathSkyline { source, target } => {
                let ctx = paths.expect(
                    "PathSkyline requests need a PathContext — build the engine with \
                     QueryEngine::with_path_context",
                );
                if let Some(index) = ctx.serving_index() {
                    let run = {
                        let _s = span("search");
                        index.skyline_paths(ctx.graph(), *source, *target)
                    };
                    let _s = span("unpack");
                    let stats = scalar_stats("MCPP-index", &run.stats, run.paths.len());
                    (QueryOutput::Paths(run.paths), stats)
                } else {
                    let graph = ctx.graph();
                    let prep = ctx.cache().get_or_build(graph, *target, obs, tier, query);
                    let run = {
                        let _s = span("search");
                        pareto_paths_prepped(graph, *source, *target, &prep)
                    };
                    let _s = span("unpack");
                    // Path queries never touch the paged store; map the label
                    // accounting onto the query-stats fields the reports read:
                    // candidates = labels created, dominance checks = labels
                    // discarded by pruning or node-level dominance.
                    let stats = QueryStats {
                        algorithm: "MCPP-prep".to_string(),
                        nodes_settled: run.stats.nodes_settled as usize,
                        candidates: run.stats.labels_created as usize,
                        dominance_checks: (run.stats.labels_pruned + run.stats.labels_dominated)
                            as usize,
                        result_size: run.paths.len(),
                        ..QueryStats::default()
                    };
                    (QueryOutput::Paths(run.paths), stats)
                }
            }
            QueryRequest::AlphaPath {
                source,
                target,
                alpha,
            } => {
                let ctx = paths.expect(
                    "AlphaPath requests need a PathContext — build the engine with \
                     QueryEngine::with_path_context",
                );
                if let Some(index) = ctx.serving_index() {
                    let run = {
                        let _s = span("search");
                        index.alpha_path(ctx.graph(), *source, *target, alpha)
                    };
                    let _s = span("unpack");
                    let stats =
                        scalar_stats("alpha-index", &run.stats, usize::from(run.path.is_some()));
                    (QueryOutput::AlphaPath(run.path), stats)
                } else {
                    // Every search returns the same route. A target that has
                    // not earned a table is answered without one, by A* over
                    // the resident tables of other targets when there are
                    // any, and pays towards its own with the nodes settled.
                    let graph = ctx.graph();
                    let prep = ctx.cache().get_or_bypass(graph, *target, obs, tier, query);
                    let (run, algorithm) = {
                        let _s = span("search");
                        match prep {
                            Some(prep) => (
                                scalarized_path_astar(graph, *source, *target, alpha, &prep),
                                "alpha-astar",
                            ),
                            None => {
                                let landmarks = ctx.cache().landmarks(*target);
                                let tables: Vec<&PrepTable> =
                                    landmarks.iter().map(Arc::as_ref).collect();
                                let run = scalarized_path_landmarks(
                                    graph, *source, *target, alpha, &tables,
                                );
                                let algorithm = if tables.is_empty() {
                                    "alpha-dijkstra"
                                } else {
                                    "alpha-landmark"
                                };
                                ctx.cache().charge(*target, run.stats.settled);
                                (run, algorithm)
                            }
                        }
                    };
                    let _s = span("unpack");
                    let stats =
                        scalar_stats(algorithm, &run.stats, usize::from(run.path.is_some()));
                    (QueryOutput::AlphaPath(run.path), stats)
                }
            }
        };
        QueryOutcome {
            output,
            stats,
            wall: clock.elapsed(started_ns),
        }
    }
}

/// The query statistics of a search that reports [`ScalarStats`] (the α
/// searches and the route index), mapped onto the fields the reports read:
/// candidates = heap pushes, dominance checks = candidates pruned. Such
/// searches never touch the paged store.
fn scalar_stats(algorithm: &str, stats: &ScalarStats, result_size: usize) -> QueryStats {
    QueryStats {
        algorithm: algorithm.to_string(),
        nodes_settled: stats.settled as usize,
        candidates: stats.pushed as usize,
        dominance_checks: stats.pruned as usize,
        result_size,
        ..QueryStats::default()
    }
}

/// The payload a query produced.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutput {
    /// Skyline facilities in pinning order.
    Skyline(Vec<SkylineFacility>),
    /// Top-k entries in ascending aggregate-cost order.
    TopK(Vec<TopKEntry>),
    /// Pareto-optimal paths in lexicographic cost order.
    Paths(Vec<ParetoLabel>),
    /// The α-optimal route of a scalarized query (`None` iff the target is
    /// unreachable).
    AlphaPath(Option<ScalarPath>),
}

impl QueryOutput {
    /// Number of result members.
    pub fn len(&self) -> usize {
        match self {
            QueryOutput::Skyline(v) => v.len(),
            QueryOutput::TopK(v) => v.len(),
            QueryOutput::Paths(v) => v.len(),
            QueryOutput::AlphaPath(p) => usize::from(p.is_some()),
        }
    }

    /// True iff the query returned nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A canonical, bit-exact textual form of the result: facility ids with
    /// the raw IEEE-754 bits of every cost. Two outputs are byte-identical
    /// results iff their fingerprints are equal — the determinism check used
    /// by the concurrency tests, the experiments and the repo benchmark.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        match self {
            QueryOutput::Skyline(v) => {
                out.push_str("skyline:");
                for f in v {
                    let _ = write!(out, "{}@", f.facility.raw());
                    for c in f.costs.iter() {
                        let _ = write!(out, "{:016x},", c.to_bits());
                    }
                    out.push(';');
                }
            }
            QueryOutput::TopK(v) => {
                out.push_str("topk:");
                for e in v {
                    let _ = write!(out, "{}@{:016x}@", e.facility.raw(), e.score.to_bits());
                    for c in e.costs.iter() {
                        let _ = write!(out, "{:016x},", c.to_bits());
                    }
                    out.push(';');
                }
            }
            QueryOutput::Paths(v) => {
                out.push_str("paths:");
                for p in v {
                    for c in p.costs.iter() {
                        let _ = write!(out, "{:016x},", c.to_bits());
                    }
                    out.push('@');
                    for e in &p.edges {
                        let _ = write!(out, "{},", e.raw());
                    }
                    out.push(';');
                }
            }
            QueryOutput::AlphaPath(p) => {
                out.push_str("alpha:");
                if let Some(p) = p {
                    let _ = write!(out, "{:016x}@", p.total.to_bits());
                    for c in p.costs.iter() {
                        let _ = write!(out, "{:016x},", c.to_bits());
                    }
                    out.push('@');
                    for e in &p.edges {
                        let _ = write!(out, "{},", e.raw());
                    }
                    out.push(';');
                } else {
                    out.push_str("none;");
                }
            }
        }
        out
    }
}

/// The result of one scheduled query.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// What the query returned.
    pub output: QueryOutput,
    /// Single-query execution statistics. `stats.io` is a store-wide counter
    /// delta and is polluted by overlapping queries — meaningful only when
    /// the engine runs one worker (see the crate docs).
    pub stats: QueryStats,
    /// The query's latency: wall-clock time on the engine's clock from the
    /// start of the request's execution to the built output. It leaves
    /// out the wait for a worker to claim the request (the `schedule` span)
    /// and the trace-only `fingerprint` span. This is the one per-query
    /// latency record; per-tier percentiles are computed from it.
    pub wall: Duration,
}
