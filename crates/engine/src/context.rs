//! Shared context for path-skyline queries: the in-memory graph plus a
//! cache of ParetoPrep tables.

use mcn_graph::{MultiCostGraph, NodeId};
use mcn_index::RouteIndex;
use mcn_prep::{PrepCache, PrepCacheStats, PrepTable};
use std::sync::Arc;

/// Everything the engine needs to serve [`crate::QueryRequest::PathSkyline`]
/// and [`crate::QueryRequest::AlphaPath`]
/// requests: the multi-cost graph the paths run over and a bounded LRU
/// [`PrepCache`] so concurrent batches towards popular targets share one
/// backward scan. Path-skyline queries always get a table
/// ([`PathContext::table_for`]); α-path queries only towards targets asked
/// for often enough to pay for one ([`PrepCache::get_or_bypass`]).
///
/// Facility skyline/top-k queries read the paged store; path-skyline
/// queries are a pure graph computation, so the context carries the graph
/// separately and is attached to a [`crate::QueryEngine`] with
/// [`crate::QueryEngine::with_path_context`]. One context can be shared by
/// any number of engines (it is `Send + Sync`; the cache locks internally).
pub struct PathContext {
    graph: Arc<MultiCostGraph>,
    cache: PrepCache,
    route_index: Option<Arc<RouteIndex>>,
}

const _: () = crate::assert_send_sync::<PathContext>();

impl PathContext {
    /// Creates a context over `graph` whose cache keeps at most
    /// `cache_capacity` prep tables (clamped to ≥ 1).
    pub fn new(graph: Arc<MultiCostGraph>, cache_capacity: usize) -> Self {
        Self {
            graph,
            cache: PrepCache::new(cache_capacity),
            route_index: None,
        }
    }

    /// Attaches a prebuilt [`RouteIndex`] so path queries it can serve
    /// exactly skip the prep-backed tier. An index that does not match the
    /// graph shape or is not exact is kept but never consulted — every
    /// query falls back to the prep-backed algorithms transparently.
    pub fn with_route_index(mut self, index: Arc<RouteIndex>) -> Self {
        self.route_index = Some(index);
        self
    }

    /// The attached route index, if any.
    pub fn route_index(&self) -> Option<&Arc<RouteIndex>> {
        self.route_index.as_ref()
    }

    /// The route index, provided it can serve queries over this context's
    /// graph exactly ([`RouteIndex::serves`]): the per-query dispatch
    /// predicate.
    pub fn serving_index(&self) -> Option<&RouteIndex> {
        self.route_index
            .as_deref()
            .filter(|idx| idx.serves(&self.graph))
    }

    /// The graph path queries run over.
    pub fn graph(&self) -> &Arc<MultiCostGraph> {
        &self.graph
    }

    /// The prep-table cache.
    pub fn cache(&self) -> &PrepCache {
        &self.cache
    }

    /// The prep table for `target`: cached, or built by a backward scan and
    /// cached on a miss.
    pub fn table_for(&self, target: NodeId) -> Arc<PrepTable> {
        self.cache.get_or_build(&self.graph, target)
    }

    /// [`PathContext::table_for`] under an observability context: records
    /// `prep-lookup` (and `prep-build` on a miss) spans when tracing is
    /// enabled. Returns the same table as the unobserved variant.
    pub fn table_for_observed(
        &self,
        target: NodeId,
        obs: Option<&mcn_obs::Obs>,
        tier: &str,
        query: u64,
    ) -> Arc<PrepTable> {
        self.cache
            .get_or_build_observed(&self.graph, target, obs, tier, query)
    }

    /// Snapshot of the cache counters (the `prep` experiment's cold/warm
    /// evidence).
    pub fn cache_stats(&self) -> PrepCacheStats {
        self.cache.stats()
    }

    /// Empties the cache — the "cold" starting condition.
    pub fn clear_cache(&self) {
        self.cache.clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_graph::{CostVec, GraphBuilder};

    #[test]
    fn context_builds_and_caches_tables() {
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        b.add_edge(a, c, CostVec::from_slice(&[1.0, 2.0])).unwrap();
        let ctx = PathContext::new(Arc::new(b.build().unwrap()), 4);
        let first = ctx.table_for(c);
        let second = ctx.table_for(c);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(ctx.cache_stats().hits, 1);
        ctx.clear_cache();
        assert!(ctx.cache().is_empty());
        assert_eq!(ctx.graph().num_nodes(), 2);
    }
}
