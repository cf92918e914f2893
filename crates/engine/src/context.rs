//! Shared context for path-skyline queries: the in-memory graph plus a
//! cache of ParetoPrep tables.

use mcn_graph::MultiCostGraph;
use mcn_path::index::RouteIndex;
use mcn_path::prep::PrepCache;
use std::sync::Arc;

/// Everything the engine needs to serve [`crate::QueryRequest::PathSkyline`]
/// and [`crate::QueryRequest::AlphaPath`]
/// requests: the multi-cost graph the paths run over and a bounded LRU
/// [`PrepCache`] so concurrent batches towards popular targets share one
/// backward scan. Path-skyline queries always get a table
/// ([`PrepCache::get_or_build`]); α-path queries only towards targets asked
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
    pub(crate) route_index: Option<Arc<RouteIndex>>,
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
        let first = ctx.cache().get_or_build(ctx.graph(), c, None, "", 0);
        let second = ctx.cache().get_or_build(ctx.graph(), c, None, "", 0);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(ctx.cache().stats().hits, 1);
        ctx.cache().clear();
        assert!(ctx.cache().is_empty());
        assert_eq!(ctx.graph().num_nodes(), 2);
    }
}
