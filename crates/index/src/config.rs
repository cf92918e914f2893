//! Build knobs for the route index.

/// Parameters of a [`crate::RouteIndex`] build.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexConfig {
    /// Maximum Pareto-set size per shortcut bundle. A contraction that
    /// would exceed the cap truncates the (lexicographically sorted)
    /// bundle and clears the index's `exact` flag, which makes the engine
    /// fall back to the prep-backed tier — correctness is never traded for
    /// size silently.
    pub max_bundle: usize,
    /// Number of partition regions contracted in parallel. `1` builds the
    /// whole hierarchy sequentially; `> 1` partitions the graph with
    /// [`mcn_graph::partition_graph`], contracts each region's interior on
    /// its own thread, and contracts the boundary overlay sequentially on
    /// top. The resulting index depends only on the inputs, never on
    /// thread scheduling.
    pub regions: usize,
    /// Seed forwarded to the region partitioner.
    pub seed: u64,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            max_bundle: 256,
            regions: 1,
            seed: 2010,
        }
    }
}

impl IndexConfig {
    /// The default configuration with `regions` parallel build regions.
    pub fn with_regions(regions: usize) -> Self {
        Self {
            regions: regions.max(1),
            ..Self::default()
        }
    }
}
