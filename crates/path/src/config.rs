//! Build knobs for the route index.

/// Parameters of a [`RouteIndex`](crate::index::RouteIndex) build.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexConfig {
    /// Maximum Pareto-set size per shortcut bundle. A contraction that
    /// would exceed the cap truncates the (lexicographically sorted)
    /// bundle and clears the index's `exact` flag, which makes the engine
    /// fall back to the prep-backed tier — correctness is never traded for
    /// size silently.
    pub max_bundle: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self { max_bundle: 256 }
    }
}
