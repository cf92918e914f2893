//! # mcn-engine
//!
//! A **concurrent multi-query execution engine** over a shared, read-only
//! store — a monolithic [`MCNStore`](mcn_storage::MCNStore) (the default)
//! or any other [`StoreView`](mcn_storage::StoreView), e.g. the
//! region-sharded [`PartitionedStore`](mcn_storage::PartitionedStore).
//!
//! The paper evaluates one query at a time; a production service faces many
//! skyline/top-k queries in flight against one network. Everything below the
//! engine is already built for that: the store is immutable once built, the
//! buffer pool is lock-striped ([`mcn_storage::BufferPool`]), and the
//! expansion/core layers are `Send` over any store view. The engine adds the
//! missing scheduling layer:
//!
//! * [`QueryRequest`] — a skyline, batch top-k, incremental top-k,
//!   path-skyline, or scalarized alpha-path query, self-contained and
//!   cheap to clone.
//! * [`QueryEngine`] — a bounded pool of worker threads draining a batch of
//!   requests FIFO; each query runs the ordinary single-query algorithm, so
//!   per-query results are **identical** to serial execution no matter how
//!   many workers race over the shared buffer pool.
//! * [`QueryEngine::run_batch_with_regions`] — **region-affine** scheduling
//!   for partitioned stores: queries are tagged with their seed region,
//!   workers prefer to stay on the region they just served (keeping its
//!   buffer pool hot), spread to idle regions otherwise, and fall back to
//!   FIFO so no request starves. Results stay byte-identical in both modes.
//! * [`QueryOutcome`] / [`BatchStats`] — per-query statistics plus aggregate
//!   throughput (QPS, consistent I/O deltas from the striped pool, affine
//!   claim counters).
//! * [`PathContext`] — attached via [`QueryEngine::with_path_context`],
//!   serves [`QueryRequest::PathSkyline`] (multi-criteria Pareto path) and
//!   [`QueryRequest::AlphaPath`] (per-user scalarized fastest path)
//!   requests with the ParetoPrep-pruned search of `mcn-mcpp`, sharing a
//!   bounded LRU cache of `mcn-prep` tables (one backward scan per target)
//!   across workers and batches. α requests rent before they buy: a target
//!   is answered by plain Dijkstra until the work spent on it would have
//!   paid for its scan (`PrepCache`'s break-even admission).
//!
//! # Determinism
//!
//! Query *results* depend only on the store contents, never on buffer state
//! or scheduling, so `run_batch` returns outcome `i` for request `i` with
//! byte-identical output at any worker count ([`QueryOutput::fingerprint`]
//! makes that checkable). Statistics are the exception: per-query `stats.io`
//! is a store-wide counter delta, which overlapping queries pollute — it is
//! only meaningful at `workers == 1`. Use [`BatchStats::io`] (a consistent
//! before/after snapshot pair) for aggregate accounting at any worker count.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod context;
mod engine;
mod request;

pub use context::PathContext;
pub use engine::{BatchResult, BatchStats, QueryEngine};
pub use request::{QueryOutcome, QueryOutput, QueryRequest};

/// Compile-time thread-safety proof: instantiated in a `const _` next to
/// each shared type, so the build fails the moment a field change makes the
/// type lose `Send`/`Sync`.
pub(crate) const fn assert_send_sync<T: Send + Sync>() {}
