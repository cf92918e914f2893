//! # mcn-expansion
//!
//! **Incremental network expansion** over the disk-resident multi-cost
//! network: the Dijkstra-based nearest-facility search primitive (Papadias et
//! al., VLDB'03) that the paper's LSA and CEA algorithms are built on.
//!
//! * [`Expansion`] — a single-cost incremental expansion that yields the
//!   nearest facilities in increasing distance order, with fine-grained
//!   stepping and frontier bounds for the top-k algorithms.
//! * [`DirectAccess`] / [`SharedAccess`] — the two access disciplines that
//!   distinguish LSA (independent reads) from CEA (each adjacency record and
//!   facility list fetched at most once per query).
//! * [`seeds_for_location`] — turns a query location (node or edge interior)
//!   into expansion seeds with partial-weight costs.
//! * [`oracle`] — in-memory brute-force cost vectors used as the ground truth
//!   in tests and by the straightforward baseline.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod expansion;
pub mod oracle;
pub mod seeds;
mod tables;

pub use access::{DirectAccess, NetworkAccess, SharedAccess, SharingStats};
pub use expansion::{Expansion, ExpansionStats, ExpansionStep, FacilityMode};
pub use seeds::{seeds_for_location, Seeds};
pub use tables::TablePool;

/// Compile-time thread-safety proof: instantiated in a `const _` next to
/// each shared type, so the build fails the moment a field change makes the
/// type lose `Send`/`Sync`.
pub(crate) const fn assert_send_sync<T: Send + Sync>() {}
