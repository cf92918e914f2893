//! # mcn-storage
//!
//! The **disk-resident storage scheme** the paper's algorithms run on
//! (its Figure 2, adapted from Yiu & Mamoulis, SIGMOD'04):
//!
//! * an **adjacency tree** (a bulk-loaded B+-tree) mapping each node to the
//!   position of its record in the flat **adjacency file**;
//! * the adjacency file itself, storing per node the incident edges, their
//!   `d`-dimensional cost vectors and pointers into the facility file;
//! * the **facility file**, storing per edge the facilities lying on it
//!   (identifier + fractional position, from which partial weights are
//!   derived);
//! * a **facility tree** mapping each facility to its containing edge — used
//!   by LSA/CEA when the shrinking stage needs the edges of the remaining
//!   candidates;
//! * an **edge index** (added in this reproduction) mapping each edge to its
//!   end-nodes, used to seed queries located in the interior of an edge.
//!
//! Everything is read through a fixed-capacity **LRU buffer pool**
//! ([`BufferPool`]) over a [`DiskManager`]; both in-memory (instrumented) and
//! file-backed disks are provided. Physical/logical reads and buffer
//! hits/misses are counted precisely ([`IoStats`]), because the paper's
//! evaluation is I/O-bound and the LSA-vs-CEA comparison is fundamentally
//! about how often the same page is fetched.

mod btree;
mod buffer;
mod builder;
mod codec;
mod disk;
mod error;
mod idhash;
mod meta;
mod page;
mod partitioned;
mod records;
mod stats;
mod store;
mod view;

pub use buffer::BufferPool;
pub use disk::{DiskManager, FileDisk, InMemoryDisk};
pub use error::StorageError;
pub use idhash::{IdHasher, IdMap};
pub use meta::StorageMeta;
pub use page::{Page, PageId};
pub use partitioned::{with_seed_region, PartitionedStore, RegionTraffic};
pub use records::{AdjacencyEntry, AdjacencyList, FacilityRun, RecordPtr};
pub use stats::IoStats;
pub use store::{BufferConfig, EdgeEndpoints, FacilityInfo, MCNStore};
pub use view::StoreView;

/// Compile-time thread-safety proof: instantiated in a `const _` next to
/// each shared type, so the build fails the moment a field change makes the
/// type lose `Send`/`Sync`.
pub(crate) const fn assert_send_sync<T: Send + Sync>() {}
