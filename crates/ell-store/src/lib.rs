//! Sharded, thread-safe keyed sketch store — the serving layer the
//! ExaLogLog paper's practicality argument points at: millions of
//! per-key distinct counters (per user, per page, per IP, …) each
//! costing only what its cardinality warrants.
//!
//! # Architecture
//!
//! An [`EllStore`] maps string keys to [`AdaptiveExaLogLog`] sketches,
//! hash-partitioned over N shards (N a power of two). Each shard is a
//! `RwLock` over a flat open-addressed table probed by the same 64-bit
//! key hash that picked the shard. A resident key's sketch, sparse
//! tokens or dense registers alike, is mutated under the shard's
//! *write* lock and read under its *read* lock; the sketch promotes
//! from sparse to dense on its own at break-even.
//!
//! The batched [`EllStore::ingest`] entry point groups a `(key, hash)`
//! batch into one run per key, ordered by shard and table position, with
//! one probe of a batch-local table per event; per shard it then takes
//! the write lock once and folds every run, looking each key up in the
//! shard table once.
//! [`WindowedStore`] shares this shard table, key hash and session
//! flush; each store adds only its per-key value and merge.
//!
//! # Parallel ingest sessions
//!
//! For sustained multi-threaded ingest, [`EllStore::session`] and
//! [`WindowedStore::session`] open one buffered [`Session`] type
//! ([`IngestSession`] / [`WindowIngestSession`]): each thread appends
//! observations to a thread-local log, and each flush groups the log
//! once (the same grouper direct batches use) and folds every key's run
//! of hashes into its slot under one write lock per shard — the hot
//! insert loop touches no shared state at all.
//!
//! Because every per-key structure is monotone (token sets union,
//! registers only grow, promotion is threshold-crossing), the final
//! store state is **independent of thread interleaving and flush
//! timing**: any partition of a workload over any number of ingest
//! threads — buffered or not — produces bit-for-bit the same snapshot.
//!
//! # Snapshots
//!
//! [`EllStore::snapshot_bytes`] serializes the whole store in the
//! `ELLK` container format: a header (configuration, token parameter,
//! shard count) followed by key-sorted entries whose payloads are the
//! existing per-sketch wire formats (`ELLS` while sparse, `ELL1` once
//! promoted). [`EllStore::from_snapshot_bytes`] restores it exactly —
//! every per-key estimate reproduces bit-for-bit.
//!
//! # Tiered residency
//!
//! With a [`TierConfig`] installed, idle keys step down a residency
//! ladder — resident (sparse or dense, as above) → **warm** (range-coder
//! compressed in RAM) → **cold** (spilled to an on-disk segment file
//! behind an in-memory index) — one rung per [`EllStore::demote_idle`]
//! sweep, where "idle" is measured against a caller-advanced clock
//! ([`EllStore::tick`]). Any ingest or per-key [`EllStore::estimate`]
//! promotes the key back to residency. Tiering is a pure space
//! optimization: estimates and snapshots are bit-identical to a
//! never-tiered store.
//! [`TierStats`] and [`EllStore::memory_bytes`] expose the per-tier
//! breakdown and deep resident-byte accounting. One ladder
//! implementation runs under both stores: [`WindowedStore`] demotes idle
//! epoch rings to warm bytes on it, with rotation as its sweep and no
//! cold rung.
//!
//! # Windowed counting
//!
//! [`WindowedStore`] adds the time dimension: each key holds a ring of
//! E per-epoch sub-sketches, a compacted retired union, and a chain of
//! precomputed **suffix unions** over the sealed epochs, so "distinct
//! elements in the last k epochs" is one clone plus one word-level
//! merge regardless of k — see the [`window`](crate::WindowedStore)
//! module docs for the rotation-amortized maintenance and the
//! [`WindowStats`] cache counters. Windowed stores persist in their own
//! `ELLW` container format.
//!
//! ```
//! use ell_store::EllStore;
//! use exaloglog::EllConfig;
//!
//! let store = EllStore::new(8, EllConfig::optimal(10).unwrap()).unwrap();
//! store.ingest(&[("alice", 1), ("bob", 2), ("alice", 3), ("alice", 1)]);
//! assert_eq!(store.key_count(), 2);
//! assert_eq!(store.estimate("alice").unwrap().round() as u64, 2);
//! let restored = EllStore::from_snapshot_bytes(&store.snapshot_bytes()).unwrap();
//! assert_eq!(restored.snapshot_bytes(), store.snapshot_bytes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core;
mod session;
mod store;
mod sync;
mod table;
mod tiers;
mod window;
mod window_wire;
mod wire;

pub use session::{IngestSession, Session, WindowIngestSession};
pub use store::EllStore;
pub use tiers::{Tier, TierConfig, TierStats};
pub use window::{WindowStats, WindowedStore};

pub use exaloglog::adaptive::AdaptiveExaLogLog;
pub use exaloglog::{EllConfig, EllError};
