//! Sliding-window distinct counting: the windowed counting subsystem on
//! top of the keyed store layer.
//!
//! ExaLogLog's full mergeability at state-of-the-art space efficiency is
//! exactly what makes *time-windowed* distinct counting cheap: keep one
//! small sub-sketch per epoch and answer "distinct users in the last k
//! minutes" by unioning epochs on the fly — the pattern production
//! time-series systems build on top of mergeable cardinality aggregates.
//!
//! # Architecture
//!
//! A [`WindowedStore`] maps string keys to **epoch rings**: a ring of
//! `E` dense [`ExaLogLog`] sub-sketches (slot `e % E` holds the data of
//! epoch `e` for every epoch in the live window) plus one compacted
//! *retired* union of every epoch that has fallen out of the window.
//! Like [`EllStore`](crate::EllStore), keys are hash-partitioned over N
//! power-of-two shards, each a `RwLock` over a flat open-addressed table
//! probed by the same key hash that picked the shard.
//!
//! On top of the ring each key keeps a chain of **suffix unions**:
//! `suffix[j]` is the union of the newest `j + 1` *sealed* epochs (every
//! live epoch except the mutable current one), so `suffix[j] =
//! suffix[j-1] ∪ slot(current − 1 − j)`. Any trailing window is then two
//! word-level merges instead of k:
//!
//! * [`WindowedStore::estimate_window`]`(key, k)` clones `suffix[k − 2]`
//!   into a reusable scratch sketch and merges the live current-epoch
//!   slot on top (`k = 1` clones the empty template instead — the same
//!   code path, so latency is flat in k). No per-query heap allocation
//!   happens; the `bench_window` binary counts allocations to prove it,
//!   and emits a `query_flat_vs_k` verdict that CI gates.
//! * [`WindowedStore::advance`] rotates the window forward: each epoch
//!   leaving the window folds into the retired union through the
//!   word-level merge scan, and its slot is recycled with `clone_from`
//!   against an empty template — rotation is allocation-free. Rotation
//!   re-seals the previous current epoch, so it resets each key's suffix
//!   validity; the chain is rebuilt **lazily and incrementally** by the
//!   next queries (each suffix entry is built at most once per rotation,
//!   so the rebuild cost is amortized over the rotation interval and the
//!   steady-state query path stays O(1) merges).
//! * Late events for a *sealed* epoch still inside the window land in
//!   that epoch's slot and truncate the key's suffix validity to the
//!   entries that exclude it (a **dirty invalidation**); the next query
//!   that needs a truncated entry rebuilds it from the slots, keeping
//!   every answer bit-identical to the offline per-register merge of the
//!   same epochs. Late events for an epoch that already left the window
//!   fold straight into the retired union, so all-time totals stay
//!   exact.
//! * [`WindowedStore::window_stats`] exposes the suffix-cache counters
//!   (hits, lazy rebuilds, entries built, dirty invalidations) so cache
//!   effectiveness is observable under late-event workloads — also via
//!   `ell store window query --stats` on the CLI.
//!
//! Rotation and ingest follow the phased pattern of real epoch'd
//! pipelines — within an epoch any number of threads ingest
//! concurrently, epoch advancement is a (cheap) global step — and under
//! that pattern the final state is bit-for-bit independent of the thread
//! count, exactly like the flat store.
//!
//! # Lifecycle
//!
//! ```
//! use ell_store::WindowedStore;
//! use exaloglog::EllConfig;
//!
//! // 4 shards, ELL(2,20) at p=10, a ring of 3 epochs.
//! let store = WindowedStore::new(4, EllConfig::optimal(10).unwrap(), 3).unwrap();
//!
//! // Epoch 0: alice sees two pages, bob one.
//! store.ingest(0, &[("alice", 11), ("alice", 22), ("bob", 11)]);
//! // Epoch 1: alice returns to one old page and finds a new one.
//! store.ingest(1, &[("alice", 22), ("alice", 33)]);
//! assert_eq!(store.current_epoch(), 1);
//!
//! // Trailing windows: last epoch only vs. both epochs.
//! assert_eq!(store.estimate_window("alice", 1).unwrap().round() as u64, 2);
//! assert_eq!(store.estimate_window("alice", 2).unwrap().round() as u64, 3);
//!
//! // Advance far enough and the old epochs retire out of every window,
//! // but the all-time union still remembers them.
//! store.advance(10);
//! assert_eq!(store.estimate_window("alice", 3).unwrap().round() as u64, 0);
//! assert_eq!(store.estimate_all_time("alice").unwrap().round() as u64, 3);
//!
//! // Snapshot → restore reproduces every windowed estimate bit-for-bit
//! // (suffix chains are derived state: rebuilt lazily after restore).
//! let restored = WindowedStore::from_snapshot_bytes(&store.snapshot_bytes()).unwrap();
//! assert_eq!(restored.snapshot_bytes(), store.snapshot_bytes());
//!
//! // The suffix-cache counters show how queries were served (the CLI
//! // prints the same numbers under `ell store window query --stats`).
//! let stats = store.window_stats();
//! assert_eq!(stats.dirty_invalidations, 0); // no late events above
//! assert!(stats.suffix_hits + stats.lazy_rebuilds > 0);
//! ```

use crate::core::{by_shard, Keyed, KeyedCore, Run};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Mutex, RwLock};
use crate::tiers::{TierCounters, TierStats};
use exaloglog::adaptive::AdaptiveExaLogLog;
use exaloglog::compress::{compress, decompress};
use exaloglog::{EllConfig, EllError, ExaLogLog};

/// One key's windowed state: live (a full epoch ring) or warm (the same
/// state as compressed bytes — sealed ring slots and retired unions are
/// immutable except for late events, which makes them the prime
/// demotion targets).
#[derive(Debug)]
pub(crate) enum WindowSlot {
    Live(WindowRing),
    Warm(WarmRing),
}

/// A demoted key's windowed state: one `ELLZ` payload per nonempty
/// epoch slot (tagged with its *absolute* epoch, so rotation can skip
/// warm keys entirely and the catch-up happens at promotion), one for
/// the retired union, and any session deltas parked by lazy flushes.
#[derive(Debug)]
pub(crate) struct WarmRing {
    /// `(epoch, ELLZ payload)` per nonempty slot at demotion time,
    /// sorted by epoch (canonical for snapshots).
    slots: Vec<(u64, Box<[u8]>)>,
    /// Compressed retired union; `None` when it was empty.
    retired: Option<Box<[u8]>>,
    /// `(epoch, delta)` pairs parked by session flushes; folded in at
    /// promotion (or into the payloads at snapshot settle).
    pending: Vec<(u64, AdaptiveExaLogLog)>,
}

impl WarmRing {
    /// Heap footprint (the inline struct is counted by the store as
    /// part of its table entry).
    fn memory_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|(_, bytes)| bytes.len() + core::mem::size_of::<(u64, Box<[u8]>)>())
            .sum::<usize>()
            + self.retired.as_ref().map_or(0, |bytes| bytes.len())
            + self
                .pending
                .iter()
                .map(|(_, delta)| delta.memory_bytes() + core::mem::size_of::<u64>())
                .sum::<usize>()
    }
}

/// One key's live windowed state: the epoch ring, the retired union, and
/// the rotation-amortized suffix-union chain over the sealed slots.
#[derive(Debug)]
pub(crate) struct WindowRing {
    /// Slot `e % E` holds epoch `e`'s sub-sketch for every live epoch
    /// `e` in `(current − E, current]`; slots for epochs the key never
    /// saw stay empty (and cost one zero-word scan to merge). Fixed
    /// lengths, so boxed slices: the ring sits inline in its shard-table
    /// entry, where a `Vec`'s capacity word would be paid per key.
    ring: Box<[ExaLogLog]>,
    /// Union of every epoch of this key that has left the window.
    retired: ExaLogLog,
    /// Cumulative unions over the *sealed* (non-current) live slots:
    /// `suffix[j] = ⋃ slot(current − 1 − i) for i ≤ j` — the newest
    /// `j + 1` sealed epochs. Length `E − 1`; entries are rebuilt in
    /// place (`clone_from` + one merge each), never reallocated.
    suffix: Box<[ExaLogLog]>,
    /// Number of leading suffix entries consistent with the store's
    /// current window position. Rotation resets it to 0 (the chain is
    /// re-derived lazily); a late event for sealed epoch `e` truncates
    /// it to `current − 1 − e`, the entries that exclude `e`.
    valid: usize,
    /// Epoch of the last ingest or query touch (relaxed; the demotion
    /// decision tolerates racy staleness).
    touched: AtomicU64,
}

impl WindowRing {
    fn new(template: &ExaLogLog, epochs: usize, now: u64) -> Self {
        WindowRing {
            ring: vec![template.clone(); epochs].into(),
            retired: template.clone(),
            // A fresh ring's sealed slots are all empty, so its empty
            // suffix entries are already correct.
            suffix: vec![template.clone(); epochs - 1].into(),
            valid: epochs - 1,
            touched: AtomicU64::new(now),
        }
    }

    fn memory_bytes(&self) -> usize {
        self.retired.memory_bytes()
            + self.ring.iter().map(ExaLogLog::memory_bytes).sum::<usize>()
            + self
                .suffix
                .iter()
                .map(ExaLogLog::memory_bytes)
                .sum::<usize>()
    }

    /// Epochs since the last ingest or query touch, as of `current`.
    fn idle(&self, current: u64) -> u64 {
        // ordering: Relaxed — idle-age read under the shard write lock,
        // which already orders it after every stamp made under a read
        // lock; staleness only shifts a demotion by one sweep.
        current.saturating_sub(self.touched.load(Ordering::Relaxed))
    }

    /// The sketch holding `epoch` under the pinned `current`: its ring
    /// slot while the epoch is live, the retired union once it has left
    /// the window.
    fn epoch_target(&mut self, current: u64, epoch: u64) -> &mut ExaLogLog {
        let e = self.ring.len() as u64;
        if current - epoch < e {
            &mut self.ring[(epoch % e) as usize]
        } else {
            &mut self.retired
        }
    }

    /// Records a write for `epoch` under the pinned `current`. A write
    /// into a *sealed* live slot (a late event for an epoch older than
    /// the current one) means the suffix entries whose range includes
    /// it are no longer unions of their slots; the next query rebuilds
    /// them. Returns whether any entry was actually invalidated.
    fn note_write(&mut self, current: u64, epoch: u64) -> bool {
        if epoch == current || current - epoch >= self.ring.len() as u64 {
            return false;
        }
        let keep = (current - 1 - epoch) as usize;
        if self.valid > keep {
            self.valid = keep;
            true
        } else {
            false
        }
    }
}

/// A point-in-time copy of the suffix-cache counters of a
/// [`WindowedStore`] (see [`WindowedStore::window_stats`]).
///
/// `suffix_hits` and `lazy_rebuilds` partition the window/all-time
/// queries: a hit was served straight from valid suffix entries (the
/// O(1) fast path), a lazy rebuild first extended the chain by
/// `suffix_entries_built / lazy_rebuilds` entries on average. Rebuilds
/// happen after rotation (at most one full chain per key per rotation)
/// and after `dirty_invalidations` — late events landing in a sealed
/// epoch's slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowStats {
    /// Queries answered from already-valid suffix entries.
    pub suffix_hits: u64,
    /// Queries that had to extend a key's suffix chain first.
    pub lazy_rebuilds: u64,
    /// Total suffix entries built by those rebuilds (one `clone_from`
    /// plus one word-level merge each).
    pub suffix_entries_built: u64,
    /// Times a late event for a sealed epoch truncated a key's valid
    /// suffix prefix.
    pub dirty_invalidations: u64,
}

/// Internal atomic cells behind [`WindowStats`]; relaxed ordering — the
/// counters are monitoring data, not synchronization.
#[derive(Debug, Default)]
struct WindowStatCells {
    suffix_hits: AtomicU64,
    lazy_rebuilds: AtomicU64,
    suffix_entries_built: AtomicU64,
    dirty_invalidations: AtomicU64,
}

impl WindowStatCells {
    fn hit(&self) {
        // ordering: Relaxed — monitoring counter, no data published.
        self.suffix_hits.fetch_add(1, Ordering::Relaxed);
    }

    fn rebuild(&self, entries_built: usize) {
        // ordering: Relaxed — monitoring counters, no data published.
        self.lazy_rebuilds.fetch_add(1, Ordering::Relaxed);
        self.suffix_entries_built
            .fetch_add(entries_built as u64, Ordering::Relaxed);
    }

    fn invalidate(&self) {
        // ordering: Relaxed — monitoring counter, no data published.
        self.dirty_invalidations.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> WindowStats {
        WindowStats {
            // ordering: Relaxed (×4) — monitoring reads; each counter is
            // independently approximate, the snapshot need not be a
            // consistent cut.
            suffix_hits: self.suffix_hits.load(Ordering::Relaxed),
            lazy_rebuilds: self.lazy_rebuilds.load(Ordering::Relaxed),
            suffix_entries_built: self.suffix_entries_built.load(Ordering::Relaxed),
            dirty_invalidations: self.dirty_invalidations.load(Ordering::Relaxed),
        }
    }
}

/// A sharded, thread-safe map from string keys to epoch rings of
/// sub-sketches, answering arbitrary trailing-window distinct-count
/// queries. See the module docs for the architecture and a lifecycle
/// example.
#[derive(Debug)]
pub struct WindowedStore {
    cfg: EllConfig,
    /// Ring capacity E: the largest answerable trailing window.
    epochs: usize,
    /// The newest epoch the window has advanced to. Held for read during
    /// ingest and queries, for write during rotation, so every operation
    /// sees one consistent window position.
    current: RwLock<u64>,
    /// Shard maps of epoch rings plus the handoff queues buffered
    /// sessions (see [`crate::WindowIngestSession`]) park
    /// epoch-tagged runs of hashes on; queued runs drain into ring slots (or
    /// retired unions, for rotated-out epochs) under the shard write
    /// lock with the window position pinned.
    core: KeyedCore<WindowSlot, u64>,
    /// Epochs of inactivity after which a key's ring demotes to the
    /// compressed warm tier (`None` disables tiering — the default).
    /// The demotion clock *is* the epoch counter: rotation and
    /// [`WindowedStore::demote_idle`] sweep keys whose last touch is at
    /// least this many epochs behind the current one.
    warm_after: Option<u64>,
    /// Warm-tier transition counters (shared shape with the flat store).
    counters: TierCounters,
    /// Empty sketch used to recycle rotated slots (`clone_from` keeps
    /// the slot's allocation) and to reset the query scratch.
    template: ExaLogLog,
    /// Reusable per-shard accumulators for window queries: allocated
    /// by a shard's first query, then merged into through the
    /// word-level fast path and never reallocated. One per shard so
    /// queries for keys on different shards never contend (mirroring
    /// the sharded read concurrency of the maps themselves).
    scratches: Vec<Mutex<Option<ExaLogLog>>>,
    /// Suffix-cache effectiveness counters (see
    /// [`WindowedStore::window_stats`]).
    stats: WindowStatCells,
}

impl WindowedStore {
    /// Creates an empty windowed store with `shards` shards (a power of
    /// two), the given per-epoch sketch configuration, and a ring of
    /// `epochs` sub-sketches per key (the largest answerable window).
    ///
    /// Each key costs `2 × epochs` dense register arrays — `epochs`
    /// ring slots, `epochs − 1` suffix unions, and the retired union —
    /// so pick the precision accordingly (p=12 at ELL(2,20) is ~14 KiB
    /// per array). The suffix chain is the space half of the space-time
    /// trade: it makes every trailing-window query one or two merges
    /// instead of k.
    ///
    /// # Errors
    ///
    /// Rejects a shard count that is zero or not a power of two, and a
    /// zero epoch count.
    pub fn new(shards: usize, cfg: EllConfig, epochs: usize) -> Result<Self, EllError> {
        let core = KeyedCore::new(shards)?;
        if epochs == 0 {
            return Err(EllError::InvalidParameter {
                reason: "epoch ring needs at least one slot".into(),
            });
        }
        // Validate the default token parameter eagerly so session delta
        // creation is infallible.
        AdaptiveExaLogLog::new(cfg)?;
        let mut scratches = Vec::with_capacity(shards);
        scratches.resize_with(shards, || Mutex::new(None));
        Ok(WindowedStore {
            cfg,
            epochs,
            current: RwLock::new(0),
            core,
            warm_after: None,
            counters: TierCounters::default(),
            scratches,
            template: ExaLogLog::new(cfg),
            stats: WindowStatCells::default(),
        })
    }

    /// Enables (or disables, with `None`) warm-tier demotion: a key
    /// whose ring has not been ingested into or queried for at least
    /// `epochs_idle` epochs compresses down to `ELLZ` payloads — one per
    /// nonempty slot, tagged with its absolute epoch, plus one for the
    /// retired union — at the next rotation or
    /// [`WindowedStore::demote_idle`] sweep. Any later ingest or query
    /// promotes the ring back (late events re-demote immediately), and
    /// session flushes park their deltas on the warm entry instead of
    /// promoting. The windowed store has no cold/spill tier; only the
    /// flat [`crate::EllStore`] spills to disk.
    pub fn set_warm_after(&mut self, epochs_idle: Option<u64>) {
        self.warm_after = epochs_idle;
    }

    /// The warm demotion threshold in epochs, if tiering is enabled.
    #[must_use]
    pub fn warm_after(&self) -> Option<u64> {
        self.warm_after
    }

    /// The per-epoch sketch configuration.
    #[must_use]
    pub fn config(&self) -> &EllConfig {
        &self.cfg
    }

    /// The ring capacity E — the largest trailing window `estimate_window`
    /// can answer.
    #[must_use]
    pub fn epoch_window(&self) -> usize {
        self.epochs
    }

    /// The number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.core.shard_count()
    }

    /// The newest epoch the window has advanced to (0 for a new store).
    #[must_use]
    pub fn current_epoch(&self) -> u64 {
        *self.current.read().expect("epoch lock poisoned")
    }

    /// Advances the window to `epoch` (a no-op when the window is
    /// already there or past it). Every epoch that falls out of the
    /// trailing window folds into its key's retired union through the
    /// word-level merge scan, and the vacated ring slot is recycled in
    /// place with `clone_from` — rotation allocates nothing.
    ///
    /// Rotation re-seals the previous current epoch, so every key's
    /// suffix chain is reset; the next queries rebuild it incrementally
    /// (each entry at most once per rotation — see the module docs).
    ///
    /// Warm keys are **skipped entirely**: their slots are tagged with
    /// absolute epochs, so the rotation catch-up (folding rotated-out
    /// epochs into the retired union) happens once at promotion instead
    /// of on every advance — rotation cost scales with the *live* key
    /// count, not the total. When a warm threshold is set, rotation
    /// doubles as the demotion sweep for rings idle past it.
    pub fn advance(&self, epoch: u64) {
        let mut current = self.current.write().expect("epoch lock poisoned");
        if epoch <= *current {
            return;
        }
        let e = self.epochs as u64;
        // Slots that will host the new epochs (*current, epoch] are the
        // ones whose previous occupants leave the window; with a jump of
        // ≥ E epochs that is every slot, each folding exactly once.
        let first = (*current + 1).max(epoch.saturating_sub(e - 1));
        self.core.for_each_mut(|entry| {
            let WindowSlot::Live(ring) = entry else {
                return;
            };
            for rotated in first..=epoch {
                let slot = (rotated % e) as usize;
                ring.retired
                    .merge_from(&ring.ring[slot])
                    .expect("ring slots share the store configuration");
                ring.ring[slot].clone_from(&self.template);
            }
            // The sealed set shifted under the chain; re-derive it
            // lazily rather than paying E merges per key up front.
            ring.valid = 0;
            if self
                .warm_after
                .is_some_and(|after| ring.idle(epoch) >= after)
            {
                self.demote(entry, epoch);
            }
        });
        *current = epoch;
    }

    /// Sweeps every live ring whose last touch is at least the
    /// configured [`WindowedStore::set_warm_after`] threshold behind the
    /// current epoch down to the warm tier, returning how many rings
    /// demoted. A no-op without a threshold. Rotation performs the same
    /// sweep implicitly; this entry point exists for stores that query
    /// far more often than they advance.
    pub fn demote_idle(&self) -> usize {
        let Some(after) = self.warm_after else {
            return 0;
        };
        let current = self.current.read().expect("epoch lock poisoned");
        let mut demoted = 0;
        self.core.for_each_mut(|entry| {
            if matches!(entry, WindowSlot::Live(ring) if ring.idle(*current) >= after) {
                self.demote(entry, *current);
                demoted += 1;
            }
        });
        demoted
    }

    /// Promotes every warm key back to a live ring (folding parked
    /// deltas in), returning how many promoted. Useful before a
    /// latency-critical query phase.
    pub fn promote_all(&self) -> usize {
        let current = self.current.read().expect("epoch lock poisoned");
        let mut promoted = 0;
        self.core.for_each_mut(|entry| {
            if matches!(entry, WindowSlot::Warm(_)) {
                self.live(entry, *current);
                promoted += 1;
            }
        });
        promoted
    }

    /// An empty sketch for a parked pending entry.
    fn new_delta(&self) -> AdaptiveExaLogLog {
        AdaptiveExaLogLog::new(self.cfg).expect("configuration validated at store construction")
    }

    /// Replaces a live entry with its [`WarmRing`] under the pinned
    /// `current` (a no-op on warm entries). Callers hold the shard
    /// write lock.
    fn demote(&self, entry: &mut WindowSlot, current: u64) {
        if let WindowSlot::Live(ring) = entry {
            *entry = WindowSlot::Warm(self.demote_ring(current, ring));
            TierCounters::count(&self.counters.demotions_warm);
        }
    }

    /// Compresses a live ring down to a [`WarmRing`]: one `ELLZ` payload
    /// per nonempty slot (tagged with the slot's absolute epoch under
    /// the pinned `current`), plus one for the retired union when it is
    /// nonempty. Suffix unions are derived state and are dropped.
    fn demote_ring(&self, current: u64, ring: &WindowRing) -> WarmRing {
        let e = self.epochs as u64;
        let mut slots: Vec<(u64, Box<[u8]>)> = Vec::new();
        for (i, sketch) in ring.ring.iter().enumerate() {
            if sketch.is_empty() {
                continue;
            }
            // Invert `slot = epoch % E` under `current − epoch < E`:
            // the live epoch occupying slot i trails current by offset.
            let offset = ((current % e) + e - i as u64) % e;
            if offset > current {
                // The slot's epoch would predate epoch 0 — it cannot
                // hold live data (and nonempty is impossible here).
                continue;
            }
            slots.push((current - offset, compress(sketch).into_boxed_slice()));
        }
        slots.sort_unstable_by_key(|(epoch, _)| *epoch);
        let retired =
            (!ring.retired.is_empty()).then(|| compress(&ring.retired).into_boxed_slice());
        WarmRing {
            slots,
            retired,
            pending: Vec::new(),
        }
    }

    /// Rebuilds a live ring from a warm entry under the pinned
    /// `current`: payloads whose epoch is still in the window decompress
    /// straight into their slot, rotated-out epochs fold into the
    /// retired union (exactly the merges rotation would have performed),
    /// and parked session deltas route the same way. Register merge is
    /// monotone, commutative and idempotent, so the result is
    /// bit-identical to a ring that was never demoted.
    fn materialize(&self, warm: &WarmRing, current: u64) -> WindowRing {
        let e = self.epochs as u64;
        let mut ring = WindowRing::new(&self.template, self.epochs, current);
        for (epoch, payload) in &warm.slots {
            let sketch = decompress(payload).expect("warm payloads are produced by this store");
            if current - *epoch < e {
                ring.ring[(*epoch % e) as usize] = sketch;
            } else {
                ring.retired
                    .merge_from(&sketch)
                    .expect("warm payloads share the store configuration");
            }
        }
        if let Some(payload) = &warm.retired {
            let sketch = decompress(payload).expect("warm payloads are produced by this store");
            ring.retired
                .merge_from(&sketch)
                .expect("warm payloads share the store configuration");
        }
        for (epoch, delta) in &warm.pending {
            delta
                .merge_into_dense(ring.epoch_target(current, *epoch))
                .expect("deltas share the store configuration");
        }
        // The suffix chain starts invalid; queries re-derive it lazily.
        ring.valid = 0;
        ring
    }

    /// `entry`'s live ring, replacing a warm entry with its
    /// materialized ring first. Callers hold the shard write lock.
    fn live<'e>(&self, entry: &'e mut WindowSlot, current: u64) -> &'e mut WindowRing {
        if let WindowSlot::Warm(warm) = &*entry {
            *entry = WindowSlot::Live(self.materialize(warm, current));
            TierCounters::count(&self.counters.promotions);
        }
        match entry {
            WindowSlot::Live(ring) => ring,
            WindowSlot::Warm(_) => unreachable!("promoted above"),
        }
    }

    /// Inserts one `(key, element-hash)` observation for `epoch` (a
    /// direct single-shard path; use [`WindowedStore::ingest`] for
    /// batches).
    pub fn insert(&self, key: &str, epoch: u64, hash: u64) {
        self.ingest(epoch, &[(key, hash)]);
    }

    /// Batched ingest of observations belonging to `epoch`.
    ///
    /// The window auto-advances when `epoch` is newer than the current
    /// one. Observations for an epoch still inside the window land in
    /// that epoch's ring slot; late observations for an epoch that
    /// already left the window fold into the key's retired union (they
    /// still count in all-time totals, never in a trailing window).
    ///
    /// The batch is grouped into one run per key, ordered by shard,
    /// through the same grouper session flushes use, so each shard's
    /// write lock is taken once and each key is looked up once per
    /// batch.
    ///
    /// Per-key state is monotone, so any partition of an epoch's events
    /// over any number of threads yields the same final state.
    pub fn ingest(&self, epoch: u64, batch: &[(&str, u64)]) {
        if batch.is_empty() {
            // Still record the epoch itself: an empty batch for a newer
            // epoch must rotate the window exactly like a populated one.
            self.advance(epoch);
            return;
        }
        loop {
            let current = self.current.read().expect("epoch lock poisoned");
            if epoch <= *current {
                self.ingest_at(*current, epoch, batch);
                return;
            }
            drop(current);
            self.advance(epoch);
        }
    }

    /// Ingest with the window pinned at `current` (the epoch read lock
    /// is held by the caller's stack frame logic: `epoch ≤ current`).
    fn ingest_at(&self, current: u64, epoch: u64, batch: &[(&str, u64)]) {
        let mut hashes = Vec::new();
        let runs = self.core.group(epoch, batch, &mut hashes);
        for (si, group) in by_shard(&runs) {
            let new = || self.new_value(current);
            self.core
                .write(si)
                .fold(group, new, Self::touch, |entry, run| {
                    // A warm key promotes first; a *late* event re-demotes
                    // right after the merge without refreshing the idle
                    // stamp — catching up on history is not fresh traffic.
                    let was_warm = matches!(entry, WindowSlot::Warm(_));
                    let ring = self.live(entry, current);
                    ring.epoch_target(current, epoch).insert_hashes(run.hashes);
                    if ring.note_write(current, epoch) {
                        self.stats.invalidate();
                    }
                    if was_warm && epoch < current {
                        self.demote(entry, current);
                    } else {
                        // ordering: Relaxed — idle-age stamp; read only by
                        // the demotion sweeps under the shard write lock.
                        ring.touched.store(current, Ordering::Relaxed);
                    }
                });
        }
    }

    /// Opens a buffered ingest session: inserts append to a session-local
    /// log, and each flush groups it once and folds every `(key, epoch)`
    /// run of hashes straight into its ring slot (see
    /// [`crate::WindowIngestSession`]). One session per ingesting
    /// thread is the intended shape.
    #[must_use]
    pub fn session(&self) -> crate::WindowIngestSession<'_> {
        crate::Session::new(self, self.current_epoch())
    }

    /// Extends `ring`'s suffix chain so the first `needed` entries are
    /// valid: each new entry is one `clone_from` of its predecessor plus
    /// one word-level merge of the next-older sealed slot. Returns the
    /// number of entries built. Allocation-free: the entries were sized
    /// at ring construction and are rebuilt in place.
    fn extend_suffixes(&self, ring: &mut WindowRing, current: u64, needed: usize) -> usize {
        let built = needed - ring.valid;
        let e = self.epochs as u64;
        let WindowRing {
            ring: slots,
            suffix,
            valid,
            ..
        } = ring;
        for j in *valid..needed {
            let (prev, rest) = suffix.split_at_mut(j);
            let entry = &mut rest[0];
            // Sealed epoch `current − 1 − j` — nonexistent before the
            // store's first epoch, in which case it contributes nothing.
            let sealed = (current > j as u64).then(|| current - 1 - j as u64);
            match (j, sealed) {
                (0, Some(epoch)) => entry.clone_from(&slots[(epoch % e) as usize]),
                (0, None) => entry.clone_from(&self.template),
                (_, Some(epoch)) => {
                    entry.clone_from(&prev[j - 1]);
                    entry
                        .merge_from(&slots[(epoch % e) as usize])
                        .expect("ring slots share the store configuration");
                }
                (_, None) => entry.clone_from(&prev[j - 1]),
            }
        }
        *valid = needed;
        built
    }

    /// Finishes a window query from a valid suffix chain: the scratch
    /// becomes `suffix[k − 2] ∪ current slot` (for `k = 1`, just the
    /// current slot) — one clone plus one merge regardless of k.
    fn finish_window(&self, si: usize, ring: &WindowRing, current: u64, last_k: usize) -> f64 {
        let cur_slot = &ring.ring[(current % self.epochs as u64) as usize];
        self.scratch_estimate(si, |scratch| {
            if last_k == 1 {
                scratch.clone_from(&self.template);
            } else {
                scratch.clone_from(&ring.suffix[last_k - 2]);
            }
            scratch
                .merge_from(cur_slot)
                .expect("ring slots share the store configuration");
        })
    }

    /// Finishes an all-time query from a valid suffix chain: the scratch
    /// becomes `retired ∪ suffix[E − 2] ∪ current slot` — at most two
    /// merges instead of folding all E slots.
    fn finish_all_time(&self, si: usize, ring: &WindowRing, current: u64) -> f64 {
        let cur_slot = &ring.ring[(current % self.epochs as u64) as usize];
        self.scratch_estimate(si, |scratch| {
            scratch.clone_from(&ring.retired);
            if self.epochs >= 2 {
                scratch
                    .merge_from(&ring.suffix[self.epochs - 2])
                    .expect("ring slots share the store configuration");
            }
            scratch
                .merge_from(cur_slot)
                .expect("ring slots share the store configuration");
        })
    }

    /// Fills shard `si`'s query scratch with `fill` and estimates it.
    /// The scratch is allocated by the shard's first query, so a store
    /// only pays for the shards it serves, and a warmed query loop
    /// allocates nothing.
    fn scratch_estimate(&self, si: usize, fill: impl FnOnce(&mut ExaLogLog)) -> f64 {
        let mut slot = self.scratches[si].lock().expect("scratch lock poisoned");
        let scratch = slot.get_or_insert_with(|| self.template.clone());
        fill(scratch);
        scratch.estimate()
    }

    /// Serves a query that needs the first `needed` suffix entries:
    /// straight from the shard read lock when the chain is already valid
    /// (the O(1) fast path), otherwise under the write lock after a lazy
    /// incremental rebuild. `finish` computes the estimate once the
    /// chain is long enough.
    fn with_suffixes(
        &self,
        key: &str,
        needed: usize,
        finish: impl Fn(usize, &WindowRing, u64) -> f64,
    ) -> Option<f64> {
        let current = self.current.read().expect("epoch lock poisoned");
        let (si, key_hash) = self.core.locate(key);
        {
            let table = self.core.read(si);
            if let WindowSlot::Live(ring) = table.get(key_hash, key)? {
                if ring.valid >= needed {
                    self.stats.hit();
                    // ordering: Relaxed — idle-age stamp raced by other
                    // query threads under the read lock; the demotion
                    // sweeps read it under the write lock, whose acquire
                    // orders it after every read-lock stamp. A lost race
                    // at worst delays one demotion.
                    ring.touched.store(*current, Ordering::Relaxed);
                    return Some(finish(si, ring, *current));
                }
            }
        }
        // The chain is short (rotation reset or a late-event truncation)
        // or the key is warm: promote and/or rebuild the missing entries
        // under the shard write lock, then answer there. Another thread
        // may have raced us to it.
        let mut table = self.core.write(si);
        let ring = self.live(table.get_mut(key_hash, key)?, *current);
        // ordering: Relaxed — idle-age stamp under the write lock.
        ring.touched.store(*current, Ordering::Relaxed);
        if ring.valid < needed {
            let built = self.extend_suffixes(ring, *current, needed);
            self.stats.rebuild(built);
        } else {
            self.stats.hit();
        }
        Some(finish(si, ring, *current))
    }

    /// The distinct-count estimate for `key` over the trailing window of
    /// the last `last_k` epochs — `(current − last_k, current]` — or
    /// `None` if the key has never been observed.
    ///
    /// **O(1) in the window length:** the scratch sketch is
    /// `clone_from(suffix[k − 2])` plus one word-level
    /// [`ExaLogLog::merge_from`] of the live current-epoch slot — one
    /// clone and one merge regardless of k (k = 1 clones the empty
    /// template through the same path, so latency is flat in k). No
    /// per-query heap allocation happens, including lazy suffix
    /// rebuilds after rotation or late events (entries are rebuilt in
    /// place). Every answer stays bit-identical to the offline
    /// per-register merge of the same k epochs.
    ///
    /// # Panics
    ///
    /// Panics when `last_k` is zero or exceeds the ring capacity
    /// [`WindowedStore::epoch_window`].
    #[must_use]
    pub fn estimate_window(&self, key: &str, last_k: usize) -> Option<f64> {
        assert!(
            last_k >= 1 && last_k <= self.epochs,
            "window of {last_k} epochs outside [1, {}]",
            self.epochs
        );
        // A k-epoch window needs the newest k − 1 sealed epochs.
        self.with_suffixes(key, last_k - 1, |si, ring, current| {
            self.finish_window(si, ring, current, last_k)
        })
    }

    /// The all-time distinct-count estimate for `key`: the union of the
    /// retired epochs and every live ring slot (`None` if the key has
    /// never been observed). Reuses the full suffix union — `retired ∪
    /// suffix[E − 2] ∪ current slot`, two merges — instead of folding
    /// all E slots.
    #[must_use]
    pub fn estimate_all_time(&self, key: &str) -> Option<f64> {
        self.with_suffixes(key, self.epochs - 1, |si, ring, current| {
            self.finish_all_time(si, ring, current)
        })
    }

    /// A point-in-time copy of the suffix-cache counters: how many
    /// queries hit a valid suffix chain, how many had to rebuild one
    /// (and how many entries those rebuilds produced), and how many late
    /// events invalidated cached entries. The CLI prints these under
    /// `ell store window query --stats`.
    #[must_use]
    pub fn window_stats(&self) -> WindowStats {
        self.stats.snapshot()
    }

    /// A copy of the live sub-sketch of `epoch` for `key`: `None` when
    /// the key is unknown or the epoch is outside the current window.
    /// This is the offline-merge seam the equivalence property tests
    /// (and external epoch-level consumers) build on. Side-effect free:
    /// a warm key is materialized into a temporary, not promoted.
    #[must_use]
    pub fn epoch_sketch(&self, key: &str, epoch: u64) -> Option<ExaLogLog> {
        let current = self.current.read().expect("epoch lock poisoned");
        if epoch > *current || *current - epoch >= self.epochs as u64 {
            return None;
        }
        let slot = (epoch % self.epochs as u64) as usize;
        self.core.with(key, |entry| match entry {
            WindowSlot::Live(ring) => ring.ring[slot].clone(),
            WindowSlot::Warm(warm) => self
                .materialize(warm, *current)
                .ring
                .into_vec()
                .swap_remove(slot),
        })
    }

    /// A copy of the retired union for `key` (`None` if the key has
    /// never been observed). Like [`WindowedStore::epoch_sketch`], warm
    /// keys are materialized into a temporary, not promoted.
    #[must_use]
    pub fn retired_sketch(&self, key: &str) -> Option<ExaLogLog> {
        let current = self.current.read().expect("epoch lock poisoned");
        self.core.with(key, |entry| match entry {
            WindowSlot::Live(ring) => ring.retired.clone(),
            WindowSlot::Warm(warm) => self.materialize(warm, *current).retired,
        })
    }

    /// The number of distinct keys in the store.
    #[must_use]
    pub fn key_count(&self) -> usize {
        self.core.key_count()
    }

    /// Whether the store holds no keys at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.key_count() == 0
    }

    /// All keys, sorted (a point-in-time copy).
    #[must_use]
    pub fn keys(&self) -> Vec<String> {
        self.core.keys()
    }

    /// `(key, windowed estimate over the last `last_k` epochs)` for every
    /// key, sorted by key.
    ///
    /// # Panics
    ///
    /// Panics when `last_k` is zero or exceeds the ring capacity.
    #[must_use]
    pub fn window_estimates(&self, last_k: usize) -> Vec<(String, f64)> {
        self.keys()
            .into_iter()
            .filter_map(|key| {
                let estimate = self.estimate_window(&key, last_k)?;
                Some((key, estimate))
            })
            .collect()
    }

    /// Approximate total in-memory footprint in bytes (keys + rings or
    /// warm payloads + the store scaffolding). A deep account: warm
    /// entries contribute their compressed payload lengths plus any
    /// parked deltas, which is what the tiering trade is about.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        // Scaffolding: the template plus the query scratches allocated
        // so far.
        let scratches = self
            .scratches
            .iter()
            .filter(|s| s.lock().expect("scratch lock poisoned").is_some())
            .count();
        core::mem::size_of::<Self>()
            + (1 + scratches) * self.template.memory_bytes()
            + self.core.memory_bytes(|entry| match entry {
                WindowSlot::Live(ring) => ring.memory_bytes(),
                WindowSlot::Warm(warm) => warm.memory_bytes(),
            })
    }

    /// Tier occupancy and transition counters. The windowed store only
    /// uses the hot (live rings) and warm tiers; sparse/cold fields stay
    /// zero, and `resident_bytes` is [`WindowedStore::memory_bytes`].
    #[must_use]
    pub fn tier_stats(&self) -> TierStats {
        let mut stats = TierStats {
            demotions_warm: TierCounters::get(&self.counters.demotions_warm),
            promotions: TierCounters::get(&self.counters.promotions),
            parked_deltas: TierCounters::get(&self.counters.parked_deltas),
            resident_bytes: self.memory_bytes(),
            ..TierStats::default()
        };
        self.core.for_each(|_, entry| match entry {
            WindowSlot::Live(_) => stats.hot_keys += 1,
            WindowSlot::Warm(_) => stats.warm_keys += 1,
        });
        stats
    }

    /// Internal iteration for the wire format: every `(key, state)`
    /// pair, sorted by key. Parked deltas are first folded into their
    /// warm entry's payloads (materialize, merge, re-demote — the entry
    /// stays warm), so warm payloads travel verbatim in canonical form
    /// (no dense round trip) and restore → re-snapshot is
    /// byte-identical.
    pub(crate) fn wire_entries(&self) -> Vec<(String, WireRing)> {
        {
            let current = self.current.read().expect("epoch lock poisoned");
            self.core.for_each_mut(|entry| {
                if let WindowSlot::Warm(warm) = &*entry {
                    if !warm.pending.is_empty() {
                        let ring = self.materialize(warm, *current);
                        *entry = WindowSlot::Warm(self.demote_ring(*current, &ring));
                    }
                }
            });
        }
        self.core.sorted(|entry| match entry {
            WindowSlot::Live(ring) => WireRing::Live {
                retired: ring.retired.clone(),
                slots: ring.ring.to_vec(),
            },
            WindowSlot::Warm(warm) => WireRing::Warm {
                retired: warm.retired.clone(),
                slots: warm.slots.clone(),
            },
        })
    }

    /// Wire-format restore seam: places a fully-formed live ring under
    /// `key`, returning whether the key was new. Suffix unions are
    /// derived state and never travel in the snapshot; the restored
    /// chain starts empty and the first queries re-derive it from the
    /// slots, so a restored store reproduces every estimate bit-for-bit.
    pub(crate) fn place_ring(&self, key: &str, retired: ExaLogLog, slots: Vec<ExaLogLog>) -> bool {
        debug_assert_eq!(slots.len(), self.epochs);
        self.core.insert(
            key,
            WindowSlot::Live(WindowRing {
                ring: slots.into(),
                retired,
                suffix: vec![self.template.clone(); self.epochs - 1].into(),
                valid: 0,
                touched: AtomicU64::new(0),
            }),
        )
    }

    /// Wire-format restore seam: places a warm entry under `key` with
    /// its compressed payloads kept verbatim, returning whether the key
    /// was new.
    pub(crate) fn place_warm_ring(
        &self,
        key: &str,
        retired: Option<Box<[u8]>>,
        slots: Vec<(u64, Box<[u8]>)>,
    ) -> bool {
        self.core.insert(
            key,
            WindowSlot::Warm(WarmRing {
                slots,
                retired,
                pending: Vec::new(),
            }),
        )
    }

    /// Wire-format restore seam: pins the current epoch without
    /// rotating (the snapshot's rings are already rotated), and stamps
    /// every live ring as freshly touched so a restored store does not
    /// demote everything on its first advance.
    pub(crate) fn set_current_epoch(&self, epoch: u64) {
        *self.current.write().expect("epoch lock poisoned") = epoch;
        self.core.for_each(|_, entry| {
            if let WindowSlot::Live(ring) = entry {
                // ordering: Relaxed — idle-age stamp on restore.
                ring.touched.store(epoch, Ordering::Relaxed);
            }
        });
    }
}

impl Keyed for WindowedStore {
    type Value = WindowSlot;
    type Tag = u64;
    type Pin = u64;

    fn core(&self) -> &KeyedCore<WindowSlot, u64> {
        &self.core
    }

    /// Pins the window position: the epoch read lock is held for the
    /// whole merge or drain, so the live-or-retired decision for every
    /// run is consistent with rotation (which takes the write lock).
    fn pinned<R>(&self, f: impl FnOnce(u64) -> R) -> R {
        let current = self.current.read().expect("epoch lock poisoned");
        f(*current)
    }

    /// A new key's entry: an empty live ring under the pinned `current`.
    fn new_value(&self, current: u64) -> WindowSlot {
        WindowSlot::Live(WindowRing::new(&self.template, self.epochs, current))
    }

    /// Folds one run of session hashes for `(key, epoch)` into its entry
    /// under the pinned window position. Live rings take the hashes
    /// directly (runs for rotated-out epochs fold into the retired union
    /// — exactly the state rotation would have produced, so flush timing
    /// cannot change the final bytes); **warm keys park the hashes in
    /// the entry's pending sketch for that epoch** instead of promoting,
    /// and the next promotion folds them in — the flush path never
    /// decompresses anything.
    fn merge_run(&self, entry: &mut WindowSlot, run: &Run<'_, u64>, current: u64) {
        let (epoch, hashes) = (run.tag, run.hashes);
        debug_assert!(epoch <= current, "sessions advance the window on buffer");
        match entry {
            WindowSlot::Live(ring) => {
                ring.epoch_target(current, epoch).insert_hashes(hashes);
                // A session run for a sealed epoch is a late write:
                // truncate the suffix chain exactly like direct ingest.
                if ring.note_write(current, epoch) {
                    self.stats.invalidate();
                }
                if epoch == current {
                    // ordering: Relaxed — idle-age stamp; read only by
                    // the demotion sweeps under the shard write lock.
                    ring.touched.store(current, Ordering::Relaxed);
                }
            }
            WindowSlot::Warm(warm) => {
                let i = match warm.pending.iter().position(|(parked, _)| *parked == epoch) {
                    Some(i) => i,
                    None => {
                        warm.pending.push((epoch, self.new_delta()));
                        warm.pending.len() - 1
                    }
                };
                warm.pending[i].1.insert_hashes(hashes);
                TierCounters::count(&self.counters.parked_deltas);
            }
        }
    }
}

/// One key's serialized windowed state (see
/// [`WindowedStore::wire_entries`]): live rings travel as dense
/// sketches in slot order, warm entries as their compressed payloads
/// verbatim.
#[derive(Debug)]
pub(crate) enum WireRing {
    /// A live ring: the retired union plus all E slots in slot order.
    Live {
        retired: ExaLogLog,
        slots: Vec<ExaLogLog>,
    },
    /// A warm entry: compressed retired union (if nonempty) plus
    /// `(epoch, payload)` pairs sorted by epoch.
    Warm {
        retired: Option<Box<[u8]>>,
        slots: Vec<(u64, Box<[u8]>)>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use ell_hash::{mix64, SplitMix64};
    use std::collections::HashSet;

    fn cfg() -> EllConfig {
        EllConfig::new(2, 16, 6).unwrap()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(WindowedStore::new(0, cfg(), 4).is_err());
        assert!(WindowedStore::new(3, cfg(), 4).is_err());
        assert!(WindowedStore::new(4, cfg(), 0).is_err());
        assert!(WindowedStore::new(4, cfg(), 1).is_ok());
    }

    #[test]
    fn windowed_estimates_track_exact_per_epoch_sets() {
        let store = WindowedStore::new(4, EllConfig::optimal(10).unwrap(), 4).unwrap();
        let mut rng = SplitMix64::new(1);
        // Four epochs of 4000 events each over a 6000-value universe.
        let mut per_epoch: Vec<HashSet<u64>> = Vec::new();
        for epoch in 0..4u64 {
            let mut seen = HashSet::new();
            let batch: Vec<(&str, u64)> = (0..4000)
                .map(|_| {
                    let h = mix64(rng.next_u64() % 6000 + epoch * 10_000);
                    seen.insert(h);
                    ("k", h)
                })
                .collect();
            store.ingest(epoch, &batch);
            per_epoch.push(seen);
        }
        assert_eq!(store.current_epoch(), 3);
        for k in 1..=4usize {
            let exact: HashSet<u64> = per_epoch[4 - k..].iter().flatten().copied().collect();
            let est = store.estimate_window("k", k).unwrap();
            assert!(
                (est / exact.len() as f64 - 1.0).abs() < 0.12,
                "k={k}: estimate {est} vs exact {}",
                exact.len()
            );
        }
        assert!(store.estimate_window("never", 2).is_none());
    }

    #[test]
    fn advance_retires_old_epochs_but_keeps_all_time_totals() {
        let store = WindowedStore::new(2, cfg(), 2).unwrap();
        let mut rng = SplitMix64::new(2);
        let old: Vec<(&str, u64)> = (0..3000).map(|_| ("k", rng.next_u64())).collect();
        store.ingest(0, &old);
        let all_before = store.estimate_all_time("k").unwrap();
        store.advance(5);
        // The window is empty now…
        assert_eq!(store.estimate_window("k", 2).unwrap(), 0.0);
        // …but the retired union still holds everything, bit-for-bit.
        assert_eq!(store.estimate_all_time("k").unwrap(), all_before);
        // Late events for a retired epoch fold into the union, not the
        // window.
        store.ingest(1, &[("k", rng.next_u64())]);
        assert_eq!(store.estimate_window("k", 2).unwrap(), 0.0);
        assert!(store.estimate_all_time("k").unwrap() >= all_before);
    }

    #[test]
    fn window_equals_offline_epoch_merge() {
        let store = WindowedStore::new(4, cfg(), 3).unwrap();
        let mut rng = SplitMix64::new(3);
        for epoch in 0..3u64 {
            let batch: Vec<(&str, u64)> = (0..2000).map(|_| ("k", rng.next_u64())).collect();
            store.ingest(epoch, &batch);
        }
        for k in 1..=3usize {
            let mut offline = ExaLogLog::new(cfg());
            for epoch in (3 - k as u64)..=2 {
                offline
                    .merge_from_per_register(&store.epoch_sketch("k", epoch).unwrap())
                    .unwrap();
            }
            assert_eq!(
                store.estimate_window("k", k).unwrap().to_bits(),
                offline.estimate().to_bits(),
                "k={k}"
            );
        }
        // Out-of-window epochs are not exposed.
        store.advance(10);
        assert!(store.epoch_sketch("k", 2).is_none());
        assert!(store.epoch_sketch("k", 11).is_none());
        assert!(store.retired_sketch("k").is_some());
    }

    #[test]
    fn ingest_auto_advances_and_empty_batches_rotate() {
        let store = WindowedStore::new(2, cfg(), 2).unwrap();
        store.ingest(3, &[("a", 7)]);
        assert_eq!(store.current_epoch(), 3);
        store.ingest(9, &[]);
        assert_eq!(store.current_epoch(), 9);
        // Epoch 3 left the window during the empty-batch advance.
        assert_eq!(store.estimate_window("a", 2).unwrap(), 0.0);
        assert_eq!(store.estimate_all_time("a").unwrap().round() as u64, 1);
    }

    #[test]
    fn keys_and_window_estimates_are_sorted() {
        let store = WindowedStore::new(8, cfg(), 2).unwrap();
        for key in ["zeta", "alpha", "mid"] {
            store.insert(key, 0, 42);
        }
        assert_eq!(store.keys(), vec!["alpha", "mid", "zeta"]);
        let names: Vec<String> = store
            .window_estimates(2)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        assert_eq!(store.key_count(), 3);
        assert!(!store.is_empty());
    }

    #[test]
    fn memory_accounts_for_rings() {
        let store = WindowedStore::new(2, cfg(), 3).unwrap();
        let empty = store.memory_bytes();
        store.insert("some-key", 0, 7);
        // One key costs E+1 register arrays.
        assert!(store.memory_bytes() > empty + 3 * cfg().register_array_bytes());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn oversized_window_panics() {
        let store = WindowedStore::new(2, cfg(), 2).unwrap();
        store.insert("k", 0, 1);
        let _ = store.estimate_window("k", 3);
    }

    #[test]
    fn single_epoch_ring_has_no_suffixes_and_still_answers() {
        let store = WindowedStore::new(2, cfg(), 1).unwrap();
        let mut rng = SplitMix64::new(4);
        let batch: Vec<(&str, u64)> = (0..2000).map(|_| ("k", rng.next_u64())).collect();
        store.ingest(0, &batch);
        let in_window = store.estimate_window("k", 1).unwrap();
        assert!(in_window > 1000.0);
        assert_eq!(store.estimate_all_time("k").unwrap(), in_window);
        store.advance(1);
        assert_eq!(store.estimate_window("k", 1).unwrap(), 0.0);
        assert_eq!(store.estimate_all_time("k").unwrap(), in_window);
    }

    #[test]
    fn all_time_estimate_equals_offline_fold_of_retired_and_slots() {
        let store = WindowedStore::new(4, cfg(), 3).unwrap();
        let mut rng = SplitMix64::new(5);
        for epoch in 0..6u64 {
            let batch: Vec<(&str, u64)> = (0..1500).map(|_| ("k", rng.next_u64())).collect();
            store.ingest(epoch, &batch);
        }
        // Late event into a sealed live epoch, then one into retired.
        store.ingest(4, &[("k", rng.next_u64())]);
        store.ingest(0, &[("k", rng.next_u64())]);
        let mut offline = store.retired_sketch("k").unwrap();
        for epoch in 3..=5u64 {
            offline
                .merge_from_per_register(&store.epoch_sketch("k", epoch).unwrap())
                .unwrap();
        }
        assert_eq!(
            store.estimate_all_time("k").unwrap().to_bits(),
            offline.estimate().to_bits()
        );
    }

    #[test]
    fn suffix_cache_counters_track_hits_rebuilds_and_invalidations() {
        let store = WindowedStore::new(2, cfg(), 4).unwrap();
        for epoch in 0..4u64 {
            let batch: Vec<(&str, u64)> =
                (0..200).map(|i| ("k", mix64(epoch * 1000 + i))).collect();
            store.ingest(epoch, &batch);
        }
        assert_eq!(store.window_stats(), WindowStats::default());

        // First wide query after rotation rebuilds the whole chain…
        let wide = store.estimate_window("k", 4).unwrap();
        let s = store.window_stats();
        assert_eq!(
            (s.suffix_hits, s.lazy_rebuilds, s.suffix_entries_built),
            (0, 1, 3)
        );

        // …and every later query (any k) rides the valid chain.
        for k in 1..=4usize {
            store.estimate_window("k", k).unwrap();
        }
        assert_eq!(store.window_stats().suffix_hits, 4);
        assert_eq!(store.window_stats().lazy_rebuilds, 1);

        // A late event into sealed epoch 1 (current is 3) invalidates
        // the entries covering it (j ≥ 1); suffix[0] stays valid.
        store.ingest(1, &[("k", mix64(77))]);
        let s = store.window_stats();
        assert_eq!(s.dirty_invalidations, 1);
        // k ≤ 2 still hits; k = 4 rebuilds only the truncated tail.
        store.estimate_window("k", 2).unwrap();
        assert_eq!(store.window_stats().suffix_hits, 5);
        let wide_after = store.estimate_window("k", 4).unwrap();
        let s = store.window_stats();
        assert_eq!((s.lazy_rebuilds, s.suffix_entries_built), (2, 5));
        // The late event is now visible in the wide window, and the
        // rebuilt answer matches the offline per-register oracle.
        let mut offline = ExaLogLog::new(cfg());
        for e in 0..=3u64 {
            offline
                .merge_from_per_register(&store.epoch_sketch("k", e).unwrap())
                .unwrap();
        }
        assert_eq!(wide_after.to_bits(), offline.estimate().to_bits());
        assert!(wide_after.is_finite() && wide >= 0.0);
        // Fresh truncations below the valid prefix count; re-marking an
        // already-shorter chain does not.
        store.ingest(1, &[("k", mix64(78))]); // valid 3 → 1: counts
        store.ingest(2, &[("k", mix64(79))]); // valid 1 → 0: counts
        store.ingest(1, &[("k", mix64(80))]); // already ≤ 1: no-op
        assert_eq!(store.window_stats().dirty_invalidations, 3);
    }

    /// Drives a tiered store and a never-tiered twin through the same
    /// ops and asserts every estimate matches bitwise.
    fn assert_twin_equal(store: &WindowedStore, twin: &WindowedStore) {
        assert_eq!(store.keys(), twin.keys());
        for key in twin.keys() {
            for k in 1..=twin.epoch_window() {
                assert_eq!(
                    store.estimate_window(&key, k).unwrap().to_bits(),
                    twin.estimate_window(&key, k).unwrap().to_bits(),
                    "{key}: window k={k} diverged from the never-tiered twin"
                );
            }
            assert_eq!(
                store.estimate_all_time(&key).unwrap().to_bits(),
                twin.estimate_all_time(&key).unwrap().to_bits(),
                "{key}: all-time diverged from the never-tiered twin"
            );
        }
    }

    #[test]
    fn warm_demotion_and_promotion_stay_bit_identical_to_untiered_twin() {
        let mut store = WindowedStore::new(4, cfg(), 3).unwrap();
        store.set_warm_after(Some(2));
        let twin = WindowedStore::new(4, cfg(), 3).unwrap();
        let mut rng = SplitMix64::new(21);
        for epoch in 0..6u64 {
            let batch: Vec<(String, u64)> = (0..900)
                .map(|i| (format!("key-{}", i % 6), rng.next_u64()))
                .collect();
            let refs: Vec<(&str, u64)> = batch.iter().map(|(k, h)| (k.as_str(), *h)).collect();
            store.ingest(epoch, &refs);
            twin.ingest(epoch, &refs);
        }
        // Rotate far ahead with only one key active: the rest demote
        // (via the rotation sweep), and memory shrinks accordingly.
        let before = store.memory_bytes();
        store.ingest(9, &[("key-0", 5)]);
        twin.ingest(9, &[("key-0", 5)]);
        store.demote_idle();
        let stats = store.tier_stats();
        assert_eq!(stats.hot_keys, 1);
        assert_eq!(stats.warm_keys, 5);
        assert!(stats.demotions_warm >= 5);
        assert!(
            store.memory_bytes() < before,
            "warm entries should shrink the footprint"
        );
        // Queries promote transparently and match the twin bitwise.
        assert_twin_equal(&store, &twin);
        assert!(store.tier_stats().promotions >= 5);
        // promote_all is then a no-op that leaves everything live.
        store.promote_all();
        assert_eq!(store.tier_stats().warm_keys, 0);
        assert_twin_equal(&store, &twin);
    }

    #[test]
    fn late_events_into_warm_rings_promote_merge_and_redemote() {
        let mut store = WindowedStore::new(2, cfg(), 4).unwrap();
        store.set_warm_after(Some(1));
        let twin = WindowedStore::new(2, cfg(), 4).unwrap();
        let mut rng = SplitMix64::new(22);
        for epoch in 0..5u64 {
            let batch: Vec<(&str, u64)> = (0..400).map(|_| ("k", rng.next_u64())).collect();
            store.ingest(epoch, &batch);
            twin.ingest(epoch, &batch);
        }
        // Advance with an unrelated key so "k" goes idle and demotes.
        store.ingest(6, &[("fresh", 1)]);
        twin.ingest(6, &[("fresh", 1)]);
        store.demote_idle();
        assert_eq!(store.tier_stats().warm_keys, 1);

        // A late event into a sealed epoch of the demoted ring: the
        // store promotes, merges, and re-demotes — the key stays warm.
        let late: Vec<(&str, u64)> = (0..50).map(|_| ("k", rng.next_u64())).collect();
        store.ingest(4, &late);
        twin.ingest(4, &late);
        assert_eq!(
            store.tier_stats().warm_keys,
            1,
            "late events must not leave the ring resident"
        );
        // A late event into a *retired* epoch behaves the same.
        store.ingest(0, &[("k", 123)]);
        twin.ingest(0, &[("k", 123)]);
        assert_eq!(store.tier_stats().warm_keys, 1);
        // Current-epoch traffic, by contrast, promotes and keeps it hot.
        store.ingest(6, &[("k", 7)]);
        twin.ingest(6, &[("k", 7)]);
        assert_eq!(store.tier_stats().warm_keys, 0);
        assert_twin_equal(&store, &twin);
    }

    #[test]
    fn session_flushes_park_on_warm_window_keys_without_promoting() {
        let mut store = WindowedStore::new(2, cfg(), 3).unwrap();
        store.set_warm_after(Some(1));
        let twin = WindowedStore::new(2, cfg(), 3).unwrap();
        let mut rng = SplitMix64::new(23);
        for epoch in 0..3u64 {
            let batch: Vec<(&str, u64)> = (0..500).map(|_| ("k", rng.next_u64())).collect();
            store.ingest(epoch, &batch);
            twin.ingest(epoch, &batch);
        }
        store.ingest(5, &[("fresh", 1)]);
        twin.ingest(5, &[("fresh", 1)]);
        store.demote_idle();
        assert_eq!(store.tier_stats().warm_keys, 1);

        // Session deltas for the warm key park instead of promoting…
        let late: Vec<u64> = (0..80).map(|_| rng.next_u64()).collect();
        {
            let mut session = store.session();
            for h in &late {
                session.insert("k", 4, *h);
            }
        }
        for h in &late {
            twin.insert("k", 4, *h);
        }
        assert_eq!(store.tier_stats().warm_keys, 1, "flush must not promote");
        assert!(store.tier_stats().parked_deltas >= 1);
        // …the snapshot settles them into the warm payloads (the key
        // stays warm and the restored store agrees)…
        let restored = WindowedStore::from_snapshot_bytes(&store.snapshot_bytes()).unwrap();
        assert_eq!(store.tier_stats().warm_keys, 1);
        assert_twin_equal(&restored, &twin);
        // …and direct queries fold them in bit-identically too.
        assert_twin_equal(&store, &twin);
    }

    #[test]
    fn warm_rings_are_skipped_by_rotation_until_promoted() {
        let mut store = WindowedStore::new(2, cfg(), 3).unwrap();
        store.set_warm_after(Some(1));
        let twin = WindowedStore::new(2, cfg(), 3).unwrap();
        let mut rng = SplitMix64::new(24);
        let batch: Vec<(&str, u64)> = (0..600).map(|_| ("k", rng.next_u64())).collect();
        store.ingest(0, &batch);
        twin.ingest(0, &batch);
        let batch: Vec<(&str, u64)> = (0..600).map(|_| ("k", rng.next_u64())).collect();
        store.ingest(1, &batch);
        twin.ingest(1, &batch);
        // Demote at epoch 3, then rotate far past the ring: promotion
        // must fold the stale tagged epochs into retired exactly like
        // live rotation would have.
        store.ingest(3, &[("other", 9)]);
        twin.ingest(3, &[("other", 9)]);
        store.demote_idle();
        assert_eq!(store.tier_stats().warm_keys, 1);
        store.advance(20);
        twin.advance(20);
        assert_twin_equal(&store, &twin);
        assert_eq!(store.estimate_window("k", 3).unwrap(), 0.0);
    }

    #[test]
    fn late_events_after_rotation_stay_bit_identical_to_oracle() {
        let store = WindowedStore::new(2, cfg(), 4).unwrap();
        let mut rng = SplitMix64::new(6);
        for epoch in 0..7u64 {
            let batch: Vec<(&str, u64)> = (0..800).map(|_| ("k", rng.next_u64())).collect();
            store.ingest(epoch, &batch);
        }
        // Build the chain, then land late events in every sealed epoch.
        for k in 1..=4usize {
            store.estimate_window("k", k).unwrap();
        }
        for epoch in 3..6u64 {
            let batch: Vec<(&str, u64)> = (0..300).map(|_| ("k", rng.next_u64())).collect();
            store.ingest(epoch, &batch);
        }
        for k in 1..=4usize {
            let mut offline = ExaLogLog::new(cfg());
            for e in (7 - k as u64)..=6 {
                offline
                    .merge_from_per_register(&store.epoch_sketch("k", e).unwrap())
                    .unwrap();
            }
            assert_eq!(
                store.estimate_window("k", k).unwrap().to_bits(),
                offline.estimate().to_bits(),
                "k={k} diverged after late events"
            );
        }
        assert!(store.window_stats().dirty_invalidations >= 1);
    }
}
