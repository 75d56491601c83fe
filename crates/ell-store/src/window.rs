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
//! `E` [`AdaptiveExaLogLog`] sub-sketches (slot `e % E` holds the data
//! of epoch `e` for every epoch in the live window) plus one compacted
//! *retired* union of every epoch that has fallen out of the window.
//! Like a flat key, each slot and the retired union hold hash tokens
//! until the §4.3 break-even and a dense register array after it, so a
//! key that sees a few elements per epoch costs a few tokens per slot,
//! not E + 1 register arrays. Like [`EllStore`](crate::EllStore), keys
//! are hash-partitioned over N power-of-two shards, each a `RwLock` over
//! a flat open-addressed table probed by the same key hash that picked
//! the shard.
//!
//! On top of the ring each key keeps a chain of dense **suffix unions**:
//! `suffix[j]` is the union of the newest `j + 1` *sealed* epochs (every
//! live epoch except the mutable current one), so `suffix[j] =
//! suffix[j-1] ∪ slot(current − 1 − j)`. The chain is derived state: it
//! is allocated only when a query first needs it, grows to the longest
//! window a query has asked for, and is never demoted or serialized. Any
//! trailing window is then two folds instead of k:
//!
//! * [`WindowedStore::estimate_window`]`(key, k)` clones `suffix[k − 2]`
//!   into a reusable dense scratch sketch and folds the live
//!   current-epoch slot on top — a word-level merge once the slot is
//!   dense, its tokens streamed in while sparse (`k = 1` loads the slot
//!   alone — the same code path, so latency is flat in k). Every
//!   estimate is the dense ML estimate of the merged registers,
//!   bit-identical to the offline dense merge of the same epochs. No
//!   per-query heap allocation happens once a key's chain is long
//!   enough; the `bench_window` binary counts allocations to prove it,
//!   and emits a `query_flat_vs_k` verdict that CI gates.
//! * [`WindowedStore::advance`] rotates the window forward: each epoch
//!   leaving the window folds into the retired union — a token merge
//!   while both are sparse — and its slot becomes an empty token set.
//!   Rotation re-seals the previous current epoch, so it resets each
//!   key's suffix validity; the chain is rebuilt **lazily and
//!   incrementally** by the next queries (each suffix entry is built at
//!   most once per rotation, so the rebuild cost is amortized over the
//!   rotation interval and the steady-state query path stays O(1)
//!   folds).
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
use crate::sync::{Mutex, RwLock};
use crate::tiers::{Counters, Entry, Ladder, Rung, View};
use crate::tiers::{Tier, TierConfig, TierStats};
use crate::window_wire::{encode_warm, live_entry, read_warm_body, warm_entry};
use exaloglog::adaptive::AdaptiveExaLogLog;
use exaloglog::{EllConfig, EllError, ExaLogLog};

/// One key's windowed state on the residency ladder. Sealed ring slots
/// and retired unions are immutable except for late events, which makes
/// idle rings the prime demotion targets.
pub(crate) type WindowEntry = Entry<WindowRing>;

/// One key's live windowed state: the epoch ring, the retired union, and
/// the rotation-amortized suffix-union chain over the sealed slots.
#[derive(Debug)]
pub(crate) struct WindowRing {
    /// Slot `e % E` holds epoch `e`'s sub-sketch for every live epoch
    /// `e` in `(current − E, current]`: a token set until the §4.3
    /// break-even, registers after it, like a flat key. Slots for epochs
    /// the key never saw are empty token sets. Fixed length, so a boxed
    /// slice: the ring sits inline in its shard-table entry, where a
    /// `Vec`'s capacity word would be paid per key.
    ring: Box<[AdaptiveExaLogLog]>,
    /// Union of every epoch of this key that has left the window.
    retired: AdaptiveExaLogLog,
    /// Dense cumulative unions over the *sealed* (non-current) live
    /// slots: `suffix[j] = ⋃ slot(current − 1 − i) for i ≤ j` — the
    /// newest `j + 1` sealed epochs. Empty until a query first needs an
    /// entry, then grown to the longest chain a query has needed (at most
    /// `E − 1`); entries are rebuilt in place (a dense copy plus one
    /// fold each), never shrunk. Derived state: never encoded.
    suffix: Box<[ExaLogLog]>,
    /// Number of leading suffix entries consistent with the store's
    /// current window position (never more than `suffix.len()`).
    /// Rotation resets it to 0 (the chain is re-derived lazily); a late
    /// event for sealed epoch `e` truncates it to `current − 1 − e`, the
    /// entries that exclude `e`.
    valid: usize,
}

/// What a ring's warm bytes are encoded and decoded under: the store's
/// configuration, ring size and window position.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Position {
    cfg: EllConfig,
    epochs: usize,
    current: u64,
}

/// An empty token set of the store's configuration and default token
/// parameter: the state of a slot no event has reached.
fn empty(cfg: EllConfig) -> AdaptiveExaLogLog {
    AdaptiveExaLogLog::new(cfg).expect("token parameter validated at store construction")
}

/// Folds `sketch` into the dense accumulator `acc`: a word-level merge
/// of a dense sketch, the tokens of a sparse one streamed in.
fn fold(acc: &mut ExaLogLog, sketch: &AdaptiveExaLogLog) {
    sketch
        .merge_into_dense(acc)
        .expect("ring sketches share the store configuration");
}

/// Makes the dense `acc` equal to `sketch`: a clone of a dense sketch,
/// or a clear and a [`fold`] of a sparse one.
fn load(acc: &mut ExaLogLog, sketch: &AdaptiveExaLogLog) {
    match sketch.as_dense() {
        Some(dense) => acc.clone_from(dense),
        None => {
            acc.clear();
            fold(acc, sketch);
        }
    }
}

impl WindowRing {
    /// A ring of `slots` (the retired union and E epoch slots) with an
    /// empty suffix chain for queries to derive.
    pub(crate) fn restored(retired: AdaptiveExaLogLog, slots: Vec<AdaptiveExaLogLog>) -> Self {
        WindowRing {
            ring: slots.into(),
            retired,
            suffix: Box::default(),
            valid: 0,
        }
    }

    fn new(cfg: EllConfig, epochs: usize) -> Self {
        WindowRing::restored(empty(cfg), vec![empty(cfg); epochs])
    }

    /// The sketch holding `epoch` under the pinned `current`: its ring
    /// slot while the epoch is live, the retired union once it has left
    /// the window.
    fn epoch_target(&mut self, current: u64, epoch: u64) -> &mut AdaptiveExaLogLog {
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

/// The window's per-key work on the ladder. Sessions park `(epoch,
/// delta)` pairs on a warm ring.
impl Rung for WindowRing {
    type Parked = Vec<(u64, AdaptiveExaLogLog)>;
    type Ctx = Position;

    /// The `ELLW` warm-entry body: one payload per nonempty slot —
    /// `ELLS` while sparse, `ELLR` once dense — tagged with its
    /// *absolute* epoch (so rotation can skip warm rings entirely and
    /// the catch-up happens at revival), plus the retired union. Suffix
    /// unions are derived state and are dropped.
    fn encode(&self, at: Position) -> Box<[u8]> {
        let e = self.ring.len() as u64;
        // The live epochs (current − E, current], oldest first, each in
        // slot `epoch % E`; slots of epochs before the store's first are
        // empty.
        let live = (at.current + 1).saturating_sub(e)..=at.current;
        let slots: Vec<(u64, &AdaptiveExaLogLog)> = live
            .map(|epoch| (epoch, &self.ring[(epoch % e) as usize]))
            .filter(|(_, sketch)| !sketch.is_empty())
            .collect();
        encode_warm(&self.retired, &slots).into_boxed_slice()
    }

    /// Rebuilds the live ring under the pinned window position: payloads
    /// whose epoch is still in the window become their slot (a sparse
    /// one exactly as sparse as it was demoted), rotated-out epochs fold
    /// into the retired union (exactly the merges rotation would have
    /// performed), and parked deltas merge into the sketch they land in.
    /// Merge is monotone, commutative and idempotent, and a token set
    /// promotes only at break-even, so the result is bit-identical to a
    /// ring that was never demoted.
    fn decode(bytes: &[u8], parked: Option<&Self::Parked>, at: Position) -> Self {
        let e = at.epochs as u64;
        let mut ring = WindowRing::new(at.cfg, at.epochs);
        let mut each = |epoch: Option<u64>, sketch: AdaptiveExaLogLog| match epoch {
            Some(epoch) if at.current - epoch < e => ring.ring[(epoch % e) as usize] = sketch,
            // The retired union comes first, into the fresh ring.
            None => ring.retired = sketch,
            Some(_) => ring
                .retired
                .merge_from(&sketch)
                .expect("warm payloads share the store configuration"),
        };
        read_warm_body(
            bytes,
            &at.cfg,
            at.epochs,
            at.current,
            &String::new,
            Some(&mut each),
        )
        .expect("warm bytes are written by this store or validated on restore");
        for (epoch, delta) in parked.into_iter().flatten() {
            ring.epoch_target(at.current, *epoch)
                .merge_from(delta)
                .expect("deltas share the store configuration");
        }
        ring
    }

    fn heap_bytes(&self) -> usize {
        self.retired.memory_bytes()
            + self
                .ring
                .iter()
                .map(AdaptiveExaLogLog::memory_bytes)
                .sum::<usize>()
            + self
                .suffix
                .iter()
                .map(ExaLogLog::memory_bytes)
                .sum::<usize>()
    }

    fn parked_bytes(parked: &Self::Parked) -> usize {
        parked
            .iter()
            .map(|(_, delta)| delta.memory_bytes() + core::mem::size_of::<u64>())
            .sum()
    }

    fn tier(&self) -> Tier {
        Tier::Hot
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
    /// Total suffix entries built by those rebuilds (one dense copy plus
    /// one fold of a slot each).
    pub suffix_entries_built: u64,
    /// Times a late event for a sealed epoch truncated a key's valid
    /// suffix prefix.
    pub dirty_invalidations: u64,
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
    /// Shard maps of epoch rings. Session flushes fold epoch-tagged runs
    /// of hashes into ring slots (or retired unions, for rotated-out
    /// epochs) under the shard write lock with the window position
    /// pinned.
    core: KeyedCore<WindowEntry>,
    /// The residency ladder, measuring idle age in epochs: rotation and
    /// [`WindowedStore::demote_idle`] sweep rings whose last touch is at
    /// least `warm_after` epochs behind the current one. It also holds
    /// the suffix-cache counters (see [`WindowedStore::window_stats`]).
    ladder: Ladder,
    /// Reusable per-shard accumulators for window queries: allocated
    /// by a shard's first query, then merged into through the
    /// word-level fast path and never reallocated. One per shard so
    /// queries for keys on different shards never contend (mirroring
    /// the sharded read concurrency of the maps themselves).
    scratches: Vec<Mutex<Option<ExaLogLog>>>,
}

impl WindowedStore {
    /// Creates an empty windowed store with `shards` shards (a power of
    /// two), the given per-epoch sketch configuration, and a ring of
    /// `epochs` sub-sketches per key (the largest answerable window).
    ///
    /// Each key costs `epochs + 1` sketches — `epochs` ring slots and
    /// the retired union — that hold hash tokens until the §4.3
    /// break-even, like a flat key, and a register array each after it
    /// (p=12 at ELL(2,20) is ~14 KiB per array). A key a query has
    /// reached also holds up to `epochs − 1` dense suffix unions: the
    /// space half of the space-time trade that makes every
    /// trailing-window query one or two merges instead of k.
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
            ladder: Ladder::default(),
            scratches,
        })
    }

    /// Enables (or disables, with `None`) warm-tier demotion: a key
    /// whose ring has not been ingested into or queried for at least
    /// `epochs_idle` epochs is encoded to one payload per nonempty slot,
    /// tagged with its absolute epoch, plus one for the retired union —
    /// a sparse sketch's `ELLS` token set verbatim, a dense one's `ELLR`
    /// entropy coding — at the next rotation or
    /// [`WindowedStore::demote_idle`] sweep. Any later ingest or query
    /// promotes the ring back (late events re-demote immediately), and
    /// session flushes park their deltas on the warm entry instead of
    /// promoting. The windowed store has no cold/spill tier; only the
    /// flat [`crate::EllStore`] spills to disk.
    pub fn set_warm_after(&mut self, epochs_idle: Option<u64>) {
        let tiers = epochs_idle.map_or_else(TierConfig::new, |n| TierConfig::new().warm_after(n));
        self.ladder.configure(tiers);
    }

    /// The warm demotion threshold in epochs, if tiering is enabled.
    #[must_use]
    pub fn warm_after(&self) -> Option<u64> {
        self.ladder.tiers().warm_threshold()
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

    /// What the ladder encodes and decodes rings under at `current`.
    fn at(&self, current: u64) -> Position {
        Position {
            cfg: self.cfg,
            epochs: self.epochs,
            current,
        }
    }

    /// Advances the window to `epoch` (a no-op when the window is
    /// already there or past it). Every epoch that falls out of the
    /// trailing window folds into its key's retired union — a token
    /// merge while both are sparse, the word-level merge scan once both
    /// are dense — and the vacated ring slot becomes an empty token set.
    ///
    /// Rotation re-seals the previous current epoch, so every key's
    /// suffix chain is reset; the next queries rebuild it incrementally
    /// (each entry at most once per rotation — see the module docs).
    ///
    /// Warm keys are **skipped entirely**: their slots are tagged with
    /// absolute epochs, so the rotation catch-up (folding rotated-out
    /// epochs into the retired union) happens once at promotion instead
    /// of on every advance — rotation cost scales with the *live* key
    /// count, not the total. Rotation is the ladder's sweep: in the same
    /// walk, rings idle past a warm threshold demote.
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
        let rotate = |ring: &mut WindowRing| {
            for rotated in first..=epoch {
                let slot = &mut ring.ring[(rotated % e) as usize];
                if !slot.is_empty() {
                    ring.retired
                        .merge_from(slot)
                        .expect("ring slots share the store configuration");
                    slot.clear();
                }
            }
            // The sealed set shifted under the chain; re-derive it
            // lazily rather than paying E merges per key up front.
            ring.valid = 0;
        };
        self.ladder.sweep(&self.core, epoch, self.at(epoch), rotate);
        *current = epoch;
    }

    /// Sweeps every live ring whose last touch is at least the
    /// configured [`WindowedStore::set_warm_after`] threshold behind the
    /// current epoch down to the warm tier, returning how many rings
    /// demoted. A no-op without a threshold. Rotation performs the same
    /// sweep implicitly; this entry point exists for stores that query
    /// far more often than they advance.
    pub fn demote_idle(&self) -> usize {
        let current = self.current.read().expect("epoch lock poisoned");
        self.ladder
            .demote_idle(&self.core, *current, self.at(*current))
            .0
    }

    /// Promotes every warm key back to a live ring (folding parked
    /// deltas in), returning how many promoted. Useful before a
    /// latency-critical query phase.
    pub fn promote_all(&self) -> usize {
        let current = self.current.read().expect("epoch lock poisoned");
        self.ladder
            .promote_all(&self.core, self.at(*current), |_| true)
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
        let at = self.at(current);
        for (si, group) in by_shard(&runs) {
            let new = || self.new_value(current);
            self.core
                .write(si)
                .fold(group, new, Self::touch, |entry, run| {
                    // A warm key promotes first; a *late* event re-demotes
                    // right after the merge without refreshing the idle
                    // stamp — catching up on history is not fresh traffic.
                    let was_warm = entry.value().is_none();
                    let ring = self.ladder.live(entry, at);
                    ring.epoch_target(current, epoch).insert_hashes(run.hashes);
                    if ring.note_write(current, epoch) {
                        Counters::add(&self.ladder.counters.dirty_invalidations, 1);
                    }
                    if was_warm && epoch < current {
                        self.ladder.demote(entry, at);
                    } else {
                        entry.stamp(current);
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
    /// valid: each new entry is a dense copy of its predecessor with the
    /// next-older sealed slot folded in. Returns the number of entries
    /// built. Allocates only when the chain grows longer than any query
    /// has needed before; otherwise entries are rebuilt in place.
    fn extend_suffixes(&self, ring: &mut WindowRing, current: u64, needed: usize) -> usize {
        let built = needed - ring.valid;
        let e = self.epochs as u64;
        let WindowRing {
            ring: slots,
            suffix,
            valid,
            ..
        } = ring;
        if suffix.len() < needed {
            let mut grown = std::mem::take(suffix).into_vec();
            grown.reserve_exact(needed - grown.len());
            grown.resize_with(needed, || ExaLogLog::new(self.cfg));
            *suffix = grown.into_boxed_slice();
        }
        for j in *valid..needed {
            let (prev, rest) = suffix.split_at_mut(j);
            let entry = &mut rest[0];
            // Sealed epoch `current − 1 − j` — nonexistent before the
            // store's first epoch, in which case it contributes nothing.
            let sealed =
                (current > j as u64).then(|| &slots[((current - 1 - j as u64) % e) as usize]);
            match (prev.last(), sealed) {
                (None, Some(slot)) => load(entry, slot),
                (None, None) => entry.clear(),
                (Some(prev), sealed) => {
                    entry.clone_from(prev);
                    if let Some(slot) = sealed {
                        fold(entry, slot);
                    }
                }
            }
        }
        *valid = needed;
        built
    }

    /// Finishes a window query from a valid suffix chain: the scratch
    /// becomes `suffix[k − 2] ∪ current slot` (for `k = 1`, just the
    /// current slot) — one clone plus one fold regardless of k.
    fn finish_window(&self, si: usize, ring: &WindowRing, current: u64, last_k: usize) -> f64 {
        let cur_slot = &ring.ring[(current % self.epochs as u64) as usize];
        self.scratch_estimate(si, |scratch| {
            if last_k == 1 {
                load(scratch, cur_slot);
            } else {
                scratch.clone_from(&ring.suffix[last_k - 2]);
                fold(scratch, cur_slot);
            }
        })
    }

    /// Finishes an all-time query from a valid suffix chain: the scratch
    /// becomes `retired ∪ suffix[E − 2] ∪ current slot` — at most two
    /// folds instead of folding all E slots.
    fn finish_all_time(&self, si: usize, ring: &WindowRing, current: u64) -> f64 {
        let cur_slot = &ring.ring[(current % self.epochs as u64) as usize];
        self.scratch_estimate(si, |scratch| {
            load(scratch, &ring.retired);
            if self.epochs >= 2 {
                scratch
                    .merge_from(&ring.suffix[self.epochs - 2])
                    .expect("ring slots share the store configuration");
            }
            fold(scratch, cur_slot);
        })
    }

    /// Fills shard `si`'s query scratch with `fill` and estimates it.
    /// The scratch is allocated by the shard's first query, so a store
    /// only pays for the shards it serves, and a warmed query loop
    /// allocates nothing.
    fn scratch_estimate(&self, si: usize, fill: impl FnOnce(&mut ExaLogLog)) -> f64 {
        let mut slot = self.scratches[si].lock().expect("scratch lock poisoned");
        let scratch = slot.get_or_insert_with(|| ExaLogLog::new(self.cfg));
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
        let counters = &self.ladder.counters;
        let (si, key_hash) = self.core.locate(key);
        {
            let table = self.core.read(si);
            let entry = table.get(key_hash, key)?;
            if let Some(ring) = entry.value().filter(|ring| ring.valid >= needed) {
                Counters::add(&counters.suffix_hits, 1);
                // A stamp raced by other query threads under the read
                // lock at worst delays one demotion.
                entry.stamp(*current);
                return Some(finish(si, ring, *current));
            }
        }
        // The chain is short (rotation reset or a late-event truncation)
        // or the key is warm: promote and/or rebuild the missing entries
        // under the shard write lock, then answer there. Another thread
        // may have raced us to it.
        let mut table = self.core.write(si);
        let entry = table.get_mut(key_hash, key)?;
        let ring = self.ladder.access(entry, *current, self.at(*current));
        if ring.valid < needed {
            let built = self.extend_suffixes(ring, *current, needed);
            Counters::add(&counters.lazy_rebuilds, 1);
            Counters::add(&counters.suffix_entries_built, built as u64);
        } else {
            Counters::add(&counters.suffix_hits, 1);
        }
        Some(finish(si, ring, *current))
    }

    /// The distinct-count estimate for `key` over the trailing window of
    /// the last `last_k` epochs — `(current − last_k, current]` — or
    /// `None` if the key has never been observed.
    ///
    /// **O(1) in the window length:** the dense scratch sketch is
    /// `clone_from(suffix[k − 2])` plus the live current-epoch slot —
    /// merged word by word once dense, its tokens streamed in while
    /// sparse — one clone and one fold regardless of k (k = 1 loads the
    /// current slot alone, so latency is flat in k). No per-query heap
    /// allocation happens once a key's chain has reached length k − 1,
    /// including lazy suffix rebuilds after rotation or late events
    /// (entries are rebuilt in place). Every answer stays bit-identical
    /// to the offline per-register merge of the same k epochs.
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
        let c = &self.ladder.counters;
        WindowStats {
            suffix_hits: Counters::get(&c.suffix_hits),
            lazy_rebuilds: Counters::get(&c.lazy_rebuilds),
            suffix_entries_built: Counters::get(&c.suffix_entries_built),
            dirty_invalidations: Counters::get(&c.dirty_invalidations),
        }
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
        self.core.with(key, |entry| {
            let at = self.at(*current);
            self.ladder
                .read(entry, at, |ring| ring.ring[slot].to_dense())
        })
    }

    /// A copy of the retired union for `key` (`None` if the key has
    /// never been observed). Like [`WindowedStore::epoch_sketch`], warm
    /// keys are materialized into a temporary, not promoted.
    #[must_use]
    pub fn retired_sketch(&self, key: &str) -> Option<ExaLogLog> {
        let current = self.current.read().expect("epoch lock poisoned");
        self.core.with(key, |entry| {
            let at = self.at(*current);
            self.ladder.read(entry, at, |ring| ring.retired.to_dense())
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
    /// warm payloads + the store scaffolding). A deep account: live rings
    /// contribute their tokens, register arrays and built suffix unions,
    /// warm entries their encoded payload lengths plus any
    /// parked deltas, which is what the tiering trade is about.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        // Scaffolding: the query scratches allocated so far.
        let scratches: usize = self
            .scratches
            .iter()
            .filter_map(|s| {
                let scratch = s.lock().expect("scratch lock poisoned");
                scratch.as_ref().map(ExaLogLog::memory_bytes)
            })
            .sum();
        core::mem::size_of::<Self>() + scratches + self.core.memory_bytes(WindowEntry::heap_bytes)
    }

    /// Tier occupancy and transition counters. The windowed store only
    /// uses the hot (live rings) and warm tiers; sparse/cold fields stay
    /// zero, and `resident_bytes` is [`WindowedStore::memory_bytes`].
    #[must_use]
    pub fn tier_stats(&self) -> TierStats {
        self.ladder.tier_stats(&self.core, self.memory_bytes())
    }

    /// Every key's `ELLW` entry body, sorted by key. Parked runs settle
    /// into their warm entry's bytes first (the entry stays warm), so
    /// warm bytes travel verbatim in canonical form (no dense round
    /// trip) and restore → re-snapshot is byte-identical.
    pub(crate) fn wire_entries(&self) -> Vec<(String, Vec<u8>)> {
        {
            let current = self.current.read().expect("epoch lock poisoned");
            self.ladder.settle_parked(&self.core, self.at(*current));
        }
        self.core.sorted(|entry| match self.ladder.view(entry) {
            View::Live(ring) => live_entry(&ring.retired, &ring.ring),
            View::Demoted(bytes, _) => warm_entry(&bytes),
        })
    }

    /// Wire-format restore seam: places a restored entry under `key`,
    /// returning whether the key was new. Suffix unions are derived
    /// state and never travel in the snapshot; a restored chain starts
    /// empty and the first queries re-derive it from the slots, so a
    /// restored store reproduces every estimate bit-for-bit.
    pub(crate) fn place(&self, key: &str, entry: WindowEntry) -> bool {
        self.core.insert(key, entry)
    }
}

impl Keyed for WindowedStore {
    type Value = WindowEntry;
    type Tag = u64;
    type Pin = u64;

    fn core(&self) -> &KeyedCore<WindowEntry> {
        &self.core
    }

    /// Pins the window position: the epoch read lock is held for the
    /// whole shard flush, so the live-or-retired decision for every run
    /// is consistent with rotation (which takes the write lock).
    fn pinned<R>(&self, f: impl FnOnce(u64) -> R) -> R {
        let current = self.current.read().expect("epoch lock poisoned");
        f(*current)
    }

    /// A new key's entry: an empty live ring, stamped at the pinned
    /// `current`.
    fn new_value(&self, current: u64) -> WindowEntry {
        Entry::new(WindowRing::new(self.cfg, self.epochs), current)
    }

    /// Folds one run of session hashes for `(key, epoch)` into its entry
    /// under the pinned window position. Live rings take the hashes
    /// directly (runs for rotated-out epochs fold into the retired union
    /// — exactly the state rotation would have produced, so flush timing
    /// cannot change the final bytes); **warm keys park the hashes in
    /// the entry's pending sketch for that epoch** instead of promoting,
    /// and the next promotion folds them in — the flush path never
    /// decompresses anything.
    fn merge_run(&self, entry: &mut WindowEntry, run: &Run<'_, u64>, current: u64) {
        let (epoch, hashes) = (run.tag, run.hashes);
        debug_assert!(epoch <= current, "sessions advance the window on buffer");
        let fresh = match self.ladder.target(entry) {
            Ok(ring) => {
                ring.epoch_target(current, epoch).insert_hashes(hashes);
                // A session run for a sealed epoch is a late write:
                // truncate the suffix chain exactly like direct ingest.
                if ring.note_write(current, epoch) {
                    Counters::add(&self.ladder.counters.dirty_invalidations, 1);
                }
                epoch == current
            }
            Err(parked) => {
                let parked = parked.get_or_insert_with(Vec::new);
                let i = match parked.iter().position(|(at, _)| *at == epoch) {
                    Some(i) => i,
                    None => {
                        parked.push((epoch, empty(self.cfg)));
                        parked.len() - 1
                    }
                };
                parked[i].1.insert_hashes(hashes);
                false
            }
        };
        // Only current-epoch traffic refreshes the idle stamp.
        if fresh {
            entry.stamp(current);
        }
    }
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
        // p = 10: a register array is 3.5 KiB.
        let cfg = EllConfig::optimal(10).unwrap();
        let array = cfg.register_array_bytes();
        let store = WindowedStore::new(2, cfg, 8).unwrap();
        let empty = store.memory_bytes();
        store.insert("some-key", 0, 7);
        // A one-element key holds one token, not a register array…
        let one = store.memory_bytes();
        assert!(one > empty && one < empty + array, "{one} vs {empty}");
        // …and a slot past break-even holds one.
        let batch: Vec<(&str, u64)> = (0..5000).map(|i| ("some-key", mix64(i))).collect();
        store.ingest(0, &batch);
        assert!(store.memory_bytes() >= empty + array);
    }

    #[test]
    fn sparse_rings_hold_only_the_suffix_arrays_queries_built() {
        let cfg = EllConfig::optimal(10).unwrap();
        let store = WindowedStore::new(1, cfg, 4).unwrap();
        for epoch in 0..6u64 {
            store.ingest(epoch, &[("k", mix64(epoch)), ("k", mix64(100 + epoch))]);
        }
        // (dense ring sketches, suffix entries, heap bytes) of "k".
        let census = |store: &WindowedStore| {
            store
                .core
                .with("k", |entry| {
                    let ring = entry.value().expect("live");
                    let sketches = ring.ring.iter().chain([&ring.retired]);
                    let dense = sketches.filter(|s| !s.is_sparse()).count();
                    (dense, ring.suffix.len(), ring.heap_bytes())
                })
                .unwrap()
        };
        let (dense, suffixes, sparse_bytes) = census(&store);
        assert_eq!((dense, suffixes), (0, 0));
        assert!(sparse_bytes < cfg.register_array_bytes());
        // k = 1 needs no suffix entry; k = 3 builds two, and they stay
        // for narrower windows and across rotation.
        store.estimate_window("k", 1).unwrap();
        assert_eq!(census(&store).1, 0);
        store.estimate_window("k", 3).unwrap();
        store.estimate_window("k", 2).unwrap();
        let (dense, suffixes, bytes) = census(&store);
        assert_eq!((dense, suffixes), (0, 2));
        assert_eq!(bytes, sparse_bytes + 2 * ExaLogLog::new(cfg).memory_bytes());
        store.advance(7);
        assert_eq!(census(&store).1, 2);
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
