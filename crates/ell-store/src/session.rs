//! Buffered-delta ingest sessions.
//!
//! One [`Session`] type serves both stores: [`IngestSession`] buffers
//! for an [`EllStore`], [`WindowIngestSession`] for a
//! [`WindowedStore`]. A session gives each ingesting thread a private
//! buffer of *delta sketches* — one [`AdaptiveExaLogLog`] per key and
//! tag, where the tag is the epoch for the windowed store and nothing
//! for the flat one — so the hot insert loop touches no shared state at
//! all. Small deltas stay in the sparse token phase; heavy keys promote
//! to dense registers inside the buffer. When the buffered hash count
//! crosses the session's threshold, or at an explicit
//! [`Session::flush`] (and on drop), the deltas merge into the store
//! through the word-level merge fast path, by the one handoff protocol
//! both stores share.
//!
//! # Buffer reuse
//!
//! Flushing does not tear the buffer down: on the uncontended path each
//! delta merges into its slot *by reference* and is then reset in
//! place, so the key strings, token vectors, and register arrays reach
//! their working-set size once and are reused for every subsequent
//! flush. A flushed windowed delta takes the next epoch its key sees,
//! so a key keeps only as many deltas as epochs it buffers between two
//! flushes. Only when a shard's write lock is contended during an
//! auto-flush does the session clone the delta onto the store's handoff
//! queue (keeping the buffer either way). Oversubscribed ingest — more
//! sessions than cores — therefore degrades gracefully instead of
//! churning the allocator on every flush.
//!
//! # Exactness
//!
//! Register updates are monotone and register merge is idempotent,
//! commutative and associative, so folding a delta into a slot produces
//! *bit-for-bit* the state direct insertion of the buffered hashes would
//! have — regardless of how many threads buffered what, when each delta
//! was flushed, or which thread drained the queue. The
//! `proptest_session` suite pins this equivalence against sequential
//! [`EllStore::ingest`] for random flush points and schedules.
//!
//! Flushing into a key that has been demoted to the warm or cold tier
//! does **not** promote it: the store parks the delta on the slot and
//! folds it in at the next promotion (see the
//! [`tiers`](crate::TierConfig) lifecycle), keeping the flush path free
//! of decompression work.
//!
//! ```
//! use ell_store::EllStore;
//! use exaloglog::EllConfig;
//!
//! let store = EllStore::new(4, EllConfig::optimal(10).unwrap()).unwrap();
//! std::thread::scope(|s| {
//!     for t in 0..4u64 {
//!         let store = &store;
//!         s.spawn(move || {
//!             let mut session = store.session();
//!             for i in 0..10_000u64 {
//!                 session.insert("events", ell_hash::mix64(t * 10_000 + i));
//!             }
//!             // Dropping the session flushes and drains everything.
//!         });
//!     }
//! });
//! assert!((store.estimate("events").unwrap() / 40_000.0 - 1.0).abs() < 0.1);
//! ```

use crate::core::Keyed;
use crate::store::EllStore;
use crate::window::WindowedStore;
use exaloglog::adaptive::AdaptiveExaLogLog;
use std::collections::HashMap;

/// Default number of buffered hashes that triggers an automatic flush.
/// Large enough to amortize the handoff, small enough to bound the
/// session's memory (deltas below break-even are a few tokens each).
pub(crate) const DEFAULT_AUTO_FLUSH: usize = 32 * 1024;

/// A buffered ingest session for [`EllStore`] (see the module docs).
pub type IngestSession<'a> = Session<'a, EllStore>;

/// A buffered ingest session for [`WindowedStore`]: deltas are keyed by
/// `(key, epoch)` and the flush resolves each delta against the
/// *current* window position — live epochs merge into their ring slot,
/// epochs that have rotated out fold into the key's retired union.
/// Monotone merge makes the final state identical either way, so flush
/// timing relative to rotation cannot change the serialized bytes.
///
/// Buffering an observation for an epoch newer than the window
/// auto-advances the store immediately (matching
/// [`WindowedStore::ingest`]); rotation is *not* deferred to the flush.
///
/// A flushed delta that lands in a *sealed* live epoch (older than the
/// current one) dirties that key's precomputed suffix-union chain, just
/// like direct late `ingest` writes into an older epoch: the next query
/// lazily rebuilds the stale entries, and the invalidation is counted
/// in [`WindowStats::dirty_invalidations`](crate::WindowStats). Session
/// flushes therefore never affect query *correctness* — only whether
/// the next query hits the suffix cache or rebuilds it.
pub type WindowIngestSession<'a> = Session<'a, WindowedStore>;

/// A buffered ingest session over either store (see the module docs);
/// named through [`IngestSession`] and [`WindowIngestSession`].
///
/// Not `Sync` — a session belongs to one ingesting thread; the *store*
/// is the shared object. Unflushed data is invisible to queries until
/// [`Session::flush`] or drop.
// The bound is crate-private on purpose: only the two stores implement
// it, and callers name sessions through the two aliases above.
#[allow(private_bounds)]
#[derive(Debug)]
pub struct Session<'a, S: Keyed> {
    store: &'a S,
    /// Per-key tagged deltas. Entries stay allocated (reset, not
    /// dropped) across flushes; the buffer's footprint is bounded by the
    /// session's distinct-key working set.
    deltas: HashMap<String, KeyDeltas<S::Tag>>,
    buffered: usize,
    auto_flush: usize,
    /// Newest tag this session has advanced the store to: the epoch for
    /// the windowed store, gating its (write-locking) `advance` so the
    /// hot path takes no lock.
    advanced_to: S::Tag,
}

#[allow(private_bounds)]
impl<'a, S: Keyed> Session<'a, S> {
    pub(crate) fn new(store: &'a S, advanced_to: S::Tag) -> Self {
        Session {
            store,
            deltas: HashMap::new(),
            buffered: 0,
            auto_flush: DEFAULT_AUTO_FLUSH,
            advanced_to,
        }
    }

    /// Sets the buffered-hash count that triggers an automatic flush
    /// (clamped to ≥ 1). Smaller thresholds bound memory tighter and
    /// surface data to readers sooner; larger ones amortize the handoff
    /// better. The final state is identical either way.
    #[must_use]
    pub fn with_auto_flush(mut self, hashes: usize) -> Self {
        self.auto_flush = hashes.max(1);
        self
    }

    /// The number of hashes buffered since the last flush.
    #[must_use]
    pub fn buffered_hashes(&self) -> usize {
        self.buffered
    }

    /// Flushes all buffered deltas and drains the store's handoff
    /// queues (a barrier): on return, everything this session ever
    /// buffered is merged into the store and visible to queries.
    pub fn flush(&mut self) {
        self.flush_with(true);
    }

    /// Buffers one observation of `key` under `tag`. A delta emptied by
    /// an earlier flush takes the new tag instead of a fresh allocation.
    fn buffer(&mut self, key: &str, tag: S::Tag, hash: u64) {
        let store = self.store;
        let entry = match self.deltas.get_mut(key) {
            Some(entry) => entry,
            None => {
                let fresh = KeyDeltas {
                    shard: store.core().shard_of(key),
                    first: (tag, store.new_delta()),
                    more: Vec::new(),
                };
                self.deltas.entry(key.to_owned()).or_insert(fresh)
            }
        };
        entry.delta(tag, || store.new_delta()).insert_hash(hash);
        self.buffered += 1;
        if self.buffered >= self.auto_flush {
            self.flush_with(false);
        }
    }

    fn flush_with(&mut self, barrier: bool) {
        self.buffered = 0;
        let store = self.store;
        let mut groups: Vec<Vec<(&String, S::Tag, &mut AdaptiveExaLogLog)>> = Vec::new();
        groups.resize_with(store.core().shard_count(), Vec::new);
        // Deltas reset by earlier flushes and not touched since stay
        // empty — skip them instead of paying a no-op merge.
        for (key, entry) in self.deltas.iter_mut() {
            let si = entry.shard;
            for (tag, delta) in entry.iter_mut() {
                if !delta.is_empty() {
                    groups[si].push((key, *tag, delta));
                }
            }
        }
        for (si, mut group) in groups.into_iter().enumerate() {
            if !group.is_empty() {
                store.flush_group(si, &mut group, barrier);
            }
        }
        if barrier {
            store.drain_all_pending();
        }
    }
}

/// One key's buffered deltas with its shard index cached. The first
/// tag's delta sits inline, so the flat store — whose keys never buffer
/// a second tag — reaches its delta without another indirection; a
/// windowed key buffering several epochs between flushes keeps the rest
/// in `more`.
#[derive(Debug)]
struct KeyDeltas<T> {
    shard: usize,
    first: (T, AdaptiveExaLogLog),
    more: Vec<(T, AdaptiveExaLogLog)>,
}

impl<T: Copy + PartialEq> KeyDeltas<T> {
    fn iter_mut(&mut self) -> impl Iterator<Item = &mut (T, AdaptiveExaLogLog)> {
        std::iter::once(&mut self.first).chain(&mut self.more)
    }

    /// The delta buffering `tag`: the one already tagged so, else one a
    /// flush emptied (retagged, keeping its allocation), else a `fresh`
    /// one.
    fn delta(
        &mut self,
        tag: T,
        fresh: impl FnOnce() -> AdaptiveExaLogLog,
    ) -> &mut AdaptiveExaLogLog {
        let same = self.iter_mut().position(|(t, _)| *t == tag);
        let i = match same.or_else(|| self.iter_mut().position(|(_, d)| d.is_empty())) {
            Some(i) => i,
            None => {
                self.more.push((tag, fresh()));
                self.more.len()
            }
        };
        let entry = if i == 0 {
            &mut self.first
        } else {
            &mut self.more[i - 1]
        };
        entry.0 = tag;
        &mut entry.1
    }
}

impl<S: Keyed> Drop for Session<'_, S> {
    fn drop(&mut self) {
        self.flush_with(true);
    }
}

impl IngestSession<'_> {
    /// Buffers one `(key, element-hash)` observation.
    pub fn insert(&mut self, key: &str, hash: u64) {
        self.buffer(key, (), hash);
    }

    /// Buffers a batch of observations.
    pub fn ingest(&mut self, batch: &[(&str, u64)]) {
        for &(key, hash) in batch {
            self.insert(key, hash);
        }
    }
}

impl WindowIngestSession<'_> {
    /// Buffers one `(key, element-hash)` observation for `epoch`,
    /// advancing the window first when `epoch` is newer than anything
    /// the store has seen.
    pub fn insert(&mut self, key: &str, epoch: u64, hash: u64) {
        if epoch > self.advanced_to {
            self.store.advance(epoch);
            self.advanced_to = epoch;
        }
        self.buffer(key, epoch, hash);
    }

    /// Buffers a batch of observations belonging to `epoch`. An empty
    /// batch still advances the window (mirroring
    /// [`WindowedStore::ingest`]).
    pub fn ingest(&mut self, epoch: u64, batch: &[(&str, u64)]) {
        if batch.is_empty() && epoch > self.advanced_to {
            self.store.advance(epoch);
            self.advanced_to = epoch;
            return;
        }
        for &(key, hash) in batch {
            self.insert(key, epoch, hash);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ell_hash::SplitMix64;
    use exaloglog::EllConfig;

    fn cfg() -> EllConfig {
        EllConfig::new(2, 16, 6).unwrap()
    }

    #[test]
    fn session_matches_direct_ingest_bit_for_bit() {
        let direct = EllStore::new(4, cfg()).unwrap();
        let buffered = EllStore::new(4, cfg()).unwrap();
        let mut rng = SplitMix64::new(9);
        let events: Vec<(String, u64)> = (0..30_000)
            .map(|i| (format!("k{}", i % 17), rng.next_u64() % 4_000))
            .collect();
        let refs: Vec<(&str, u64)> = events.iter().map(|(k, h)| (k.as_str(), *h)).collect();
        direct.ingest(&refs);
        {
            // A tiny threshold forces many auto-flushes mid-stream.
            let mut session = buffered.session().with_auto_flush(97);
            session.ingest(&refs);
        }
        assert_eq!(buffered.snapshot_bytes(), direct.snapshot_bytes());
    }

    #[test]
    fn unflushed_data_is_invisible_then_appears_at_flush() {
        let store = EllStore::new(2, cfg()).unwrap();
        let mut session = store.session();
        session.insert("k", 7);
        assert_eq!(session.buffered_hashes(), 1);
        assert!(store.estimate("k").is_none());
        session.flush();
        assert_eq!(session.buffered_hashes(), 0);
        assert_eq!(store.estimate("k").map(|e| e.round() as u64), Some(1));
    }

    #[test]
    fn session_flush_parks_on_warm_keys_without_promoting() {
        let mut store = EllStore::new(2, cfg()).unwrap();
        store.set_tier_config(crate::TierConfig::new().warm_after(1));
        let twin = EllStore::new(2, cfg()).unwrap();
        let mut rng = SplitMix64::new(13);
        let first: Vec<u64> = (0..5_000).map(|_| rng.next_u64()).collect();
        let second: Vec<u64> = (0..5_000).map(|_| rng.next_u64()).collect();
        for h in &first {
            store.insert("k", *h);
            twin.insert("k", *h);
        }
        store.tick();
        store.demote_idle();
        assert_eq!(store.key_tier("k"), Some(crate::Tier::Warm));
        {
            let mut session = store.session();
            for h in &second {
                session.insert("k", *h);
            }
        }
        for h in &second {
            twin.insert("k", *h);
        }
        // The flush parked its delta: the key is still warm…
        assert_eq!(store.key_tier("k"), Some(crate::Tier::Warm));
        assert!(store.tier_stats().parked_deltas > 0);
        // …and the next query folds it in, bit-identical to the twin.
        assert_eq!(
            store.estimate("k").unwrap().to_bits(),
            twin.estimate("k").unwrap().to_bits()
        );
        assert_ne!(store.key_tier("k"), Some(crate::Tier::Warm));
    }

    #[test]
    fn flat_session_reuses_buffers_across_flushes() {
        let store = EllStore::new(2, cfg()).unwrap();
        let mut session = store.session().with_auto_flush(64);
        let mut rng = SplitMix64::new(14);
        for _ in 0..10 {
            for _ in 0..100 {
                session.insert("steady", rng.next_u64());
            }
        }
        // One key, many flushes: exactly one delta entry, kept across
        // flushes and reset in place.
        assert_eq!(session.deltas.len(), 1);
        session.flush();
        let entry = session.deltas.get("steady").unwrap();
        assert!(entry.first.1.is_empty() && entry.more.is_empty());
    }

    #[test]
    fn window_session_matches_direct_ingest_bit_for_bit() {
        let direct = WindowedStore::new(4, cfg(), 3).unwrap();
        let buffered = WindowedStore::new(4, cfg(), 3).unwrap();
        let mut rng = SplitMix64::new(10);
        for epoch in 0..8u64 {
            let events: Vec<(String, u64)> = (0..2_000)
                .map(|i| (format!("k{}", i % 5), rng.next_u64() % 3_000))
                .collect();
            let refs: Vec<(&str, u64)> = events.iter().map(|(k, h)| (k.as_str(), *h)).collect();
            direct.ingest(epoch, &refs);
            let mut session = buffered.session().with_auto_flush(61);
            session.ingest(epoch, &refs);
        }
        // A late delta for a long-gone epoch folds into retired.
        direct.ingest(0, &[("k0", 42)]);
        {
            let mut session = buffered.session();
            session.insert("k0", 0, 42);
        }
        assert_eq!(buffered.snapshot_bytes(), direct.snapshot_bytes());
        assert_eq!(buffered.current_epoch(), 7);
    }

    #[test]
    fn window_session_recycles_delta_buffers() {
        let store = WindowedStore::new(2, cfg(), 4).unwrap();
        let mut session = store.session().with_auto_flush(32);
        let mut rng = SplitMix64::new(15);
        for epoch in 0..6u64 {
            for _ in 0..50 {
                session.insert("k", epoch, rng.next_u64());
            }
        }
        session.flush();
        // Six epochs, but no flush interval spans more than two of them:
        // flushed deltas were retagged with the next epoch rather than
        // dropped and reallocated.
        let entry = session.deltas.get_mut("k").unwrap();
        assert_eq!(entry.more.len(), 1);
        assert!(entry.iter_mut().all(|(_, delta)| delta.is_empty()));
    }
}
