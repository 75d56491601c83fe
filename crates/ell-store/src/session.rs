//! Buffered ingest sessions.
//!
//! One [`Session`] type serves both stores: [`IngestSession`] buffers
//! for an [`EllStore`], [`WindowIngestSession`] for a
//! [`WindowedStore`]. A session gives each ingesting thread a private
//! append-only *log*, so the hot insert loop touches no shared state at
//! all: buffering an observation hashes its key once (the store's
//! fixed-seed key hash, which also picks the shard), copies the key
//! bytes into a session arena, and appends one `(key_hash, tag, key,
//! hash)` record, where the tag is the epoch for the windowed store and
//! nothing for the flat one. No event looks anything up. When the log
//! reaches the session's threshold, or at an explicit
//! [`Session::flush`] (and on drop), the flush groups the log once into
//! one run per `(key, tag)`, ordered by shard — the same grouper direct
//! batches go through, with no comparison sort — takes each shard's
//! write lock once, waiting for it if another thread holds it, and folds
//! every key's run of hashes straight into its slot. A sparse slot takes
//! a run as one sorted token batch, a dense slot as one batched register
//! insert. Every flush is the same flush: when it returns, everything
//! the session buffered is in the store and visible to queries.
//!
//! # Buffer reuse
//!
//! A flush empties the log and the key arena but keeps their capacity,
//! so a session reaches its working-set size once and then buffers
//! without allocating. The session holds O(auto-flush threshold)
//! records, however many distinct keys it has seen.
//!
//! # Exactness
//!
//! Register updates are monotone and register merge is idempotent,
//! commutative and associative, so the order of events inside a flush
//! is free, and folding a run into a slot produces *bit-for-bit* the
//! state direct insertion of the buffered hashes would have — regardless
//! of how many threads buffered what, when each run was flushed, or
//! which flush took a shard's lock first. The
//! `proptest_session` suite pins this equivalence against sequential
//! [`EllStore::ingest`] for random flush points and schedules.
//!
//! Flushing into a key that has been demoted to the warm or cold tier
//! does **not** promote it: the store parks the hashes in a pending
//! sketch on the slot and folds it in at the next promotion (see the
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
//!             // Dropping the session flushes everything.
//!         });
//!     }
//! });
//! assert!((store.estimate("events").unwrap() / 40_000.0 - 1.0).abs() < 0.1);
//! ```

use crate::core::{by_shard, group_runs, Keyed, Run};
use crate::store::EllStore;
use crate::window::WindowedStore;

/// Default number of buffered hashes that triggers an automatic flush.
/// Large enough to amortize the grouping and the shard locks, small enough to
/// bound the session's memory (one log record per buffered hash).
pub(crate) const DEFAULT_AUTO_FLUSH: usize = 32 * 1024;

/// A buffered ingest session for [`EllStore`] (see the module docs).
pub type IngestSession<'a> = Session<'a, EllStore>;

/// A buffered ingest session for [`WindowedStore`]: observations are
/// logged with their epoch and the flush resolves each `(key, epoch)`
/// run against the *current* window position — live epochs merge into
/// their ring slot, epochs that have rotated out fold into the key's
/// retired union. Monotone merge makes the final state identical either
/// way, so flush timing relative to rotation cannot change the
/// serialized bytes.
///
/// Buffering an observation for an epoch newer than the window
/// auto-advances the store immediately (matching
/// [`WindowedStore::ingest`]); rotation is *not* deferred to the flush.
///
/// A flushed run that lands in a *sealed* live epoch (older than the
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
    log: Log<S::Tag>,
    auto_flush: usize,
    /// Newest tag this session has advanced the store to: the epoch for
    /// the windowed store, gating its (write-locking) `advance` so the
    /// buffering loop takes no lock.
    advanced_to: S::Tag,
}

#[allow(private_bounds)]
impl<'a, S: Keyed> Session<'a, S> {
    pub(crate) fn new(store: &'a S, advanced_to: S::Tag) -> Self {
        Session {
            store,
            log: Log::default(),
            auto_flush: DEFAULT_AUTO_FLUSH,
            advanced_to,
        }
    }

    /// Sets the buffered-hash count that triggers an automatic flush
    /// (clamped to ≥ 1). Smaller thresholds bound memory tighter and
    /// surface data to readers sooner; larger ones amortize the grouping
    /// and the shard locks better. The final state is identical either
    /// way.
    #[must_use]
    pub fn with_auto_flush(mut self, hashes: usize) -> Self {
        self.auto_flush = hashes.max(1);
        self
    }

    /// The number of hashes buffered since the last flush.
    #[must_use]
    pub fn buffered_hashes(&self) -> usize {
        self.log.len()
    }

    /// Folds the log into the store: on return, everything this session
    /// ever buffered is merged and visible to queries. An auto-flush and
    /// the flush on drop are this same call.
    pub fn flush(&mut self) {
        let store = self.store;
        let runs = self.log.runs(store.core().shard_count());
        for (si, group) in by_shard(&runs) {
            store.flush_runs(si, group);
        }
        self.log.clear();
    }

    /// Buffers one observation of `key` under `tag`.
    fn buffer(&mut self, key: &str, tag: S::Tag, hash: u64) {
        if !self.log.fits(key) {
            self.flush();
        }
        self.log
            .push(self.store.core().key_hash(key), key, tag, hash);
        if self.log.len() >= self.auto_flush {
            self.flush();
        }
    }
}

/// The session's append-only buffer: one [`Record`] per buffered
/// observation plus the key bytes the records point into.
#[derive(Debug)]
struct Log<T> {
    records: Vec<Record<T>>,
    /// Key arena: every record's key, back to back.
    keys: String,
    /// The records' hashes in run order, filled by [`Log::runs`] so
    /// that each run is one contiguous slice.
    hashes: Vec<u64>,
}

/// One buffered observation.
#[derive(Debug)]
struct Record<T> {
    key_hash: u64,
    tag: T,
    /// `keys[key_start..key_end]` is the record's key.
    key_start: u32,
    key_end: u32,
    hash: u64,
}

impl<T> Default for Log<T> {
    fn default() -> Self {
        Log {
            records: Vec::new(),
            keys: String::new(),
            hashes: Vec::new(),
        }
    }
}

impl<T: Copy + Eq> Log<T> {
    fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether one more record for `key` still fits the arena's 32-bit
    /// offsets and the grouper's 32-bit run table.
    fn fits(&self, key: &str) -> bool {
        self.keys.len() + key.len() <= u32::MAX as usize
            && self.records.len() < u32::MAX as usize - 1
    }

    fn push(&mut self, key_hash: u64, key: &str, tag: T, hash: u64) {
        let key_start = self.keys.len() as u32;
        self.keys.push_str(key);
        self.records.push(Record {
            key_hash,
            tag,
            key_start,
            key_end: self.keys.len() as u32,
            hash,
        });
    }

    /// Groups the records into one run per `(key, tag)`, ordered by
    /// shard, through the stores' shared grouper ([`group_runs`]):
    /// distinct keys whose hashes collide never share a run.
    fn runs(&mut self, shards: usize) -> Vec<Run<'_, T>> {
        let keys = &self.keys;
        let records = self.records.iter().map(|r| {
            let key = &keys[r.key_start as usize..r.key_end as usize];
            (r.key_hash, r.tag, key, r.hash)
        });
        group_runs(shards, records, &mut self.hashes)
    }

    /// Empties the log, keeping every buffer's capacity.
    fn clear(&mut self) {
        self.records.clear();
        self.keys.clear();
        self.hashes.clear();
    }
}

impl<S: Keyed> Drop for Session<'_, S> {
    fn drop(&mut self) {
        self.flush();
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
    use std::collections::HashMap;

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
    fn flush_empties_the_log_and_keeps_its_capacity() {
        let store = EllStore::new(2, cfg()).unwrap();
        let mut session = store.session().with_auto_flush(64);
        let mut rng = SplitMix64::new(14);
        for i in 0..1_000 {
            session.insert(["steady", "other-key"][i % 2], rng.next_u64());
        }
        // Many auto-flushes: the log never grew past its threshold.
        assert!(session.log.len() < 64);
        let caps = (
            session.log.records.capacity(),
            session.log.keys.capacity(),
            session.log.hashes.capacity(),
        );
        assert!(caps.0 >= 63 && caps.1 > 0 && caps.2 > 0);
        session.flush();
        assert_eq!(session.buffered_hashes(), 0);
        assert!(session.log.keys.is_empty() && session.log.hashes.is_empty());
        assert_eq!(
            (
                session.log.records.capacity(),
                session.log.keys.capacity(),
                session.log.hashes.capacity(),
            ),
            caps
        );
        assert_eq!(store.key_count(), 2);
    }

    #[test]
    fn runs_split_colliding_keys_and_tags() {
        // Two distinct keys forced onto one key hash, three tags each,
        // interleaved: every `(key, tag)` receives exactly its own
        // hashes, in buffer order, as one run.
        let mut log: Log<u64> = Log::default();
        let mut expected: HashMap<(String, u64), Vec<u64>> = HashMap::new();
        let mut rng = SplitMix64::new(16);
        for i in 0..300u64 {
            let key = ["left", "right"][(rng.next_u64() % 2) as usize];
            let tag = rng.next_u64() % 3;
            log.push(0xC0FFEE, key, tag, i);
            expected.entry((key.to_owned(), tag)).or_default().push(i);
        }
        // A key alone on its hash under two tags, a key in another
        // shard, and one sharing the shard.
        log.push(0xB0FFEE, "solo", 4, 999);
        log.push(0xB0FFEE, "solo", 5, 998);
        log.push(0xC0FFEF, "elsewhere", 0, 1_000);
        log.push(0xD0FFEE, "neighbour", 0, 1_001);
        expected.insert(("solo".to_owned(), 4), vec![999]);
        expected.insert(("solo".to_owned(), 5), vec![998]);
        expected.insert(("elsewhere".to_owned(), 0), vec![1_000]);
        expected.insert(("neighbour".to_owned(), 0), vec![1_001]);
        let runs = log.runs(4);
        assert!(runs.windows(2).all(|w| w[0].shard <= w[1].shard));
        let mut got: HashMap<(String, u64), Vec<u64>> = HashMap::new();
        for run in &runs {
            let previous = got.insert((run.key.to_owned(), run.tag), run.hashes.to_vec());
            assert!(previous.is_none(), "{} split into two runs", run.key);
        }
        assert_eq!(got, expected);
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
    fn window_session_lands_each_epoch_in_its_own_slot() {
        // Six epochs buffered between two flushes, none of them rotated
        // out of the 8-epoch ring: each epoch's hashes land in that
        // epoch's ring slot and nowhere else.
        let store = WindowedStore::new(2, cfg(), 8).unwrap();
        let twin = WindowedStore::new(2, cfg(), 8).unwrap();
        let mut session = store.session();
        let mut rng = SplitMix64::new(15);
        for epoch in 0..6u64 {
            let hashes: Vec<u64> = (0..50 * (epoch + 1)).map(|_| rng.next_u64()).collect();
            for &h in &hashes {
                session.insert("k", epoch, h);
            }
            let refs: Vec<(&str, u64)> = hashes.iter().map(|&h| ("k", h)).collect();
            twin.ingest(epoch, &refs);
        }
        assert_eq!(session.buffered_hashes(), 50 * 21);
        session.flush();
        for epoch in 0..6u64 {
            let slot = store.epoch_sketch("k", epoch).unwrap();
            assert_eq!(slot, twin.epoch_sketch("k", epoch).unwrap());
            let est = slot.estimate() / (50.0 * (epoch + 1) as f64);
            assert!((est - 1.0).abs() < 0.1, "epoch {epoch}: {est}");
        }
        assert_eq!(store.snapshot_bytes(), twin.snapshot_bytes());
    }
}
