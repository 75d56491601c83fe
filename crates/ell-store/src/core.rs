//! The sharded handoff core under both stores.
//!
//! [`EllStore`](crate::EllStore) and [`WindowedStore`](crate::WindowedStore)
//! agree on everything except what a key holds: a power-of-two table of
//! `RwLock<HashMap<String, V>>` shards routed by a fixed-seed key hash,
//! and one handoff queue per shard on which buffered
//! [`Session`](crate::Session)s park `(key, tag, hashes)` runs when the
//! shard is contended. `V` is one sketch slot for the flat store and an
//! epoch ring for the windowed one; the tag `T` is `()` and the epoch.
//! [`KeyedCore`] owns that table and its iteration helpers, and the
//! [`Keyed`] trait carries the single copy of the flush/drain protocol,
//! parameterized by each store's per-key merge.
//!
//! Register merge is commutative and idempotent (paper §1, §2), so a
//! parked run may be applied by any thread at any time: the protocol
//! only has to guarantee that nothing parked is lost and that a barrier
//! flush leaves every queue empty behind it (CONCURRENCY.md § "Session
//! handoff", modeled by `ell-verify::models::handoff`).

use crate::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use ell_hash::{Hasher64, WyHash};
use exaloglog::adaptive::AdaptiveExaLogLog;
use exaloglog::EllError;
use std::collections::HashMap;

/// Seed of the key-partitioning hash. Fixed so that shard assignment —
/// and therefore snapshot layout — is stable across processes, and
/// shared by both stores so they shard a key space identically.
const KEY_HASH_SEED: u64 = 0xE115_70E5;

/// Soft bound on a shard's handoff queue: once this many runs are
/// queued, the enqueueing session drains the shard itself (blocking on
/// the write lock) instead of deferring to a later flush.
const HANDOFF_SOFT_CAPACITY: usize = 64;

/// One shard's handoff queue of parked `(key, tag, hashes)` runs.
type Queue<T> = Vec<(String, T, Vec<u64>)>;

/// One key's share of a session flush: every hash buffered for `key`
/// under `tag`, bound for shard `shard`. One key may arrive as several
/// runs (merges commute), but a run never mixes keys or tags.
#[derive(Debug)]
pub(crate) struct Run<'l, T> {
    pub(crate) shard: usize,
    pub(crate) key: &'l str,
    pub(crate) tag: T,
    pub(crate) hashes: &'l [u64],
}

/// The shard table plus the per-shard handoff queues (kept strictly
/// parallel to the shards).
#[derive(Debug)]
pub(crate) struct KeyedCore<V, T> {
    hasher: WyHash,
    shards: Vec<RwLock<HashMap<String, V>>>,
    queues: Vec<Mutex<Queue<T>>>,
}

impl<V, T> KeyedCore<V, T> {
    /// An empty table of `shards` shards.
    ///
    /// # Errors
    ///
    /// Rejects a shard count that is zero or not a power of two.
    pub(crate) fn new(shards: usize) -> Result<Self, EllError> {
        if shards == 0 || !shards.is_power_of_two() {
            return Err(EllError::InvalidParameter {
                reason: format!("shard count {shards} must be a nonzero power of two"),
            });
        }
        let mut maps = Vec::with_capacity(shards);
        maps.resize_with(shards, || RwLock::new(HashMap::new()));
        let mut queues = Vec::with_capacity(shards);
        queues.resize_with(shards, || Mutex::new(Vec::new()));
        Ok(KeyedCore {
            hasher: WyHash::new(KEY_HASH_SEED),
            shards: maps,
            queues,
        })
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The fixed-seed key hash shard routing is derived from.
    pub(crate) fn key_hash(&self, key: &str) -> u64 {
        self.hasher.hash_bytes(key.as_bytes())
    }

    /// The shard a key with hash `key_hash` lives in: its low bits.
    pub(crate) fn shard_of_hash(&self, key_hash: u64) -> usize {
        (key_hash as usize) & (self.shards.len() - 1)
    }

    pub(crate) fn shard_of(&self, key: &str) -> usize {
        self.shard_of_hash(self.key_hash(key))
    }

    pub(crate) fn read(&self, si: usize) -> RwLockReadGuard<'_, HashMap<String, V>> {
        self.shards[si].read().expect("shard lock poisoned")
    }

    pub(crate) fn write(&self, si: usize) -> RwLockWriteGuard<'_, HashMap<String, V>> {
        self.shards[si].write().expect("shard lock poisoned")
    }

    /// The shard write lock if it is free right now (`None` when taken).
    fn try_write(&self, si: usize) -> Option<RwLockWriteGuard<'_, HashMap<String, V>>> {
        match self.shards[si].try_write() {
            Err(TryLockError::WouldBlock) => None,
            // Poison propagates like the blocking path's expect.
            other => Some(other.expect("shard lock poisoned")),
        }
    }

    fn queue(&self, si: usize) -> MutexGuard<'_, Queue<T>> {
        self.queues[si].lock().expect("handoff queue poisoned")
    }

    /// Splits a batch into per-shard buckets (batch order kept within
    /// each) and yields the nonempty ones with their shard index.
    pub(crate) fn route<'k>(
        &self,
        batch: &[(&'k str, u64)],
    ) -> impl Iterator<Item = (usize, Vec<(&'k str, u64)>)> {
        let mut buckets = vec![Vec::new(); self.shards.len()];
        for &(key, hash) in batch {
            buckets[self.shard_of(key)].push((key, hash));
        }
        buckets.into_iter().enumerate().filter(|b| !b.1.is_empty())
    }

    /// The read-locked shard holding `key`.
    pub(crate) fn read_key(&self, key: &str) -> RwLockReadGuard<'_, HashMap<String, V>> {
        self.read(self.shard_of(key))
    }

    /// Places `value` under `key`, replacing any previous value; returns
    /// whether the key was new.
    pub(crate) fn insert(&self, key: String, value: V) -> bool {
        self.write(self.shard_of(&key)).insert(key, value).is_none()
    }

    /// Visits every entry, one shard read lock at a time.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&String, &V)) {
        for si in 0..self.shards.len() {
            for (key, value) in self.read(si).iter() {
                f(key, value);
            }
        }
    }

    /// Visits every value mutably, one shard write lock at a time.
    pub(crate) fn for_each_mut(&self, mut f: impl FnMut(&mut V)) {
        for si in 0..self.shards.len() {
            self.write(si).values_mut().for_each(&mut f);
        }
    }

    /// `(key, f(value))` for every entry, sorted by key (a point-in-time
    /// copy taken shard by shard under the read locks).
    pub(crate) fn sorted<R>(&self, mut f: impl FnMut(&V) -> R) -> Vec<(String, R)> {
        let mut out = Vec::new();
        self.for_each(|key, value| out.push((key.clone(), f(value))));
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    pub(crate) fn key_count(&self) -> usize {
        (0..self.shards.len()).map(|si| self.read(si).len()).sum()
    }

    pub(crate) fn keys(&self) -> Vec<String> {
        self.sorted(|_| ()).into_iter().map(|e| e.0).collect()
    }

    /// Deep footprint of the table: the shard and queue vectors, each
    /// map's bucket capacity (a hashbrown table pays one control byte
    /// plus one `(key, value)` pair per bucket), key strings, parked
    /// runs, and `heap_bytes` of every value.
    pub(crate) fn memory_bytes(&self, heap_bytes: impl Fn(&V) -> usize) -> usize {
        let mut total = self.shards.capacity() * core::mem::size_of::<RwLock<HashMap<String, V>>>()
            + self.queues.capacity() * core::mem::size_of::<Mutex<Queue<T>>>();
        for si in 0..self.shards.len() {
            let map = self.read(si);
            total += map.capacity() * (core::mem::size_of::<(String, V)>() + 1);
            for (key, value) in map.iter() {
                total += key.len() + heap_bytes(value);
            }
            let queue = self.queue(si);
            total += queue.capacity() * core::mem::size_of::<(String, T, Vec<u64>)>();
            for (key, _, hashes) in queue.iter() {
                total += key.len() + core::mem::size_of_val(hashes.as_slice());
            }
        }
        total
    }
}

/// Groups a shard's bucket by key, keeping per-key order, so each value
/// takes one batched insert; keys are independent, so the group
/// iteration order cannot affect the result.
pub(crate) fn group_by_key<'k>(bucket: &[(&'k str, u64)]) -> HashMap<&'k str, Vec<u64>> {
    let mut grouped: HashMap<&str, Vec<u64>> = HashMap::new();
    for &(key, hash) in bucket {
        grouped.entry(key).or_default().push(hash);
    }
    grouped
}

/// A store built on a [`KeyedCore`]: what the generic
/// [`Session`](crate::Session) and the handoff protocol below need from
/// it. Only [`EllStore`](crate::EllStore) and
/// [`WindowedStore`](crate::WindowedStore) implement it.
pub(crate) trait Keyed {
    /// What each key holds in the shard maps.
    type Value;
    /// What a buffered observation is tagged with besides its key.
    type Tag: Copy + Ord + core::fmt::Debug;
    /// Store-wide state pinned for the length of one handoff merge.
    type Pin: Copy;

    fn core(&self) -> &KeyedCore<Self::Value, Self::Tag>;

    /// An empty sketch for a new key or a parked pending entry.
    fn new_delta(&self) -> AdaptiveExaLogLog;

    /// Runs `f` with the store-wide state pinned. The windowed store
    /// holds its epoch read lock for the duration, so every run's
    /// live-or-retired decision agrees with rotation.
    fn pinned<R>(&self, f: impl FnOnce(Self::Pin) -> R) -> R;

    /// Folds one run of `key`'s hashes under `tag` into its value
    /// (creating the key if new) under the held shard write lock. The
    /// only per-key merge of the handoff protocol.
    fn merge_hashes(
        &self,
        map: &mut HashMap<String, Self::Value>,
        key: &str,
        tag: Self::Tag,
        hashes: &[u64],
        pin: Self::Pin,
    );

    /// Flushes one shard's runs of a session log: on an uncontended (or
    /// barrier) lock each run folds straight from the session's log into
    /// its slot. A contended auto-flush parks copies of the runs on the
    /// handoff queue instead, and blocking-drains the queue itself once
    /// it reaches [`HANDOFF_SOFT_CAPACITY`].
    fn flush_runs(&self, si: usize, runs: &[Run<'_, Self::Tag>], barrier: bool) {
        let core = self.core();
        let overflow = self.pinned(|pin| {
            let guard = if barrier {
                Some(core.write(si))
            } else {
                core.try_write(si)
            };
            match guard {
                Some(mut map) => {
                    // Drain the queue first so queued items never linger
                    // behind a direct merge.
                    self.drain_queue_into(si, &mut map, pin);
                    for run in runs {
                        self.merge_hashes(&mut map, run.key, run.tag, run.hashes, pin);
                    }
                    false
                }
                None => {
                    let mut queue = core.queue(si);
                    queue.extend(
                        runs.iter()
                            .map(|run| (run.key.to_owned(), run.tag, run.hashes.to_vec())),
                    );
                    queue.len() >= HANDOFF_SOFT_CAPACITY
                }
            }
        });
        // The pin is released before the blocking drain re-takes it: a
        // window flush still holding its epoch read lock here could
        // deadlock `advance` behind a queued writer.
        if overflow {
            self.drain_shard(si);
        }
    }

    /// Drains every nonempty handoff queue (blocking). The final step of
    /// a barrier flush: read-your-writes for the flushing session even
    /// when its earlier auto-flushes left runs parked on contended
    /// shards.
    fn drain_all_pending(&self) {
        for si in 0..self.core().shard_count() {
            // The queue guard is a temporary of the condition, released
            // before the drain re-takes it.
            if !self.core().queue(si).is_empty() {
                self.drain_shard(si);
            }
        }
    }

    /// Drains shard `si`'s handoff queue under its write lock, with the
    /// store-wide state pinned.
    fn drain_shard(&self, si: usize) {
        self.pinned(|pin| self.drain_queue_into(si, &mut self.core().write(si), pin));
    }

    /// Pops shard `si`'s queue until it is observed empty, merging under
    /// the already-held write lock. Write lock first, then pop: when any
    /// drainer returns after observing an empty queue, every item
    /// enqueued before that observation has been merged under a write
    /// lock that happens-before the next acquisition.
    fn drain_queue_into(&self, si: usize, map: &mut HashMap<String, Self::Value>, pin: Self::Pin) {
        loop {
            let batch = std::mem::take(&mut *self.core().queue(si));
            if batch.is_empty() {
                return;
            }
            for (key, tag, hashes) in &batch {
                self.merge_hashes(map, key, *tag, hashes, pin);
            }
        }
    }
}
