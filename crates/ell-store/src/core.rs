//! The sharded handoff core under both stores.
//!
//! [`EllStore`](crate::EllStore) and [`WindowedStore`](crate::WindowedStore)
//! agree on everything except what a key holds: a power-of-two table of
//! `RwLock<Table<V>>` shards routed by a fixed-seed key hash — each a
//! flat open-addressed [`Table`] probed by that same hash — and one
//! handoff queue per shard on which buffered
//! [`Session`](crate::Session)s park a flush's runs for that shard when
//! it is contended. `V` is one sketch slot for the flat store and an
//! epoch ring for the windowed one; the tag `T` is `()` and the epoch.
//! [`KeyedCore`] owns that table and its iteration helpers,
//! [`group_runs`] cuts every ingest batch and session log into per-key
//! runs, and the [`Keyed`] trait carries the single copy of the
//! flush/drain protocol, parameterized by each store's per-key merge.
//!
//! Register merge is commutative and idempotent (paper §1, §2), so a
//! parked run may be applied by any thread at any time: the protocol
//! only has to guarantee that nothing parked is lost and that a barrier
//! flush leaves every queue empty behind it (CONCURRENCY.md § "Session
//! handoff", modeled by `ell-verify::models::handoff`).

use crate::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use crate::table::Table;
use ell_hash::{Hasher64, WyHash};
use exaloglog::EllError;
use std::ops::Range;

/// Seed of the key-partitioning hash. Fixed so that shard assignment —
/// and therefore snapshot layout — is stable across processes, and
/// shared by both stores so they shard a key space identically.
const KEY_HASH_SEED: u64 = 0xE115_70E5;

/// Soft bound on a shard's handoff queue: once this many flushes are
/// parked on it, the enqueueing session drains the shard itself
/// (blocking on the write lock) instead of deferring to a later flush.
const HANDOFF_SOFT_CAPACITY: usize = 64;

/// One shard's handoff queue: one item per parked flush.
type Queue<T> = Vec<Parked<T>>;

/// One key's share of an ingest batch or session flush: every hash
/// observed for `key` (whose key hash is `key_hash`) under `tag`, bound
/// for shard `shard`. One key may arrive as several runs (merges
/// commute), but a run never mixes keys or tags.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run<'l, T> {
    pub(crate) shard: usize,
    pub(crate) key_hash: u64,
    pub(crate) key: &'l str,
    pub(crate) tag: T,
    pub(crate) hashes: &'l [u64],
}

/// A contended flush's runs for one shard, owned so they can wait on
/// the handoff queue: the keys back to back in one arena, the hashes
/// back to back in one buffer.
#[derive(Debug)]
struct Parked<T> {
    keys: String,
    hashes: Vec<u64>,
    /// Per run: its tag, its key hash, and where its key and its
    /// hashes lie.
    runs: Vec<(T, u64, Range<usize>, Range<usize>)>,
}

impl<T: Copy> Parked<T> {
    fn new(runs: &[Run<'_, T>]) -> Self {
        let mut parked = Parked {
            keys: String::with_capacity(runs.iter().map(|run| run.key.len()).sum()),
            hashes: Vec::with_capacity(runs.iter().map(|run| run.hashes.len()).sum()),
            runs: Vec::with_capacity(runs.len()),
        };
        for run in runs {
            let (key_start, hashes_start) = (parked.keys.len(), parked.hashes.len());
            parked.keys.push_str(run.key);
            parked.hashes.extend_from_slice(run.hashes);
            parked.runs.push((
                run.tag,
                run.key_hash,
                key_start..parked.keys.len(),
                hashes_start..parked.hashes.len(),
            ));
        }
        parked
    }

    /// The parked runs, in flush order.
    fn runs(&self, shard: usize) -> Vec<Run<'_, T>> {
        let run = |(tag, key_hash, key, hashes): &(T, u64, Range<usize>, Range<usize>)| Run {
            shard,
            key_hash: *key_hash,
            key: &self.keys[key.clone()],
            tag: *tag,
            hashes: &self.hashes[hashes.clone()],
        };
        self.runs.iter().map(run).collect()
    }
}

impl<T> Parked<T> {
    fn heap_bytes(&self) -> usize {
        self.keys.capacity()
            + self.hashes.capacity() * core::mem::size_of::<u64>()
            + self.runs.capacity() * core::mem::size_of::<(T, u64, Range<usize>, Range<usize>)>()
    }
}

/// The shard of `shards` (a power of two) a key with hash `key_hash`
/// lives in: its low bits.
fn shard_of_hash(key_hash: u64, shards: usize) -> usize {
    (key_hash as usize) & (shards - 1)
}

/// Groups a batch of `(key_hash, tag, key, hash)` records into runs,
/// one per distinct `(key, tag)`, ordered by shard (the low bits of the
/// key hash, `shards` a power of two) and, within a shard, by the top
/// bits of the key hash — the order of the shard's [`Table`], so a fold
/// walks it front to back. Each run's hashes lie contiguously in
/// `hashes`, in input order, so a key's slot sees exactly the sequence
/// direct insertion would have fed it.
///
/// One pass assigns every record to its run through a flat
/// open-addressed table probed from the key hash's top bits; a hit also
/// compares the tag and the key bytes, so keys whose hashes collide
/// never share a run. One counting pass over that table then orders the
/// runs by shard, and one gather lays out their hashes. No comparison
/// sort: each record costs one probe and one store.
pub(crate) fn group_runs<'l, T: Copy + Eq>(
    shards: usize,
    records: impl ExactSizeIterator<Item = (u64, T, &'l str, u64)>,
    hashes: &'l mut Vec<u64>,
) -> Vec<Run<'l, T>> {
    /// A run under construction: its first record's identity, its
    /// length, and (after ordering) a cursor into `hashes`.
    struct Head<'l, T> {
        key_hash: u64,
        tag: T,
        key: &'l str,
        len: usize,
        end: usize,
    }
    const EMPTY: u32 = u32::MAX;
    debug_assert!(shards.is_power_of_two());
    let n = records.len();
    assert!(
        n < EMPTY as usize,
        "batch of {n} records overflows the run table"
    );
    let shard_of = |key_hash| shard_of_hash(key_hash, shards);
    let mask = (2 * n).max(16).next_power_of_two() - 1;
    let top = 64 - (mask + 1).trailing_zeros();
    let mut table = vec![EMPTY; mask + 1];
    let mut heads: Vec<Head<'l, T>> = Vec::new();
    let mut run_of: Vec<(u32, u64)> = Vec::with_capacity(n);
    for (key_hash, tag, key, hash) in records {
        let mut at = (key_hash >> top) as usize;
        let run = loop {
            let r = table[at];
            if r == EMPTY {
                table[at] = heads.len() as u32;
                heads.push(Head {
                    key_hash,
                    tag,
                    key,
                    len: 0,
                    end: 0,
                });
                break heads.len() - 1;
            }
            let head = &heads[r as usize];
            if head.key_hash == key_hash && head.tag == tag && head.key == key {
                break r as usize;
            }
            at = (at + 1) & mask;
        };
        heads[run].len += 1;
        run_of.push((run as u32, hash));
    }
    // Counting sort of the runs by shard, stable in table order.
    let mut first = vec![0usize; shards + 1];
    for head in &heads {
        first[shard_of(head.key_hash) + 1] += 1;
    }
    for si in 0..shards {
        first[si + 1] += first[si];
    }
    let mut order = vec![0u32; heads.len()];
    for &r in table.iter().filter(|&&r| r != EMPTY) {
        let slot = &mut first[shard_of(heads[r as usize].key_hash)];
        order[*slot] = r;
        *slot += 1;
    }
    drop(table);
    let mut at = 0;
    for &r in &order {
        let head = &mut heads[r as usize];
        head.end = at;
        at += head.len;
    }
    // Gather: `end` runs from each run's start to its end.
    hashes.clear();
    hashes.resize(n, 0);
    for &(r, hash) in &run_of {
        let head = &mut heads[r as usize];
        hashes[head.end] = hash;
        head.end += 1;
    }
    let hashes: &'l [u64] = hashes;
    order
        .iter()
        .map(|&r| {
            let head = &heads[r as usize];
            Run {
                shard: shard_of(head.key_hash),
                key_hash: head.key_hash,
                key: head.key,
                tag: head.tag,
                hashes: &hashes[head.end - head.len..head.end],
            }
        })
        .collect()
}

/// The runs of `runs` (ordered by shard, as [`group_runs`] leaves them)
/// cut into one slice per shard, with the shard index.
pub(crate) fn by_shard<'r, 'l, T>(
    runs: &'r [Run<'l, T>],
) -> impl Iterator<Item = (usize, &'r [Run<'l, T>])> {
    runs.chunk_by(|a, b| a.shard == b.shard)
        .map(|group| (group[0].shard, group))
}

/// The shard table plus the per-shard handoff queues (kept strictly
/// parallel to the shards).
#[derive(Debug)]
pub(crate) struct KeyedCore<V, T> {
    hasher: WyHash,
    shards: Vec<RwLock<Table<V>>>,
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
        maps.resize_with(shards, || RwLock::new(Table::default()));
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

    /// `key`'s shard and key hash.
    pub(crate) fn locate(&self, key: &str) -> (usize, u64) {
        let key_hash = self.key_hash(key);
        (shard_of_hash(key_hash, self.shards.len()), key_hash)
    }

    pub(crate) fn read(&self, si: usize) -> RwLockReadGuard<'_, Table<V>> {
        self.shards[si].read().expect("shard lock poisoned")
    }

    pub(crate) fn write(&self, si: usize) -> RwLockWriteGuard<'_, Table<V>> {
        self.shards[si].write().expect("shard lock poisoned")
    }

    /// The shard write lock if it is free right now (`None` when taken).
    fn try_write(&self, si: usize) -> Option<RwLockWriteGuard<'_, Table<V>>> {
        match self.shards[si].try_write() {
            Err(TryLockError::WouldBlock) => None,
            // Poison propagates like the blocking path's expect.
            other => Some(other.expect("shard lock poisoned")),
        }
    }

    fn queue(&self, si: usize) -> MutexGuard<'_, Queue<T>> {
        self.queues[si].lock().expect("handoff queue poisoned")
    }

    /// Groups a direct batch of `(key, hash)` observations, all under
    /// `tag`, into per-key runs ordered by shard (see [`group_runs`]);
    /// the runs' hashes land in `hashes`.
    pub(crate) fn group<'l>(
        &self,
        tag: T,
        batch: &[(&'l str, u64)],
        hashes: &'l mut Vec<u64>,
    ) -> Vec<Run<'l, T>>
    where
        T: Copy + Eq,
    {
        let records = batch
            .iter()
            .map(|&(key, hash)| (self.key_hash(key), tag, key, hash));
        group_runs(self.shards.len(), records, hashes)
    }

    /// `f` of `key`'s value under its shard's read lock (`None` when
    /// the key is absent).
    pub(crate) fn with<R>(&self, key: &str, f: impl FnOnce(&V) -> R) -> Option<R> {
        let (si, key_hash) = self.locate(key);
        self.read(si).get(key_hash, key).map(f)
    }

    /// Places `value` under `key` unless the key is present; returns
    /// whether it was absent.
    pub(crate) fn insert(&self, key: &str, value: V) -> bool {
        let (si, key_hash) = self.locate(key);
        self.write(si).entry(key_hash, key, || value).1
    }

    /// Visits every entry, one shard read lock at a time.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&str, &V)) {
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
        self.for_each(|key, value| out.push((key.to_owned(), f(value))));
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
    /// shard table's slots (empty ones included, each holding a value
    /// inline) and key arena, parked runs, and `heap_bytes` of every
    /// value.
    pub(crate) fn memory_bytes(&self, heap_bytes: impl Fn(&V) -> usize) -> usize {
        let mut total = self.shards.capacity() * core::mem::size_of::<RwLock<Table<V>>>()
            + self.queues.capacity() * core::mem::size_of::<Mutex<Queue<T>>>();
        for si in 0..self.shards.len() {
            let table = self.read(si);
            total += table.heap_bytes();
            total += table
                .iter()
                .map(|(_, value)| heap_bytes(value))
                .sum::<usize>();
            let queue = self.queue(si);
            total += queue.capacity() * core::mem::size_of::<Parked<T>>();
            total += queue.iter().map(Parked::heap_bytes).sum::<usize>();
        }
        total
    }
}

/// A store built on a [`KeyedCore`]: what the generic
/// [`Session`](crate::Session) and the handoff protocol below need from
/// it. Only [`EllStore`](crate::EllStore) and
/// [`WindowedStore`](crate::WindowedStore) implement it.
pub(crate) trait Keyed {
    /// What each key holds in the shard tables.
    type Value;
    /// What a buffered observation is tagged with besides its key.
    type Tag: Copy + Eq + core::fmt::Debug;
    /// Store-wide state pinned for the length of one handoff merge.
    type Pin: Copy;

    fn core(&self) -> &KeyedCore<Self::Value, Self::Tag>;

    /// Runs `f` with the store-wide state pinned. The windowed store
    /// holds its epoch read lock for the duration, so every run's
    /// live-or-retired decision agrees with rotation.
    fn pinned<R>(&self, f: impl FnOnce(Self::Pin) -> R) -> R;

    /// The value of a key a run creates: empty.
    fn new_value(&self, pin: Self::Pin) -> Self::Value;

    /// Reads what [`Keyed::merge_run`] will read first of `value` (see
    /// [`Table::fold`]); the result only keeps the reads alive.
    fn touch(_: &Self::Value) -> u64 {
        0
    }

    /// Folds one run into its key's value under the held shard write
    /// lock: the only per-key merge of the handoff protocol.
    fn merge_run(&self, value: &mut Self::Value, run: &Run<'_, Self::Tag>, pin: Self::Pin);

    /// Folds one shard's runs into its write-locked `table`, creating
    /// new keys, in chunks whose cache misses overlap ([`Table::fold`]).
    fn merge_hashes(
        &self,
        table: &mut Table<Self::Value>,
        runs: &[Run<'_, Self::Tag>],
        pin: Self::Pin,
    ) {
        table.fold(
            runs,
            || self.new_value(pin),
            Self::touch,
            |v, run| self.merge_run(v, run, pin),
        );
    }

    /// Flushes one shard's runs of a session log: on an uncontended (or
    /// barrier) lock each run folds straight from the session's log into
    /// its slot. A contended auto-flush parks one owned copy of the
    /// whole group on the handoff queue instead, and blocking-drains the
    /// queue itself once it holds [`HANDOFF_SOFT_CAPACITY`] parked
    /// flushes.
    fn flush_runs(&self, si: usize, runs: &[Run<'_, Self::Tag>], barrier: bool) {
        let core = self.core();
        let overflow = self.pinned(|pin| {
            let guard = if barrier {
                Some(core.write(si))
            } else {
                core.try_write(si)
            };
            match guard {
                Some(mut table) => {
                    // Drain the queue first so queued items never linger
                    // behind a direct merge.
                    self.drain_queue_into(si, &mut table, pin);
                    self.merge_hashes(&mut table, runs, pin);
                    false
                }
                None => {
                    let parked = Parked::new(runs);
                    let mut queue = core.queue(si);
                    queue.push(parked);
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
    fn drain_queue_into(&self, si: usize, table: &mut Table<Self::Value>, pin: Self::Pin) {
        loop {
            let batch = std::mem::take(&mut *self.core().queue(si));
            if batch.is_empty() {
                return;
            }
            for parked in &batch {
                self.merge_hashes(table, &parked.runs(si), pin);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EllStore;
    use ell_hash::{mix64, SplitMix64};
    use exaloglog::EllConfig;
    use std::time::Duration;

    fn cfg() -> EllConfig {
        EllConfig::new(2, 16, 6).unwrap()
    }

    #[test]
    fn grouped_batches_keep_colliding_keys_apart() {
        // A direct batch (one tag) whose five keys share two key hashes
        // between them: each key gets exactly its own hashes, in batch
        // order, as one run.
        let keys = ["a", "b", "c", "d", "e"];
        let key_hash = |key: &str| if key < "c" { 0x51 } else { 0x52 };
        let mut rng = SplitMix64::new(5);
        let batch: Vec<(&str, u64)> = (0..500)
            .map(|_| (keys[(rng.next_u64() % 5) as usize], rng.next_u64()))
            .collect();
        let mut hashes = Vec::new();
        let records = batch
            .iter()
            .map(|&(key, hash)| (key_hash(key), (), key, hash));
        let runs = group_runs(4, records, &mut hashes);
        assert_eq!(runs.len(), keys.len());
        assert!(runs.windows(2).all(|w| w[0].shard <= w[1].shard));
        for run in &runs {
            assert_eq!(run.shard, (key_hash(run.key) & 3) as usize);
            let own: Vec<u64> = batch
                .iter()
                .filter(|e| e.0 == run.key)
                .map(|e| e.1)
                .collect();
            assert_eq!(run.hashes, own);
        }
        assert!(group_runs::<()>(4, std::iter::empty(), &mut hashes).is_empty());
    }

    #[test]
    fn contended_flush_parks_one_item_and_returns() {
        // More runs than the soft capacity, on a shard whose write lock
        // is held elsewhere: a non-barrier flush parks them as one item
        // and returns instead of blocking on the lock.
        let store = EllStore::new(1, cfg()).unwrap();
        let twin = EllStore::new(1, cfg()).unwrap();
        let keys: Vec<String> = (0..2 * HANDOFF_SOFT_CAPACITY)
            .map(|i| format!("k{i}"))
            .collect();
        let hashes: Vec<u64> = (0..16).map(mix64).collect();
        let runs: Vec<Run<'_, ()>> = keys
            .iter()
            .map(|key| Run {
                shard: 0,
                key_hash: store.core().key_hash(key),
                key,
                tag: (),
                hashes: &hashes,
            })
            .collect();
        let (tx, rx) = std::sync::mpsc::channel();
        let guard = store.core().write(0);
        std::thread::scope(|s| {
            let (store, runs) = (&store, &runs);
            s.spawn(move || {
                store.flush_runs(0, runs, false);
                tx.send(()).expect("the test thread waits for this");
            });
            let returned = rx.recv_timeout(Duration::from_secs(10)).is_ok();
            let parked = store.core().queue(0).len();
            drop(guard);
            assert!(returned, "a contended flush blocked on the write lock");
            assert_eq!(parked, 1);
        });
        store.drain_all_pending();
        for key in &keys {
            for &hash in &hashes {
                twin.insert(key, hash);
            }
        }
        assert_eq!(store.snapshot_bytes(), twin.snapshot_bytes());
    }
}
