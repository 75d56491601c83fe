//! The sharded core under both stores.
//!
//! [`EllStore`](crate::EllStore) and [`WindowedStore`](crate::WindowedStore)
//! agree on everything except what a key holds: a power-of-two table of
//! `RwLock<Table<V>>` shards routed by a fixed-seed key hash, each a
//! flat open-addressed [`Table`] probed by that same hash. `V` is one
//! sketch slot for the flat store and an epoch ring for the windowed
//! one. [`KeyedCore`] owns that table and its iteration helpers,
//! [`group_runs`] cuts every ingest batch and session log into per-key
//! runs, tagged with `()` or the epoch, and the [`Keyed`] trait carries
//! the single copy of the session flush, parameterized by each store's
//! per-key merge.
//!
//! A flush folds each shard's runs under that shard's write lock, with
//! the store-wide state pinned ([`Keyed::pinned`]), and returns when
//! every run is in. Register merge is commutative and idempotent
//! (paper §1, §2), so the bytes do not depend on which flush takes a
//! shard first. Locks are taken in one order on every path: the
//! windowed store's epoch lock, then one shard lock, then at most one
//! leaf mutex that guards nothing further (a query scratch, the spill
//! file); and a flush never re-enters [`Keyed::pinned`], so no cycle of
//! waiters can form (CONCURRENCY.md § "Session flush").

use crate::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use crate::table::Table;
use ell_hash::{Hasher64, WyHash};
use exaloglog::EllError;

/// Seed of the key-partitioning hash. Fixed so that shard assignment —
/// and therefore snapshot layout — is stable across processes, and
/// shared by both stores so they shard a key space identically.
const KEY_HASH_SEED: u64 = 0xE115_70E5;

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

/// The shard table.
#[derive(Debug)]
pub(crate) struct KeyedCore<V> {
    hasher: WyHash,
    shards: Vec<RwLock<Table<V>>>,
}

impl<V> KeyedCore<V> {
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
        Ok(KeyedCore {
            hasher: WyHash::new(KEY_HASH_SEED),
            shards: maps,
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

    /// Groups a direct batch of `(key, hash)` observations, all under
    /// `tag`, into per-key runs ordered by shard (see [`group_runs`]);
    /// the runs' hashes land in `hashes`.
    pub(crate) fn group<'l, T: Copy + Eq>(
        &self,
        tag: T,
        batch: &[(&'l str, u64)],
        hashes: &'l mut Vec<u64>,
    ) -> Vec<Run<'l, T>> {
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

    /// Deep footprint of the table: the shard vector, each shard
    /// table's slots (empty ones included, each holding a value inline)
    /// and key arena, and `heap_bytes` of every value.
    pub(crate) fn memory_bytes(&self, heap_bytes: impl Fn(&V) -> usize) -> usize {
        let mut total = self.shards.capacity() * core::mem::size_of::<RwLock<Table<V>>>();
        for si in 0..self.shards.len() {
            let table = self.read(si);
            total += table.heap_bytes();
            total += table
                .iter()
                .map(|(_, value)| heap_bytes(value))
                .sum::<usize>();
        }
        total
    }
}

/// A store built on a [`KeyedCore`]: what the generic
/// [`Session`](crate::Session) and its flush need from it. Only
/// [`EllStore`](crate::EllStore) and [`WindowedStore`](crate::WindowedStore)
/// implement it.
pub(crate) trait Keyed {
    /// What each key holds in the shard tables.
    type Value;
    /// What a buffered observation is tagged with besides its key.
    type Tag: Copy + Eq + core::fmt::Debug;
    /// Store-wide state pinned for the length of one shard's flush.
    type Pin: Copy;

    fn core(&self) -> &KeyedCore<Self::Value>;

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
    /// lock: the only per-key merge of a session flush.
    fn merge_run(&self, value: &mut Self::Value, run: &Run<'_, Self::Tag>, pin: Self::Pin);

    /// Flushes one shard's runs of a session log: pins the store, takes
    /// the shard's write lock (epoch lock, then shard lock), and folds
    /// every run straight from the session's log into its slot, creating
    /// new keys, in chunks whose cache misses overlap ([`Table::fold`]).
    fn flush_runs(&self, si: usize, runs: &[Run<'_, Self::Tag>]) {
        self.pinned(|pin| {
            self.core().write(si).fold(
                runs,
                || self.new_value(pin),
                Self::touch,
                |value, run| self.merge_run(value, run, pin),
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ell_hash::SplitMix64;

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
}
