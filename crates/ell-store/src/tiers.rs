//! Tiered key residency: configuration, statistics, and the cold-spill
//! segment store.
//!
//! Both stores keep every key on one residency ladder, implemented once
//! here ([`Ladder`], over [`Entry`]s) and run over an adaptive sketch
//! per key by [`EllStore`](crate::EllStore) and over an epoch ring per
//! key by [`WindowedStore`](crate::WindowedStore), each supplying only
//! its per-value work through [`Rung`]:
//!
//! ```text
//!            ingest/query (promote)                ingest/query (promote)
//!          ┌───────────────────────┐             ┌──────────────────────┐
//!          ▼                       │             ▼                      │
//!  Sparse/Hot ──(idle ≥ warm_after)──▶ Warm ──(idle ≥ cold_after)──▶ Cold
//!  in-memory sketch                 compressed bytes             on-disk segment
//!  (tokens / registers / ring)      (ELLR / ELLS / ring blob)    + in-memory index
//! ```
//!
//! Demotion is driven by a store-level clock: every ingest or per-key
//! query stamps the entry with the current clock value, and a sweep
//! demotes entries whose idle age (`clock − stamp`) crosses the
//! configured thresholds, one rung per sweep. The flat store's clock is
//! its access clock ([`EllStore::tick`](crate::EllStore::tick)), swept
//! by [`EllStore::demote_idle`](crate::EllStore::demote_idle); a
//! window's clock is its current epoch, and rotation
//! ([`WindowedStore::advance`](crate::WindowedStore::advance)) is its
//! sweep. Only [`TierConfig::spill_dir`], installed through
//! [`EllStore::set_tier_config`](crate::EllStore::set_tier_config),
//! opens the cold rung: windows stop at warm.
//!
//! Promotion is transparent: any direct ingest or per-key estimate on a
//! warm/cold key rebuilds the in-memory value (merging any session
//! deltas parked on it) before proceeding. Because register merge is
//! monotone, commutative and idempotent, a store that demoted and
//! promoted keys in any order holds *bit-identical* per-key states to a
//! store that never tiered at all.

use crate::core::KeyedCore;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Residency tier of one key (see [`crate::EllStore::key_tier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Dense registers, resident and mutated under the shard write
    /// lock.
    Hot,
    /// Sparse token phase, mutated under the shard write lock.
    Sparse,
    /// Compressed bytes in memory (range-coded dense or canonical
    /// sparse serialization).
    Warm,
    /// Bytes spilled to the on-disk segment file; only the
    /// `(segment, offset, length)` index entry stays resident.
    Cold,
}

/// Demotion thresholds and spill location for a tiered store.
///
/// The default configuration disables tiering entirely: nothing ever
/// demotes, and the store behaves exactly like the untiered original.
///
/// # Lifecycle
///
/// ```
/// use ell_store::{EllStore, Tier, TierConfig};
/// use exaloglog::EllConfig;
///
/// let mut store = EllStore::new(4, EllConfig::optimal(10).unwrap()).unwrap();
/// store.set_tier_config(TierConfig::new().warm_after(2));
///
/// store.insert("burst", 1);
/// store.insert("steady", 2);
///
/// // Two quiet clock ticks pass; "steady" keeps being touched.
/// store.tick();
/// store.tick();
/// store.insert("steady", 3);
///
/// // The sweep demotes only the idle key.
/// store.demote_idle();
/// assert_eq!(store.key_tier("burst"), Some(Tier::Warm));
/// assert_eq!(store.key_tier("steady"), Some(Tier::Sparse));
///
/// // Any read or write promotes transparently — and the estimate is
/// // bit-identical to a store that never demoted.
/// assert_eq!(store.estimate("burst").map(|e| e.round() as u64), Some(1));
/// assert_eq!(store.key_tier("burst"), Some(Tier::Sparse));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TierConfig {
    warm_after: Option<u64>,
    cold_after: Option<u64>,
    spill_dir: Option<PathBuf>,
}

impl TierConfig {
    /// A configuration with tiering disabled.
    #[must_use]
    pub fn new() -> Self {
        TierConfig::default()
    }

    /// Demote in-memory sketches to compressed warm bytes once a key
    /// has been idle for `ticks` clock ticks.
    #[must_use]
    pub fn warm_after(mut self, ticks: u64) -> Self {
        self.warm_after = Some(ticks);
        self
    }

    /// Demote warm keys to the on-disk segment file once idle for
    /// `ticks` clock ticks (requires a spill directory; cold demotion
    /// is skipped without one).
    #[must_use]
    pub fn cold_after(mut self, ticks: u64) -> Self {
        self.cold_after = Some(ticks);
        self
    }

    /// Directory for the cold-spill segment file (created on first
    /// spill).
    #[must_use]
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Whether any demotion threshold is configured.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.warm_after.is_some() || self.cold_after.is_some()
    }

    /// The warm demotion threshold, if set.
    #[must_use]
    pub fn warm_threshold(&self) -> Option<u64> {
        self.warm_after
    }

    /// The cold demotion threshold, if set.
    #[must_use]
    pub fn cold_threshold(&self) -> Option<u64> {
        self.cold_after
    }

    /// The configured spill directory, if any.
    #[must_use]
    pub fn spill_directory(&self) -> Option<&Path> {
        self.spill_dir.as_deref()
    }
}

/// A point-in-time copy of a store's tier occupancy and transition
/// counters (see [`crate::EllStore::tier_stats`] and
/// [`crate::WindowedStore::tier_stats`]; the windowed store uses
/// `hot_keys` for live rings and never populates the sparse/cold
/// fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierStats {
    /// Dense resident keys (live rings, for the windowed store).
    pub hot_keys: usize,
    /// Keys still in the sparse token phase.
    pub sparse_keys: usize,
    /// Keys holding compressed bytes in memory.
    pub warm_keys: usize,
    /// Keys spilled to disk (index entry resident only).
    pub cold_keys: usize,
    /// Completed demotions into the warm tier.
    pub demotions_warm: u64,
    /// Completed demotions into the cold tier.
    pub demotions_cold: u64,
    /// Promotions back to an in-memory sketch (ingest, query, sweep
    /// settling, or an explicit promote-all).
    pub promotions: u64,
    /// Session runs parked on warm/cold slots by lazy flushes (one per
    /// key and flush) and merged later at promotion.
    pub parked_deltas: u64,
    /// Cold demotions abandoned because the segment write failed (the
    /// key stays warm).
    pub spill_errors: u64,
    /// Deep in-memory footprint in bytes at snapshot time.
    pub resident_bytes: usize,
    /// Bytes this store has appended to the spill segment file so far.
    pub spilled_bytes: u64,
}

/// The per-value work of the [`Ladder`].
pub(crate) trait Rung: Sized {
    /// Session runs parked on a demoted entry until it revives.
    type Parked: core::fmt::Debug;
    /// What encoding and decoding need of the store: nothing for a
    /// sketch, the window position for a ring.
    type Ctx: Copy;
    /// The warm bytes of a live value.
    fn encode(&self, ctx: Self::Ctx) -> Box<[u8]>;
    /// The live value in `bytes` — written by [`Rung::encode`], or
    /// accepted by a restore that validates them with the same parser —
    /// with `parked` folded in.
    fn decode(bytes: &[u8], parked: Option<&Self::Parked>, ctx: Self::Ctx) -> Self;
    /// Heap bytes of a live value (its inline size is the table's).
    fn heap_bytes(&self) -> usize;
    fn parked_bytes(parked: &Self::Parked) -> usize;
    /// The tier a live value occupies: sparse or hot.
    fn tier(&self) -> Tier;
}

/// Where a cold entry's bytes lie in the spill segment file.
#[derive(Debug)]
struct Spilled {
    segment: u32,
    len: u32,
    offset: u64,
}

/// One key's value on its rung of the [`Ladder`], plus its clock stamp.
#[derive(Debug)]
pub(crate) struct Entry<V: Rung> {
    state: State<V>,
    /// Clock value at the last touch (see [`Entry::stamp`]).
    touched: AtomicU64,
}

#[derive(Debug)]
enum State<V: Rung> {
    /// Mutated in place under the shard write lock.
    Live(V),
    /// Compressed bytes in memory, plus the runs parked since.
    Warm(Box<[u8]>, Option<V::Parked>),
    /// The bytes' place in the spill segment — all that stays
    /// resident — plus the runs parked since.
    Cold(Spilled, Option<V::Parked>),
}

/// An entry as reads and snapshots see it: the live value, or a demoted
/// entry's bytes (read back from the spill segment when cold) and parked
/// runs.
pub(crate) enum View<'e, V: Rung> {
    Live(&'e V),
    Demoted(Cow<'e, [u8]>, Option<&'e V::Parked>),
}

impl<V: Rung> Entry<V> {
    /// Inline bytes of the state every entry pays, cold ones included.
    #[cfg(test)]
    pub(crate) const STATE_BYTES: usize = core::mem::size_of::<State<V>>();

    pub(crate) fn new(value: V, now: u64) -> Self {
        Self::with(State::Live(value), now)
    }

    /// A warm entry holding restored `bytes` verbatim, so a re-snapshot
    /// reuses them.
    pub(crate) fn warm(bytes: Box<[u8]>, now: u64) -> Self {
        Self::with(State::Warm(bytes, None), now)
    }

    fn with(state: State<V>, now: u64) -> Self {
        let touched = AtomicU64::new(now);
        Entry { state, touched }
    }

    pub(crate) fn value(&self) -> Option<&V> {
        match &self.state {
            State::Live(value) => Some(value),
            _ => None,
        }
    }

    pub(crate) fn parked(&self) -> Option<&V::Parked> {
        match &self.state {
            State::Live(_) => None,
            State::Warm(_, parked) | State::Cold(_, parked) => parked.as_ref(),
        }
    }

    pub(crate) fn tier(&self) -> Tier {
        match &self.state {
            State::Live(value) => value.tier(),
            State::Warm(..) => Tier::Warm,
            State::Cold(..) => Tier::Cold,
        }
    }

    pub(crate) fn stamp(&self, now: u64) {
        // ordering: Relaxed — idle-age stamp, possibly written under the
        // shard read lock; the sweep reads it under the write lock, which
        // orders it after every stamp made under a read lock. A racing or
        // stale stamp only shifts which sweep demotes the entry, never
        // loses data. See CONCURRENCY.md § "Tier demote vs promote".
        self.touched.store(now, Ordering::Relaxed);
    }

    /// Heap bytes owned beyond the inline entry.
    pub(crate) fn heap_bytes(&self) -> usize {
        let parked = |runs: &Option<V::Parked>| runs.as_ref().map_or(0, V::parked_bytes);
        match &self.state {
            State::Live(value) => value.heap_bytes(),
            State::Warm(bytes, runs) => bytes.len() + parked(runs),
            State::Cold(_, runs) => parked(runs),
        }
    }
}

/// Folds a warm entry's parked runs into its bytes; it stays warm.
fn settle<V: Rung>(bytes: &mut Box<[u8]>, parked: &mut Option<V::Parked>, ctx: V::Ctx) {
    if let Some(runs) = parked.take() {
        *bytes = V::decode(bytes, Some(&runs), ctx).encode(ctx);
    }
}

/// One store's residency ladder (see the module docs): its thresholds,
/// its spill store, and the relaxed counters behind [`TierStats`] and
/// [`WindowStats`](crate::WindowStats).
#[derive(Debug, Default)]
pub(crate) struct Ladder {
    tiers: TierConfig,
    /// Present only with a configured spill directory: the one way to
    /// the cold rung.
    spill: Option<SpillStore>,
    pub(crate) counters: Counters,
}

impl Ladder {
    /// Installs `tiers`, with a spill store when it names a directory.
    pub(crate) fn configure(&mut self, tiers: TierConfig) {
        self.spill = tiers
            .spill_directory()
            .map(|dir| SpillStore::new(dir.to_path_buf()));
        self.tiers = tiers;
    }

    pub(crate) fn tiers(&self) -> &TierConfig {
        &self.tiers
    }

    pub(crate) fn view<'e, V: Rung>(&self, entry: &'e Entry<V>) -> View<'e, V> {
        match &entry.state {
            State::Live(value) => View::Live(value),
            State::Warm(bytes, parked) => View::Demoted(Cow::Borrowed(bytes), parked.as_ref()),
            State::Cold(at, parked) => {
                let bytes = self
                    .spill
                    .as_ref()
                    .expect("cold entries exist only with a spill store")
                    .read(at.segment, at.offset, at.len)
                    .expect("cold payload unreadable — spill segment missing or truncated");
                View::Demoted(Cow::Owned(bytes), parked.as_ref())
            }
        }
    }

    /// `f` of the entry's live value, or of the value a demoted entry
    /// revives to, without changing its rung.
    pub(crate) fn read<V: Rung, R>(
        &self,
        entry: &Entry<V>,
        ctx: V::Ctx,
        f: impl FnOnce(&V) -> R,
    ) -> R {
        match self.view(entry) {
            View::Live(value) => f(value),
            View::Demoted(bytes, parked) => f(&V::decode(&bytes, parked, ctx)),
        }
    }

    /// The entry's live value, reviving a demoted entry first (counted
    /// as a promotion).
    pub(crate) fn live<'e, V: Rung>(&self, entry: &'e mut Entry<V>, ctx: V::Ctx) -> &'e mut V {
        if let View::Demoted(bytes, parked) = self.view(entry) {
            let value = V::decode(&bytes, parked, ctx);
            entry.state = State::Live(value);
            Counters::add(&self.counters.promotions, 1);
        }
        match &mut entry.state {
            State::Live(value) => value,
            _ => unreachable!("revived above"),
        }
    }

    /// [`Ladder::live`] for a touch at `now`: a direct ingest or a
    /// per-key query.
    pub(crate) fn access<'e, V: Rung>(
        &self,
        entry: &'e mut Entry<V>,
        now: u64,
        ctx: V::Ctx,
    ) -> &'e mut V {
        entry.stamp(now);
        self.live(entry, ctx)
    }

    /// Demotes a live entry to warm bytes (counted); a no-op otherwise.
    pub(crate) fn demote<V: Rung>(&self, entry: &mut Entry<V>, ctx: V::Ctx) {
        if let State::Live(value) = &entry.state {
            entry.state = State::Warm(value.encode(ctx), None);
            Counters::add(&self.counters.demotions_warm, 1);
        }
    }

    /// Where a session run into `entry` folds: its live value, or, on a
    /// demoted entry, its parked runs (counted), so a flush never pays a
    /// decode.
    pub(crate) fn target<'e, V: Rung>(
        &self,
        entry: &'e mut Entry<V>,
    ) -> Result<&'e mut V, &'e mut Option<V::Parked>> {
        match &mut entry.state {
            State::Live(value) => Ok(value),
            State::Warm(_, parked) | State::Cold(_, parked) => {
                Counters::add(&self.counters.parked_deltas, 1);
                Err(parked)
            }
        }
    }

    /// One walk over every entry of `core`, one shard write lock at a
    /// time. `visit` sees each live value first (a window's rotation);
    /// then an entry idle at clock value `now` past a threshold steps
    /// one rung down: live → warm after `warm_after` ticks, warm → cold
    /// after `cold_after` with a spill store. A warm entry's parked runs
    /// settle into its bytes before they leave memory, so the bytes on
    /// disk hold every flushed run. Each shard's cold bytes go to the
    /// segment file in one write; if it fails, they all stay warm.
    /// Returns `(to_warm, to_cold)`.
    pub(crate) fn sweep<V: Rung>(
        &self,
        core: &KeyedCore<Entry<V>>,
        now: u64,
        ctx: V::Ctx,
        mut visit: impl FnMut(&mut V),
    ) -> (usize, usize) {
        let due = |threshold: Option<u64>, idle| threshold.is_some_and(|t| idle >= t);
        let (mut to_warm, mut to_cold) = (0, 0);
        let mut batch = Vec::new();
        for si in 0..core.shard_count() {
            let mut table = core.write(si);
            // Warm entries bound for the segment file with their byte
            // lengths; the bytes lie back to back in `batch`.
            let mut to_spill = Vec::new();
            batch.clear();
            for entry in table.values_mut() {
                // ordering: Relaxed — idle-age read under the shard write
                // lock, which orders it after every stamp written under the
                // read lock (release of read → acquire of write). A stale
                // stamp only delays demotion by one sweep. See
                // CONCURRENCY.md § "Tier demote vs promote".
                let idle = now.saturating_sub(entry.touched.load(Ordering::Relaxed));
                match &mut entry.state {
                    State::Live(value) => {
                        visit(value);
                        if due(self.tiers.warm_threshold(), idle) {
                            self.demote(entry, ctx);
                            to_warm += 1;
                        }
                    }
                    State::Warm(bytes, parked)
                        if self.spill.is_some() && due(self.tiers.cold_threshold(), idle) =>
                    {
                        settle::<V>(bytes, parked, ctx);
                        batch.extend_from_slice(bytes);
                        let len = u32::try_from(bytes.len()).expect("payloads stay below 4 GiB");
                        to_spill.push((entry, len));
                    }
                    _ => {}
                }
            }
            let Some(spill) = self.spill.as_ref().filter(|_| !to_spill.is_empty()) else {
                continue;
            };
            let mut appended = spill.append(&batch);
            for (entry, len) in to_spill {
                match &mut appended {
                    Ok((segment, offset)) => {
                        let (segment, offset) = (
                            *segment,
                            std::mem::replace(offset, *offset + u64::from(len)),
                        );
                        entry.state = State::Cold(
                            Spilled {
                                segment,
                                len,
                                offset,
                            },
                            None,
                        );
                        to_cold += 1;
                        Counters::add(&self.counters.demotions_cold, 1);
                    }
                    // Stay warm; the bytes are still safe in memory.
                    Err(_) => Counters::add(&self.counters.spill_errors, 1),
                }
            }
        }
        (to_warm, to_cold)
    }

    /// [`Ladder::sweep`] with nothing to visit; free without thresholds.
    pub(crate) fn demote_idle<V: Rung>(
        &self,
        core: &KeyedCore<Entry<V>>,
        now: u64,
        ctx: V::Ctx,
    ) -> (usize, usize) {
        if !self.tiers.is_enabled() {
            return (0, 0);
        }
        self.sweep(core, now, ctx, |_| {})
    }

    /// Revives every entry `which` picks; returns how many. With every
    /// demoted entry, this is `promote_all`; with every entry holding
    /// parked runs, the flat store's snapshot settle, so its payloads
    /// hold every flushed run.
    pub(crate) fn promote_all<V: Rung>(
        &self,
        core: &KeyedCore<Entry<V>>,
        ctx: V::Ctx,
        which: impl Fn(&Entry<V>) -> bool,
    ) -> usize {
        let mut n = 0;
        core.for_each_mut(|entry| {
            if entry.value().is_none() && which(entry) {
                self.live(entry, ctx);
                n += 1;
            }
        });
        n
    }

    /// Folds every warm entry's parked runs into its bytes, leaving it
    /// warm: the window snapshot's settle, so warm bytes travel
    /// verbatim.
    pub(crate) fn settle_parked<V: Rung>(&self, core: &KeyedCore<Entry<V>>, ctx: V::Ctx) {
        core.for_each_mut(|entry| {
            if let State::Warm(bytes, parked) = &mut entry.state {
                settle::<V>(bytes, parked, ctx);
            }
        });
    }

    /// Tier occupancy and transition counters, with `resident_bytes` as
    /// the store measured it.
    pub(crate) fn tier_stats<V: Rung>(
        &self,
        core: &KeyedCore<Entry<V>>,
        resident_bytes: usize,
    ) -> TierStats {
        let c = &self.counters;
        let mut stats = TierStats {
            demotions_warm: Counters::get(&c.demotions_warm),
            demotions_cold: Counters::get(&c.demotions_cold),
            promotions: Counters::get(&c.promotions),
            parked_deltas: Counters::get(&c.parked_deltas),
            spill_errors: Counters::get(&c.spill_errors),
            spilled_bytes: self.spill.as_ref().map_or(0, SpillStore::spilled_bytes),
            resident_bytes,
            ..TierStats::default()
        };
        core.for_each(|_, entry| match entry.tier() {
            Tier::Hot => stats.hot_keys += 1,
            Tier::Sparse => stats.sparse_keys += 1,
            Tier::Warm => stats.warm_keys += 1,
            Tier::Cold => stats.cold_keys += 1,
        });
        stats
    }
}

/// The relaxed counters of both stores: tier transitions, and the
/// window's suffix-cache effectiveness.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) demotions_warm: AtomicU64,
    pub(crate) demotions_cold: AtomicU64,
    pub(crate) promotions: AtomicU64,
    pub(crate) parked_deltas: AtomicU64,
    pub(crate) spill_errors: AtomicU64,
    pub(crate) suffix_hits: AtomicU64,
    pub(crate) lazy_rebuilds: AtomicU64,
    pub(crate) suffix_entries_built: AtomicU64,
    pub(crate) dirty_invalidations: AtomicU64,
}

impl Counters {
    pub(crate) fn add(cell: &AtomicU64, n: u64) {
        // ordering: Relaxed — monitoring counter, no data published.
        cell.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn get(cell: &AtomicU64) -> u64 {
        // ordering: Relaxed — monitoring read; each counter is
        // independently approximate, a snapshot need not be a
        // consistent cut.
        cell.load(Ordering::Relaxed)
    }
}

/// Name of the (single, append-only) segment file inside the spill
/// directory. A `(segment, offset, length)` index entry addresses into
/// it; the `segment` number is reserved for future multi-segment
/// rollover and is always 0 today.
const SEGMENT_FILE: &str = "ell-spill-000000.seg";

/// The append-only on-disk byte store behind the cold tier. One
/// segment file, created lazily on the first spill; reads seek into it
/// under the same lock, so the handle is shared safely across threads.
///
/// The file is opened `O_APPEND`, so every write lands at the file's
/// current end. Other stores or processes may share the spill directory
/// and append to the same file, so a batch's offset is read from the
/// handle's position after the write, never predicted from a length
/// this store tracks itself.
#[derive(Debug)]
pub(crate) struct SpillStore {
    dir: PathBuf,
    inner: Mutex<SpillInner>,
}

#[derive(Debug, Default)]
struct SpillInner {
    file: Option<File>,
    /// Bytes this store has appended.
    appended: u64,
}

impl SpillStore {
    pub(crate) fn new(dir: PathBuf) -> Self {
        SpillStore {
            dir,
            inner: Mutex::new(SpillInner::default()),
        }
    }

    /// Appends `batch` (one or more records back to back) to the
    /// segment file in one write, returning the segment and the offset
    /// the batch starts at; a record's address is that offset plus the
    /// lengths of the records before it. A failed write truncates the
    /// file back to where it began, so no partial batch stays behind.
    pub(crate) fn append(&self, batch: &[u8]) -> std::io::Result<(u32, u64)> {
        let mut inner = self.inner.lock().expect("spill lock poisoned");
        if inner.file.is_none() {
            std::fs::create_dir_all(&self.dir)?;
            let path = self.dir.join(SEGMENT_FILE);
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .read(true)
                .open(path)?;
            inner.file = Some(file);
        }
        let file = inner.file.as_mut().expect("opened above");
        // Only a failed write needs where the file ended before it.
        let start = file.seek(SeekFrom::End(0))?;
        if let Err(err) = file.write_all(batch) {
            // Best effort: the write error is the one worth reporting.
            let _ = file.set_len(start);
            return Err(err);
        }
        let offset = file.stream_position()? - batch.len() as u64;
        inner.appended += batch.len() as u64;
        Ok((0, offset))
    }

    /// Reads the `len` bytes at `offset` back (the `segment` number is
    /// part of the address for forward compatibility; only segment 0
    /// exists).
    pub(crate) fn read(&self, segment: u32, offset: u64, len: u32) -> std::io::Result<Vec<u8>> {
        debug_assert_eq!(segment, 0, "only segment 0 is written today");
        let mut inner = self.inner.lock().expect("spill lock poisoned");
        let file = inner.file.as_mut().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "cold entry indexed but no segment file was ever written",
            )
        })?;
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len as usize];
        file.read_exact(&mut buf)?;
        Ok(buf)
    }

    /// Total bytes this store has appended to the segment file.
    pub(crate) fn spilled_bytes(&self) -> u64 {
        self.inner.lock().expect("spill lock poisoned").appended
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_thresholds() {
        let cfg = TierConfig::new();
        assert!(!cfg.is_enabled());
        let cfg = cfg.warm_after(3).cold_after(9).spill_dir("/tmp/x");
        assert!(cfg.is_enabled());
        assert_eq!(cfg.warm_threshold(), Some(3));
        assert_eq!(cfg.cold_threshold(), Some(9));
        assert_eq!(cfg.spill_directory(), Some(Path::new("/tmp/x")));
    }

    #[test]
    fn spill_roundtrips_appended_payloads() {
        let dir = std::env::temp_dir().join(format!("ell-spill-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spill = SpillStore::new(dir.clone());
        let (seg_a, off_a) = spill.append(b"alpha-payload").unwrap();
        let (_, off_b) = spill.append(b"beta").unwrap();
        assert_eq!((seg_a, off_a), (0, 0));
        assert_eq!(off_b, 13);
        assert_eq!(spill.read(0, off_a, 13).unwrap(), b"alpha-payload");
        assert_eq!(spill.read(0, off_b, 4).unwrap(), b"beta");
        assert_eq!(spill.spilled_bytes(), 17);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stores_sharing_a_directory_index_their_own_bytes() {
        let dir = std::env::temp_dir().join(format!("ell-spill-shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = SpillStore::new(dir.clone());
        let b = SpillStore::new(dir.clone());
        let first = a.append(b"first-from-a").unwrap();
        let second = b.append(b"second-from-b").unwrap();
        let third = a.append(b"third-from-a").unwrap();
        // A batch of two records from `b`, addressed from where it began.
        let batch = b.append(b"fourth-from-bfifth-from-b").unwrap();
        let sixth = a.append(b"sixth-from-a").unwrap();
        assert_eq!(a.read(first.0, first.1, 12).unwrap(), b"first-from-a");
        assert_eq!(b.read(second.0, second.1, 13).unwrap(), b"second-from-b");
        assert_eq!(a.read(third.0, third.1, 12).unwrap(), b"third-from-a");
        assert_eq!(b.read(batch.0, batch.1, 13).unwrap(), b"fourth-from-b");
        assert_eq!(b.read(batch.0, batch.1 + 13, 12).unwrap(), b"fifth-from-b");
        assert_eq!(a.read(sixth.0, sixth.1, 12).unwrap(), b"sixth-from-a");
        assert_eq!(a.spilled_bytes(), 36);
        assert_eq!(b.spilled_bytes(), 38);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reading_without_a_segment_fails_cleanly() {
        let spill = SpillStore::new(std::env::temp_dir().join("ell-spill-never-written"));
        assert!(spill.read(0, 0, 4).is_err());
    }
}
