//! Tiered key residency: configuration, statistics, and the cold-spill
//! segment store.
//!
//! The keyed store keeps every counter in one of four residency tiers:
//!
//! ```text
//!            ingest/query (promote)                ingest/query (promote)
//!          ┌───────────────────────┐             ┌──────────────────────┐
//!          ▼                       │             ▼                      │
//!  Sparse/Hot ──(idle ≥ warm_after)──▶ Warm ──(idle ≥ cold_after)──▶ Cold
//!  in-memory sketch                 compressed bytes             on-disk segment
//!  (tokens / registers)             (ELLZ / ELLS)                + in-memory index
//! ```
//!
//! Demotion is driven by a store-level **access clock**: every
//! ingest or per-key query stamps the slot with the current clock value,
//! [`EllStore::tick`](crate::EllStore::tick) advances the clock, and
//! [`EllStore::demote_idle`](crate::EllStore::demote_idle) sweeps slots
//! whose idle age (`clock − stamp`) crosses the configured thresholds.
//! Promotion is transparent: any direct ingest or per-key estimate on a
//! warm/cold key rebuilds the in-memory sketch (merging any session
//! deltas parked on it) before proceeding. Because register merge is
//! monotone, commutative and idempotent, a store that demoted and
//! promoted keys in any order holds *bit-identical* per-key states to a
//! store that never tiered at all.

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
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

/// Relaxed transition counters shared by the flat and windowed stores.
#[derive(Debug, Default)]
pub(crate) struct TierCounters {
    pub(crate) demotions_warm: AtomicU64,
    pub(crate) demotions_cold: AtomicU64,
    pub(crate) promotions: AtomicU64,
    pub(crate) parked_deltas: AtomicU64,
    pub(crate) spill_errors: AtomicU64,
}

impl TierCounters {
    pub(crate) fn count(cell: &AtomicU64) {
        // ordering: Relaxed — monitoring counter, no data published.
        cell.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn get(cell: &AtomicU64) -> u64 {
        // ordering: Relaxed — monitoring read; approximate by design.
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
