//! The `ELLW` windowed-store snapshot format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "ELLW"            magic (4 bytes)
//! version           u8, currently 2 (version 1 is still read)
//! t, d, p           u8 × 3 — the per-epoch sketch configuration
//! epochs            u32 — ring capacity E
//! shards            u32 — shard count (power of two)
//! current epoch     u64
//! entry count       u64
//! entries, sorted by key:
//!   key length      u32, then the UTF-8 key bytes
//!   tier            u8 — 0 = live, 1 = warm (absent in version 1:
//!                   every v1 entry is live)
//!   live entries:
//!     retired length  u32, then the retired union as `ELL1` (length 0
//!                     encodes an empty sketch without a payload)
//!     E ring slots, in slot-index order, each:
//!       slot length   u32, then the slot as `ELL1` (0 = empty)
//!   warm entries:
//!     retired length  u32, then the retired union as `ELLZ` (0 = empty)
//!     slot count      u32, then per nonempty slot, in epoch order:
//!       epoch         u64
//!       slot length   u32, then the slot as `ELLZ`
//! ```
//!
//! Entries are written in key order, empty sketches compress to a zero
//! length, and every live payload is the canonical `ELL1` serialization,
//! so equal windowed states produce equal snapshot bytes regardless of
//! ingest threading — and every payload deserializes with a live ML
//! coefficient cache, so a restored store reproduces every windowed
//! estimate bit-for-bit at cached speed. A warm ring's in-memory bytes
//! *are* a warm entry's body: a snapshot writes them **verbatim**
//! (parked session deltas are settled into them first), so snapshotting
//! never pays a dense round trip for demoted keys, restore places them
//! back as warm entries, and a restore → re-snapshot cycle reproduces
//! the identical bytes. Restore and revival read warm bodies with one
//! parser, [`read_warm_body`], so revival decodes nothing restore did
//! not accept.

use crate::tiers::Entry;
use crate::window::{WindowRing, WindowedStore};
use crate::wire::{
    check_payload_config, corrupt, corrupt_at, open, put_header, put_prefixed, Reader,
};
use exaloglog::compress::{compress, decompress};
use exaloglog::{EllConfig, EllError, ExaLogLog};

const MAGIC: &[u8; 4] = b"ELLW";
const VERSION: u8 = 2;
/// magic + version + (t, d, p) + epochs + shards + current + entry count.
const HEADER_LEN: usize = 4 + 1 + 3 + 4 + 4 + 8 + 8;
/// Plausibility bound on the header-declared ring size (the shard
/// count shares the `ELLK` bound). It only rejects absurd headers: a
/// live entry still materializes E dense slots out of as few as 4·E
/// bytes, an amplification this bound does not remove. Query scratches
/// are allocated per shard on first use, so an empty store allocates
/// no sketch however many shards its header declares.
const MAX_WIRE_EPOCHS: usize = 1 << 16;

const TIER_LIVE: u8 = 0;
const TIER_WARM: u8 = 1;

/// Appends a live sketch as `ELL1` behind its length (0 = empty).
fn push_sketch(out: &mut Vec<u8>, sketch: &ExaLogLog) {
    if sketch.is_empty() {
        out.extend_from_slice(&0u32.to_le_bytes());
    } else {
        put_prefixed(out, &sketch.to_bytes());
    }
}

/// A live entry's body: the tier byte, the retired union, then every
/// ring slot in slot order.
pub(crate) fn live_entry(retired: &ExaLogLog, slots: &[ExaLogLog]) -> Vec<u8> {
    let mut out = vec![TIER_LIVE];
    push_sketch(&mut out, retired);
    for slot in slots {
        push_sketch(&mut out, slot);
    }
    out
}

/// A warm entry's body: the tier byte, then the warm bytes verbatim.
pub(crate) fn warm_entry(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + bytes.len());
    out.push(TIER_WARM);
    out.extend_from_slice(bytes);
    out
}

/// A warm ring's bytes, laid out as a warm entry's body: the retired
/// union as `ELLZ` (length 0 when empty), then `(epoch, ELLZ)` per
/// nonempty slot, in epoch order.
pub(crate) fn encode_warm(retired: &ExaLogLog, slots: &[(u64, &ExaLogLog)]) -> Vec<u8> {
    let mut out = Vec::new();
    if retired.is_empty() {
        put_prefixed(&mut out, &[]);
    } else {
        put_prefixed(&mut out, &compress(retired));
    }
    let slot_count = u32::try_from(slots.len()).expect("slot count exceeds u32 wire field");
    out.extend_from_slice(&slot_count.to_le_bytes());
    for (epoch, sketch) in slots {
        out.extend_from_slice(&epoch.to_le_bytes());
        put_prefixed(&mut out, &compress(sketch));
    }
    out
}

/// Parses the warm entry body at the front of `bytes` for a ring of
/// `epochs` slots at window position `current`, handing each
/// decompressed sketch to `each`: the retired union first (epoch
/// `None`), then the slots in epoch order. Every payload must carry
/// `cfg` (checked before it is decoded) and decompress, and the slot
/// epochs must rise and not pass `current`. Returns the body's length.
pub(crate) fn read_warm_body(
    bytes: &[u8],
    cfg: &EllConfig,
    epochs: usize,
    current: u64,
    what: &dyn Fn() -> String,
    mut each: impl FnMut(Option<u64>, ExaLogLog),
) -> Result<usize, EllError> {
    let sketch = |payload: &[u8], at: &dyn Fn() -> String| {
        check_payload_config(payload, cfg, at)?;
        decompress(payload).map_err(|e| corrupt_at(at, e))
    };
    let mut r = Reader::at(bytes, 0);
    let retired = r.prefixed()?;
    if !retired.is_empty() {
        each(
            None,
            sketch(retired, &|| format!("{} warm retired union", what()))?,
        );
    }
    let slot_count = r.u32()?;
    if slot_count > epochs {
        return Err(corrupt(format!(
            "{}: {slot_count} warm slots exceed the ring size {epochs}",
            what()
        )));
    }
    let mut last_epoch = None;
    for s in 0..slot_count {
        let epoch = r.u64()?;
        if epoch > current || last_epoch.is_some_and(|prev| epoch <= prev) {
            return Err(corrupt(format!(
                "{}: warm slot {s} epoch {epoch} out of order or beyond current {current}",
                what()
            )));
        }
        last_epoch = Some(epoch);
        let at = || format!("{} warm slot {s}", what());
        let payload = r.prefixed()?;
        if payload.is_empty() {
            return Err(corrupt_at(at, "empty payload"));
        }
        each(Some(epoch), sketch(payload, &at)?);
    }
    Ok(bytes.len() - r.rest().len())
}

impl WindowedStore {
    /// Serializes the whole windowed store in the `ELLW` container
    /// format.
    ///
    /// The snapshot is a point-in-time copy taken shard by shard; for a
    /// transactionally consistent image, quiesce ingest and rotation
    /// first. Warm keys stay warm: their compressed payloads are
    /// embedded verbatim (after settling any parked session deltas).
    #[must_use]
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let entries = self.wire_entries();
        let mut out = Vec::with_capacity(HEADER_LEN + entries.len() * 64);
        put_header(&mut out, MAGIC, VERSION, self.config());
        let window =
            u32::try_from(self.epoch_window()).expect("epoch window exceeds u32 wire field");
        out.extend_from_slice(&window.to_le_bytes());
        let shards = u32::try_from(self.shard_count()).expect("shard count exceeds u32 wire field");
        out.extend_from_slice(&shards.to_le_bytes());
        out.extend_from_slice(&self.current_epoch().to_le_bytes());
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for (key, body) in &entries {
            put_prefixed(&mut out, key.as_bytes());
            out.extend_from_slice(body);
        }
        out
    }

    /// Restores a windowed store from [`WindowedStore::snapshot_bytes`]
    /// output, validating the header and every sketch payload. The
    /// restored store answers every windowed query bit-for-bit like the
    /// original and re-snapshots to identical bytes; warm entries come
    /// back warm, with their compressed payloads kept verbatim. Version
    /// 1 snapshots (written before the warm tier existed) restore too.
    ///
    /// # Errors
    ///
    /// Fails on any structural defect of the snapshot bytes.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, EllError> {
        let (version, cfg, mut r) = open(bytes, MAGIC, HEADER_LEN, 1..=VERSION)?;
        let epochs = r.u32()?;
        let shards = r.shards()?;
        let current = r.u64()?;
        let entry_count = r.u64()?;
        if epochs > MAX_WIRE_EPOCHS {
            return Err(corrupt(format!(
                "implausible epoch ring size {epochs} (limit {MAX_WIRE_EPOCHS})"
            )));
        }
        // Each entry carries at least a key length plus its smallest
        // possible body (v1: retired + E slot lengths; v2: a warm entry
        // with an empty retired union and zero slots) — bound the
        // declared count by what the snapshot could physically hold.
        let min_entry_bytes = if version == 1 {
            (4 + 4 + 4 * epochs) as u64
        } else {
            4 + 1 + 4 + 4
        };
        if entry_count > (bytes.len() as u64 - HEADER_LEN as u64) / min_entry_bytes.max(1) {
            return Err(corrupt(format!(
                "entry count {entry_count} cannot fit in {} payload bytes",
                bytes.len() - HEADER_LEN
            )));
        }
        let store = WindowedStore::new(shards, cfg, epochs)?;
        // Pins the window position while the store is empty: rotation has
        // nothing to fold, and the snapshot's rings are already rotated.
        store.advance(current);

        for i in 0..entry_count {
            let key = r.key(i)?;
            let what = || format!("entry {i} ({key:?})");
            let tier = if version == 1 {
                TIER_LIVE
            } else {
                r.take(1)?[0]
            };
            let entry = match tier {
                TIER_LIVE => {
                    // The retired union, then the E slots. Every payload's
                    // configuration is checked before any sketch is
                    // built, so a corrupted header cannot make an empty
                    // payload allocate a sketch of its configuration.
                    let payloads = (0..=epochs)
                        .map(|_| r.prefixed())
                        .collect::<Result<Vec<_>, _>>()?;
                    let at = |slot: usize| move || format!("{} payload {slot}", what());
                    for (slot, payload) in payloads.iter().enumerate() {
                        if !payload.is_empty() {
                            check_payload_config(payload, &cfg, at(slot))?;
                        }
                    }
                    let sketch = |(slot, payload): (usize, &&[u8])| match payload {
                        [] => Ok(ExaLogLog::new(cfg)),
                        _ => ExaLogLog::from_bytes(payload).map_err(|e| corrupt_at(at(slot), e)),
                    };
                    let mut sketches = payloads.iter().enumerate().map(sketch);
                    let retired = sketches.next().expect("E + 1 payloads")?;
                    let slots = sketches.collect::<Result<Vec<_>, _>>()?;
                    Entry::new(WindowRing::restored(retired, slots), current)
                }
                TIER_WARM => {
                    let body = r.rest();
                    let len = read_warm_body(body, &cfg, epochs, current, &what, |_, _| {})?;
                    r.take(len)?;
                    Entry::warm(body[..len].into(), current)
                }
                other => {
                    return Err(corrupt_at(what, format!("unknown tier byte {other}")));
                }
            };
            if !store.place(key, entry) {
                return Err(corrupt(format!("duplicate key {key:?}")));
            }
        }
        r.finish()?;
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ell_hash::SplitMix64;

    fn populated() -> WindowedStore {
        let store = WindowedStore::new(4, EllConfig::new(2, 16, 6).unwrap(), 3).unwrap();
        let mut rng = SplitMix64::new(11);
        for epoch in 0..5u64 {
            let batch: Vec<(String, u64)> = (0..600)
                .map(|i| (format!("key-{}", i % 5), rng.next_u64()))
                .collect();
            let refs: Vec<(&str, u64)> = batch.iter().map(|(k, h)| (k.as_str(), *h)).collect();
            store.ingest(epoch, &refs);
        }
        store
    }

    #[test]
    fn roundtrip_reproduces_every_windowed_estimate_bitwise() {
        let store = populated();
        let bytes = store.snapshot_bytes();
        let restored = WindowedStore::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.key_count(), store.key_count());
        assert_eq!(restored.shard_count(), store.shard_count());
        assert_eq!(restored.epoch_window(), store.epoch_window());
        assert_eq!(restored.current_epoch(), store.current_epoch());
        for key in store.keys() {
            for k in 1..=store.epoch_window() {
                assert_eq!(
                    store.estimate_window(&key, k).unwrap().to_bits(),
                    restored.estimate_window(&key, k).unwrap().to_bits(),
                    "{key}: window k={k} not bit-identical"
                );
            }
            assert_eq!(
                store.estimate_all_time(&key).unwrap().to_bits(),
                restored.estimate_all_time(&key).unwrap().to_bits(),
                "{key}: all-time estimate not bit-identical"
            );
        }
        // Re-snapshot is byte-identical (canonical form).
        assert_eq!(restored.snapshot_bytes(), bytes);
    }

    #[test]
    fn warm_entries_roundtrip_as_warm_without_a_dense_detour() {
        let mut store = WindowedStore::new(4, EllConfig::new(2, 16, 6).unwrap(), 3).unwrap();
        store.set_warm_after(Some(2));
        let mut rng = SplitMix64::new(17);
        for epoch in 0..4u64 {
            let batch: Vec<(String, u64)> = (0..800)
                .map(|i| (format!("key-{}", i % 4), rng.next_u64()))
                .collect();
            let refs: Vec<(&str, u64)> = batch.iter().map(|(k, h)| (k.as_str(), *h)).collect();
            store.ingest(epoch, &refs);
        }
        // Keep one key fresh while the rest go idle: advancing to 6
        // sweeps the idle rings warm (rotation doubles as the demotion
        // sweep), and the fresh ingest promotes key-0 right back.
        store.ingest(6, &[("key-0", 99)]);
        store.demote_idle();
        let stats = store.tier_stats();
        assert!(stats.warm_keys >= 1 && stats.hot_keys >= 1);

        let bytes = store.snapshot_bytes();
        let restored = WindowedStore::from_snapshot_bytes(&bytes).unwrap();
        // Warm keys came back warm…
        assert_eq!(restored.tier_stats().warm_keys, stats.warm_keys);
        // …and the re-snapshot reuses the identical compressed bytes.
        assert_eq!(restored.snapshot_bytes(), bytes);
        // Querying promotes and still reproduces every estimate
        // bit-for-bit against the original (which promotes too).
        for key in store.keys() {
            for k in 1..=store.epoch_window() {
                assert_eq!(
                    restored.estimate_window(&key, k).unwrap().to_bits(),
                    store.estimate_window(&key, k).unwrap().to_bits(),
                    "{key}: window k={k} diverged through the warm roundtrip"
                );
            }
        }
    }

    #[test]
    fn version_1_snapshots_still_restore() {
        // Hand-build a v1 snapshot (no tier bytes) of a tiny store and
        // check it restores into the current code.
        let store = populated();
        let entries = {
            // Promote everything so wire_entries yields only live rings.
            store.promote_all();
            store.wire_entries()
        };
        let cfg = *store.config();
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC);
        v1.push(1);
        v1.extend_from_slice(&[cfg.t(), cfg.d(), cfg.p()]);
        v1.extend_from_slice(&(store.epoch_window() as u32).to_le_bytes());
        v1.extend_from_slice(&(store.shard_count() as u32).to_le_bytes());
        v1.extend_from_slice(&store.current_epoch().to_le_bytes());
        v1.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for (key, body) in &entries {
            assert_eq!(body[0], TIER_LIVE, "promoted store has only live entries");
            v1.extend_from_slice(&(key.len() as u32).to_le_bytes());
            v1.extend_from_slice(key.as_bytes());
            // A v1 entry is a v2 live body without its tier byte.
            v1.extend_from_slice(&body[1..]);
        }
        let restored = WindowedStore::from_snapshot_bytes(&v1).unwrap();
        assert_eq!(restored.key_count(), store.key_count());
        for key in store.keys() {
            assert_eq!(
                restored.estimate_all_time(&key).unwrap().to_bits(),
                store.estimate_all_time(&key).unwrap().to_bits()
            );
        }
        // Re-serializing writes the current version.
        assert_eq!(restored.snapshot_bytes()[4], VERSION);
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = WindowedStore::new(16, EllConfig::optimal(8).unwrap(), 6).unwrap();
        let restored = WindowedStore::from_snapshot_bytes(&store.snapshot_bytes()).unwrap();
        assert!(restored.is_empty());
        assert_eq!(restored.config(), store.config());
        assert_eq!(restored.epoch_window(), 6);
        assert_eq!(restored.shard_count(), 16);
    }

    #[test]
    fn a_bare_header_does_not_allocate_per_shard_scratches() {
        // 32 bytes: p=12, 4096 shards, an 8-epoch ring, zero entries.
        let cfg = EllConfig::optimal(12).unwrap();
        let mut header = Vec::new();
        header.extend_from_slice(MAGIC);
        header.push(VERSION);
        header.extend_from_slice(&[cfg.t(), cfg.d(), cfg.p()]);
        header.extend_from_slice(&8u32.to_le_bytes());
        header.extend_from_slice(&4096u32.to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(header.len(), HEADER_LEN);
        let store = WindowedStore::from_snapshot_bytes(&header).unwrap();
        assert!(
            store.memory_bytes() < 2 << 20,
            "an empty store costs {} bytes",
            store.memory_bytes()
        );
    }

    #[test]
    fn corruption_is_rejected() {
        let store = populated();
        let bytes = store.snapshot_bytes();
        assert!(WindowedStore::from_snapshot_bytes(&bytes[..3]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 0xff; // magic
        assert!(WindowedStore::from_snapshot_bytes(&bad).is_err());
        let mut bad = bytes.clone();
        bad[4] = 9; // version
        assert!(WindowedStore::from_snapshot_bytes(&bad).is_err());
        // Truncated mid-entry.
        assert!(WindowedStore::from_snapshot_bytes(&bytes[..bytes.len() - 3]).is_err());
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.extend_from_slice(&[0, 1, 2]);
        assert!(WindowedStore::from_snapshot_bytes(&bad).is_err());
        // Bad epoch count in the header.
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(WindowedStore::from_snapshot_bytes(&bad).is_err());
        // Crafted headers must not force huge allocations: implausible
        // shard counts, ring sizes, and entry counts are rejected
        // before anything epoch- or shard-sized is allocated.
        let mut bad = bytes.clone();
        bad[12..16].copy_from_slice(&0x8000_0000u32.to_le_bytes()); // shards = 2^31
        assert!(WindowedStore::from_snapshot_bytes(&bad).is_err());
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes()); // epochs = 2^32 − 1
        assert!(WindowedStore::from_snapshot_bytes(&bad).is_err());
        let mut bad = bytes.clone();
        bad[24..32].copy_from_slice(&u64::MAX.to_le_bytes()); // entry count
        assert!(WindowedStore::from_snapshot_bytes(&bad).is_err());
        // A bogus tier byte on the first entry is rejected. The first
        // entry starts right after the header: key length, key, tier.
        let mut bad = bytes;
        let key_len =
            u32::from_le_bytes(bad[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap()) as usize;
        bad[HEADER_LEN + 4 + key_len] = 7;
        assert!(WindowedStore::from_snapshot_bytes(&bad).is_err());
    }
}
