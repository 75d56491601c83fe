//! The `ELLW` windowed-store snapshot format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "ELLW"            magic (4 bytes)
//! version           u8, currently 3 (versions 1 and 2 are still read)
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
//!     retired length  u32, then the retired union's payload (length 0
//!                     encodes an empty sketch without a payload)
//!     E ring slots, in slot-index order, each:
//!       slot length   u32, then the slot's payload (0 = empty)
//!   warm entries:
//!     retired length  u32, then the retired union's payload (0 = empty)
//!     slot count      u32, then per nonempty slot, in epoch order:
//!       epoch         u64
//!       slot length   u32, then the slot's payload
//! ```
//!
//! A payload is identified by its magic, as
//! [`AdaptiveExaLogLog::from_bytes`] does:
//!
//! * `ELLS` — a slot still below the §4.3 break-even, as its token set,
//!   in live and warm entries alike. Its token parameter must be the
//!   store's default `v = max(p + t, 26)`.
//! * `ELL1` — a dense slot in a live entry.
//! * `ELLZ` — a dense slot in a warm entry, range-coded.
//!
//! Any other payload — `ELLZ` in a live entry, `ELL1` in a warm one, an
//! `ELLS` payload holding registers — is rejected.
//!
//! Versions 1 and 2 predate sparse slots: their live payloads are all
//! `ELL1` and their warm ones all `ELLZ`, and a slot decoded from them
//! stays dense. Every payload's `(t, d, p)` must be the header's,
//! checked before it is decoded, and a ring must hold at least one
//! nonempty payload, as every key the store creates does.
//!
//! Entries are written in key order, empty sketches compress to a zero
//! length, and every live payload is the canonical serialization of its
//! slot, so equal windowed states produce equal snapshot bytes
//! regardless of ingest threading or of when slots were demoted and
//! revived. A warm ring's in-memory bytes *are* a warm entry's body: a
//! snapshot writes them **verbatim** (parked session deltas are settled
//! into them first), restore places them back as warm entries, and a
//! restore → re-snapshot cycle reproduces the identical bytes. Sparse
//! slots never touch the range coder on the way: demotion, settling,
//! restore and revival of a token set are token copies. Restore and
//! revival read warm bodies with one parser, [`read_warm_body`], which
//! at restore reads only the header of an `ELLZ` payload (its
//! range-coded body always decodes), so revival decodes nothing restore
//! did not accept.

use crate::tiers::Entry;
use crate::window::{WindowRing, WindowedStore};
use crate::wire::{
    check_payload_config, corrupt, corrupt_at, open, put_header, put_prefixed, Reader,
};
use exaloglog::adaptive::AdaptiveExaLogLog;
use exaloglog::compress::{check_header, compress, decompress};
use exaloglog::{EllConfig, EllError, ExaLogLog};

const MAGIC: &[u8; 4] = b"ELLW";
const VERSION: u8 = 3;
/// magic + version + (t, d, p) + epochs + shards + current + entry count.
const HEADER_LEN: usize = 4 + 1 + 3 + 4 + 4 + 8 + 8;
/// Plausibility bound on the header-declared ring size (the shard
/// count shares the `ELLK` bound). It only rejects absurd headers: a
/// live entry still builds E empty token sets of 56 bytes each out of
/// 4·E bytes of slot lengths. Query scratches are allocated per shard
/// on first use, so an empty store allocates no sketch however many
/// shards its header declares.
const MAX_WIRE_EPOCHS: usize = 1 << 16;

const TIER_LIVE: u8 = 0;
const TIER_WARM: u8 = 1;
/// The magic of a dense payload in a live entry and in a warm one.
const LIVE_DENSE: &[u8; 4] = b"ELL1";
const WARM_DENSE: &[u8; 4] = b"ELLZ";

/// Appends `sketch` behind its length: nothing when it is empty, its
/// `ELLS` token set while sparse, `dense` of its registers once
/// promoted.
fn push_sketch(out: &mut Vec<u8>, sketch: &AdaptiveExaLogLog, dense: fn(&ExaLogLog) -> Vec<u8>) {
    let payload = match sketch.as_dense() {
        _ if sketch.is_empty() => Vec::new(),
        Some(registers) => dense(registers),
        None => sketch.to_bytes(),
    };
    put_prefixed(out, &payload);
}

/// A live entry's body: the tier byte, the retired union, then every
/// ring slot in slot order; dense sketches as `ELL1`.
pub(crate) fn live_entry(retired: &AdaptiveExaLogLog, slots: &[AdaptiveExaLogLog]) -> Vec<u8> {
    let mut out = vec![TIER_LIVE];
    push_sketch(&mut out, retired, ExaLogLog::to_bytes);
    for slot in slots {
        push_sketch(&mut out, slot, ExaLogLog::to_bytes);
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
/// union (length 0 when empty), then `(epoch, payload)` per nonempty
/// slot, in epoch order; dense sketches as `ELLZ`.
pub(crate) fn encode_warm(
    retired: &AdaptiveExaLogLog,
    slots: &[(u64, &AdaptiveExaLogLog)],
) -> Vec<u8> {
    let mut out = Vec::new();
    push_sketch(&mut out, retired, compress);
    let slot_count = u32::try_from(slots.len()).expect("slot count exceeds u32 wire field");
    out.extend_from_slice(&slot_count.to_le_bytes());
    for (epoch, sketch) in slots {
        out.extend_from_slice(&epoch.to_le_bytes());
        push_sketch(&mut out, sketch, compress);
    }
    out
}

/// Decodes one nonempty payload of a store with configuration `cfg` by
/// its magic: `ELLS` to a token set, which must carry the store's token
/// parameter, and the entry's dense magic — `ELL1` in a live entry,
/// `ELLZ` in a warm one — to registers. Any other payload is rejected,
/// so every accepted payload is the one the writer would produce. The
/// configuration is checked before anything is decoded.
fn read_sketch(
    payload: &[u8],
    cfg: &EllConfig,
    dense: &[u8; 4],
    what: &dyn Fn() -> String,
) -> Result<AdaptiveExaLogLog, EllError> {
    check_payload_config(payload, cfg, what)?;
    let magic = &payload[..4];
    if magic != b"ELLS" {
        let registers = match magic {
            _ if magic != dense => Err(format!(
                "payload magic {:?} in an entry of {:?} and ELLS payloads",
                String::from_utf8_lossy(magic),
                String::from_utf8_lossy(dense)
            )),
            b"ELLZ" => decompress(payload).map_err(|e| e.to_string()),
            _ => ExaLogLog::from_bytes(payload).map_err(|e| e.to_string()),
        };
        return registers
            .map(AdaptiveExaLogLog::from_dense)
            .map_err(|e| corrupt_at(what, e));
    }
    let sketch = AdaptiveExaLogLog::from_bytes(payload).map_err(|e| corrupt_at(what, e))?;
    let v = AdaptiveExaLogLog::default_token_parameter(cfg);
    match sketch.token_parameter() {
        Some(found) if found == v => Ok(sketch),
        Some(found) => Err(corrupt_at(
            what,
            format!("token parameter {found} is not the store's {v}"),
        )),
        None => Err(corrupt_at(what, "an ELLS payload holds registers")),
    }
}

/// Parses the warm entry body at the front of `bytes` for a ring of
/// `epochs` slots at window position `current`: the retired union, then
/// the slots in epoch order. The body must hold at least one payload,
/// each must pass [`read_sketch`], and the slot epochs must rise and not
/// pass `current`. Returns the body's length.
///
/// With `each`, every decoded sketch is handed to it, the retired union
/// with epoch `None`. Without, the body is only checked, and an `ELLZ`
/// payload only by its header: its range-coded body always decodes
/// ([`check_header`]), so the same bodies are accepted either way.
pub(crate) fn read_warm_body(
    bytes: &[u8],
    cfg: &EllConfig,
    epochs: usize,
    current: u64,
    what: &dyn Fn() -> String,
    mut each: Option<&mut dyn FnMut(Option<u64>, AdaptiveExaLogLog)>,
) -> Result<usize, EllError> {
    let mut take = |epoch, payload: &[u8], at: &dyn Fn() -> String| match each.as_mut() {
        Some(each) => read_sketch(payload, cfg, WARM_DENSE, at).map(|sketch| each(epoch, sketch)),
        None if payload.starts_with(WARM_DENSE) => {
            check_payload_config(payload, cfg, at)?;
            check_header(payload)
                .map_err(|e| corrupt_at(at, e))
                .map(drop)
        }
        None => read_sketch(payload, cfg, WARM_DENSE, at).map(drop),
    };
    let mut r = Reader::at(bytes, 0);
    let retired = r.prefixed()?;
    if !retired.is_empty() {
        take(None, retired, &|| format!("{} warm retired union", what()))?;
    }
    let slot_count = r.u32()?;
    if slot_count > epochs {
        return Err(corrupt(format!(
            "{}: {slot_count} warm slots exceed the ring size {epochs}",
            what()
        )));
    }
    if slot_count == 0 && retired.is_empty() {
        return Err(corrupt_at(what, "a warm entry holds no element"));
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
        take(Some(epoch), payload, &at)?;
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
    /// back warm, with their payloads kept verbatim, and sparse slots
    /// come back sparse. Version 1 snapshots (written before the warm
    /// tier existed) and version 2 ones (before sparse slots) restore
    /// too.
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
                    // The retired union, then the E slots. An empty
                    // payload is an empty token set, which allocates
                    // nothing, and `read_sketch` checks every other
                    // payload's configuration before decoding it.
                    let payloads = (0..=epochs)
                        .map(|_| r.prefixed())
                        .collect::<Result<Vec<_>, _>>()?;
                    if payloads.iter().all(|payload| payload.is_empty()) {
                        return Err(corrupt_at(what, "a live entry holds no element"));
                    }
                    let sketch = |(slot, payload): (usize, &&[u8])| match payload {
                        [] => AdaptiveExaLogLog::new(cfg),
                        _ => {
                            let at = || format!("{} payload {slot}", what());
                            read_sketch(payload, &cfg, LIVE_DENSE, &at)
                        }
                    };
                    let mut sketches = payloads.iter().enumerate().map(sketch);
                    let retired = sketches.next().expect("E + 1 payloads")?;
                    let slots = sketches.collect::<Result<Vec<_>, _>>()?;
                    Entry::new(WindowRing::restored(retired, slots), current)
                }
                TIER_WARM => {
                    let body = r.rest();
                    let len = read_warm_body(body, &cfg, epochs, current, &what, None)?;
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

    /// A one-key, one-slot v3 snapshot whose slot is the token set of
    /// `hashes` under `v`, written with `cfg` into a store header of
    /// `header`.
    fn one_sparse_slot(header: EllConfig, cfg: EllConfig, v: u32) -> Vec<u8> {
        let mut slot = AdaptiveExaLogLog::with_token_parameter(cfg, v).unwrap();
        slot.insert_hashes(&[11, 22, 33]);
        let mut out = Vec::new();
        put_header(&mut out, MAGIC, VERSION, &header);
        out.extend_from_slice(&1u32.to_le_bytes()); // epochs
        out.extend_from_slice(&1u32.to_le_bytes()); // shards
        out.extend_from_slice(&0u64.to_le_bytes()); // current
        out.extend_from_slice(&1u64.to_le_bytes()); // entries
        put_prefixed(&mut out, b"k");
        out.extend_from_slice(&live_entry(
            &AdaptiveExaLogLog::new(header).unwrap(),
            &[slot],
        ));
        out
    }

    #[test]
    fn sparse_payloads_must_carry_the_store_parameters() {
        let cfg = EllConfig::new(2, 16, 6).unwrap();
        let v = AdaptiveExaLogLog::default_token_parameter(&cfg);
        let good = WindowedStore::from_snapshot_bytes(&one_sparse_slot(cfg, cfg, v)).unwrap();
        assert_eq!(good.estimate_window("k", 1).unwrap().round(), 3.0);
        // A token set of another (t, d, p)…
        let other = EllConfig::new(2, 16, 7).unwrap();
        let err = WindowedStore::from_snapshot_bytes(&one_sparse_slot(cfg, other, v));
        assert!(err.unwrap_err().to_string().contains("configuration"));
        // …or another token parameter is rejected, live or warm.
        let bytes = one_sparse_slot(cfg, cfg, v + 1);
        let err = WindowedStore::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("token parameter"), "{err}");
        let mut slot = AdaptiveExaLogLog::with_token_parameter(cfg, v + 1).unwrap();
        slot.insert_hash(5);
        let warm = encode_warm(&AdaptiveExaLogLog::new(cfg).unwrap(), &[(0, &slot)]);
        let read = read_warm_body(&warm, &cfg, 1, 0, &String::new, None);
        assert!(read.unwrap_err().to_string().contains("token parameter"));
    }

    #[test]
    fn dense_payloads_must_carry_their_entry_tier_magic() {
        let cfg = EllConfig::new(2, 16, 6).unwrap();
        let mut registers = ExaLogLog::new(cfg);
        registers.insert_hash(5);
        let mut promoted = AdaptiveExaLogLog::new(cfg).unwrap();
        promoted.insert_hash(5);
        promoted.promote();
        // `ELLZ` in a live entry…
        let mut live = vec![TIER_LIVE];
        put_prefixed(&mut live, &[]);
        put_prefixed(&mut live, &compress(&registers));
        let mut bytes = Vec::new();
        put_header(&mut bytes, MAGIC, VERSION, &cfg);
        for field in [1u32, 1] {
            bytes.extend_from_slice(&field.to_le_bytes()); // epochs, shards
        }
        for field in [0u64, 1] {
            bytes.extend_from_slice(&field.to_le_bytes()); // current, entries
        }
        put_prefixed(&mut bytes, b"k");
        bytes.extend_from_slice(&live);
        let err = WindowedStore::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("payload magic"), "{err}");
        // …`ELL1` in a warm one, and registers behind the `ELLS` magic.
        let mut warm = Vec::new();
        put_prefixed(&mut warm, &[]);
        warm.extend_from_slice(&1u32.to_le_bytes());
        warm.extend_from_slice(&0u64.to_le_bytes());
        put_prefixed(&mut warm, &registers.to_bytes());
        let read = read_warm_body(&warm, &cfg, 1, 0, &String::new, None);
        assert!(read.unwrap_err().to_string().contains("payload magic"));
        let mut legacy = b"ELLS".to_vec();
        legacy.extend_from_slice(&[2, 16, 6, 26, 1]);
        legacy.extend_from_slice(&registers.to_bytes());
        assert!(AdaptiveExaLogLog::from_bytes(&legacy).is_ok());
        let err = read_sketch(&legacy, &cfg, LIVE_DENSE, &String::new).unwrap_err();
        assert!(err.to_string().contains("holds registers"), "{err}");
        // The writer's own dense payloads pass.
        let ok = read_sketch(&registers.to_bytes(), &cfg, LIVE_DENSE, &String::new);
        assert_eq!(ok.unwrap(), promoted);
        let ok = read_sketch(&compress(&registers), &cfg, WARM_DENSE, &String::new);
        assert_eq!(ok.unwrap(), promoted);
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
