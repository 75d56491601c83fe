//! The `ELLK` whole-store snapshot format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "ELLK"            magic (4 bytes)
//! version           u8, currently 1
//! t, d, p           u8 × 3 — the per-key sketch configuration
//! v                 u8 — token parameter for new keys
//! shards            u32 — shard count (power of two)
//! entry count       u64
//! entries, sorted by key:
//!   key length      u32, then the UTF-8 key bytes
//!   sketch length   u32, then the sketch payload — the existing
//!                   per-sketch wire formats (`ELLS` sparse / `ELL1`
//!                   dense / compressed dense: `ELLR`, or `ELLZ` from
//!                   writers before `ELLR`), self-describing and
//!                   config-validated
//! ```
//!
//! Restore reads every payload through [`read_sketch`], as `ELLW`
//! restore does: an `ELLS` payload must carry the header's token
//! parameter `v`, so every sparse slot merges with the session deltas
//! the store creates; an `ELL1` payload is decoded in full; and a
//! compressed payload — whatever `compress::check_header` accepts — is
//! checked by its header only ([`check_compressed`]).
//!
//! Entries are written in key order; resident slots serialize in their
//! canonical form, while warm/cold slots embed their compressed payload
//! verbatim (no dense round trip — and restore places those entries
//! back as warm slots, so re-snapshotting a tiered store reuses the
//! identical bytes, `ELLZ` ones included until the key revives and is
//! demoted again as `ELLR`). Payloads are self-describing by magic, so
//! no version bump is needed for either compressed form.

use crate::store::EllStore;
use crate::tiers::Entry;
use exaloglog::adaptive::AdaptiveExaLogLog;
use exaloglog::compress::{check_header, decompress};
use exaloglog::{EllConfig, EllError, ExaLogLog};

const MAGIC: &[u8; 4] = b"ELLK";
const VERSION: u8 = 1;
/// magic + version + (t, d, p) + v + shards + entry count.
const HEADER_LEN: usize = 4 + 1 + 3 + 1 + 4 + 8;
/// Plausibility bound on the header-declared shard count: restore
/// allocates the shard table before reading payloads, so a crafted
/// header must not force a huge allocation out of a tiny snapshot.
const MAX_WIRE_SHARDS: usize = 1 << 16;

pub(crate) fn corrupt(reason: String) -> EllError {
    EllError::CorruptSerialization { reason }
}

/// A decode error for the payload `what` names. The name is built only
/// on this error path, so decoding a healthy snapshot formats nothing.
pub(crate) fn corrupt_at(what: impl FnOnce() -> String, err: impl core::fmt::Display) -> EllError {
    corrupt(format!("{}: {err}", what()))
}

/// Rejects a sketch payload whose configuration differs from the
/// header's *before* it is decoded. Every per-sketch format (`ELL1`,
/// `ELLS`, and the compressed ones) carries `(t, d, p)` at bytes 4..7, and its decoder
/// sizes the sketch from them, so a corrupted payload cannot make the
/// decoder allocate for a larger configuration. A payload that passes
/// decodes to the header configuration.
fn check_payload_config(
    payload: &[u8],
    header: &EllConfig,
    what: impl FnOnce() -> String,
) -> Result<(), EllError> {
    let Some(&[t, d, p]) = payload.get(4..7) else {
        return Err(corrupt_at(what, "payload shorter than its header"));
    };
    if [t, d, p] == [header.t(), header.d(), header.p()] {
        Ok(())
    } else {
        let err = format!("configuration ({t}, {d}, {p}) does not match header {header}");
        Err(corrupt_at(what, err))
    }
}

/// Checks a compressed payload of a store with configuration `cfg`
/// without decoding its body: its configuration, then its 16-byte
/// header. [`decompress`] fails exactly when [`check_header`] does (an
/// entropy-coded body always decodes), so a payload that passes here
/// decodes in [`read_sketch`] too.
pub(crate) fn check_compressed(
    payload: &[u8],
    cfg: &EllConfig,
    what: &dyn Fn() -> String,
) -> Result<(), EllError> {
    check_payload_config(payload, cfg, what)?;
    check_header(payload)
        .map(drop)
        .map_err(|e| corrupt_at(what, e))
}

/// The dense payloads an entry holds: `ELL1` registers in a live entry,
/// compressed ones — what [`check_header`] accepts — in a warm one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dense {
    Registers,
    Compressed,
}

/// Decodes one nonempty payload of a store with configuration `cfg` and
/// token parameter `v` by its magic: `ELLS` to a token set, which must
/// carry `v`, and the `dense` payloads of the entry to registers. Any
/// other payload is rejected, so every accepted payload is one the
/// writer produces, and every sketch a store holds merges with the ones
/// its sessions create. The configuration is checked before anything is
/// decoded.
pub(crate) fn read_sketch(
    payload: &[u8],
    cfg: &EllConfig,
    v: u32,
    dense: Dense,
    what: &dyn Fn() -> String,
) -> Result<AdaptiveExaLogLog, EllError> {
    check_payload_config(payload, cfg, what)?;
    let magic = &payload[..4];
    if magic != b"ELLS" {
        let registers = match dense {
            Dense::Registers if magic == b"ELL1" => {
                ExaLogLog::from_bytes(payload).map_err(|e| e.to_string())
            }
            Dense::Compressed if magic != b"ELL1" => decompress(payload).map_err(|e| e.to_string()),
            _ => Err(format!(
                "payload magic {:?} in an entry of {} and ELLS payloads",
                String::from_utf8_lossy(magic),
                match dense {
                    Dense::Registers => "ELL1",
                    Dense::Compressed => "compressed",
                }
            )),
        };
        return registers
            .map(AdaptiveExaLogLog::from_dense)
            .map_err(|e| corrupt_at(what, e));
    }
    let sketch = AdaptiveExaLogLog::from_bytes(payload).map_err(|e| corrupt_at(what, e))?;
    match sketch.token_parameter() {
        Some(found) if found == v => Ok(sketch),
        Some(found) => Err(corrupt_at(
            what,
            format!("token parameter {found} is not the store's {v}"),
        )),
        None => Err(corrupt_at(what, "an ELLS payload holds registers")),
    }
}

/// Writes the header prefix both formats share: magic, version, and
/// the `(t, d, p)` sketch configuration.
pub(crate) fn put_header(out: &mut Vec<u8>, magic: &[u8; 4], version: u8, cfg: &EllConfig) {
    out.extend_from_slice(magic);
    out.push(version);
    out.extend_from_slice(&[cfg.t(), cfg.d(), cfg.p()]);
}

/// Checks a snapshot's length against `header_len`, its magic, and its
/// version against `versions`; returns the version, the sketch
/// configuration, and a reader positioned after them.
pub(crate) fn open<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    header_len: usize,
    versions: core::ops::RangeInclusive<u8>,
) -> Result<(u8, EllConfig, Reader<'a>), EllError> {
    if bytes.len() < header_len {
        return Err(corrupt(format!(
            "{} bytes is shorter than the {} header",
            bytes.len(),
            String::from_utf8_lossy(magic)
        )));
    }
    if &bytes[..4] != magic {
        return Err(corrupt("bad magic".into()));
    }
    let version = bytes[4];
    if !versions.contains(&version) {
        return Err(corrupt(format!("unsupported snapshot version {version}")));
    }
    let cfg = EllConfig::new(bytes[5], bytes[6], bytes[7])?;
    Ok((version, cfg, Reader::at(bytes, 8)))
}

/// Appends `bytes` behind its `u32` length prefix.
pub(crate) fn put_prefixed(out: &mut Vec<u8>, bytes: &[u8]) {
    let len = u32::try_from(bytes.len()).expect("length exceeds u32 wire field");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(bytes);
}

/// A bounds-checked little-endian cursor over snapshot bytes, shared by
/// the `ELLK` and `ELLW` decoders: every read either stays inside the
/// input or fails with a corruption error.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at offset `pos` of `bytes`.
    pub(crate) fn at(bytes: &'a [u8], pos: usize) -> Self {
        Reader { bytes, pos }
    }

    pub(crate) fn take(&mut self, len: usize) -> Result<&'a [u8], EllError> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or_else(|| corrupt("entry length overflows the snapshot".into()))?;
        if end > self.bytes.len() {
            return Err(corrupt(format!(
                "entry at offset {} runs past the end ({len} bytes needed)",
                self.pos
            )));
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u32(&mut self) -> Result<usize, EllError> {
        let raw = self.take(4)?;
        Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")) as usize)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, EllError> {
        let raw = self.take(8)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    /// The header-declared shard count, bounded by [`MAX_WIRE_SHARDS`].
    pub(crate) fn shards(&mut self) -> Result<usize, EllError> {
        let shards = self.u32()?;
        if shards > MAX_WIRE_SHARDS {
            return Err(corrupt(format!(
                "implausible shard count {shards} (limit {MAX_WIRE_SHARDS})"
            )));
        }
        Ok(shards)
    }

    /// A `u32`-length-prefixed byte string.
    pub(crate) fn prefixed(&mut self) -> Result<&'a [u8], EllError> {
        let len = self.u32()?;
        self.take(len)
    }

    /// A length-prefixed UTF-8 key.
    pub(crate) fn key(&mut self, entry: u64) -> Result<&'a str, EllError> {
        let raw = self.prefixed()?;
        core::str::from_utf8(raw)
            .map_err(|e| corrupt(format!("entry {entry}: key is not UTF-8: {e}")))
    }

    /// The bytes not read yet.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    /// Succeeds only when every byte has been consumed.
    pub(crate) fn finish(&self) -> Result<(), EllError> {
        match self.bytes.len() - self.pos {
            0 => Ok(()),
            rest => Err(corrupt(format!(
                "{rest} trailing bytes after the last entry"
            ))),
        }
    }
}

impl EllStore {
    /// Serializes the whole store in the `ELLK` container format.
    ///
    /// The snapshot is a point-in-time copy taken shard by shard; for a
    /// transactionally consistent image, quiesce ingest first (entries
    /// ingested concurrently may or may not be included).
    #[must_use]
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let entries = self.snapshot_payloads();
        let mut out = Vec::with_capacity(HEADER_LEN + entries.len() * 64);
        put_header(&mut out, MAGIC, VERSION, self.config());
        out.push(self.token_parameter() as u8); // cast: v ≤ 58 by construction (checked in with_token_parameter)
        let shards = u32::try_from(self.shard_count()).expect("shard count exceeds u32 wire field");
        out.extend_from_slice(&shards.to_le_bytes());
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for (key, payload) in &entries {
            put_prefixed(&mut out, key.as_bytes());
            put_prefixed(&mut out, payload);
        }
        out
    }

    /// Restores a store from [`EllStore::snapshot_bytes`] output,
    /// validating the header, each entry's configuration against the
    /// header before decoding it, and every entry payload. A restored
    /// store serves (and re-snapshots) exactly like the original.
    ///
    /// # Errors
    ///
    /// Fails on any structural defect of the snapshot bytes.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, EllError> {
        let (_, cfg, mut r) = open(bytes, MAGIC, HEADER_LEN, VERSION..=VERSION)?;
        let v = u32::from(r.take(1)?[0]);
        let shards = r.shards()?;
        let entry_count = r.u64()?;
        let store = EllStore::with_token_parameter(shards, cfg, v)?;

        for i in 0..entry_count {
            let key = r.key(i)?;
            let payload = r.prefixed()?;
            let what = || format!("entry {i} ({key:?})");
            // A restored store's access clock starts at 0.
            let slot = if check_header(payload).is_ok() {
                // A warm entry: check its header, then keep the
                // compressed payload as a warm slot — a re-snapshot
                // reuses it verbatim.
                check_compressed(payload, &cfg, &what)?;
                Entry::warm(payload.into(), 0)
            } else {
                let sketch = read_sketch(payload, &cfg, v, Dense::Registers, &what)?;
                Entry::new(Box::new(sketch), 0)
            };
            let placed = store.place(key, slot);
            if !placed {
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

    fn populated() -> EllStore {
        let store = EllStore::new(4, EllConfig::new(2, 16, 6).unwrap()).unwrap();
        let mut rng = SplitMix64::new(11);
        for i in 0..40u64 {
            let key = format!("key-{}", i % 5);
            store.insert(&key, rng.next_u64());
        }
        // One hot key past break-even.
        let batch: Vec<(&str, u64)> = (0..40_000).map(|_| ("hot", rng.next_u64())).collect();
        store.ingest(&batch);
        store
    }

    #[test]
    fn roundtrip_reproduces_every_estimate_bitwise() {
        let store = populated();
        let bytes = store.snapshot_bytes();
        let restored = EllStore::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.key_count(), store.key_count());
        assert_eq!(restored.shard_count(), store.shard_count());
        assert_eq!(restored.token_parameter(), store.token_parameter());
        for ((ka, ea), (kb, eb)) in store.estimates().iter().zip(restored.estimates().iter()) {
            assert_eq!(ka, kb);
            assert_eq!(
                ea.to_bits(),
                eb.to_bits(),
                "{ka}: estimate not bit-identical"
            );
        }
        // Re-snapshot is byte-identical (canonical form).
        assert_eq!(restored.snapshot_bytes(), bytes);
        // Hot-path eligibility is re-derived.
        assert_eq!(restored.is_hot("hot"), Some(true));
    }

    #[test]
    fn snapshot_while_warm_restores_warm_and_resnapshots_identically() {
        let mut store = EllStore::new(4, EllConfig::new(2, 16, 6).unwrap()).unwrap();
        store.set_tier_config(crate::TierConfig::new().warm_after(1));
        let mut rng = SplitMix64::new(12);
        let batch: Vec<(&str, u64)> = (0..30_000).map(|_| ("idle", rng.next_u64())).collect();
        store.ingest(&batch);
        store.insert("busy", 77);
        store.tick();
        store.insert("busy", 78);
        store.demote_idle();
        assert_eq!(store.key_tier("idle"), Some(crate::Tier::Warm));

        let bytes = store.snapshot_bytes();
        // Snapshotting reused the compressed payload without promoting.
        assert_eq!(store.key_tier("idle"), Some(crate::Tier::Warm));
        let restored = EllStore::from_snapshot_bytes(&bytes).unwrap();
        // The compressed entry came back as a warm slot…
        assert_eq!(restored.key_tier("idle"), Some(crate::Tier::Warm));
        // …so the re-snapshot is byte-identical without any re-encode.
        assert_eq!(restored.snapshot_bytes(), bytes);
        // And the estimates still match a fully promoted twin bitwise.
        assert_eq!(
            restored.estimate("idle").unwrap().to_bits(),
            store.estimate("idle").unwrap().to_bits()
        );
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = EllStore::new(16, EllConfig::optimal(8).unwrap()).unwrap();
        let restored = EllStore::from_snapshot_bytes(&store.snapshot_bytes()).unwrap();
        assert!(restored.is_empty());
        assert_eq!(restored.config(), store.config());
        assert_eq!(restored.shard_count(), 16);
    }

    #[test]
    fn a_repeated_key_is_rejected() {
        let store = EllStore::new(4, EllConfig::new(2, 16, 6).unwrap()).unwrap();
        store.insert("twice", 1);
        let bytes = store.snapshot_bytes();
        assert!(EllStore::from_snapshot_bytes(&bytes).is_ok());
        // The one entry written twice, and counted twice.
        let mut bad = bytes.clone();
        bad.extend_from_slice(&bytes[HEADER_LEN..]);
        bad[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&2u64.to_le_bytes());
        let err = EllStore::from_snapshot_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("duplicate key"), "{err}");
    }

    #[test]
    fn corruption_is_rejected() {
        let store = populated();
        let bytes = store.snapshot_bytes();
        assert!(EllStore::from_snapshot_bytes(&bytes[..3]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 0xff; // magic
        assert!(EllStore::from_snapshot_bytes(&bad).is_err());
        let mut bad = bytes.clone();
        bad[4] = 9; // version
        assert!(EllStore::from_snapshot_bytes(&bad).is_err());
        // Truncated mid-entry.
        assert!(EllStore::from_snapshot_bytes(&bytes[..bytes.len() - 3]).is_err());
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.extend_from_slice(&[0, 1, 2]);
        assert!(EllStore::from_snapshot_bytes(&bad).is_err());
        // An implausible shard count must be rejected before the shard
        // table is allocated.
        let mut bad = bytes;
        bad[9..13].copy_from_slice(&0x8000_0000u32.to_le_bytes());
        assert!(EllStore::from_snapshot_bytes(&bad).is_err());
    }
}
