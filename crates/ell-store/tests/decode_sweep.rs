//! Hostile snapshot bytes must never panic a decoder.
//!
//! A small `ELLK` snapshot (sparse, dense and warm keys) and a small
//! `ELLW` snapshot (live and warm entries) are fed to
//! `from_snapshot_bytes` under every single-bit flip and every
//! truncation. Each mutation must either be rejected with `Err`, or
//! restore a store that then survives `promote_all()` and every query
//! without a panic: a warm entry revives from bytes the restore accepted,
//! so whatever restore lets through, revival must be able to decode.

use ell_hash::SplitMix64;
use ell_store::{EllStore, Tier, TierConfig, WindowedStore};
use exaloglog::EllConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Few registers, so the snapshots stay a few hundred bytes and the
/// sweep runs thousands of decodes in a debug build within seconds.
fn cfg() -> EllConfig {
    EllConfig::new(2, 16, 4).unwrap()
}

/// Every single-bit flip and every proper truncation of `bytes`.
fn mutations(bytes: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let flips = (0..bytes.len() * 8).map(move |bit| {
        let mut bad = bytes.to_vec();
        bad[bit / 8] ^= 1 << (bit % 8);
        (format!("bit {bit} flipped"), bad)
    });
    let cuts =
        (0..bytes.len()).map(move |len| (format!("cut to {len} bytes"), bytes[..len].to_vec()));
    flips.chain(cuts)
}

/// Decodes every mutation of `snapshot` with `decode`, which restores
/// and, on success, queries the store. Returns how many restored.
fn sweep(snapshot: &[u8], decode: impl Fn(&[u8]) -> bool) -> usize {
    let mut accepted = 0;
    for (what, bad) in mutations(snapshot) {
        let outcome = catch_unwind(AssertUnwindSafe(|| decode(&bad)));
        match outcome {
            Ok(restored) => accepted += usize::from(restored),
            Err(_) => panic!("{what}: the decoder or a later query panicked"),
        }
    }
    accepted
}

#[test]
fn no_flat_snapshot_mutation_panics() {
    let mut store = EllStore::new(2, cfg()).unwrap();
    store.set_tier_config(TierConfig::new().warm_after(1));
    let mut rng = SplitMix64::new(71);
    for (key, n) in [("warm-dense", 200), ("warm-sparse", 3)] {
        let batch: Vec<(&str, u64)> = (0..n).map(|_| (key, rng.next_u64())).collect();
        store.ingest(&batch);
    }
    store.tick();
    assert_eq!(store.demote_idle(), (2, 0));
    for (key, n) in [("dense", 200), ("sparse", 3)] {
        let batch: Vec<(&str, u64)> = (0..n).map(|_| (key, rng.next_u64())).collect();
        store.ingest(&batch);
    }
    let tiers = ["dense", "sparse", "warm-dense", "warm-sparse"].map(|key| store.key_tier(key));
    assert_eq!(
        tiers.map(Option::unwrap),
        [Tier::Hot, Tier::Sparse, Tier::Warm, Tier::Warm]
    );
    let snapshot = store.snapshot_bytes();
    let accepted = sweep(&snapshot, |bad| {
        let Ok(restored) = EllStore::from_snapshot_bytes(bad) else {
            return false;
        };
        restored.promote_all();
        for key in restored.keys() {
            let _ = restored.estimate(&key);
        }
        let _ = restored.merged_estimate();
        let _ = restored.snapshot_bytes();
        true
    });
    // Not a bound, a sanity check: flips inside payload registers and
    // key bytes do restore.
    assert!(accepted > 0);
}

#[test]
fn no_window_snapshot_mutation_panics() {
    let mut store = WindowedStore::new(2, cfg(), 2).unwrap();
    store.set_warm_after(Some(1));
    let mut rng = SplitMix64::new(73);
    for epoch in 0..3u64 {
        let batch: Vec<(&str, u64)> = (0..40).map(|_| ("idle", rng.next_u64())).collect();
        store.ingest(epoch, &batch);
    }
    store.ingest(5, &[("live", 1), ("live", 2)]);
    store.demote_idle();
    let stats = store.tier_stats();
    assert_eq!((stats.hot_keys, stats.warm_keys), (1, 1));
    let snapshot = store.snapshot_bytes();
    let accepted = sweep(&snapshot, |bad| {
        let Ok(restored) = WindowedStore::from_snapshot_bytes(bad) else {
            return false;
        };
        restored.promote_all();
        for key in restored.keys() {
            for k in 1..=restored.epoch_window() {
                let _ = restored.estimate_window(&key, k);
            }
            let _ = restored.estimate_all_time(&key);
        }
        let _ = restored.snapshot_bytes();
        true
    });
    assert!(accepted > 0);
}
