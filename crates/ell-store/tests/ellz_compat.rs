//! Snapshots written before `ELLR`, whose warm dense payloads are the
//! legacy range-coded `ELLZ`, still restore.
//!
//! The last `ELLZ` writer wrote `tests/fixtures/ellk_ellz.bin` (an
//! `ELLK` snapshot of sparse and dense live keys beside warm sparse and
//! warm `ELLZ` keys) and `tests/fixtures/ellw_v3_ellz.bin` (a version 3
//! `ELLW` snapshot whose warm entries hold dense `ELLZ` slots), and the
//! estimates that store answered beside each (`*_estimates.txt`: a key,
//! then the bits of each estimate in hex). Each snapshot must restore,
//! answer those estimates bit-identically before and after
//! `promote_all`, and once its keys revive and demote again, snapshot
//! their dense payloads as `ELLR`.

use ell_store::{EllStore, TierConfig, WindowedStore};

fn count(bytes: &[u8], magic: &[u8]) -> usize {
    bytes.windows(4).filter(|w| *w == magic).count()
}

/// The recorded estimates: per key, the estimate bits.
fn recorded(text: &str) -> Vec<(String, Vec<u64>)> {
    text.lines()
        .map(|line| {
            let mut fields = line.split('\t');
            let key = fields.next().unwrap().to_string();
            let bits = fields.map(|f| u64::from_str_radix(f, 16).unwrap());
            (key, bits.collect())
        })
        .collect()
}

fn flat_estimates(store: &EllStore) -> Vec<(String, Vec<u64>)> {
    store
        .keys()
        .into_iter()
        .map(|key| {
            let bits = store.estimate(&key).unwrap().to_bits();
            (key, vec![bits])
        })
        .collect()
}

/// Every trailing-window and the all-time estimate of every key.
fn window_estimates(store: &WindowedStore) -> Vec<(String, Vec<u64>)> {
    store
        .keys()
        .into_iter()
        .map(|key| {
            let mut bits: Vec<u64> = (1..=store.epoch_window())
                .map(|k| store.estimate_window(&key, k).unwrap().to_bits())
                .collect();
            bits.push(store.estimate_all_time(&key).unwrap().to_bits());
            (key, bits)
        })
        .collect()
}

#[test]
fn an_ellk_snapshot_of_ellz_payloads_restores_and_rewrites_as_ellr() {
    let bytes = include_bytes!("fixtures/ellk_ellz.bin");
    assert_eq!((count(bytes, b"ELLZ"), count(bytes, b"ELLR")), (2, 0));
    let expected = recorded(include_str!("fixtures/ellk_ellz_estimates.txt"));
    let mut store = EllStore::from_snapshot_bytes(bytes).unwrap();
    // The two `ELLZ` entries come back warm; the warm sparse key's
    // `ELLS` payload restores live, as it always has.
    assert_eq!(store.tier_stats().warm_keys, 2);
    // Warm payloads are kept verbatim, so an untouched store writes the
    // snapshot it was read from.
    assert_eq!(store.snapshot_bytes(), bytes);
    assert_eq!(flat_estimates(&store), expected);
    store.promote_all();
    assert_eq!(store.tier_stats().warm_keys, 0);
    assert_eq!(flat_estimates(&store), expected);
    // Revived keys demote through today's writer.
    store.set_tier_config(TierConfig::new().warm_after(1));
    store.tick();
    store.demote_idle();
    let again = store.snapshot_bytes();
    assert_eq!((count(&again, b"ELLZ"), count(&again, b"ELLR")), (0, 3));
    let restored = EllStore::from_snapshot_bytes(&again).unwrap();
    assert_eq!(restored.tier_stats().warm_keys, 3);
    assert_eq!(flat_estimates(&restored), expected);
}

#[test]
fn an_ellw_v3_snapshot_of_ellz_slots_restores_and_rewrites_as_ellr() {
    let bytes = include_bytes!("fixtures/ellw_v3_ellz.bin");
    assert_eq!(bytes[4], 3, "a version 3 snapshot");
    assert_eq!((count(bytes, b"ELLZ"), count(bytes, b"ELLR")), (2, 0));
    let expected = recorded(include_str!("fixtures/ellw_v3_ellz_estimates.txt"));
    let mut store = WindowedStore::from_snapshot_bytes(bytes).unwrap();
    assert_eq!(store.tier_stats().warm_keys, 2);
    assert_eq!(store.snapshot_bytes(), bytes);
    assert_eq!(window_estimates(&store), expected);
    store.promote_all();
    assert_eq!(store.tier_stats().warm_keys, 0);
    assert_eq!(window_estimates(&store), expected);
    // One epoch later every ring is idle and demotes through today's
    // writer.
    store.set_warm_after(Some(1));
    store.advance(store.current_epoch() + 1);
    store.demote_idle();
    assert_eq!(store.tier_stats().warm_keys, 3);
    let again = store.snapshot_bytes();
    // Revival folded the warm key's two dense slots into its retired
    // union: one dense payload.
    assert_eq!((count(&again, b"ELLZ"), count(&again, b"ELLR")), (0, 1));
    let restored = WindowedStore::from_snapshot_bytes(&again).unwrap();
    assert_eq!(window_estimates(&restored), window_estimates(&store));
}
