//! Windowed-store bytes are canonical.
//!
//! * The same `(key, epoch, hash)` events, delivered through any mix of
//!   direct ingest, buffered sessions with any flush points, and
//!   demote/revive or snapshot/restore cycles, give identical `ELLW`
//!   bytes once every ring is live, and bit-identical estimates. Slots
//!   hold token sets until the §4.3 break-even and registers after it,
//!   and the small precision here puts the break-even at 12 tokens, so
//!   slots, retired unions and parked deltas cross it at different
//!   points in different mixes.
//! * Snapshots written by the version 1 and version 2 writers, before
//!   slots could be sparse (`tests/fixtures/ellw_v*_estimates.bin`),
//!   restore to the estimates the same events give today.

use ell_hash::{mix64, SplitMix64};
use ell_store::WindowedStore;
use exaloglog::EllConfig;
use proptest::prelude::*;

/// Every trailing-window and all-time estimate of every key, as bits.
fn estimates(store: &WindowedStore) -> Vec<(String, Vec<u64>)> {
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

/// The store the fixtures were written from: six keys of mixed sizes,
/// late events into sealed and retired epochs, and one key demoted
/// warm (in the version 2 fixture; the version 1 one is all live).
fn fixture_store() -> WindowedStore {
    let mut store = WindowedStore::new(4, EllConfig::new(2, 16, 6).unwrap(), 3).unwrap();
    store.set_warm_after(Some(2));
    let mut rng = SplitMix64::new(2026);
    for epoch in 0..7u64 {
        let mut batch: Vec<(String, u64)> = Vec::new();
        for key in 0..6u64 {
            // Keys 4 and 5 go quiet after epoch 2.
            if key >= 4 && epoch > 2 {
                continue;
            }
            let n = 1 + rng.next_u64() % [3, 20, 60, 150][key as usize % 4];
            for _ in 0..n {
                batch.push((format!("key-{key}"), rng.next_u64()));
            }
        }
        let refs: Vec<(&str, u64)> = batch.iter().map(|(k, h)| (k.as_str(), *h)).collect();
        store.ingest(epoch, &refs);
        // Late events: one sealed epoch, one retired.
        for (key, back) in [(1u64, 1u64), (2, 4), (5, 2)] {
            let late = epoch.saturating_sub(back);
            let hashes: Vec<u64> = (0..1 + rng.next_u64() % 8)
                .map(|_| rng.next_u64())
                .collect();
            let name = format!("key-{key}");
            let refs: Vec<(&str, u64)> = hashes.iter().map(|h| (name.as_str(), *h)).collect();
            store.ingest(late, &refs);
        }
    }
    store.demote_idle();
    store
}

#[test]
fn version_1_and_2_fixtures_restore_to_todays_estimates() {
    let today = fixture_store();
    let expected = estimates(&today);
    for (version, bytes) in [
        (1, &include_bytes!("fixtures/ellw_v1_estimates.bin")[..]),
        (2, &include_bytes!("fixtures/ellw_v2_estimates.bin")[..]),
    ] {
        assert_eq!(bytes[4], version);
        let restored = WindowedStore::from_snapshot_bytes(bytes).unwrap();
        assert_eq!(restored.current_epoch(), today.current_epoch());
        if version == 2 {
            assert_eq!(restored.tier_stats().warm_keys, 1);
        }
        assert_eq!(estimates(&restored), expected, "version {version}");
        // Re-snapshotting writes the current version, which restores to
        // the same estimates again.
        let again = WindowedStore::from_snapshot_bytes(&restored.snapshot_bytes()).unwrap();
        assert_eq!(again.snapshot_bytes()[4], 3);
        assert_eq!(estimates(&again), expected, "version {version}, rewritten");
    }
}

/// One step's events: `(epoch, key, hash)`, every epoch at most `step`.
fn step_events(rng: &mut SplitMix64, step: u64, sizes: &[usize]) -> Vec<(u64, String, u64)> {
    let mut events = Vec::new();
    for (key, &n) in sizes.iter().enumerate() {
        for _ in 0..n {
            // A fifth of the events are late, some past the ring.
            let back = match rng.next_u64() % 10 {
                0 => 1,
                1 => 4,
                _ => 0,
            };
            let hash = mix64(rng.next_u64() % 200 + 1000 * key as u64);
            events.push((step.saturating_sub(back), format!("key-{key}"), hash));
        }
    }
    events
}

/// Delivers `events` by `how`: 0 grouped direct ingest, 1 one direct
/// insert per event, 2 a session flushing every `flush` hashes, 3 a
/// session flushed by hand halfway and dropped.
fn deliver(store: &WindowedStore, events: &[(u64, String, u64)], how: u8, flush: usize) {
    match how {
        0 => {
            let mut epochs: Vec<u64> = events.iter().map(|(e, _, _)| *e).collect();
            epochs.sort_unstable();
            epochs.dedup();
            // Newest epoch first: older batches are then late.
            for epoch in epochs.into_iter().rev() {
                let batch: Vec<(&str, u64)> = events
                    .iter()
                    .filter(|(e, _, _)| *e == epoch)
                    .map(|(_, k, h)| (k.as_str(), *h))
                    .collect();
                store.ingest(epoch, &batch);
            }
        }
        1 => {
            for (epoch, key, hash) in events {
                store.insert(key, *epoch, *hash);
            }
        }
        2 => {
            let mut session = store.session().with_auto_flush(flush);
            for (epoch, key, hash) in events {
                session.insert(key, *epoch, *hash);
            }
        }
        _ => {
            let mut session = store.session();
            for (i, (epoch, key, hash)) in events.iter().enumerate() {
                session.insert(key, *epoch, *hash);
                if i == events.len() / 2 {
                    session.flush();
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_delivery_mix_gives_identical_bytes_and_estimates(
        p in 4u8..7,
        epochs in 2usize..5,
        steps in prop::collection::vec(
            (prop::collection::vec(0usize..24, 4), 0u8..4, 1usize..40, 0u8..5, any::<u64>()),
            2..8,
        ),
        warm_after in 0u64..3,
        seed in any::<u64>(),
    ) {
        let cfg = EllConfig::new(2, 16, p).unwrap();
        let reference = WindowedStore::new(4, cfg, epochs).unwrap();
        let mut subject = WindowedStore::new(4, cfg, epochs).unwrap();
        subject.set_warm_after(Some(warm_after));
        let mut rng = SplitMix64::new(seed);
        for (step, (sizes, how, flush, cycle, split)) in steps.iter().enumerate() {
            let step = step as u64;
            let events = step_events(&mut rng, step, sizes);
            // The reference takes each step as one grouped ingest after
            // an explicit advance.
            reference.advance(step);
            deliver(&reference, &events, 0, 0);
            // The subject takes it in two parts, by `how` and the next
            // way round, with a residency change between them.
            let (first, second) = events.split_at((*split as usize) % (events.len() + 1));
            deliver(&subject, first, *how, *flush);
            match cycle {
                0 => {}
                1 => {
                    subject.demote_idle();
                }
                2 => {
                    subject.promote_all();
                }
                3 => {
                    subject = WindowedStore::from_snapshot_bytes(&subject.snapshot_bytes()).unwrap();
                    subject.set_warm_after(Some(warm_after));
                }
                _ => subject.advance(step),
            }
            deliver(&subject, second, (*how + 1) % 4, *flush);
            subject.advance(step);
            subject.demote_idle();
        }
        prop_assert_eq!(estimates(&subject), estimates(&reference));
        subject.promote_all();
        let bytes = reference.snapshot_bytes();
        prop_assert_eq!(subject.snapshot_bytes(), bytes.clone());
        // The bytes are a fixed point of restore.
        let restored = WindowedStore::from_snapshot_bytes(&bytes).unwrap();
        prop_assert_eq!(restored.snapshot_bytes(), bytes);
    }
}
