//! Multithreaded store laws: any partition of a keyed workload over any
//! number of ingest threads — through the shared-slot path or through
//! buffered sessions with arbitrary flush timing — must produce
//! bit-for-bit the same store snapshot, and snapshot→restore must
//! reproduce every per-key estimate exactly.
//!
//! The thread counts exercised default to `[2, 4, 8]`; the CI stress job
//! overrides them via `ELL_STRESS_THREADS` (a comma-separated list, e.g.
//! `ELL_STRESS_THREADS=8,16`) to push past the default runner
//! parallelism.

use ell_sim::workload::{key_label, KeyedStream};
use ell_store::{EllStore, WindowedStore};
use exaloglog::EllConfig;
use std::collections::{HashMap, HashSet};

fn workload(events: usize, seed: u64) -> Vec<(String, u64)> {
    KeyedStream::new(200, 1.0, 50_000, seed)
        .take(events)
        .map(|e| (key_label(e.key), e.hash))
        .collect()
}

/// Thread counts to stress, from `ELL_STRESS_THREADS` or `[2, 4, 8]`.
fn stress_threads() -> Vec<usize> {
    match std::env::var("ELL_STRESS_THREADS") {
        Ok(spec) => spec
            .split(',')
            .map(|part| {
                part.trim()
                    .parse()
                    .expect("ELL_STRESS_THREADS must be a comma-separated list of thread counts")
            })
            .collect(),
        Err(_) => vec![2, 4, 8],
    }
}

/// Deliberately tiny: the `sanitizers` CI job runs `cargo test smoke`
/// under ThreadSanitizer and Miri, where every access is instrumented.
/// Two racing sessions plus a demote sweep over a small workload cover
/// the shard-lock flush and tier protocols the full-size
/// tests stress at scale.
#[test]
fn smoke_sessions_race_demote_sweep() {
    let store = EllStore::new(2, EllConfig::new(2, 16, 4).unwrap()).unwrap();
    let events = workload(300, 99);
    let (left, right) = events.split_at(events.len() / 2);
    std::thread::scope(|scope| {
        for part in [left, right] {
            let store = &store;
            scope.spawn(move || {
                let mut session = store.session().with_auto_flush(16);
                for (key, hash) in part {
                    session.insert(key, *hash);
                }
            });
        }
        let store = &store;
        scope.spawn(move || {
            store.advance_clock(1);
            store.demote_idle()
        });
    });

    let reference = EllStore::new(2, EllConfig::new(2, 16, 4).unwrap()).unwrap();
    for (key, hash) in &events {
        reference.insert(key, *hash);
    }
    for key in reference.keys() {
        assert_eq!(
            store.estimate(&key),
            reference.estimate(&key),
            "key {key} diverged under racing sessions + demote"
        );
    }
}

fn ingest_with_threads(events: &[(String, u64)], threads: usize) -> EllStore {
    let store = EllStore::new(8, EllConfig::new(2, 16, 6).unwrap()).unwrap();
    let chunk = events.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for part in events.chunks(chunk) {
            let store = &store;
            scope.spawn(move || {
                // Sub-batch to exercise repeated grouped ingest calls.
                for block in part.chunks(512) {
                    let refs: Vec<(&str, u64)> =
                        block.iter().map(|(k, h)| (k.as_str(), *h)).collect();
                    store.ingest(&refs);
                }
            });
        }
    });
    store
}

#[test]
fn snapshot_is_independent_of_thread_count() {
    let events = workload(120_000, 42);
    let single = ingest_with_threads(&events, 1);
    let reference = single.snapshot_bytes();
    for threads in stress_threads() {
        let store = ingest_with_threads(&events, threads);
        assert_eq!(
            store.snapshot_bytes(),
            reference,
            "{threads}-thread ingest diverged from single-threaded state"
        );
    }
    // The Zipf head must have been promoted onto the atomic hot path.
    assert_eq!(single.is_hot(&key_label(0)), Some(true));
}

/// Session ingest across real threads: each thread buffers into its own
/// log with a *different* auto-flush threshold (so flush points fall at
/// different, contention-dependent moments) and the flushes take each
/// shard's lock in whatever order they reach it — yet the quiesced
/// snapshot must equal the single-threaded direct path, bit for bit, at
/// every stress thread count.
#[test]
fn session_flush_timing_is_invisible_in_the_snapshot() {
    let events = workload(120_000, 21);
    let reference = {
        let store = EllStore::new(8, EllConfig::new(2, 16, 6).unwrap()).unwrap();
        let refs: Vec<(&str, u64)> = events.iter().map(|(k, h)| (k.as_str(), *h)).collect();
        store.ingest(&refs);
        store.snapshot_bytes()
    };
    for threads in stress_threads() {
        let store = EllStore::new(8, EllConfig::new(2, 16, 6).unwrap()).unwrap();
        let chunk = events.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, part) in events.chunks(chunk).enumerate() {
                let store = &store;
                scope.spawn(move || {
                    // Prime-ish spread of thresholds: forces many
                    // differently-timed auto-flushes per thread.
                    let mut session = store.session().with_auto_flush(257 + 97 * t);
                    for (key, hash) in part {
                        session.insert(key, *hash);
                    }
                });
            }
        });
        assert_eq!(
            store.snapshot_bytes(),
            reference,
            "{threads}-thread session ingest diverged from direct sequential state"
        );
    }
}

/// Windowed session ingest across real threads, epochs partitioned
/// arbitrarily (not phased): threads race each other through epoch
/// advances and flush deltas before and after rotation of their target
/// epochs. The quiesced snapshot must still equal sequential ingest at
/// every stress thread count — rotation folds live slots into retired
/// exactly as a late flush would have.
#[test]
fn window_session_flush_timing_is_invisible_in_the_snapshot() {
    // 30k events over 12 epochs with a 4-epoch ring: epochs 0..8 rotate
    // out along the way.
    let events = workload(30_000, 33);
    let stream: Vec<(u64, String, u64)> = events
        .iter()
        .enumerate()
        .map(|(i, (k, h))| ((i / 2_500) as u64, k.clone(), *h))
        .collect();
    let cfg = EllConfig::new(2, 16, 6).unwrap();
    let reference = {
        let store = WindowedStore::new(8, cfg, 4).unwrap();
        for (epoch, key, hash) in &stream {
            store.insert(key, *epoch, *hash);
        }
        store.snapshot_bytes()
    };
    for threads in stress_threads() {
        let store = WindowedStore::new(8, cfg, 4).unwrap();
        let chunk = stream.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, part) in stream.chunks(chunk).enumerate() {
                let store = &store;
                scope.spawn(move || {
                    let mut session = store.session().with_auto_flush(129 + 61 * t);
                    for (epoch, key, hash) in part {
                        session.insert(key, *epoch, *hash);
                    }
                });
            }
        });
        // Quiesce the window at the same final position (contiguous
        // chunking means the last thread carries the newest epoch, but
        // make it explicit and thread-count-independent).
        store.advance(11);
        assert_eq!(
            store.snapshot_bytes(),
            reference,
            "{threads}-thread windowed session ingest diverged from sequential state"
        );
    }
}

#[test]
fn estimates_track_exact_per_key_counts_under_concurrency() {
    let events = workload(150_000, 7);
    let mut exact: HashMap<&str, HashSet<u64>> = HashMap::new();
    for (k, h) in &events {
        exact.entry(k.as_str()).or_default().insert(*h);
    }
    let store = ingest_with_threads(&events, 4);
    assert_eq!(store.key_count(), exact.len());
    for (key, set) in &exact {
        let est = store.estimate(key).unwrap();
        let n = set.len() as f64;
        // p = 6 gives a coarse sketch (~9 % RMSE dense); sparse keys are
        // near-exact.
        assert!(
            (est / n - 1.0).abs() < 0.45,
            "{key}: estimate {est} vs exact {n}"
        );
    }
    let union: HashSet<u64> = events.iter().map(|(_, h)| *h).collect();
    let merged = store.merged_estimate();
    assert!(
        (merged / union.len() as f64 - 1.0).abs() < 0.2,
        "merged {merged} vs union {}",
        union.len()
    );
}

#[test]
fn roundtrip_preserves_estimates_bit_for_bit() {
    let events = workload(80_000, 99);
    let store = ingest_with_threads(&events, 4);
    let restored = EllStore::from_snapshot_bytes(&store.snapshot_bytes()).unwrap();
    let before = store.estimates();
    let after = restored.estimates();
    assert_eq!(before.len(), after.len());
    for ((ka, ea), (kb, eb)) in before.iter().zip(after.iter()) {
        assert_eq!(ka, kb);
        assert_eq!(
            ea.to_bits(),
            eb.to_bits(),
            "{ka}: estimate changed across snapshot/restore"
        );
    }
    // Restored stores keep ingesting identically: feed both the same
    // extra events and compare snapshots.
    let extra = workload(20_000, 123);
    let refs: Vec<(&str, u64)> = extra.iter().map(|(k, h)| (k.as_str(), *h)).collect();
    store.ingest(&refs);
    restored.ingest(&refs);
    assert_eq!(store.snapshot_bytes(), restored.snapshot_bytes());
}

#[test]
fn hot_slot_snapshot_taken_mid_ingest_roundtrips_byte_identically() {
    // A snapshot captured *while* other threads hammer a Slot::Hot key's
    // atomic registers is a valid point-in-time state: restoring it and
    // re-snapshotting must reproduce the captured bytes exactly, and the
    // restored key must re-derive its hot eligibility.
    let store = EllStore::new(4, EllConfig::new(2, 16, 6).unwrap()).unwrap();
    // Promote one key past break-even so it sits on the atomic path.
    let warmup = workload(60_000, 5);
    let refs: Vec<(&str, u64)> = warmup.iter().map(|(k, h)| (k.as_str(), *h)).collect();
    store.ingest(&refs);
    assert_eq!(store.is_hot(&key_label(0)), Some(true));

    let extra = workload(60_000, 6);
    let mut snapshots: Vec<Vec<u8>> = Vec::new();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for block in extra.chunks(512) {
                let refs: Vec<(&str, u64)> = block.iter().map(|(k, h)| (k.as_str(), *h)).collect();
                store.ingest(&refs);
            }
        });
        // Snapshot repeatedly while the writer is (probably) mid-flight.
        for _ in 0..8 {
            snapshots.push(store.snapshot_bytes());
        }
        writer.join().unwrap();
    });
    snapshots.push(store.snapshot_bytes()); // quiesced final state too
    for (i, bytes) in snapshots.iter().enumerate() {
        let restored = EllStore::from_snapshot_bytes(bytes).unwrap();
        assert_eq!(
            &restored.snapshot_bytes(),
            bytes,
            "snapshot {i}: restore → re-snapshot is not byte-identical"
        );
        assert_eq!(
            restored.is_hot(&key_label(0)),
            Some(true),
            "snapshot {i}: hot eligibility was not re-derived"
        );
    }
}
