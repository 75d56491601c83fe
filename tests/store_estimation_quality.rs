//! The keyed stores' paths against theory, not only against each other.
//! Every path a key's observations can take through an `EllStore` —
//! sparse tokens, the sparse→dense promotion, a dense resident sketch,
//! warm and cold revival, a session flush — must estimate a known
//! cardinality with the bias and RMSE that `theory::predicted_rmse`
//! gives for the store's dense configuration. So must every trailing
//! window and the all-time union of a `WindowedStore` key, whether its
//! ring stayed live, was revived from warm by a query, took late events
//! into sealed epochs, or took a session flush parked on its warm ring.
//! The twin-store suites check that the paths agree bit for bit; this
//! checks that what they agree on is right. Each key is one independent
//! run of a p = 6 sketch.

use ell_hash::SplitMix64;
use ell_sim::ErrorAccumulator;
use ell_store::{AdaptiveExaLogLog, EllStore, Tier, TierConfig, WindowedStore};
use exaloglog::theory::{predicted_rmse, Estimator};
use exaloglog::EllConfig;

/// Keys (independent runs) per path.
const KEYS: usize = 300;
/// Distinct elements per dense key: far past m = 64, where the ML
/// estimator's error has settled at its asymptotic prediction.
const DENSE_N: usize = 4_000;

fn cfg() -> EllConfig {
    EllConfig::optimal(6).unwrap()
}

fn store() -> EllStore {
    EllStore::new(8, cfg()).unwrap()
}

fn key(path: &str, i: usize) -> String {
    format!("{path}-{i}")
}

/// `n` random hashes: distinct with overwhelming probability, so the
/// true cardinality is `n`.
fn stream(rng: &mut SplitMix64, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.next_u64()).collect()
}

fn ingest(store: &EllStore, key: &str, hashes: &[u64]) {
    let batch: Vec<(&str, u64)> = hashes.iter().map(|&h| (key, h)).collect();
    store.ingest(&batch);
}

/// Which side of the RMSE band a path must land in.
#[derive(Clone, Copy)]
enum Band {
    /// Within the band around the prediction: the asymptotic regime.
    Around,
    /// At most the band's upper edge: sparse and just-promoted keys
    /// hold fewer elements than registers, where the estimate is more
    /// precise than the asymptotic prediction.
    AtMost,
}

/// Checks the per-key relative errors of `store` (true counts in
/// `truth`) against the dense ML prediction (see [`assert_errors`]).
fn assert_matches_theory(path: &str, store: &EllStore, truth: &[(String, usize)], band: Band) {
    let estimates = truth
        .iter()
        .map(|(key, n)| (store.estimate(key).unwrap(), *n));
    assert_errors(path, estimates, band);
}

/// Checks `(estimate, true count)` pairs, one per independent run,
/// against the dense ML prediction with the sample-size band of
/// `tests/estimation_quality.rs`: RMSE within ±(10 % + 4/√(2·runs)) of
/// the prediction, and bias within 3·prediction/√runs + 0.002. A run
/// whose true count is 0 must estimate exactly 0.
fn assert_errors(path: &str, estimates: impl Iterator<Item = (f64, usize)>, band: Band) {
    let mut errors = ErrorAccumulator::new();
    let mut runs = 0u64;
    for (estimate, n) in estimates {
        if n == 0 {
            assert_eq!(
                estimate, 0.0,
                "{path}: an empty window estimates {estimate}"
            );
        } else {
            errors.record(estimate, n as f64);
            runs += 1;
        }
    }
    if runs == 0 {
        return;
    }
    assert_eq!(errors.count(), runs, "{path}: non-finite estimates");
    let runs = runs as f64;
    let predicted = predicted_rmse(&cfg(), Estimator::MaximumLikelihood);
    let tolerance = 0.10 + 4.0 / (2.0 * runs).sqrt();
    let (bias, rmse) = (errors.bias(), errors.rmse());
    let in_band = match band {
        Band::Around => (rmse / predicted - 1.0).abs() < tolerance,
        Band::AtMost => rmse < predicted * (1.0 + tolerance),
    };
    assert!(
        in_band,
        "{path}: rmse {rmse:.4} vs theory {predicted:.4} (tolerance {tolerance:.3})"
    );
    assert!(
        bias.abs() < 3.0 * predicted / runs.sqrt() + 0.002,
        "{path}: bias {bias:+.4}"
    );
}

fn assert_tier(store: &EllStore, truth: &[(String, usize)], tier: Tier) {
    for (key, _) in truth {
        assert_eq!(store.key_tier(key), Some(tier), "{key}");
    }
}

#[test]
fn sparse_keys_match_theory() {
    let store = store();
    let mut rng = SplitMix64::new(0x5EA1);
    let truth: Vec<(String, usize)> = (0..KEYS).map(|i| (key("sparse", i), 5 + i % 30)).collect();
    for (key, n) in &truth {
        ingest(&store, key, &stream(&mut rng, *n));
    }
    assert_tier(&store, &truth, Tier::Sparse);
    assert_matches_theory("sparse", &store, &truth, Band::AtMost);
}

#[test]
fn keys_at_the_promotion_boundary_match_theory() {
    let store = store();
    // The token count at which a key's sketch goes dense.
    let mut probe =
        AdaptiveExaLogLog::with_token_parameter(cfg(), store.token_parameter()).unwrap();
    let mut rng = SplitMix64::new(0xB0);
    let mut break_even = 0;
    while probe.is_sparse() {
        probe.insert_hash(rng.next_u64());
        break_even += 1;
    }
    // Half the keys stop one element short of break-even, half land
    // on it or one past it; each key crosses in single inserts.
    let truth: Vec<(String, usize)> = (0..KEYS)
        .map(|i| (key("boundary", i), break_even - 1 + i % 3))
        .collect();
    for (key, n) in &truth {
        for h in stream(&mut rng, *n) {
            store.insert(key, h);
        }
    }
    let stats = store.tier_stats();
    assert_eq!(
        (stats.sparse_keys, stats.hot_keys),
        (KEYS / 3, KEYS - KEYS / 3)
    );
    assert_matches_theory("promotion boundary", &store, &truth, Band::AtMost);
}

#[test]
fn dense_resident_keys_match_theory() {
    let store = store();
    let mut rng = SplitMix64::new(0xDE5);
    let truth: Vec<(String, usize)> = (0..KEYS).map(|i| (key("dense", i), DENSE_N)).collect();
    for (key, n) in &truth {
        ingest(&store, key, &stream(&mut rng, *n));
    }
    assert_tier(&store, &truth, Tier::Hot);
    assert_matches_theory("dense resident", &store, &truth, Band::Around);
}

#[test]
fn warm_and_cold_revival_match_theory() {
    let dir = std::env::temp_dir().join(format!("ell-store-theory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = store();
    store.set_tier_config(
        TierConfig::new()
            .warm_after(1)
            .cold_after(2)
            .spill_dir(&dir),
    );
    let mut rng = SplitMix64::new(0xC01D);
    let truth: Vec<(String, usize)> = (0..KEYS).map(|i| (key("revive", i), DENSE_N)).collect();
    let halves: Vec<(Vec<u64>, Vec<u64>)> = truth
        .iter()
        .map(|(_, n)| {
            let mut hashes = stream(&mut rng, *n);
            let second = hashes.split_off(n / 2);
            (hashes, second)
        })
        .collect();
    for ((key, _), (first, _)) in truth.iter().zip(&halves) {
        ingest(&store, key, first);
    }
    store.tick();
    assert_eq!(store.demote_idle(), (KEYS, 0));
    // The even keys take their second half while warm, through a session
    // flush that parks it on the warm payload.
    let mut session = store.session();
    for (i, ((key, _), (_, second))) in truth.iter().zip(&halves).enumerate() {
        if i % 2 == 0 {
            session.ingest(
                &second
                    .iter()
                    .map(|&h| (key.as_str(), h))
                    .collect::<Vec<_>>(),
            );
        }
    }
    session.flush();
    drop(session);
    store.tick();
    assert_eq!(store.demote_idle(), (0, KEYS));
    assert_tier(&store, &truth, Tier::Cold);
    // The odd keys take theirs while cold, through a direct ingest that
    // revives them from the spill segment.
    for (i, ((key, _), (_, second))) in truth.iter().zip(&halves).enumerate() {
        if i % 2 == 1 {
            ingest(&store, key, second);
        }
    }
    // Every per-key estimate revives what is still cold.
    assert_matches_theory("warm/cold revival", &store, &truth, Band::Around);
    assert_tier(&store, &truth, Tier::Hot);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn session_flushed_keys_match_theory() {
    let store = store();
    let mut rng = SplitMix64::new(0x5E55);
    let truth: Vec<(String, usize)> = (0..KEYS).map(|i| (key("session", i), DENSE_N)).collect();
    let mut session = store.session().with_auto_flush(50_000);
    // Interleave the keys so each auto-flush folds many keys' runs.
    let streams: Vec<Vec<u64>> = truth.iter().map(|(_, n)| stream(&mut rng, *n)).collect();
    for j in 0..DENSE_N {
        for ((key, _), hashes) in truth.iter().zip(&streams) {
            session.insert(key, hashes[j]);
        }
    }
    session.flush();
    drop(session);
    assert_tier(&store, &truth, Tier::Hot);
    assert_matches_theory("session flush", &store, &truth, Band::Around);
}

/// Keys per windowed path.
const WINDOW_KEYS: usize = 200;
/// Ring size E of the windowed stores.
const EPOCHS: usize = 4;
/// Distinct elements per key and epoch.
const PER_EPOCH: usize = 1_000;
/// Epochs a windowed key's true counts are kept for.
const HISTORY: usize = 8;

fn window_store() -> WindowedStore {
    WindowedStore::new(8, cfg(), EPOCHS).unwrap()
}

/// Feeds every key of `path` `PER_EPOCH` fresh elements in each epoch of
/// `epochs`, returning each key's true count per epoch.
fn fill_window(
    store: &WindowedStore,
    rng: &mut SplitMix64,
    path: &str,
    epochs: std::ops::Range<u64>,
) -> Vec<(String, Vec<usize>)> {
    let mut truth: Vec<(String, Vec<usize>)> = (0..WINDOW_KEYS)
        .map(|i| (key(path, i), vec![0; HISTORY]))
        .collect();
    for epoch in epochs {
        for (key, counts) in &mut truth {
            let hashes = stream(rng, PER_EPOCH);
            let batch: Vec<(&str, u64)> = hashes.iter().map(|&h| (key.as_str(), h)).collect();
            store.ingest(epoch, &batch);
            counts[epoch as usize] += PER_EPOCH;
        }
    }
    truth
}

/// Checks every trailing window k = 1..E and the all-time union of each
/// key against theory (see [`assert_errors`]). The first query of a
/// demoted key revives it.
fn assert_window_matches_theory(path: &str, store: &WindowedStore, truth: &[(String, Vec<usize>)]) {
    let current = store.current_epoch() as usize;
    for k in 1..=EPOCHS {
        // Epochs in (current − k, current].
        let window = |counts: &[usize]| -> usize {
            let newest = counts.iter().enumerate().filter(|(e, _)| e + k > current);
            newest.map(|(_, n)| n).sum()
        };
        let estimates = truth
            .iter()
            .map(|(key, counts)| (store.estimate_window(key, k).unwrap(), window(counts)));
        assert_errors(&format!("{path}, window k = {k}"), estimates, Band::Around);
    }
    let estimates = truth
        .iter()
        .map(|(key, counts)| (store.estimate_all_time(key).unwrap(), counts.iter().sum()));
    assert_errors(&format!("{path}, all time"), estimates, Band::Around);
}

#[test]
fn live_rings_match_theory() {
    let store = window_store();
    let mut rng = SplitMix64::new(0x11FE);
    // Six epochs into a ring of four: two have retired.
    let truth = fill_window(&store, &mut rng, "live", 0..6);
    assert_eq!(store.tier_stats().hot_keys, WINDOW_KEYS);
    assert_window_matches_theory("live ring", &store, &truth);
}

#[test]
fn rings_revived_from_warm_by_a_query_match_theory() {
    let mut store = window_store();
    store.set_warm_after(Some(1));
    let mut rng = SplitMix64::new(0x3A53);
    let truth = fill_window(&store, &mut rng, "warm", 0..6);
    // Rotation is the sweep: every ring, idle for one epoch, goes warm.
    store.advance(6);
    assert_eq!(store.tier_stats().warm_keys, WINDOW_KEYS);
    assert_window_matches_theory("revived ring", &store, &truth);
    assert_eq!(store.tier_stats().warm_keys, 0);
}

#[test]
fn late_events_into_sealed_epochs_match_theory() {
    let store = window_store();
    let mut rng = SplitMix64::new(0x1A7E);
    let mut truth = fill_window(&store, &mut rng, "late", 0..6);
    // Build every suffix chain, then land late events in sealed epochs
    // 3 and 4 and in retired epoch 1.
    for (key, _) in &truth {
        store.estimate_all_time(key).unwrap();
    }
    for (key, counts) in &mut truth {
        for epoch in [1u64, 3, 4] {
            let hashes = stream(&mut rng, PER_EPOCH / 2);
            let batch: Vec<(&str, u64)> = hashes.iter().map(|&h| (key.as_str(), h)).collect();
            store.ingest(epoch, &batch);
            counts[epoch as usize] += PER_EPOCH / 2;
        }
    }
    assert!(store.window_stats().dirty_invalidations >= WINDOW_KEYS as u64);
    assert_window_matches_theory("late events", &store, &truth);
}

#[test]
fn session_runs_parked_on_warm_rings_match_theory() {
    let mut store = window_store();
    store.set_warm_after(Some(1));
    let mut rng = SplitMix64::new(0x9A4C);
    let mut truth = fill_window(&store, &mut rng, "parked", 0..6);
    store.advance(6);
    assert_eq!(store.tier_stats().warm_keys, WINDOW_KEYS);
    // One flush parks runs for a retired, a sealed and the current epoch
    // on every warm ring.
    let mut session = store.session();
    for (key, counts) in &mut truth {
        for epoch in [1u64, 5, 6] {
            for h in stream(&mut rng, PER_EPOCH / 2) {
                session.insert(key, epoch, h);
            }
            counts[epoch as usize] += PER_EPOCH / 2;
        }
    }
    session.flush();
    drop(session);
    let stats = store.tier_stats();
    assert_eq!(stats.warm_keys, WINDOW_KEYS, "a flush must not revive");
    assert!(stats.parked_deltas >= WINDOW_KEYS as u64);
    assert_window_matches_theory("parked session runs", &store, &truth);
}
