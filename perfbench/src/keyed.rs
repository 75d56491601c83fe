//! `keyed_longtail`: an `EllStore` of about 10⁵ keys under Zipf key
//! popularity that drifts every round, ingested through
//! `IngestSession`, with tiering on (idle keys go warm after one sweep
//! and spill cold after three).
//!
//! Each round ingests one batch of events through a session, then ticks
//! the clock and sweeps idle keys down the tiers (both inside the
//! ingest timing), then runs a query stream. Queries go to the current
//! head keys (dense, resident: the fast path) and to keys that were in
//! the head five and six rounds ago (dense before they went idle, now
//! warm or cold: the revival path). The hash, session buffer, sparse
//! token, promotion and tier/compress layers do most of the work here.

use crate::common::{
    feed, is_checkpoint, json_num, median, next_element, probe_sketches, probe_stores,
    record_end_to_end, record_reconciliation, shuffle, timed, timed_setup, Checkpoints, Ev,
    Latencies, Outcome, Rounds, Tracer, SETUP_REPS,
};
use crate::Args;
use ell_hash::{Hasher64, SplitMix64};
use ell_sim::workload::{key_label, ZipfStream};
use ell_store::{EllStore, Tier, TierConfig};
use exaloglog::{EllConfig, ExaLogLog};
use std::time::Instant;

const KEYS: usize = 100_000;
const SHARDS: usize = 64;
const PRECISION: u8 = 10;
const ZIPF_S: f64 = 1.0;
const ROUND_EVENTS: usize = 150_000;
/// Rank→key rotation per round: the head moves on by its own width.
const DRIFT: usize = 64;
const HISTORY_ROUNDS: usize = 8;
const ROUNDS_PER_SECOND: u64 = 6;
/// Head ranks whose keys are queried; all are dense.
const HEAD: usize = 8;
/// Rounds after leaving the head at which a key is queried again.
const LAGS: [usize; 2] = [5, 6];
const FAST_QUERIES: usize = 216;
const AUTO_FLUSH: usize = 32 * 1024;
const REPEAT_PERMILLE: u64 = 250;
/// Keys with at least this many distinct elements enter `rel_err_rms`.
const REL_ERR_MIN: u32 = 1000;

fn config() -> EllConfig {
    EllConfig::optimal(PRECISION).expect("valid preset")
}

fn key_of(rank: usize, round: usize) -> usize {
    (rank + round * DRIFT) % KEYS
}

struct Gen {
    zipf: ZipfStream,
    rng: SplitMix64,
    /// Distinct elements issued per key: the exact distinct counts.
    fresh: Vec<u32>,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            zipf: ZipfStream::new(KEYS, ZIPF_S, seed ^ 0x006B_6579_6564),
            rng: SplitMix64::new(seed ^ 0x0E1E_3E47),
            fresh: vec![0; KEYS],
        }
    }

    fn round(&mut self, round: usize) -> Vec<Ev> {
        (0..ROUND_EVENTS)
            .map(|_| {
                let key = key_of(self.zipf.next_id() as usize, round);
                let id = next_element(
                    &mut self.rng,
                    &mut self.fresh[key],
                    (key as u64) << 32,
                    REPEAT_PERMILLE,
                );
                Ev {
                    key: key as u32,
                    epoch: 0,
                    id,
                }
            })
            .collect()
    }
}

struct State {
    store: EllStore,
    labels: Vec<String>,
}

fn setup(seed: u64, spill: &std::path::Path) -> (State, Gen) {
    let _ = std::fs::remove_dir_all(spill);
    let labels: Vec<String> = (0..KEYS as u64).map(key_label).collect();
    let mut store = EllStore::new(SHARDS, config()).expect("power-of-two shards");
    store.set_tier_config(
        TierConfig::new()
            .warm_after(1)
            .cold_after(3)
            .spill_dir(spill),
    );
    let mut gen = Gen::new(seed);
    let mut tr = Tracer::new();
    for round in 0..HISTORY_ROUNDS {
        let evs = gen.round(round);
        ingest_round(&store, &labels, &evs, &mut tr);
    }
    (State { store, labels }, gen)
}

/// One round's ingest: session buffer and flushes, then the clock tick
/// and tier sweep. Returns the auto-flush count (traced rounds only).
fn ingest_round(store: &EllStore, labels: &[String], evs: &[Ev], tr: &mut Tracer) -> u64 {
    let root = tr.open("ingest");
    let mut session = store.session().with_auto_flush(AUTO_FLUSH);
    let flushes = feed(&mut session, labels, evs, AUTO_FLUSH, tr);
    let span = tr.open("session.flush");
    drop(session);
    tr.close(span);
    let span = tr.open("tiers.sweep");
    store.tick();
    store.demote_idle();
    tr.close(span);
    tr.close(root);
    flushes + 1
}

fn query_round(
    state: &State,
    round: usize,
    rng: &mut SplitMix64,
    tr: &mut Tracer,
    lat: &mut Latencies,
    out: &mut Outcome,
) {
    let mut plan: Vec<usize> = (0..FAST_QUERIES)
        .map(|_| key_of((rng.next_u64() % HEAD as u64) as usize, round))
        .collect();
    for lag in LAGS {
        plan.extend((0..HEAD).map(|rank| key_of(rank, round - lag)));
    }
    shuffle(&mut plan, rng);
    for key in plan {
        let label = &state.labels[key];
        let revive = matches!(state.store.key_tier(label), Some(Tier::Warm | Tier::Cold));
        let span = tr.open("store.estimate");
        let t = Instant::now();
        let got = out.guarded("estimate", || state.store.estimate(label));
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        tr.close(span);
        lat.push(us, revive, tr.on());
        if let Some(est) = got {
            out.check(est.is_finite() && est > 0.0, || {
                format!("estimate({label}) = {est}")
            });
        }
    }
}

pub fn run(args: &Args) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let ((state, mut gen), setup_s) = timed_setup(SETUP_REPS, |rep| {
        setup(args.seed, &args.scratch.join(format!("spill-{rep}")))
    });
    let mut tr = Tracer::new();
    let mut rounds = Rounds::default();
    let mut lat = Latencies::default();
    let mut flushes = 0;
    let mut qrng = SplitMix64::new(args.seed ^ 0x9E37_79B9);
    let total_rounds = (args.seconds * ROUNDS_PER_SECOND) as usize;
    let mut probe_events = Vec::new();
    let mut cp = Checkpoints::default();
    let mut last = None;
    for i in 0..total_rounds {
        let round = HISTORY_ROUNDS + i;
        let evs = gen.round(round);
        tr.set_on(args.trace && i % 2 == 0);
        let t = Instant::now();
        let f = ingest_round(&state.store, &state.labels, &evs, &mut tr);
        rounds.push(t.elapsed().as_secs_f64(), evs.len(), tr.on());
        if tr.on() {
            flushes += f;
        }
        query_round(&state, round, &mut qrng, &mut tr, &mut lat, &mut out);
        if i == 0 {
            probe_events = evs[..24_000].to_vec();
        }
        if is_checkpoint(i, total_rounds) {
            drop(last.take());
            let store = &state.store;
            let bytes = timed(&mut cp.snapshot, || store.snapshot_bytes());
            let restored = timed(&mut cp.restore, || EllStore::from_snapshot_bytes(&bytes));
            let merged = timed(&mut cp.rollup, || store.merged_estimate());
            out.check(merged.is_finite() && merged > 0.0, || {
                format!("merged estimate {merged}")
            });
            last = Some((bytes, restored));
        }
    }
    tr.set_on(false);
    let store = &state.store;
    let (snapshot, restored) = last.expect("the last round checkpoints");
    let rollup_s = median(&cp.rollup);

    let keys = store.key_count();
    let stats = store.tier_stats();
    let memory = store.memory_bytes();

    // Exactness of sampled per-key sketches, and accuracy of every key
    // dense enough for the ML estimate to matter.
    let hasher = crate::common::element_hasher();
    let entries = store.entries();
    out.check(entries.len() == keys, || {
        format!("{} entries for {keys} keys", entries.len())
    });
    let mut sq = 0.0;
    let mut n_err = 0usize;
    let mut dense_sample: Vec<ExaLogLog> = Vec::new();
    let mut sampled: Vec<usize> = Vec::new();
    for (i, (label, sketch)) in entries.iter().enumerate() {
        let key: usize = label[4..].parse().expect("labels are key-NNNNNN");
        let exact = gen.fresh[key];
        if exact >= REL_ERR_MIN {
            let e = sketch.estimate() / f64::from(exact) - 1.0;
            sq += e * e;
            n_err += 1;
            if dense_sample.len() < 64 {
                if let Some(d) = sketch.as_dense() {
                    dense_sample.push(d.clone());
                }
            }
        }
        if (exact >= REL_ERR_MIN && n_err.is_multiple_of(16)) || i.is_multiple_of(4096) {
            sampled.push(key);
            let mut offline = ExaLogLog::new(config());
            for j in 0..u64::from(exact) {
                offline.insert_hash(hasher.hash_u64(((key as u64) << 32) | j));
            }
            out.check(
                sketch.to_dense().registers().eq(offline.registers()),
                || format!("{label}: stored registers differ from the offline sketch"),
            );
        }
    }
    drop(entries);
    let rel_err = (sq / n_err.max(1) as f64).sqrt();

    match restored {
        Ok(restored) => {
            for &key in &sampled {
                let label = &state.labels[key];
                let a = store.estimate(label);
                let b = restored.estimate(label);
                out.check(
                    a.is_some() && a.map(f64::to_bits) == b.map(f64::to_bits),
                    || format!("{label}: restored estimate {b:?} != {a:?}"),
                );
            }
        }
        Err(e) => out.check(false, || format!("restore failed: {e}")),
    }

    out.meta(
        "keyed",
        format!(
            "{{\"keys\":{keys},\"rounds\":{},\"round_events\":{ROUND_EVENTS},\"working_set_mib\":{},\
             \"dense_keys_in_rel_err\":{n_err},\"checked_keys\":{},\"reps\":{{\"setup\":{SETUP_REPS},\
             \"checkpoints\":{}}}}}",
            rounds.count(),
            json_num(memory as f64 / (1 << 20) as f64),
            sampled.len(),
            cp.snapshot.len()
        ),
    );

    if args.trace {
        let replica = probe_sketches(&dense_sample, 400, &mut out);
        replica.record(&mut out);
        let scratch = probe_stores(
            config(),
            &state.labels,
            &probe_events,
            &args.scratch.join("probe"),
        );
        out.meta(
            "layer_probe",
            "[\"store.ingest_ns_per_event\",\"window.advance_ms_p50\",\
             \"window.query_hit_us_p50\",\"window.query_rebuild_us_p50\"]",
        );
        let traced_events = rounds.events(true) as f64;
        let ingest_ns = tr.total_ns("ingest");
        out.set("hash.ns_per_event", tr.total_ns("hash") / traced_events);
        out.set(
            "session.buffer_ns_per_event",
            tr.total_ns("session.buffer") / traced_events,
        );
        out.set(
            "session.flush_ms_p50",
            median(&tr.durations("session.flush")) / 1e6,
        );
        out.set("session.flush_count", flushes as f64);
        out.set(
            "session.flush_share",
            tr.total_ns("session.flush") / ingest_ns,
        );
        out.set("store.ingest_ns_per_event", scratch.ingest_ns_per_event);
        out.set(
            "store.estimate_hot_us_p50",
            median(&lat.select(true, Some(false))),
        );
        out.set(
            "store.estimate_revive_us_p50",
            median(&lat.select(true, Some(true))),
        );
        out.set("store.rollup_ms", rollup_s * 1e3);
        out.set("store.hot_keys", stats.hot_keys as f64);
        out.set("store.sparse_keys", stats.sparse_keys as f64);
        out.set(
            "tiers.sweep_ms_p50",
            median(&tr.durations("tiers.sweep")) / 1e6,
        );
        out.set("tiers.sweep_share", tr.total_ns("tiers.sweep") / ingest_ns);
        out.set("tiers.demotions_warm", stats.demotions_warm as f64);
        out.set("tiers.demotions_cold", stats.demotions_cold as f64);
        out.set("tiers.promotions", stats.promotions as f64);
        out.set("tiers.parked_deltas", stats.parked_deltas as f64);
        out.set("tiers.warm_keys", stats.warm_keys as f64);
        out.set("tiers.cold_keys", stats.cold_keys as f64);
        out.set("tiers.spilled_bytes", stats.spilled_bytes as f64);
        out.set("window.advance_ms_p50", scratch.advance_ms);
        out.set("window.advance_share", 0.0);
        out.set("window.query_hit_us_p50", scratch.query_hit_us);
        out.set("window.query_rebuild_us_p50", scratch.query_rebuild_us);
        for name in [
            "window.suffix_hits",
            "window.lazy_rebuilds",
            "window.entries_built",
            "window.dirty_invalidations",
            "window.rebuild_share",
        ] {
            out.set(name, 0.0);
        }
        // Resident dense keys: snapshot + ML scan; revivals add the
        // payload decode and the atomic rebuild.
        let share = lat.slow_share(false);
        let model = replica.snapshot_us
            + replica.scan_us
            + share * (replica.decode_us + replica.from_sketch_us);
        record_reconciliation(&mut out, &tr, &rounds, &lat, model);
    } else {
        record_end_to_end(&mut out, &rounds, &lat);
        out.set("setup_s", setup_s);
        out.set("rollup_s", rollup_s);
        out.set("snapshot_s", median(&cp.snapshot));
        out.set("restore_s", median(&cp.restore));
        out.set("bytes_per_key", memory as f64 / keys as f64);
        out.set(
            "snapshot_bytes_per_key",
            snapshot.len() as f64 / keys as f64,
        );
        out.set("peak_rss_mb", crate::common::peak_rss_mb());
        out.set("rel_err_rms", rel_err);
    }
    (out, tr)
}
