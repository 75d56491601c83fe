//! `hot_keys`: about 500 dense keys on the atomic path, preloaded
//! during set-up so they fit in L3, tiering off.
//!
//! Each step ingests one direct `EllStore::ingest` batch (element
//! hashing included) and then issues one per-key `EllStore::estimate`,
//! a fixed 4096 : 1 ratio. Every estimate takes the hot-snapshot path
//! (atomic snapshot + ML estimate), so the query class is homogeneous.
//! Register CAS, `AtomicExaLogLog::snapshot` and the ML estimate
//! dominate; sessions, tiers and sparse tokens are bypassed.

use crate::common::{
    element_hasher, is_checkpoint, json_num, median, next_element, probe_sketches, probe_stores,
    record_end_to_end, record_reconciliation, timed, timed_setup, Checkpoints, Ev, Latencies,
    Outcome, Rounds, Tracer, SETUP_REPS,
};
use crate::Args;
use ell_hash::{Hasher64, SplitMix64};
use ell_sim::workload::{key_label, ZipfStream};
use ell_store::{EllStore, Tier};
use exaloglog::{EllConfig, ExaLogLog};
use std::time::Instant;

/// A few hundred hot keys; the count varies a little with the seed, as
/// part of the generated input.
fn hot_key_count(seed: u64) -> usize {
    480 + (ell_hash::mix64(seed) % 64) as usize
}
const SHARDS: usize = 64;
const PRECISION: u8 = 12;
/// Distinct elements per key loaded during set-up: past the sparse →
/// dense break-even at p = 12, so every key starts on the atomic path.
const PRELOAD_PER_KEY: u32 = 8000;
const BATCH: usize = 4096;
const STEPS_PER_ROUND: usize = 64;
const ROUNDS_PER_SECOND: u64 = 16;
const ZIPF_S: f64 = 0.7;
const REPEAT_PERMILLE: u64 = 250;

fn config() -> EllConfig {
    EllConfig::optimal(PRECISION).expect("valid preset")
}

struct Gen {
    zipf: ZipfStream,
    rng: SplitMix64,
    fresh: Vec<u32>,
}

impl Gen {
    fn events(&mut self, n: usize) -> Vec<Ev> {
        (0..n)
            .map(|_| {
                let key = self.zipf.next_id() as usize;
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

fn setup(seed: u64) -> (EllStore, Vec<String>, Gen) {
    let hot = hot_key_count(seed);
    let labels: Vec<String> = (0..hot as u64).map(key_label).collect();
    let store = EllStore::new(SHARDS, config()).expect("power-of-two shards");
    let hasher = element_hasher();
    let mut batch: Vec<(&str, u64)> = Vec::with_capacity(BATCH);
    for i in 0..u64::from(PRELOAD_PER_KEY) {
        for (key, label) in labels.iter().enumerate() {
            batch.push((label, hasher.hash_u64(((key as u64) << 32) | i)));
            if batch.len() == BATCH {
                store.ingest(&batch);
                batch.clear();
            }
        }
    }
    store.ingest(&batch);
    drop(batch);
    let gen = Gen {
        zipf: ZipfStream::new(hot, ZIPF_S, seed ^ 0x0068_6F74),
        rng: SplitMix64::new(seed ^ 0x5EED_0407),
        fresh: vec![PRELOAD_PER_KEY; hot],
    };
    (store, labels, gen)
}

pub fn run(args: &Args) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let ((store, labels, mut gen), setup_s) = timed_setup(SETUP_REPS, |_| setup(args.seed));
    let hot = labels.len();
    for label in &labels {
        out.check(store.key_tier(label) == Some(Tier::Hot), || {
            format!("{label} is not on the atomic path after set-up")
        });
    }
    let hasher = element_hasher();
    let mut tr = Tracer::new();
    let mut rounds = Rounds::default();
    let mut lat = Latencies::default();
    let mut qrng = SplitMix64::new(args.seed ^ 0x9E37_79B9);
    let mut batch: Vec<(&str, u64)> = Vec::with_capacity(BATCH);
    let mut probe_events = Vec::new();
    let mut cp = Checkpoints::default();
    let mut last = None;
    let total_rounds = (args.seconds * ROUNDS_PER_SECOND) as usize;
    for i in 0..total_rounds {
        let evs = gen.events(STEPS_PER_ROUND * BATCH);
        let queries: Vec<usize> = (0..STEPS_PER_ROUND)
            .map(|_| (qrng.next_u64() % hot as u64) as usize)
            .collect();
        tr.set_on(args.trace && i % 2 == 0);
        let mut ingest_secs = 0.0;
        for (chunk, &key) in evs.chunks(BATCH).zip(&queries) {
            let t = Instant::now();
            let root = tr.open("ingest");
            let span = tr.open("hash");
            batch.clear();
            batch.extend(
                chunk
                    .iter()
                    .map(|e| (labels[e.key as usize].as_str(), hasher.hash_u64(e.id))),
            );
            tr.close(span);
            let span = tr.open("store.ingest");
            store.ingest(&batch);
            tr.close(span);
            tr.close(root);
            ingest_secs += t.elapsed().as_secs_f64();

            let label = &labels[key];
            let snapshot_path = store.key_tier(label) == Some(Tier::Hot);
            let span = tr.open("store.estimate");
            let t = Instant::now();
            let got = out.guarded("estimate", || store.estimate(label));
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            tr.close(span);
            lat.push(us, snapshot_path, tr.on());
            if let Some(est) = got {
                out.check(est.is_finite() && est > 0.0, || {
                    format!("estimate({label}) = {est}")
                });
            }
        }
        rounds.push(ingest_secs, evs.len(), tr.on());
        if i == 0 {
            // The busiest keys only, so the scratch stores see dense keys.
            probe_events = evs
                .iter()
                .filter(|e| e.key < 8)
                .take(48_000)
                .copied()
                .collect();
        }
        if is_checkpoint(i, total_rounds) {
            drop(last.take());
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
    drop(batch);
    let (snapshot, restored) = last.expect("the last round checkpoints");
    let rollup_s = median(&cp.rollup);

    let stats = store.tier_stats();
    let memory = store.memory_bytes();

    let entries = store.entries();
    out.check(entries.len() == hot, || {
        format!("{} entries for {hot} keys", entries.len())
    });
    let mut sq = 0.0;
    let mut dense_sample: Vec<ExaLogLog> = Vec::new();
    for (label, sketch) in &entries {
        let key: usize = label[4..].parse().expect("labels are key-NNNNNN");
        let exact = gen.fresh[key];
        let e = sketch.estimate() / f64::from(exact) - 1.0;
        sq += e * e;
        if key.is_multiple_of(16) {
            let mut offline = ExaLogLog::new(config());
            for j in 0..u64::from(exact) {
                offline.insert_hash(hasher.hash_u64(((key as u64) << 32) | j));
            }
            out.check(
                sketch.to_dense().registers().eq(offline.registers()),
                || format!("{label}: stored registers differ from the offline sketch"),
            );
            dense_sample.push(offline);
        }
    }
    let rel_err = (sq / entries.len().max(1) as f64).sqrt();
    drop(entries);

    match restored {
        Ok(restored) => {
            for label in &labels {
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
        "hot_keys",
        format!(
            "{{\"keys\":{hot},\"precision\":{PRECISION},\"batch\":{BATCH},\"rounds\":{},\
             \"working_set_mib\":{},\"reps\":{{\"setup\":{SETUP_REPS},\"checkpoints\":{}}}}}",
            rounds.count(),
            json_num(memory as f64 / (1 << 20) as f64),
            cp.snapshot.len(),
        ),
    );

    if args.trace {
        let replica = probe_sketches(&dense_sample, 400, &mut out);
        replica.record(&mut out);
        let scratch = probe_stores(
            config(),
            &labels,
            &probe_events,
            &args.scratch.join("probe"),
        );
        out.meta(
            "layer_probe",
            "[\"session.buffer_ns_per_event\",\"session.flush_ms_p50\",\
             \"store.estimate_revive_us_p50\",\"tiers.sweep_ms_p50\",\"window.advance_ms_p50\",\
             \"window.query_hit_us_p50\",\"window.query_rebuild_us_p50\"]",
        );
        let traced_events = rounds.events(true) as f64;
        out.set("hash.ns_per_event", tr.total_ns("hash") / traced_events);
        out.set("session.buffer_ns_per_event", scratch.buffer_ns_per_event);
        out.set("session.flush_ms_p50", scratch.flush_ms);
        out.set("session.flush_count", 0.0);
        out.set("session.flush_share", 0.0);
        out.set(
            "store.ingest_ns_per_event",
            tr.total_ns("store.ingest") / traced_events,
        );
        out.set(
            "store.estimate_hot_us_p50",
            median(&lat.select(true, Some(true))),
        );
        out.set("store.estimate_revive_us_p50", scratch.estimate_revive_us);
        out.set("store.rollup_ms", rollup_s * 1e3);
        out.set("store.hot_keys", stats.hot_keys as f64);
        out.set("store.sparse_keys", stats.sparse_keys as f64);
        out.set("tiers.sweep_ms_p50", scratch.sweep_ms);
        out.set("tiers.sweep_share", 0.0);
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
        // A hot estimate is an atomic snapshot plus an ML estimate over
        // the snapshot, whose coefficient cache the snapshot dropped.
        record_reconciliation(
            &mut out,
            &tr,
            &rounds,
            &lat,
            replica.snapshot_us + replica.scan_us,
        );
    } else {
        record_end_to_end(&mut out, &rounds, &lat);
        out.set("setup_s", setup_s);
        out.set("rollup_s", rollup_s);
        out.set("snapshot_s", median(&cp.snapshot));
        out.set("restore_s", median(&cp.restore));
        out.set("bytes_per_key", memory as f64 / hot as f64);
        out.set("snapshot_bytes_per_key", snapshot.len() as f64 / hot as f64);
        out.set("peak_rss_mb", crate::common::peak_rss_mb());
        out.set("rel_err_rms", rel_err);
    }
    (out, tr)
}
