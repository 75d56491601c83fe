//! `window_sliding`: a `WindowedStore` with E = 8 epochs, Zipf keys
//! whose head drifts every epoch, `WindowIngestSession` ingest, a fixed
//! 5% of late events landing in sealed epochs, and the warm tier on.
//!
//! Each epoch advances the window (rotation doubles as the warm sweep),
//! ingests its events in two halves, and after each half runs
//! dashboard-style `estimate_window(key, k)` calls cycling k through
//! 1..=E over the 64 current head keys. Rotation, suffix chains and
//! word-level merges (the scan kernels) dominate; the atomic path is
//! bypassed.

use crate::common::{
    feed, is_checkpoint, json_num, median, next_element, probe_sketches, probe_stores, ratio,
    record_end_to_end, record_reconciliation, timed, timed_setup, Checkpoints, Ev, Latencies,
    Outcome, Rounds, Tracer, SETUP_REPS,
};
use crate::Args;
use ell_hash::SplitMix64;
use ell_sim::workload::{key_label, ZipfStream};
use ell_store::{WindowStats, WindowedStore};
use exaloglog::{EllConfig, ExaLogLog};
use std::time::Instant;

const KEYS: usize = 2048;
const E: usize = 8;
const SHARDS: usize = 16;
const PRECISION: u8 = 10;
const ZIPF_S: f64 = 1.3;
const EPOCH_EVENTS: usize = 40_000;
const DRIFT: usize = 16;
const LATE_PERMILLE: u64 = 50;
const REPEAT_PERMILLE: u64 = 250;
const WARM_AFTER: u64 = 2;
const HISTORY_EPOCHS: u64 = 10;
const EPOCHS_PER_SECOND: u64 = 6;
/// Head keys a dashboard watches, and query cycles over them after each
/// half epoch.
const PROBES: usize = 64;
const CYCLES_PER_HALF: usize = 6;
const AUTO_FLUSH: usize = 8192;
/// Keys with at least this many distinct elements in the window enter
/// `rel_err_rms`.
const REL_ERR_MIN: u32 = 30;

fn config() -> EllConfig {
    EllConfig::optimal(PRECISION).expect("valid preset")
}

fn key_of(rank: usize, epoch: u64) -> usize {
    (rank + epoch as usize * DRIFT) % KEYS
}

struct Gen {
    zipf: ZipfStream,
    rng: SplitMix64,
    /// Distinct elements issued per key for each live epoch (ring slot
    /// `epoch % E`); a window's exact count is the slot sum.
    fresh: Vec<[u32; E]>,
}

impl Gen {
    fn epoch(&mut self, epoch: u64) -> Vec<Ev> {
        let slot = epoch as usize % E;
        for f in &mut self.fresh {
            f[slot] = 0;
        }
        (0..EPOCH_EVENTS)
            .map(|_| {
                let key = key_of(self.zipf.next_id() as usize, epoch);
                let late = epoch > 0 && self.rng.next_u64() % 1000 < LATE_PERMILLE;
                let ep = if late {
                    epoch - 1 - self.rng.next_u64() % (E as u64 - 1).min(epoch)
                } else {
                    epoch
                };
                let id = next_element(
                    &mut self.rng,
                    &mut self.fresh[key][ep as usize % E],
                    ((key as u64) << 52) | (ep << 28),
                    REPEAT_PERMILLE,
                );
                Ev {
                    key: key as u32,
                    epoch: ep as u32,
                    id,
                }
            })
            .collect()
    }

    /// Exact distinct count of `key` over the `k` epochs ending at
    /// `current`.
    fn exact_window(&self, key: usize, current: u64, k: usize) -> u32 {
        (0..k as u64)
            .map(|j| self.fresh[key][((current - j) % E as u64) as usize])
            .sum()
    }
}

/// One half epoch of ingest; the first half also rotates the window and
/// sweeps idle rings. Returns the flush count (traced rounds only).
fn ingest_half(
    store: &WindowedStore,
    labels: &[String],
    evs: &[Ev],
    rotate: Option<u64>,
    tr: &mut Tracer,
) -> u64 {
    let root = tr.open("ingest");
    if let Some(epoch) = rotate {
        let span = tr.open("window.advance");
        store.advance(epoch);
        tr.close(span);
        let span = tr.open("tiers.sweep");
        store.demote_idle();
        tr.close(span);
    }
    let mut session = store.session().with_auto_flush(AUTO_FLUSH);
    let flushes = feed(&mut session, labels, evs, AUTO_FLUSH, tr);
    let span = tr.open("session.flush");
    drop(session);
    tr.close(span);
    tr.close(root);
    flushes + 1
}

fn ingest_epoch(store: &WindowedStore, labels: &[String], evs: &[Ev], epoch: u64, tr: &mut Tracer) {
    let (first, second) = evs.split_at(evs.len() / 2);
    ingest_half(store, labels, first, Some(epoch), tr);
    ingest_half(store, labels, second, None, tr);
}

fn setup(seed: u64) -> (WindowedStore, Vec<String>, Gen) {
    let labels: Vec<String> = (0..KEYS as u64).map(key_label).collect();
    let mut store = WindowedStore::new(SHARDS, config(), E).expect("valid window");
    store.set_warm_after(Some(WARM_AFTER));
    let mut gen = Gen {
        zipf: ZipfStream::new(KEYS, ZIPF_S, seed ^ 0x7769_6E64),
        rng: SplitMix64::new(seed ^ 0x5EED_0E0C),
        fresh: vec![[0; E]; KEYS],
    };
    let mut tr = Tracer::new();
    for epoch in 0..HISTORY_EPOCHS {
        let evs = gen.epoch(epoch);
        ingest_epoch(&store, &labels, &evs, epoch, &mut tr);
    }
    (store, labels, gen)
}

fn query_cycles(
    store: &WindowedStore,
    labels: &[String],
    epoch: u64,
    tr: &mut Tracer,
    lat: &mut Latencies,
    out: &mut Outcome,
) {
    for _ in 0..CYCLES_PER_HALF {
        for rank in 0..PROBES {
            let label = &labels[key_of(rank, epoch)];
            for k in 1..=E {
                let before = store.window_stats().lazy_rebuilds;
                let span = tr.open("window.estimate_window");
                let t = Instant::now();
                let got = out.guarded("estimate_window", || store.estimate_window(label, k));
                let us = t.elapsed().as_nanos() as f64 / 1e3;
                tr.close(span);
                let rebuilt = store.window_stats().lazy_rebuilds > before;
                lat.push(us, rebuilt, tr.on());
                if let Some(est) = got {
                    out.check(est.is_finite() && est >= 0.0, || {
                        format!("estimate_window({label}, {k}) = {est}")
                    });
                }
            }
        }
    }
}

fn delta(a: &WindowStats, b: &WindowStats) -> [u64; 4] {
    [
        b.suffix_hits - a.suffix_hits,
        b.lazy_rebuilds - a.lazy_rebuilds,
        b.suffix_entries_built - a.suffix_entries_built,
        b.dirty_invalidations - a.dirty_invalidations,
    ]
}

pub fn run(args: &Args) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let ((store, labels, mut gen), setup_s) = timed_setup(SETUP_REPS, |_| setup(args.seed));
    let mut tr = Tracer::new();
    let mut rounds = Rounds::default();
    let mut lat = Latencies::default();
    let mut probe_events = Vec::new();
    let stats_before = store.window_stats();
    let mut cp = Checkpoints::default();
    let mut last = None;
    let total_epochs = (args.seconds * EPOCHS_PER_SECOND) as usize;
    for i in 0..total_epochs {
        let epoch = HISTORY_EPOCHS + i as u64;
        let evs = gen.epoch(epoch);
        tr.set_on(args.trace && i % 2 == 0);
        let (first, second) = evs.split_at(evs.len() / 2);
        let t = Instant::now();
        ingest_half(&store, &labels, first, Some(epoch), &mut tr);
        let mut secs = t.elapsed().as_secs_f64();
        query_cycles(&store, &labels, epoch, &mut tr, &mut lat, &mut out);
        let t = Instant::now();
        ingest_half(&store, &labels, second, None, &mut tr);
        secs += t.elapsed().as_secs_f64();
        query_cycles(&store, &labels, epoch, &mut tr, &mut lat, &mut out);
        rounds.push(secs, evs.len(), tr.on());
        if i == 0 {
            probe_events = evs[..24_000].to_vec();
        }
        if is_checkpoint(i, total_epochs) {
            drop(last.take());
            // The rollup runs on the restored replica: it queries, and so
            // promotes, every key, which would undo the live store's tiers.
            let bytes = timed(&mut cp.snapshot, || store.snapshot_bytes());
            match timed(&mut cp.restore, || {
                WindowedStore::from_snapshot_bytes(&bytes)
            }) {
                Ok(replica) => {
                    let rows = timed(&mut cp.rollup, || replica.window_estimates(E));
                    out.check(rows.len() == replica.key_count(), || {
                        format!(
                            "{} window rows for {} keys",
                            rows.len(),
                            replica.key_count()
                        )
                    });
                    last = Some((bytes, replica));
                }
                Err(e) => out.check(false, || format!("restore failed: {e}")),
            }
        }
    }
    tr.set_on(false);
    let (snapshot, replica) = last.expect("the last epoch checkpoints");
    let rollup_s = median(&cp.rollup);
    let [hits, rebuilds, built, dirty] = delta(&stats_before, &store.window_stats());
    let stats = store.tier_stats();
    let keys = store.key_count();
    let memory = store.memory_bytes();

    // Every trailing window of every probe key equals the offline
    // per-register merge of its epoch sketches.
    let current = store.current_epoch();
    let probes: Vec<&String> = (0..PROBES).map(|r| &labels[key_of(r, current)]).collect();
    let mut epoch_sample: Vec<ExaLogLog> = Vec::new();
    for label in &probes {
        for k in 1..=E {
            let mut offline = ExaLogLog::new(config());
            let mut complete = true;
            for ep in current + 1 - k as u64..=current {
                match store.epoch_sketch(label, ep) {
                    Some(s) => {
                        complete &= offline.merge_from_per_register(&s).is_ok();
                        if epoch_sample.len() < 64 && k == 1 {
                            epoch_sample.push(s);
                        }
                    }
                    None => complete = false,
                }
            }
            let got = store.estimate_window(label, k);
            out.check(
                complete && got.map(f64::to_bits) == Some(offline.estimate().to_bits()),
                || {
                    format!(
                        "estimate_window({label}, {k}) = {got:?}, offline {}",
                        offline.estimate()
                    )
                },
            );
        }
    }

    for label in &probes {
        for k in 1..=E {
            let a = store.estimate_window(label, k);
            let b = replica.estimate_window(label, k);
            out.check(
                a.is_some() && a.map(f64::to_bits) == b.map(f64::to_bits),
                || format!("{label}: restored window {k} estimate {b:?} != {a:?}"),
            );
        }
    }

    // Accuracy over every trailing window of every key busy enough to
    // matter, read from the replica (its rollup left every ring live).
    let mut sq = 0.0;
    let mut n_err = 0usize;
    for label in replica.keys() {
        let key: usize = label[4..].parse().expect("labels are key-NNNNNN");
        for k in 1..=E {
            let exact = gen.exact_window(key, current, k);
            if exact < REL_ERR_MIN {
                continue;
            }
            if let Some(est) = out.guarded("estimate_window", || replica.estimate_window(&label, k))
            {
                let e = est / f64::from(exact) - 1.0;
                sq += e * e;
                n_err += 1;
            }
        }
    }
    let rel_err = (sq / n_err.max(1) as f64).sqrt();

    out.meta(
        "window",
        format!(
            "{{\"keys\":{keys},\"epochs\":{E},\"epoch_events\":{EPOCH_EVENTS},\"rounds\":{},\
             \"late_permille\":{LATE_PERMILLE},\"working_set_mib\":{},\"windows_in_rel_err\":{n_err},\
             \"reps\":{{\"setup\":{SETUP_REPS},\"checkpoints\":{}}}}}",
            rounds.count(),
            json_num(memory as f64 / (1 << 20) as f64),
            cp.snapshot.len(),
        ),
    );

    if args.trace {
        let replica = probe_sketches(&epoch_sample, 400, &mut out);
        replica.record(&mut out);
        let scratch = probe_stores(
            config(),
            &labels,
            &probe_events,
            &args.scratch.join("probe"),
        );
        out.meta(
            "layer_probe",
            "[\"store.ingest_ns_per_event\",\"store.estimate_hot_us_p50\",\
             \"store.estimate_revive_us_p50\"]",
        );
        let traced_events = rounds.events(true) as f64;
        let ingest_ns = tr.total_ns("ingest");
        let flushes = tr.durations("session.flush").len();
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
        out.set("store.estimate_hot_us_p50", scratch.estimate_hot_us);
        out.set("store.estimate_revive_us_p50", scratch.estimate_revive_us);
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
        out.set(
            "window.advance_ms_p50",
            median(&tr.durations("window.advance")) / 1e6,
        );
        out.set(
            "window.advance_share",
            tr.total_ns("window.advance") / ingest_ns,
        );
        out.set(
            "window.query_hit_us_p50",
            median(&lat.select(true, Some(false))),
        );
        out.set(
            "window.query_rebuild_us_p50",
            median(&lat.select(true, Some(true))),
        );
        out.set("window.suffix_hits", hits as f64);
        out.set("window.lazy_rebuilds", rebuilds as f64);
        out.set("window.entries_built", built as f64);
        out.set("window.dirty_invalidations", dirty as f64);
        out.set(
            "window.rebuild_share",
            ratio(rebuilds as f64, (hits + rebuilds) as f64),
        );
        // A hit clones the suffix union into the scratch, merges the
        // current slot and reads the cached ML estimate; a rebuild first
        // builds its missing suffix entries (one clone + merge each).
        let step = replica.clone_us + replica.merge_us;
        let built_per_rebuild = ratio(built as f64, rebuilds as f64);
        let model = step + replica.cached_us + lat.slow_share(false) * built_per_rebuild * step;
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
