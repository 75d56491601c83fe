//! Machinery shared by the workloads: the span tracer, statistics,
//! output checks, the session feed loop, and the timings of single
//! layers taken on replicas or scratch stores.

use ell_hash::{Hasher64, SplitMix64, WyHash};
use ell_store::{EllStore, IngestSession, Tier, TierConfig, WindowIngestSession, WindowedStore};
use exaloglog::atomic::AtomicExaLogLog;
use exaloglog::compress::{compress, decompress};
use exaloglog::{EllConfig, ExaLogLog};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// How many times every workload builds its set-up; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 5;

/// Element hashing as `ell store ingest` does it: wyhash, seed 0, over
/// the element's bytes (here the 8 little-endian bytes of its id).
pub fn element_hasher() -> WyHash {
    WyHash::new(0)
}

/// One generated observation. `id` is the element; `epoch` is only
/// read by the windowed workload.
#[derive(Clone, Copy)]
pub struct Ev {
    pub key: u32,
    pub epoch: u32,
    pub id: u64,
}

/// Draws the next element id for one counter. `fresh` counts the
/// distinct ids issued so far, so it is the exact distinct count; a
/// repeat re-sends one of them. Ids are `base | index`.
pub fn next_element(rng: &mut SplitMix64, fresh: &mut u32, base: u64, repeat_permille: u64) -> u64 {
    if *fresh > 0 && rng.next_u64() % 1000 < repeat_permille {
        base | (rng.next_u64() % u64::from(*fresh))
    } else {
        let i = u64::from(*fresh);
        *fresh += 1;
        base | i
    }
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

// ---------------------------------------------------------------------
// Statistics

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile (0 for an empty sample).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` `reps` times (dropping each result before the next is
/// built) and returns the last result with the median wall time.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(rep));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Checkpoints per run. Each snapshots the live store, restores the
/// snapshot and runs the rollup, so every repetition of those phases
/// does the real work, at evenly spaced points of the run.
pub const CHECKPOINTS: usize = 10;

/// Whether round `i` of `total` ends with a checkpoint (evenly spaced,
/// always including the last round).
pub fn is_checkpoint(i: usize, total: usize) -> bool {
    let every = total.div_ceil(CHECKPOINTS).max(1);
    (i + 1).is_multiple_of(every) || i + 1 == total
}

/// Wall times (s) of the checkpoint phases.
#[derive(Default)]
pub struct Checkpoints {
    pub snapshot: Vec<f64>,
    pub restore: Vec<f64>,
    pub rollup: Vec<f64>,
}

/// Runs `phase` once, appending its wall time in seconds to `times`.
pub fn timed<T>(times: &mut Vec<f64>, phase: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = black_box(phase());
    times.push(t.elapsed().as_secs_f64());
    out
}

/// Per-call latencies of one query stream, each tagged with whether it
/// took the slow path and whether its round was traced.
#[derive(Default)]
pub struct Latencies {
    samples: Vec<(f64, bool, bool)>,
}

impl Latencies {
    pub fn push(&mut self, us: f64, slow: bool, traced: bool) {
        self.samples.push((us, slow, traced));
    }

    /// Latencies (µs) of untraced (`traced == false`) or traced calls,
    /// optionally restricted to one path.
    pub fn select(&self, traced: bool, slow: Option<bool>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.2 == traced && slow.is_none_or(|want| s.1 == want))
            .map(|s| s.0)
            .collect()
    }

    /// Share of slow-path calls among the untraced or traced calls.
    pub fn slow_share(&self, traced: bool) -> f64 {
        let all = self.samples.iter().filter(|s| s.2 == traced).count();
        let slow = self.samples.iter().filter(|s| s.2 == traced && s.1).count();
        ratio(slow as f64, all as f64)
    }

    /// The `meta` record for the percentiles of one sample set: sample
    /// count, calls beyond p99, the slow-path share and each path's
    /// median, so a reader can see which mode each percentile sits in.
    pub fn describe(&self, traced: bool) -> String {
        let all = self.select(traced, None);
        let n = all.len();
        let p99 = quantile(&all, 0.99);
        let beyond = all.iter().filter(|&&x| x > p99).count();
        let slow = self.select(traced, Some(true));
        format!(
            "{{\"samples\":{n},\"beyond_p99\":{beyond},\"slow_share\":{},\"slow_samples\":{},\
             \"fast_p50_us\":{},\"slow_p50_us\":{}}}",
            json_num(self.slow_share(traced)),
            slow.len(),
            json_num(median(&self.select(traced, Some(false)))),
            json_num(median(&slow)),
        )
    }
}

/// Timed ingest rounds: `(seconds, events, traced)` per round.
#[derive(Default)]
pub struct Rounds {
    rows: Vec<(f64, usize, bool)>,
}

impl Rounds {
    pub fn push(&mut self, secs: f64, events: usize, traced: bool) {
        self.rows.push((secs, events, traced));
    }

    /// Median over rounds of events per second.
    pub fn median_rate(&self, traced: bool) -> f64 {
        let rates: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.2 == traced)
            .map(|r| ratio(r.1 as f64, r.0))
            .collect();
        median(&rates)
    }

    pub fn events(&self, traced: bool) -> usize {
        self.rows
            .iter()
            .filter(|r| r.2 == traced)
            .map(|r| r.1)
            .sum()
    }

    pub fn ns_per_event(&self, traced: bool) -> f64 {
        let secs: f64 = self
            .rows
            .iter()
            .filter(|r| r.2 == traced)
            .map(|r| r.0)
            .sum();
        ratio(secs * 1e9, self.events(traced) as f64)
    }

    pub fn count(&self) -> usize {
        self.rows.len()
    }
}

/// The end-to-end ingest and query figures of an untraced run.
pub fn record_end_to_end(out: &mut Outcome, rounds: &Rounds, lat: &Latencies) {
    out.set("ingest_events_per_s", rounds.median_rate(false));
    let all = lat.select(false, None);
    out.set("query_p50_us", quantile(&all, 0.5));
    out.set("query_p99_us", quantile(&all, 0.99));
    out.meta("query", lat.describe(false));
    out.meta("ingest_rounds", rounds.count().to_string());
}

/// The reconciliation metrics of a traced run, which alternates traced
/// and untraced rounds: how much of the untraced ingest cost per event
/// the `ingest` span's children explain, how much of the untraced mean
/// query latency the replica-timed layer model (`query_model_us`)
/// explains, and what tracing itself costs.
pub fn record_reconciliation(
    out: &mut Outcome,
    tr: &Tracer,
    rounds: &Rounds,
    lat: &Latencies,
    query_model_us: f64,
) {
    let untraced = rounds.ns_per_event(false);
    let layers = ratio(tr.children_ns("ingest"), rounds.events(true) as f64);
    out.set("ingest.unexplained_frac", 1.0 - ratio(layers, untraced));
    out.set(
        "trace.ingest_overhead_frac",
        ratio(rounds.ns_per_event(true), untraced) - 1.0,
    );
    let plain = mean(&lat.select(false, None));
    out.set("query.unexplained_frac", 1.0 - ratio(query_model_us, plain));
    out.set(
        "trace.query_overhead_frac",
        ratio(mean(&lat.select(true, None)), plain) - 1.0,
    );
    out.set("query.slow_share", lat.slow_share(true));
    out.set("query.samples", lat.select(true, None).len() as f64);
    out.meta("query", lat.describe(true));
    out.meta("ingest_rounds", rounds.count().to_string());
}

// ---------------------------------------------------------------------
// Results

/// What one run reports: the operation tally, named metrics, and the
/// run metadata printed ahead of the result line.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a metadata entry; `json` is a raw JSON value.
    pub fn meta(&mut self, key: &str, json: impl Into<String>) {
        self.meta.push((key.to_string(), json.into()));
    }

    /// Counts one checked operation; a false `ok` counts as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }

    /// Runs one operation whose `None` answer or panic counts as failed.
    pub fn guarded<T>(&mut self, what: &str, op: impl FnOnce() -> Option<T>) -> Option<T> {
        let got = catch_unwind(AssertUnwindSafe(op)).ok().flatten();
        self.check(got.is_some(), || format!("{what}: no answer"));
        got
    }
}

/// A finite f64 as JSON (non-finite values become 0 and are counted
/// by the caller's checks, never printed as NaN).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// Tracing

const NO_SPAN: u32 = u32::MAX;

/// One timed call into a layer.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

/// In-memory span recorder. While off, `open`/`close` do nothing, so
/// the untraced rounds of a traced run cost what an untraced run does.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on;
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn open(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_SPAN);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Total duration of the direct children of every `parent`-named
    /// span: the part of that phase the layer spans explain.
    pub fn children_ns(&self, parent: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent != NO_SPAN && self.spans[s.parent as usize].name == parent)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    }

    /// Writes the spans (one JSON object per line) and the run's metrics.
    pub fn write(&self, path: &Path, outcome: &Outcome) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::with_capacity(self.spans.len() * 80);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        for (name, value) in &outcome.metrics {
            let _ = writeln!(
                text,
                "{{\"counter\":\"{name}\",\"value\":{}}}",
                json_num(*value)
            );
        }
        std::fs::write(path, text)
    }
}

// ---------------------------------------------------------------------
// Session ingest

/// The two buffered sessions behind one feed loop.
pub trait Session {
    fn put(&mut self, key: &str, epoch: u64, hash: u64);
    fn buffered(&self) -> usize;
}

impl Session for IngestSession<'_> {
    fn put(&mut self, key: &str, _epoch: u64, hash: u64) {
        self.insert(key, hash);
    }
    fn buffered(&self) -> usize {
        self.buffered_hashes()
    }
}

impl Session for WindowIngestSession<'_> {
    fn put(&mut self, key: &str, epoch: u64, hash: u64) {
        self.insert(key, epoch, hash);
    }
    fn buffered(&self) -> usize {
        self.buffered_hashes()
    }
}

/// Buffers `evs` into `session`, hashing each element in line as the
/// CLI does. Traced, hashing runs as its own pass and the inserts are
/// cut at the auto-flush boundary, so the one insert that flushes is
/// timed as `session.flush` and the rest as `session.buffer`. Returns
/// the number of auto-flushes, detected by `buffered()` resetting.
pub fn feed<S: Session>(
    session: &mut S,
    labels: &[String],
    evs: &[Ev],
    auto_flush: usize,
    tr: &mut Tracer,
) -> u64 {
    let hasher = element_hasher();
    if !tr.on() {
        for e in evs {
            session.put(
                &labels[e.key as usize],
                u64::from(e.epoch),
                hasher.hash_u64(e.id),
            );
        }
        return 0;
    }
    let span = tr.open("hash");
    let hashes: Vec<u64> = evs.iter().map(|e| hasher.hash_u64(e.id)).collect();
    tr.close(span);
    let mut flushes = 0;
    let mut i = 0;
    while i < evs.len() {
        // Inserts that cannot reach the threshold: buffered + 1 < auto_flush.
        let room = auto_flush.saturating_sub(session.buffered() + 1);
        let end = (i + room).min(evs.len());
        let span = tr.open("session.buffer");
        for j in i..end {
            let e = &evs[j];
            session.put(&labels[e.key as usize], u64::from(e.epoch), hashes[j]);
        }
        tr.close(span);
        i = end;
        if i < evs.len() {
            let e = &evs[i];
            let span = tr.open("session.flush");
            session.put(&labels[e.key as usize], u64::from(e.epoch), hashes[i]);
            tr.close(span);
            if session.buffered() == 0 {
                flushes += 1;
            }
            i += 1;
        }
    }
    flushes
}

// ---------------------------------------------------------------------
// Layer timings on replicas

/// Medians (µs) of single calls into the sketch layers, taken on
/// replicas of a workload's own sketches.
pub struct SketchProbe {
    pub from_sketch_us: f64,
    pub snapshot_us: f64,
    pub scan_us: f64,
    pub cached_us: f64,
    pub merge_us: f64,
    pub clone_us: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub ratio: f64,
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Times `AtomicExaLogLog::from_sketch`, `snapshot`, the ML estimate
/// with and without the coefficient cache, `merge_from`, `clone_from`,
/// and `compress`/`decompress` on `sample` (cycled to `reps` calls
/// each). Round trips are checked into `out`.
pub fn probe_sketches(sample: &[ExaLogLog], reps: usize, out: &mut Outcome) -> SketchProbe {
    assert!(sample.len() >= 2, "the replica probe needs two sketches");
    let mut t_from = Vec::with_capacity(reps);
    let mut t_snap = Vec::with_capacity(reps);
    let mut t_scan = Vec::with_capacity(reps);
    let mut t_cached = Vec::with_capacity(reps);
    let mut t_merge = Vec::with_capacity(reps);
    let mut t_clone = Vec::with_capacity(reps);
    let mut t_enc = Vec::with_capacity(reps);
    let mut t_dec = Vec::with_capacity(reps);
    let mut raw_bytes = 0usize;
    let mut packed_bytes = 0usize;
    for r in 0..reps {
        let s = &sample[r % sample.len()];
        let other = &sample[(r + 1) % sample.len()];

        let t = Instant::now();
        let atomic = black_box(AtomicExaLogLog::from_sketch(s));
        t_from.push(us_since(t));
        let t = Instant::now();
        let snap = black_box(atomic.snapshot());
        t_snap.push(us_since(t));
        let t = Instant::now();
        let scanned = black_box(snap.estimate());
        t_scan.push(us_since(t));
        let mut cached = snap.clone();
        cached.refresh_coefficients();
        let t = Instant::now();
        let from_cache = black_box(cached.estimate());
        t_cached.push(us_since(t));
        out.check(scanned.to_bits() == from_cache.to_bits(), || {
            format!("replica {r}: scan estimate {scanned} != cached {from_cache}")
        });

        let mut acc = s.clone();
        let t = Instant::now();
        let merged = acc.merge_from(other);
        t_merge.push(us_since(t));
        out.check(merged.is_ok(), || format!("replica {r}: merge failed"));
        let t = Instant::now();
        acc.clone_from(black_box(other));
        t_clone.push(us_since(t));

        let t = Instant::now();
        let bytes = black_box(compress(s));
        t_enc.push(us_since(t));
        let t = Instant::now();
        let back = black_box(decompress(&bytes));
        t_dec.push(us_since(t));
        out.check(back.is_ok_and(|b| b.registers().eq(s.registers())), || {
            format!("replica {r}: compress round trip changed registers")
        });
        raw_bytes += s.register_bytes().len();
        packed_bytes += bytes.len();
    }
    SketchProbe {
        from_sketch_us: median(&t_from),
        snapshot_us: median(&t_snap),
        scan_us: median(&t_scan),
        cached_us: median(&t_cached),
        merge_us: median(&t_merge),
        clone_us: median(&t_clone),
        encode_us: median(&t_enc),
        decode_us: median(&t_dec),
        ratio: ratio(raw_bytes as f64, packed_bytes as f64),
    }
}

impl SketchProbe {
    pub fn record(&self, out: &mut Outcome) {
        out.set("atomic.from_sketch_us", self.from_sketch_us);
        out.set("atomic.snapshot_us", self.snapshot_us);
        out.set("ml.estimate_scan_us", self.scan_us);
        out.set("ml.estimate_cached_us", self.cached_us);
        out.set("sketch.merge_us", self.merge_us);
        out.set("sketch.clone_us", self.clone_us);
        out.set("compress.encode_us", self.encode_us);
        out.set("compress.decode_us", self.decode_us);
        out.set("compress.ratio", self.ratio);
    }
}

// ---------------------------------------------------------------------
// Layer timings on scratch stores

/// Layer timings taken on small scratch stores fed a slice of a
/// workload's events. A workload reports these for the layers its own
/// path bypasses, so every per-layer metric is a measured number on
/// every workload; the run's `meta` says which metrics came from here.
pub struct StoreProbe {
    pub ingest_ns_per_event: f64,
    pub buffer_ns_per_event: f64,
    pub flush_ms: f64,
    pub sweep_ms: f64,
    pub estimate_hot_us: f64,
    pub estimate_revive_us: f64,
    pub advance_ms: f64,
    pub query_hit_us: f64,
    pub query_rebuild_us: f64,
}

const PROBE_EPOCHS: u64 = 24;
const PROBE_WINDOW: usize = 8;

pub fn probe_stores(cfg: EllConfig, labels: &[String], evs: &[Ev], spill: &Path) -> StoreProbe {
    let hasher = element_hasher();
    // The busiest keys: dense enough to reach the atomic path.
    let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
    for e in evs {
        *counts.entry(e.key).or_default() += 1;
    }
    let mut by_count: Vec<(usize, u32)> = counts.into_iter().map(|(k, n)| (n, k)).collect();
    by_count.sort_unstable_by(|a, b| b.cmp(a));
    let keys: Vec<u32> = by_count.into_iter().take(256).map(|(_, k)| k).collect();

    // Direct batched ingest into a tiered store.
    let mut direct = EllStore::new(16, cfg).expect("power-of-two shards");
    direct.set_tier_config(
        TierConfig::new()
            .warm_after(1)
            .cold_after(2)
            .spill_dir(spill),
    );
    let mut ingest_ns = 0.0;
    let mut batch: Vec<(&str, u64)> = Vec::with_capacity(1024);
    for chunk in evs.chunks(1024) {
        batch.clear();
        batch.extend(
            chunk
                .iter()
                .map(|e| (labels[e.key as usize].as_str(), hasher.hash_u64(e.id))),
        );
        let t = Instant::now();
        direct.ingest(&batch);
        ingest_ns += t.elapsed().as_nanos() as f64;
    }

    // Session buffering and flushes into a second store.
    let buffered = EllStore::new(16, cfg).expect("power-of-two shards");
    let mut tr = Tracer::new();
    tr.set_on(true);
    let mut session = buffered.session().with_auto_flush(4096);
    feed(&mut session, labels, evs, 4096, &mut tr);
    drop(session);

    // Sweeps, resident estimates and revivals on the tiered store.
    // Every sweep demotes every key (all are idle a tick); the first
    // estimate revives a key, the second reads it resident. Only keys
    // that were dense count, so both paths carry a dense payload.
    let mut sweeps = Vec::new();
    let mut hot = Vec::new();
    let mut revive = Vec::new();
    let mut dense = vec![false; keys.len()];
    for _ in 0..6 {
        direct.tick();
        let t = Instant::now();
        direct.demote_idle();
        sweeps.push(t.elapsed().as_secs_f64() * 1e3);
        for (j, &k) in keys.iter().enumerate() {
            let label = &labels[k as usize];
            let demoted = matches!(direct.key_tier(label), Some(Tier::Warm | Tier::Cold));
            let t = Instant::now();
            black_box(direct.estimate(label));
            if demoted && dense[j] {
                revive.push(us_since(t));
            }
            dense[j] = direct.key_tier(label) == Some(Tier::Hot);
            let t = Instant::now();
            black_box(direct.estimate(label));
            if dense[j] {
                hot.push(us_since(t));
            }
        }
    }

    // Rotation and trailing-window queries on a windowed store.
    let mut window = WindowedStore::new(16, cfg, PROBE_WINDOW).expect("valid window");
    window.set_warm_after(Some(2));
    let mut advances = Vec::new();
    let mut hits = Vec::new();
    let mut rebuilds = Vec::new();
    let per_epoch = evs.len().div_ceil(PROBE_EPOCHS as usize).max(1);
    for (epoch, chunk) in (0..PROBE_EPOCHS).zip(evs.chunks(per_epoch)) {
        let t = Instant::now();
        window.advance(epoch);
        advances.push(t.elapsed().as_secs_f64() * 1e3);
        batch.clear();
        batch.extend(
            chunk
                .iter()
                .map(|e| (labels[e.key as usize].as_str(), hasher.hash_u64(e.id))),
        );
        window.ingest(epoch, &batch);
        for &k in keys.iter().take(16) {
            for last_k in 1..=PROBE_WINDOW {
                let before = window.window_stats().lazy_rebuilds;
                let t = Instant::now();
                black_box(window.estimate_window(&labels[k as usize], last_k));
                let us = us_since(t);
                if window.window_stats().lazy_rebuilds > before {
                    rebuilds.push(us);
                } else {
                    hits.push(us);
                }
            }
        }
    }

    StoreProbe {
        ingest_ns_per_event: ratio(ingest_ns, evs.len() as f64),
        buffer_ns_per_event: ratio(tr.total_ns("session.buffer"), evs.len() as f64),
        flush_ms: median(&tr.durations("session.flush")) / 1e6,
        sweep_ms: median(&sweeps),
        estimate_hot_us: median(&hot),
        estimate_revive_us: median(&revive),
        advance_ms: median(&advances),
        query_hit_us: median(&hits),
        query_rebuild_us: median(&rebuilds),
    }
}
