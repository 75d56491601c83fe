//! End-to-end and per-layer benchmark of the keyed, hot-key and
//! windowed ExaLogLog stores.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload keyed_longtail|hot_keys|window_sliding \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run is a closed loop on one thread: the next call is issued
//! when the previous one returns. Inputs are generated from the seed
//! outside every timed region. Every timed phase repeats within the run
//! and the median is reported; query percentiles pool every call.
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it prints the per-layer metrics instead. A traced run
//! alternates traced and untraced rounds over the same inputs, so the
//! tracing overhead and the share of each end-to-end figure the layer
//! spans do not explain come from one process. Spans are kept in memory
//! and written to `.perfbench-out/` when the run ends.
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! (`meta {...}`) records the seed, scan kernel, core count, run length,
//! repetitions per phase, sample counts and slow-path shares.

mod common;
mod hot;
mod keyed;
mod window;

use common::{json_num, json_str, Outcome, Tracer};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_events_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("rollup_s", "s"),
    ("snapshot_s", "s"),
    ("restore_s", "s"),
    ("bytes_per_key", "B"),
    ("snapshot_bytes_per_key", "B"),
    ("peak_rss_mb", "MiB"),
    ("rel_err_rms", "frac"),
];

/// Per-layer metrics: name and unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("hash.ns_per_event", "ns"),
    ("session.buffer_ns_per_event", "ns"),
    ("session.flush_ms_p50", "ms"),
    ("session.flush_count", "count"),
    ("session.flush_share", "frac"),
    ("store.ingest_ns_per_event", "ns"),
    ("store.estimate_hot_us_p50", "us"),
    ("store.estimate_revive_us_p50", "us"),
    ("store.rollup_ms", "ms"),
    ("store.hot_keys", "count"),
    ("store.sparse_keys", "count"),
    ("atomic.from_sketch_us", "us"),
    ("atomic.snapshot_us", "us"),
    ("ml.estimate_scan_us", "us"),
    ("ml.estimate_cached_us", "us"),
    ("sketch.merge_us", "us"),
    ("sketch.clone_us", "us"),
    ("compress.encode_us", "us"),
    ("compress.decode_us", "us"),
    ("compress.ratio", "ratio"),
    ("tiers.sweep_ms_p50", "ms"),
    ("tiers.sweep_share", "frac"),
    ("tiers.demotions_warm", "count"),
    ("tiers.demotions_cold", "count"),
    ("tiers.promotions", "count"),
    ("tiers.parked_deltas", "count"),
    ("tiers.warm_keys", "count"),
    ("tiers.cold_keys", "count"),
    ("tiers.spilled_bytes", "B"),
    ("window.advance_ms_p50", "ms"),
    ("window.advance_share", "frac"),
    ("window.query_hit_us_p50", "us"),
    ("window.query_rebuild_us_p50", "us"),
    ("window.suffix_hits", "count"),
    ("window.lazy_rebuilds", "count"),
    ("window.entries_built", "count"),
    ("window.dirty_invalidations", "count"),
    ("window.rebuild_share", "frac"),
    ("query.slow_share", "frac"),
    ("query.samples", "count"),
    ("ingest.unexplained_frac", "frac"),
    ("query.unexplained_frac", "frac"),
    ("trace.ingest_overhead_frac", "frac"),
    ("trace.query_overhead_frac", "frac"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Per-process scratch directory inside the working directory
    /// (spill segments); removed when the run ends.
    pub scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds expects an integer")?);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace expects 0 or 1".into()),
            },
            other => return Err(format!("unknown option {other}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        scratch: PathBuf::from(".perfbench-tmp").join(std::process::id().to_string()),
    })
}

/// Not a benchmark workload: times a dependent compute loop and a
/// dependent random walk over 64 MiB (median of 5 repetitions each), so
/// `steadiness.py --host-noise` can show how much a compute-bound and a
/// memory-bound figure move between processes on this host.
fn host_noise() {
    // Sattolo's shuffle: one cycle through all 8 Mi slots, so the walk
    // never settles into a cached loop.
    let mut table: Vec<usize> = (0..8usize << 20).collect();
    let mut rng = ell_hash::SplitMix64::new(0x05A7_7010);
    for i in (1..table.len()).rev() {
        let j = (rng.next_u64() % i as u64) as usize;
        table.swap(i, j);
    }
    let mut compute = Vec::new();
    let mut memory = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut x = 1u64;
        for _ in 0..20_000_000 {
            x = ell_hash::mix64(x);
        }
        std::hint::black_box(x);
        compute.push(t.elapsed().as_nanos() as f64 / 2e7);
        let t = Instant::now();
        let mut idx = 0usize;
        for _ in 0..5_000_000 {
            idx = table[idx];
        }
        std::hint::black_box(idx);
        memory.push(t.elapsed().as_nanos() as f64 / 5e6);
    }
    println!(
        "{{\"compute_ns_per_op\":{},\"memory_ns_per_access\":{}}}",
        json_num(common::median(&compute)),
        json_num(common::median(&memory))
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let run: fn(&Args) -> (Outcome, Tracer) = match args.workload.as_str() {
        "host_noise" => {
            host_noise();
            return ExitCode::SUCCESS;
        }
        "keyed_longtail" => keyed::run,
        "hot_keys" => hot::run,
        "window_sliding" => window::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let (mut out, tracer) = run(&args);
    let _ = std::fs::remove_dir_all(&args.scratch);

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in table {
        let value = out.metrics.get(name).copied();
        out.check(value.is_some_and(f64::is_finite), || {
            format!("metric {name} missing or not finite: {value:?}")
        });
    }
    out.meta("workload", json_str(&args.workload));
    out.meta("seed", args.seed.to_string());
    out.meta("trace", args.trace.to_string());
    out.meta("scan_kernel", json_str(exaloglog::kernels::active().name()));
    out.meta(
        "nproc",
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .to_string(),
    );
    out.meta("run_seconds", args.seconds.to_string());
    out.meta("wall_seconds", json_num(started.elapsed().as_secs_f64()));

    if args.trace {
        let path = PathBuf::from(".perfbench-out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write(&path, &out) {
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
            Ok(()) => out.meta("trace_file", json_str(&path.display().to_string())),
        }
    }

    let mut lines = String::new();
    for (name, unit) in table {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        lines.push_str(&format!("{name:32} {:>18} {unit}\n", json_num(value)));
    }
    print!("{lines}");
    let meta: Vec<String> = out
        .meta
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!("meta {{{}}}", meta.join(","));
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
