//! Machine-readable keyed-store benchmark: multithreaded ingest
//! throughput over a Zipf-keyed workload, written as `BENCH_store.json`
//! so the repository accumulates a scaling trajectory across commits.
//!
//! ```text
//! bench_store [--quick] [--out FILE] [--ops N] [--keys N] [--zipf S]
//!             [--shards N] [--threads LIST]
//! ```
//!
//! For every thread count in `--threads` (comma-separated, e.g.
//! `1,2,4`) the benchmark ingests the *same* pre-generated
//! `(key, hash)` workload into a fresh [`ell_store::EllStore`], split
//! into contiguous per-thread slices fed through buffered
//! [`ell_store::IngestSession`]s (one per worker). Reported figures are
//! ns per event (median over `--reps` runs) and events/s.
//!
//! Requested thread counts are clamped to `available_parallelism` and
//! each result row records both `threads_requested` and `threads`
//! (effective); when any clamp fired, the top-level `"unreliable"` flag
//! is set so the CI scaling gate knows to skip. The JSON also carries
//! `scaling_factor`: single-thread ns/event divided by the ns/event of
//! the highest effective thread count.
//!
//! Two store laws are verified on every run and recorded in the JSON:
//!
//! * `deterministic_across_threads` — the final snapshot bytes are
//!   identical for every thread count (monotone per-key state,
//!   flush-timing-independent session drains);
//! * `roundtrip_ok` — snapshot → restore reproduces every per-key
//!   estimate bit-for-bit.

use ell_sim::workload::{key_label, KeyedStream};
use ell_store::EllStore;
use exaloglog::EllConfig;
use std::time::Instant;

struct Args {
    quick: bool,
    out: String,
    ops: usize,
    keys: usize,
    zipf: f64,
    shards: usize,
    reps: usize,
    threads: Vec<usize>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        out: "BENCH_store.json".to_string(),
        ops: 0,
        keys: 10_000,
        zipf: 1.0,
        shards: 64,
        reps: 0,
        threads: Vec::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let need = |argv: &[String], i: usize, flag: &str| -> String {
        argv.get(i + 1)
            .unwrap_or_else(|| {
                eprintln!("bench_store: missing value for {flag}");
                std::process::exit(2);
            })
            .clone()
    };
    let parse_or_die = |value: String, flag: &str| -> usize {
        value.parse().unwrap_or_else(|_| {
            eprintln!("bench_store: {flag} expects an integer");
            std::process::exit(2);
        })
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => {
                args.quick = true;
                i += 1;
            }
            "--out" => {
                args.out = need(&argv, i, "--out");
                i += 2;
            }
            "--ops" => {
                args.ops = parse_or_die(need(&argv, i, "--ops"), "--ops");
                i += 2;
            }
            "--keys" => {
                args.keys = parse_or_die(need(&argv, i, "--keys"), "--keys");
                i += 2;
            }
            "--shards" => {
                args.shards = parse_or_die(need(&argv, i, "--shards"), "--shards");
                i += 2;
            }
            "--reps" => {
                args.reps = parse_or_die(need(&argv, i, "--reps"), "--reps");
                i += 2;
            }
            "--zipf" => {
                args.zipf = need(&argv, i, "--zipf").parse().unwrap_or_else(|_| {
                    eprintln!("bench_store: --zipf expects a number");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--threads" => {
                args.threads = need(&argv, i, "--threads")
                    .split(',')
                    .map(|part| parse_or_die(part.to_string(), "--threads"))
                    .collect();
                i += 2;
            }
            other => {
                eprintln!("bench_store: unknown option {other}");
                std::process::exit(2);
            }
        }
    }
    if args.ops == 0 {
        args.ops = if args.quick { 300_000 } else { 4_000_000 };
    }
    if args.reps == 0 {
        args.reps = if args.quick { 3 } else { 5 };
    }
    if args.threads.is_empty() {
        // Always report at least two thread counts so the JSON carries a
        // scaling signal even in quick mode.
        args.threads = if args.quick {
            vec![1, 4]
        } else {
            vec![1, 2, 4, 8]
        };
    }
    if args.threads.contains(&0) {
        eprintln!("bench_store: thread counts must be positive");
        std::process::exit(2);
    }
    args
}

/// One timed ingest of `events` into a fresh store with `threads`
/// contiguous workers, each buffering through its own
/// [`ell_store::IngestSession`]; returns the elapsed seconds (including
/// the final flush barrier) and the store.
fn run_once(events: &[(String, u64)], shards: usize, threads: usize) -> (f64, EllStore) {
    let store = EllStore::new(shards, EllConfig::aligned32(11).expect("valid preset"))
        .expect("power-of-two shard count");
    let chunk = events.len().div_ceil(threads);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for part in events.chunks(chunk) {
            let store = &store;
            scope.spawn(move || {
                let mut session = store.session();
                for (key, hash) in part {
                    session.insert(key, *hash);
                }
                // Dropping the session flushes and drains; keep it
                // inside the timed region — the barrier is part of the
                // ingest cost.
            });
        }
    });
    (t0.elapsed().as_secs_f64(), store)
}

fn main() {
    let args = parse_args();
    if !args.shards.is_power_of_two() || args.shards == 0 {
        eprintln!("bench_store: --shards must be a nonzero power of two");
        std::process::exit(2);
    }
    println!(
        "generating {} events over {} Zipf({}) keys ...",
        args.ops, args.keys, args.zipf
    );
    let events: Vec<(String, u64)> = KeyedStream::new(args.keys, args.zipf, 1 << 30, 0xE11)
        .take(args.ops)
        .map(|e| (key_label(e.key), e.hash))
        .collect();
    let per_op = 1e9 / args.ops as f64;

    // Bench honesty: never run more workers than the machine has cores
    // — oversubscribed "scaling" numbers are noise. Rows keep the
    // requested count so the JSON shows what was asked for.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut unreliable = false;
    let mut rows = Vec::new();
    let mut measured: Vec<(usize, f64)> = Vec::new(); // (effective threads, ns/event)
    let mut reference_snapshot: Option<Vec<u8>> = None;
    let mut deterministic = true;
    let mut last_store = None;
    for &requested in &args.threads {
        let threads = requested.min(cores);
        if threads != requested {
            unreliable = true;
            eprintln!(
                "bench_store: clamping {requested} threads to {threads} \
                 (available_parallelism = {cores}); scaling figures are unreliable"
            );
        }
        let mut times = Vec::with_capacity(args.reps);
        let mut store = None;
        for _ in 0..args.reps {
            let (secs, s) = run_once(&events, args.shards, threads);
            times.push(secs);
            store = Some(s);
        }
        times.sort_by(f64::total_cmp);
        let median = times[times.len() / 2];
        let store = store.expect("at least one rep");
        let snapshot = store.snapshot_bytes();
        match &reference_snapshot {
            None => reference_snapshot = Some(snapshot),
            Some(reference) => {
                if *reference != snapshot {
                    deterministic = false;
                    eprintln!("bench_store: {threads}-thread snapshot diverged!");
                }
            }
        }
        let ns = median * per_op;
        let throughput = args.ops as f64 / median;
        println!(
            "threads {threads:>2} (req {requested:>2})   {ns:8.1} ns/event   \
             {throughput:10.0} events/s   {} keys",
            store.key_count()
        );
        rows.push(format!(
            "    {{\"threads\": {threads}, \"threads_requested\": {requested}, \
             \"ns_per_event\": {ns:.3}, \"events_per_sec\": {throughput:.0}}}"
        ));
        measured.push((threads, ns));
        last_store = Some(store);
    }

    // Scaling factor: single-thread ns/event over the ns/event of the
    // highest effective thread count (1.0 when only one effective count
    // was measured).
    let baseline = measured
        .iter()
        .find(|(t, _)| *t == 1)
        .or(measured.first())
        .map_or(f64::NAN, |&(_, ns)| ns);
    let (scaling_threads, scaling_factor) = measured
        .iter()
        .max_by_key(|(t, _)| *t)
        .map_or((1, 1.0), |&(t, ns)| (t, baseline / ns));
    println!(
        "scaling: {scaling_factor:.2}x at {scaling_threads} effective threads{}",
        if unreliable {
            " (UNRELIABLE: thread counts were clamped)"
        } else {
            ""
        }
    );

    // Snapshot → restore must reproduce every per-key estimate
    // bit-for-bit.
    let store = last_store.expect("at least one thread count");
    let snapshot = store.snapshot_bytes();
    let restored = EllStore::from_snapshot_bytes(&snapshot).unwrap_or_else(|e| {
        eprintln!("bench_store: snapshot failed to restore: {e}");
        std::process::exit(1);
    });
    let roundtrip_ok = store
        .estimates()
        .iter()
        .zip(restored.estimates().iter())
        .all(|((ka, ea), (kb, eb))| ka == kb && ea.to_bits() == eb.to_bits())
        && store.key_count() == restored.key_count();
    println!(
        "snapshot {} bytes, {} keys, roundtrip {}",
        snapshot.len(),
        store.key_count(),
        if roundtrip_ok { "ok" } else { "FAILED" }
    );
    if !roundtrip_ok || !deterministic {
        eprintln!("bench_store: store law violated (see above)");
        std::process::exit(1);
    }

    // Deep resident-memory accounting (maps, keys, per-key sketch
    // heap) — comparable against bench_tiers' bytes-per-key figures.
    let memory_bytes = store.memory_bytes();
    let bytes_per_key = memory_bytes as f64 / store.key_count().max(1) as f64;
    println!(
        "resident: {memory_bytes} bytes ({bytes_per_key:.0} per key across {} keys)",
        store.key_count()
    );

    let json = format!(
        "{{\n  \"bench\": \"store\",\n  \"mode\": \"{}\",\n  \"ops\": {},\n  \
         \"key_universe\": {},\n  \"zipf_s\": {},\n  \"shards\": {},\n  \"reps\": {},\n  \
         \"available_parallelism\": {cores},\n  \
         \"scaling_factor\": {scaling_factor:.3},\n  \"scaling_threads\": {scaling_threads},\n  \
         \"unreliable\": {unreliable},\n  \
         \"unit\": \"ns_per_event\",\n  \"snapshot_bytes\": {},\n  \
         \"memory_bytes\": {memory_bytes},\n  \"bytes_per_key\": {bytes_per_key:.1},\n  \
         \"deterministic_across_threads\": {},\n  \"roundtrip_ok\": {},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        if args.quick { "quick" } else { "full" },
        args.ops,
        args.keys,
        args.zipf,
        args.shards,
        args.reps,
        snapshot.len(),
        deterministic,
        roundtrip_ok,
        rows.join(",\n")
    );
    std::fs::write(&args.out, &json).unwrap_or_else(|e| {
        eprintln!("bench_store: cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    println!("wrote {}", args.out);
}
