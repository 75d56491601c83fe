//! Machine-readable insert benchmark: single-hash vs batched insertion
//! for every registered sketch type, written as `BENCH_insert.json` so
//! the repository accumulates a performance trajectory across commits.
//!
//! ```text
//! bench_insert [--quick] [--out FILE] [--hashes N] [--reps N] [--p P]
//! ```
//!
//! `--quick` shrinks the workload so the whole sweep finishes in a few
//! seconds (the CI bench-smoke job runs exactly this). Timings are the
//! median over `--reps` fresh-sketch runs, reported in ns per inserted
//! hash; `speedup` is single/batch.
//!
//! Both paths are timed through `Box<dyn Sketch>` — the facade dynamic
//! consumers (CLI, registry users) actually call — so `speedup` is the
//! realistic end-to-end gain: one virtual `insert_hashes` call per block
//! versus one virtual `insert_hash` call per element. That means it
//! includes virtual-call amortization on top of any handwritten batch
//! hot path (types with only the default batch loop still show a small
//! speedup from dispatch alone); the JSON records this as
//! `"dispatch": "dyn"`. For the isolated, monomorphized effect of the
//! unrolled batch paths, see the `batch_vs_single` criterion bench.

use ell_baselines::{build_sketch, ALGORITHMS};
use ell_bench::hashes;
use std::time::Instant;

struct Args {
    quick: bool,
    out: String,
    hashes: usize,
    reps: usize,
    p: u8,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        out: "BENCH_insert.json".to_string(),
        hashes: 0,
        reps: 0,
        p: 12,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let need = |argv: &[String], i: usize, flag: &str| -> String {
        argv.get(i + 1)
            .unwrap_or_else(|| {
                eprintln!("bench_insert: missing value for {flag}");
                std::process::exit(2);
            })
            .clone()
    };
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
            "--hashes" => {
                args.hashes = need(&argv, i, "--hashes").parse().unwrap_or_else(|_| {
                    eprintln!("bench_insert: --hashes expects an integer");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--reps" => {
                args.reps = need(&argv, i, "--reps").parse().unwrap_or_else(|_| {
                    eprintln!("bench_insert: --reps expects an integer");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--p" => {
                args.p = need(&argv, i, "--p").parse().unwrap_or_else(|_| {
                    eprintln!("bench_insert: --p expects a small integer");
                    std::process::exit(2);
                });
                i += 2;
            }
            other => {
                eprintln!("bench_insert: unknown option {other}");
                std::process::exit(2);
            }
        }
    }
    if args.hashes == 0 {
        args.hashes = if args.quick { 100_000 } else { 2_000_000 };
    }
    if args.reps == 0 {
        args.reps = if args.quick { 3 } else { 7 };
    }
    args
}

/// Median wall time of `reps` runs of `f`, in seconds.
fn median_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

fn main() {
    let args = parse_args();
    let stream = hashes(args.hashes, 0xBE7C);
    let per_op = 1e9 / args.hashes as f64;

    let mut rows = Vec::new();
    for &algo in ALGORITHMS {
        let build = || {
            build_sketch(algo, args.p).unwrap_or_else(|e| {
                eprintln!("bench_insert: cannot build {algo}: {e}");
                std::process::exit(1);
            })
        };
        let single = median_secs(args.reps, || {
            let mut s = build();
            for &h in &stream {
                s.insert_hash(h);
            }
            std::hint::black_box(&s);
        }) * per_op;
        let batch = median_secs(args.reps, || {
            let mut s = build();
            s.insert_hashes(&stream);
            std::hint::black_box(&s);
        }) * per_op;
        let name = build().name();
        println!(
            "{algo:<16} single {single:8.2} ns/op   batch {batch:8.2} ns/op   speedup {:.2}x",
            single / batch
        );
        rows.push(format!(
            "    {{\"algo\": \"{algo}\", \"name\": \"{name}\", \
             \"single_ns_per_op\": {single:.3}, \"batch_ns_per_op\": {batch:.3}, \
             \"speedup\": {:.3}}}",
            single / batch
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"insert\",\n  \"mode\": \"{}\",\n  \"dispatch\": \"dyn\",\n  \
         \"precision_p\": {},\n  \
         \"hashes_per_run\": {},\n  \"reps\": {},\n  \"unit\": \"ns_per_op\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        if args.quick { "quick" } else { "full" },
        args.p,
        args.hashes,
        args.reps,
        rows.join(",\n")
    );
    std::fs::write(&args.out, &json).unwrap_or_else(|e| {
        eprintln!("bench_insert: cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    println!("wrote {}", args.out);
}
