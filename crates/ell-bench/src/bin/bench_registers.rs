//! Machine-readable register-engine benchmark: measures the three fast
//! paths of the width-specialized register engine against their reference
//! implementations *in the same run*, and verifies bit-identical results
//! while doing so. Written as `BENCH_registers.json` so the repository
//! accumulates a performance trajectory across commits.
//!
//! ```text
//! bench_registers [--quick] [--out FILE] [--hashes N] [--reps N] [--p P]
//! ```
//!
//! Four comparisons per configuration:
//!
//! * **insert** — `insert_hashes` on width-specialized register storage
//!   versus the same sketch pinned to the generic shifted-window path
//!   (`force_generic_storage`).
//! * **merge** — the word-level run-skipping `merge_from` on specialized
//!   storage versus the per-register reference merge on generic storage,
//!   across four union shapes (sparse-into-dense, mostly-overlapping
//!   fold, disjoint dense, self-merge).
//! * **estimate** — repeated single-insert-then-estimate through the
//!   incrementally cached ML coefficients versus re-running the
//!   Algorithm 3 register scan per estimate. An `AtomicExaLogLog` fed
//!   the same stream must hold the same registers and estimate to the
//!   same bit.
//! * **kernels** — the steady-state word-run merge scan under the SWAR
//!   kernel versus the scalar reference kernel, timed interleaved, on
//!   the scan-dominated shapes (sparse incoming, mostly-overlapping
//!   fold, self-merge). The JSON records
//!   `kernel_equivalence` and the minimum SWAR speedup over the gated
//!   shapes so CI can require both.
//!
//! * **codec** (once) — `exaloglog::compress` (`ELLR`) encode and
//!   decode against the legacy `ELLZ` decoder on ELL(2, 20) at p = 10,
//!   n ∈ {2·10³, 2·10⁴, 2·10⁶}. The `ELLZ` payloads are
//!   `fixtures/ellz_codec.bin`, written by the last `ELLZ` encoder from
//!   the same hash streams (`hashes(n, n)`). Each row records both
//!   formats' bytes beside the state entropy; the JSON records
//!   `codec_roundtrip`: both payloads must decode to the sketch, and
//!   `compress` must reproduce its own bytes.
//! * **scan** (once, not per configuration) — the column-count
//!   Algorithm 3 scan behind `ml::compute_coefficients` versus the
//!   per-bit reference (a fold of `ml::add_register`) on filled
//!   ELL(2, 20) sketches at p = 10 and p = 12. The JSON records the
//!   minimum speedup and the verdict `scan_speedup_ok` (≥ 3×).
//!
//! Every comparison asserts that both paths produce bit-identical
//! serialized state / estimates; the JSON records the verdict under
//! `"equivalence"` and the process exits non-zero on any mismatch, which
//! is what lets CI gate on it.

use ell_bench::hashes;
use exaloglog::atomic::AtomicExaLogLog;
use exaloglog::compress::{compress, decompress, state_entropy_bits};
use exaloglog::kernels;
use exaloglog::ml::{self, MlCoefficients};
use exaloglog::theory::bias_correction_c;
use exaloglog::{EllConfig, ExaLogLog};
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
        out: "BENCH_registers.json".to_string(),
        hashes: 0,
        reps: 0,
        p: 8,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let need = |argv: &[String], i: usize, flag: &str| -> String {
        argv.get(i + 1)
            .unwrap_or_else(|| {
                eprintln!("bench_registers: missing value for {flag}");
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
                    eprintln!("bench_registers: --hashes expects an integer");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--reps" => {
                args.reps = need(&argv, i, "--reps").parse().unwrap_or_else(|_| {
                    eprintln!("bench_registers: --reps expects an integer");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--p" => {
                args.p = need(&argv, i, "--p").parse().unwrap_or_else(|_| {
                    eprintln!("bench_registers: --p expects a small integer");
                    std::process::exit(2);
                });
                i += 2;
            }
            other => {
                eprintln!("bench_registers: unknown option {other}");
                std::process::exit(2);
            }
        }
    }
    if args.hashes == 0 {
        args.hashes = if args.quick { 400_000 } else { 4_000_000 };
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

/// Minimum wall time of `reps` runs of `f`, in seconds.
fn min_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The bias-corrected estimate from coefficients `coeffs` of a `cfg`
/// sketch: the Newton solve plus the bias correction.
fn estimate_from(cfg: &EllConfig, coeffs: &MlCoefficients) -> f64 {
    let m = cfg.m() as f64;
    let raw = ml::ml_estimate_from_coefficients(coeffs, m);
    raw / (1.0 + bias_correction_c(cfg.t(), cfg.d()) / m)
}

/// The scan-based reference estimate (the pre-cache behavior): one full
/// Algorithm 3 register scan plus the Newton solve and bias correction.
fn estimate_by_scan(s: &ExaLogLog) -> f64 {
    estimate_from(s.config(), &s.coefficients_scan())
}

/// The per-bit Algorithm 3 reference: one `add_register` step per
/// register, visiting every indicator bit.
fn coefficients_per_bit(s: &ExaLogLog) -> MlCoefficients {
    let mut coeffs = ml::empty_coefficients(0);
    for r in s.registers() {
        ml::add_register(&mut coeffs, s.config(), r);
    }
    coeffs
}

/// Minimum speedup of the column-count scan over the per-bit reference
/// that `scan_speedup_ok` requires.
const MIN_SCAN_SPEEDUP: f64 = 3.0;

/// One scan measurement at precision `p`: the column-count scan
/// (`coefficients_scan`) against the per-bit reference on an ELL(2, 20)
/// sketch filled with `stream`, checking both give identical
/// coefficients. Returns the JSON row and the speedup.
fn bench_scan(p: u8, stream: &[u64], reps: usize, iters: usize, ok: &mut bool) -> (String, f64) {
    let mut sketch = ExaLogLog::new(EllConfig::optimal(p).unwrap());
    sketch.insert_hashes(stream);
    if sketch.coefficients_scan() != coefficients_per_bit(&sketch) {
        eprintln!("bench_registers: scan equivalence MISMATCH at p={p}");
        *ok = false;
    }
    let per_op = 1e6 / iters as f64;
    // Minimum over reps, as for the kernel rows: the speedup gate needs
    // the least noise-contaminated figure.
    let column_us = min_secs(reps.max(5), || {
        for _ in 0..iters {
            std::hint::black_box(std::hint::black_box(&sketch).coefficients_scan());
        }
    }) * per_op;
    let per_bit_us = min_secs(reps.max(5), || {
        for _ in 0..iters {
            std::hint::black_box(coefficients_per_bit(std::hint::black_box(&sketch)));
        }
    }) * per_op;
    let speedup = per_bit_us / column_us;
    let label = format!("optimal_p{p}");
    println!(
        "    scan/{label:<18} column {column_us:9.2} us   per-bit {per_bit_us:9.2} us   speedup {speedup:5.2}x"
    );
    (
        format!(
            "    \"{label}\": {{\"column_us\": {column_us:.2}, \"per_bit_us\": {per_bit_us:.2}, \"speedup\": {speedup:.3}}}"
        ),
        speedup,
    )
}

/// `ELLZ` payloads of ELL(2, 20) at p = 10 for the codec rows, each
/// behind a little-endian `u32` length, in [`CODEC_N`] order.
const ELLZ_CODEC: &[u8] = include_bytes!("../../fixtures/ellz_codec.bin");
/// Distinct counts of the codec rows.
const CODEC_N: [usize; 3] = [2_000, 20_000, 2_000_000];

/// The codec rows: `ELLR` encode and decode against the `ELLZ` decode,
/// each the minimum over `reps` of `iters` calls, plus sizes. Clears
/// `ok` if a payload does not decode to its sketch or `compress` is not
/// deterministic.
fn bench_codec(reps: usize, iters: usize, ok: &mut bool) -> Vec<String> {
    let mut rest = ELLZ_CODEC;
    let mut rows = Vec::new();
    for n in CODEC_N {
        let (len, tail) = rest.split_at(4);
        let (ellz, tail) = tail.split_at(u32::from_le_bytes(len.try_into().unwrap()) as usize);
        rest = tail;
        let mut sketch = ExaLogLog::new(EllConfig::optimal(10).unwrap());
        sketch.insert_hashes(&hashes(n, n as u64));
        let ellr = compress(&sketch);
        if decompress(&ellr).ok().as_ref() != Some(&sketch)
            || decompress(ellz).ok().as_ref() != Some(&sketch)
            || compress(&sketch) != ellr
        {
            eprintln!("bench_registers: codec round trip MISMATCH at n={n}");
            *ok = false;
        }
        // The three timings alternate rep by rep, so a slow stretch of
        // a shared host hits all of them alike; each keeps its minimum.
        let calls: [&dyn Fn(); 3] = [
            &|| {
                drop(std::hint::black_box(compress(std::hint::black_box(
                    &sketch,
                ))))
            },
            &|| {
                drop(std::hint::black_box(decompress(std::hint::black_box(
                    &ellr,
                ))))
            },
            &|| drop(std::hint::black_box(decompress(std::hint::black_box(ellz)))),
        ];
        let mut best = [f64::INFINITY; 3];
        for _ in 0..reps.max(15) {
            for (best, call) in best.iter_mut().zip(calls) {
                let t0 = Instant::now();
                (0..iters).for_each(|_| call());
                *best = best.min(t0.elapsed().as_secs_f64());
            }
        }
        let [encode_us, decode_us, ellz_decode_us] = best.map(|secs| secs * 1e6 / iters as f64);
        let entropy_bytes = state_entropy_bits(&sketch) / 8.0;
        let (ellr_bytes, ellz_bytes) = (ellr.len(), ellz.len());
        println!(
            "    codec/n{n:<9} ELLR encode {encode_us:7.2} us  decode {decode_us:7.2} us   \
             ELLZ decode {ellz_decode_us:7.2} us   bytes {ellr_bytes} vs {ellz_bytes} \
             (entropy {entropy_bytes:.0})"
        );
        rows.push(format!(
            "    \"n{n}\": {{\"ellr_encode_us\": {encode_us:.2}, \"ellr_decode_us\": {decode_us:.2}, \
             \"ellz_decode_us\": {ellz_decode_us:.2}, \"decode_speedup\": {:.3}, \
             \"ellr_bytes\": {ellr_bytes}, \"ellz_bytes\": {ellz_bytes}, \
             \"entropy_bytes\": {entropy_bytes:.1}}}",
            ellz_decode_us / decode_us
        ));
    }
    rows
}

/// One merge-shape measurement: time `acc.clone + merge(b)` for the
/// word-level path on specialized storage against the per-register
/// reference on generic storage, checking both produce identical bytes.
fn bench_merge_shape(
    label: &str,
    base: &ExaLogLog,
    incoming: &ExaLogLog,
    reps: usize,
    iters: usize,
    ok: &mut bool,
) -> String {
    let mut base_generic = base.clone();
    base_generic.force_generic_storage();
    let mut incoming_generic = incoming.clone();
    incoming_generic.force_generic_storage();

    // Equivalence first: all four path/storage combinations must agree.
    let mut word_spec = base.clone();
    word_spec.merge_from(incoming).unwrap();
    let mut per_reg_gen = base_generic.clone();
    per_reg_gen
        .merge_from_per_register(&incoming_generic)
        .unwrap();
    let mut word_gen = base_generic.clone();
    word_gen.merge_from(&incoming_generic).unwrap();
    let mut per_reg_spec = base.clone();
    per_reg_spec.merge_from_per_register(incoming).unwrap();
    if word_spec.to_bytes() != per_reg_gen.to_bytes()
        || word_gen.to_bytes() != per_reg_gen.to_bytes()
        || per_reg_spec.to_bytes() != per_reg_gen.to_bytes()
        || word_spec.estimate().to_bits() != per_reg_gen.estimate().to_bits()
    {
        eprintln!("bench_registers: merge equivalence MISMATCH in shape {label}");
        *ok = false;
    }

    let per_op = 1e9 / iters as f64;
    let mut scratch = base.clone();
    let word_ns = median_secs(reps, || {
        for _ in 0..iters {
            scratch.clone_from(base);
            scratch.merge_from(incoming).unwrap();
            std::hint::black_box(&scratch);
        }
    }) * per_op;
    let mut scratch_gen = base_generic.clone();
    let per_register_ns = median_secs(reps, || {
        for _ in 0..iters {
            scratch_gen.clone_from(&base_generic);
            scratch_gen
                .merge_from_per_register(&incoming_generic)
                .unwrap();
            std::hint::black_box(&scratch_gen);
        }
    }) * per_op;
    let speedup = per_register_ns / word_ns;
    println!(
        "    merge/{label:<18} word {word_ns:10.1} ns   per-register {per_register_ns:10.1} ns   speedup {speedup:5.2}x"
    );
    format!(
        "        \"{label}\": {{\"word_ns\": {word_ns:.1}, \"per_register_generic_ns\": {per_register_ns:.1}, \"speedup\": {speedup:.3}}}"
    )
}

/// One kernel-comparison measurement: the *steady-state* word-run merge
/// (`base ∪ incoming` already folded in, so repeated merges are pure
/// scan-and-skip work — exactly the cost the SWAR kernel speeds up) under
/// the SWAR kernel versus the scalar reference kernel. Verifies that
/// SWAR produces bytes identical to the scalar merge, and returns the
/// JSON row plus the SWAR speedup.
fn bench_kernel_shape(
    label: &str,
    base: &ExaLogLog,
    incoming: &ExaLogLog,
    reps: usize,
    iters: usize,
    kernel_ok: &mut bool,
) -> (String, f64) {
    // Equivalence: the SWAR merge of the *original* shape must match the
    // scalar kernel's, bit for bit.
    let merged = kernels::available().map(|kernel| {
        let mut m = base.clone();
        m.merge_from_with_kernel(incoming, kernel).unwrap();
        m
    });
    if merged[0].to_bytes() != merged[1].to_bytes() {
        eprintln!("bench_registers: kernel equivalence MISMATCH in shape {label}");
        *kernel_ok = false;
    }

    // Steady state: the accumulator already contains the union, so every
    // further merge is scan-only and leaves it unchanged. Both kernels
    // scan the same two buffers, so their placement in memory (cache-set
    // conflicts differ from run to run) cannot favour one of them. The
    // kernels run back to back inside each rep, alternating which goes
    // first, so a burst of host noise hits both rather than one; each
    // keeps its minimum over reps, the least noise-contaminated figure.
    let [mut acc, _] = merged;
    let mut best = [f64::INFINITY; 2];
    for rep in 0..reps.max(5) {
        for i in 0..2 {
            let k = (i + rep) % 2;
            let kernel = kernels::available()[k];
            let t0 = Instant::now();
            for _ in 0..iters {
                acc.merge_from_with_kernel(incoming, kernel).unwrap();
                std::hint::black_box(&acc);
            }
            best[k] = best[k].min(t0.elapsed().as_secs_f64());
        }
    }
    let per_op = 1e9 / iters as f64;
    let [scalar_ns, swar_ns] = best.map(|secs| secs * per_op);
    let swar_speedup = scalar_ns / swar_ns;
    println!("    kernel/{label:<18} scalar {scalar_ns:10.1} ns");
    println!("    kernel/{label:<18} swar   {swar_ns:10.1} ns");
    (
        format!(
            "        \"{label}\": {{\"scalar_ns\": {scalar_ns:.1}, \"swar_ns\": {swar_ns:.1}, \"swar_speedup\": {swar_speedup:.3}}}"
        ),
        swar_speedup,
    )
}

fn main() {
    let args = parse_args();
    let stream = hashes(args.hashes, 0x5EED_CAFE);
    let mut ok = true;
    let mut kernel_ok = true;
    // Minimum SWAR speedup over the gated scan-dominated shapes.
    let mut swar_min = f64::INFINITY;

    let configs: Vec<(&str, EllConfig)> = vec![
        ("ull8", EllConfig::ull(args.p).unwrap()),
        ("aligned16", EllConfig::aligned16(args.p).unwrap()),
        (
            "martingale24",
            EllConfig::martingale_optimal(args.p).unwrap(),
        ),
        ("aligned32", EllConfig::aligned32(args.p).unwrap()),
        ("optimal28", EllConfig::optimal(args.p).unwrap()),
    ];

    let mut blocks = Vec::new();
    for (name, cfg) in &configs {
        let cfg = *cfg;
        let backend = ExaLogLog::new(cfg).storage_backend();
        println!("{name} ({cfg}, backend {backend})");

        // ---- insert: specialized vs generic storage ------------------
        let per_op = 1e9 / args.hashes as f64;
        let spec_ns = median_secs(args.reps, || {
            let mut s = ExaLogLog::new(cfg);
            s.insert_hashes(&stream);
            std::hint::black_box(&s);
        }) * per_op;
        let gen_ns = median_secs(args.reps, || {
            let mut s = ExaLogLog::new(cfg);
            s.force_generic_storage();
            s.insert_hashes(&stream);
            std::hint::black_box(&s);
        }) * per_op;
        let insert_speedup = gen_ns / spec_ns;
        println!(
            "    insert               specialized {spec_ns:6.2} ns/op   generic {gen_ns:6.2} ns/op   speedup {insert_speedup:5.2}x"
        );
        {
            let mut a = ExaLogLog::new(cfg);
            a.insert_hashes(&stream);
            let mut b = ExaLogLog::new(cfg);
            b.force_generic_storage();
            b.insert_hashes(&stream);
            if a.to_bytes() != b.to_bytes() {
                eprintln!("bench_registers: insert equivalence MISMATCH for {name}");
                ok = false;
            }
        }

        // ---- merge shapes -------------------------------------------
        let dense = {
            let mut s = ExaLogLog::new(cfg);
            s.insert_hashes(&stream);
            s
        };
        let sparse = {
            let mut s = ExaLogLog::new(cfg);
            s.insert_hashes(&hashes(24, 0xB0A7));
            s
        };
        let overlap = {
            // The incoming side of a periodic shard fold: everything the
            // accumulator has, plus a 1 % fresh tail.
            let mut s = dense.clone();
            s.insert_hashes(&hashes(args.hashes / 100, 0xF01D));
            s
        };
        let disjoint = {
            let mut s = ExaLogLog::new(cfg);
            s.insert_hashes(&hashes(args.hashes, 0xD15C));
            s
        };
        let merge_iters = if args.quick { 400 } else { 2000 };
        let merge_rows = [
            bench_merge_shape(
                "sparse_into_dense",
                &dense,
                &sparse,
                args.reps,
                merge_iters,
                &mut ok,
            ),
            bench_merge_shape(
                "overlap_fold",
                &dense,
                &overlap,
                args.reps,
                merge_iters,
                &mut ok,
            ),
            bench_merge_shape(
                "disjoint",
                &dense,
                &disjoint,
                args.reps,
                merge_iters,
                &mut ok,
            ),
            bench_merge_shape(
                "self_merge",
                &dense,
                &dense.clone(),
                args.reps,
                merge_iters,
                &mut ok,
            ),
        ];

        // ---- scan kernels: swar vs the scalar reference --------------
        // The kernel rows measure *scan* cost, so they use a register
        // array large enough (>= 2^12 registers) for the word scan to
        // dominate the handful of boundary register merges; at tiny m
        // the fixed per-merge overhead drowns the signal.
        let kernel_cfg = EllConfig::new(cfg.t(), cfg.d(), cfg.p().max(13)).unwrap();
        let kdense = {
            let mut s = ExaLogLog::new(kernel_cfg);
            s.insert_hashes(&stream);
            s
        };
        // Sparse incoming: a handful of isolated nonzero registers, so
        // the steady-state merge is dominated by the word scan (zero and
        // equal runs) rather than by per-register boundary merges, which
        // cost the same under both kernels.
        let ksparse = {
            let mut s = ExaLogLog::new(kernel_cfg);
            s.insert_hashes(&hashes(8, 0xB0A7));
            s
        };
        let koverlap = {
            let mut s = kdense.clone();
            s.insert_hashes(&hashes(args.hashes / 100, 0xF01D));
            s
        };
        let kernel_iters = if args.quick { 600 } else { 3000 };
        let (row_sparse, su_sparse) = bench_kernel_shape(
            "sparse_into_dense",
            &kdense,
            &ksparse,
            args.reps,
            kernel_iters,
            &mut kernel_ok,
        );
        let (row_overlap, su_overlap) = bench_kernel_shape(
            "overlap_fold",
            &kdense,
            &koverlap,
            args.reps,
            kernel_iters,
            &mut kernel_ok,
        );
        let (row_self, _) = bench_kernel_shape(
            "self_merge",
            &kdense,
            &kdense.clone(),
            args.reps,
            kernel_iters,
            &mut kernel_ok,
        );
        swar_min = swar_min.min(su_sparse).min(su_overlap);
        let kernel_rows = [row_sparse, row_overlap, row_self];

        // ---- estimate: cached coefficients vs per-call scan ----------
        let est_iters = if args.quick { 2000 } else { 10_000 };
        let est_stream = hashes(est_iters, 0xE57);
        let per_est = 1e9 / est_iters as f64;
        let mut warm = dense.clone();
        let cached_ns = median_secs(args.reps, || {
            let mut acc = 0.0;
            for &h in &est_stream {
                warm.insert_hash(h);
                acc += warm.estimate();
            }
            std::hint::black_box(acc);
        }) * per_est;
        let mut warm_scan = dense.clone();
        let scan_ns = median_secs(args.reps, || {
            let mut acc = 0.0;
            for &h in &est_stream {
                warm_scan.insert_hash(h);
                acc += estimate_by_scan(&warm_scan);
            }
            std::hint::black_box(acc);
        }) * per_est;
        let est_speedup = scan_ns / cached_ns;
        println!(
            "    estimate             cached {cached_ns:9.1} ns/op   scan {scan_ns:9.1} ns/op   speedup {est_speedup:5.2}x"
        );
        let hot = AtomicExaLogLog::from_sketch(&dense);
        hot.extend_hashes(est_stream.iter().copied());
        {
            // All three sketches consumed identical streams; the cached,
            // scan and atomic estimates must agree to the bit.
            let want = warm.estimate().to_bits();
            if warm.to_bytes() != warm_scan.to_bytes()
                || want != estimate_by_scan(&warm).to_bits()
                || hot.snapshot() != warm
                || hot.estimate().to_bits() != want
            {
                eprintln!("bench_registers: estimate equivalence MISMATCH for {name}");
                ok = false;
            }
        }

        blocks.push(format!(
            "    {{\n      \"config\": \"{cfg}\", \"name\": \"{name}\", \"backend\": \"{backend}\", \
             \"register_width\": {},\n      \"insert\": {{\"specialized_ns_per_op\": {spec_ns:.3}, \
             \"generic_ns_per_op\": {gen_ns:.3}, \"speedup\": {insert_speedup:.3}}},\n      \
             \"merge\": {{\n{}\n      }},\n      \
             \"kernels\": {{\n{}\n      }},\n      \
             \"estimate\": {{\"cached_ns_per_op\": {cached_ns:.1}, \"scan_ns_per_op\": {scan_ns:.1}, \
             \"speedup\": {est_speedup:.3}}}\n    }}",
            cfg.register_width(),
            merge_rows.join(",\n"),
            kernel_rows.join(",\n")
        ));
    }

    // ---- scan: column-count Algorithm 3 vs the per-bit reference -----
    println!("scan (ELL(2, 20), {} hashes)", args.hashes);
    let scan_iters = if args.quick { 20 } else { 100 };
    let mut scan_rows = Vec::new();
    let mut scan_min = f64::INFINITY;
    for p in [10u8, 12] {
        let (row, speedup) = bench_scan(p, &stream, args.reps, scan_iters, &mut ok);
        scan_rows.push(row);
        scan_min = scan_min.min(speedup);
    }

    // ---- codec: ELLR against the legacy ELLZ decoder -----------------
    println!("codec (ELL(2, 20), p = 10)");
    let mut codec_ok = true;
    let codec_rows = bench_codec(args.reps, if args.quick { 40 } else { 200 }, &mut codec_ok);

    let json = format!(
        "{{\n  \"bench\": \"registers\",\n  \"mode\": \"{}\",\n  \"precision_p\": {},\n  \
         \"hashes_per_run\": {},\n  \"reps\": {},\n  \"unit\": \"ns_per_op\",\n  \
         \"kernel_precision_p\": {},\n  \
         \"equivalence\": \"{}\",\n  \"kernel_equivalence\": \"{}\",\n  \
         \"swar_merge_speedup_min\": {:.3},\n  \"scan_speedup_min\": {:.3},\n  \
         \"scan_speedup_ok\": {},\n  \"scan\": {{\n{}\n  }},\n  \
         \"codec_roundtrip\": \"{}\",\n  \"codec\": {{\n{}\n  }},\n  \"configs\": [\n{}\n  ]\n}}\n",
        if args.quick { "quick" } else { "full" },
        args.p,
        args.hashes,
        args.reps,
        args.p.max(13),
        if ok { "ok" } else { "mismatch" },
        if kernel_ok { "ok" } else { "mismatch" },
        swar_min,
        scan_min,
        scan_min >= MIN_SCAN_SPEEDUP,
        scan_rows.join(",\n"),
        if codec_ok { "ok" } else { "mismatch" },
        codec_rows.join(",\n"),
        blocks.join(",\n")
    );
    std::fs::write(&args.out, &json).unwrap_or_else(|e| {
        eprintln!("bench_registers: cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    println!("wrote {}", args.out);
    if !ok {
        eprintln!("bench_registers: specialized-vs-generic equivalence self-check FAILED");
        std::process::exit(1);
    }
    if !kernel_ok {
        eprintln!("bench_registers: kernel-vs-scalar equivalence self-check FAILED");
        std::process::exit(1);
    }
    if !codec_ok {
        eprintln!("bench_registers: codec round-trip self-check FAILED");
        std::process::exit(1);
    }
}
