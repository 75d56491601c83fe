//! Machine-readable tiered-residency benchmark: resident bytes per key,
//! demotion/promotion traffic, and per-tier query latency for a keyed
//! store whose working set is a hot 1% of a large Zipf-skewed key
//! population. Written as `BENCH_tiers.json` so CI can gate on the
//! memory reduction and on tier transparency.
//!
//! ```text
//! bench_tiers [--quick] [--out FILE] [--keys N] [--base N] [--zipf S]
//!             [--shards N] [--reps N]
//! ```
//!
//! The workload gives every key a uniform floor of `--base` distinct
//! elements plus a Zipf(s) overlay concentrated on the lowest ranks —
//! the same hot 1% the residency choreography keeps touching. The
//! default floor (3000 distinct per key) puts tail keys in the
//! dense-but-unsaturated regime where the range coder earns its keep
//! (~4x per payload); a sparse tail (try `--base 120`) compresses ~2x
//! and leans on the cold tier for the rest. Use `--keys`/`--base` to
//! explore other population shapes. Two stores ingest the identical
//! event stream: an untiered twin (the memory baseline and
//! bit-identity oracle) and a tiered store that then walks the
//! demotion ladder:
//!
//! 1. sweep 1: everything idle goes warm; the hot 1% is re-promoted by
//!    a steady-state ingest burst (timed against the same burst on the
//!    twin — `hot_ingest_ratio` must stay ~1.0 with 99% of keys warm);
//! 2. sweep 2: the warm tail spills cold; a touch keeps the hot set and
//!    a 9% "mid" working set resident;
//! 3. sweep 3: the mid set cools to warm, leaving 1% hot / 9% warm /
//!    90% cold — the steady state whose bytes per key are reported.
//!
//! Tier transparency is verified on every run and recorded in the JSON
//! as `tier_bit_identity`: every per-key estimate of the tiered store
//! must equal the twin's bit-for-bit, and after `promote_all()` the two
//! snapshots must be byte-identical.

use ell_hash::SplitMix64;
use ell_sim::workload::{key_label, KeyedStream};
use ell_store::{EllStore, TierConfig};
use exaloglog::EllConfig;
use std::time::Instant;

struct Args {
    quick: bool,
    out: String,
    keys: usize,
    base: usize,
    zipf: f64,
    shards: usize,
    reps: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        out: "BENCH_tiers.json".to_string(),
        keys: 0,
        base: 0,
        zipf: 1.0,
        shards: 64,
        reps: 0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let need = |argv: &[String], i: usize, flag: &str| -> String {
        argv.get(i + 1)
            .unwrap_or_else(|| {
                eprintln!("bench_tiers: missing value for {flag}");
                std::process::exit(2);
            })
            .clone()
    };
    let parse_or_die = |value: String, flag: &str| -> usize {
        value.parse().unwrap_or_else(|_| {
            eprintln!("bench_tiers: {flag} expects an integer");
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
            "--keys" => {
                args.keys = parse_or_die(need(&argv, i, "--keys"), "--keys");
                i += 2;
            }
            "--base" => {
                args.base = parse_or_die(need(&argv, i, "--base"), "--base");
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
                    eprintln!("bench_tiers: --zipf expects a number");
                    std::process::exit(2);
                });
                i += 2;
            }
            other => {
                eprintln!("bench_tiers: unknown option {other}");
                std::process::exit(2);
            }
        }
    }
    if args.keys == 0 {
        args.keys = if args.quick { 4_000 } else { 20_000 };
    }
    if args.base == 0 {
        args.base = 3_000;
    }
    if args.reps == 0 {
        args.reps = if args.quick { 2 } else { 3 };
    }
    if args.keys < 1000 {
        eprintln!("bench_tiers: --keys must be at least 1000 (the hot set is 1%)");
        std::process::exit(2);
    }
    args
}

/// Ingests the shared workload — a uniform floor of `base` distinct
/// elements per key plus a Zipf overlay of `overlay` events — through a
/// buffered session. The generators are seeded identically on every
/// call, so every store sees the same event stream. Returns the
/// elapsed seconds including the final flush.
fn ingest_workload(
    store: &EllStore,
    labels: &[String],
    base: usize,
    overlay: usize,
    zipf: f64,
) -> f64 {
    let mut values = SplitMix64::new(0x71E5);
    let mut zipf_events = KeyedStream::new(labels.len(), zipf, 1 << 40, 0xE11);
    let t0 = Instant::now();
    let mut session = store.session();
    for _ in 0..base {
        for label in labels {
            session.insert(label, values.next_u64());
        }
    }
    for event in zipf_events.by_ref().take(overlay) {
        session.insert(&labels[event.key as usize], event.hash);
    }
    drop(session);
    t0.elapsed().as_secs_f64()
}

/// One steady-state ingest burst over `set`: `rounds` direct (lock-free
/// hot path, not session-buffered — buffered flushes deliberately park
/// on demoted keys) batches per round, identical hashes on every call
/// so the twin receives the same events. Direct ingest promotes demoted
/// keys and stamps their access clock. Returns elapsed seconds.
fn burst(store: &EllStore, labels: &[String], set: std::ops::Range<usize>, rounds: usize) -> f64 {
    let mut values = SplitMix64::new(0xB1A5);
    let t0 = Instant::now();
    let mut batch: Vec<(&str, u64)> = Vec::with_capacity(set.len());
    for _ in 0..rounds {
        batch.clear();
        for label in &labels[set.clone()] {
            batch.push((label, values.next_u64()));
        }
        store.ingest(&batch);
    }
    t0.elapsed().as_secs_f64()
}

/// Median per-key estimate latency in nanoseconds over a sample of
/// keys. Each key is queried once (a query on a demoted key promotes
/// it, so the second query would measure a different tier).
fn query_ns(store: &EllStore, labels: &[String], set: std::ops::Range<usize>, cap: usize) -> f64 {
    let step = (set.len() / cap.min(set.len())).max(1);
    let mut times: Vec<f64> = Vec::new();
    let mut blackhole = 0.0f64;
    for idx in set.step_by(step) {
        let t0 = Instant::now();
        blackhole += store.estimate(&labels[idx]).expect("key exists");
        times.push(t0.elapsed().as_secs_f64() * 1e9);
    }
    assert!(blackhole > 0.0, "estimates are positive");
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = parse_args();
    if !args.shards.is_power_of_two() || args.shards == 0 {
        eprintln!("bench_tiers: --shards must be a nonzero power of two");
        std::process::exit(2);
    }
    let cfg = EllConfig::aligned32(11).expect("valid preset");
    let labels: Vec<String> = (0..args.keys as u64).map(key_label).collect();
    let hot = 0..args.keys / 100;
    let mid = args.keys / 100..args.keys / 10;
    let tail = args.keys / 10..args.keys;
    let overlay = 10 * args.keys;
    // Size the timed hot bursts so each one moves enough events to be
    // measurable regardless of how small the hot set is.
    let burst_rounds = (50_000 / (args.keys / 100)).max(50);
    let spill_dir = std::env::temp_dir().join(format!("ell-bench-tiers-{}", std::process::id()));
    println!(
        "{} keys ({} hot / {} mid / {} cold-bound), floor {} + Zipf({}) overlay {} events",
        args.keys,
        hot.len(),
        mid.len(),
        tail.len(),
        args.base,
        args.zipf,
        overlay
    );

    // Ingest reps: the same workload into fresh untiered and tiered
    // stores. A tier config with no elapsed clock must not slow the
    // write path down.
    let mut untiered_times = Vec::new();
    let mut tiered_times = Vec::new();
    let mut twin = None;
    let mut store = None;
    for rep in 0..args.reps {
        let plain = EllStore::new(args.shards, cfg).expect("power-of-two shards");
        untiered_times.push(ingest_workload(
            &plain, &labels, args.base, overlay, args.zipf,
        ));
        let mut tiered = EllStore::new(args.shards, cfg).expect("power-of-two shards");
        tiered.set_tier_config(
            TierConfig::new()
                .warm_after(1)
                .cold_after(2)
                .spill_dir(&spill_dir),
        );
        tiered_times.push(ingest_workload(
            &tiered, &labels, args.base, overlay, args.zipf,
        ));
        println!(
            "rep {rep}: untiered {:.3}s, tiered {:.3}s",
            untiered_times.last().unwrap(),
            tiered_times.last().unwrap()
        );
        twin = Some(plain);
        store = Some(tiered);
    }
    let twin = twin.expect("at least one rep");
    let store = store.expect("at least one rep");
    let events = (args.base * args.keys + overlay) as f64;
    let ingest_ns_untiered = median(untiered_times) * 1e9 / events;
    let ingest_ns_tiered = median(tiered_times) * 1e9 / events;

    // Sweep 1: everything is idle, so the whole population goes warm;
    // the hot set is promoted back by real traffic. The timed burst
    // afterwards is the steady-state hot path with 99% of keys warm.
    store.tick();
    store.demote_idle();
    burst(&store, &labels, hot.clone(), 2); // promote (untimed warm-up)
    burst(&twin, &labels, hot.clone(), 2);
    // Measure the warm-phase residency before the timed burst grows the
    // hot keys' states: 1% resident, 99% warm.
    let warm_resident = store.memory_bytes();
    let twin_resident_warm_point = twin.memory_bytes();
    let warm_bytes_reduction = twin_resident_warm_point as f64 / warm_resident as f64;
    // Median ratio over several alternating burst pairs — a single
    // pair is at the mercy of the allocator and cache state.
    let mut ratios = Vec::new();
    for _ in 0..5 {
        let hot_tiered = burst(&store, &labels, hot.clone(), burst_rounds);
        let hot_twin = burst(&twin, &labels, hot.clone(), burst_rounds);
        ratios.push(hot_tiered / hot_twin);
    }
    let hot_ingest_ratio = median(ratios);
    println!(
        "warm phase: {} -> {} resident bytes ({warm_bytes_reduction:.2}x), \
         hot ingest ratio {hot_ingest_ratio:.3}",
        twin_resident_warm_point, warm_resident
    );

    // Sweep 2: the warm tail spills cold; hot + mid stay resident.
    store.tick();
    burst(&store, &labels, hot.clone(), 1);
    burst(&twin, &labels, hot.clone(), 1);
    burst(&store, &labels, mid.clone(), 1);
    burst(&twin, &labels, mid.clone(), 1);
    store.demote_idle();
    // Sweep 3: the mid working set cools to warm.
    store.tick();
    burst(&store, &labels, hot.clone(), 1);
    burst(&twin, &labels, hot.clone(), 1);
    store.demote_idle();

    let stats = store.tier_stats();
    let tiered_resident = store.memory_bytes();
    let baseline_resident = twin.memory_bytes();
    let tiered_bytes_reduction = baseline_resident as f64 / tiered_resident as f64;
    let bytes_per_key_untiered = baseline_resident as f64 / args.keys as f64;
    let bytes_per_key_tiered = tiered_resident as f64 / args.keys as f64;
    println!(
        "steady state: hot={} sparse={} warm={} cold={}  {}B -> {}B per key \
         ({tiered_bytes_reduction:.2}x)",
        stats.hot_keys,
        stats.sparse_keys,
        stats.warm_keys,
        stats.cold_keys,
        bytes_per_key_untiered.round(),
        bytes_per_key_tiered.round()
    );

    // Per-tier query latency (each sampled key queried once — the
    // query itself promotes, so sampling is capped and disjoint).
    let sample = 500;
    let query_ns_hot = query_ns(&store, &labels, hot.clone(), sample);
    let query_ns_warm = query_ns(&store, &labels, mid.clone(), sample);
    let query_ns_cold = query_ns(&store, &labels, tail.clone(), sample);
    println!(
        "query ns/key: hot {query_ns_hot:.0}, warm {query_ns_warm:.0}, cold {query_ns_cold:.0}"
    );

    // Tier transparency: every estimate bit-identical to the twin's,
    // and a fully promoted store snapshots to the twin's exact bytes.
    let mut tier_bit_identity = store.key_count() == twin.key_count();
    for ((ka, ea), (kb, eb)) in store.estimates().iter().zip(twin.estimates().iter()) {
        if ka != kb || ea.to_bits() != eb.to_bits() {
            eprintln!("bench_tiers: estimate diverged on {ka}/{kb}");
            tier_bit_identity = false;
            break;
        }
    }
    store.promote_all();
    if store.snapshot_bytes() != twin.snapshot_bytes() {
        eprintln!("bench_tiers: promoted snapshot differs from the untiered twin");
        tier_bit_identity = false;
    }
    println!(
        "tier_bit_identity: {tier_bit_identity} ({} keys, {} promotions, {} spilled bytes)",
        store.key_count(),
        stats.promotions,
        stats.spilled_bytes
    );
    let _ = std::fs::remove_dir_all(&spill_dir);

    let json = format!(
        "{{\n  \"bench\": \"tiers\",\n  \"mode\": \"{}\",\n  \"keys\": {},\n  \
         \"base_distinct_per_key\": {},\n  \"zipf_s\": {},\n  \"zipf_overlay_events\": {},\n  \
         \"shards\": {},\n  \"reps\": {},\n  \
         \"ingest_ns_untiered\": {ingest_ns_untiered:.1},\n  \
         \"ingest_ns_tiered\": {ingest_ns_tiered:.1},\n  \
         \"hot_ingest_ratio\": {hot_ingest_ratio:.3},\n  \
         \"bytes_per_key_untiered\": {bytes_per_key_untiered:.1},\n  \
         \"bytes_per_key_tiered\": {bytes_per_key_tiered:.1},\n  \
         \"warm_bytes_reduction\": {warm_bytes_reduction:.3},\n  \
         \"tiered_bytes_reduction\": {tiered_bytes_reduction:.3},\n  \
         \"hot_keys\": {},\n  \"sparse_keys\": {},\n  \"warm_keys\": {},\n  \"cold_keys\": {},\n  \
         \"demotions_warm\": {},\n  \"demotions_cold\": {},\n  \"promotions\": {},\n  \
         \"spilled_bytes\": {},\n  \
         \"query_ns_hot\": {query_ns_hot:.1},\n  \"query_ns_warm\": {query_ns_warm:.1},\n  \
         \"query_ns_cold\": {query_ns_cold:.1},\n  \
         \"tier_bit_identity\": {tier_bit_identity}\n}}\n",
        if args.quick { "quick" } else { "full" },
        args.keys,
        args.base,
        args.zipf,
        overlay,
        args.shards,
        args.reps,
        stats.hot_keys,
        stats.sparse_keys,
        stats.warm_keys,
        stats.cold_keys,
        stats.demotions_warm,
        stats.demotions_cold,
        stats.promotions,
        stats.spilled_bytes,
    );
    std::fs::write(&args.out, &json).unwrap_or_else(|e| {
        eprintln!("bench_tiers: cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    println!("wrote {}", args.out);
    if !tier_bit_identity {
        std::process::exit(1);
    }
}
