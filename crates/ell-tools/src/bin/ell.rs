//! The `ell` command-line tool: approximate distinct counting from the
//! shell, with mergeable, reducible, compressible sketch files.
//!
//! ```text
//! generate sketches:   ... | ell count --p 12 --out today.ell
//! combine shards:      ell merge --out all.ell shard1.ell shard2.ell
//! query:               ell estimate all.ell
//! archive smaller:     ell reduce --d 16 --p 8 --out archive.ell all.ell
//! entropy-code:        ell compress --out all.ellz all.ell
//! debug:               ell inspect all.ell
//! ```

use ell_store::{EllStore, TierStats, WindowedStore};
use ell_tools::{
    collect_tokens, config_from_options, count_sources, count_sources_with_algo, export_store,
    import_store, inspect, load_any, load_sketch, load_store, load_windowed, merge_files,
    open_inputs, parse_options, parse_options_with_flags, relate, save_compressed, save_sketch,
    save_store, save_tokens, save_windowed, store_ingest_parallel, tier_config_from_options,
    windowed_ingest, ToolError,
};
use std::io::Write;
use std::path::{Path, PathBuf};

/// `println!` that returns a failed stdout write as an error instead of
/// panicking, so the command stops at the first write nobody reads.
macro_rules! out {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout().lock(), $($arg)*)?
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => {}
        // The reader closed stdout early (`ell ... | head`): it has all
        // the output it wanted, so this is a quiet, successful exit.
        Err(ToolError::Io(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("ell: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &[String]) -> Result<(), ToolError> {
    let Some((command, rest)) = args.split_first() else {
        print_help();
        return Ok(());
    };
    match command.as_str() {
        "count" => {
            let (opts, positional) = parse_options(rest, &["t", "d", "p", "out", "algo"])?;
            // Positional arguments are input files, `-` is stdin; no
            // positionals defaults to stdin (filter convention).
            let inputs = open_inputs(&positional)?;
            if let Some(algo) = opts.get("algo") {
                // Dispatch by name through the shared `Sketch` facade.
                if opts.contains_key("t") || opts.contains_key("d") {
                    return Err(ToolError::Usage(
                        "--algo selects its own register layout; only --p applies".into(),
                    ));
                }
                if opts.contains_key("out") {
                    return Err(ToolError::Usage(
                        "--out writes ExaLogLog sketch files; use count without --algo".into(),
                    ));
                }
                let p: u8 = opts.get("p").map_or(Ok(12), |s| {
                    s.parse()
                        .map_err(|_| ToolError::Usage("--p expects a small integer".into()))
                })?;
                let sketch = count_sources_with_algo(inputs, algo, p)?;
                out!("{:.0}", sketch.estimate());
                return Ok(());
            }
            let cfg = config_from_options(opts.get("t"), opts.get("d"), opts.get("p"))?;
            let sketch = count_sources(inputs, cfg)?;
            // Save before printing, so a closed stdout cannot lose the file.
            if let Some(out) = opts.get("out") {
                save_sketch(&sketch, Path::new(out))?;
            }
            out!("{:.0}", sketch.estimate());
            Ok(())
        }
        "store" => run_store(rest),
        "estimate" => {
            let (_, positional) = parse_options(rest, &[])?;
            if positional.is_empty() {
                return Err(ToolError::Usage("estimate needs sketch files".into()));
            }
            for path in &positional {
                let sketch = load_any(Path::new(path))?;
                out!("{path}\t{:.0}", sketch.estimate());
            }
            Ok(())
        }
        "tokens" => {
            let (opts, positional) = parse_options(rest, &["v", "out"])?;
            if !positional.is_empty() {
                return Err(ToolError::Usage("tokens reads from stdin only".into()));
            }
            let v: u32 = opts.get("v").map_or(Ok(26), |s| {
                s.parse()
                    .map_err(|_| ToolError::Usage("--v expects an integer".into()))
            })?;
            let stdin = std::io::stdin();
            let tokens = collect_tokens(stdin.lock(), v)?;
            if let Some(out) = opts.get("out") {
                save_tokens(&tokens, Path::new(out))?;
            }
            out!("{:.0}", tokens.estimate());
            Ok(())
        }
        "similarity" => {
            let (_, positional) = parse_options(rest, &[])?;
            let [pa, pb] = positional.as_slice() else {
                return Err(ToolError::Usage(
                    "similarity needs exactly two sketch files".into(),
                ));
            };
            let a = load_sketch(Path::new(pa))?;
            let b = load_sketch(Path::new(pb))?;
            let rel = relate(&a, &b)?;
            out!(
                "|A|={:.0} |B|={:.0} |A∪B|={:.0} |A∩B|≈{:.0} J≈{:.3}",
                rel.a,
                rel.b,
                rel.union,
                rel.intersection,
                rel.jaccard
            );
            Ok(())
        }
        "merge" => {
            let (opts, positional) = parse_options(rest, &["out"])?;
            let out = opts
                .get("out")
                .ok_or_else(|| ToolError::Usage("merge needs --out".into()))?;
            let paths: Vec<PathBuf> = positional.iter().map(PathBuf::from).collect();
            let path_refs: Vec<&Path> = paths.iter().map(PathBuf::as_path).collect();
            let merged = merge_files(&path_refs)?;
            save_sketch(&merged, Path::new(out))?;
            out!("{:.0}", merged.estimate());
            Ok(())
        }
        "reduce" => {
            let (opts, positional) = parse_options(rest, &["d", "p", "out"])?;
            let [input] = positional.as_slice() else {
                return Err(ToolError::Usage("reduce needs exactly one input".into()));
            };
            let out = opts
                .get("out")
                .ok_or_else(|| ToolError::Usage("reduce needs --out".into()))?;
            let sketch = load_sketch(Path::new(input))?;
            let d = opts.get("d").map_or(Ok(sketch.config().d()), |v| {
                v.parse()
                    .map_err(|_| ToolError::Usage("--d expects an integer".into()))
            })?;
            let p = opts.get("p").map_or(Ok(sketch.config().p()), |v| {
                v.parse()
                    .map_err(|_| ToolError::Usage("--p expects an integer".into()))
            })?;
            let reduced = sketch.reduce(d, p)?;
            save_sketch(&reduced, Path::new(out))?;
            out!("{:.0}", reduced.estimate());
            Ok(())
        }
        "compress" => {
            let (opts, positional) = parse_options(rest, &["out"])?;
            let [input] = positional.as_slice() else {
                return Err(ToolError::Usage("compress needs exactly one input".into()));
            };
            let out = opts
                .get("out")
                .ok_or_else(|| ToolError::Usage("compress needs --out".into()))?;
            let sketch = load_sketch(Path::new(input))?;
            save_compressed(&sketch, Path::new(out))?;
            let before = std::fs::metadata(input)?.len();
            let after = std::fs::metadata(out)?.len();
            out!("{before} -> {after} bytes");
            Ok(())
        }
        "inspect" => {
            let (_, positional) = parse_options(rest, &[])?;
            for path in &positional {
                let sketch = load_sketch(Path::new(path))?;
                write!(std::io::stdout().lock(), "{}", inspect(&sketch))?;
            }
            Ok(())
        }
        "--help" | "-h" | "help" => {
            print_help();
            Ok(())
        }
        other => Err(ToolError::Usage(format!("unknown command {other}"))),
    }
}

/// The `ell store` subcommand family: a sharded keyed sketch store
/// (`key → AdaptiveExaLogLog`) persisted in the `ELLK` snapshot format.
fn run_store(args: &[String]) -> Result<(), ToolError> {
    let Some((sub, rest)) = args.split_first() else {
        return Err(ToolError::Usage(
            "store needs a subcommand: ingest | query | stats | tiers | snapshot | restore | window"
                .into(),
        ));
    };
    match sub.as_str() {
        "window" => run_store_window(rest),
        "ingest" => {
            let (opts, positional) = parse_options(
                rest,
                &[
                    "out",
                    "shards",
                    "t",
                    "d",
                    "p",
                    "threads",
                    "warm-after",
                    "cold-after",
                    "spill",
                ],
            )?;
            let out = opts
                .get("out")
                .ok_or_else(|| ToolError::Usage("store ingest needs --out".into()))?;
            let out_path = Path::new(out);
            let threads: usize = opts.get("threads").map_or(Ok(1), |s| {
                s.parse()
                    .map_err(|_| ToolError::Usage("--threads expects a positive integer".into()))
            })?;
            if threads == 0 {
                return Err(ToolError::Usage("--threads must be positive".into()));
            }
            let tiers = tier_config_from_options(&opts)?;
            let mut store = if out_path.exists() {
                // Resume into an existing snapshot; its stored sketch
                // parameters win (--threads only picks the ingest path,
                // so it stays legal on resume).
                if ["shards", "t", "d", "p"]
                    .iter()
                    .any(|k| opts.contains_key(*k))
                {
                    return Err(ToolError::Usage(format!(
                        "{out} exists; its stored parameters apply (drop --shards/--t/--d/--p)"
                    )));
                }
                load_store(out_path)?
            } else {
                let cfg = config_from_options(opts.get("t"), opts.get("d"), opts.get("p"))?;
                let shards: usize = opts.get("shards").map_or(Ok(64), |s| {
                    s.parse()
                        .map_err(|_| ToolError::Usage("--shards expects an integer".into()))
                })?;
                EllStore::new(shards, cfg)?
            };
            let tiered = tiers.is_some();
            if let Some(tiers) = tiers {
                store.set_tier_config(tiers);
            }
            let mut events = 0u64;
            for input in open_inputs(&positional)? {
                events += store_ingest_parallel(&store, input, threads)?;
                // Each input source is one tick of the demotion clock:
                // keys untouched for N whole inputs age past --warm-after
                // / --cold-after N.
                if tiered {
                    store.tick();
                }
            }
            if tiered {
                let (mut warm, mut cold) = store.demote_idle();
                // The ladder moves one rung per sweep; a second sweep
                // lets keys idle past --cold-after reach the spill file
                // in the same run.
                if store.tier_config().cold_threshold().is_some() {
                    let (w2, c2) = store.demote_idle();
                    warm += w2;
                    cold += c2;
                }
                save_store(&store, out_path)?;
                out!("{} keys, {events} events", store.key_count());
                out!("demoted {warm} warm, {cold} cold; snapshot keeps their compressed form");
            } else {
                save_store(&store, out_path)?;
                out!("{} keys, {events} events", store.key_count());
            }
            Ok(())
        }
        "stats" => {
            let (opts, positional) = parse_options_with_flags(rest, &[], &["entropy"])?;
            let [input] = positional.as_slice() else {
                return Err(ToolError::Usage(
                    "store stats needs exactly one snapshot file".into(),
                ));
            };
            let store = load_store(Path::new(input))?;
            out!("keys\t{}", store.key_count());
            out!("memory_bytes\t{}", store.memory_bytes());
            out!("scan_kernel\t{}", exaloglog::kernels::active().name());
            print_tier_stats(&store.tier_stats())?;
            if opts.contains_key("entropy") {
                // `state_entropy_bits` reads through warm/cold payloads
                // without promoting, so this is residency-neutral.
                for key in store.keys() {
                    let bits = store.state_entropy_bits(&key).expect("listed key exists");
                    out!("entropy\t{key}\t{bits:.1}");
                }
            }
            Ok(())
        }
        "tiers" => {
            let (opts, positional) =
                parse_options(rest, &["warm-after", "cold-after", "spill", "out"])?;
            let [input] = positional.as_slice() else {
                return Err(ToolError::Usage(
                    "store tiers needs exactly one snapshot file".into(),
                ));
            };
            let mut store = load_store(Path::new(input))?;
            let before = store.memory_bytes();
            let Some(tiers) = tier_config_from_options(&opts)? else {
                return Err(ToolError::Usage(
                    "store tiers needs --warm-after and/or --cold-after (with --spill)".into(),
                ));
            };
            // Age every key past the largest threshold, then sweep: the
            // command answers "what would full demotion buy?".
            let horizon = tiers
                .warm_threshold()
                .max(tiers.cold_threshold())
                .expect("tiering enabled");
            store.set_tier_config(tiers);
            store.advance_clock(horizon);
            let (mut warm, mut cold) = store.demote_idle();
            // Second sweep so warm keys due for cold actually spill
            // (the ladder moves one rung per sweep).
            if store.tier_config().cold_threshold().is_some() {
                let (w2, c2) = store.demote_idle();
                warm += w2;
                cold += c2;
            }
            out!("demoted\t{warm} warm, {cold} cold");
            out!("memory_bytes\t{before} -> {}", store.memory_bytes());
            print_tier_stats(&store.tier_stats())?;
            if let Some(out) = opts.get("out") {
                save_store(&store, Path::new(out))?;
            }
            Ok(())
        }
        "query" => {
            let (opts, positional) = parse_options_with_flags(rest, &[], &["merged"])?;
            let Some((path, keys)) = positional.split_first() else {
                return Err(ToolError::Usage("store query needs a snapshot file".into()));
            };
            let store = load_store(Path::new(path))?;
            if opts.contains_key("merged") {
                out!("{:.0}", store.merged_estimate());
                return Ok(());
            }
            if keys.is_empty() {
                for (key, estimate) in store.estimates() {
                    out!("{key}\t{estimate:.0}");
                }
                return Ok(());
            }
            // Resolve every key before printing anything, so scripts
            // never see a partial result set on failure.
            let rows: Vec<(String, f64)> = keys
                .iter()
                .map(|key| {
                    store
                        .estimate(key)
                        .map(|estimate| (key.clone(), estimate))
                        .ok_or_else(|| ToolError::Usage(format!("unknown key {key:?}")))
                })
                .collect::<Result<_, _>>()?;
            for (key, estimate) in rows {
                out!("{key}\t{estimate:.0}");
            }
            Ok(())
        }
        "snapshot" => {
            let (opts, positional) = parse_options(rest, &["out"])?;
            let out = opts
                .get("out")
                .ok_or_else(|| ToolError::Usage("store snapshot needs --out DIR".into()))?;
            let [input] = positional.as_slice() else {
                return Err(ToolError::Usage(
                    "store snapshot needs exactly one snapshot file".into(),
                ));
            };
            let store = load_store(Path::new(input))?;
            let entries = export_store(&store, Path::new(out))?;
            out!("{entries} entries exported to {out}");
            Ok(())
        }
        "restore" => {
            let (opts, positional) = parse_options(rest, &["out"])?;
            let out = opts
                .get("out")
                .ok_or_else(|| ToolError::Usage("store restore needs --out FILE".into()))?;
            let [dir] = positional.as_slice() else {
                return Err(ToolError::Usage(
                    "store restore needs exactly one export directory".into(),
                ));
            };
            let store = import_store(Path::new(dir))?;
            save_store(&store, Path::new(out))?;
            out!("{} keys restored", store.key_count());
            Ok(())
        }
        other => Err(ToolError::Usage(format!(
            "unknown store subcommand {other}; try ingest | query | stats | tiers | \
             snapshot | restore | window"
        ))),
    }
}

/// Prints the residency breakdown shared by `store stats`, `store
/// tiers`, and `store window stats` (tab-separated `name\tvalue` rows,
/// like the rest of the stats output).
fn print_tier_stats(stats: &TierStats) -> Result<(), ToolError> {
    out!(
        "tiers\thot={} sparse={} warm={} cold={}",
        stats.hot_keys,
        stats.sparse_keys,
        stats.warm_keys,
        stats.cold_keys
    );
    out!(
        "tier_traffic\tdemotions_warm={} demotions_cold={} promotions={} parked_deltas={}",
        stats.demotions_warm,
        stats.demotions_cold,
        stats.promotions,
        stats.parked_deltas
    );
    out!(
        "tier_bytes\tresident={} spilled={}",
        stats.resident_bytes,
        stats.spilled_bytes
    );
    if stats.spill_errors > 0 {
        out!("spill_errors\t{}", stats.spill_errors);
    }
    Ok(())
}

/// The `ell store window` subcommand family: a sliding-window keyed
/// store (`key → epoch ring of sub-sketches`) persisted in the `ELLW`
/// snapshot format. Input lines are `key<TAB>epoch<TAB>element`.
fn run_store_window(args: &[String]) -> Result<(), ToolError> {
    let Some((sub, rest)) = args.split_first() else {
        return Err(ToolError::Usage(
            "store window needs a subcommand: ingest | advance | query | stats".into(),
        ));
    };
    match sub.as_str() {
        "ingest" => {
            let (opts, positional) = parse_options(
                rest,
                &["out", "shards", "epochs", "t", "d", "p", "warm-after"],
            )?;
            let out = opts
                .get("out")
                .ok_or_else(|| ToolError::Usage("store window ingest needs --out".into()))?;
            let out_path = Path::new(out);
            let warm_after: Option<u64> = opts
                .get("warm-after")
                .map(|v| {
                    v.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
                        ToolError::Usage("--warm-after expects a positive epoch count".into())
                    })
                })
                .transpose()?;
            let mut store = if out_path.exists() {
                // Resume into an existing snapshot; its parameters win
                // (--warm-after is runtime policy, not a stored
                // parameter, so it stays legal on resume).
                if ["shards", "epochs", "t", "d", "p"]
                    .iter()
                    .any(|k| opts.contains_key(*k))
                {
                    return Err(ToolError::Usage(format!(
                        "{out} exists; its stored parameters apply \
                         (drop --shards/--epochs/--t/--d/--p)"
                    )));
                }
                load_windowed(out_path)?
            } else {
                let cfg = config_from_options(opts.get("t"), opts.get("d"), opts.get("p"))?;
                let shards: usize = opts.get("shards").map_or(Ok(64), |s| {
                    s.parse()
                        .map_err(|_| ToolError::Usage("--shards expects an integer".into()))
                })?;
                let epochs: usize = opts.get("epochs").map_or(Ok(8), |s| {
                    s.parse()
                        .map_err(|_| ToolError::Usage("--epochs expects an integer".into()))
                })?;
                WindowedStore::new(shards, cfg, epochs)?
            };
            store.set_warm_after(warm_after);
            let mut events = 0u64;
            for input in open_inputs(&positional)? {
                events += windowed_ingest(&store, input)?;
            }
            if warm_after.is_some() {
                // Rotation already demotes as it goes; one more sweep
                // catches keys idle since the last advance, so the
                // snapshot stores them compressed.
                store.demote_idle();
            }
            save_windowed(&store, out_path)?;
            out!(
                "{} keys, {events} events, epoch {}",
                store.key_count(),
                store.current_epoch()
            );
            Ok(())
        }
        "advance" => {
            let (opts, positional) = parse_options(rest, &["epoch", "out"])?;
            let [input] = positional.as_slice() else {
                return Err(ToolError::Usage(
                    "store window advance needs exactly one snapshot file".into(),
                ));
            };
            let epoch: u64 = opts
                .get("epoch")
                .ok_or_else(|| ToolError::Usage("store window advance needs --epoch N".into()))?
                .parse()
                .map_err(|_| ToolError::Usage("--epoch expects a nonnegative integer".into()))?;
            let store = load_windowed(Path::new(input))?;
            store.advance(epoch);
            let out = opts.get("out").map_or(input.as_str(), String::as_str);
            save_windowed(&store, Path::new(out))?;
            out!("epoch {}", store.current_epoch());
            Ok(())
        }
        "query" => {
            let (opts, positional) =
                parse_options_with_flags(rest, &["last"], &["all-time", "stats"])?;
            let Some((path, keys)) = positional.split_first() else {
                return Err(ToolError::Usage(
                    "store window query needs a snapshot file".into(),
                ));
            };
            let store = load_windowed(Path::new(path))?;
            let all_time = opts.contains_key("all-time");
            let show_stats = opts.contains_key("stats");
            if all_time && opts.contains_key("last") {
                return Err(ToolError::Usage(
                    "--last and --all-time are mutually exclusive (a trailing window \
                     or the whole history, not both)"
                        .into(),
                ));
            }
            let last_k: usize = opts.get("last").map_or(Ok(store.epoch_window()), |s| {
                s.parse()
                    .map_err(|_| ToolError::Usage("--last expects an integer".into()))
            })?;
            if !all_time && (last_k == 0 || last_k > store.epoch_window()) {
                return Err(ToolError::Usage(format!(
                    "--last {last_k} outside the snapshot's window [1, {}]",
                    store.epoch_window()
                )));
            }
            let estimate_of = |key: &str| -> Option<f64> {
                if all_time {
                    store.estimate_all_time(key)
                } else {
                    store.estimate_window(key, last_k)
                }
            };
            // Suffix-cache effectiveness for the queries this command
            // runs (a restored snapshot starts with cold chains: the
            // first wide query per key is a lazy rebuild, the rest are
            // hits). `#`-prefixed so tab-separated consumers skip it.
            let print_stats = |store: &WindowedStore| -> Result<(), ToolError> {
                if show_stats {
                    let s = store.window_stats();
                    out!(
                        "# suffix-cache: hits={} lazy_rebuilds={} entries_built={} \
                         dirty_invalidations={}",
                        s.suffix_hits,
                        s.lazy_rebuilds,
                        s.suffix_entries_built,
                        s.dirty_invalidations
                    );
                }
                Ok(())
            };
            if keys.is_empty() {
                for key in store.keys() {
                    let estimate = estimate_of(&key).expect("listed key exists");
                    out!("{key}\t{estimate:.0}");
                }
                print_stats(&store)?;
                return Ok(());
            }
            // Resolve every key before printing anything, so scripts
            // never see a partial result set on failure.
            let rows: Vec<(String, f64)> = keys
                .iter()
                .map(|key| {
                    estimate_of(key)
                        .map(|estimate| (key.clone(), estimate))
                        .ok_or_else(|| ToolError::Usage(format!("unknown key {key:?}")))
                })
                .collect::<Result<_, _>>()?;
            for (key, estimate) in rows {
                out!("{key}\t{estimate:.0}");
            }
            print_stats(&store)?;
            Ok(())
        }
        "stats" => {
            let (_, positional) = parse_options(rest, &[])?;
            let [input] = positional.as_slice() else {
                return Err(ToolError::Usage(
                    "store window stats needs exactly one snapshot file".into(),
                ));
            };
            let store = load_windowed(Path::new(input))?;
            out!("keys\t{}", store.key_count());
            out!("epoch\t{}", store.current_epoch());
            out!("epochs\t{}", store.epoch_window());
            out!("memory_bytes\t{}", store.memory_bytes());
            out!("scan_kernel\t{}", exaloglog::kernels::active().name());
            print_tier_stats(&store.tier_stats())?;
            Ok(())
        }
        other => Err(ToolError::Usage(format!(
            "unknown store window subcommand {other}; try ingest | advance | query | stats"
        ))),
    }
}

fn print_help() {
    eprintln!(
        "ell — approximate distinct counting (ExaLogLog)\n\n\
         commands:\n\
         \x20 count   [--t T --d D --p P] [--out FILE] [FILE...|-]\n\
         \x20                                             count distinct lines (files or stdin)\n\
         \x20 count   --algo NAME [--p P] [FILE...|-]     count with any registered estimator\n\
         \x20 tokens  [--v V] [--out FILE]                sparse-mode token collection (§4.3)\n\
         \x20 estimate FILE...                            print estimates (dense or token files)\n\
         \x20 merge    --out FILE IN...                   union of sketches\n\
         \x20 similarity A B                              Jaccard / intersection of two sketches\n\
         \x20 reduce   [--d D] [--p P] --out FILE IN      lossless parameter reduction\n\
         \x20 compress --out FILE IN                      entropy-coded copy\n\
         \x20 inspect  FILE...                            state diagnostics\n\n\
         keyed store (key<TAB>element lines; `ELLK` snapshot files):\n\
         \x20 store ingest  --out FILE [--shards N] [--t T --d D --p P] [--threads N]\n\
         \x20               [--warm-after N] [--cold-after N --spill DIR] [FILE...|-]\n\
         \x20                                             (tiering: each input = one clock tick;\n\
         \x20                                             idle keys demote before the snapshot)\n\
         \x20 store query   FILE [KEY...] [--merged]      per-key (or union) estimates\n\
         \x20 store stats   FILE [--entropy]              key count, resident bytes, tier\n\
         \x20                                             breakdown (+ per-key entropy bits)\n\
         \x20 store tiers   FILE [--warm-after N] [--cold-after N --spill DIR] [--out FILE]\n\
         \x20                                             demote everything idle, report the\n\
         \x20                                             memory saved (optionally persist)\n\
         \x20 store snapshot FILE --out DIR               export per-key sketch files + manifest\n\
         \x20 store restore DIR --out FILE                rebuild a snapshot from an export\n\n\
         windowed store (key<TAB>epoch<TAB>element lines; `ELLW` snapshot files):\n\
         \x20 store window ingest  --out FILE [--epochs E] [--shards N] [--t T --d D --p P]\n\
         \x20                       [--warm-after N] [FILE...|-]\n\
         \x20                                             per-epoch ingest (auto-advances;\n\
         \x20                                             idle rings demote to compressed form)\n\
         \x20 store window advance FILE --epoch N [--out FILE]\n\
         \x20                                             rotate the window forward\n\
         \x20 store window query   FILE [KEY...] [--last K] [--all-time] [--stats]\n\
         \x20                                             trailing-window estimates\n\
         \x20                                             (--stats: suffix-cache counters)\n\
         \x20 store window stats   FILE                   epoch, resident bytes, tier breakdown\n\n\
         algorithms for count --algo:\n\
         \x20 {}",
        ell_baselines::ALGORITHMS.join(", ")
    );
}
