//! End-to-end tests of the CLI workflows through the library functions
//! (count → save → merge → reduce → compress → inspect, plus the sparse
//! token pipeline and set-relation queries), using temp files.

use ell_store::EllStore;
use ell_tools::{
    collect_tokens, count_lines, count_lines_with_algo, count_sources, export_store, import_store,
    inspect, load_any, load_sketch, load_store, load_windowed, merge_files, relate,
    save_compressed, save_sketch, save_store, save_tokens, save_windowed, store_ingest,
    windowed_ingest, SketchFile, ToolError,
};
use exaloglog::{EllConfig, SketchError};
use std::io::Cursor;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ell_tools_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn lines(range: std::ops::Range<u32>) -> String {
    range.map(|i| format!("user-{i}\n")).collect()
}

#[test]
fn count_save_load_roundtrip() {
    let dir = TempDir::new("roundtrip");
    let cfg = EllConfig::new(2, 20, 10).unwrap();
    let sketch = count_lines(Cursor::new(lines(0..5000)), cfg).unwrap();
    let path = dir.path("a.ell");
    save_sketch(&sketch, &path).unwrap();
    let loaded = load_sketch(&path).unwrap();
    assert_eq!(loaded, sketch);
    assert!((loaded.estimate() / 5000.0 - 1.0).abs() < 0.1);
}

#[test]
fn merge_workflow_counts_union() {
    let dir = TempDir::new("merge");
    let cfg = EllConfig::new(2, 20, 10).unwrap();
    // Three shards with overlap: 0..4000, 2000..6000, 4000..9000.
    let shards = [lines(0..4000), lines(2000..6000), lines(4000..9000)];
    let mut paths = Vec::new();
    for (i, content) in shards.iter().enumerate() {
        let sketch = count_lines(Cursor::new(content.clone()), cfg).unwrap();
        let path = dir.path(&format!("shard{i}.ell"));
        save_sketch(&sketch, &path).unwrap();
        paths.push(path);
    }
    let refs: Vec<&std::path::Path> = paths.iter().map(PathBuf::as_path).collect();
    let merged = merge_files(&refs).unwrap();
    assert!(
        (merged.estimate() / 9000.0 - 1.0).abs() < 0.1,
        "union estimate {}",
        merged.estimate()
    );
}

#[test]
fn merge_mixed_precision_files() {
    let dir = TempDir::new("mixed");
    let a = count_lines(
        Cursor::new(lines(0..3000)),
        EllConfig::new(2, 20, 11).unwrap(),
    )
    .unwrap();
    let b = count_lines(
        Cursor::new(lines(1000..4000)),
        EllConfig::new(2, 16, 9).unwrap(),
    )
    .unwrap();
    let pa = dir.path("a.ell");
    let pb = dir.path("b.ell");
    save_sketch(&a, &pa).unwrap();
    save_sketch(&b, &pb).unwrap();
    let merged = merge_files(&[&pa, &pb]).unwrap();
    // Result at the common parameters (t=2, d=16, p=9).
    assert_eq!(merged.config(), &EllConfig::new(2, 16, 9).unwrap());
    assert!((merged.estimate() / 4000.0 - 1.0).abs() < 0.15);
}

#[test]
fn compressed_files_auto_detected() {
    let dir = TempDir::new("compressed");
    let cfg = EllConfig::new(2, 24, 10).unwrap();
    let sketch = count_lines(Cursor::new(lines(0..50_000)), cfg).unwrap();
    let plain = dir.path("s.ell");
    let packed = dir.path("s.ellz");
    save_sketch(&sketch, &plain).unwrap();
    save_compressed(&sketch, &packed).unwrap();
    // The compressed file must be smaller and load back identically.
    let plain_len = std::fs::metadata(&plain).unwrap().len();
    let packed_len = std::fs::metadata(&packed).unwrap().len();
    assert!(packed_len < plain_len, "{packed_len} >= {plain_len}");
    assert_eq!(load_sketch(&packed).unwrap(), sketch);
    // Compressed files merge like plain ones (auto-detection).
    let merged = merge_files(&[plain.as_path(), packed.as_path()]).unwrap();
    assert_eq!(merged, sketch);
}

#[test]
fn inspect_snapshot() {
    let cfg = EllConfig::new(2, 20, 8).unwrap();
    let sketch = count_lines(Cursor::new(lines(0..10_000)), cfg).unwrap();
    let report = inspect(&sketch);
    assert!(report.contains("ELL(t=2, d=20, p=8)"));
    assert!(report.contains("256 × 28 bits = 896 bytes"));
    // All registers should be occupied at n = 10^4 ≫ m = 256.
    assert!(report.contains("(100.0 %)"), "{report}");
}

#[test]
fn corrupted_file_is_rejected() {
    let dir = TempDir::new("corrupt");
    let path = dir.path("bad.ell");
    std::fs::write(&path, b"not a sketch at all").unwrap();
    assert!(load_sketch(&path).is_err());
    assert!(load_any(&path).is_err());
}

#[test]
fn token_pipeline_roundtrip() {
    let dir = TempDir::new("tokens");
    let tokens = collect_tokens(Cursor::new(lines(0..2000)), 26).unwrap();
    assert!((tokens.estimate() / 2000.0 - 1.0).abs() < 0.01);
    let path = dir.path("t.ellt");
    save_tokens(&tokens, &path).unwrap();
    match load_any(&path).unwrap() {
        SketchFile::Tokens(loaded) => {
            assert_eq!(loaded, tokens);
            assert!((loaded.estimate() - tokens.estimate()).abs() < 1e-9);
        }
        other => panic!("ELLT file misdetected as {other:?}"),
    }
    // Dense files flow through the same loader.
    let cfg = EllConfig::new(2, 20, 8).unwrap();
    let sketch = count_lines(Cursor::new(lines(0..2000)), cfg).unwrap();
    let dense_path = dir.path("d.ell");
    save_sketch(&sketch, &dense_path).unwrap();
    match load_any(&dense_path).unwrap() {
        SketchFile::Dense(loaded) => assert_eq!(loaded, sketch),
        other => panic!("ELL1 file misdetected as {other:?}"),
    }
    // Adaptive (ELLS) files are detected too.
    let mut adaptive =
        exaloglog::AdaptiveExaLogLog::new(EllConfig::new(2, 20, 10).unwrap()).unwrap();
    adaptive.insert_hash(42);
    let adaptive_path = dir.path("a.ells");
    std::fs::write(&adaptive_path, adaptive.to_bytes()).unwrap();
    match load_any(&adaptive_path).unwrap() {
        SketchFile::Adaptive(loaded) => assert_eq!(loaded, adaptive),
        other => panic!("ELLS file misdetected as {other:?}"),
    }
    // So are the dense-phase ELLS files older versions wrote: magic,
    // (t, d, p), v, phase tag 1, then the ELL1 payload.
    let mut legacy = b"ELLS".to_vec();
    legacy.extend_from_slice(&[2, 20, 8, 26, 1]);
    legacy.extend_from_slice(&sketch.to_bytes());
    let legacy_path = dir.path("legacy.ells");
    std::fs::write(&legacy_path, legacy).unwrap();
    match load_any(&legacy_path).unwrap() {
        SketchFile::Adaptive(loaded) => assert_eq!(loaded.as_dense(), Some(&sketch)),
        other => panic!("dense-phase ELLS file misdetected as {other:?}"),
    }
}

#[test]
fn count_with_named_algorithms() {
    // The trait-dispatched counting path must work for the ELL family and
    // every baseline, at matching accuracy.
    for algo in ["ell", "ell-t2d20", "ull", "hll6", "pcsa"] {
        let sketch = count_lines_with_algo(Cursor::new(lines(0..5000)), algo, 11).unwrap();
        let est = sketch.estimate();
        assert!(
            (est / 5000.0 - 1.0).abs() < 0.1,
            "{algo}: estimate {est} too far from 5000"
        );
    }
}

#[test]
fn count_with_unknown_algorithm_is_an_error() {
    match count_lines_with_algo(Cursor::new(lines(0..10)), "bloom-filter", 11) {
        Err(ToolError::Algo(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("bloom-filter"), "{msg}");
            assert!(msg.contains("ull"), "should list known names: {msg}");
        }
        Err(other) => panic!("expected ToolError::Algo, got {other:?}"),
        Ok(sketch) => panic!("unknown algorithm built {}", sketch.name()),
    }
    // "ell-sparse" named the sparse sketch that folded into "adaptive";
    // it is unknown now like any other name.
    match count_lines_with_algo(Cursor::new(lines(0..10)), "ell-sparse", 11) {
        Err(ToolError::Algo(SketchError::UnknownAlgorithm { name, known })) => {
            assert_eq!(name, "ell-sparse");
            assert!(known.iter().any(|k| k == "adaptive"), "{known:?}");
        }
        Err(other) => panic!("expected UnknownAlgorithm, got {other:?}"),
        Ok(sketch) => panic!("unknown algorithm built {}", sketch.name()),
    }
}

/// Runs the real `ell` binary with the given args and stdin, returning
/// (exit success, stdout, stderr).
fn run_cli(args: &[&str], stdin: &str) -> (bool, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ell"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ell binary");
    // Ignore write errors: a child that rejects its arguments exits
    // before reading stdin, which surfaces here as a broken pipe.
    let _ = child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes());
    let out = child.wait_with_output().expect("wait for ell binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Runs the real `ell` binary with the read end of its stdout already
/// closed. Stdin is fed only afterwards, so a command that reads stdin
/// to the end makes its first write into the closed pipe. Returns (exit
/// success, stderr).
fn run_cli_closed_stdout(args: &[&str], stdin: &str) -> (bool, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ell"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ell binary");
    drop(child.stdout.take());
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("ell reads all of stdin");
    let out = child.wait_with_output().expect("wait for ell binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_closed_stdout_is_a_quiet_success() {
    // `ell ... | head` closes the pipe early; that must end the command
    // with status 0 and nothing on stderr, not a broken-pipe panic.
    let dir = TempDir::new("closed_stdout");
    let sketch = dir.path("c.ell");
    let store = dir.path("s.ellk");
    let window = dir.path("w.ellw");
    let keyed: String = (0..500).map(|i| format!("key-{}\t{i}\n", i % 7)).collect();
    let windowed: String = (0..500)
        .map(|i| format!("key-{}\t{}\t{i}\n", i % 7, i / 100))
        .collect();
    let cases: [(&[&str], &str); 4] = [
        (
            &["count", "--out", sketch.to_str().unwrap()],
            &lines(0..2000),
        ),
        (&["tokens"], &lines(0..2000)),
        (
            &["store", "ingest", "--out", store.to_str().unwrap(), "-"],
            &keyed,
        ),
        (
            &[
                "store",
                "window",
                "ingest",
                "--out",
                window.to_str().unwrap(),
                "-",
            ],
            &windowed,
        ),
    ];
    for (args, stdin) in cases {
        let (ok, stderr) = run_cli_closed_stdout(args, stdin);
        assert!(ok, "{args:?} failed: {stderr}");
        assert!(stderr.is_empty(), "{args:?} wrote to stderr: {stderr}");
    }
    // Output files are written before the summary line, so they survive.
    let counted = load_sketch(&sketch).unwrap().estimate();
    assert!((counted / 2000.0 - 1.0).abs() < 0.1, "{counted}");
    assert_eq!(load_store(&store).unwrap().key_count(), 7);
    assert_eq!(load_windowed(&window).unwrap().key_count(), 7);
}

#[test]
fn cli_binary_count_algo_workflows() {
    let input = lines(0..3000);
    // ExaLogLog through the facade.
    let (ok, stdout, _) = run_cli(&["count", "--algo", "ell", "--p", "11"], &input);
    assert!(ok);
    let est: f64 = stdout.trim().parse().expect("numeric estimate");
    assert!((est / 3000.0 - 1.0).abs() < 0.1, "estimate {est}");
    // A baseline through the same interface.
    let (ok, stdout, _) = run_cli(&["count", "--algo", "ull", "--p", "11"], &input);
    assert!(ok);
    let est: f64 = stdout.trim().parse().expect("numeric estimate");
    assert!((est / 3000.0 - 1.0).abs() < 0.1, "ULL estimate {est}");
    // Unknown algorithm: non-zero exit, the name and the alternatives on
    // stderr.
    let (ok, _, stderr) = run_cli(&["count", "--algo", "nope"], "a\nb\n");
    assert!(!ok, "unknown algorithm must fail");
    assert!(stderr.contains("nope"), "{stderr}");
    assert!(stderr.contains("ull"), "should list known names: {stderr}");
    // The retired "ell-sparse" name fails the same clean way.
    let (ok, _, stderr) = run_cli(&["count", "--algo", "ell-sparse"], "a\nb\n");
    assert!(!ok, "retired algorithm name must fail");
    assert!(
        stderr.contains("unknown algorithm \"ell-sparse\""),
        "{stderr}"
    );
    assert!(
        stderr.contains("adaptive"),
        "should list known names: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    // --algo with --out is a usage error (sketch files are ExaLogLog).
    let (ok, _, stderr) = run_cli(&["count", "--algo", "ull", "--out", "/tmp/x.ell"], "a\n");
    assert!(!ok);
    assert!(stderr.contains("usage error"), "{stderr}");
}

#[test]
fn count_multiple_sources_counts_the_union() {
    // Two overlapping ranges through the multi-source path equal one
    // combined count.
    let inputs: Vec<Box<dyn std::io::BufRead>> = vec![
        Box::new(Cursor::new(lines(0..4000))),
        Box::new(Cursor::new(lines(2000..6000))),
    ];
    let cfg = EllConfig::new(2, 20, 11).unwrap();
    let sketch = count_sources(inputs, cfg).unwrap();
    assert!(
        (sketch.estimate() / 6000.0 - 1.0).abs() < 0.06,
        "union estimate {}",
        sketch.estimate()
    );
    // Bit-for-bit identical to counting the concatenation in one pass.
    let combined = format!("{}{}", lines(0..4000), lines(2000..6000));
    let direct = count_lines(Cursor::new(combined), cfg).unwrap();
    assert_eq!(sketch, direct);
}

#[test]
fn cli_count_accepts_files_and_stdin_dash() {
    let dir = TempDir::new("multifile");
    let fa = dir.path("a.txt");
    let fb = dir.path("b.txt");
    std::fs::write(&fa, lines(0..3000)).unwrap();
    std::fs::write(&fb, lines(1500..4500)).unwrap();
    // Two files.
    let (ok, stdout, _) = run_cli(
        &[
            "count",
            "--p",
            "11",
            fa.to_str().unwrap(),
            fb.to_str().unwrap(),
        ],
        "",
    );
    assert!(ok);
    let est: f64 = stdout.trim().parse().unwrap();
    assert!((est / 4500.0 - 1.0).abs() < 0.07, "estimate {est}");
    // One file plus stdin via `-`.
    let (ok, stdout, _) = run_cli(
        &["count", "--p", "11", fa.to_str().unwrap(), "-"],
        &lines(1500..4500),
    );
    assert!(ok);
    let est: f64 = stdout.trim().parse().unwrap();
    assert!((est / 4500.0 - 1.0).abs() < 0.07, "estimate {est}");
    // Files work with --algo dispatch too.
    let (ok, stdout, _) = run_cli(
        &["count", "--algo", "ull", "--p", "11", fa.to_str().unwrap()],
        "",
    );
    assert!(ok);
    let est: f64 = stdout.trim().parse().unwrap();
    assert!((est / 3000.0 - 1.0).abs() < 0.1, "estimate {est}");
    // A missing file is a clean error.
    let (ok, _, stderr) = run_cli(&["count", "/nonexistent/nope.txt"], "");
    assert!(!ok);
    assert!(!stderr.is_empty());
}

/// `key<TAB>element` lines: `keys` keys, each observing its own element
/// range (with per-key overlap across calls controlled by `range`).
fn keyed_lines(keys: usize, range: std::ops::Range<u32>) -> String {
    let mut out = String::new();
    for i in range {
        out.push_str(&format!("key-{}\telem-{}\n", i as usize % keys, i));
    }
    out
}

#[test]
fn store_library_roundtrip() {
    let dir = TempDir::new("store_lib");
    let store = EllStore::new(8, EllConfig::new(2, 20, 10).unwrap()).unwrap();
    let events = store_ingest(&store, Cursor::new(keyed_lines(5, 0..10_000))).unwrap();
    assert_eq!(events, 10_000);
    assert_eq!(store.key_count(), 5);
    // Each key saw 2000 distinct elements.
    for (key, est) in store.estimates() {
        assert!(
            (est / 2000.0 - 1.0).abs() < 0.1,
            "{key}: estimate {est} vs exact 2000"
        );
    }
    // ELLK snapshot file roundtrip.
    let snap = dir.path("s.ellk");
    save_store(&store, &snap).unwrap();
    let loaded = load_store(&snap).unwrap();
    assert_eq!(loaded.snapshot_bytes(), store.snapshot_bytes());
    // Per-key export + import reproduces every estimate bit-for-bit.
    let export_dir = dir.path("export");
    let entries = export_store(&store, &export_dir).unwrap();
    assert_eq!(entries, 5);
    let imported = import_store(&export_dir).unwrap();
    for ((ka, ea), (kb, eb)) in store.estimates().iter().zip(imported.estimates().iter()) {
        assert_eq!(ka, kb);
        assert_eq!(ea.to_bits(), eb.to_bits(), "{ka}");
    }
    // Exported entry files are ordinary sketch files: `load_any` reads
    // them (sparse keys export as ELLS, hot/dense ones as ELL1).
    let first = load_any(&export_dir.join("entry-000000.ell")).unwrap();
    assert!(first.estimate() > 0.0);
    // Malformed keyed lines are an error.
    assert!(store_ingest(&store, Cursor::new("no-separator\n")).is_err());
}

#[test]
fn cli_store_workflows() {
    let dir = TempDir::new("store_cli");
    let snap = dir.path("traffic.ellk");
    let snap_str = snap.to_str().unwrap();
    // Ingest from stdin.
    let (ok, stdout, stderr) = run_cli(
        &["store", "ingest", "--out", snap_str, "--p", "10", "-"],
        &keyed_lines(4, 0..8000),
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("4 keys"), "{stdout}");
    // Resume into the existing snapshot from a file input.
    let extra = dir.path("extra.tsv");
    std::fs::write(&extra, keyed_lines(4, 4000..12_000)).unwrap();
    let (ok, stdout, stderr) = run_cli(
        &[
            "store",
            "ingest",
            "--out",
            snap_str,
            extra.to_str().unwrap(),
        ],
        "",
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("4 keys"), "{stdout}");
    // Query all keys: 3000 distinct elements each after the overlap.
    let (ok, stdout, _) = run_cli(&["store", "query", snap_str], "");
    assert!(ok);
    let rows: Vec<&str> = stdout.lines().collect();
    assert_eq!(rows.len(), 4);
    for row in &rows {
        let (key, est) = row.split_once('\t').expect("key\\testimate");
        let est: f64 = est.parse().unwrap();
        assert!(
            (est / 3000.0 - 1.0).abs() < 0.1,
            "{key}: estimate {est} vs exact 3000"
        );
    }
    // Query single key and the merged union (12000 distinct elements).
    let (ok, stdout, _) = run_cli(&["store", "query", snap_str, "key-0"], "");
    assert!(ok);
    assert!(stdout.starts_with("key-0\t"), "{stdout}");
    let (ok, stdout, _) = run_cli(&["store", "query", "--merged", snap_str], "");
    assert!(ok);
    let merged: f64 = stdout.trim().parse().unwrap();
    assert!(
        (merged / 12_000.0 - 1.0).abs() < 0.1,
        "merged estimate {merged}"
    );
    // Unknown key is a clean error.
    let (ok, _, stderr) = run_cli(&["store", "query", snap_str, "key-9"], "");
    assert!(!ok);
    assert!(stderr.contains("key-9"), "{stderr}");
    // snapshot (export) → restore: per-key estimates survive bit-for-bit.
    let export_dir = dir.path("export");
    let export_str = export_dir.to_str().unwrap();
    let (ok, stdout, stderr) = run_cli(&["store", "snapshot", snap_str, "--out", export_str], "");
    assert!(ok, "{stderr}");
    assert!(stdout.contains("4 entries"), "{stdout}");
    let restored = dir.path("restored.ellk");
    let restored_str = restored.to_str().unwrap();
    let (ok, _, stderr) = run_cli(&["store", "restore", export_str, "--out", restored_str], "");
    assert!(ok, "{stderr}");
    let (_, q1, _) = run_cli(&["store", "query", snap_str], "");
    let (_, q2, _) = run_cli(&["store", "query", restored_str], "");
    assert_eq!(q1, q2, "restored store must answer identically");
    // Usage errors are clean.
    let (ok, _, stderr) = run_cli(&["store"], "");
    assert!(!ok);
    assert!(stderr.contains("subcommand"), "{stderr}");
    let (ok, _, stderr) = run_cli(&["store", "frobnicate"], "");
    assert!(!ok);
    assert!(stderr.contains("frobnicate"), "{stderr}");
}

#[test]
fn similarity_workflow() {
    let cfg = EllConfig::new(2, 20, 11).unwrap();
    // A = 0..6000, B = 3000..9000: |A∩B| = 3000, |A∪B| = 9000, J = 1/3.
    let a = count_lines(Cursor::new(lines(0..6000)), cfg).unwrap();
    let b = count_lines(Cursor::new(lines(3000..9000)), cfg).unwrap();
    let rel = relate(&a, &b).unwrap();
    assert!((rel.a / 6000.0 - 1.0).abs() < 0.06);
    assert!((rel.b / 6000.0 - 1.0).abs() < 0.06);
    assert!((rel.union / 9000.0 - 1.0).abs() < 0.06);
    assert!(
        (rel.jaccard - 1.0 / 3.0).abs() < 0.08,
        "J = {}",
        rel.jaccard
    );
    // Self-similarity is exactly 1 (identical sketches merge to themselves).
    let self_rel = relate(&a, &a).unwrap();
    assert!((self_rel.jaccard - 1.0).abs() < 1e-9);
}

/// `key<TAB>epoch<TAB>element` lines: `keys` keys, each epoch observing
/// its own element range.
fn windowed_lines(keys: usize, epochs: std::ops::Range<u32>, per_epoch: u32) -> String {
    let mut out = String::new();
    for epoch in epochs {
        for i in 0..per_epoch {
            out.push_str(&format!(
                "key-{}\t{epoch}\telem-{epoch}-{i}\n",
                i as usize % keys
            ));
        }
    }
    out
}

#[test]
fn windowed_library_roundtrip() {
    let dir = TempDir::new("window_lib");
    let store = ell_store::WindowedStore::new(4, EllConfig::new(2, 20, 10).unwrap(), 3).unwrap();
    // 4 epochs × 4000 events over 4 keys; each epoch's elements are
    // fresh, so a window of k epochs holds k·1000 distinct per key.
    let events = windowed_ingest(&store, Cursor::new(windowed_lines(4, 0..4, 4000))).unwrap();
    assert_eq!(events, 16_000);
    assert_eq!(store.key_count(), 4);
    assert_eq!(store.current_epoch(), 3);
    for k in 1..=3usize {
        for (key, est) in store.window_estimates(k) {
            let exact = (k * 1000) as f64;
            assert!(
                (est / exact - 1.0).abs() < 0.12,
                "{key}: window k={k} estimate {est} vs exact {exact}"
            );
        }
    }
    // ELLW snapshot file roundtrip: bit-identical windowed answers.
    let snap = dir.path("w.ellw");
    save_windowed(&store, &snap).unwrap();
    let loaded = load_windowed(&snap).unwrap();
    assert_eq!(loaded.snapshot_bytes(), store.snapshot_bytes());
    for k in 1..=3usize {
        assert_eq!(loaded.window_estimates(k), store.window_estimates(k));
    }
    // Malformed lines are errors.
    assert!(windowed_ingest(&store, Cursor::new("no-separator\n")).is_err());
    assert!(windowed_ingest(&store, Cursor::new("key\tnot-a-number\tx\n")).is_err());
    assert!(windowed_ingest(&store, Cursor::new("key\t3\n")).is_err()); // no element field
                                                                        // Space-separated fields work like tabs.
    assert!(windowed_ingest(&store, Cursor::new("key 4 elem\n")).is_ok());
}

#[test]
fn cli_store_window_workflows() {
    let dir = TempDir::new("window_cli");
    let snap = dir.path("traffic.ellw");
    let snap_str = snap.to_str().unwrap();
    // Ingest 3 epochs from stdin into a 3-epoch ring.
    let (ok, stdout, stderr) = run_cli(
        &[
            "store", "window", "ingest", "--out", snap_str, "--p", "10", "--epochs", "3", "-",
        ],
        &windowed_lines(3, 0..3, 3000),
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("3 keys"), "{stdout}");
    assert!(stdout.contains("epoch 2"), "{stdout}");
    // Resume with one more epoch from a file; epoch 0 rotates out.
    let extra = dir.path("extra.tsv");
    std::fs::write(&extra, windowed_lines(3, 3..4, 3000)).unwrap();
    let (ok, _, stderr) = run_cli(
        &[
            "store",
            "window",
            "ingest",
            "--out",
            snap_str,
            extra.to_str().unwrap(),
        ],
        "",
    );
    assert!(ok, "{stderr}");
    // Full-window query (k = 3) vs a 1-epoch window.
    let (ok, q_full, stderr) = run_cli(&["store", "window", "query", snap_str], "");
    assert!(ok, "{stderr}");
    let (ok, q_one, stderr) = run_cli(&["store", "window", "query", snap_str, "--last", "1"], "");
    assert!(ok, "{stderr}");
    let first = |s: &str| -> f64 {
        s.lines()
            .next()
            .and_then(|l| l.split('\t').nth(1))
            .unwrap()
            .parse()
            .unwrap()
    };
    // Each epoch contributes ~1000 fresh elements per key.
    assert!((first(&q_full) / 3000.0 - 1.0).abs() < 0.15, "{q_full}");
    assert!((first(&q_one) / 1000.0 - 1.0).abs() < 0.15, "{q_one}");
    // --stats appends the suffix-cache counter line after the results.
    let (ok, q_stats, stderr) = run_cli(&["store", "window", "query", snap_str, "--stats"], "");
    assert!(ok, "{stderr}");
    assert!((first(&q_stats) / 3000.0 - 1.0).abs() < 0.15, "{q_stats}");
    let stats_line = q_stats
        .lines()
        .find(|l| l.starts_with("# suffix-cache:"))
        .unwrap_or_else(|| panic!("missing stats line in {q_stats:?}"));
    assert!(stats_line.contains("lazy_rebuilds="), "{stats_line}");
    assert!(stats_line.contains("dirty_invalidations=0"), "{stats_line}");
    // Advance far ahead: windows drain, the all-time union remembers.
    let (ok, stdout, stderr) = run_cli(
        &["store", "window", "advance", snap_str, "--epoch", "50"],
        "",
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("epoch 50"), "{stdout}");
    let (_, drained, _) = run_cli(&["store", "window", "query", snap_str, "key-0"], "");
    assert_eq!(drained.trim(), "key-0\t0");
    let (_, all_time, _) = run_cli(
        &["store", "window", "query", snap_str, "key-0", "--all-time"],
        "",
    );
    assert!((first(&all_time) / 4000.0 - 1.0).abs() < 0.15, "{all_time}");
    // Usage errors are clean.
    let (ok, _, stderr) = run_cli(&["store", "window"], "");
    assert!(!ok);
    assert!(stderr.contains("subcommand"), "{stderr}");
    let (ok, _, stderr) = run_cli(&["store", "window", "query", snap_str, "--last", "9"], "");
    assert!(!ok);
    assert!(stderr.contains("window"), "{stderr}");
    let (ok, _, stderr) = run_cli(
        &[
            "store",
            "window",
            "query",
            snap_str,
            "--last",
            "2",
            "--all-time",
        ],
        "",
    );
    assert!(!ok, "--last with --all-time must be rejected");
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
    let (ok, _, stderr) = run_cli(&["store", "window", "query", snap_str, "nope-key"], "");
    assert!(!ok);
    assert!(stderr.contains("nope-key"), "{stderr}");
}
