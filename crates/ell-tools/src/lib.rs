//! Library backing the `ell` command-line tool.
//!
//! Every subcommand is implemented as a plain function over readers,
//! writers and paths so integration tests can exercise them without
//! spawning processes. The sketch file format is exactly
//! [`ExaLogLog::to_bytes`] (or the entropy-coded [`exaloglog::compress`]
//! format, auto-detected by magic), so files interoperate with any other
//! consumer of the library.
//!
//! ```text
//! ell count [--t T --d D --p P] [--out FILE] [FILE...|-]  # distinct lines
//! ell count --algo NAME [--p P] [FILE...|-]       # any registered estimator
//! ell estimate FILE...                            # print estimates
//! ell merge --out FILE IN...                      # union of sketches
//! ell reduce --d D --p P --out FILE IN            # lossless reduction
//! ell compress --out FILE IN                      # entropy-coded copy
//! ell inspect FILE                                # state diagnostics
//! ell store ingest|query|snapshot|restore ...     # keyed sketch store
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ell_core::{Sketch, SketchError};
use ell_hash::{Hasher64, WyHash};
use ell_store::{EllStore, TierConfig};
use exaloglog::compress::{check_header, compress, decompress, state_entropy_bits};
use exaloglog::{AdaptiveExaLogLog, EllConfig, EllError, ExaLogLog, TokenSet};
use std::io::BufRead;
use std::path::Path;

/// Number of line hashes buffered per batched `insert_hashes` call.
const LINE_BATCH: usize = 1024;

/// Errors surfaced by the CLI operations.
#[derive(Debug)]
pub enum ToolError {
    /// Sketch-level failure (bad parameters, incompatible merge, …).
    Sketch(EllError),
    /// Trait-layer failure (unknown algorithm name, generic sketch error).
    Algo(SketchError),
    /// Filesystem / stream failure.
    Io(std::io::Error),
    /// Malformed command-line usage.
    Usage(String),
}

impl std::fmt::Display for ToolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToolError::Sketch(e) => write!(f, "{e}"),
            ToolError::Algo(e) => write!(f, "{e}"),
            ToolError::Io(e) => write!(f, "{e}"),
            ToolError::Usage(msg) => write!(f, "usage error: {msg}"),
        }
    }
}

impl std::error::Error for ToolError {}

impl From<EllError> for ToolError {
    fn from(e: EllError) -> Self {
        ToolError::Sketch(e)
    }
}

impl From<SketchError> for ToolError {
    fn from(e: SketchError) -> Self {
        ToolError::Algo(e)
    }
}

impl From<std::io::Error> for ToolError {
    fn from(e: std::io::Error) -> Self {
        ToolError::Io(e)
    }
}

/// Reads a sketch file, auto-detecting the plain (`ELL1`) and
/// entropy-coded formats.
pub fn load_sketch(path: &Path) -> Result<ExaLogLog, ToolError> {
    read_dense(&std::fs::read(path)?)
}

/// A dense sketch from its plain (`ELL1`) bytes or from compressed ones
/// (`ELLR`, or the legacy `ELLZ`), as `compress::check_header` decides.
fn read_dense(bytes: &[u8]) -> Result<ExaLogLog, ToolError> {
    if check_header(bytes).is_ok() {
        Ok(decompress(bytes)?)
    } else {
        Ok(ExaLogLog::from_bytes(bytes)?)
    }
}

/// Hashes every line of `input` and streams the hashes into `sketch`
/// through the batched trait hot path, in [`LINE_BATCH`] blocks
/// (bit-for-bit equivalent to per-line insertion by the trait contract).
fn feed_lines<R: BufRead>(
    input: R,
    hasher: &WyHash,
    sketch: &mut dyn Sketch,
) -> Result<(), ToolError> {
    let mut buf = Vec::with_capacity(LINE_BATCH);
    for line in input.lines() {
        buf.push(hasher.hash_bytes(line?.as_bytes()));
        if buf.len() == LINE_BATCH {
            sketch.insert_hashes(&buf);
            buf.clear();
        }
    }
    sketch.insert_hashes(&buf);
    Ok(())
}

/// Opens the named line inputs: each path becomes a buffered reader,
/// `"-"` means standard input, and an empty list defaults to standard
/// input alone (the classic filter-utility convention).
///
/// # Errors
///
/// [`ToolError::Io`] when a file cannot be opened.
pub fn open_inputs(paths: &[String]) -> Result<Vec<Box<dyn BufRead>>, ToolError> {
    if paths.is_empty() {
        return Ok(vec![Box::new(std::io::BufReader::new(std::io::stdin()))]);
    }
    paths
        .iter()
        .map(|p| -> Result<Box<dyn BufRead>, ToolError> {
            Ok(if p == "-" {
                Box::new(std::io::BufReader::new(std::io::stdin()))
            } else {
                Box::new(std::io::BufReader::new(std::fs::File::open(p)?))
            })
        })
        .collect()
}

/// Counts distinct lines from `input` into a fresh sketch.
pub fn count_lines<R: BufRead>(input: R, cfg: EllConfig) -> Result<ExaLogLog, ToolError> {
    let hasher = WyHash::new(0);
    let mut sketch = ExaLogLog::new(cfg);
    feed_lines(input, &hasher, &mut sketch)?;
    Ok(sketch)
}

/// Counts distinct lines across *all* the given inputs (one union
/// sketch), streaming every source through the batched insert path —
/// the engine behind `ell count FILE... -`.
///
/// # Errors
///
/// [`ToolError::Io`] on read failures.
pub fn count_sources(
    inputs: Vec<Box<dyn BufRead>>,
    cfg: EllConfig,
) -> Result<ExaLogLog, ToolError> {
    let hasher = WyHash::new(0);
    let mut sketch = ExaLogLog::new(cfg);
    for input in inputs {
        feed_lines(input, &hasher, &mut sketch)?;
    }
    Ok(sketch)
}

/// Counts distinct lines across all inputs with the named algorithm at
/// precision `p` (see [`count_lines_with_algo`]).
///
/// # Errors
///
/// [`ToolError::Algo`] for unknown names or unsupported precisions,
/// [`ToolError::Io`] on read failures.
pub fn count_sources_with_algo(
    inputs: Vec<Box<dyn BufRead>>,
    algo: &str,
    p: u8,
) -> Result<Box<dyn Sketch>, ToolError> {
    let hasher = WyHash::new(0);
    let mut sketch = ell_baselines::build_sketch(algo, p)?;
    for input in inputs {
        feed_lines(input, &hasher, sketch.as_mut())?;
    }
    Ok(sketch)
}

/// Counts distinct lines from `input` with the named algorithm at
/// precision `p`, dispatching through the object-safe [`Sketch`] facade
/// (see [`ell_baselines::ALGORITHMS`] for the valid names). Lines are
/// hashed exactly as in [`count_lines`], then fed through the batched
/// trait hot path.
///
/// # Errors
///
/// [`ToolError::Algo`] for unknown names or unsupported precisions,
/// [`ToolError::Io`] on read failures.
pub fn count_lines_with_algo<R: BufRead>(
    input: R,
    algo: &str,
    p: u8,
) -> Result<Box<dyn Sketch>, ToolError> {
    let hasher = WyHash::new(0);
    let mut sketch = ell_baselines::build_sketch(algo, p)?;
    feed_lines(input, &hasher, sketch.as_mut())?;
    Ok(sketch)
}

/// A sketch file of any kind: a dense/compressed ExaLogLog, a sparse
/// token set (§4.3), or an adaptive sparse→dense sketch.
#[derive(Debug, Clone, PartialEq)]
pub enum SketchFile {
    /// A dense register-array sketch (`ELL1`, `ELLR` or `ELLZ` on disk).
    Dense(ExaLogLog),
    /// A sparse token collection (`ELLT` on disk).
    Tokens(TokenSet),
    /// An adaptive sketch read from an `ELLS` file: in its token phase,
    /// or promoted when the file is an older dense-phase `ELLS` (once
    /// promoted, adaptive sketches serialize as plain `ELL1`).
    Adaptive(AdaptiveExaLogLog),
}

impl SketchFile {
    /// The distinct-count estimate, regardless of representation.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        match self {
            SketchFile::Dense(s) => s.estimate(),
            SketchFile::Tokens(t) => t.estimate(),
            SketchFile::Adaptive(a) => a.estimate(),
        }
    }
}

/// Reads any sketch file, auto-detecting dense (`ELL1`), compressed
/// (`ELLR`, `ELLZ`), token (`ELLT`), and adaptive (`ELLS`) formats by
/// magic.
pub fn load_any(path: &Path) -> Result<SketchFile, ToolError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() >= 4 && &bytes[..4] == b"ELLT" {
        Ok(SketchFile::Tokens(TokenSet::from_bytes(&bytes)?))
    } else if bytes.len() >= 4 && &bytes[..4] == b"ELLS" {
        Ok(SketchFile::Adaptive(AdaptiveExaLogLog::from_bytes(&bytes)?))
    } else {
        Ok(SketchFile::Dense(read_dense(&bytes)?))
    }
}

/// Collects distinct (v+6)-bit hash tokens from the lines of `input` —
/// the paper's §4.3 sparse mode as a shell pipeline stage.
pub fn collect_tokens<R: BufRead>(input: R, v: u32) -> Result<TokenSet, ToolError> {
    let hasher = WyHash::new(0);
    let mut tokens = TokenSet::new(v)?;
    for line in input.lines() {
        tokens.insert_hash(hasher.hash_bytes(line?.as_bytes()));
    }
    Ok(tokens)
}

/// Writes a token set in the `ELLT` format.
pub fn save_tokens(tokens: &TokenSet, path: &Path) -> Result<(), ToolError> {
    std::fs::write(path, tokens.to_bytes())?;
    Ok(())
}

/// Cardinalities relating two sketches: |A|, |B|, |A ∪ B|, the
/// inclusion–exclusion intersection, and the Jaccard coefficient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetRelation {
    /// Estimated |A|.
    pub a: f64,
    /// Estimated |B|.
    pub b: f64,
    /// Estimated |A ∪ B| (from the merged sketch).
    pub union: f64,
    /// |A| + |B| − |A ∪ B|, clamped at zero.
    pub intersection: f64,
    /// intersection / union (0 when the union is empty).
    pub jaccard: f64,
}

/// Estimates the set relation between two sketch files via merge +
/// inclusion–exclusion. Works across mixed d/p parameters (equal t).
pub fn relate(a: &ExaLogLog, b: &ExaLogLog) -> Result<SetRelation, ToolError> {
    let union_sketch = a.merged_with(b)?;
    let (ea, eb, eu) = (a.estimate(), b.estimate(), union_sketch.estimate());
    let intersection = (ea + eb - eu).max(0.0);
    Ok(SetRelation {
        a: ea,
        b: eb,
        union: eu,
        intersection,
        jaccard: if eu > 0.0 { intersection / eu } else { 0.0 },
    })
}

/// Merges all input sketch files into one (mixed d/p allowed for equal t).
pub fn merge_files(inputs: &[&Path]) -> Result<ExaLogLog, ToolError> {
    let Some((first, rest)) = inputs.split_first() else {
        return Err(ToolError::Usage("merge needs at least one input".into()));
    };
    let mut acc = load_sketch(first)?;
    for path in rest {
        let other = load_sketch(path)?;
        acc = acc.merged_with(&other)?;
    }
    Ok(acc)
}

/// Human-readable diagnostics for a sketch state.
#[must_use]
pub fn inspect(sketch: &ExaLogLog) -> String {
    let cfg = sketch.config();
    let m = cfg.m();
    let occupied = sketch.registers().filter(|&r| r != 0).count();
    let coeffs = sketch.coefficients();
    let entropy = state_entropy_bits(sketch);
    let dense_bits = (cfg.register_array_bytes() * 8) as f64;
    format!(
        "configuration      : {cfg}\n\
         registers          : {m} × {} bits = {} bytes\n\
         occupied registers : {occupied} ({:.1} %)\n\
         recorded events    : {}\n\
         estimate (ML)      : {:.1}\n\
         state-change prob  : {:.3e}\n\
         state entropy      : {:.0} bits ({:.1} % of dense)\n",
        cfg.register_width(),
        cfg.register_array_bytes(),
        occupied as f64 * 100.0 / m as f64,
        coeffs.total_events(),
        sketch.estimate(),
        sketch.state_change_probability(),
        entropy,
        entropy * 100.0 / dense_bits,
    )
}

/// Parses `--key value` style options from an argument list; returns the
/// remaining positional arguments.
pub fn parse_options(
    args: &[String],
    keys: &[&str],
) -> Result<(std::collections::HashMap<String, String>, Vec<String>), ToolError> {
    parse_options_with_flags(args, keys, &[])
}

/// Like [`parse_options`], but additionally accepts value-less boolean
/// flags (recorded in the map as `"true"` when present).
pub fn parse_options_with_flags(
    args: &[String],
    keys: &[&str],
    flags: &[&str],
) -> Result<(std::collections::HashMap<String, String>, Vec<String>), ToolError> {
    let mut opts = std::collections::HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if flags.contains(&key) {
                opts.insert(key.to_string(), "true".to_string());
                i += 1;
                continue;
            }
            if !keys.contains(&key) {
                return Err(ToolError::Usage(format!("unknown option --{key}")));
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| ToolError::Usage(format!("missing value for --{key}")))?;
            opts.insert(key.to_string(), value.clone());
            i += 2;
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    Ok((opts, positional))
}

/// Builds a configuration from optional `t`/`d`/`p` strings, defaulting to
/// the paper's ELL(2, 20, 12).
pub fn config_from_options(
    t: Option<&String>,
    d: Option<&String>,
    p: Option<&String>,
) -> Result<EllConfig, ToolError> {
    let parse = |s: Option<&String>, default: u8, name: &str| -> Result<u8, ToolError> {
        s.map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| ToolError::Usage(format!("--{name} expects a small integer")))
        })
    };
    Ok(EllConfig::new(
        parse(t, 2, "t")?,
        parse(d, 20, "d")?,
        parse(p, 12, "p")?,
    )?)
}

/// Builds a [`TierConfig`] from the shared tiering options
/// (`--warm-after N`, `--cold-after N`, `--spill DIR`). Returns `None`
/// when no tiering option is present so callers can skip configuration
/// entirely.
///
/// # Errors
///
/// [`ToolError::Usage`] on a non-positive threshold, `--cold-after`
/// without `--spill` (cold demotion needs a segment file to write to),
/// `--spill` without `--cold-after` (it would never be used), or
/// thresholds ordered cold-before-warm.
pub fn tier_config_from_options(
    opts: &std::collections::HashMap<String, String>,
) -> Result<Option<TierConfig>, ToolError> {
    let parse = |name: &str| -> Result<Option<u64>, ToolError> {
        opts.get(name)
            .map(|v| {
                v.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
                    ToolError::Usage(format!("--{name} expects a positive tick count"))
                })
            })
            .transpose()
    };
    let warm = parse("warm-after")?;
    let cold = parse("cold-after")?;
    let spill = opts.get("spill");
    if warm.is_none() && cold.is_none() {
        if spill.is_some() {
            return Err(ToolError::Usage(
                "--spill does nothing without --cold-after".into(),
            ));
        }
        return Ok(None);
    }
    if cold.is_some() && spill.is_none() {
        return Err(ToolError::Usage(
            "--cold-after needs --spill DIR for the segment file".into(),
        ));
    }
    if let (Some(w), Some(c)) = (warm, cold) {
        if c < w {
            return Err(ToolError::Usage(
                "--cold-after must be >= --warm-after (keys cool hot -> warm -> cold)".into(),
            ));
        }
    }
    let mut cfg = TierConfig::new();
    if let Some(w) = warm {
        cfg = cfg.warm_after(w);
    }
    if let Some(c) = cold {
        cfg = cfg.cold_after(c);
    }
    if let Some(dir) = spill {
        cfg = cfg.spill_dir(dir);
    }
    Ok(Some(cfg))
}

/// Writes a sketch in the plain format.
pub fn save_sketch(sketch: &ExaLogLog, path: &Path) -> Result<(), ToolError> {
    std::fs::write(path, sketch.to_bytes())?;
    Ok(())
}

/// Writes a sketch in the entropy-coded format.
pub fn save_compressed(sketch: &ExaLogLog, path: &Path) -> Result<(), ToolError> {
    std::fs::write(path, compress(sketch))?;
    Ok(())
}

// ---------------------------------------------------------------------
// Keyed store workflows (`ell store ...`)
// ---------------------------------------------------------------------

/// Splits a keyed input line into `(key, element)` at the first tab, or
/// at the first space when no tab is present.
///
/// # Errors
///
/// [`ToolError::Usage`] when the line has no separator at all.
pub fn split_keyed_line(line: &str) -> Result<(&str, &str), ToolError> {
    line.split_once('\t')
        .or_else(|| line.split_once(' '))
        .ok_or_else(|| {
            ToolError::Usage(format!(
                "keyed line {line:?} has no `key<TAB>element` (or space) separator"
            ))
        })
}

/// Streams keyed lines (`key<TAB>element`) from `input` into the store
/// through its grouped batch ingest, hashing elements exactly like
/// [`count_lines`]. Returns the number of events ingested.
///
/// # Errors
///
/// [`ToolError::Io`] on read failures, [`ToolError::Usage`] on lines
/// without a key separator.
pub fn store_ingest<R: BufRead>(store: &EllStore, input: R) -> Result<u64, ToolError> {
    let hasher = WyHash::new(0);
    let mut buf: Vec<(String, u64)> = Vec::with_capacity(LINE_BATCH);
    let mut total = 0u64;
    let flush = |buf: &mut Vec<(String, u64)>| {
        let refs: Vec<(&str, u64)> = buf.iter().map(|(k, h)| (k.as_str(), *h)).collect();
        store.ingest(&refs);
        buf.clear();
    };
    for line in input.lines() {
        let line = line?;
        let (key, element) = split_keyed_line(&line)?;
        buf.push((key.to_string(), hasher.hash_bytes(element.as_bytes())));
        total += 1;
        if buf.len() == LINE_BATCH {
            flush(&mut buf);
        }
    }
    flush(&mut buf);
    Ok(total)
}

/// Streams keyed lines into the store through `threads` buffered
/// [`ell_store::IngestSession`]s: lines are read in blocks of
/// `threads × LINE_BATCH`, each block split into contiguous per-thread
/// slices ingested concurrently. Hashing matches [`store_ingest`]
/// exactly, and because session merges are monotone the resulting store
/// serializes bit-for-bit identically to the sequential path for any
/// thread count. Returns the number of events ingested.
///
/// # Errors
///
/// [`ToolError::Io`] on read failures, [`ToolError::Usage`] on lines
/// without a key separator.
pub fn store_ingest_parallel<R: BufRead>(
    store: &EllStore,
    input: R,
    threads: usize,
) -> Result<u64, ToolError> {
    if threads <= 1 {
        return store_ingest(store, input);
    }
    let hasher = WyHash::new(0);
    let mut total = 0u64;
    let mut lines = input.lines();
    let mut block: Vec<(String, u64)> = Vec::with_capacity(threads * LINE_BATCH);
    loop {
        block.clear();
        for line in lines.by_ref() {
            let line = line?;
            let (key, element) = split_keyed_line(&line)?;
            block.push((key.to_string(), hasher.hash_bytes(element.as_bytes())));
            total += 1;
            if block.len() == threads * LINE_BATCH {
                break;
            }
        }
        if block.is_empty() {
            return Ok(total);
        }
        let chunk = block.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            for part in block.chunks(chunk) {
                scope.spawn(move || {
                    let mut session = store.session();
                    for (key, hash) in part {
                        session.insert(key, *hash);
                    }
                });
            }
        });
    }
}

/// Reads an `ELLK` store snapshot file.
pub fn load_store(path: &Path) -> Result<EllStore, ToolError> {
    Ok(EllStore::from_snapshot_bytes(&std::fs::read(path)?)?)
}

/// Writes the store's `ELLK` snapshot.
pub fn save_store(store: &EllStore, path: &Path) -> Result<(), ToolError> {
    std::fs::write(path, store.snapshot_bytes())?;
    Ok(())
}

// ---------------------------------------------------------------------
// Windowed store workflows (`ell store window ...`)
// ---------------------------------------------------------------------

/// Splits a timestamped keyed line into `(key, epoch, element)` at tabs
/// (or single spaces when no tab is present).
///
/// # Errors
///
/// [`ToolError::Usage`] when the line does not have three fields or the
/// epoch is not a nonnegative integer.
pub fn split_windowed_line(line: &str) -> Result<(&str, u64, &str), ToolError> {
    let (key, rest) = line
        .split_once('\t')
        .or_else(|| line.split_once(' '))
        .ok_or_else(|| {
            ToolError::Usage(format!(
                "windowed line {line:?} has no `key<TAB>epoch<TAB>element` separator"
            ))
        })?;
    let (epoch_str, element) = rest
        .split_once('\t')
        .or_else(|| rest.split_once(' '))
        .ok_or_else(|| {
            ToolError::Usage(format!(
                "windowed line {line:?} is missing the element field"
            ))
        })?;
    let epoch: u64 = epoch_str.parse().map_err(|_| {
        ToolError::Usage(format!(
            "windowed line {line:?}: epoch {epoch_str:?} is not a nonnegative integer"
        ))
    })?;
    Ok((key, epoch, element))
}

/// Streams timestamped keyed lines (`key<TAB>epoch<TAB>element`) from
/// `input` into the windowed store through its batched ingest, hashing
/// elements exactly like [`count_lines`]. Consecutive same-epoch lines
/// batch together; an epoch change flushes (so the window advances in
/// stream order). Returns the number of events ingested.
///
/// # Errors
///
/// [`ToolError::Io`] on read failures, [`ToolError::Usage`] on
/// malformed lines.
pub fn windowed_ingest<R: BufRead>(
    store: &ell_store::WindowedStore,
    input: R,
) -> Result<u64, ToolError> {
    let hasher = WyHash::new(0);
    let mut buf: Vec<(String, u64)> = Vec::with_capacity(LINE_BATCH);
    let mut buf_epoch = 0u64;
    let mut total = 0u64;
    let flush = |epoch: u64, buf: &mut Vec<(String, u64)>| {
        let refs: Vec<(&str, u64)> = buf.iter().map(|(k, h)| (k.as_str(), *h)).collect();
        store.ingest(epoch, &refs);
        buf.clear();
    };
    for line in input.lines() {
        let line = line?;
        let (key, epoch, element) = split_windowed_line(&line)?;
        if epoch != buf_epoch && !buf.is_empty() {
            flush(buf_epoch, &mut buf);
        }
        buf_epoch = epoch;
        buf.push((key.to_string(), hasher.hash_bytes(element.as_bytes())));
        total += 1;
        if buf.len() == LINE_BATCH {
            flush(buf_epoch, &mut buf);
        }
    }
    if !buf.is_empty() {
        flush(buf_epoch, &mut buf);
    }
    Ok(total)
}

/// Reads an `ELLW` windowed-store snapshot file.
pub fn load_windowed(path: &Path) -> Result<ell_store::WindowedStore, ToolError> {
    Ok(ell_store::WindowedStore::from_snapshot_bytes(
        &std::fs::read(path)?,
    )?)
}

/// Writes the windowed store's `ELLW` snapshot.
pub fn save_windowed(store: &ell_store::WindowedStore, path: &Path) -> Result<(), ToolError> {
    std::fs::write(path, store.snapshot_bytes())?;
    Ok(())
}

/// Percent-escapes the characters that would break the tab-separated
/// manifest (`%`, tab, newline, carriage return).
fn escape_key(key: &str) -> String {
    let mut out = String::with_capacity(key.len());
    for c in key.chars() {
        match c {
            '%' => out.push_str("%25"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape_key`].
fn unescape_key(escaped: &str) -> Result<String, ToolError> {
    let mut out = String::with_capacity(escaped.len());
    let mut chars = escaped.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hex: String = chars.by_ref().take(2).collect();
        if hex.len() != 2 {
            return Err(ToolError::Usage(format!(
                "truncated %-escape {hex:?} in manifest key"
            )));
        }
        let code = u8::from_str_radix(&hex, 16)
            .map_err(|_| ToolError::Usage(format!("bad %-escape {hex:?} in manifest key")))?;
        out.push(char::from(code));
    }
    Ok(out)
}

/// Exports every store entry as an individual sketch file (the existing
/// `ELLS`/`ELL1` wire formats, readable by `ell estimate`) plus a
/// `MANIFEST.tsv` mapping file names back to keys. Returns the number
/// of entries written.
///
/// # Errors
///
/// [`ToolError::Io`] on filesystem failures.
pub fn export_store(store: &EllStore, dir: &Path) -> Result<usize, ToolError> {
    std::fs::create_dir_all(dir)?;
    let entries = store.entries();
    let cfg = store.config();
    let mut manifest = format!(
        "#ellk-export t={} d={} p={} v={} shards={}\n",
        cfg.t(),
        cfg.d(),
        cfg.p(),
        store.token_parameter(),
        store.shard_count()
    );
    for (i, (key, sketch)) in entries.iter().enumerate() {
        let name = format!("entry-{i:06}.ell");
        std::fs::write(dir.join(&name), sketch.to_bytes())?;
        manifest.push_str(&format!("{name}\t{}\n", escape_key(key)));
    }
    std::fs::write(dir.join("MANIFEST.tsv"), manifest)?;
    Ok(entries.len())
}

/// Rebuilds a store from an [`export_store`] directory: the manifest
/// header restores the configuration, every entry file is parsed
/// through the per-sketch wire formats and folded back under its key.
///
/// # Errors
///
/// [`ToolError::Usage`] on a malformed manifest, [`ToolError::Io`] /
/// [`ToolError::Sketch`] on unreadable or corrupt entry files.
pub fn import_store(dir: &Path) -> Result<EllStore, ToolError> {
    let manifest = std::fs::read_to_string(dir.join("MANIFEST.tsv"))?;
    let mut lines = manifest.lines();
    let header = lines
        .next()
        .and_then(|l| l.strip_prefix("#ellk-export "))
        .ok_or_else(|| ToolError::Usage("manifest is missing the #ellk-export header".into()))?;
    let mut fields = std::collections::HashMap::new();
    for pair in header.split_whitespace() {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| ToolError::Usage(format!("bad manifest header field {pair:?}")))?;
        fields.insert(k, v);
    }
    let get = |name: &str| -> Result<u64, ToolError> {
        fields
            .get(name)
            .ok_or_else(|| ToolError::Usage(format!("manifest header lacks {name}=")))?
            .parse()
            .map_err(|_| ToolError::Usage(format!("manifest header field {name} is not a number")))
    };
    let cfg = EllConfig::new(get("t")? as u8, get("d")? as u8, get("p")? as u8)?;
    let store = EllStore::with_token_parameter(get("shards")? as usize, cfg, get("v")? as u32)?;
    for line in lines.filter(|l| !l.is_empty()) {
        let (file, escaped) = line
            .split_once('\t')
            .ok_or_else(|| ToolError::Usage(format!("manifest line {line:?} has no tab")))?;
        let key = unescape_key(escaped)?;
        let sketch = AdaptiveExaLogLog::from_bytes(&std::fs::read(dir.join(file))?)?;
        store.merge_key(&key, &sketch)?;
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn count_lines_deduplicates() {
        let cfg = EllConfig::new(2, 20, 10).unwrap();
        let input = "alice\nbob\nalice\ncarol\nbob\n";
        let sketch = count_lines(Cursor::new(input), cfg).unwrap();
        assert_eq!(sketch.estimate().round() as u64, 3);
    }

    #[test]
    fn inspect_reports_key_fields() {
        let cfg = EllConfig::new(2, 20, 6).unwrap();
        let sketch = count_lines(Cursor::new("a\nb\nc\n"), cfg).unwrap();
        let report = inspect(&sketch);
        assert!(report.contains("ELL(t=2, d=20, p=6)"));
        assert!(report.contains("recorded events"));
        assert!(report.contains("estimate"));
    }

    #[test]
    fn option_parser() {
        let args: Vec<String> = ["--p", "10", "file.ell", "--t", "2"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let (opts, pos) = parse_options(&args, &["p", "t", "d"]).unwrap();
        assert_eq!(opts["p"], "10");
        assert_eq!(opts["t"], "2");
        assert_eq!(pos, vec!["file.ell"]);
        assert!(parse_options(&args, &["p"]).is_err()); // unknown --t
    }

    #[test]
    fn token_collection_counts() {
        let tokens = collect_tokens(Cursor::new("a\nb\na\nc\nd\n"), 26).unwrap();
        assert_eq!(tokens.len(), 4);
        assert_eq!(tokens.estimate().round() as u64, 4);
    }

    #[test]
    fn relation_between_overlapping_sketches() {
        let cfg = EllConfig::new(2, 20, 12).unwrap();
        let mut a = ExaLogLog::new(cfg);
        let mut b = ExaLogLog::new(cfg);
        let hasher = WyHash::new(0);
        for i in 0..6000u32 {
            a.insert(&hasher, format!("x{i}").as_bytes());
        }
        for i in 3000..9000u32 {
            b.insert(&hasher, format!("x{i}").as_bytes());
        }
        let rel = relate(&a, &b).unwrap();
        assert!(
            (rel.union / 9000.0 - 1.0).abs() < 0.05,
            "union {}",
            rel.union
        );
        assert!(
            (rel.intersection / 3000.0 - 1.0).abs() < 0.25,
            "intersection {}",
            rel.intersection
        );
        assert!(
            (rel.jaccard - 1.0 / 3.0).abs() < 0.1,
            "jaccard {}",
            rel.jaccard
        );
    }

    #[test]
    fn tier_options_validate() {
        let parse = |pairs: &[(&str, &str)]| {
            let map: std::collections::HashMap<String, String> = pairs
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect();
            tier_config_from_options(&map)
        };
        assert!(parse(&[]).unwrap().is_none());
        let cfg = parse(&[("warm-after", "3")]).unwrap().unwrap();
        assert_eq!(cfg.warm_threshold(), Some(3));
        assert_eq!(cfg.cold_threshold(), None);
        let cfg = parse(&[
            ("warm-after", "2"),
            ("cold-after", "5"),
            ("spill", "/tmp/x"),
        ])
        .unwrap()
        .unwrap();
        assert_eq!(cfg.cold_threshold(), Some(5));
        assert!(cfg.spill_directory().is_some());
        assert!(parse(&[("warm-after", "0")]).is_err()); // non-positive
        assert!(parse(&[("cold-after", "4")]).is_err()); // no --spill
        assert!(parse(&[("spill", "/tmp/x")]).is_err()); // spill alone
                                                         // cold sooner than warm makes the lifecycle unreachable
        assert!(parse(&[
            ("warm-after", "5"),
            ("cold-after", "2"),
            ("spill", "/tmp/x")
        ])
        .is_err());
    }

    /// `ell store stats --entropy` reports `state_entropy_bits`, the
    /// information-theoretic bound the warm tier's entropy coder works
    /// against: the compressed payload for the same state must land within a
    /// small constant plus ~10% of `ceil(bits / 8)` past its 16-byte
    /// header. This pins the stat to what demotion actually buys.
    #[test]
    fn store_entropy_pins_compressed_payload_size() {
        let cfg = EllConfig::new(2, 16, 8).unwrap();
        let store = EllStore::new(4, cfg).unwrap();
        let mut sketch = ExaLogLog::new(cfg);
        for i in 0..4000u64 {
            let h = ell_hash::mix64(i);
            store.insert("k", h);
            sketch.insert_hash(h);
        }
        let bits = store.state_entropy_bits("k").unwrap();
        assert!(bits > 0.0);
        let payload = compress(&sketch).len() as f64 - 16.0; // header excluded
        let predicted = (bits / 8.0).ceil();
        assert!(
            payload >= predicted - 2.0,
            "coder beat the entropy bound: {payload} < {predicted}"
        );
        assert!(
            payload <= predicted * 1.1 + 8.0,
            "coder overhead too large: {payload} vs {predicted}"
        );
    }

    #[test]
    fn config_defaults_to_paper_optimum() {
        let cfg = config_from_options(None, None, None).unwrap();
        assert_eq!((cfg.t(), cfg.d(), cfg.p()), (2, 20, 12));
        let cfg = config_from_options(None, None, Some(&"8".to_string())).unwrap();
        assert_eq!(cfg.p(), 8);
        assert!(config_from_options(Some(&"bad".to_string()), None, None).is_err());
    }
}
