//! xlint — the workspace's custom static pass for the lock-free core.
//!
//! Compiled and run directly by CI (and by the `xlint_gate` test in
//! `ell-verify`) with a bare `rustc ci/xlint.rs`; std only, no registry
//! dependencies, mirroring the offline-vendoring policy.
//!
//! Five checks, all lexical (a line scanner that skips comments,
//! strings, `crates/vendor/**`, and `#[cfg(test)]` modules):
//!
//! 1. **ordering-comment** — every use of an atomic `Ordering::`
//!    variant must carry a `// ordering:` justification on the same
//!    line or within the three lines above it. The comment is the
//!    reviewable artifact: a memory-ordering choice with no recorded
//!    reason is unauditable.
//! 2. **unsafe-scope** — `unsafe` is forbidden everywhere except the
//!    bench binary's instrumented allocator; inside the allowlist every
//!    `unsafe` block needs an adjacent `// SAFETY:` comment.
//! 3. **sync-facade** — library code in the facade crates (`exaloglog`,
//!    `ell-store`) must route scheduler-relevant sync types through the
//!    crate's `sync` module, never `std::sync`/`core::sync::atomic`
//!    directly, or the `--cfg ell_verify` model-checking build silently
//!    loses coverage of that site. (`std::sync::Arc` is exempt: it has
//!    no scheduling semantics.)
//! 4. **narrowing-cast** — in wire-format decode paths, `as` casts to a
//!    narrower integer type must carry a `// cast:` justification;
//!    silent truncation of attacker- or disk-controlled lengths is how
//!    decoders corrupt memory accounting.
//! 5. **panic-free** — `panic!`/`.unwrap()` are forbidden in library
//!    (non-test, non-bin) code outside an explicit allowlist; libraries
//!    surface `Result` or `.expect` with an invariant message.
//!
//! Findings are written to `xlint-findings.json` (machine-readable,
//! uploaded as a CI artifact) and printed to stderr; any finding makes
//! the process exit 1.
//!
//! Usage: `xlint [REPO_ROOT]` (default: current directory).

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// How many extra code-bearing lines above a flagged site a
/// justification comment (`// ordering:`, `// SAFETY:`, `// cast:`) may
/// sit, beyond the contiguous comment block directly above it. Covers
/// a marker on the statement's first line when the flagged token sits
/// on a continuation line of the same expression.
const JUSTIFICATION_WINDOW: usize = 3;

const ATOMIC_ORDERINGS: [&str; 5] = [
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// Files allowed to contain `unsafe`, with the reason on record.
/// Every block inside them still needs a `// SAFETY:` comment.
const UNSAFE_ALLOWLIST: [(&str, &str); 1] = [(
    "crates/ell-bench/src/bin/bench_window.rs",
    "bench-only GlobalAlloc shim for peak-RSS instrumentation; never linked into libraries",
)];

/// Library sites allowed to panic, with the reason on record.
/// Matched as (path suffix, line must contain).
const PANIC_ALLOWLIST: [(&str, &str, &str); 0] = [];

/// Facade crates whose library code must not touch `std::sync` /
/// `core::sync::atomic` directly (check 3). The `sync.rs` facade file
/// itself is the single sanctioned exception.
const FACADE_CRATES: [&str; 2] = ["crates/exaloglog/src/", "crates/ell-store/src/"];

/// Decode-path files where narrowing casts need justification (check 4).
const DECODE_PATHS: [&str; 3] = [
    "crates/ell-codec/src/",
    "crates/ell-store/src/wire.rs",
    "crates/ell-store/src/window_wire.rs",
];

const NARROWING_CASTS: [&str; 6] = ["as u8", "as u16", "as u32", "as i8", "as i16", "as i32"];

#[derive(Debug)]
struct Finding {
    check: &'static str,
    file: String,
    line: usize,
    message: String,
}

/// One source line split into scannable code and its comment text.
struct ScanLine {
    /// Code with string/char literals blanked and comments removed.
    code: String,
    /// Comment text on this line (line comments and block-comment
    /// spans), used for justification-adjacency checks.
    comment: String,
    /// Whether the line lies inside a `#[cfg(test)]` module or item.
    in_test: bool,
}

/// Lexes a file into per-line code/comment splits and marks
/// `#[cfg(test)]` regions. Lexical, not a full parser: tracks block
/// comments, string/char/raw-string literals, and brace depth.
fn scan_lines(src: &str) -> Vec<ScanLine> {
    let mut out = Vec::new();
    let mut in_block_comment = 0usize; // nesting depth
    let mut depth = 0i64;
    // A pending `#[cfg(test)]` waiting for the item it gates; once the
    // item opens a brace we skip until depth returns to `open_depth`.
    let mut cfg_test_pending = false;
    let mut test_until_depth: Option<i64> = None;

    for raw in src.lines() {
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let mut chars = raw.chars().peekable();
        let mut in_str = false;
        let mut in_char = false;
        let mut raw_hashes: Option<usize> = None;

        while let Some(c) = chars.next() {
            if in_block_comment > 0 {
                if c == '*' && chars.peek() == Some(&'/') {
                    chars.next();
                    in_block_comment -= 1;
                } else if c == '/' && chars.peek() == Some(&'*') {
                    chars.next();
                    in_block_comment += 1;
                } else {
                    comment.push(c);
                }
                continue;
            }
            if let Some(hashes) = raw_hashes {
                // Inside r"…" / r#"…"# — ends at `"` followed by `hashes` #s.
                if c == '"' {
                    let mut seen = 0;
                    while seen < hashes && chars.peek() == Some(&'#') {
                        chars.next();
                        seen += 1;
                    }
                    if seen == hashes {
                        raw_hashes = None;
                        code.push(' ');
                    }
                }
                continue;
            }
            if in_str {
                if c == '\\' {
                    chars.next();
                } else if c == '"' {
                    in_str = false;
                    code.push(' ');
                }
                continue;
            }
            if in_char {
                if c == '\\' {
                    chars.next();
                } else if c == '\'' {
                    in_char = false;
                }
                continue;
            }
            match c {
                '/' if chars.peek() == Some(&'/') => {
                    comment.push_str(chars.collect::<String>().as_str());
                    break;
                }
                '/' if chars.peek() == Some(&'*') => {
                    chars.next();
                    in_block_comment += 1;
                }
                '"' => {
                    in_str = true;
                    code.push(' ');
                }
                'r' if chars.peek() == Some(&'"') || chars.peek() == Some(&'#') => {
                    // Possible raw string; count hashes then require `"`.
                    let mut hashes = 0;
                    while chars.peek() == Some(&'#') {
                        chars.next();
                        hashes += 1;
                    }
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        raw_hashes = Some(hashes);
                        code.push(' ');
                    } else {
                        code.push('r');
                        for _ in 0..hashes {
                            code.push('#');
                        }
                    }
                }
                '\'' => {
                    // Char literal vs lifetime: a lifetime is `'ident`
                    // with no closing quote nearby; treat `'x'` (one
                    // char or escape then `'`) as a literal.
                    let rest: String = chars.clone().collect();
                    let is_literal = rest.starts_with('\\')
                        || (rest.len() >= 2 && rest.as_bytes()[1] == b'\'');
                    if is_literal {
                        in_char = true;
                    } else {
                        code.push('\'');
                    }
                }
                _ => code.push(c),
            }
        }

        let depth_before = depth;
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }

        let mut in_test = test_until_depth.is_some();
        if let Some(until) = test_until_depth {
            if depth <= until && code.contains('}') {
                test_until_depth = None;
            }
        } else if cfg_test_pending {
            in_test = true;
            let trimmed = code.trim();
            if !trimmed.is_empty() {
                if depth > depth_before || code.contains('{') {
                    // Item opened a block; skip until it closes.
                    test_until_depth = Some(depth_before);
                    cfg_test_pending = false;
                } else if trimmed.ends_with(';') {
                    // Single-line gated item (`#[cfg(test)] use …;`).
                    cfg_test_pending = false;
                }
                // Otherwise (another attribute line) keep pending.
            }
        }
        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
            cfg_test_pending = true;
            in_test = true;
        }

        out.push(ScanLine {
            code,
            comment,
            in_test,
        });
    }
    out
}

fn has_justification(lines: &[ScanLine], idx: usize, marker: &str) -> bool {
    // The flagged line itself, then the contiguous comment-only block
    // directly above it (a long justification may span many lines),
    // then a small window of mixed code/comment lines above that.
    if lines[idx].comment.contains(marker) {
        return true;
    }
    let mut i = idx;
    let mut budget = JUSTIFICATION_WINDOW;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        if l.comment.contains(marker) {
            return true;
        }
        if !l.code.trim().is_empty() {
            if budget == 0 {
                return false;
            }
            budget -= 1;
        }
    }
    false
}

/// Whether the integration-test tree or bench binaries contain this
/// path (checks 2/3/5 exempt them; check 1 and 4 still apply where the
/// path lists say so).
fn is_test_or_bin(rel: &str) -> bool {
    rel.contains("/tests/") || rel.contains("/benches/") || rel.contains("/examples/")
}

fn check_file(rel: &str, src: &str, findings: &mut Vec<Finding>) {
    let lines = scan_lines(src);
    let in_facade_lib = FACADE_CRATES.iter().any(|p| rel.starts_with(p))
        && !rel.ends_with("/sync.rs")
        && !is_test_or_bin(rel);
    let in_decode_path = DECODE_PATHS.iter().any(|p| rel.starts_with(p));
    let unsafe_allowed = UNSAFE_ALLOWLIST.iter().any(|(p, _)| rel == *p);
    let in_library = rel.contains("/src/") && !rel.contains("/src/bin/") && !is_test_or_bin(rel);

    for (i, line) in lines.iter().enumerate() {
        let n = i + 1;
        let code = line.code.as_str();
        if line.in_test {
            continue;
        }

        // 1. ordering-comment
        if ATOMIC_ORDERINGS.iter().any(|o| code.contains(o))
            && !has_justification(&lines, i, "ordering:")
        {
            findings.push(Finding {
                check: "ordering-comment",
                file: rel.to_string(),
                line: n,
                message: "atomic Ordering use without an adjacent `// ordering:` justification"
                    .to_string(),
            });
        }

        // 2. unsafe-scope
        if contains_word(code, "unsafe") {
            if !unsafe_allowed {
                findings.push(Finding {
                    check: "unsafe-scope",
                    file: rel.to_string(),
                    line: n,
                    message: "`unsafe` outside the allowlisted bench allocator file"
                        .to_string(),
                });
            } else if !has_justification(&lines, i, "SAFETY:") {
                findings.push(Finding {
                    check: "unsafe-scope",
                    file: rel.to_string(),
                    line: n,
                    message: "`unsafe` block without an adjacent `// SAFETY:` comment".to_string(),
                });
            }
        }

        // 3. sync-facade
        if in_facade_lib {
            let std_sync = code.contains("std::sync::") || code.contains("core::sync::atomic");
            let only_arc = std_sync
                && !code.contains("core::sync::atomic")
                && mentions_only_arc(code);
            if std_sync && !only_arc {
                findings.push(Finding {
                    check: "sync-facade",
                    file: rel.to_string(),
                    line: n,
                    message:
                        "direct std::sync/core::sync::atomic use in a facade crate; route through \
                         crate::sync so `--cfg ell_verify` model checking covers this site"
                            .to_string(),
                });
            }
        }

        // 4. narrowing-cast
        if in_decode_path
            && NARROWING_CASTS.iter().any(|c| contains_cast(code, c))
            && !has_justification(&lines, i, "cast:")
        {
            findings.push(Finding {
                check: "narrowing-cast",
                file: rel.to_string(),
                line: n,
                message:
                    "narrowing `as` cast in a wire-format decode path without a `// cast:` \
                     justification (prefer try_from)"
                        .to_string(),
            });
        }

        // 5. panic-free
        if in_library {
            let panicky = code.contains("panic!(") || code.contains(".unwrap()");
            if panicky {
                let allowed = PANIC_ALLOWLIST
                    .iter()
                    .any(|(p, must, _)| rel == *p && src.lines().nth(i).is_some_and(|l| l.contains(must)));
                if !allowed {
                    findings.push(Finding {
                        check: "panic-free",
                        file: rel.to_string(),
                        line: n,
                        message: "`panic!`/`.unwrap()` in library code; return Result or use \
                                  `.expect(\"invariant …\")`"
                            .to_string(),
                    });
                }
            }
        }
    }
}

/// `needle` as a whole word in `hay` (no identifier chars around it).
fn contains_word(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= hay.len()
            || !hay[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// A cast pattern like `as u32` must end at a word boundary so `as u32`
/// does not also match `as u320`/`as usize` prefixes.
fn contains_cast(hay: &str, cast: &str) -> bool {
    contains_word(hay, cast.strip_prefix("as ").unwrap_or(cast))
        && contains_word(hay, "as")
        && hay.contains(cast)
        && {
            // Verify the exact `as <ty>` sequence ends the type token.
            let mut start = 0;
            let mut ok = false;
            while let Some(pos) = hay[start..].find(cast) {
                let at = start + pos;
                let after = at + cast.len();
                let boundary = after >= hay.len()
                    || !hay[after..]
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_');
                if boundary {
                    ok = true;
                    break;
                }
                start = after;
            }
            ok
        }
}

/// True when every `std::sync::` path segment on the line names `Arc`
/// (or `Weak`), the scheduling-inert types exempt from the facade rule.
fn mentions_only_arc(code: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find("std::sync::") {
        let after = start + pos + "std::sync::".len();
        let rest = &code[after..];
        if !(rest.starts_with("Arc") || rest.starts_with("Weak")) {
            // `std::sync::{Arc, Mutex}` — look inside the brace list.
            if rest.starts_with('{') {
                let inner: &str = rest[1..].split('}').next().unwrap_or("");
                if !inner
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .all(|s| s.starts_with("Arc") || s.starts_with("Weak"))
                {
                    return false;
                }
            } else {
                return false;
            }
        }
        start = after;
    }
    true
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if rel_str.starts_with("crates/vendor/") || rel_str.starts_with("target") {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    let crates = root.join("crates");
    let mut files = Vec::new();
    collect_rs_files(&root, &crates, &mut files);
    files.sort();
    if files.is_empty() {
        eprintln!("xlint: no .rs files under {}", crates.display());
        return ExitCode::FAILURE;
    }

    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        match fs::read_to_string(path) {
            Ok(src) => check_file(&rel, &src, &mut findings),
            Err(e) => {
                eprintln!("xlint: cannot read {rel}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Machine-readable report, uploaded as a CI artifact on failure.
    let mut json = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        let _ = write!(
            json,
            "  {{\"check\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
            f.check,
            json_escape(&f.file),
            f.line,
            json_escape(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        );
    }
    json.push_str("]\n");
    // Relative to the invoker's cwd: CI runs from the repo root and
    // uploads it as an artifact; the test harness points cwd at a
    // scratch directory so the repo stays clean.
    let report = PathBuf::from("xlint-findings.json");
    if let Err(e) = fs::write(&report, &json) {
        eprintln!("xlint: cannot write {}: {e}", report.display());
        return ExitCode::FAILURE;
    }

    for f in &findings {
        eprintln!("xlint[{}] {}:{}: {}", f.check, f.file, f.line, f.message);
    }
    if findings.is_empty() {
        eprintln!("xlint: clean ({} files scanned)", files.len());
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xlint: {} finding(s) across {} files scanned — see {}",
            findings.len(),
            files.len(),
            report.display()
        );
        ExitCode::FAILURE
    }
}
