//! Vectorized word kernels: runtime-dispatched scan primitives over the
//! packed little-endian byte buffer.
//!
//! Every hot path in the sketch stack — merge run-skipping, nonzero
//! iteration, emptiness checks — reduces to one of three primitives over
//! 64-bit words of the buffer:
//!
//! * classifying word *pairs* into equal / zero-incoming / differing runs
//!   ([`RunCursor`]),
//! * classifying single words into zero / nonzero runs ([`ZeroRuns`]),
//! * testing a whole buffer for zero ([`is_all_zero`]).
//!
//! Each primitive exists in three implementations selected by [`Kernel`]:
//!
//! | kernel   | technique                                               |
//! |----------|---------------------------------------------------------|
//! | `scalar` | one word at a time — the reference implementation       |
//! | `swar`   | 4×-unrolled portable SWAR block masks (branch per block)|
//! | `avx2`   | `_mm256_cmpeq_epi64` + `movemask` (x86-64, detected at runtime) |
//!
//! # Bit-identity contract
//!
//! All kernels are **observationally identical**: for any input buffer(s),
//! the set of `(index, value)` pairs visited, the zero verdicts, and —
//! through the consumers in `exaloglog` — the merged register arrays are
//! bit-for-bit equal to the scalar reference. Kernels may partition the
//! buffer into *runs* differently (block granularity differs), but never
//! in a way an observer of the visited fields can distinguish. This
//! contract is enforced by `tests/proptest_kernels.rs` across widths
//! 1..=64, including fields straddling run boundaries.
//!
//! # Selection
//!
//! [`active`] picks the kernel once per process via [`OnceLock`]: `swar`
//! by default on every platform (the `avx2` kernel measures slower than
//! `swar` on every merge row, even on hardware with native AVX2),
//! overridable with the `ELL_KERNEL=scalar|swar|avx2` environment
//! variable. Requesting `avx2` on hardware without it silently degrades to
//! `swar`, so test matrices can set it unconditionally — but an
//! *unrecognized* name panics on first use, so a typo fails the run
//! instead of quietly measuring the default kernel. Benchmarks and
//! tests can instead pass an explicit [`Kernel`] to the `*_with` entry
//! points to compare kernels inside one process.

use std::sync::OnceLock;

use crate::mask;

/// Words per SWAR/AVX2 block: 4 × 64 bits = one 256-bit vector.
const BLOCK: usize = 4;

// ---------------------------------------------------------------------
// Kernel selection.
// ---------------------------------------------------------------------

/// A word-scan implementation. See the [module docs](self) for the
/// dispatch table and the bit-identity contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Word-at-a-time reference implementation (always available).
    Scalar,
    /// Portable 4×-unrolled SWAR block masks (always available).
    Swar,
    /// 256-bit AVX2 compares (x86-64 with runtime-detected AVX2 only).
    Avx2,
}

impl Kernel {
    /// The kernel's name as used by `ELL_KERNEL` and bench reports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Swar => "swar",
            Kernel::Avx2 => "avx2",
        }
    }

    /// Parses a kernel name (`"scalar"`, `"swar"`, `"avx2"`).
    #[must_use]
    pub fn parse(name: &str) -> Option<Kernel> {
        match name {
            "scalar" => Some(Kernel::Scalar),
            "swar" => Some(Kernel::Swar),
            "avx2" => Some(Kernel::Avx2),
            _ => None,
        }
    }

    /// Whether this kernel can run on the current hardware.
    #[must_use]
    pub fn is_supported(self) -> bool {
        match self {
            Kernel::Scalar | Kernel::Swar => true,
            Kernel::Avx2 => avx2_detected(),
        }
    }

    /// Degrades an unsupported kernel to the closest supported one
    /// (`avx2` → `swar` off AVX2 hardware). Every scan entry point
    /// normalizes its kernel argument, so an [`Kernel::Avx2`] value
    /// constructed on non-AVX2 hardware is safe — it simply runs SWAR.
    #[must_use]
    pub fn normalize(self) -> Kernel {
        if self == Kernel::Avx2 && !avx2_detected() {
            Kernel::Swar
        } else {
            self
        }
    }
}

/// All kernels supported on the current hardware, fastest last.
#[must_use]
pub fn available() -> Vec<Kernel> {
    [Kernel::Scalar, Kernel::Swar, Kernel::Avx2]
        .into_iter()
        .filter(|k| k.is_supported())
        .collect()
}

#[inline]
fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

static ACTIVE: OnceLock<Kernel> = OnceLock::new();

/// The process-wide kernel, selected once on first use: the `ELL_KERNEL`
/// environment variable if set to a recognized name (normalized to the
/// hardware), otherwise `swar`.
#[must_use]
pub fn active() -> Kernel {
    *ACTIVE.get_or_init(select_from_env)
}

/// Pins the process-wide kernel before first use (e.g. from a benchmark's
/// `--kernel` flag). The request is normalized to the hardware; returns
/// the kernel actually pinned, or `Err` with the already-active kernel if
/// selection has happened and disagrees.
pub fn force(kernel: Kernel) -> Result<Kernel, Kernel> {
    let k = kernel.normalize();
    match ACTIVE.set(k) {
        Ok(()) => Ok(k),
        Err(_) => {
            let current = active();
            if current == k {
                Ok(k)
            } else {
                Err(current)
            }
        }
    }
}

fn select_from_env() -> Kernel {
    match std::env::var("ELL_KERNEL") {
        Ok(name) => kernel_from_env_name(&name).normalize(),
        Err(_) => default_kernel(),
    }
}

/// Resolves an `ELL_KERNEL` value to a kernel.
///
/// # Panics
///
/// Panics on an unrecognized name: a misconfigured run (a CI matrix
/// typo, a stale script) must fail loudly rather than silently measure
/// the default kernel, which is what the warn-and-continue fallback
/// this replaced allowed.
fn kernel_from_env_name(name: &str) -> Kernel {
    match Kernel::parse(name) {
        Some(k) => k,
        None => panic!("ELL_KERNEL={name:?} is not one of scalar|swar|avx2"),
    }
}

/// The kernel used when `ELL_KERNEL` is unset: `swar` everywhere. The
/// `avx2` kernel stays selectable, but it is not the default — on an
/// AVX2-capable host it runs the merge rows of `bench_registers` 2.5–4×
/// slower than `swar`.
fn default_kernel() -> Kernel {
    Kernel::Swar
}

// ---------------------------------------------------------------------
// Borrowed bulk word view.
// ---------------------------------------------------------------------

/// A borrowed view of a byte buffer as zero-padded little-endian 64-bit
/// words. The hot path is a single bounds check plus an unaligned 8-byte
/// load — no byte-copy into a stack buffer, which is what the historical
/// `PackedArray::word` did on every call.
#[derive(Debug, Clone, Copy)]
pub struct WordView<'a> {
    bytes: &'a [u8],
    n_words: usize,
}

impl<'a> WordView<'a> {
    /// Wraps a byte buffer. The final word of a buffer whose length is not
    /// a multiple of 8 reads zero-padded.
    #[inline]
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        WordView {
            bytes,
            n_words: bytes.len().div_ceil(8),
        }
    }

    /// Number of 64-bit words covering the buffer.
    #[inline]
    #[must_use]
    pub fn word_count(self) -> usize {
        self.n_words
    }

    /// The underlying byte buffer.
    #[inline]
    #[must_use]
    pub fn as_bytes(self) -> &'a [u8] {
        self.bytes
    }

    /// Reads word `w` (little-endian, zero-padded at the buffer tail).
    ///
    /// # Panics
    ///
    /// Panics if `w >= word_count()`.
    #[inline]
    #[must_use]
    pub fn word(self, w: usize) -> u64 {
        let start = w * 8;
        if let Some(chunk) = self.bytes.get(start..start + 8) {
            u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
        } else {
            assert!(
                w < self.n_words,
                "word {w} out of bounds ({} words)",
                self.n_words
            );
            let tail = &self.bytes[start..];
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(buf)
        }
    }
}

/// Loads a full 4-word block starting at byte `byte0` (which must leave
/// 32 bytes in bounds).
#[inline]
fn load4(bytes: &[u8], byte0: usize) -> [u64; 4] {
    let s: &[u8; 32] = bytes[byte0..byte0 + 32].try_into().expect("32-byte block");
    [
        u64::from_le_bytes(s[0..8].try_into().expect("8-byte chunk")),
        u64::from_le_bytes(s[8..16].try_into().expect("8-byte chunk")),
        u64::from_le_bytes(s[16..24].try_into().expect("8-byte chunk")),
        u64::from_le_bytes(s[24..32].try_into().expect("8-byte chunk")),
    ]
}

/// Branchless "is nonzero" bit: 1 if `x != 0`, else 0.
#[inline]
fn nonzero_bit(x: u64) -> u32 {
    ((x | x.wrapping_neg()) >> 63) as u32
}

// ---------------------------------------------------------------------
// AVX2 block-mask producers (the only unsafe code in the crate).
// ---------------------------------------------------------------------

/// 256-bit compare kernels. Bounds are enforced here with safe slice
/// indexing; feature availability is guaranteed by [`Kernel::normalize`],
/// which every scan entry point applies before an `Avx2` value can reach
/// this module.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #![allow(unsafe_code)]

    use core::arch::x86_64::{
        __m256i, _mm256_castsi256_pd, _mm256_cmpeq_epi64, _mm256_loadu_si256, _mm256_movemask_pd,
        _mm256_or_si256, _mm256_setzero_si256, _mm256_testz_si256,
    };

    /// Per-word-pair (equal, zero-incoming) masks for one 4-word block.
    /// Bit `j` of the first mask is `a[j] == b[j]`; of the second,
    /// `b[j] == 0`.
    #[inline]
    pub(super) fn pair_masks(a: &[u8], b: &[u8], byte0: usize) -> (u32, u32) {
        // The intrinsics below read exactly the 32 bytes holding words
        // [byte0/8, byte0/8 + 4) of both `WordView`s; the dispatcher
        // must never hand us a block that overhangs either buffer.
        debug_assert!(
            byte0 + 32 <= a.len() && byte0 + 32 <= b.len(),
            "AVX2 block read [{byte0}, {}) exceeds a WordView byte length ({}, {})",
            byte0 + 32,
            a.len(),
            b.len()
        );
        let a32: &[u8; 32] = a[byte0..byte0 + 32].try_into().expect("32-byte block");
        let b32: &[u8; 32] = b[byte0..byte0 + 32].try_into().expect("32-byte block");
        // SAFETY: both pointers reference 32 in-bounds bytes (checked by
        // the slice conversions above); `loadu` has no alignment
        // requirement; AVX2 availability is guaranteed by kernel
        // normalization (see module docs).
        unsafe {
            let va = _mm256_loadu_si256(a32.as_ptr().cast::<__m256i>());
            let vb = _mm256_loadu_si256(b32.as_ptr().cast::<__m256i>());
            let eq = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(va, vb)));
            let zero = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(
                vb,
                _mm256_setzero_si256(),
            )));
            (eq as u32, zero as u32)
        }
    }

    /// Per-word zero mask for one 4-word block: bit `j` is `v[j] == 0`.
    #[inline]
    pub(super) fn zero_mask(v: &[u8], byte0: usize) -> u32 {
        // Same contract as `pair_masks`: the load covers exactly the 32
        // bytes of one in-bounds 4-word block of the `WordView`.
        debug_assert!(
            byte0 + 32 <= v.len(),
            "AVX2 block read [{byte0}, {}) exceeds the WordView byte length ({})",
            byte0 + 32,
            v.len()
        );
        let v32: &[u8; 32] = v[byte0..byte0 + 32].try_into().expect("32-byte block");
        // SAFETY: 32 in-bounds bytes; unaligned load; AVX2 guaranteed by
        // kernel normalization.
        unsafe {
            let vv = _mm256_loadu_si256(v32.as_ptr().cast::<__m256i>());
            _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(
                vv,
                _mm256_setzero_si256(),
            ))) as u32
        }
    }

    /// Whether every 32-byte block of `chunks` is zero.
    #[inline]
    pub(super) fn all_zero_blocks(chunks: core::slice::ChunksExact<'_, u8>) -> bool {
        // SAFETY: each chunk is exactly 32 in-bounds bytes; unaligned
        // loads; AVX2 guaranteed by kernel normalization.
        unsafe {
            let mut acc = _mm256_setzero_si256();
            for c in chunks {
                acc = _mm256_or_si256(acc, _mm256_loadu_si256(c.as_ptr().cast::<__m256i>()));
            }
            _mm256_testz_si256(acc, acc) == 1
        }
    }
}

// ---------------------------------------------------------------------
// Block-mask dispatch.
// ---------------------------------------------------------------------

/// (equal, zero-incoming) masks for the 4-word block starting at word
/// `base`. Out-of-range words report neither equal nor zero; callers
/// clamp run extension to the real word count, so those bits are never
/// observed.
#[inline]
fn pair_block_masks(kernel: Kernel, a: WordView<'_>, b: WordView<'_>, base: usize) -> (u32, u32) {
    let byte0 = base * 8;
    #[cfg(target_arch = "x86_64")]
    if kernel == Kernel::Avx2 && byte0 + 32 <= a.bytes.len() && byte0 + 32 <= b.bytes.len() {
        return avx2::pair_masks(a.bytes, b.bytes, byte0);
    }
    let _ = kernel;
    if byte0 + 32 <= a.bytes.len() && byte0 + 32 <= b.bytes.len() {
        let aw = load4(a.bytes, byte0);
        let bw = load4(b.bytes, byte0);
        let eq = (1 ^ nonzero_bit(aw[0] ^ bw[0]))
            | (1 ^ nonzero_bit(aw[1] ^ bw[1])) << 1
            | (1 ^ nonzero_bit(aw[2] ^ bw[2])) << 2
            | (1 ^ nonzero_bit(aw[3] ^ bw[3])) << 3;
        let zero = (1 ^ nonzero_bit(bw[0]))
            | (1 ^ nonzero_bit(bw[1])) << 1
            | (1 ^ nonzero_bit(bw[2])) << 2
            | (1 ^ nonzero_bit(bw[3])) << 3;
        (eq, zero)
    } else {
        let mut eq = 0u32;
        let mut zero = 0u32;
        let end = a.n_words.min(base + BLOCK);
        for (j, w) in (base..end).enumerate() {
            let (x, y) = (a.word(w), b.word(w));
            if x == y {
                eq |= 1 << j;
            }
            if y == 0 {
                zero |= 1 << j;
            }
        }
        (eq, zero)
    }
}

/// Zero mask for the 4-word block of `v` starting at word `base`; same
/// out-of-range convention as [`pair_block_masks`].
#[inline]
fn zero_block_mask(kernel: Kernel, v: WordView<'_>, base: usize) -> u32 {
    let byte0 = base * 8;
    #[cfg(target_arch = "x86_64")]
    if kernel == Kernel::Avx2 && byte0 + 32 <= v.bytes.len() {
        return avx2::zero_mask(v.bytes, byte0);
    }
    let _ = kernel;
    if byte0 + 32 <= v.bytes.len() {
        let w = load4(v.bytes, byte0);
        (1 ^ nonzero_bit(w[0]))
            | (1 ^ nonzero_bit(w[1])) << 1
            | (1 ^ nonzero_bit(w[2])) << 2
            | (1 ^ nonzero_bit(w[3])) << 3
    } else {
        let mut zero = 0u32;
        let end = v.n_words.min(base + BLOCK);
        for (j, w) in (base..end).enumerate() {
            if v.word(w) == 0 {
                zero |= 1 << j;
            }
        }
        zero
    }
}

// ---------------------------------------------------------------------
// Word-pair run scanning (the merge kernel).
// ---------------------------------------------------------------------

/// Classification of a word pair `(ours, theirs)` during a merge scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunClass {
    /// `ours == theirs`: fields fully inside are unchanged by an
    /// idempotent merge.
    Equal,
    /// `ours != theirs` and `theirs == 0`: the incoming word contributes
    /// nothing to fields fully inside.
    ZeroIncoming,
    /// Differing with nonzero incoming bits: must be merged field-wise.
    Diff,
}

/// A maximal run of consecutive words sharing one [`RunClass`]:
/// words `start..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The shared classification.
    pub class: RunClass,
    /// First word of the run.
    pub start: usize,
    /// One past the last word of the run.
    pub end: usize,
}

#[inline]
fn classify(ours: u64, theirs: u64) -> RunClass {
    if ours == theirs {
        RunClass::Equal
    } else if theirs == 0 {
        RunClass::ZeroIncoming
    } else {
        RunClass::Diff
    }
}

#[inline]
fn class_from_bits(eq: u32, zero: u32) -> RunClass {
    if eq & 1 != 0 {
        RunClass::Equal
    } else if zero & 1 != 0 {
        RunClass::ZeroIncoming
    } else {
        RunClass::Diff
    }
}

/// Mask of block lanes whose class matches `class`.
#[inline]
fn class_mask(class: RunClass, eq: u32, zero: u32) -> u32 {
    (match class {
        RunClass::Equal => eq,
        RunClass::ZeroIncoming => !eq & zero,
        RunClass::Diff => !eq & !zero,
    }) & 0xF
}

/// Stateful cursor yielding maximal same-class word runs over a pair of
/// equal-length buffers, loading and classifying every word exactly once
/// per kernel granularity (the historical merge loop classified each
/// run-boundary word twice).
///
/// The cursor takes the views per call rather than borrowing them, so a
/// merge loop can mutate `ours` between runs. Mutations behind the scan
/// position may leave a cached block classification stale; this is sound
/// for monotone merges — see `ExaLogLog::merge_from`, whose skip
/// arguments are per-field and unaffected by boundary-field writes — but
/// callers must pass the same logical buffers on every call.
#[derive(Debug)]
pub struct RunCursor {
    kernel: Kernel,
    w: usize,
    /// Class of word `w`, when it was already loaded while closing the
    /// previous run.
    pending: Option<RunClass>,
    /// Cached block masks (`blk == usize::MAX` means empty).
    blk: usize,
    blk_eq: u32,
    blk_zero: u32,
}

impl RunCursor {
    /// Creates a cursor at word 0. The kernel is normalized to the
    /// hardware (see [`Kernel::normalize`]).
    #[must_use]
    pub fn new(kernel: Kernel) -> Self {
        RunCursor {
            kernel: kernel.normalize(),
            w: 0,
            pending: None,
            blk: usize::MAX,
            blk_eq: 0,
            blk_zero: 0,
        }
    }

    /// Yields the next maximal run, or `None` when the buffers are
    /// exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the two views cover different word counts.
    pub fn next_run(&mut self, ours: WordView<'_>, theirs: WordView<'_>) -> Option<Run> {
        let n = ours.word_count();
        assert_eq!(n, theirs.word_count(), "mismatched merge buffers");
        if self.w >= n {
            return None;
        }
        let start = self.w;
        let class = match self.pending.take() {
            Some(c) => c,
            None => self.class_at(ours, theirs, start),
        };
        let mut e = start + 1;
        if self.kernel == Kernel::Scalar {
            while e < n {
                let c = classify(ours.word(e), theirs.word(e));
                if c != class {
                    self.pending = Some(c);
                    break;
                }
                e += 1;
            }
        } else {
            while e < n {
                let blk = e / BLOCK;
                let (eq, zero) = self.block(ours, theirs, blk);
                let off = e % BLOCK;
                let cont = class_mask(class, eq, zero) >> off;
                let avail = (BLOCK - off).min(n - e);
                let matched = (!cont).trailing_zeros() as usize;
                if matched >= avail {
                    e += avail;
                } else {
                    e += matched;
                    let j = off + matched;
                    self.pending = Some(class_from_bits(eq >> j, zero >> j));
                    break;
                }
            }
        }
        self.w = e;
        Some(Run {
            class,
            start,
            end: e,
        })
    }

    #[inline]
    fn class_at(&mut self, a: WordView<'_>, b: WordView<'_>, w: usize) -> RunClass {
        if self.kernel == Kernel::Scalar {
            classify(a.word(w), b.word(w))
        } else {
            let (eq, zero) = self.block(a, b, w / BLOCK);
            let j = w % BLOCK;
            class_from_bits(eq >> j, zero >> j)
        }
    }

    #[inline]
    fn block(&mut self, a: WordView<'_>, b: WordView<'_>, blk: usize) -> (u32, u32) {
        if self.blk != blk {
            let (eq, zero) = pair_block_masks(self.kernel, a, b, blk * BLOCK);
            self.blk = blk;
            self.blk_eq = eq;
            self.blk_zero = zero;
        }
        (self.blk_eq, self.blk_zero)
    }
}

// ---------------------------------------------------------------------
// Single-buffer zero/nonzero run scanning.
// ---------------------------------------------------------------------

/// A maximal run of consecutive all-zero or not-all-zero words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroRun {
    /// Whether every word in the run is zero.
    pub zero: bool,
    /// First word of the run.
    pub start: usize,
    /// One past the last word of the run.
    pub end: usize,
}

/// Iterator over maximal zero / nonzero word runs of one buffer, loading
/// and classifying each word exactly once per kernel granularity.
#[derive(Debug)]
pub struct ZeroRuns<'a> {
    view: WordView<'a>,
    kernel: Kernel,
    w: usize,
    pending: Option<bool>,
    blk: usize,
    blk_zero: u32,
}

impl<'a> ZeroRuns<'a> {
    /// Creates the scanner. The kernel is normalized to the hardware.
    #[must_use]
    pub fn new(view: WordView<'a>, kernel: Kernel) -> Self {
        ZeroRuns {
            view,
            kernel: kernel.normalize(),
            w: 0,
            pending: None,
            blk: usize::MAX,
            blk_zero: 0,
        }
    }

    #[inline]
    fn zero_at(&mut self, w: usize) -> bool {
        if self.kernel == Kernel::Scalar {
            self.view.word(w) == 0
        } else {
            let zero = self.block(w / BLOCK);
            zero >> (w % BLOCK) & 1 != 0
        }
    }

    #[inline]
    fn block(&mut self, blk: usize) -> u32 {
        if self.blk != blk {
            self.blk_zero = zero_block_mask(self.kernel, self.view, blk * BLOCK);
            self.blk = blk;
        }
        self.blk_zero
    }
}

impl Iterator for ZeroRuns<'_> {
    type Item = ZeroRun;

    fn next(&mut self) -> Option<ZeroRun> {
        let n = self.view.word_count();
        if self.w >= n {
            return None;
        }
        let start = self.w;
        let zero = match self.pending.take() {
            Some(z) => z,
            None => self.zero_at(start),
        };
        let mut e = start + 1;
        if self.kernel == Kernel::Scalar {
            while e < n {
                let z = self.view.word(e) == 0;
                if z != zero {
                    self.pending = Some(z);
                    break;
                }
                e += 1;
            }
        } else {
            while e < n {
                let blk = e / BLOCK;
                let zmask = self.block(blk);
                let off = e % BLOCK;
                let cont = (if zero { zmask } else { !zmask & 0xF }) >> off;
                let avail = (BLOCK - off).min(n - e);
                let matched = (!cont).trailing_zeros() as usize;
                if matched >= avail {
                    e += avail;
                } else {
                    e += matched;
                    self.pending = Some(zmask >> (off + matched) & 1 != 0);
                    break;
                }
            }
        }
        self.w = e;
        Some(ZeroRun {
            zero,
            start,
            end: e,
        })
    }
}

// ---------------------------------------------------------------------
// Whole-buffer zero test.
// ---------------------------------------------------------------------

/// Returns true if every byte of `bytes` is zero, scanning 32 bytes per
/// step under the SWAR and AVX2 kernels.
#[must_use]
pub fn is_all_zero(bytes: &[u8], kernel: Kernel) -> bool {
    match kernel.normalize() {
        Kernel::Scalar => bytes.iter().all(|&b| b == 0),
        Kernel::Swar => {
            let mut chunks = bytes.chunks_exact(32);
            for c in &mut chunks {
                let w = load4(c, 0);
                if w[0] | w[1] | w[2] | w[3] != 0 {
                    return false;
                }
            }
            chunks.remainder().iter().all(|&b| b == 0)
        }
        Kernel::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                let chunks = bytes.chunks_exact(32);
                let tail = chunks.remainder();
                avx2::all_zero_blocks(chunks) && tail.iter().all(|&b| b == 0)
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                unreachable!("Avx2 normalizes to Swar off x86-64")
            }
        }
    }
}

// ---------------------------------------------------------------------
// Width-specialized lane extraction.
// ---------------------------------------------------------------------

/// Calls `visit(lane, value)` for every nonzero `width`-bit lane of
/// `word`, in ascending lane order, using mask-and-`trailing_zeros`
/// extraction instead of one shifted decode per lane.
///
/// Valid for widths that divide 64 (1, 2, 4, 8, 16, 32, 64) — the layouts
/// where fields never straddle a word boundary — and for wider layouts
/// whose trailing padding lanes are zero (e.g. two 28-bit atomic
/// registers per word): a zero lane is simply never visited.
#[inline]
pub fn for_each_nonzero_lane(word: u64, width: u32, mut visit: impl FnMut(usize, u64)) {
    let field = mask(width);
    let mut bits = word;
    while bits != 0 {
        let lane = (bits.trailing_zeros() / width) as usize;
        let shift = lane as u32 * width;
        visit(lane, (word >> shift) & field);
        bits &= !(field << shift);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words_of(v: &[u64]) -> Vec<u8> {
        v.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    fn runs(kernel: Kernel, a: &[u64], b: &[u64]) -> Vec<Run> {
        let (ab, bb) = (words_of(a), words_of(b));
        let mut cursor = RunCursor::new(kernel);
        let mut out = Vec::new();
        while let Some(r) = cursor.next_run(WordView::new(&ab), WordView::new(&bb)) {
            out.push(r);
        }
        out
    }

    #[test]
    fn kernel_names_roundtrip() {
        for k in [Kernel::Scalar, Kernel::Swar, Kernel::Avx2] {
            assert_eq!(Kernel::parse(k.name()), Some(k));
        }
        assert_eq!(Kernel::parse("neon"), None);
        assert!(Kernel::Scalar.is_supported());
        assert!(Kernel::Swar.is_supported());
        assert!(available().contains(&Kernel::Swar));
        assert_eq!(Kernel::Swar.normalize(), Kernel::Swar);
    }

    #[test]
    fn env_kernel_resolves_known_names() {
        assert_eq!(kernel_from_env_name("scalar"), Kernel::Scalar);
        assert_eq!(kernel_from_env_name("swar"), Kernel::Swar);
        assert_eq!(kernel_from_env_name("avx2"), Kernel::Avx2);
    }

    #[test]
    fn default_kernel_is_swar_on_every_platform() {
        assert_eq!(default_kernel(), Kernel::Swar);
    }

    #[test]
    #[should_panic(expected = "ELL_KERNEL=\"sse9\" is not one of scalar|swar|avx2")]
    fn env_kernel_unknown_name_fails_loudly() {
        let _ = kernel_from_env_name("sse9");
    }

    #[test]
    fn word_view_pads_tail() {
        let bytes = [0xff, 0x01, 0x02];
        let v = WordView::new(&bytes);
        assert_eq!(v.word_count(), 1);
        assert_eq!(v.word(0), 0x0002_01ff);
        let v8 = WordView::new(&[0u8; 8]);
        assert_eq!(v8.word_count(), 1);
        assert_eq!(v8.word(0), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn word_view_bounds_checked() {
        let bytes = [1u8, 2, 3];
        let _ = WordView::new(&bytes).word(1);
    }

    #[test]
    fn run_partitions_cover_and_agree_on_class() {
        // The kernels may split runs differently but every word's class
        // must match the scalar classification at that word.
        let a: Vec<u64> = (0..23)
            .map(|i| if i % 5 == 0 { 0 } else { i as u64 })
            .collect();
        let b: Vec<u64> = (0..23)
            .map(|i| match i % 3 {
                0 => 0,
                1 => i as u64,
                _ => 99,
            })
            .collect();
        for kernel in available() {
            let rs = runs(kernel, &a, &b);
            let mut covered = 0usize;
            for r in &rs {
                assert_eq!(r.start, covered, "{kernel:?} runs must be contiguous");
                assert!(r.end > r.start);
                for w in r.start..r.end {
                    assert_eq!(r.class, classify(a[w], b[w]), "{kernel:?} word {w}");
                }
                covered = r.end;
            }
            assert_eq!(covered, a.len(), "{kernel:?} runs must cover the buffer");
        }
        // Scalar runs are maximal by construction; every kernel's run set,
        // merged over adjacent same-class runs, must equal it.
        let canonical = runs(Kernel::Scalar, &a, &b);
        for kernel in available() {
            let mut merged: Vec<Run> = Vec::new();
            for r in runs(kernel, &a, &b) {
                match merged.last_mut() {
                    Some(prev) if prev.class == r.class && prev.end == r.start => prev.end = r.end,
                    _ => merged.push(r),
                }
            }
            assert_eq!(merged, canonical, "{kernel:?}");
        }
    }

    #[test]
    fn zero_runs_match_scalar() {
        let v: Vec<u64> = [0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 3, 0, 4, 5, 6, 7, 0]
            .into_iter()
            .collect();
        let bytes = words_of(&v);
        let canonical: Vec<ZeroRun> =
            ZeroRuns::new(WordView::new(&bytes), Kernel::Scalar).collect();
        for kernel in available() {
            let mut merged: Vec<ZeroRun> = Vec::new();
            for r in ZeroRuns::new(WordView::new(&bytes), kernel) {
                match merged.last_mut() {
                    Some(prev) if prev.zero == r.zero && prev.end == r.start => prev.end = r.end,
                    _ => merged.push(r),
                }
            }
            assert_eq!(merged, canonical, "{kernel:?}");
        }
    }

    #[test]
    fn is_all_zero_all_kernels() {
        for len in [0usize, 1, 7, 8, 31, 32, 33, 64, 100] {
            let zeros = vec![0u8; len];
            for kernel in available() {
                assert!(is_all_zero(&zeros, kernel), "{kernel:?} len {len}");
                if len > 0 {
                    for poke in [0, len / 2, len - 1] {
                        let mut v = zeros.clone();
                        v[poke] = 0x80;
                        assert!(!is_all_zero(&v, kernel), "{kernel:?} len {len} poke {poke}");
                    }
                }
            }
        }
    }

    #[test]
    fn lane_extraction_matches_shift_decode() {
        for width in [1u32, 2, 4, 8, 16, 32, 64] {
            let lanes = (64 / width) as usize;
            let word = 0x8040_2010_0804_0201u64;
            let mut seen = Vec::new();
            for_each_nonzero_lane(word, width, |lane, v| seen.push((lane, v)));
            let want: Vec<(usize, u64)> = (0..lanes)
                .map(|l| (l, (word >> (l as u32 * width)) & mask(width)))
                .filter(|&(_, v)| v != 0)
                .collect();
            assert_eq!(seen, want, "width {width}");
        }
        for_each_nonzero_lane(0, 8, |_, _| panic!("no lanes in a zero word"));
    }

    #[test]
    fn force_after_init_reports_active() {
        let first = active();
        assert_eq!(force(first), Ok(first));
    }
}
