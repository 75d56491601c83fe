//! The ExaLogLog sketch.
//!
//! State: m = 2^p registers of `6 + t + d` bits, packed into one byte
//! array. Inserting an element consumes one 64-bit hash (Algorithm 2):
//! bits `t..p+t−1` select a register, the number of leading zeros of the
//! remaining high bits together with the low `t` bits form the update
//! value of equation (9). The bit order is deliberate — the NLZ region
//! sits directly above the register-address region, which is what makes
//! precision reduction (Algorithm 6) lossless.
//!
//! All mutating operations are allocation-free; insertion is O(1) plus
//! amortized-O(1) incremental bookkeeping of the ML coefficients (so
//! [`ExaLogLog::estimate`] never rescans the registers). Merging scans
//! the register arrays word-wise — runs of empty or identical words are
//! skipped wholesale — and reduction is O(m).

use crate::config::{EllConfig, EllError};
use crate::ml::{self, MlCoefficients};
use crate::registers;
use crate::theory;
use ell_bitpack::kernels::{self, Kernel, RunClass};
use ell_bitpack::{mask, PackedArray};
use ell_hash::Hasher64;
use std::borrow::Cow;

/// Serialization magic: identifies the format and its version.
const MAGIC: &[u8; 4] = b"ELL1";
/// Serialization header size: magic + (t, d, p).
const HEADER_LEN: usize = 7;

/// A record of one register mutation, as reported by
/// [`ExaLogLog::insert_hash_tracked`]. The martingale estimator consumes
/// these to maintain the state-change probability incrementally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterChange {
    /// Index of the modified register.
    pub index: usize,
    /// Register value before the update.
    pub old: u64,
    /// Register value after the update (`new > old`).
    pub new: u64,
}

/// The bias-corrected ML estimate (equations (19) and (4)) from the
/// Algorithm 3 coefficients of a sketch with configuration `cfg` — the one
/// formula behind [`ExaLogLog::estimate`] and
/// [`crate::atomic::AtomicExaLogLog::estimate`].
pub(crate) fn estimate_from_coefficients(cfg: &EllConfig, coeffs: &MlCoefficients) -> f64 {
    let m = cfg.m() as f64;
    let c = theory::bias_correction_c(cfg.t(), cfg.d());
    ml::ml_estimate_from_coefficients(coeffs, m) / (1.0 + c / m)
}

/// The ExaLogLog distinct-count sketch (paper §2.3).
///
/// ```
/// use exaloglog::{EllConfig, ExaLogLog};
/// use ell_hash::{Hasher64, WyHash};
///
/// let hasher = WyHash::new(0);
/// let mut sketch = ExaLogLog::new(EllConfig::optimal(10).unwrap());
/// for i in 0..10_000u32 {
///     sketch.insert_hash(hasher.hash_bytes(&i.to_le_bytes()));
/// }
/// let estimate = sketch.estimate();
/// assert!((estimate / 10_000.0 - 1.0).abs() < 0.05);
/// ```
///
/// # The incremental estimator cache
///
/// Alongside the registers, the sketch maintains the Algorithm 3
/// log-likelihood coefficients (α, β) incrementally: every register
/// change moves exactly that register's probability mass between α and β
/// in exact integer arithmetic, so [`ExaLogLog::estimate`] solves the ML
/// equation directly — O(number of populated β levels) — instead of
/// rescanning all m registers. The cached coefficients are always
/// bit-identical to a fresh [`ExaLogLog::coefficients_scan`] (asserted in
/// debug builds). Bulk register overwrites that bypass the update
/// algebra (the entropy decoder, atomic snapshots) drop the cache; in
/// that window `estimate` transparently falls back to the O(m)
/// column-count scan ([`ml::compute_coefficients`]), and
/// [`ExaLogLog::refresh_coefficients`] restores cached operation.
/// Deserialization ([`ExaLogLog::from_bytes`],
/// [`crate::compress::decompress`]) rebuilds the cache eagerly with one
/// such scan, so loaded sketches estimate at cached speed from the first
/// call. A concurrent sketch that only needs a number should call
/// [`crate::atomic::AtomicExaLogLog::estimate`], which scans the atomic
/// words directly instead of building a cache-less snapshot.
pub struct ExaLogLog {
    cfg: EllConfig,
    regs: PackedArray,
    /// Incrementally maintained ML coefficients; `None` after a raw
    /// register overwrite invalidated them. Boxed so the sketch itself
    /// stays small and moves cheaply.
    coeffs: Option<Box<MlCoefficients>>,
}

impl Clone for ExaLogLog {
    fn clone(&self) -> Self {
        ExaLogLog {
            cfg: self.cfg,
            regs: self.regs.clone(),
            coeffs: self.coeffs.clone(),
        }
    }

    /// Overwrites `self` in place without reallocating when the register
    /// buffer and coefficient box already exist — the hot shape for a
    /// scratch sketch repeatedly reset to an accumulator template.
    fn clone_from(&mut self, source: &Self) {
        self.cfg = source.cfg;
        self.regs.clone_from(&source.regs);
        match (&mut self.coeffs, &source.coeffs) {
            (Some(mine), Some(theirs)) => mine.as_mut().clone_from(theirs),
            (mine, theirs) => *mine = theirs.clone(),
        }
    }
}

/// Sketch equality is defined by configuration and register state; the
/// coefficient cache is derived data and never participates.
impl PartialEq for ExaLogLog {
    fn eq(&self, other: &Self) -> bool {
        self.cfg == other.cfg && self.regs == other.regs
    }
}

impl Eq for ExaLogLog {}

impl ExaLogLog {
    /// Creates an empty sketch.
    #[must_use]
    pub fn new(cfg: EllConfig) -> Self {
        ExaLogLog {
            regs: PackedArray::new(cfg.register_width(), cfg.m()),
            coeffs: Some(Box::new(ml::empty_coefficients(cfg.m()))),
            cfg,
        }
    }

    /// Builds a sketch around an already validated register array,
    /// computing the coefficient cache with one Algorithm 3 scan.
    fn from_valid_parts(cfg: EllConfig, regs: PackedArray) -> Self {
        let coeffs = Some(Box::new(ml::compute_coefficients(&cfg, regs.iter())));
        ExaLogLog { cfg, regs, coeffs }
    }

    /// Builds a sketch from the register array an entropy decoder packed
    /// (the [`ExaLogLog::register_bytes`] layout) and the coefficients it
    /// tallied on the way, in place of the scan of
    /// [`ExaLogLog::from_valid_parts`]. Both must be exact: the decoder
    /// writes only valid registers, and debug builds check the
    /// coefficients against a scan.
    pub(crate) fn from_decoded(cfg: EllConfig, packed: &[u8], coeffs: MlCoefficients) -> Self {
        let regs = PackedArray::from_bytes(cfg.register_width(), cfg.m(), packed)
            .expect("the decoder packs exactly m registers");
        let sketch = ExaLogLog {
            cfg,
            regs,
            coeffs: Some(Box::new(coeffs)),
        };
        debug_assert!(
            sketch.coefficients() == sketch.coefficients_scan(),
            "tallied coefficients disagree with the scan"
        );
        sketch
    }

    /// Creates an empty sketch from raw parameters.
    pub fn with_params(t: u8, d: u8, p: u8) -> Result<Self, EllError> {
        Ok(Self::new(EllConfig::new(t, d, p)?))
    }

    /// This sketch's configuration.
    #[inline]
    #[must_use]
    pub fn config(&self) -> &EllConfig {
        &self.cfg
    }

    /// Splits a hash into (register index, update value) per Algorithm 2 /
    /// equation (9).
    #[inline]
    #[must_use]
    pub fn decompose_hash(&self, h: u64) -> (usize, u64) {
        let t = u32::from(self.cfg.t());
        let p = u32::from(self.cfg.p());
        let i = ((h >> t) as usize) & (self.cfg.m() - 1);
        // Setting the low p+t bits to one caps the NLZ at 64−p−t.
        let a = h | mask(p + t);
        let nlz = u64::from(a.leading_zeros());
        let k = (nlz << t) + (h & mask(t)) + 1;
        (i, k)
    }

    /// Inserts an element by its 64-bit hash. Returns whether the state
    /// changed (`false` for duplicates and uninformative updates).
    ///
    /// Constant time; no allocation; a handful of arithmetic instructions
    /// plus one packed-register read-modify-write.
    #[inline]
    pub fn insert_hash(&mut self, h: u64) -> bool {
        self.insert_hash_tracked(h).is_some()
    }

    /// Like [`ExaLogLog::insert_hash`] but reports the register mutation,
    /// enabling incremental bookkeeping such as martingale estimation.
    #[inline]
    pub fn insert_hash_tracked(&mut self, h: u64) -> Option<RegisterChange> {
        let (i, k) = self.decompose_hash(h);
        let old = self.regs.get(i);
        let new = registers::update(old, k, self.cfg.d());
        if new != old {
            self.regs.set(i, new);
            if let Some(c) = self.coeffs.as_deref_mut() {
                ml::apply_register_change(c, &self.cfg, old, new);
            }
            Some(RegisterChange { index: i, old, new })
        } else {
            None
        }
    }

    /// Hashes `element` with `hasher` and inserts it.
    #[inline]
    pub fn insert<H: Hasher64 + ?Sized>(&mut self, hasher: &H, element: &[u8]) -> bool {
        self.insert_hash(hasher.hash_bytes(element))
    }

    /// Applies an update with value `k` directly to register `i` — the
    /// register-update step of Algorithm 2 without the hash decomposition.
    ///
    /// This is the entry point for event-driven simulation (paper §5.1:
    /// the fast strategy replays sampled (register, update value) events),
    /// and equals what [`ExaLogLog::insert_hash`] would do for any hash
    /// decomposing to `(i, k)`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ m` or `k` is outside `[1, max_update_value]`.
    #[inline]
    pub fn apply_update(&mut self, i: usize, k: u64) -> Option<RegisterChange> {
        assert!(
            k >= 1 && k <= self.cfg.max_update_value(),
            "update value {k} outside [1, {}]",
            self.cfg.max_update_value()
        );
        let old = self.regs.get(i);
        let new = registers::update(old, k, self.cfg.d());
        if new != old {
            self.regs.set(i, new);
            if let Some(c) = self.coeffs.as_deref_mut() {
                ml::apply_register_change(c, &self.cfg, old, new);
            }
            Some(RegisterChange { index: i, old, new })
        } else {
            None
        }
    }

    /// Value of register `i`.
    #[inline]
    #[must_use]
    pub fn register(&self, i: usize) -> u64 {
        self.regs.get(i)
    }

    /// Overwrites register `i` without invariant checks — used by the
    /// entropy decoder and atomic snapshots, which reconstruct registers
    /// they have themselves produced from valid states. Drops the
    /// coefficient cache (these are bulk overwrites; one column-count scan
    /// on the next estimate, or an explicit
    /// [`ExaLogLog::refresh_coefficients`], beats per-write bookkeeping).
    #[inline]
    pub(crate) fn set_register_unchecked(&mut self, i: usize, r: u64) {
        self.regs.set(i, r);
        self.coeffs = None;
    }

    /// Iterates over all m register values.
    pub fn registers(&self) -> impl Iterator<Item = u64> + '_ {
        self.regs.iter()
    }

    /// Calls `f(index, value)` for every nonzero register in index order,
    /// scanning the packed array word-wise so runs of empty registers
    /// cost one 64-bit comparison each. This is the fast iteration shape
    /// for folding a mostly-empty sketch into something else (the atomic
    /// sketch and the keyed store build on it).
    pub fn for_each_nonzero_register(&self, f: impl FnMut(usize, u64)) {
        self.regs.for_each_nonzero(f);
    }

    /// The name of the active register-storage backend (`"u8"`, `"u16"`,
    /// `"u24"`, `"u32"`, `"u64"`, or `"generic"`). Byte-aligned register
    /// widths get direct load/store access paths; other widths use the
    /// generic shifted-window path.
    #[must_use]
    pub fn storage_backend(&self) -> &'static str {
        self.regs.backend_name()
    }

    /// Pins register storage to the generic shifted-window access path
    /// even when the width is byte-aligned. State and serialization are
    /// unaffected — this exists so benchmarks and property tests can
    /// measure and verify the width-specialized backends against the
    /// generic one.
    pub fn force_generic_storage(&mut self) {
        self.regs.force_generic();
    }

    /// Whether no element has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.regs.is_all_zero()
    }

    /// Resets the sketch to its empty state without reallocating: the
    /// registers are zeroed and an existing coefficient cache is reset
    /// in place, so a scratch or recycled ring slot can be cleared on a
    /// hot path.
    pub fn clear(&mut self) {
        self.regs.clear();
        let empty = ml::empty_coefficients(self.cfg.m());
        match &mut self.coeffs {
            Some(coeffs) => **coeffs = empty,
            None => self.coeffs = Some(Box::new(empty)),
        }
    }

    /// Merges register `i` of `other` into register `i` of `self`,
    /// keeping the coefficient cache in step when present.
    #[inline]
    fn merge_register_at(&mut self, i: usize, other: &Self) {
        self.merge_register_value(i, other.regs.get(i));
    }

    /// Merges an externally supplied (valid, same-configuration) register
    /// value into register `i` — the building block for folding
    /// non-`PackedArray` representations (atomic registers, token lists)
    /// into a dense accumulator without materializing a scratch sketch.
    #[inline]
    pub(crate) fn merge_register_value(&mut self, i: usize, incoming: u64) {
        let old = self.regs.get(i);
        let merged = registers::merge(old, incoming, self.cfg.d());
        if merged != old {
            self.regs.set(i, merged);
            if let Some(c) = self.coeffs.as_deref_mut() {
                ml::apply_register_change(c, &self.cfg, old, merged);
            }
        }
    }

    /// In-place merge: afterwards `self` represents the union of both
    /// element multisets. Requires identical (t, d, p); for sketches that
    /// differ in d or p use [`ExaLogLog::merged_with`].
    ///
    /// The merge scans the two register arrays as 64-bit words through
    /// the production scan kernel (see [`kernels::active`]) and skips whole
    /// runs that cannot change `self` — words that are zero in `other`
    /// (nothing to contribute) or bit-identical in both sketches
    /// (register merge is idempotent) — before falling back to
    /// [`registers::merge`] per remaining register. For register widths
    /// dividing 64, differing runs batch-decode a whole incoming word at
    /// a time (mask-and-`trailing_zeros` lane extraction) instead of one
    /// `get` per register. Merging a sparse sketch into a dense one, or a
    /// sketch into itself, therefore runs at near-`memcmp` speed.
    /// Registers straddling the boundary between differently-classified
    /// word runs are always merged individually, which keeps the scan
    /// exact for non-word-aligned register widths (property-tested
    /// against [`ExaLogLog::merge_from_per_register`]).
    pub fn merge_from(&mut self, other: &Self) -> Result<(), EllError> {
        self.merge_from_with_kernel(other, kernels::active())
    }

    /// [`ExaLogLog::merge_from`] under an explicit scan [`Kernel`].
    ///
    /// Both kernels produce a bit-identical merged sketch (enforced by
    /// property tests); this entry point exists so benchmarks and tests
    /// can compare them within one process.
    pub fn merge_from_with_kernel(&mut self, other: &Self, kernel: Kernel) -> Result<(), EllError> {
        if self.cfg != other.cfg {
            return Err(EllError::IncompatibleSketches {
                reason: format!("{} vs {}", self.cfg, other.cfg),
            });
        }
        let width = self.cfg.register_width() as usize;
        let m = self.cfg.m();
        // Registers are word-aligned lanes when the width divides 64;
        // only then can a differing run batch-decode whole words.
        let lanes_per_word = if 64 % width == 0 {
            Some(64 / width)
        } else {
            None
        };
        // `next` = first register index not yet merged or proven
        // unaffected. Earlier runs may mutate `self`'s words; the cursor
        // may then classify a later word from a stale load, which is
        // harmless: a skip decision is justified per register (equal
        // registers are untouched by neighbouring-register writes, and
        // zero incoming registers contribute nothing), and a stale `Diff`
        // only re-merges idempotently.
        let mut next = 0usize;
        let mut cursor = kernels::RunCursor::new(kernel);
        while let Some(run) = cursor.next_run(self.regs.words(), other.regs.words()) {
            let start_bit = run.start * 64;
            let end_bit = run.end * 64;
            if run.class == RunClass::Diff {
                // Merge every register starting before the run's end.
                let hi = end_bit.div_ceil(width).min(m);
                if let Some(lanes) = lanes_per_word {
                    // Aligned widths: run boundaries are register
                    // boundaries, so the run is exactly registers
                    // [next, hi) and each incoming word decodes by lane
                    // extraction; zero incoming lanes merge as no-ops and
                    // are skipped outright.
                    debug_assert_eq!(next.min(m), (start_bit / width).min(m));
                    let theirs = other.regs.words();
                    let width = width as u32;
                    for w in run.start..run.end {
                        let base = w * lanes;
                        if base >= m {
                            break;
                        }
                        kernels::for_each_nonzero_lane(theirs.word(w), width, |lane, incoming| {
                            debug_assert!(base + lane < m, "nonzero padding lane");
                            self.merge_register_value(base + lane, incoming);
                        });
                    }
                } else {
                    for i in next..hi {
                        self.merge_register_at(i, other);
                    }
                }
                next = next.max(hi);
            } else {
                // Registers fully inside a skip run are unaffected; the
                // stragglers reaching in from the previous run boundary
                // (possibly spanning skip runs of *different* classes,
                // where neither skip argument applies) are merged.
                let lo = start_bit.div_ceil(width).min(m);
                for i in next..lo {
                    self.merge_register_at(i, other);
                }
                next = next.max(lo).max((end_bit / width).min(m));
            }
        }
        for i in next..m {
            self.merge_register_at(i, other);
        }
        Ok(())
    }

    /// Reference register-by-register merge — the pre-word-scan code
    /// path, kept as the behavioral baseline for property tests and the
    /// `bench_registers` comparison. Produces bit-identical results to
    /// [`ExaLogLog::merge_from`].
    pub fn merge_from_per_register(&mut self, other: &Self) -> Result<(), EllError> {
        if self.cfg != other.cfg {
            return Err(EllError::IncompatibleSketches {
                reason: format!("{} vs {}", self.cfg, other.cfg),
            });
        }
        for i in 0..self.cfg.m() {
            self.merge_register_at(i, other);
        }
        Ok(())
    }

    /// Merges two sketches that may differ in `d` and `p` (but share `t`):
    /// both are first reduced to the common parameters
    /// (t, min(d, d'), min(p, p')) as described in paper §4.1, then merged
    /// register-wise. Returns the merged sketch.
    pub fn merged_with(&self, other: &Self) -> Result<Self, EllError> {
        if self.cfg.t() != other.cfg.t() {
            return Err(EllError::IncompatibleSketches {
                reason: format!("cannot merge t={} with t={}", self.cfg.t(), other.cfg.t()),
            });
        }
        let d = self.cfg.d().min(other.cfg.d());
        let p = self.cfg.p().min(other.cfg.p());
        let mut a = self.reduce(d, p)?;
        let b = other.reduce(d, p)?;
        a.merge_from(&b)?;
        Ok(a)
    }

    /// Losslessly reduces the sketch to smaller parameters d' ≤ d, p' ≤ p
    /// (Algorithm 6). The result is *identical* to the sketch that direct
    /// recording of the same elements with the reduced parameters would
    /// have produced, so reduced sketches remain mergeable with old data.
    pub fn reduce(&self, d_new: u8, p_new: u8) -> Result<Self, EllError> {
        let cfg_new = EllConfig::new(self.cfg.t(), d_new, p_new)?;
        if d_new > self.cfg.d() || p_new > self.cfg.p() {
            return Err(EllError::InvalidParameter {
                reason: format!(
                    "reduction cannot grow parameters: d {} → {d_new}, p {} → {p_new}",
                    self.cfg.d(),
                    self.cfg.p()
                ),
            });
        }
        let t = u64::from(self.cfg.t());
        let p = self.cfg.p();
        let d_shift = u32::from(self.cfg.d() - d_new);
        let m_new = cfg_new.m();
        let fold = 1usize << (p - p_new);
        // Smallest update value whose NLZ part was saturated at the old
        // precision: a = (64 − t − p)·2^t + 1.
        let a = ((64 - t - u64::from(p)) << t) + 1;
        let mut regs = PackedArray::new(cfg_new.register_width(), m_new);
        for i in 0..m_new {
            let mut acc = 0u64;
            for j in 0..fold {
                let mut r = self.regs.get(i + j * m_new) >> d_shift;
                let u = r >> d_new;
                if u >= a {
                    // The NLZ was saturated, so the freed address bits `j`
                    // extend the run of leading zeros at precision p'.
                    let field = u32::from(p - p_new);
                    let bitlen = 64 - (j as u64).leading_zeros();
                    let s = u64::from(field.saturating_sub(bitlen)) << t;
                    if s > 0 {
                        // Indicator bits for non-saturated values (below
                        // position v) drop by s relative to the new
                        // maximum; saturated ones shift along with it.
                        let v = i64::from(d_new) + a as i64 - u as i64;
                        if v > 0 {
                            let v = v as u32;
                            let low = r & mask(v);
                            let kept = (r >> v) << v;
                            let moved = if s < 64 { low >> s } else { 0 };
                            r = kept | moved;
                        }
                        r += s << d_new;
                    }
                }
                acc = registers::merge(r, acc, d_new);
            }
            regs.set(i, acc);
        }
        Ok(ExaLogLog::from_valid_parts(cfg_new, regs))
    }

    /// The bias-corrected maximum-likelihood estimate of the number of
    /// distinct inserted elements (equations (19) and (4)).
    #[must_use]
    pub fn estimate(&self) -> f64 {
        estimate_from_coefficients(&self.cfg, &self.live_coefficients())
    }

    /// The raw ML estimate n̂_ML without the first-order bias correction.
    ///
    /// Solves the ML equation from the incrementally maintained
    /// coefficients in O(populated β levels); only a sketch whose cache
    /// was dropped by a raw register overwrite pays the O(m) column-count
    /// Algorithm 3 scan.
    #[must_use]
    pub fn estimate_ml_raw(&self) -> f64 {
        ml::ml_estimate_from_coefficients(&self.live_coefficients(), self.cfg.m() as f64)
    }

    /// The log-likelihood coefficients (α, β) of this state (Algorithm 3)
    /// — served from the incremental cache when it is live, recomputed
    /// otherwise.
    #[must_use]
    pub fn coefficients(&self) -> MlCoefficients {
        self.live_coefficients().into_owned()
    }

    /// The cached coefficients when live (checked against a fresh scan in
    /// debug builds), else a fresh scan.
    fn live_coefficients(&self) -> Cow<'_, MlCoefficients> {
        match &self.coeffs {
            Some(c) => {
                debug_assert_eq!(
                    **c,
                    self.coefficients_scan(),
                    "cached ML coefficients diverged from the Algorithm 3 scan"
                );
                Cow::Borrowed(c)
            }
            None => Cow::Owned(self.coefficients_scan()),
        }
    }

    /// The log-likelihood coefficients computed from scratch with one
    /// column-count register scan ([`ml::compute_coefficients`]),
    /// regardless of cache state. This is the reference path the
    /// incremental cache is verified against (and the baseline
    /// `bench_registers` measures).
    #[must_use]
    pub fn coefficients_scan(&self) -> MlCoefficients {
        ml::compute_coefficients(&self.cfg, self.regs.iter())
    }

    /// Whether the incremental coefficient cache is live (it is for every
    /// sketch built through the public insert/merge API; raw register
    /// overwrites drop it).
    #[must_use]
    pub fn has_cached_coefficients(&self) -> bool {
        self.coeffs.is_some()
    }

    /// Rebuilds the coefficient cache with one Algorithm 3 scan, making
    /// subsequent [`ExaLogLog::estimate`] calls O(populated β levels)
    /// again after bulk raw-register surgery dropped the cache.
    pub fn refresh_coefficients(&mut self) {
        self.coeffs = Some(Box::new(self.coefficients_scan()));
    }

    /// The probability μ that inserting a new (unseen) element changes the
    /// state (equation (23)), computed from scratch in O(m·d).
    #[must_use]
    pub fn state_change_probability(&self) -> f64 {
        self.regs
            .iter()
            .map(|r| registers::change_probability(&self.cfg, r))
            .sum()
    }

    /// The raw register array — exactly the `⌈m·(6+t+d)/8⌉` bytes the
    /// paper counts as the sketch's serialized size.
    #[must_use]
    pub fn register_bytes(&self) -> &[u8] {
        self.regs.as_bytes()
    }

    /// Serializes the sketch: a 7-byte self-describing header
    /// (`"ELL1"`, t, d, p) followed by the register array.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = self.regs.as_bytes();
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&[self.cfg.t(), self.cfg.d(), self.cfg.p()]);
        out.extend_from_slice(payload);
        out
    }

    /// Deserializes a sketch produced by [`ExaLogLog::to_bytes`],
    /// validating the header, the payload length, and every register's
    /// structural invariants.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EllError> {
        if bytes.len() < HEADER_LEN {
            return Err(EllError::CorruptSerialization {
                reason: format!("{} bytes is shorter than the header", bytes.len()),
            });
        }
        if &bytes[..4] != MAGIC {
            return Err(EllError::CorruptSerialization {
                reason: "bad magic".into(),
            });
        }
        let cfg = EllConfig::new(bytes[4], bytes[5], bytes[6])?;
        Self::from_register_bytes(cfg, &bytes[HEADER_LEN..])
    }

    /// Reconstructs a sketch from a bare register array (no header), as
    /// exposed by [`ExaLogLog::register_bytes`].
    pub fn from_register_bytes(cfg: EllConfig, payload: &[u8]) -> Result<Self, EllError> {
        let regs =
            PackedArray::from_bytes(cfg.register_width(), cfg.m(), payload).map_err(|e| {
                EllError::CorruptSerialization {
                    reason: e.to_string(),
                }
            })?;
        for (i, r) in regs.iter().enumerate() {
            if !registers::is_valid(&cfg, r) {
                return Err(EllError::CorruptSerialization {
                    reason: format!("register {i} holds unreachable value {r:#x}"),
                });
            }
        }
        // Rebuild the coefficient cache eagerly: the scan shares its
        // O(m) register pass with the validation above, and a sketch
        // that deserializes cold would silently pay the full Algorithm 3
        // scan on *every* subsequent `estimate()` (the cache is never
        // rebuilt through `&self`). One scan at load time keeps every
        // deserialized sketch on the incremental path.
        Ok(Self::from_valid_parts(cfg, regs))
    }

    /// Inserts a whole slice of pre-hashed elements — the batched ingest
    /// hot path.
    ///
    /// Bit-for-bit equivalent to calling [`ExaLogLog::insert_hash`] for
    /// each element in order (enforced by property tests); the speedup
    /// comes from splitting each unrolled block into a pure
    /// hash-decomposition pass — independent ALU work the CPU can overlap
    /// across lanes — followed by the serially dependent packed-register
    /// read-modify-writes.
    pub fn insert_hashes(&mut self, hashes: &[u64]) {
        const LANES: usize = 8;
        let d = self.cfg.d();
        let mut idx = [0usize; LANES];
        let mut val = [0u64; LANES];
        let mut chunks = hashes.chunks_exact(LANES);
        for chunk in &mut chunks {
            for (j, &h) in chunk.iter().enumerate() {
                (idx[j], val[j]) = self.decompose_hash(h);
            }
            for j in 0..LANES {
                let old = self.regs.get(idx[j]);
                let new = registers::update(old, val[j], d);
                if new != old {
                    self.regs.set(idx[j], new);
                    if let Some(c) = self.coeffs.as_deref_mut() {
                        ml::apply_register_change(c, &self.cfg, old, new);
                    }
                }
            }
        }
        for &h in chunks.remainder() {
            self.insert_hash(h);
        }
    }

    /// Inserts a whole stream of pre-hashed elements, buffering them into
    /// 1024-hash blocks that run through the unrolled
    /// [`ExaLogLog::insert_hashes`] hot path (the same chunking the
    /// `ell count` streaming pipeline uses). Bit-for-bit equivalent to
    /// inserting each hash in order; the buffer lives on the stack, so the
    /// operation stays allocation-free.
    pub fn extend_hashes(&mut self, hashes: impl IntoIterator<Item = u64>) {
        let mut buf = [0u64; 1024];
        let mut n = 0usize;
        for h in hashes {
            buf[n] = h;
            n += 1;
            if n == buf.len() {
                self.insert_hashes(&buf);
                n = 0;
            }
        }
        self.insert_hashes(&buf[..n]);
    }

    /// In-memory footprint of the sketch *state* in bytes: the struct
    /// itself plus the heap allocation of the register array. This is the
    /// "memory" column of Table 2 (Rust equivalent of the paper's
    /// measured allocation).
    ///
    /// Deliberately excluded: the incremental ML coefficient cache (536
    /// heap bytes when live — see [`ExaLogLog::coefficients_memory_bytes`]).
    /// It is derived, reconstructible accelerator state, not sketch
    /// state, and counting it would distort the paper-reproduction
    /// memory comparisons (Figure 10, Table 2) against baselines that
    /// carry no such cache.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        core::mem::size_of::<Self>() + self.regs.as_bytes().len()
    }

    /// Heap bytes currently held by the incremental ML coefficient cache
    /// (0 when the cache is cold). Reported separately from
    /// [`ExaLogLog::memory_bytes`]; see there for why.
    #[must_use]
    pub fn coefficients_memory_bytes(&self) -> usize {
        match &self.coeffs {
            Some(_) => core::mem::size_of::<MlCoefficients>(),
            None => 0,
        }
    }
}

/// `Extend<u64>` consumes pre-hashed elements, enabling
/// `stream.collect()`-style pipelines.
impl Extend<u64> for ExaLogLog {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, hashes: T) {
        self.extend_hashes(hashes);
    }
}

impl core::fmt::Debug for ExaLogLog {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ExaLogLog({}, estimate≈{:.1})",
            self.cfg,
            self.estimate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ell_hash::SplitMix64;

    fn stream(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn empty_sketch_properties() {
        let s = ExaLogLog::with_params(2, 20, 6).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.estimate(), 0.0);
        assert!((s.state_change_probability() - 1.0).abs() < 1e-12);
        assert_eq!(s.register_bytes().len(), 224);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut s = ExaLogLog::with_params(2, 20, 4).unwrap();
        let hashes = stream(42, 500);
        for &h in &hashes {
            s.insert_hash(h);
        }
        let snapshot = s.clone();
        for &h in &hashes {
            assert!(!s.insert_hash(h), "duplicate insertion changed state");
        }
        assert_eq!(s, snapshot);
    }

    #[test]
    fn insert_order_does_not_matter() {
        let hashes = stream(7, 300);
        let mut forward = ExaLogLog::with_params(1, 9, 5).unwrap();
        let mut backward = forward.clone();
        for &h in &hashes {
            forward.insert_hash(h);
        }
        for &h in hashes.iter().rev() {
            backward.insert_hash(h);
        }
        assert_eq!(forward, backward);
    }

    #[test]
    fn decompose_hash_layout() {
        // t = 2, p = 4: index from bits 2..5, value from NLZ of the top 58
        // bits and the low 2 bits.
        let s = ExaLogLog::with_params(2, 6, 4).unwrap();
        // Hash with known structure: top bits 0…01…, index bits, low bits.
        let h: u64 = (1 << 40) | (0b1010 << 2) | 0b11;
        let (i, k) = s.decompose_hash(h);
        assert_eq!(i, 0b1010);
        // NLZ of h with low 6 bits set to 1 → 63 − 40 = 23 leading zeros.
        assert_eq!(k, 23 * 4 + 0b11 + 1);
    }

    #[test]
    fn update_value_range_is_respected() {
        for (t, p) in [(0u8, 2u8), (2, 8), (3, 4), (1, 12)] {
            let s = ExaLogLog::with_params(t, 4, p).unwrap();
            let max_k = s.config().max_update_value();
            // All-zero hash maximizes the NLZ.
            let (_, k) = s.decompose_hash(0);
            assert_eq!(k, max_k - ((1 << t) - 1), "t={t} p={p}");
            let (_, k) = s.decompose_hash(mask(u32::from(t))); // low bits max
            assert_eq!(k, max_k);
            // All-ones hash gives the minimum.
            let (_, k) = s.decompose_hash(u64::MAX);
            assert_eq!(k, 1 + mask(u32::from(t)));
        }
    }

    #[test]
    fn merge_equals_union_paper_protocol() {
        // Paper §5: merging two random sketches must equal inserting the
        // unified stream into a fresh sketch.
        for (t, d, p) in [
            (0u8, 0u8, 4u8),
            (0, 2, 4),
            (1, 9, 5),
            (2, 20, 4),
            (2, 24, 6),
        ] {
            let s1_hashes = stream(1000 + u64::from(t), 2000);
            let s2_hashes = stream(2000 + u64::from(d), 1500);
            let mut a = ExaLogLog::with_params(t, d, p).unwrap();
            let mut b = a.clone();
            let mut direct = a.clone();
            for &h in &s1_hashes {
                a.insert_hash(h);
                direct.insert_hash(h);
            }
            for &h in &s2_hashes {
                b.insert_hash(h);
                direct.insert_hash(h);
            }
            a.merge_from(&b).unwrap();
            assert_eq!(a, direct, "t={t} d={d} p={p}");
        }
    }

    #[test]
    fn merge_is_commutative_and_idempotent() {
        let mut a = ExaLogLog::with_params(2, 16, 4).unwrap();
        let mut b = a.clone();
        for &h in &stream(5, 800) {
            a.insert_hash(h);
        }
        for &h in &stream(6, 900) {
            b.insert_hash(h);
        }
        let mut ab = a.clone();
        ab.merge_from(&b).unwrap();
        let mut ba = b.clone();
        ba.merge_from(&a).unwrap();
        assert_eq!(ab, ba);
        let mut abb = ab.clone();
        abb.merge_from(&b).unwrap();
        assert_eq!(abb, ab, "merging the same sketch again is a no-op");
    }

    #[test]
    fn merge_rejects_mismatched_configs() {
        let a = ExaLogLog::with_params(2, 20, 4).unwrap();
        let mut b = ExaLogLog::with_params(2, 20, 5).unwrap();
        assert!(b.merge_from(&a).is_err());
        let mut c = ExaLogLog::with_params(1, 20, 4).unwrap();
        assert!(c.merge_from(&a).is_err());
    }

    #[test]
    fn reduce_matches_direct_recording() {
        // Paper §5 validation protocol for Algorithm 6: insert identical
        // elements into differently configured sketches; reducing the
        // larger must reproduce the smaller exactly.
        let hashes = stream(99, 5000);
        for (t, d, p, d2, p2) in [
            (0u8, 2u8, 8u8, 2u8, 6u8),
            (0, 2, 8, 0, 8),
            (0, 2, 8, 1, 5),
            (1, 9, 9, 9, 4),
            (2, 20, 8, 20, 4),
            (2, 20, 8, 4, 6),
            (2, 24, 10, 0, 2),
            (3, 10, 7, 3, 3),
        ] {
            let mut big = ExaLogLog::with_params(t, d, p).unwrap();
            let mut small = ExaLogLog::with_params(t, d2, p2).unwrap();
            for &h in &hashes {
                big.insert_hash(h);
                small.insert_hash(h);
            }
            let reduced = big.reduce(d2, p2).unwrap();
            assert_eq!(
                reduced, small,
                "t={t} d={d}→{d2} p={p}→{p2}: reduction differs from direct recording"
            );
        }
    }

    #[test]
    fn reduce_identity() {
        let mut s = ExaLogLog::with_params(2, 20, 6).unwrap();
        for &h in &stream(3, 1000) {
            s.insert_hash(h);
        }
        assert_eq!(s.reduce(20, 6).unwrap(), s);
    }

    #[test]
    fn reduce_rejects_growth() {
        let s = ExaLogLog::with_params(2, 16, 6).unwrap();
        assert!(s.reduce(20, 6).is_err());
        assert!(s.reduce(16, 7).is_err());
    }

    #[test]
    fn merged_with_mixed_parameters() {
        // Mixed-parameter merge per §4.1: reduce to common, then merge.
        let hashes_a = stream(11, 3000);
        let hashes_b = stream(12, 2500);
        let mut a = ExaLogLog::with_params(2, 24, 8).unwrap();
        let mut b = ExaLogLog::with_params(2, 16, 6).unwrap();
        for &h in &hashes_a {
            a.insert_hash(h);
        }
        for &h in &hashes_b {
            b.insert_hash(h);
        }
        let merged = a.merged_with(&b).unwrap();
        assert_eq!(merged.config(), &EllConfig::new(2, 16, 6).unwrap());
        // Must equal direct recording at the common parameters.
        let mut direct = ExaLogLog::with_params(2, 16, 6).unwrap();
        for &h in hashes_a.iter().chain(hashes_b.iter()) {
            direct.insert_hash(h);
        }
        assert_eq!(merged, direct);
        // Different t is rejected.
        let c = ExaLogLog::with_params(1, 16, 6).unwrap();
        assert!(a.merged_with(&c).is_err());
    }

    #[test]
    fn estimate_tracks_true_count() {
        // p = 10 → predicted RMSE ≈ 1.9 % for ELL(2,20). Allow 4 sigma.
        let mut s = ExaLogLog::with_params(2, 20, 10).unwrap();
        let mut rng = SplitMix64::new(2024);
        for n in [100usize, 1_000, 10_000, 100_000] {
            s.clear();
            for _ in 0..n {
                s.insert_hash(rng.next_u64());
            }
            let est = s.estimate();
            let rel = est / n as f64 - 1.0;
            assert!(
                rel.abs() < 0.08,
                "n={n}: estimate {est} off by {:.1} %",
                rel * 100.0
            );
        }
    }

    #[test]
    fn estimate_is_monotone_under_merging() {
        // Merging can only add information: estimate(a ∪ b) ≥ max(est a, est b)
        // (holds statistically; with ML estimation it holds because every
        // register value only grows — check the register dominance).
        let mut a = ExaLogLog::with_params(2, 20, 6).unwrap();
        let mut b = a.clone();
        for &h in &stream(21, 4000) {
            a.insert_hash(h);
        }
        for &h in &stream(22, 4000) {
            b.insert_hash(h);
        }
        let ea = a.estimate();
        let eb = b.estimate();
        a.merge_from(&b).unwrap();
        let eab = a.estimate();
        assert!(eab >= ea.max(eb) * 0.999, "{eab} < max({ea}, {eb})");
    }

    #[test]
    fn serialization_roundtrip() {
        let mut s = ExaLogLog::with_params(2, 20, 8).unwrap();
        for &h in &stream(77, 10_000) {
            s.insert_hash(h);
        }
        let bytes = s.to_bytes();
        assert_eq!(bytes.len(), 7 + 896);
        let back = ExaLogLog::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        // Bare register payload round-trip too.
        let back2 = ExaLogLog::from_register_bytes(*s.config(), s.register_bytes()).unwrap();
        assert_eq!(back2, s);
    }

    #[test]
    fn serialization_rejects_corruption() {
        let mut s = ExaLogLog::with_params(0, 6, 4).unwrap();
        for &h in &stream(123, 1000) {
            s.insert_hash(h);
        }
        let good = s.to_bytes();
        // Truncated.
        assert!(ExaLogLog::from_bytes(&good[..good.len() - 1]).is_err());
        assert!(ExaLogLog::from_bytes(&good[..3]).is_err());
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(ExaLogLog::from_bytes(&bad).is_err());
        // Bad parameters.
        let mut bad = good.clone();
        bad[6] = 1; // p = 1 < MIN_P
        assert!(ExaLogLog::from_bytes(&bad).is_err());
        // Register-invariant violation: u = 3 without its sentinel bit.
        // Register 0 occupies bits 0..12 (d = 6 indicator bits, then u);
        // u = 3 → r = 3·2^6 = 0b1100_0000 with all indicators clear, which
        // is unreachable (the sentinel at bit d−u = 3 must be set).
        let mut payload = s.register_bytes().to_vec();
        payload[0] = 0xc0;
        payload[1] &= 0xf0;
        let r = ExaLogLog::from_register_bytes(*s.config(), &payload);
        assert!(r.is_err(), "invalid register accepted: {r:?}");
    }

    #[test]
    fn state_change_probability_matches_incremental() {
        let mut s = ExaLogLog::with_params(2, 16, 4).unwrap();
        let mut mu = 1.0;
        let mut rng = SplitMix64::new(31);
        for _ in 0..5000 {
            let h = rng.next_u64();
            if let Some(change) = s.insert_hash_tracked(h) {
                let h_old = registers::change_probability(s.config(), change.old);
                let h_new = registers::change_probability(s.config(), change.new);
                mu -= h_old - h_new;
            }
        }
        let scratch = s.state_change_probability();
        assert!(
            (mu - scratch).abs() < 1e-9,
            "incremental μ {mu} vs from-scratch {scratch}"
        );
    }

    #[test]
    fn special_case_t0_d0_matches_classic_hll_registers() {
        // ELL(0,0) must hold exactly the HLL register values of
        // Algorithm 1 for the same hashes.
        let p = 6u8;
        let mut ell = ExaLogLog::with_params(0, 0, p).unwrap();
        let m = 1usize << p;
        let mut hll = vec![0u64; m];
        for &h in &stream(555, 20_000) {
            ell.insert_hash(h);
            // Algorithm 1 (paper): index from the TOP p bits, value from
            // NLZ of the rest. Our ELL consumes bits in a different order
            // (index above the low t bits) — equivalent in distribution.
            // For the comparison we replicate ELL's bit order with t = 0:
            let i = (h as usize) & (m - 1);
            let a = h | mask(u32::from(p));
            let k = u64::from(a.leading_zeros()) + 1;
            hll[i] = hll[i].max(k);
        }
        for (i, &expect) in hll.iter().enumerate() {
            assert_eq!(ell.register(i), expect, "register {i}");
        }
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = ExaLogLog::with_params(1, 9, 4).unwrap();
        for &h in &stream(8, 100) {
            s.insert_hash(h);
        }
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.estimate(), 0.0);
        assert_eq!(s, ExaLogLog::with_params(1, 9, 4).unwrap());
    }

    #[test]
    fn extend_matches_loop() {
        let cfg = EllConfig::optimal(6).unwrap();
        let hashes = stream(88, 2000);
        let mut by_loop = ExaLogLog::new(cfg);
        for &h in &hashes {
            by_loop.insert_hash(h);
        }
        let mut by_extend = ExaLogLog::new(cfg);
        by_extend.extend(hashes.iter().copied());
        assert_eq!(by_extend, by_loop);
    }

    #[test]
    fn batched_insert_matches_sequential() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 2000] {
            let hashes = stream(1234 + n as u64, n);
            let mut seq = ExaLogLog::with_params(2, 20, 6).unwrap();
            for &h in &hashes {
                seq.insert_hash(h);
            }
            let mut bat = ExaLogLog::with_params(2, 20, 6).unwrap();
            bat.insert_hashes(&hashes);
            assert_eq!(seq, bat, "n={n}");
        }
    }

    #[test]
    fn deserialized_sketch_estimates_through_the_cache() {
        // Regression: `from_bytes` used to return a cold sketch whose
        // every `estimate()` silently re-ran the O(m·d) Algorithm 3
        // scan (the cache cannot be rebuilt through `&self`). The cache
        // must come back live, agree with the scan, and produce
        // bit-identical estimates.
        let mut s = ExaLogLog::with_params(2, 20, 8).unwrap();
        for &h in &stream(4242, 20_000) {
            s.insert_hash(h);
        }
        let back = ExaLogLog::from_bytes(&s.to_bytes()).unwrap();
        assert!(
            back.has_cached_coefficients(),
            "deserialized sketch must take the cached estimation path"
        );
        assert_eq!(back.coefficients(), back.coefficients_scan());
        assert_eq!(back.estimate().to_bits(), s.estimate().to_bits());
        // The bare-payload path warms too.
        let back2 = ExaLogLog::from_register_bytes(*s.config(), s.register_bytes()).unwrap();
        assert!(back2.has_cached_coefficients());
        // And the cache stays exact through further inserts.
        let mut grown = back;
        for &h in &stream(77, 500) {
            grown.insert_hash(h);
        }
        assert_eq!(grown.coefficients(), grown.coefficients_scan());
    }

    #[test]
    fn memory_accounting() {
        let s = ExaLogLog::with_params(2, 24, 8).unwrap();
        // 256 registers × 32 bits = 1024 bytes payload + struct overhead.
        assert!(s.memory_bytes() >= 1024);
        assert!(s.memory_bytes() < 1024 + 128);
    }
}
