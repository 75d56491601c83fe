//! Lock-free concurrent ExaLogLog (paper §2.4).
//!
//! The paper singles out ELL(2, 24) because its 32-bit registers make the
//! sketch "convenient for concurrent updates using compare-and-swap
//! instructions". [`AtomicExaLogLog`] generalizes that observation to
//! *every* valid configuration: registers are packed into `AtomicU64`
//! words — `⌊64 / width⌋` registers per word, so no register ever
//! straddles a word boundary — and insertion retries a CAS loop on the
//! containing word. Because the register update function is monotone
//! (values only grow) and the merge of concurrent updates equals their
//! sequential application in either order, the final state is
//! *identical* to single-threaded insertion of the same element set —
//! concurrency costs no accuracy.
//!
//! For the paper's 32-bit-aligned configurations (ELL(2, 24)) this
//! layout stores exactly two registers per word, matching the memory
//! footprint of a plain `AtomicU32` array; narrower registers pack more
//! densely (HLL's 6-bit registers fit ten per word), and wide
//! configurations such as ELL(2, 28) (36-bit registers) get one
//! register per word — more padding, but the same lock-free hot path.
//!
//! ```
//! use exaloglog::{atomic::AtomicExaLogLog, EllConfig};
//! use std::sync::Arc;
//!
//! let sketch = Arc::new(AtomicExaLogLog::new(EllConfig::aligned32(10).unwrap()));
//! std::thread::scope(|s| {
//!     for shard in 0..4u64 {
//!         let sketch = Arc::clone(&sketch);
//!         s.spawn(move || {
//!             for i in 0..25_000u64 {
//!                 sketch.insert_hash(ell_hash::mix64(shard * 25_000 + i));
//!             }
//!         });
//!     }
//! });
//! let estimate = sketch.estimate();
//! assert!((estimate / 100_000.0 - 1.0).abs() < 0.1);
//! ```
//!
//! [`AtomicExaLogLog::estimate`] reads the atomic words straight into the
//! column-count Algorithm 3 scan ([`AtomicExaLogLog::coefficients_scan`]);
//! it never builds a [`AtomicExaLogLog::snapshot`].

use crate::config::{EllConfig, EllError};
use crate::ml::{ColumnScan, MlCoefficients};
use crate::registers;
use crate::sketch::{self, ExaLogLog};
use crate::sync::atomic::{AtomicU64, Ordering};
use ell_hash::Hasher64;

/// A thread-safe ExaLogLog with lock-free inserts, supporting every
/// valid register width (6..=64 bits).
#[derive(Debug)]
pub struct AtomicExaLogLog {
    cfg: EllConfig,
    /// Packed register words: `regs_per_word` registers of
    /// `register_width` bits each, starting at bit 0; upper bits unused.
    words: Box<[AtomicU64]>,
    /// Registers per word (at most 10) and the register width (at most
    /// 64).
    regs_per_word: u8,
    width: u8,
}

impl AtomicExaLogLog {
    /// Creates an empty concurrent sketch. Every valid configuration is
    /// accepted; wider-than-32-bit registers simply pack one per word.
    #[must_use]
    pub fn new(cfg: EllConfig) -> Self {
        Self::from_words(cfg, vec![0; Self::word_count(&cfg)])
    }

    /// Registers per word for `cfg`'s register width.
    fn regs_per_word(cfg: &EllConfig) -> usize {
        (64 / cfg.register_width()) as usize
    }

    fn word_count(cfg: &EllConfig) -> usize {
        cfg.m().div_ceil(Self::regs_per_word(cfg))
    }

    /// Wraps packed register words.
    fn from_words(cfg: EllConfig, words: Vec<u64>) -> Self {
        AtomicExaLogLog {
            cfg,
            words: words.into_iter().map(AtomicU64::new).collect(),
            regs_per_word: Self::regs_per_word(&cfg) as u8,
            width: cfg.register_width() as u8,
        }
    }

    /// This sketch's configuration.
    #[must_use]
    pub fn config(&self) -> &EllConfig {
        &self.cfg
    }

    /// Word index and bit shift of register `i`.
    #[inline]
    fn locate(&self, i: usize) -> (usize, u32) {
        let per_word = usize::from(self.regs_per_word);
        (i / per_word, (i % per_word) as u32 * u32::from(self.width))
    }

    /// CAS-applies `f` to register `i` until it sticks; returns whether
    /// this call changed the register. `f` must be monotone (idempotent
    /// once the target value is reached) for the loop to terminate under
    /// contention.
    #[inline]
    fn rmw_register<F: Fn(u64) -> u64>(&self, i: usize, f: F) -> bool {
        let (w, shift) = self.locate(i);
        let field = ell_bitpack::mask(u32::from(self.width));
        let word = &self.words[w];
        // ordering: Relaxed — this load only seeds the CAS loop; a stale
        // value costs one extra iteration, never correctness.
        let mut current = word.load(Ordering::Relaxed);
        loop {
            let old = (current >> shift) & field;
            let new = f(old);
            if new == old {
                return false;
            }
            let updated = (current & !(field << shift)) | (new << shift);
            // ordering: Relaxed/Relaxed — the register word is the entire
            // payload (no other memory is published through it) and the
            // update is a monotone join, so every interleaving of Relaxed
            // CASes yields the same final word. Cross-thread visibility of
            // the finished sketch is established by whoever joins the
            // ingest threads, not here.
            // See CONCURRENCY.md § "CAS register merge".
            match word.compare_exchange_weak(current, updated, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }

    /// Inserts an element by its 64-bit hash; safe to call from any number
    /// of threads concurrently. Returns whether this call changed the
    /// state.
    ///
    /// Lock-free: a compare-exchange loop on the containing 64-bit word
    /// that retries only when another thread raced on the same word;
    /// monotonicity guarantees convergence in at most a handful of
    /// iterations.
    pub fn insert_hash(&self, h: u64) -> bool {
        // Same decomposition as the sequential sketch (Algorithm 2).
        let t = u32::from(self.cfg.t());
        let p = u32::from(self.cfg.p());
        let i = ((h >> t) as usize) & (self.cfg.m() - 1);
        let a = h | ell_bitpack::mask(p + t);
        let k = (u64::from(a.leading_zeros()) << t) + (h & ell_bitpack::mask(t)) + 1;
        let d = self.cfg.d();
        self.rmw_register(i, |old| registers::update(old, k, d))
    }

    /// Inserts a stream of hashes; the final state equals inserting each
    /// hash with [`AtomicExaLogLog::insert_hash`].
    pub fn extend_hashes(&self, hashes: impl IntoIterator<Item = u64>) {
        for h in hashes {
            self.insert_hash(h);
        }
    }

    /// Hashes `element` with `hasher` and inserts it.
    pub fn insert<H: Hasher64 + ?Sized>(&self, hasher: &H, element: &[u8]) -> bool {
        self.insert_hash(hasher.hash_bytes(element))
    }

    /// Takes a consistent-enough snapshot as a sequential [`ExaLogLog`]
    /// for estimation, merging or serialization.
    ///
    /// Word loads are individually atomic; a concurrent writer may land
    /// between loads, which is harmless for a monotone sketch (the
    /// snapshot then represents some interleaving of the insert stream —
    /// exactly what a sequential sketch would have seen). Because no
    /// register straddles a word boundary, a snapshot never observes a
    /// torn register.
    #[must_use]
    pub fn snapshot(&self) -> ExaLogLog {
        let mut out = ExaLogLog::new(self.cfg);
        self.for_each_nonzero(|i, v| out.set_register_unchecked(i, v));
        out
    }

    /// The bias-corrected ML estimate of the current state, bit-identical
    /// to `self.snapshot().estimate()` (one column-count scan of the
    /// words, with the consistency of [`AtomicExaLogLog::snapshot`] under
    /// concurrent inserts).
    #[must_use]
    pub fn estimate(&self) -> f64 {
        sketch::estimate_from_coefficients(&self.cfg, &self.coefficients_scan())
    }

    /// The log-likelihood coefficients from one column-count scan of the
    /// atomic words: the nonzero registers go straight into the scan and
    /// the empty ones are added as one count, so no snapshot is built.
    /// Under concurrent inserts it has the consistency of
    /// [`AtomicExaLogLog::snapshot`].
    #[must_use]
    pub fn coefficients_scan(&self) -> MlCoefficients {
        let mut scan = ColumnScan::new(&self.cfg);
        let mut nonzero = 0u64;
        self.for_each_nonzero(|_, v| {
            scan.add(v);
            nonzero += 1;
        });
        scan.add_empty(self.cfg.m() as u64 - nonzero);
        scan.finish()
    }

    /// Calls `f(index, value)` for every currently nonzero register,
    /// skipping empty words with one comparison per 64 bits and
    /// extracting the set lanes of nonzero words by
    /// mask-and-`trailing_zeros` instead of decoding every lane.
    fn for_each_nonzero<F: FnMut(usize, u64)>(&self, mut f: F) {
        let m = self.cfg.m();
        for (w, word) in self.words.iter().enumerate() {
            // ordering: Relaxed — each word load is individually atomic
            // (no torn registers) and registers are monotone, so any
            // combination of per-word values the scan observes equals the
            // state of some legal prefix of the insert stream; there is no
            // dependent non-atomic data for an Acquire to order. An
            // Acquire here would pair with nothing, since the CAS writers
            // are Relaxed (see CONCURRENCY.md § "Snapshot during
            // atomic-sketch ingest").
            let bits = word.load(Ordering::Relaxed);
            if bits == 0 {
                continue;
            }
            let base = w * usize::from(self.regs_per_word);
            // Padding lanes (beyond regs_per_word, or past m in the final
            // word) are never written, so extraction cannot visit them.
            ell_bitpack::kernels::for_each_nonzero_lane(bits, u32::from(self.width), |lane, v| {
                debug_assert!(base + lane < m, "nonzero padding lane");
                f(base + lane, v);
            });
        }
    }

    /// Total in-memory footprint in bytes: the struct plus the packed
    /// atomic word array.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        core::mem::size_of::<Self>() + self.words.len() * core::mem::size_of::<AtomicU64>()
    }

    /// Folds this sketch's current registers into a sequential
    /// accumulator of the same configuration, register-merge-wise,
    /// without allocating an intermediate snapshot. Empty words are
    /// skipped. This is the aggregation shape the keyed store's
    /// all-keys-union query uses.
    ///
    /// Loads are individually atomic with the same consistency caveat as
    /// [`AtomicExaLogLog::snapshot`].
    ///
    /// # Errors
    ///
    /// Fails when configurations differ.
    pub fn merge_into_dense(&self, acc: &mut ExaLogLog) -> Result<(), EllError> {
        if self.cfg != *acc.config() {
            return Err(EllError::IncompatibleSketches {
                reason: format!("{} vs {}", self.cfg, acc.config()),
            });
        }
        self.for_each_nonzero(|i, v| acc.merge_register_value(i, v));
        Ok(())
    }

    /// Builds a concurrent sketch holding the same state as a sequential
    /// one (e.g. to resume shared ingestion from a checkpoint), packing
    /// the words directly.
    #[must_use]
    pub fn from_sketch(other: &ExaLogLog) -> Self {
        let cfg = *other.config();
        let (per_word, width) = (Self::regs_per_word(&cfg), cfg.register_width());
        let mut words = vec![0u64; Self::word_count(&cfg)];
        other.for_each_nonzero_register(|i, v| {
            words[i / per_word] |= v << ((i % per_word) as u32 * width);
        });
        Self::from_words(cfg, words)
    }

    /// Merges a sequential sketch into this one (register-wise CAS max),
    /// e.g. to fold shard-local or thread-local delta sketches into a
    /// shared accumulator.
    ///
    /// The incoming register array is scanned as 64-bit words
    /// ([`ExaLogLog::for_each_nonzero_register`]), so runs of empty
    /// registers — the common case when folding a lightly filled delta —
    /// cost one comparison per 64 bits instead of one packed read and CAS
    /// loop per register.
    ///
    /// # Errors
    ///
    /// Fails when configurations differ.
    pub fn merge_from(&self, other: &ExaLogLog) -> Result<(), EllError> {
        if self.cfg != *other.config() {
            return Err(EllError::IncompatibleSketches {
                reason: format!("{} vs {}", self.cfg, other.config()),
            });
        }
        let d = self.cfg.d();
        other.for_each_nonzero_register(|i, incoming| {
            self.rmw_register(i, |old| registers::merge(old, incoming, d));
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ell_hash::{mix64, SplitMix64};
    use std::sync::Arc;

    #[test]
    fn smoke_concurrent_insert_and_snapshot() {
        // Deliberately tiny: the `sanitizers` CI job runs `cargo test
        // smoke` under ThreadSanitizer and Miri, where every memory
        // access costs orders of magnitude more. Two threads, a few
        // hundred inserts, one snapshot race — enough to let the tools
        // see every atomic protocol (CAS insert, merge, racing
        // snapshot) without a multi-hour run.
        let cfg = EllConfig::new(2, 16, 4).unwrap();
        let atomic = Arc::new(AtomicExaLogLog::new(cfg));
        let hashes: Vec<u64> = (0..200u64).map(mix64).collect();
        let (left, right) = hashes.split_at(100);
        std::thread::scope(|s| {
            let a = Arc::clone(&atomic);
            s.spawn(move || {
                for &h in left {
                    a.insert_hash(h);
                }
            });
            let a = Arc::clone(&atomic);
            s.spawn(move || {
                for &h in right {
                    a.insert_hash(h);
                }
            });
            let a = Arc::clone(&atomic);
            s.spawn(move || a.snapshot());
        });
        let mut sequential = ExaLogLog::new(cfg);
        for &h in &hashes {
            sequential.insert_hash(h);
        }
        assert_eq!(atomic.snapshot(), sequential);
    }

    #[test]
    fn smoke_estimate_races_inserts() {
        // Tiny on purpose, like the snapshot smoke test above: the
        // sanitizer legs run it under TSan and Miri. One thread inserts
        // while another estimates straight from the atomic words.
        let cfg = EllConfig::new(1, 9, 4).unwrap();
        let atomic = Arc::new(AtomicExaLogLog::new(cfg));
        let hashes: Vec<u64> = (0..150u64).map(mix64).collect();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let (a, b) = (Arc::clone(&atomic), &barrier);
            let h = &hashes;
            s.spawn(move || {
                b.wait();
                for &x in h {
                    a.insert_hash(x);
                }
            });
            let (a, b) = (Arc::clone(&atomic), &barrier);
            s.spawn(move || {
                b.wait();
                let est = a.estimate();
                assert!(est.is_finite() && est >= 0.0, "racing estimate {est}");
            });
        });
        assert_eq!(
            atomic.estimate().to_bits(),
            atomic.snapshot().estimate().to_bits()
        );
    }

    /// The scan of the atomic words must equal the snapshot's scan, and
    /// the estimate the snapshot's estimate to the bit.
    fn assert_scan_exact(atomic: &AtomicExaLogLog, what: &str) {
        assert_eq!(
            atomic.coefficients_scan(),
            atomic.snapshot().coefficients_scan(),
            "{what}: scan diverged from the snapshot's"
        );
        assert_eq!(
            atomic.estimate().to_bits(),
            atomic.snapshot().estimate().to_bits(),
            "{what}"
        );
    }

    #[test]
    fn fused_estimate_equals_snapshot_estimate() {
        // Every register width class (6, 7, 8, 16, 24, 28, 32, 36, 64
        // bits), d = 0 and t = 0, from empty through saturated-heavy, fed
        // by inserts, merges and `from_sketch`.
        let configs = [
            EllConfig::hll(4).unwrap(),
            EllConfig::ehll(6).unwrap(),
            EllConfig::ull(8).unwrap(),
            EllConfig::aligned16(5).unwrap(),
            EllConfig::martingale_optimal(7).unwrap(),
            EllConfig::optimal(10).unwrap(),
            EllConfig::aligned32(6).unwrap(),
            EllConfig::new(2, 28, 5).unwrap(),
            EllConfig::new(0, 58, 3).unwrap(),
            EllConfig::new(6, 3, 2).unwrap(),
        ];
        for cfg in configs {
            let atomic = AtomicExaLogLog::new(cfg);
            let merged = AtomicExaLogLog::new(cfg);
            let mut rng = SplitMix64::new(u64::from(cfg.register_width()));
            for n in [0usize, 1, 10, 1_000, 20_000] {
                let mut delta = ExaLogLog::new(cfg);
                for _ in 0..n {
                    let h = rng.next_u64();
                    atomic.insert_hash(h);
                    delta.insert_hash(h);
                }
                // A hash with no bits above p + t and all t low bits set
                // carries the maximum update value (φ capped at 64 − p).
                let (p, t) = (u32::from(cfg.p()), u32::from(cfg.t()));
                let h = rng.next_u64() & ell_bitpack::mask(p + t) | ell_bitpack::mask(t);
                atomic.insert_hash(h);
                delta.insert_hash(h);
                merged.merge_from(&delta).unwrap();
                assert_scan_exact(&atomic, &format!("cfg {cfg}, {n} more inserts"));
                assert_scan_exact(&merged, &format!("cfg {cfg}, merged {n} more"));
                let copy = AtomicExaLogLog::from_sketch(&atomic.snapshot());
                assert_scan_exact(&copy, &format!("cfg {cfg}, from_sketch after {n}"));
            }
            // Every register at the maximum update value with all
            // indicator bits set: α = 0.
            let (d, max) = (u64::from(cfg.d()), cfg.max_update_value());
            let mut full = ExaLogLog::new(cfg);
            for i in 0..cfg.m() {
                for k in max.saturating_sub(d).max(1)..=max {
                    full.apply_update(i, k);
                }
            }
            assert_eq!(full.coefficients().alpha_times_2_64, 0, "cfg {cfg}");
            merged.merge_from(&full).unwrap();
            for (saturated, how) in [
                (&merged, "merge_from"),
                (&AtomicExaLogLog::from_sketch(&full), "from_sketch"),
            ] {
                assert_eq!(saturated.coefficients_scan(), full.coefficients_scan());
                assert_eq!(
                    saturated.estimate().to_bits(),
                    full.estimate().to_bits(),
                    "cfg {cfg}, saturated by {how}"
                );
            }
        }
    }

    #[test]
    fn accepts_every_register_width() {
        // ELL(2,28) needs 36-bit registers: one per word.
        let wide = AtomicExaLogLog::new(EllConfig::new(2, 28, 8).unwrap());
        assert_eq!(wide.regs_per_word, 1);
        // ELL(2,24): 32-bit registers, two per word — same footprint as
        // a plain AtomicU32 array.
        let aligned = AtomicExaLogLog::new(EllConfig::aligned32(8).unwrap());
        assert_eq!(aligned.regs_per_word, 2);
        assert_eq!(
            aligned.memory_bytes() - core::mem::size_of::<AtomicExaLogLog>(),
            aligned.cfg.m() * 4
        );
        // Optimal(8) uses 28-bit registers: still two per word.
        assert_eq!(
            AtomicExaLogLog::new(EllConfig::optimal(8).unwrap()).regs_per_word,
            2
        );
        // HLL registers are 6 bits: ten per word.
        assert_eq!(
            AtomicExaLogLog::new(EllConfig::hll(8).unwrap()).regs_per_word,
            10
        );
    }

    fn assert_concurrent_equals_sequential(cfg: EllConfig, n: usize, seed: u64) {
        let atomic = Arc::new(AtomicExaLogLog::new(cfg));
        let hashes: Vec<u64> = {
            let mut rng = SplitMix64::new(seed);
            (0..n).map(|_| rng.next_u64()).collect()
        };
        std::thread::scope(|s| {
            for chunk in hashes.chunks(hashes.len() / 8) {
                let atomic = Arc::clone(&atomic);
                s.spawn(move || {
                    for &h in chunk {
                        atomic.insert_hash(h);
                    }
                });
            }
        });
        let mut sequential = ExaLogLog::new(cfg);
        for &h in &hashes {
            sequential.insert_hash(h);
        }
        assert_eq!(atomic.snapshot(), sequential, "cfg {cfg}");
    }

    #[test]
    fn concurrent_equals_sequential() {
        // The defining property: any interleaving produces the exact same
        // final state as sequential insertion — including for register
        // widths that share a word (32, 28, 6 bits) and widths that get a
        // word to themselves (36 bits).
        assert_concurrent_equals_sequential(EllConfig::aligned32(8).unwrap(), 80_000, 404);
        assert_concurrent_equals_sequential(EllConfig::optimal(8).unwrap(), 40_000, 405);
        assert_concurrent_equals_sequential(EllConfig::new(2, 28, 8).unwrap(), 40_000, 406);
        assert_concurrent_equals_sequential(EllConfig::hll(8).unwrap(), 40_000, 407);
    }

    #[test]
    fn contended_single_register() {
        // All updates target one register: maximal contention; the CAS
        // loop must still produce the sequential result. The two
        // registers sharing word 0 with the target must stay zero.
        let cfg = EllConfig::aligned32(4).unwrap();
        let atomic = Arc::new(AtomicExaLogLog::new(cfg));
        // Hashes whose register index bits (t..p+t) are all zero.
        let hashes: Vec<u64> = (0..20_000u64).map(|i| mix64(i) & !(0b1111 << 2)).collect();
        std::thread::scope(|s| {
            for chunk in hashes.chunks(hashes.len() / 4) {
                let atomic = Arc::clone(&atomic);
                s.spawn(move || {
                    for &h in chunk {
                        atomic.insert_hash(h);
                    }
                });
            }
        });
        let mut sequential = ExaLogLog::new(cfg);
        for &h in &hashes {
            sequential.insert_hash(h);
        }
        assert_eq!(atomic.snapshot(), sequential);
    }

    #[test]
    fn merge_from_sequential_shards() {
        // Exercise a width (36) where registers get a full word and a
        // width (32) where two share one.
        for cfg in [
            EllConfig::aligned32(6).unwrap(),
            EllConfig::new(2, 28, 6).unwrap(),
        ] {
            let atomic = AtomicExaLogLog::new(cfg);
            let mut direct = ExaLogLog::new(cfg);
            for shard in 0..4u64 {
                let mut local = ExaLogLog::new(cfg);
                let mut rng = SplitMix64::new(shard);
                for _ in 0..5_000 {
                    let h = rng.next_u64();
                    local.insert_hash(h);
                    direct.insert_hash(h);
                }
                atomic.merge_from(&local).unwrap();
            }
            assert_eq!(atomic.snapshot(), direct);
            // Mismatched config rejected.
            let other = ExaLogLog::new(EllConfig::aligned32(7).unwrap());
            assert!(atomic.merge_from(&other).is_err());
        }
    }

    #[test]
    fn from_sketch_round_trips_state() {
        let cfg = EllConfig::new(2, 28, 7).unwrap();
        let mut dense = ExaLogLog::new(cfg);
        let mut rng = SplitMix64::new(11);
        for _ in 0..30_000 {
            dense.insert_hash(rng.next_u64());
        }
        let atomic = AtomicExaLogLog::from_sketch(&dense);
        assert_eq!(atomic.snapshot(), dense);
    }

    #[test]
    fn estimate_accuracy_preserved() {
        let cfg = EllConfig::aligned32(10).unwrap();
        let atomic = Arc::new(AtomicExaLogLog::new(cfg));
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let atomic = Arc::clone(&atomic);
                s.spawn(move || {
                    let mut rng = SplitMix64::new(1000 + tid);
                    for _ in 0..50_000 {
                        atomic.insert_hash(rng.next_u64());
                    }
                });
            }
        });
        let est = atomic.estimate();
        assert!(
            (est / 200_000.0 - 1.0).abs() < 0.08,
            "concurrent estimate {est}"
        );
    }
}
