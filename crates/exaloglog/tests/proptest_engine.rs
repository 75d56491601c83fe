//! Property tests for the fast-path register engine: the incremental ML
//! coefficient cache, the word-level merge scan, and the width-specialized
//! register storage must all be *pure optimizations* — bit-identical
//! serialized state and bit-identical estimates versus the reference
//! paths (sequential inserts, per-register merges, the Algorithm 3 scan,
//! generic shifted-window storage) for arbitrary operation sequences.
//!
//! The per-config coverage here is complemented by the debug assertion
//! inside `ExaLogLog::estimate`/`coefficients`, which re-checks
//! cache-vs-scan equality on every estimate throughout the whole test
//! suite (including the registry-driven `tests/trait_laws.rs` laws).

use ell_hash::SplitMix64;
use exaloglog::atomic::AtomicExaLogLog;
use exaloglog::ml;
use exaloglog::{EllConfig, ExaLogLog};
use proptest::prelude::*;

fn hashes(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Every named configuration of the ELL family (the shapes the sketch
/// registry exposes) plus odd widths that exercise the generic storage
/// backend and the 64-bit extreme.
fn configs() -> Vec<EllConfig> {
    vec![
        EllConfig::hll(5).unwrap(),                // width 6, generic
        EllConfig::ehll(4).unwrap(),               // width 7, generic
        EllConfig::ull(6).unwrap(),                // width 8, u8 backend
        EllConfig::aligned16(5).unwrap(),          // width 16, u16 backend
        EllConfig::martingale_optimal(4).unwrap(), // width 24, u24 backend
        EllConfig::optimal(6).unwrap(),            // width 28, generic
        EllConfig::aligned32(4).unwrap(),          // width 32, u32 backend
        EllConfig::new(0, 7, 4).unwrap(),          // width 13, generic
        EllConfig::new(3, 13, 5).unwrap(),         // width 22, generic
        EllConfig::new(2, 56, 3).unwrap(),         // width 64, u64 backend
    ]
}

#[derive(Debug, Clone)]
enum Op {
    /// Batch-insert a pseudo-random stream.
    Insert { seed: u64, n: usize },
    /// Merge a freshly built sketch (word-level on the subject,
    /// per-register on the reference).
    Merge { seed: u64, n: usize },
    /// Reset to empty.
    Clear,
    /// Serialize and deserialize the subject in place.
    Roundtrip,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u64>(), 0usize..600).prop_map(|(seed, n)| Op::Insert { seed, n }),
        (any::<u64>(), 0usize..600).prop_map(|(seed, n)| Op::Merge { seed, n }),
        Just(Op::Clear),
        Just(Op::Roundtrip),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// After any sequence of batched inserts, word-level merges, clears
    /// and serialization round-trips, the incrementally maintained
    /// coefficients equal a fresh Algorithm 3 scan, the ML estimate is
    /// bit-identical to the scan-based one, and the serialized state
    /// equals a reference sketch driven through the sequential insert /
    /// per-register merge paths. An `AtomicExaLogLog` twin driven through
    /// the same operations estimates bit-identically to the sequential
    /// sketch.
    #[test]
    fn incremental_coefficients_match_scan(
        cfg_idx in 0usize..10,
        ops in prop::collection::vec(op_strategy(), 1..10)
    ) {
        let cfg = configs()[cfg_idx];
        let mut fast = ExaLogLog::new(cfg);
        let mut reference = ExaLogLog::new(cfg);
        let mut atomic = AtomicExaLogLog::new(cfg);
        for op in ops {
            match op {
                Op::Insert { seed, n } => {
                    let hs = hashes(seed, n);
                    fast.insert_hashes(&hs);
                    for &h in &hs {
                        reference.insert_hash(h);
                        atomic.insert_hash(h);
                    }
                }
                Op::Merge { seed, n } => {
                    let mut other = ExaLogLog::new(cfg);
                    other.insert_hashes(&hashes(seed, n));
                    fast.merge_from(&other).unwrap();
                    reference.merge_from_per_register(&other).unwrap();
                    atomic.merge_from(&other).unwrap();
                }
                Op::Clear => {
                    fast.clear();
                    reference.clear();
                    atomic = AtomicExaLogLog::new(cfg);
                }
                Op::Roundtrip => {
                    atomic = AtomicExaLogLog::from_sketch(
                        &ExaLogLog::from_bytes(&atomic.snapshot().to_bytes()).unwrap(),
                    );
                    fast = ExaLogLog::from_bytes(&fast.to_bytes()).unwrap();
                    // Deserialization rebuilds the cache eagerly: the
                    // restored sketch must estimate through the
                    // incremental path and still match the reference.
                    prop_assert!(fast.has_cached_coefficients());
                    prop_assert_eq!(fast.estimate().to_bits(), reference.estimate().to_bits());
                }
            }
            prop_assert!(fast.has_cached_coefficients());
            prop_assert_eq!(fast.coefficients(), fast.coefficients_scan());
            let scan_estimate =
                ml::ml_estimate_from_coefficients(&fast.coefficients_scan(), cfg.m() as f64);
            prop_assert_eq!(fast.estimate_ml_raw().to_bits(), scan_estimate.to_bits());
            prop_assert_eq!(fast.to_bytes(), reference.to_bytes());
            prop_assert_eq!(fast.estimate().to_bits(), reference.estimate().to_bits());
            prop_assert_eq!(atomic.estimate().to_bits(), fast.estimate().to_bits());
        }
    }

    /// The word-level merge must be bit-identical to both the
    /// per-register reference merge and direct recording of the combined
    /// stream, across all configurations (covering every storage backend
    /// and the straddling-register geometry of non-aligned widths).
    #[test]
    fn word_merge_equals_reference_merge(
        cfg_idx in 0usize..10,
        seed in any::<u64>(),
        na in 0usize..3000,
        nb in 0usize..3000,
    ) {
        let cfg = configs()[cfg_idx];
        let sa = hashes(seed, na);
        let sb = hashes(seed ^ 0x00C0_FFEE, nb);
        let mut a = ExaLogLog::new(cfg);
        let mut b = ExaLogLog::new(cfg);
        let mut direct = ExaLogLog::new(cfg);
        a.insert_hashes(&sa);
        b.insert_hashes(&sb);
        for &h in sa.iter().chain(sb.iter()) {
            direct.insert_hash(h);
        }
        let mut word_merged = a.clone();
        word_merged.merge_from(&b).unwrap();
        let mut per_register = a.clone();
        per_register.merge_from_per_register(&b).unwrap();
        prop_assert_eq!(word_merged.to_bytes(), per_register.to_bytes());
        prop_assert_eq!(word_merged.to_bytes(), direct.to_bytes());
        // Self-merge and empty-merge hit the all-equal / all-zero run
        // fast paths and must be no-ops.
        let mut self_merged = word_merged.clone();
        self_merged.merge_from(&word_merged.clone()).unwrap();
        prop_assert_eq!(&self_merged, &word_merged);
        self_merged.merge_from(&ExaLogLog::new(cfg)).unwrap();
        prop_assert_eq!(&self_merged, &word_merged);
        prop_assert_eq!(
            word_merged.estimate().to_bits(),
            per_register.estimate().to_bits()
        );
    }

    /// Pinning the register storage to the generic shifted-window path
    /// must not change a single bit of behavior: same insert results,
    /// same serialized state, same estimates.
    #[test]
    fn generic_storage_is_bit_identical(
        cfg_idx in 0usize..10,
        seed in any::<u64>(),
        n in 0usize..3000,
        nb in 0usize..1500,
    ) {
        let cfg = configs()[cfg_idx];
        let mut spec = ExaLogLog::new(cfg);
        let mut gen = ExaLogLog::new(cfg);
        gen.force_generic_storage();
        prop_assert_eq!(gen.storage_backend(), "generic");
        spec.insert_hashes(&hashes(seed, n));
        gen.insert_hashes(&hashes(seed, n));
        prop_assert_eq!(spec.to_bytes(), gen.to_bytes());
        let mut other = ExaLogLog::new(cfg);
        other.insert_hashes(&hashes(seed ^ 0xBEEF, nb));
        let mut other_gen = other.clone();
        other_gen.force_generic_storage();
        spec.merge_from(&other).unwrap();
        gen.merge_from(&other_gen).unwrap();
        prop_assert_eq!(spec.to_bytes(), gen.to_bytes());
        prop_assert_eq!(spec.estimate().to_bits(), gen.estimate().to_bits());
    }

    /// `extend_hashes` buffers through the unrolled batch path in 1024-hash
    /// blocks; it must stay bit-for-bit equivalent to sequential inserts,
    /// including around the block boundaries.
    #[test]
    fn extend_hashes_matches_sequential(
        cfg_idx in 0usize..10,
        seed in any::<u64>(),
        n in prop_oneof![0usize..64, 1000usize..1100, 2040usize..2060],
    ) {
        let cfg = configs()[cfg_idx];
        let hs = hashes(seed, n);
        let mut by_extend = ExaLogLog::new(cfg);
        by_extend.extend_hashes(hs.iter().copied());
        let mut by_loop = ExaLogLog::new(cfg);
        for &h in &hs {
            by_loop.insert_hash(h);
        }
        prop_assert_eq!(by_extend.to_bytes(), by_loop.to_bytes());
        prop_assert!(by_extend.has_cached_coefficients());
        prop_assert_eq!(by_extend.coefficients(), by_extend.coefficients_scan());
    }
}

/// A random register value satisfying `registers::is_valid`, biased
/// towards the edge cases of Algorithm 3: empty registers, saturated
/// registers at the maximum update value (φ capped at 64 − p), and
/// registers with u ≤ d, whose lowest update value clamps to k = 1.
fn valid_register(cfg: &EllConfig, rng: &mut SplitMix64) -> u64 {
    let d = u64::from(cfg.d());
    let max = cfg.max_update_value();
    let u = match rng.next_u64() % 4 {
        0 => 0,
        1 => max,
        2 => 1 + rng.next_u64() % d.clamp(1, max),
        _ => 1 + rng.next_u64() % max,
    };
    if u == 0 {
        return 0;
    }
    let indicators = rng.next_u64() & ell_bitpack::mask(cfg.d().into());
    if u > d {
        (u << d) | indicators
    } else {
        // Sentinel at bit d − u, random bits above it, none below.
        let sentinel = d - u;
        (u << d) | (1 << sentinel) | (indicators & !ell_bitpack::mask(sentinel as u32 + 1))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The column-count scan behind `compute_coefficients` equals the
    /// per-bit Algorithm 3 oracle (a fold of `add_register`) for every
    /// resolution t, every indicator width d the register width allows
    /// (d = 0 HLL registers through 64-bit registers), and precisions up
    /// to 16. (Larger p only lowers the φ cap further; p = 26 is checked
    /// by the `ml` unit test `column_scan_at_max_precision`.)
    #[test]
    fn column_scan_equals_per_bit_oracle(
        t in 0u8..=6,
        d_raw in 0u8..=58,
        p in 2u8..=16,
        seed in any::<u64>(),
        filled in 0usize..400,
    ) {
        let cfg = EllConfig::new(t, d_raw.min(58 - t), p).unwrap();
        let mut rng = SplitMix64::new(seed);
        let mut regs: Vec<u64> = (0..filled.min(cfg.m()))
            .map(|_| valid_register(&cfg, &mut rng))
            .collect();
        regs.resize(cfg.m(), 0);
        let mut oracle = ml::empty_coefficients(0);
        for &r in &regs {
            prop_assert!(exaloglog::registers::is_valid(&cfg, r), "invalid register {:#x}", r);
            ml::add_register(&mut oracle, &cfg, r);
        }
        prop_assert_eq!(ml::compute_coefficients(&cfg, regs.into_iter()), oracle);
    }

    /// The incremental transition `apply_register_change` equals the
    /// per-bit oracle: turning register `r`'s contribution into that of
    /// `r` joined with an insert or a register merge gives exactly
    /// `add_register` of the result, for every t, d and p.
    #[test]
    fn register_transition_equals_per_bit_oracle(
        t in 0u8..=6,
        d_raw in 0u8..=58,
        p in 2u8..=26,
        seed in any::<u64>(),
    ) {
        let cfg = EllConfig::new(t, d_raw.min(58 - t), p).unwrap();
        let d = cfg.d();
        let mut rng = SplitMix64::new(seed);
        for _ in 0..32 {
            let r = valid_register(&cfg, &mut rng);
            let next = if rng.next_u64().is_multiple_of(2) {
                exaloglog::registers::merge(r, valid_register(&cfg, &mut rng), d)
            } else {
                exaloglog::registers::update(r, 1 + rng.next_u64() % cfg.max_update_value(), d)
            };
            let mut want = ml::empty_coefficients(0);
            ml::add_register(&mut want, &cfg, next);
            let mut got = ml::empty_coefficients(0);
            ml::add_register(&mut got, &cfg, r);
            ml::apply_register_change(&mut got, &cfg, r, next);
            prop_assert_eq!(got, want, "{:#x} -> {:#x}", r, next);
        }
    }
}
