//! Differential tests for the merge scan kernels: `merge_from` under
//! both kernels must produce a serialized sketch bit-identical to the
//! reference `merge_from_per_register` path, across register widths from
//! 6 to 64 bits (aligned and straddling) and adversarial shapes — empty
//! sketches, identical sketches, disjoint and overlapping streams,
//! self-merges. A separate test runs the production `merge_from` entry
//! point, which always uses the SWAR kernel.

use ell_hash::SplitMix64;
use exaloglog::kernels::{self, Kernel};
use exaloglog::{EllConfig, ExaLogLog};
use proptest::prelude::*;

fn hashes(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Configurations covering every storage backend: lane-extraction widths
/// (8, 16, 32, 64), straddling widths (6, 7, 13, 22, 28), and the u24
/// byte-aligned width.
fn configs() -> Vec<EllConfig> {
    vec![
        EllConfig::hll(5).unwrap(),                // width 6
        EllConfig::ehll(4).unwrap(),               // width 7
        EllConfig::ull(6).unwrap(),                // width 8
        EllConfig::aligned16(5).unwrap(),          // width 16
        EllConfig::martingale_optimal(4).unwrap(), // width 24
        EllConfig::optimal(6).unwrap(),            // width 28
        EllConfig::aligned32(4).unwrap(),          // width 32
        EllConfig::new(0, 7, 4).unwrap(),          // width 13
        EllConfig::new(2, 56, 3).unwrap(),         // width 64
    ]
}

fn sketch_of(cfg: EllConfig, seed: u64, n: usize) -> ExaLogLog {
    let mut s = ExaLogLog::new(cfg);
    s.insert_hashes(&hashes(seed, n));
    s
}

/// Merges `other` into a clone of `base` under `kernel` and checks it
/// against the per-register reference, bit for bit.
fn assert_merge_identical(base: &ExaLogLog, other: &ExaLogLog, kernel: Kernel) {
    let mut fast = base.clone();
    fast.merge_from_with_kernel(other, kernel).unwrap();
    let mut reference = base.clone();
    reference.merge_from_per_register(other).unwrap();
    assert_eq!(
        fast.to_bytes(),
        reference.to_bytes(),
        "kernel {} diverged from per-register merge",
        kernel.name()
    );
    assert_eq!(fast.estimate().to_bits(), reference.estimate().to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random overlapping streams: every kernel's word merge equals the
    /// per-register reference on every configuration.
    #[test]
    fn merge_matches_reference_under_all_kernels(
        cfg_idx in 0usize..9,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        n_a in 0usize..900,
        n_b in 0usize..900,
        shared in 0usize..300
    ) {
        let cfg = configs()[cfg_idx];
        let mut a = sketch_of(cfg, seed_a, n_a);
        let mut b = sketch_of(cfg, seed_b, n_b);
        // Shared suffix so overlap (equal-word runs) actually occurs.
        let common = hashes(seed_a ^ 0x9e37_79b9, shared);
        a.insert_hashes(&common);
        b.insert_hashes(&common);
        for kernel in kernels::available() {
            assert_merge_identical(&a, &b, kernel);
            assert_merge_identical(&b, &a, kernel);
        }
    }
}

/// Deterministic adversarial shapes for every config and kernel.
#[test]
fn adversarial_merge_shapes() {
    for cfg in configs() {
        let empty = ExaLogLog::new(cfg);
        let dense = sketch_of(cfg, 7, 4000);
        let sparse = sketch_of(cfg, 11, 24);
        let twin = dense.clone();
        for kernel in kernels::available() {
            // empty ← X, X ← empty, X ← X (all-equal words), dense ← sparse
            // (zero-incoming runs), sparse ← dense, and near-identical
            // sketches differing in a handful of words.
            for (base, other) in [
                (&empty, &dense),
                (&dense, &empty),
                (&dense, &twin),
                (&dense, &sparse),
                (&sparse, &dense),
                (&empty, &empty),
            ] {
                assert_merge_identical(base, other, kernel);
            }
            let mut nearly = dense.clone();
            nearly.insert_hashes(&hashes(13, 12));
            assert_merge_identical(&dense, &nearly, kernel);
            assert_merge_identical(&nearly, &dense, kernel);
        }
    }
}

/// `merge_from` (the production entry point) runs the SWAR kernel and
/// matches the reference.
#[test]
fn active_kernel_merge_matches_reference() {
    assert_eq!(kernels::active(), Kernel::Swar);
    for cfg in configs() {
        let dense = sketch_of(cfg, 3, 3000);
        let other = sketch_of(cfg, 5, 500);
        let mut fast = dense.clone();
        fast.merge_from(&other).unwrap();
        let mut reference = dense.clone();
        reference.merge_from_per_register(&other).unwrap();
        assert_eq!(fast.to_bytes(), reference.to_bytes());
    }
}
