//! Cross-implementation sparse-mode behaviour (§4.3): the ELL token
//! sketch, the bare token set, and the DataSketches-style coupon-list
//! HLL must all show the same qualitative trajectory — near-exact
//! estimates and linear memory while sparse, a transparent switch at
//! break-even, and estimation error that never jumps across the
//! transition.

use ell_baselines::{HllEstimator, SparseHyperLogLog};
use ell_hash::SplitMix64;
use exaloglog::{AdaptiveExaLogLog, EllConfig, ExaLogLog, TokenSet};

fn hashes(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

#[test]
fn all_sparse_modes_are_near_exact_below_break_even() {
    let stream = hashes(500, 1);
    let mut ell = AdaptiveExaLogLog::new(EllConfig::optimal(12).unwrap()).unwrap();
    let mut hll = SparseHyperLogLog::new(13, 6, HllEstimator::Improved);
    let mut tokens = TokenSet::new(26).unwrap();
    for &h in &stream {
        ell.insert_hash(h);
        hll.insert_hash(h);
        tokens.insert_hash(h);
    }
    assert!(ell.is_sparse());
    assert!(hll.is_sparse());
    for (name, est) in [
        ("sparse ELL", ell.estimate()),
        ("coupon HLL", hll.estimate()),
        ("token set", tokens.estimate()),
    ] {
        assert!(
            (est / 500.0 - 1.0).abs() < 0.01,
            "{name}: {est} not near-exact at n = 500"
        );
    }
}

#[test]
fn error_is_continuous_across_densification() {
    // Record the estimate right before and right after forcing the
    // upgrade: the jump must be far below the dense-mode RMSE.
    let stream = hashes(2_000, 2);
    // p = 10 breaks even at 896 tokens, so 800 inserts stay sparse.
    let mut ell = AdaptiveExaLogLog::new(EllConfig::optimal(10).unwrap()).unwrap();
    for &h in &stream[..800] {
        ell.insert_hash(h);
    }
    assert!(ell.is_sparse());
    let before = ell.estimate();
    ell.promote();
    let after = ell.estimate();
    assert!(
        (after / before - 1.0).abs() < 0.03,
        "estimate jumped across densification: {before} → {after}"
    );

    // p = 14 breaks even at 3072 coupons, so 2000 inserts stay sparse.
    let mut hll = SparseHyperLogLog::new(14, 6, HllEstimator::Improved);
    for &h in &stream {
        hll.insert_hash(h);
    }
    assert!(hll.is_sparse());
    let before = hll.estimate();
    hll.densify();
    let after = hll.estimate();
    assert!(
        (after / before - 1.0).abs() < 0.06,
        "coupon-HLL estimate jumped: {before} → {after}"
    );
}

#[test]
fn sparse_ell_merges_across_modes_like_dense() {
    let cfg = EllConfig::optimal(8).unwrap();
    let big = hashes(20_000, 3);
    let small = hashes(100, 4);
    let mut dense_side = AdaptiveExaLogLog::new(cfg).unwrap();
    for &h in &big {
        dense_side.insert_hash(h);
    }
    assert!(!dense_side.is_sparse());
    let mut sparse_side = AdaptiveExaLogLog::new(cfg).unwrap();
    for &h in &small {
        sparse_side.insert_hash(h);
    }
    assert!(sparse_side.is_sparse());
    dense_side.merge_from(&sparse_side).unwrap();
    // Equal to direct dense recording of the union.
    let mut direct = ExaLogLog::new(cfg);
    for &h in big.iter().chain(small.iter()) {
        direct.insert_hash(h);
    }
    assert_eq!(dense_side.to_dense(), direct);
}

#[test]
fn token_set_dominates_equivalent_dense_sketch() {
    // §4.3/§5.1: a token set carries the information of an ELL sketch
    // with p + t = v and d → ∞, so feeding the tokens into any
    // compatible dense sketch must reproduce direct recording exactly.
    let stream = hashes(5_000, 5);
    let mut tokens = TokenSet::new(26).unwrap();
    for &h in &stream {
        tokens.insert_hash(h);
    }
    for (t, d, p) in [(2u8, 20u8, 10u8), (1, 9, 8), (0, 2, 12)] {
        let cfg = EllConfig::new(t, d, p).unwrap();
        let mut from_tokens = ExaLogLog::new(cfg);
        for h in tokens.hashes() {
            from_tokens.insert_hash(h);
        }
        let mut direct = ExaLogLog::new(cfg);
        for &h in &stream {
            direct.insert_hash(h);
        }
        assert_eq!(from_tokens, direct, "({t},{d},{p})");
    }
}

#[test]
fn memory_trajectories_are_monotone_until_capped() {
    let stream = hashes(50_000, 6);
    let mut ell = AdaptiveExaLogLog::new(EllConfig::optimal(10).unwrap()).unwrap();
    let mut hll = SparseHyperLogLog::new(11, 6, HllEstimator::Improved);
    let mut prev_ell = 0usize;
    let mut prev_hll = 0usize;
    let mut max_ell = 0usize;
    let mut max_hll = 0usize;
    for (i, &h) in stream.iter().enumerate() {
        ell.insert_hash(h);
        hll.insert_hash(h);
        if i % 1000 == 999 {
            let (m_ell, m_hll) = (ell.memory_bytes(), hll.memory_bytes());
            // After both sketches are dense the footprint is constant.
            if !ell.is_sparse() && prev_ell > 0 && m_ell == prev_ell {
                max_ell = max_ell.max(m_ell);
            }
            if !hll.is_sparse() && prev_hll > 0 && m_hll == prev_hll {
                max_hll = max_hll.max(m_hll);
            }
            prev_ell = m_ell;
            prev_hll = m_hll;
        }
    }
    assert!(!ell.is_sparse() && !hll.is_sparse());
    assert_eq!(ell.memory_bytes(), max_ell, "dense ELL footprint drifted");
    assert_eq!(hll.memory_bytes(), max_hll, "dense HLL footprint drifted");
}
