//! Promotion-equivalence properties of [`AdaptiveExaLogLog`] (§4.3).
//!
//! The adaptive lifecycle is only sound if promotion is *invisible*:
//! a sketch that auto-promoted must be estimate- and state-equivalent
//! to a dense [`ExaLogLog`] fed the same hashes, and merges must give
//! the same result whichever side happens to be sparse or dense.

use exaloglog::{AdaptiveExaLogLog, EllConfig, ExaLogLog};
use proptest::prelude::*;

fn hash_stream(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = ell_hash::SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After auto-promotion the adaptive sketch is bit-for-bit the dense
    /// sketch direct recording would have produced, and the estimates
    /// agree exactly. Streams are sized to comfortably cross break-even
    /// at small p; below break-even, promote() forces the same check.
    #[test]
    fn promotion_is_state_and_estimate_equivalent(
        seed in any::<u64>(),
        n in 0usize..12_000,
        p in 4u8..9,
        chunk in 1usize..2000,
    ) {
        let hashes = hash_stream(seed, n);
        let mut adaptive = AdaptiveExaLogLog::new(EllConfig::optimal(p).unwrap()).unwrap();
        for block in hashes.chunks(chunk) {
            adaptive.insert_hashes(block);
        }
        let mut dense = ExaLogLog::new(EllConfig::optimal(p).unwrap());
        dense.insert_hashes(&hashes);
        if !adaptive.is_sparse() {
            prop_assert_eq!(
                adaptive.to_bytes(),
                dense.to_bytes(),
                "auto-promoted state diverged from direct dense recording"
            );
            prop_assert_eq!(adaptive.estimate(), dense.estimate());
        } else {
            // Token ML below break-even is near-exact but a different
            // estimator; the *promoted* state must still match exactly.
            adaptive.promote();
            prop_assert_eq!(adaptive.to_bytes(), dense.to_bytes());
            prop_assert_eq!(adaptive.estimate(), dense.estimate());
        }
    }

    /// Mixed sparse/dense merges commute: merging a sparse sketch into a
    /// dense one produces the same serialized state as the opposite
    /// order, and both equal direct dense recording of the union.
    #[test]
    fn mixed_phase_merges_commute(
        seed in any::<u64>(),
        n_small in 0usize..300,
        n_big in 6000usize..20_000,
        p in 4u8..8,
    ) {
        let cfg = EllConfig::optimal(p).unwrap();
        let small = hash_stream(seed, n_small);
        let big = hash_stream(seed ^ 0x9E3779B97F4A7C15, n_big);
        let build = |hs: &[u64]| {
            let mut s = AdaptiveExaLogLog::new(cfg).unwrap();
            s.insert_hashes(hs);
            s
        };
        let a = build(&small);
        let b = build(&big);
        prop_assert!(!b.is_sparse(), "big side must be past break-even");

        let mut ab = build(&small);
        ab.merge_from(&b).unwrap();
        let mut ba = build(&big);
        ba.merge_from(&a).unwrap();
        prop_assert_eq!(ab.to_bytes(), ba.to_bytes(), "mixed merge not commutative");

        let mut direct = ExaLogLog::new(cfg);
        direct.insert_hashes(&small);
        direct.insert_hashes(&big);
        prop_assert_eq!(ab.to_bytes(), direct.to_bytes(), "merge diverged from direct union");
    }

    /// Sparse-sparse merges that cross break-even promote exactly like
    /// sequential insertion of the concatenated streams.
    #[test]
    fn sparse_merge_promotes_at_break_even(
        seed in any::<u64>(),
        na in 0usize..4000,
        nb in 0usize..4000,
        p in 4u8..8,
    ) {
        let cfg = EllConfig::optimal(p).unwrap();
        let ha = hash_stream(seed, na);
        let hb = hash_stream(seed ^ 0xD1B54A32D192ED03, nb);
        let build = |hs: &[u64]| {
            let mut s = AdaptiveExaLogLog::new(cfg).unwrap();
            s.insert_hashes(hs);
            s
        };
        let mut merged = build(&ha);
        merged.merge_from(&build(&hb)).unwrap();
        if !merged.is_sparse() {
            // Promotion decision and promoted state are those of the
            // union token set: equal to dense recording of the union.
            let mut direct = ExaLogLog::new(cfg);
            direct.insert_hashes(&ha);
            direct.insert_hashes(&hb);
            prop_assert_eq!(merged.to_bytes(), direct.to_bytes());
        } else {
            // Still sparse: estimate is near-exact on the union.
            let exact: std::collections::HashSet<u64> =
                ha.iter().chain(hb.iter()).copied().collect();
            let est = merged.estimate();
            let n = exact.len() as f64;
            prop_assert!(
                n == 0.0 || (est / n - 1.0).abs() < 0.05,
                "sparse union estimate {} vs exact {}", est, n
            );
        }
    }

    /// Batched inserts are exactly one-by-one inserts, in serialized
    /// state and in estimate bits, for random batch splits of a stream
    /// that straddles break-even (0.875·2^p tokens for these
    /// configurations): the sparse batch path sorts and merges whole
    /// batches and checks break-even once per batch. Each hash repeats
    /// about three times, so batches meet tokens that earlier batches
    /// inserted, on both sides of break-even.
    #[test]
    fn batched_inserts_equal_one_by_one_across_break_even(
        seed in any::<u64>(),
        p in 4u8..8,
        distinct_permille in 1usize..2000,
        splits in proptest::collection::vec(1usize..80, 1..12),
    ) {
        let cfg = EllConfig::optimal(p).unwrap();
        let pool = hash_stream(seed, ((1usize << p) * distinct_permille / 1000).max(1));
        let mut rng = ell_hash::SplitMix64::new(seed ^ 0x5851_F42D_4C95_7F2D);
        let hashes: Vec<u64> = (0..3 * pool.len())
            .map(|_| pool[(rng.next_u64() % pool.len() as u64) as usize])
            .collect();
        let mut one_adaptive = AdaptiveExaLogLog::new(cfg).unwrap();
        for &h in &hashes {
            one_adaptive.insert_hash(h);
        }
        let mut batched_adaptive = AdaptiveExaLogLog::new(cfg).unwrap();
        let mut rest = hashes.as_slice();
        for &len in splits.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (batch, tail) = rest.split_at(len.min(rest.len()));
            batched_adaptive.insert_hashes(batch);
            rest = tail;
        }
        prop_assert_eq!(batched_adaptive.to_bytes(), one_adaptive.to_bytes());
        prop_assert_eq!(batched_adaptive.estimate().to_bits(), one_adaptive.estimate().to_bits());
    }
}
