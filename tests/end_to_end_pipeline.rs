//! A full-pipeline integration test exercising every crate together:
//! hashing real byte keys → sparse collection → densification → merging
//! across shards → precision reduction → serialization → estimation,
//! with the baselines as cross-checks.

use ell_baselines::{HllEstimator, HyperLogLog};
use ell_hash::{Hasher64, Murmur3_128, WyHash, Xxh64};
use exaloglog::{AdaptiveExaLogLog, EllConfig, ExaLogLog, TokenSet};

#[test]
fn sharded_pipeline_end_to_end() {
    let hasher = WyHash::new(0);
    let cfg = EllConfig::optimal(10).unwrap();

    // Four shards, each starting sparse; shard universes overlap.
    let mut shards: Vec<AdaptiveExaLogLog> = (0..4)
        .map(|_| AdaptiveExaLogLog::new(cfg).unwrap())
        .collect();
    let per_shard = 30_000u64;
    let overlap = 10_000u64;
    for (i, shard) in shards.iter_mut().enumerate() {
        let start = i as u64 * (per_shard - overlap);
        for key in start..start + per_shard {
            shard.insert(&hasher, format!("item-{key}").as_bytes());
        }
    }
    let truth = 3 * (per_shard - overlap) + per_shard;

    // Merge shard 1..3 into shard 0 (auto-densified along the way).
    let (first, rest) = shards.split_at_mut(1);
    for other in rest.iter() {
        first[0].merge_from(other).unwrap();
    }
    let merged = first[0].to_dense();
    let est = merged.estimate();
    assert!(
        (est / truth as f64 - 1.0).abs() < 0.1,
        "union estimate {est} vs truth {truth}"
    );

    // Archive the merged sketch at lower precision and serialize it.
    let archived = merged.reduce(16, 8).unwrap();
    let bytes = archived.to_bytes();
    let restored = ExaLogLog::from_bytes(&bytes).unwrap();
    assert_eq!(restored, archived);
    let est_archived = restored.estimate();
    assert!(
        (est_archived / truth as f64 - 1.0).abs() < 0.15,
        "archived estimate {est_archived} vs truth {truth}"
    );
}

#[test]
fn different_hashers_give_statistically_equivalent_results() {
    // §5.1's premise: any good 64-bit hash behaves like a random oracle,
    // so estimates from different hashers agree within a few sigma.
    let cfg = EllConfig::optimal(10).unwrap();
    let n = 40_000u32;
    let mut estimates = Vec::new();
    let hashers: Vec<Box<dyn Hasher64>> = vec![
        Box::new(WyHash::new(0)),
        Box::new(Xxh64::new(0)),
        Box::new(Murmur3_128::new(0)),
    ];
    for hasher in &hashers {
        let mut s = ExaLogLog::new(cfg);
        for i in 0..n {
            s.insert_hash(hasher.hash_bytes(format!("key-{i}").as_bytes()));
        }
        estimates.push(s.estimate());
    }
    // σ ≈ 1.9 % at p = 10; all three estimates within ±6 %.
    for (i, est) in estimates.iter().enumerate() {
        assert!((est / f64::from(n) - 1.0).abs() < 0.06, "hasher {i}: {est}");
    }
}

#[test]
fn token_collection_feeds_any_compatible_sketch() {
    // Collect tokens once, then feed sketches of several configurations;
    // each must match its own direct recording exactly.
    let hasher = WyHash::new(3);
    let v = 16u32;
    let hashes: Vec<u64> = (0..20_000u32)
        .map(|i| hasher.hash_bytes(format!("e{i}").as_bytes()))
        .collect();
    let tokens = TokenSet::from_hashes(v, hashes.iter().copied()).unwrap();
    for (t, d, p) in [(0u8, 2u8, 12u8), (2, 20, 10), (1, 9, 14)] {
        let cfg = EllConfig::new(t, d, p).unwrap();
        let mut via_tokens = ExaLogLog::new(cfg);
        for h in tokens.hashes() {
            via_tokens.insert_hash(h);
        }
        let mut direct = ExaLogLog::new(cfg);
        for &h in &hashes {
            direct.insert_hash(h);
        }
        assert_eq!(via_tokens, direct, "t={t} d={d} p={p}");
    }
}

#[test]
fn trait_object_lineup_agrees_on_one_stream() {
    // Every algorithm behind the DistinctCounter trait sees the same
    // stream and must land within its own expected error band.
    let mut sketches = ell_baselines::table2_lineup();
    let hasher = Murmur3_128::new(0);
    let n = 50_000u32;
    for i in 0..n {
        let h = hasher.hash_bytes(format!("row-{i}").as_bytes());
        for s in &mut sketches {
            s.insert_hash(h);
        }
    }
    for s in &sketches {
        let rel = s.estimate() / f64::from(n) - 1.0;
        assert!(rel.abs() < 0.12, "{}: estimate off by {rel:+.3}", s.name());
    }
}

#[test]
fn ell_0_0_agrees_with_baseline_hll_estimates() {
    // ELL(0,0) and the standalone HLL consume hash bits in a different
    // order, so their registers differ — but both are HLL-family sketches
    // of the same stream and their ML estimates must agree statistically.
    let hasher = WyHash::new(5);
    let n = 60_000u32;
    let mut ell = ExaLogLog::new(EllConfig::hll(10).unwrap());
    let mut hll = HyperLogLog::new(10, 6, HllEstimator::MaximumLikelihood);
    for i in 0..n {
        let h = hasher.hash_bytes(format!("x{i}").as_bytes());
        ell.insert_hash(h);
        hll.insert_hash(h);
    }
    let e1 = ell.estimate_ml_raw();
    let e2 = hll.estimate();
    // Two ~2.6 %-σ estimates of the same n: difference within ~4σ·√2.
    assert!(
        (e1 / e2 - 1.0).abs() < 0.15,
        "ELL(0,0) {e1:.0} vs baseline HLL {e2:.0}"
    );
}
