//! Property-based tests of the core register and estimation invariants.

use ell_hash::SplitMix64;
use exaloglog::compress::{compress, decompress};
use exaloglog::ml::{log_likelihood, ml_estimate_from_coefficients, MlCoefficients};
use exaloglog::pmf::{omega, rho_update};
use exaloglog::registers;
use exaloglog::{EllConfig, ExaLogLog};
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = EllConfig> {
    (0u8..=4, 0u8..=30, 2u8..=10).prop_map(|(t, d, p)| EllConfig::new(t, d, p).expect("in range"))
}

/// The `(t, d)` register layouts the compressed-format shapes cover:
/// HyperLogLog, the martingale-optimal and aligned layouts and the
/// space-optimal ELL(2, 20).
const CODED: [(u8, u8); 5] = [(0, 0), (1, 9), (2, 16), (2, 20), (2, 24)];

/// A sketch of `cfg` in one of five shapes: `n` random hashes; a merge
/// of sketches whose counts differ 10⁴-fold; the same large count
/// confined to half the registers, so no single n̂ fits the state; one
/// nonzero register; every register at the largest update value `kmax`
/// with random indicator bits.
fn shaped_sketch(cfg: EllConfig, shape: u8, n: u64, seed: u64) -> ExaLogLog {
    let mut rng = SplitMix64::new(seed);
    let mut s = ExaLogLog::new(cfg);
    let kmax = cfg.max_update_value();
    let small = n % 50 + 1;
    match shape {
        0 => (0..n).for_each(|_| {
            s.insert_hash(rng.next_u64());
        }),
        1 | 2 => {
            (0..small).for_each(|_| {
                s.insert_hash(rng.next_u64());
            });
            let mut big = ExaLogLog::new(cfg);
            for _ in 0..small * 10_000 {
                let h = rng.next_u64();
                if shape == 1 || big.decompose_hash(h).0 < cfg.m() / 2 {
                    big.insert_hash(h);
                }
            }
            s.merge_from(&big).unwrap();
        }
        3 => {
            let i = (n as usize) % cfg.m();
            for _ in 0..3 {
                s.apply_update(i, 1 + rng.next_u64() % kmax);
            }
        }
        _ => {
            for i in 0..cfg.m() {
                s.apply_update(i, kmax);
                for k in kmax.saturating_sub(u64::from(cfg.d())).max(1)..kmax {
                    if rng.next_u64() & 1 == 1 {
                        s.apply_update(i, k);
                    }
                }
            }
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Register update is monotone (values only grow), idempotent, and
    /// keeps the state valid.
    #[test]
    fn register_update_laws(
        cfg in config_strategy(),
        ks in prop::collection::vec(1u64..200, 1..40),
    ) {
        let kmax = cfg.max_update_value();
        let d = cfg.d();
        let mut r = 0u64;
        for &k in &ks {
            let k = (k - 1) % kmax + 1;
            let r2 = registers::update(r, k, d);
            prop_assert!(r2 >= r, "register value regressed");
            prop_assert!(registers::is_valid(&cfg, r2), "invalid state {r2:#x}");
            prop_assert_eq!(registers::update(r2, k, d), r2, "not idempotent");
            r = r2;
        }
        prop_assert!(r >> d <= kmax);
    }

    /// Merge is the least upper bound: merge(a,b) dominates both inputs
    /// and equals the union-recorded register (semilattice law).
    #[test]
    fn register_merge_is_lub(
        cfg in config_strategy(),
        ka in prop::collection::vec(1u64..200, 0..20),
        kb in prop::collection::vec(1u64..200, 0..20),
    ) {
        let kmax = cfg.max_update_value();
        let d = cfg.d();
        let norm = |k: u64| (k - 1) % kmax + 1;
        let ra = ka.iter().fold(0u64, |r, &k| registers::update(r, norm(k), d));
        let rb = kb.iter().fold(0u64, |r, &k| registers::update(r, norm(k), d));
        let merged = registers::merge(ra, rb, d);
        let union = ka.iter().chain(kb.iter())
            .fold(0u64, |r, &k| registers::update(r, norm(k), d));
        prop_assert_eq!(merged, union);
        // Dominance: merging back changes nothing.
        prop_assert_eq!(registers::merge(merged, ra, d), merged);
        prop_assert_eq!(registers::merge(merged, rb, d), merged);
        prop_assert!(registers::is_valid(&cfg, merged));
    }

    /// h(r) (the martingale change probability) is the exact sum of the
    /// unseen update-value probabilities that could still change r.
    #[test]
    fn change_probability_is_unseen_mass(
        cfg in config_strategy(),
        ks in prop::collection::vec(1u64..200, 0..15),
    ) {
        let kmax = cfg.max_update_value();
        let d = cfg.d();
        let norm = |k: u64| (k - 1) % kmax + 1;
        let r = ks.iter().fold(0u64, |r, &k| registers::update(r, norm(k), d));
        let h = registers::change_probability(&cfg, r);
        // Brute force: sum ρ(k) over every k whose insertion would change r.
        let mut brute = 0.0;
        for k in 1..=kmax {
            if registers::update(r, k, d) != r {
                brute += rho_update(&cfg, k);
            }
        }
        brute /= cfg.m() as f64;
        prop_assert!((h - brute).abs() < 1e-12, "h = {h}, brute = {brute}");
    }

    /// ω(u) equals the brute-force tail sum for every u.
    #[test]
    fn omega_matches_brute_force(cfg in config_strategy()) {
        let kmax = cfg.max_update_value();
        let mut tail = 0.0;
        for u in (0..kmax).rev() {
            tail += rho_update(&cfg, u + 1);
            let got = omega(&cfg, u);
            prop_assert!((got - tail).abs() <= 1e-12 * tail.max(1e-300), "u={u}");
        }
    }

    /// The Newton solver lands on the likelihood maximizer for arbitrary
    /// well-formed coefficients.
    #[test]
    fn newton_finds_the_maximizer(
        alpha_frac in 0.01f64..0.99,
        levels in prop::collection::btree_map(1usize..50, 1u64..200, 1..6),
        m_log in 2u32..12,
    ) {
        let m = f64::from(1u32 << m_log);
        let mut beta = [0u64; 65];
        for (&u, &b) in &levels {
            beta[u] = b;
        }
        let coeffs = MlCoefficients {
            alpha_times_2_64: (alpha_frac * m * 2f64.powi(64)) as u128,
            beta,
        };
        let n_hat = ml_estimate_from_coefficients(&coeffs, m);
        prop_assert!(n_hat.is_finite() && n_hat > 0.0);
        let ll = log_likelihood(&coeffs, m, n_hat);
        for factor in [0.9, 0.99, 1.01, 1.1] {
            let other = log_likelihood(&coeffs, m, n_hat * factor);
            prop_assert!(
                other <= ll + 1e-7 * ll.abs(),
                "LL({}) = {other} > LL(n̂ = {n_hat}) = {ll}",
                n_hat * factor
            );
        }
    }

    /// Entropy-coded serialization round-trips losslessly for arbitrary
    /// configurations and fill levels (this also hammers the arithmetic
    /// coder's carry handling with adversarial bit patterns).
    #[test]
    fn compressed_roundtrip(
        cfg in config_strategy(),
        hashes in prop::collection::vec(any::<u64>(), 0..400),
    ) {
        let mut s = ExaLogLog::new(cfg);
        for &h in &hashes {
            s.insert_hash(h);
        }
        let packed = exaloglog::compress::compress(&s);
        let restored = exaloglog::compress::decompress(&packed).unwrap();
        prop_assert_eq!(restored, s);
    }

    /// Every register shape round-trips bit-identically through `ELLR`,
    /// including states the coder's model does not expect, restores its
    /// exact ML coefficients, and re-compresses to the same bytes.
    #[test]
    fn compressed_shapes_round_trip_bit_identically(
        layout in 0usize..CODED.len(),
        p in 4u8..=14,
        shape in 0u8..5,
        n in 0u64..20_000,
        seed in any::<u64>(),
    ) {
        let (t, d) = CODED[layout];
        let cfg = EllConfig::new(t, d, p).unwrap();
        let s = shaped_sketch(cfg, shape, n, seed);
        let packed = compress(&s);
        prop_assert_eq!(&packed[..4], b"ELLR");
        let restored = decompress(&packed).unwrap();
        prop_assert_eq!(&restored, &s);
        prop_assert_eq!(restored.coefficients(), s.coefficients_scan());
        prop_assert_eq!(compress(&restored), packed);
    }

    /// Sketch-level: the estimate is invariant under serialization and
    /// the state-change probability never increases with insertions.
    #[test]
    fn sketch_invariants(
        cfg in config_strategy(),
        hashes in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let mut s = ExaLogLog::new(cfg);
        let mut mu_prev = s.state_change_probability();
        for &h in &hashes {
            let changed = s.insert_hash(h);
            let mu = s.state_change_probability();
            if changed {
                prop_assert!(mu < mu_prev + 1e-12, "μ must decrease on change");
            } else {
                prop_assert!((mu - mu_prev).abs() < 1e-12, "μ must not move on no-op");
            }
            mu_prev = mu;
        }
        let restored = ExaLogLog::from_bytes(&s.to_bytes()).unwrap();
        prop_assert_eq!(restored.estimate().to_bits(), s.estimate().to_bits());
    }
}
