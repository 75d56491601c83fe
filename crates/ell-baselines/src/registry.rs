//! Name-based sketch construction — the dynamic dispatch point behind
//! `ell count --algo <name>` and the bench harness.
//!
//! Every entry builds a fresh sketch behind the object-safe
//! [`Sketch`] facade, so consumers need no per-type
//! code at all: resolve a name, feed hashes, read the estimate.

use crate::hll::{HllEstimator, HyperLogLog};
use crate::hll4::HyperLogLog4;
use crate::hlll::HyperLogLogLog;
use crate::hyperminhash::HyperMinHash;
use crate::pcsa::Pcsa;
use crate::sparse_hll::SparseHyperLogLog;
use crate::spike::SpikeLike;
use crate::ull::Ull;
use crate::Ehll;
use ell_core::{Sketch, SketchError};
use exaloglog::atomic::AtomicExaLogLog;
use exaloglog::{
    AdaptiveExaLogLog, EllConfig, EllT1D9, EllT2D16, EllT2D20, EllT2D24, ExaLogLog,
    MartingaleExaLogLog,
};

/// All algorithm names [`build_sketch`] resolves, in display order.
pub const ALGORITHMS: &[&str] = &[
    "ell",
    "ell-martingale",
    "adaptive",
    "ell-atomic",
    "ell-t2d20",
    "ell-t2d24",
    "ell-t2d16",
    "ell-t1d9",
    "hll6",
    "hll8",
    "hll4",
    "hlll",
    "ehll",
    "ull",
    "pcsa",
    "hyperminhash",
    "sparse-hll",
    "spike",
];

/// Builds an empty sketch of the named algorithm with precision `p`
/// (2^p registers/buckets; for `spike`, 2^p buckets of 16 cells each,
/// clamped to the bucketed structure's supported 8..=2^20 range).
///
/// # Errors
///
/// [`SketchError::UnknownAlgorithm`] for unrecognized names and
/// [`SketchError::InvalidParameter`] when `p` is outside the algorithm's
/// supported range.
pub fn build_sketch(algo: &str, p: u8) -> Result<Box<dyn Sketch>, SketchError> {
    // The baseline constructors assert this range; turn it into an error
    // before reaching them.
    if !(2..=26).contains(&p) {
        return Err(SketchError::InvalidParameter {
            reason: format!("precision {p} outside 2..=26"),
        });
    }
    Ok(match algo {
        "ell" => Box::new(ExaLogLog::new(EllConfig::optimal(p)?)),
        "ell-martingale" => Box::new(MartingaleExaLogLog::new(EllConfig::martingale_optimal(p)?)),
        "adaptive" => Box::new(AdaptiveExaLogLog::new(EllConfig::optimal(p)?)?),
        "ell-atomic" => Box::new(AtomicExaLogLog::new(EllConfig::aligned32(p)?)),
        "ell-t2d20" => Box::new(EllT2D20::new(p)?),
        "ell-t2d24" => Box::new(EllT2D24::new(p)?),
        "ell-t2d16" => Box::new(EllT2D16::new(p)?),
        "ell-t1d9" => Box::new(EllT1D9::new(p)?),
        "hll6" => Box::new(HyperLogLog::new(p, 6, HllEstimator::Improved)),
        "hll8" => Box::new(HyperLogLog::new(p, 8, HllEstimator::Improved)),
        "hll4" => Box::new(HyperLogLog4::new(p)),
        "hlll" => Box::new(HyperLogLogLog::new(p)),
        "ehll" => Box::new(Ehll::new(p)),
        "ull" => Box::new(Ull::new(p)),
        "pcsa" => Box::new(Pcsa::new(p)),
        "hyperminhash" => Box::new(HyperMinHash::new(p, 2)),
        "sparse-hll" => Box::new(SparseHyperLogLog::new(p, 6, HllEstimator::Improved)),
        "spike" => Box::new(SpikeLike::new((1usize << p).clamp(8, 1 << 20))),
        other => {
            return Err(SketchError::UnknownAlgorithm {
                name: other.to_string(),
                known: ALGORITHMS.iter().map(ToString::to_string).collect(),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ell_hash::SplitMix64;

    #[test]
    fn every_registered_algorithm_counts() {
        let mut rng = SplitMix64::new(31);
        let hashes: Vec<u64> = (0..20_000).map(|_| rng.next_u64()).collect();
        for &algo in ALGORITHMS {
            let mut sketch = build_sketch(algo, 10).expect(algo);
            sketch.insert_hashes(&hashes);
            let est = sketch.estimate();
            let rel = est / 20_000.0 - 1.0;
            assert!(rel.abs() < 0.2, "{algo}: estimate {est} off by {rel:+.3}");
            assert!(!sketch.to_bytes().is_empty(), "{algo}");
        }
    }

    #[test]
    fn unknown_names_list_the_alternatives() {
        match build_sketch("hyperloglogplusplus", 10) {
            Err(SketchError::UnknownAlgorithm { name, known }) => {
                assert_eq!(name, "hyperloglogplusplus");
                assert_eq!(known.len(), ALGORITHMS.len());
            }
            Err(other) => panic!("expected UnknownAlgorithm, got {other:?}"),
            Ok(sketch) => panic!("expected UnknownAlgorithm, built {}", sketch.name()),
        }
    }

    #[test]
    fn bad_precision_is_an_error_not_a_panic() {
        for &algo in ALGORITHMS {
            assert!(build_sketch(algo, 1).is_err(), "{algo}");
            assert!(build_sketch(algo, 27).is_err(), "{algo}");
        }
    }

    #[test]
    fn every_in_range_precision_builds_or_errors_cleanly() {
        // No constructor assert may leak through as a panic anywhere in
        // the advertised 2..=26 range (spike's bucket cap, ELL minimums,
        // …) — build_sketch either returns a sketch or a SketchError.
        for &algo in ALGORITHMS {
            for p in 2..=26u8 {
                let result = std::panic::catch_unwind(|| build_sketch(algo, p).map(|_| ()));
                assert!(result.is_ok(), "{algo} at p={p} panicked");
            }
        }
    }
}
