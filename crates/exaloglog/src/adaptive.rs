//! Adaptive sparse→dense sketch lifecycle (paper §4.3).
//!
//! [`AdaptiveExaLogLog`] is the representation the serving layer
//! (`ell-store`) keys millions of counters on: it starts as a sparse
//! token list whose memory grows linearly with the number of distinct
//! elements, and **promotes itself** to the dense register array the
//! moment the token storage would cost as many bits as the registers —
//! the break-even rule of §4.3 that makes per-key sketches memory-viable
//! at fleet scale. Unlike [`SparseExaLogLog`] (which keeps its wrapper
//! struct forever), the adaptive sketch *unwraps* into a plain
//! [`ExaLogLog`] at promotion, so a promoted counter carries zero
//! residual sparse-mode state and serializes in the plain dense wire
//! format.
//!
//! Wire formats: the sparse phase serializes as `ELLS` (the
//! sparse-capable format wrapping the `ELLT` token payload); the
//! promoted phase serializes as the dense `ELL1` register format —
//! byte-identical to an [`ExaLogLog`] fed the same hashes.
//! [`AdaptiveExaLogLog::from_bytes`] auto-detects either magic.
//!
//! ```
//! use exaloglog::{AdaptiveExaLogLog, EllConfig};
//! use ell_hash::SplitMix64;
//!
//! let mut sketch = AdaptiveExaLogLog::new(EllConfig::optimal(8).unwrap()).unwrap();
//! let mut rng = SplitMix64::new(1);
//! sketch.insert_hash(rng.next_u64());
//! assert!(sketch.is_sparse()); // a handful of tokens: tiny footprint
//! for _ in 0..20_000 {
//!     sketch.insert_hash(rng.next_u64());
//! }
//! assert!(!sketch.is_sparse()); // auto-promoted at break-even
//! assert!((sketch.estimate() / 20_001.0 - 1.0).abs() < 0.1);
//! ```

use crate::atomic::AtomicExaLogLog;
use crate::config::{EllConfig, EllError};
use crate::sketch::ExaLogLog;
use crate::sparse::SparseExaLogLog;
use ell_hash::Hasher64;

/// Serialization magic of the sparse-capable format (shared with
/// [`SparseExaLogLog`]); the dense phase uses the plain `ELL1` format.
const SPARSE_MAGIC: &[u8; 4] = b"ELLS";

/// An ExaLogLog sketch that automatically promotes from the sparse token
/// representation to dense registers at the §4.3 break-even point.
///
/// The two variants are the two lifecycle phases. All methods keep the
/// invariant that a sketch past break-even is in the [`Dense`] variant;
/// if you construct the [`Sparse`] variant directly with an
/// already-densified [`SparseExaLogLog`], the next mutating call
/// normalizes it (serialization always emits the canonical form).
///
/// [`Dense`]: AdaptiveExaLogLog::Dense
/// [`Sparse`]: AdaptiveExaLogLog::Sparse
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptiveExaLogLog {
    /// Token-collecting phase: memory grows linearly with the distinct
    /// count, estimates are near-exact (token ML, Algorithm 7).
    Sparse(SparseExaLogLog),
    /// Promoted phase: the plain dense register sketch, bit-for-bit the
    /// state direct dense recording of the same hashes would have
    /// produced (token losslessness for `p + t ≤ v`).
    Dense(ExaLogLog),
}

impl AdaptiveExaLogLog {
    /// Creates an adaptive sketch in the sparse phase with the default
    /// token parameter `v = max(p + t, 26)` (32-bit tokens whenever they
    /// suffice).
    ///
    /// # Errors
    ///
    /// Propagates invalid-parameter errors from the token machinery.
    pub fn new(cfg: EllConfig) -> Result<Self, EllError> {
        Ok(AdaptiveExaLogLog::Sparse(SparseExaLogLog::new(cfg)?))
    }

    /// Creates an adaptive sketch with an explicit token parameter
    /// (`p + t ≤ v ≤ 58`).
    ///
    /// # Errors
    ///
    /// Rejects `v` outside the valid range for the configuration.
    pub fn with_token_parameter(cfg: EllConfig, v: u32) -> Result<Self, EllError> {
        Ok(AdaptiveExaLogLog::Sparse(
            SparseExaLogLog::with_token_parameter(cfg, v)?,
        ))
    }

    /// Wraps an existing dense sketch (already past its sparse life).
    #[must_use]
    pub fn from_dense(sketch: ExaLogLog) -> Self {
        AdaptiveExaLogLog::Dense(sketch)
    }

    /// The dense-mode configuration.
    #[must_use]
    pub fn config(&self) -> &EllConfig {
        match self {
            AdaptiveExaLogLog::Sparse(s) => s.config(),
            AdaptiveExaLogLog::Dense(d) => d.config(),
        }
    }

    /// Whether the sketch is still in the sparse (token) phase.
    #[must_use]
    pub fn is_sparse(&self) -> bool {
        match self {
            AdaptiveExaLogLog::Sparse(s) => s.is_sparse(),
            AdaptiveExaLogLog::Dense(_) => false,
        }
    }

    /// The token parameter `v` while sparse; `None` once promoted (the
    /// dense representation no longer depends on it).
    #[must_use]
    pub fn token_parameter(&self) -> Option<u32> {
        match self {
            AdaptiveExaLogLog::Sparse(s) if s.is_sparse() => Some(s.token_parameter()),
            _ => None,
        }
    }

    /// Re-establishes the phase invariant: a [`SparseExaLogLog`] that
    /// densified internally is unwrapped into the [`Dense`] variant.
    ///
    /// [`Dense`]: AdaptiveExaLogLog::Dense
    fn normalize(&mut self) {
        if let AdaptiveExaLogLog::Sparse(s) = self {
            if !s.is_sparse() {
                let placeholder =
                    SparseExaLogLog::with_token_parameter(*s.config(), s.token_parameter())
                        .expect("parameters of an existing sketch are valid");
                let dense = core::mem::replace(s, placeholder).into_dense();
                *self = AdaptiveExaLogLog::Dense(dense);
            }
        }
    }

    /// Forces promotion to the dense representation (a no-op when
    /// already promoted). The resulting state equals direct dense
    /// recording of the same hashes.
    pub fn promote(&mut self) {
        if let AdaptiveExaLogLog::Sparse(s) = self {
            s.densify();
        }
        self.normalize();
    }

    /// Inserts an element by its 64-bit hash, promoting at the
    /// break-even point. Returns whether the state changed.
    pub fn insert_hash(&mut self, hash: u64) -> bool {
        let changed = match self {
            AdaptiveExaLogLog::Sparse(s) => s.insert_hash(hash),
            AdaptiveExaLogLog::Dense(d) => d.insert_hash(hash),
        };
        self.normalize();
        changed
    }

    /// Hashes `element` with `hasher` and inserts it.
    pub fn insert<H: Hasher64 + ?Sized>(&mut self, hasher: &H, element: &[u8]) -> bool {
        self.insert_hash(hasher.hash_bytes(element))
    }

    /// Inserts a whole slice of pre-hashed elements, bit-for-bit
    /// equivalent to sequential [`AdaptiveExaLogLog::insert_hash`] calls
    /// in order (the batch may straddle the promotion point).
    pub fn insert_hashes(&mut self, hashes: &[u64]) {
        match self {
            AdaptiveExaLogLog::Sparse(s) => s.insert_hashes(hashes),
            AdaptiveExaLogLog::Dense(d) => d.insert_hashes(hashes),
        }
        self.normalize();
    }

    /// Whether the sketch has recorded no element at all (in either
    /// phase — a promoted sketch is empty when every register is zero).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match self {
            AdaptiveExaLogLog::Sparse(s) => s.is_empty(),
            AdaptiveExaLogLog::Dense(d) => d.is_empty(),
        }
    }

    /// The ML distinct-count estimate (token ML while sparse, register
    /// ML with bias correction once promoted).
    #[must_use]
    pub fn estimate(&self) -> f64 {
        match self {
            AdaptiveExaLogLog::Sparse(s) => s.estimate(),
            AdaptiveExaLogLog::Dense(d) => d.estimate(),
        }
    }

    /// The promoted register sketch, or `None` while still sparse.
    #[must_use]
    pub fn as_dense(&self) -> Option<&ExaLogLog> {
        match self {
            AdaptiveExaLogLog::Dense(d) => Some(d),
            AdaptiveExaLogLog::Sparse(_) => None,
        }
    }

    /// A dense copy of the current state (converting the token list if
    /// still sparse), leaving `self` untouched.
    #[must_use]
    pub fn to_dense(&self) -> ExaLogLog {
        match self {
            AdaptiveExaLogLog::Sparse(s) => s.clone().into_dense(),
            AdaptiveExaLogLog::Dense(d) => d.clone(),
        }
    }

    /// Rebuilds the dense phase's cached ML coefficients with one
    /// Algorithm 3 scan (see [`ExaLogLog::refresh_coefficients`]), making
    /// repeated estimates O(populated β levels) on a freshly deserialized
    /// sketch. No-op while sparse (token estimation has no register
    /// cache).
    pub fn refresh_coefficients(&mut self) {
        if let AdaptiveExaLogLog::Dense(d) = self {
            d.refresh_coefficients();
        }
    }

    /// Folds this sketch into a dense accumulator of the same
    /// configuration without materializing a dense copy (see
    /// [`SparseExaLogLog::merge_into_dense`]) — the allocation-free
    /// aggregation path for union queries over many keyed sketches.
    ///
    /// # Errors
    ///
    /// Fails when configurations differ.
    pub fn merge_into_dense(&self, acc: &mut ExaLogLog) -> Result<(), EllError> {
        match self {
            AdaptiveExaLogLog::Sparse(s) => s.merge_into_dense(acc),
            AdaptiveExaLogLog::Dense(d) => acc.merge_from(d),
        }
    }

    /// Folds this sketch into a lock-free atomic accumulator of the same
    /// configuration (see [`SparseExaLogLog::merge_into_atomic`]) — the
    /// flush path for thread-local delta sketches draining into a shared
    /// hot slot. Monotone register merge makes the result bit-identical
    /// to inserting the buffered hashes directly, regardless of flush
    /// timing or interleaving.
    ///
    /// # Errors
    ///
    /// Fails when configurations differ.
    pub fn merge_into_atomic(&self, acc: &AtomicExaLogLog) -> Result<(), EllError> {
        match self {
            AdaptiveExaLogLog::Sparse(s) => s.merge_into_atomic(acc),
            AdaptiveExaLogLog::Dense(d) => acc.merge_from(d),
        }
    }

    /// Merges another adaptive sketch with the same configuration.
    /// All four phase combinations are supported; the result equals
    /// direct recording of the union (a sparse self promotes when the
    /// other side is dense or when the merged token list crosses
    /// break-even).
    ///
    /// # Errors
    ///
    /// Fails when configurations differ, or when both sides are sparse
    /// with different token parameters.
    pub fn merge_from(&mut self, other: &AdaptiveExaLogLog) -> Result<(), EllError> {
        if self.config() != other.config() {
            return Err(EllError::IncompatibleSketches {
                reason: format!("{} vs {}", self.config(), other.config()),
            });
        }
        self.normalize();
        match (&mut *self, other) {
            (AdaptiveExaLogLog::Sparse(a), AdaptiveExaLogLog::Sparse(b)) if b.is_sparse() => {
                a.merge_from(b)?;
            }
            (AdaptiveExaLogLog::Dense(a), AdaptiveExaLogLog::Dense(b)) => {
                a.merge_from(b)?;
            }
            (AdaptiveExaLogLog::Dense(a), AdaptiveExaLogLog::Sparse(b)) => {
                a.merge_from(&b.clone().into_dense())?;
            }
            (AdaptiveExaLogLog::Sparse(_), _) => {
                // Other side is dense (whichever variant holds it):
                // promote, then register-wise merge.
                self.promote();
                let AdaptiveExaLogLog::Dense(a) = &mut *self else {
                    unreachable!("promote always produces the dense variant")
                };
                a.merge_from(&other.to_dense())?;
            }
        }
        self.normalize();
        Ok(())
    }

    /// Serializes the canonical state: the `ELLS` sparse format while in
    /// the token phase, the plain dense `ELL1` format once promoted
    /// (byte-identical to [`ExaLogLog::to_bytes`] of the same state).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            AdaptiveExaLogLog::Sparse(s) if s.is_sparse() => s.to_bytes(),
            AdaptiveExaLogLog::Sparse(s) => s.clone().into_dense().to_bytes(),
            AdaptiveExaLogLog::Dense(d) => d.to_bytes(),
        }
    }

    /// Deserializes either wire format, auto-detected by magic: `ELLS`
    /// restores the sparse phase, `ELL1` the promoted dense phase.
    ///
    /// # Errors
    ///
    /// Fails when the bytes describe neither format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EllError> {
        if bytes.len() >= 4 && &bytes[..4] == SPARSE_MAGIC {
            let mut sketch = AdaptiveExaLogLog::Sparse(SparseExaLogLog::from_bytes(bytes)?);
            sketch.normalize();
            Ok(sketch)
        } else {
            Ok(AdaptiveExaLogLog::Dense(ExaLogLog::from_bytes(bytes)?))
        }
    }

    /// Current memory footprint of the sketch *state* in bytes: linear
    /// in the token count while sparse, the constant register array once
    /// promoted. Like [`ExaLogLog::memory_bytes`], the dense phase's
    /// reconstructible ML coefficient cache is excluded (see there for
    /// the rationale).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        core::mem::size_of::<Self>()
            + match self {
                AdaptiveExaLogLog::Sparse(s) => s.memory_bytes(),
                AdaptiveExaLogLog::Dense(d) => d.register_bytes().len(),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ell_hash::SplitMix64;

    fn hashes(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    fn cfg() -> EllConfig {
        EllConfig::new(2, 16, 8).unwrap()
    }

    #[test]
    fn promotes_and_unwraps_to_plain_dense() {
        let mut s = AdaptiveExaLogLog::new(cfg()).unwrap();
        assert!(s.is_sparse());
        assert!(s.token_parameter().is_some());
        for h in hashes(20_000, 1) {
            s.insert_hash(h);
        }
        assert!(!s.is_sparse());
        assert!(matches!(s, AdaptiveExaLogLog::Dense(_)));
        assert!(s.token_parameter().is_none());
        assert!(s.as_dense().is_some());
    }

    #[test]
    fn promoted_state_equals_direct_dense_recording() {
        let stream = hashes(20_000, 2);
        let mut adaptive = AdaptiveExaLogLog::new(cfg()).unwrap();
        let mut direct = ExaLogLog::new(cfg());
        for &h in &stream {
            adaptive.insert_hash(h);
            direct.insert_hash(h);
        }
        assert_eq!(adaptive.to_bytes(), direct.to_bytes());
        assert_eq!(adaptive.estimate(), direct.estimate());
    }

    #[test]
    fn serialization_chooses_format_by_phase() {
        let mut s = AdaptiveExaLogLog::new(cfg()).unwrap();
        s.insert_hashes(&hashes(30, 3));
        assert_eq!(&s.to_bytes()[..4], b"ELLS");
        let back = AdaptiveExaLogLog::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back, s);
        s.promote();
        assert_eq!(&s.to_bytes()[..4], b"ELL1");
        let back = AdaptiveExaLogLog::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back, s);
        assert!(AdaptiveExaLogLog::from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn un_normalized_sparse_variant_serializes_canonically() {
        // Construct the Sparse variant around an internally-dense
        // sketch: to_bytes must still emit the dense format.
        let mut inner = SparseExaLogLog::new(cfg()).unwrap();
        for h in hashes(20_000, 4) {
            inner.insert_hash(h);
        }
        assert!(!inner.is_sparse());
        let odd = AdaptiveExaLogLog::Sparse(inner.clone());
        assert_eq!(&odd.to_bytes()[..4], b"ELL1");
        assert_eq!(odd.to_bytes(), inner.clone().into_dense().to_bytes());
    }

    #[test]
    fn merge_covers_all_phase_combinations() {
        let small = hashes(40, 5);
        let big = hashes(20_000, 6);
        let build = |hs: &[u64]| {
            let mut s = AdaptiveExaLogLog::new(cfg()).unwrap();
            s.insert_hashes(hs);
            s
        };
        let union_direct = {
            let mut d = ExaLogLog::new(cfg());
            for &h in small.iter().chain(big.iter()) {
                d.insert_hash(h);
            }
            d
        };
        // sparse ← dense, dense ← sparse: both equal direct recording.
        let mut x = build(&small);
        x.merge_from(&build(&big)).unwrap();
        assert_eq!(x.to_bytes(), union_direct.to_bytes());
        let mut y = build(&big);
        y.merge_from(&build(&small)).unwrap();
        assert_eq!(y.to_bytes(), union_direct.to_bytes());
        // sparse ← sparse stays sparse below break-even.
        let mut z = build(&small);
        z.merge_from(&build(&small[..10])).unwrap();
        assert!(z.is_sparse());
        // dense ← dense.
        let mut w = build(&big);
        w.merge_from(&build(&big[..100])).unwrap();
        assert_eq!(w.to_bytes(), build(&big).to_bytes());
    }

    #[test]
    fn merge_rejects_mismatched_configurations() {
        let mut a = AdaptiveExaLogLog::new(EllConfig::new(2, 16, 8).unwrap()).unwrap();
        let b = AdaptiveExaLogLog::new(EllConfig::new(2, 16, 9).unwrap()).unwrap();
        assert!(a.merge_from(&b).is_err());
    }

    #[test]
    fn memory_is_linear_then_constant() {
        let mut s = AdaptiveExaLogLog::new(cfg()).unwrap();
        let m0 = s.memory_bytes();
        s.insert_hashes(&hashes(100, 7));
        let m1 = s.memory_bytes();
        assert!(m1 > m0, "sparse memory must grow");
        s.insert_hashes(&hashes(50_000, 8));
        let dense = s.memory_bytes();
        s.insert_hashes(&hashes(50_000, 9));
        assert_eq!(s.memory_bytes(), dense, "dense memory is constant");
    }
}
