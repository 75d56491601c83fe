//! Sparse-mode sketch: linear memory for small counts, dense past
//! break-even (paper §4.3, last paragraph, and the Figure 10 discussion).
//!
//! [`SparseExaLogLog`] collects distinct hash tokens until their storage
//! would exceed the dense register array, then transparently converts. The
//! estimate is exact-ML in both phases: token-set ML while sparse
//! (Algorithm 7), register ML once dense.

use crate::atomic::AtomicExaLogLog;
use crate::config::{EllConfig, EllError};
use crate::sketch::ExaLogLog;
use crate::token::TokenSet;
use ell_hash::Hasher64;

/// Internal phase of a [`SparseExaLogLog`].
#[derive(Debug, Clone, PartialEq)]
enum Phase {
    Sparse(TokenSet),
    Dense(ExaLogLog),
}

/// Serialization magic for the sparse-capable format.
const SPARSE_MAGIC: &[u8; 4] = b"ELLS";
/// Header: magic + (t, d, p) + v + phase tag.
const SPARSE_HEADER_LEN: usize = 9;

/// The token count at which the tight (v+6)-bit token encoding costs
/// as many bits as the dense register array: the §4.3 break-even.
fn break_even_tokens(cfg: &EllConfig, v: u32) -> usize {
    (cfg.register_array_bytes() * 8).div_ceil(v as usize + 6)
}

/// An ExaLogLog sketch that starts in sparse (token-collecting) mode and
/// upgrades itself to the dense register representation at the break-even
/// point.
///
/// ```
/// use exaloglog::{EllConfig, SparseExaLogLog};
/// use ell_hash::{Hasher64, WyHash};
///
/// let hasher = WyHash::new(0);
/// let mut sketch = SparseExaLogLog::new(EllConfig::optimal(12).unwrap()).unwrap();
/// sketch.insert_hash(hasher.hash_bytes(b"one user"));
/// assert!(sketch.is_sparse());                  // tiny memory footprint
/// assert!((sketch.estimate() - 1.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseExaLogLog {
    cfg: EllConfig,
    v: u32,
    phase: Phase,
}

impl SparseExaLogLog {
    /// Creates a sparse sketch. Tokens use v = max(p + t, 26) so that the
    /// convenient 32-bit token size is kept whenever it suffices
    /// (the paper singles out v = 26 as "particularly interesting").
    pub fn new(cfg: EllConfig) -> Result<Self, EllError> {
        let v = (u32::from(cfg.p()) + u32::from(cfg.t())).max(26);
        Self::with_token_parameter(cfg, v)
    }

    /// Creates a sparse sketch with an explicit token parameter
    /// (`p + t ≤ v ≤ 58`).
    pub fn with_token_parameter(cfg: EllConfig, v: u32) -> Result<Self, EllError> {
        if v < u32::from(cfg.p()) + u32::from(cfg.t()) {
            return Err(EllError::InvalidParameter {
                reason: format!(
                    "token parameter v = {v} must be at least p + t = {}",
                    u32::from(cfg.p()) + u32::from(cfg.t())
                ),
            });
        }
        Ok(SparseExaLogLog {
            cfg,
            v,
            phase: Phase::Sparse(TokenSet::new(v)?),
        })
    }

    /// The dense-mode configuration this sketch upgrades into.
    #[must_use]
    pub fn config(&self) -> &EllConfig {
        &self.cfg
    }

    /// Whether the sketch is still in the sparse (token) phase.
    #[must_use]
    pub fn is_sparse(&self) -> bool {
        matches!(self.phase, Phase::Sparse(_))
    }

    /// The token parameter v used while in the sparse phase.
    #[must_use]
    pub fn token_parameter(&self) -> u32 {
        self.v
    }

    /// Inserts an element by its 64-bit hash, upgrading to dense mode at
    /// the break-even point. Returns whether the state changed.
    pub fn insert_hash(&mut self, hash: u64) -> bool {
        match &mut self.phase {
            Phase::Sparse(tokens) => {
                let changed = tokens.insert_hash(hash);
                if tokens.len() >= break_even_tokens(&self.cfg, self.v) {
                    self.densify();
                }
                changed
            }
            Phase::Dense(sketch) => sketch.insert_hash(hash),
        }
    }

    /// Hashes `element` with `hasher` and inserts it.
    pub fn insert<H: Hasher64 + ?Sized>(&mut self, hasher: &H, element: &[u8]) -> bool {
        self.insert_hash(hasher.hash_bytes(element))
    }

    /// Inserts a whole slice of pre-hashed elements, equivalent to
    /// sequential [`SparseExaLogLog::insert_hash`] calls in order.
    ///
    /// While sparse, the slice goes into the token set in sorted batches
    /// ([`TokenSet::insert_hashes`]), each no larger than the room left
    /// below break-even, with one break-even check per batch; once dense,
    /// the remainder takes the dense sketch's unrolled batch path. The
    /// state is exactly the sequential one: the token count only grows,
    /// so a batch crosses break-even iff some insert inside it would
    /// have, and a token reproduces its hash's register update for every
    /// `p + t ≤ v`, so densifying after the batch rather than in the
    /// middle of it yields the same registers.
    pub fn insert_hashes(&mut self, hashes: &[u64]) {
        let break_even = break_even_tokens(&self.cfg, self.v);
        let mut rest = hashes;
        while !rest.is_empty() {
            match &mut self.phase {
                Phase::Dense(sketch) => {
                    sketch.insert_hashes(rest);
                    return;
                }
                Phase::Sparse(tokens) => {
                    // Sorting past break-even would be wasted on hashes
                    // the dense registers absorb faster. A decoded set
                    // may already sit at break-even: still take a step.
                    let room = break_even.saturating_sub(tokens.len()).max(1);
                    let (batch, tail) = rest.split_at(room.min(rest.len()));
                    tokens.insert_hashes(batch);
                    rest = tail;
                    if tokens.len() >= break_even {
                        self.densify();
                    }
                }
            }
        }
    }

    /// Forces conversion to the dense representation, replaying the
    /// recorded hashes through the batched (unrolled) insert path.
    pub fn densify(&mut self) {
        if let Phase::Sparse(tokens) = &self.phase {
            let mut dense = ExaLogLog::new(self.cfg);
            dense.extend_hashes(tokens.hashes());
            self.phase = Phase::Dense(dense);
        }
    }

    /// Whether the sketch has recorded no element at all (in either
    /// phase).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match &self.phase {
            Phase::Sparse(tokens) => tokens.is_empty(),
            Phase::Dense(sketch) => sketch.is_empty(),
        }
    }

    /// The ML distinct-count estimate (token ML while sparse, register ML
    /// with bias correction when dense).
    #[must_use]
    pub fn estimate(&self) -> f64 {
        match &self.phase {
            Phase::Sparse(tokens) => tokens.estimate(),
            Phase::Dense(sketch) => sketch.estimate(),
        }
    }

    /// Merges another sparse/dense sketch with the same configuration and
    /// token parameter.
    pub fn merge_from(&mut self, other: &SparseExaLogLog) -> Result<(), EllError> {
        if self.cfg != *other.config() || self.v != other.v {
            return Err(EllError::IncompatibleSketches {
                reason: format!(
                    "{} (v={}) vs {} (v={})",
                    self.cfg, self.v, other.cfg, other.v
                ),
            });
        }
        match (&mut self.phase, &other.phase) {
            (Phase::Sparse(a), Phase::Sparse(b)) => {
                a.merge_from(b)?;
                if a.len() >= break_even_tokens(&self.cfg, self.v) {
                    self.densify();
                }
                Ok(())
            }
            (Phase::Dense(a), Phase::Dense(b)) => a.merge_from(b),
            (Phase::Dense(a), Phase::Sparse(b)) => {
                for h in b.hashes() {
                    a.insert_hash(h);
                }
                Ok(())
            }
            (Phase::Sparse(_), Phase::Dense(b)) => {
                self.densify();
                if let Phase::Dense(a) = &mut self.phase {
                    a.merge_from(b)
                } else {
                    unreachable!("densify always produces the dense phase")
                }
            }
        }
    }

    /// Folds this sketch into a dense accumulator of the same
    /// configuration without materializing a dense copy: a dense phase
    /// merges register-wise (word-scan fast path), a sparse phase streams
    /// its decoded token hashes through the accumulator's batched insert
    /// path. The result equals `acc.merge_from(&self.clone().into_dense())`
    /// minus the scratch allocation.
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
        match &self.phase {
            Phase::Sparse(tokens) => {
                acc.extend_hashes(tokens.hashes());
                Ok(())
            }
            Phase::Dense(sketch) => acc.merge_from(sketch),
        }
    }

    /// Folds this sketch into a lock-free atomic accumulator of the same
    /// configuration: a dense phase merges register-wise (word-scan over
    /// nonzero registers, CAS per hit), a sparse phase replays its decoded
    /// token hashes through the atomic insert path
    /// ([`AtomicExaLogLog::extend_hashes`], one coefficient publish per
    /// call). Because register updates are monotone, the result is
    /// bit-identical to inserting the original hash stream directly — this
    /// is the keyed store's buffered-delta flush into hot slots.
    ///
    /// # Errors
    ///
    /// Fails when configurations differ.
    pub fn merge_into_atomic(&self, acc: &AtomicExaLogLog) -> Result<(), EllError> {
        if self.cfg != *acc.config() {
            return Err(EllError::IncompatibleSketches {
                reason: format!("{} vs {}", self.cfg, acc.config()),
            });
        }
        match &self.phase {
            Phase::Sparse(tokens) => {
                acc.extend_hashes(tokens.hashes());
                Ok(())
            }
            Phase::Dense(sketch) => acc.merge_from(sketch),
        }
    }

    /// Extracts the dense sketch (densifying first if needed).
    #[must_use]
    pub fn into_dense(mut self) -> ExaLogLog {
        self.densify();
        match self.phase {
            Phase::Dense(sketch) => sketch,
            Phase::Sparse(_) => unreachable!("densify always produces the dense phase"),
        }
    }

    /// Serializes the sketch: `"ELLS"`, the (t, d, p) triple, the token
    /// parameter v, a phase tag, then the phase payload (the token-set or
    /// dense-sketch byte format, each self-describing).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SPARSE_MAGIC);
        out.extend_from_slice(&[self.cfg.t(), self.cfg.d(), self.cfg.p()]);
        out.push(self.v as u8); // v ≤ 58 by construction
        match &self.phase {
            Phase::Sparse(tokens) => {
                out.push(0);
                out.extend_from_slice(&tokens.to_bytes());
            }
            Phase::Dense(sketch) => {
                out.push(1);
                out.extend_from_slice(&sketch.to_bytes());
            }
        }
        out
    }

    /// Deserializes a sketch produced by [`SparseExaLogLog::to_bytes`],
    /// validating the header, the phase payload, and the consistency of
    /// the embedded configuration.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EllError> {
        let corrupt = |reason: String| EllError::CorruptSerialization { reason };
        if bytes.len() < SPARSE_HEADER_LEN {
            return Err(corrupt(format!(
                "{} bytes is shorter than the sparse header",
                bytes.len()
            )));
        }
        if &bytes[..4] != SPARSE_MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        let cfg = EllConfig::new(bytes[4], bytes[5], bytes[6])?;
        let v = u32::from(bytes[7]);
        let phase_tag = bytes[8];
        let payload = &bytes[SPARSE_HEADER_LEN..];
        let mut sketch = SparseExaLogLog::with_token_parameter(cfg, v)?;
        match phase_tag {
            0 => {
                let tokens = TokenSet::from_bytes(payload)?;
                if tokens.v() != v {
                    return Err(corrupt(format!(
                        "token parameter mismatch: header v={v}, payload v={}",
                        tokens.v()
                    )));
                }
                sketch.phase = Phase::Sparse(tokens);
            }
            1 => {
                let dense = ExaLogLog::from_bytes(payload)?;
                if dense.config() != &cfg {
                    return Err(corrupt(format!(
                        "configuration mismatch: header {cfg}, payload {}",
                        dense.config()
                    )));
                }
                sketch.phase = Phase::Dense(dense);
            }
            other => return Err(corrupt(format!("unknown phase tag {other}"))),
        }
        Ok(sketch)
    }

    /// Current memory footprint in bytes: token storage while sparse, the
    /// register array once dense. This produces the memory-vs-n curve of
    /// Figure 10 for sparse-capable sketches.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        core::mem::size_of::<Self>()
            + match &self.phase {
                Phase::Sparse(tokens) => tokens.len() * core::mem::size_of::<u64>(),
                Phase::Dense(sketch) => sketch.register_bytes().len(),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ell_hash::SplitMix64;

    fn cfg() -> EllConfig {
        EllConfig::optimal(10).unwrap()
    }

    #[test]
    fn starts_sparse_upgrades_dense() {
        let mut s = SparseExaLogLog::new(cfg()).unwrap();
        assert!(s.is_sparse());
        let mut rng = SplitMix64::new(1);
        // Dense array = 3584 bytes = 28672 bits; tokens are 32 bits →
        // break-even at 896 tokens.
        for _ in 0..895 {
            s.insert_hash(rng.next_u64());
        }
        assert!(s.is_sparse());
        for _ in 0..10 {
            s.insert_hash(rng.next_u64());
        }
        assert!(!s.is_sparse(), "sketch must have densified at break-even");
    }

    #[test]
    fn estimate_continuous_across_conversion() {
        let mut s = SparseExaLogLog::new(cfg()).unwrap();
        let mut rng = SplitMix64::new(2);
        let mut last_sparse_est = 0.0;
        let mut first_dense_est = None;
        let mut n = 0;
        while first_dense_est.is_none() {
            s.insert_hash(rng.next_u64());
            n += 1;
            if s.is_sparse() {
                last_sparse_est = s.estimate();
            } else {
                first_dense_est = Some(s.estimate());
            }
        }
        let dense = first_dense_est.unwrap();
        assert!(
            (dense - last_sparse_est).abs() < 0.1 * n as f64,
            "estimate jumped across densification: {last_sparse_est} → {dense}"
        );
    }

    #[test]
    fn dense_conversion_matches_direct_recording() {
        // The sparse → dense conversion must produce exactly the sketch
        // direct dense recording would have produced (token losslessness
        // for p + t ≤ v).
        let c = EllConfig::new(2, 20, 8).unwrap();
        let mut sparse = SparseExaLogLog::new(c).unwrap();
        let mut direct = ExaLogLog::new(c);
        let mut rng = SplitMix64::new(3);
        for _ in 0..5000 {
            let h = rng.next_u64();
            sparse.insert_hash(h);
            direct.insert_hash(h);
        }
        assert_eq!(sparse.into_dense(), direct);
    }

    #[test]
    fn sparse_memory_grows_linearly_then_caps() {
        let mut s = SparseExaLogLog::new(cfg()).unwrap();
        let mut rng = SplitMix64::new(4);
        let m0 = s.memory_bytes();
        for _ in 0..100 {
            s.insert_hash(rng.next_u64());
        }
        let m100 = s.memory_bytes();
        assert!(m100 > m0, "sparse memory must grow with tokens");
        for _ in 0..10_000 {
            s.insert_hash(rng.next_u64());
        }
        let dense_size = s.memory_bytes();
        for _ in 0..10_000 {
            s.insert_hash(rng.next_u64());
        }
        assert_eq!(s.memory_bytes(), dense_size, "dense memory is constant");
    }

    #[test]
    fn merge_all_phase_combinations() {
        // p = 8: dense array is 768 bytes = 6144 bits, so 50 32-bit tokens
        // stay comfortably sparse while 40k inserts force dense mode.
        let c = EllConfig::new(2, 16, 8).unwrap();
        let mut rng = SplitMix64::new(5);
        let hs_a: Vec<u64> = (0..50).map(|_| rng.next_u64()).collect();
        let hs_b: Vec<u64> = (0..40_000).map(|_| rng.next_u64()).collect();

        let build = |hashes: &[u64]| {
            let mut s = SparseExaLogLog::new(c).unwrap();
            for &h in hashes {
                s.insert_hash(h);
            }
            s
        };
        let small_a = build(&hs_a); // sparse
        let big_b = build(&hs_b); // dense
        assert!(small_a.is_sparse());
        assert!(!big_b.is_sparse());

        // sparse ← sparse
        let mut x = build(&hs_a);
        x.merge_from(&build(&hs_a[..20])).unwrap();
        assert!((x.estimate() - 50.0).abs() < 2.0);
        // sparse ← dense
        let mut x = build(&hs_a);
        x.merge_from(&big_b).unwrap();
        let direct: f64 = {
            let mut d = build(&hs_a);
            for &h in &hs_b {
                d.insert_hash(h);
            }
            d.estimate()
        };
        assert!((x.estimate() / direct - 1.0).abs() < 1e-9);
        // dense ← sparse
        let mut x = build(&hs_b);
        x.merge_from(&small_a).unwrap();
        assert!((x.estimate() / direct - 1.0).abs() < 1e-9);
        // dense ← dense
        let mut x = build(&hs_b);
        x.merge_from(&build(&hs_b[..10_000])).unwrap();
        assert!((x.estimate() / 40_000.0 - 1.0).abs() < 0.1);
    }

    #[test]
    fn rejects_incompatible_merge() {
        let a = SparseExaLogLog::new(EllConfig::new(2, 20, 8).unwrap()).unwrap();
        let mut b = SparseExaLogLog::new(EllConfig::new(2, 20, 9).unwrap()).unwrap();
        assert!(b.merge_from(&a).is_err());
    }

    #[test]
    fn serialization_roundtrips_in_both_phases() {
        let c = EllConfig::new(2, 16, 8).unwrap();
        let mut rng = SplitMix64::new(9);
        // Sparse phase.
        let mut sparse = SparseExaLogLog::new(c).unwrap();
        for _ in 0..40 {
            sparse.insert_hash(rng.next_u64());
        }
        assert!(sparse.is_sparse());
        let back = SparseExaLogLog::from_bytes(&sparse.to_bytes()).unwrap();
        assert_eq!(back, sparse);
        // Dense phase.
        for _ in 0..40_000 {
            sparse.insert_hash(rng.next_u64());
        }
        assert!(!sparse.is_sparse());
        let back = SparseExaLogLog::from_bytes(&sparse.to_bytes()).unwrap();
        assert_eq!(back, sparse);
        // Corruption is rejected.
        let mut bad = sparse.to_bytes();
        bad[0] ^= 0xff;
        assert!(SparseExaLogLog::from_bytes(&bad).is_err());
        let mut bad = sparse.to_bytes();
        bad[8] = 7; // unknown phase tag
        assert!(SparseExaLogLog::from_bytes(&bad).is_err());
        assert!(SparseExaLogLog::from_bytes(&sparse.to_bytes()[..5]).is_err());
    }

    #[test]
    fn batched_insert_matches_sequential_across_densification() {
        // The batch straddles the break-even point, so the batch path
        // must densify mid-slice exactly like sequential insertion.
        let c = EllConfig::new(2, 16, 6).unwrap();
        let mut rng = SplitMix64::new(10);
        let hashes: Vec<u64> = (0..5000).map(|_| rng.next_u64()).collect();
        let mut seq = SparseExaLogLog::new(c).unwrap();
        for &h in &hashes {
            seq.insert_hash(h);
        }
        let mut bat = SparseExaLogLog::new(c).unwrap();
        bat.insert_hashes(&hashes);
        assert_eq!(seq, bat);
        assert!(!bat.is_sparse());
    }

    #[test]
    fn batch_that_ends_exactly_at_break_even_densifies() {
        // One batch of exactly the break-even token count must promote,
        // one short of it must not — the same decisions as one-by-one.
        let c = EllConfig::new(2, 16, 6).unwrap();
        let break_even = break_even_tokens(&c, 26);
        let mut rng = SplitMix64::new(11);
        for n in [break_even - 1, break_even, break_even + 1] {
            let hashes: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let mut seq = SparseExaLogLog::new(c).unwrap();
            for &h in &hashes {
                seq.insert_hash(h);
            }
            let mut bat = SparseExaLogLog::new(c).unwrap();
            bat.insert_hashes(&hashes);
            assert_eq!(bat.is_sparse(), n < break_even, "n = {n}");
            assert_eq!(seq, bat, "n = {n}");
        }
    }

    #[test]
    fn token_parameter_validation() {
        let c = EllConfig::new(2, 20, 8).unwrap();
        assert!(SparseExaLogLog::with_token_parameter(c, 9).is_err()); // < p+t
        assert!(SparseExaLogLog::with_token_parameter(c, 10).is_ok());
        assert!(SparseExaLogLog::with_token_parameter(c, 59).is_err());
    }
}
