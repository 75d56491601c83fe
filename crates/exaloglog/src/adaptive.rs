//! Adaptive sparse→dense sketch lifecycle (paper §4.3, last paragraph,
//! and the Figure 10 discussion).
//!
//! [`AdaptiveExaLogLog`] is the crate's sparse-capable sketch and the
//! representation the serving layer (`ell-store`) keys millions of
//! counters on. It starts as a sorted set of (v+6)-bit hash tokens
//! whose memory grows linearly with the number of distinct elements,
//! and **promotes itself** in place to the dense register array the
//! moment the tight token encoding would cost as many bits as the
//! registers — the break-even rule of §4.3 that makes per-key sketches
//! memory-viable at fleet scale. A promoted sketch is a plain
//! [`ExaLogLog`]: it carries no residual sparse-mode state and
//! serializes in the plain dense wire format. Estimates are exact ML in
//! both phases: token-set ML while sparse (Algorithm 7), register ML
//! once dense.
//!
//! Wire formats: the token phase serializes as `ELLS` — magic, the
//! (t, d, p) triple, the token parameter v, phase tag 0, then the
//! `ELLT` token payload; the promoted phase serializes as the dense
//! `ELL1` register format, byte-identical to an [`ExaLogLog`] fed the
//! same hashes. [`AdaptiveExaLogLog::from_bytes`] auto-detects either
//! magic, and also reads `ELLS` with phase tag 1 and an `ELL1` payload,
//! the form older versions wrote for a dense sketch.
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

use crate::config::{EllConfig, EllError};
use crate::sketch::ExaLogLog;
use crate::token::TokenSet;
use ell_hash::Hasher64;

/// Serialization magic of the token-phase format; the dense phase uses
/// the plain `ELL1` format.
const SPARSE_MAGIC: &[u8; 4] = b"ELLS";
/// `ELLS` phase tag of a token payload.
const TOKEN_PHASE: u8 = 0;
/// `ELLS` phase tag of a dense `ELL1` payload (read, no longer written).
const LEGACY_DENSE_PHASE: u8 = 1;

/// The token count at which the tight (v+6)-bit token encoding costs
/// as many bits as the dense register array: the §4.3 break-even.
fn break_even_tokens(cfg: &EllConfig, v: u32) -> usize {
    (cfg.register_array_bytes() * 8).div_ceil(v as usize + 6)
}

fn check_same_config(a: &EllConfig, b: &EllConfig) -> Result<(), EllError> {
    if a == b {
        Ok(())
    } else {
        Err(EllError::IncompatibleSketches {
            reason: format!("{a} vs {b}"),
        })
    }
}

/// An ExaLogLog sketch that automatically promotes from the sparse token
/// representation to dense registers at the §4.3 break-even point.
///
/// The two variants are the two lifecycle phases. Every insert and
/// merge promotes a token set that reached break-even, so a sketch past
/// break-even is in the [`Dense`] variant. The one exception is a token
/// set decoded at or past break-even: it stays sparse (and round-trips
/// byte for byte) until its next insert or merge.
///
/// [`Dense`]: AdaptiveExaLogLog::Dense
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptiveExaLogLog {
    /// Token-collecting phase: memory grows linearly with the distinct
    /// count, estimates are near-exact (token ML, Algorithm 7). The token
    /// parameter is `tokens.v()`, with `p + t ≤ v` so that every token
    /// reproduces its hash's register update; only this crate's
    /// constructors build the variant, and they check that bound.
    #[non_exhaustive]
    Sparse {
        /// The dense configuration the sketch promotes into.
        cfg: EllConfig,
        /// The distinct tokens collected so far.
        tokens: TokenSet,
    },
    /// Promoted phase: the plain dense register sketch, bit-for-bit the
    /// state direct dense recording of the same hashes would have
    /// produced (token losslessness for `p + t ≤ v`).
    Dense(ExaLogLog),
}

impl AdaptiveExaLogLog {
    /// Creates an adaptive sketch in the sparse phase with the default
    /// token parameter `v = max(p + t, 26)`: the convenient 32-bit token
    /// size whenever it suffices (the paper singles out v = 26 as
    /// "particularly interesting").
    ///
    /// # Errors
    ///
    /// Propagates invalid-parameter errors from the token machinery.
    pub fn new(cfg: EllConfig) -> Result<Self, EllError> {
        Self::with_token_parameter(cfg, Self::default_token_parameter(&cfg))
    }

    /// The token parameter [`AdaptiveExaLogLog::new`] picks for `cfg`:
    /// `v = max(p + t, 26)`.
    #[must_use]
    pub fn default_token_parameter(cfg: &EllConfig) -> u32 {
        (u32::from(cfg.p()) + u32::from(cfg.t())).max(26)
    }

    /// Creates an adaptive sketch with an explicit token parameter
    /// (`p + t ≤ v ≤ 58`).
    ///
    /// # Errors
    ///
    /// Rejects `v` outside the valid range for the configuration.
    pub fn with_token_parameter(cfg: EllConfig, v: u32) -> Result<Self, EllError> {
        let min_v = u32::from(cfg.p()) + u32::from(cfg.t());
        if v < min_v {
            return Err(EllError::InvalidParameter {
                reason: format!("token parameter v = {v} must be at least p + t = {min_v}"),
            });
        }
        Ok(AdaptiveExaLogLog::Sparse {
            cfg,
            tokens: TokenSet::new(v)?,
        })
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
            AdaptiveExaLogLog::Sparse { cfg, .. } => cfg,
            AdaptiveExaLogLog::Dense(d) => d.config(),
        }
    }

    /// Whether the sketch is still in the sparse (token) phase.
    #[must_use]
    pub fn is_sparse(&self) -> bool {
        matches!(self, AdaptiveExaLogLog::Sparse { .. })
    }

    /// The token parameter `v` while sparse; `None` once promoted (the
    /// dense representation no longer depends on it).
    #[must_use]
    pub fn token_parameter(&self) -> Option<u32> {
        match self {
            AdaptiveExaLogLog::Sparse { tokens, .. } => Some(tokens.v()),
            AdaptiveExaLogLog::Dense(_) => None,
        }
    }

    /// Resets the sketch to an empty token set of the same
    /// configuration, releasing its token or register storage. The token
    /// parameter stays; a promoted sketch, which no longer has one,
    /// takes the default of [`AdaptiveExaLogLog::new`].
    pub fn clear(&mut self) {
        let cfg = *self.config();
        let v = match self {
            AdaptiveExaLogLog::Sparse { tokens, .. } => tokens.v(),
            AdaptiveExaLogLog::Dense(_) => Self::default_token_parameter(&cfg),
        };
        let tokens = TokenSet::new(v).expect("the token parameter was valid before");
        *self = AdaptiveExaLogLog::Sparse { cfg, tokens };
    }

    /// Forces promotion to the dense representation (a no-op when
    /// already promoted). The resulting state equals direct dense
    /// recording of the same hashes.
    pub fn promote(&mut self) {
        if self.is_sparse() {
            *self = AdaptiveExaLogLog::Dense(self.to_dense());
        }
    }

    /// Promotes a token set that reached break-even: the one promotion
    /// decision of the lifecycle, taken after every insert and merge.
    fn promote_at_break_even(&mut self) {
        if let AdaptiveExaLogLog::Sparse { cfg, tokens } = self {
            if tokens.len() >= break_even_tokens(cfg, tokens.v()) {
                self.promote();
            }
        }
    }

    /// Inserts an element by its 64-bit hash, promoting at the
    /// break-even point. Returns whether the state changed.
    pub fn insert_hash(&mut self, hash: u64) -> bool {
        let changed = match self {
            AdaptiveExaLogLog::Sparse { tokens, .. } => tokens.insert_hash(hash),
            AdaptiveExaLogLog::Dense(d) => return d.insert_hash(hash),
        };
        self.promote_at_break_even();
        changed
    }

    /// Hashes `element` with `hasher` and inserts it.
    pub fn insert<H: Hasher64 + ?Sized>(&mut self, hasher: &H, element: &[u8]) -> bool {
        self.insert_hash(hasher.hash_bytes(element))
    }

    /// Inserts a whole slice of pre-hashed elements, bit-for-bit
    /// equivalent to sequential [`AdaptiveExaLogLog::insert_hash`] calls
    /// in order (the batch may straddle the promotion point).
    ///
    /// While sparse, the slice goes into the token set in sorted batches
    /// ([`TokenSet::insert_hashes`]), each no larger than the room left
    /// below break-even, with one break-even check per batch; once dense,
    /// the remainder takes the dense sketch's unrolled batch path. The
    /// state is exactly the sequential one: the token count only grows,
    /// so a batch crosses break-even iff some insert inside it would
    /// have, and a token reproduces its hash's register update for every
    /// `p + t ≤ v`, so promoting after the batch rather than in the
    /// middle of it yields the same registers.
    pub fn insert_hashes(&mut self, hashes: &[u64]) {
        let mut rest = hashes;
        while !rest.is_empty() {
            match self {
                AdaptiveExaLogLog::Dense(d) => return d.insert_hashes(rest),
                AdaptiveExaLogLog::Sparse { cfg, tokens } => {
                    // Sorting past break-even would be wasted on hashes
                    // the dense registers absorb faster. A decoded set
                    // may already sit at break-even: still take a step.
                    let room = break_even_tokens(cfg, tokens.v())
                        .saturating_sub(tokens.len())
                        .max(1);
                    let (batch, tail) = rest.split_at(room.min(rest.len()));
                    tokens.insert_hashes(batch);
                    rest = tail;
                }
            }
            self.promote_at_break_even();
        }
    }

    /// Whether the sketch has recorded no element at all (in either
    /// phase — a promoted sketch is empty when every register is zero).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match self {
            AdaptiveExaLogLog::Sparse { tokens, .. } => tokens.is_empty(),
            AdaptiveExaLogLog::Dense(d) => d.is_empty(),
        }
    }

    /// The ML distinct-count estimate (token ML while sparse, register
    /// ML with bias correction once promoted).
    #[must_use]
    pub fn estimate(&self) -> f64 {
        match self {
            AdaptiveExaLogLog::Sparse { tokens, .. } => tokens.estimate(),
            AdaptiveExaLogLog::Dense(d) => d.estimate(),
        }
    }

    /// The promoted register sketch, or `None` while still sparse.
    #[must_use]
    pub fn as_dense(&self) -> Option<&ExaLogLog> {
        match self {
            AdaptiveExaLogLog::Dense(d) => Some(d),
            AdaptiveExaLogLog::Sparse { .. } => None,
        }
    }

    /// A dense copy of the current state (replaying the tokens'
    /// representative hashes through the batched insert path if still
    /// sparse), leaving `self` untouched.
    #[must_use]
    pub fn to_dense(&self) -> ExaLogLog {
        match self {
            AdaptiveExaLogLog::Sparse { cfg, tokens } => {
                let mut dense = ExaLogLog::new(*cfg);
                dense.extend_hashes(tokens.hashes());
                dense
            }
            AdaptiveExaLogLog::Dense(d) => d.clone(),
        }
    }

    /// Folds this sketch into a dense accumulator of the same
    /// configuration without materializing a dense copy: a dense phase
    /// merges register-wise (word-scan fast path), a sparse phase streams
    /// its decoded token hashes through the accumulator's batched insert
    /// path — the allocation-free aggregation path for union queries
    /// over many keyed sketches.
    ///
    /// # Errors
    ///
    /// Fails when configurations differ.
    pub fn merge_into_dense(&self, acc: &mut ExaLogLog) -> Result<(), EllError> {
        match self {
            AdaptiveExaLogLog::Sparse { cfg, tokens } => {
                check_same_config(cfg, acc.config())?;
                acc.extend_hashes(tokens.hashes());
                Ok(())
            }
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
        check_same_config(self.config(), other.config())?;
        if let (
            AdaptiveExaLogLog::Sparse { tokens: a, .. },
            AdaptiveExaLogLog::Sparse { tokens: b, .. },
        ) = (&mut *self, other)
        {
            a.merge_from(b)?;
            self.promote_at_break_even();
            return Ok(());
        }
        self.promote();
        let AdaptiveExaLogLog::Dense(a) = self else {
            unreachable!("promote always produces the dense variant")
        };
        other.merge_into_dense(a)
    }

    /// Serializes the canonical state: the `ELLS` token format while in
    /// the token phase, the plain dense `ELL1` format once promoted
    /// (byte-identical to [`ExaLogLog::to_bytes`] of the same state).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            AdaptiveExaLogLog::Sparse { cfg, tokens } => {
                let payload = tokens.to_bytes();
                let mut out = Vec::with_capacity(SPARSE_MAGIC.len() + 5 + payload.len());
                out.extend_from_slice(SPARSE_MAGIC);
                // cast: v ≤ 58, checked by TokenSet::new
                out.extend_from_slice(&[cfg.t(), cfg.d(), cfg.p(), tokens.v() as u8, TOKEN_PHASE]);
                out.extend_from_slice(&payload);
                out
            }
            AdaptiveExaLogLog::Dense(d) => d.to_bytes(),
        }
    }

    /// Deserializes either wire format, auto-detected by magic: `ELLS`
    /// restores the token phase (or, with the legacy dense phase tag, the
    /// promoted phase), `ELL1` the promoted dense phase. The header's
    /// configuration and token parameter must match the payload's.
    ///
    /// # Errors
    ///
    /// Fails when the bytes describe neither format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EllError> {
        let Some(header) = bytes.strip_prefix(SPARSE_MAGIC) else {
            return Ok(AdaptiveExaLogLog::Dense(ExaLogLog::from_bytes(bytes)?));
        };
        let corrupt = |reason: String| EllError::CorruptSerialization { reason };
        let &[t, d, p, v, phase, ref payload @ ..] = header else {
            return Err(corrupt(format!(
                "{} bytes is shorter than the sparse header",
                bytes.len()
            )));
        };
        let cfg = EllConfig::new(t, d, p)?;
        let v = u32::from(v);
        // Validates v against the header's configuration.
        Self::with_token_parameter(cfg, v)?;
        match phase {
            TOKEN_PHASE => {
                let tokens = TokenSet::from_bytes(payload)?;
                if tokens.v() != v {
                    return Err(corrupt(format!(
                        "token parameter mismatch: header v={v}, payload v={}",
                        tokens.v()
                    )));
                }
                Ok(AdaptiveExaLogLog::Sparse { cfg, tokens })
            }
            LEGACY_DENSE_PHASE => {
                let dense = ExaLogLog::from_bytes(payload)?;
                if dense.config() != &cfg {
                    return Err(corrupt(format!(
                        "configuration mismatch: header {cfg}, payload {}",
                        dense.config()
                    )));
                }
                Ok(AdaptiveExaLogLog::Dense(dense))
            }
            other => Err(corrupt(format!("unknown phase tag {other}"))),
        }
    }

    /// Current memory footprint of the sketch *state* in bytes: the
    /// inline size plus the token storage while sparse (linear in the
    /// token count), the constant register array once promoted. This
    /// produces the memory-vs-n curve of Figure 10 for sparse-capable
    /// sketches. Like [`ExaLogLog::memory_bytes`], the dense phase's
    /// reconstructible ML coefficient cache is excluded (see there for
    /// the rationale).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        core::mem::size_of::<Self>()
            + match self {
                AdaptiveExaLogLog::Sparse { tokens, .. } => {
                    tokens.len() * core::mem::size_of::<u64>()
                }
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
    fn estimate_continuous_across_promotion() {
        let mut s = AdaptiveExaLogLog::new(cfg()).unwrap();
        let mut last_sparse = 0.0;
        let mut n = 0;
        for h in hashes(20_000, 13) {
            s.insert_hash(h);
            n += 1;
            if !s.is_sparse() {
                break;
            }
            last_sparse = s.estimate();
        }
        assert!(!s.is_sparse(), "the stream must cross break-even");
        let first_dense = s.estimate();
        assert!(
            (first_dense - last_sparse).abs() < 0.1 * n as f64,
            "estimate jumped across promotion: {last_sparse} → {first_dense}"
        );
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
    fn legacy_dense_phase_bytes_decode_to_the_promoted_sketch() {
        // Older versions wrote a dense sketch as ELLS with phase tag 1:
        // magic, (t, d, p), v, 1, then the ELL1 payload.
        let c = cfg();
        let mut direct = ExaLogLog::new(c);
        direct.insert_hashes(&hashes(20_000, 4));
        let legacy = |t: u8, d: u8, p: u8, v: u8, phase: u8| {
            let mut bytes = b"ELLS".to_vec();
            bytes.extend_from_slice(&[t, d, p, v, phase]);
            bytes.extend_from_slice(&direct.to_bytes());
            bytes
        };
        let bytes = legacy(c.t(), c.d(), c.p(), 26, 1);
        let back = AdaptiveExaLogLog::from_bytes(&bytes).unwrap();
        assert_eq!(back, AdaptiveExaLogLog::Dense(direct.clone()));
        assert_eq!(back.to_bytes(), direct.to_bytes());
        // Unknown phase tag, header/payload configuration mismatch, a
        // token parameter invalid for the header, bad magic and
        // truncated headers are all rejected.
        assert!(AdaptiveExaLogLog::from_bytes(&legacy(c.t(), c.d(), c.p(), 26, 7)).is_err());
        assert!(AdaptiveExaLogLog::from_bytes(&legacy(c.t(), c.d(), c.p() + 1, 26, 1)).is_err());
        assert!(AdaptiveExaLogLog::from_bytes(&legacy(c.t(), c.d(), c.p(), 9, 1)).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(AdaptiveExaLogLog::from_bytes(&bad).is_err());
        for len in 4..10 {
            assert!(
                AdaptiveExaLogLog::from_bytes(&bytes[..len]).is_err(),
                "{len}"
            );
        }
    }

    #[test]
    fn token_phase_header_must_match_its_payload() {
        let mut s = AdaptiveExaLogLog::new(cfg()).unwrap();
        s.insert_hashes(&hashes(40, 12));
        let bytes = s.to_bytes();
        let mut bad = bytes.clone();
        bad[7] = 27; // header v differs from the token payload's v = 26
        assert!(AdaptiveExaLogLog::from_bytes(&bad).is_err());
        let mut bad = bytes.clone();
        bad[8] = 7; // unknown phase tag
        assert!(AdaptiveExaLogLog::from_bytes(&bad).is_err());
        let mut bad = bytes;
        bad[8] = 1; // a token payload under the dense phase tag
        assert!(AdaptiveExaLogLog::from_bytes(&bad).is_err());
    }

    #[test]
    fn batch_that_ends_exactly_at_break_even_promotes() {
        // One batch of exactly the break-even token count must promote,
        // one short of it must not — the same decisions as one-by-one.
        let c = EllConfig::new(2, 16, 6).unwrap();
        let break_even = break_even_tokens(&c, 26);
        let mut rng = SplitMix64::new(11);
        for n in [break_even - 1, break_even, break_even + 1] {
            let hashes: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let mut seq = AdaptiveExaLogLog::new(c).unwrap();
            for &h in &hashes {
                seq.insert_hash(h);
            }
            let mut bat = AdaptiveExaLogLog::new(c).unwrap();
            bat.insert_hashes(&hashes);
            assert_eq!(bat.is_sparse(), n < break_even, "n = {n}");
            assert_eq!(seq, bat, "n = {n}");
        }
    }

    #[test]
    fn clear_returns_to_an_empty_token_set() {
        for n in [40, 20_000] {
            let mut s = AdaptiveExaLogLog::with_token_parameter(cfg(), 30).unwrap();
            s.insert_hashes(&hashes(n, 14));
            s.clear();
            assert!(s.is_sparse() && s.is_empty());
            let v = if n == 40 { 30 } else { 26 };
            assert_eq!(s.token_parameter(), Some(v), "n = {n}");
            assert_eq!(s.memory_bytes(), core::mem::size_of::<AdaptiveExaLogLog>());
        }
        assert_eq!(AdaptiveExaLogLog::default_token_parameter(&cfg()), 26);
        let wide = EllConfig::new(2, 16, 26).unwrap();
        assert_eq!(AdaptiveExaLogLog::default_token_parameter(&wide), 28);
    }

    #[test]
    fn token_parameter_validation() {
        let c = EllConfig::new(2, 20, 8).unwrap();
        assert!(AdaptiveExaLogLog::with_token_parameter(c, 9).is_err()); // < p+t
        assert!(AdaptiveExaLogLog::with_token_parameter(c, 10).is_ok());
        assert!(AdaptiveExaLogLog::with_token_parameter(c, 59).is_err());
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
        assert_eq!(
            m0,
            core::mem::size_of::<AdaptiveExaLogLog>(),
            "inline size counted once"
        );
        s.insert_hashes(&hashes(100, 7));
        let m1 = s.memory_bytes();
        assert_eq!(m1, m0 + 100 * core::mem::size_of::<u64>(), "8 B per token");
        s.insert_hashes(&hashes(50_000, 8));
        let dense = s.memory_bytes();
        s.insert_hashes(&hashes(50_000, 9));
        assert_eq!(s.memory_bytes(), dense, "dense memory is constant");
    }
}
