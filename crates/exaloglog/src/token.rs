//! Hash tokens — the sparse-mode building block (paper §4.3).
//!
//! A (v+6)-bit *hash token* compresses a 64-bit hash while retaining all
//! the information any ExaLogLog sketch with `p + t ≤ v` needs: the low
//! `v` hash bits verbatim plus the number of leading zeros of the
//! remaining 64−v bits (6 bits). While a sketch is small it is cheaper to
//! collect distinct tokens than to allocate the register array; tokens
//! convert back to representative hashes when densifying, and the distinct
//! count can even be estimated *directly* from a token set via the same ML
//! machinery (Algorithm 7 — the token likelihood has the shape of
//! equation (15) with m = 1, t = v).

use crate::config::EllError;
use crate::ml::{solve_ml_equation, MAX_EXPONENT};
use ell_bitpack::mask;

/// Encodes a 64-bit hash as a (v+6)-bit token (paper §4.3).
///
/// Token layout: `⟨h_{v−1} … h_0⟩ · 2^6 + nlz(⟨h_63 … h_v 1…1⟩)`.
///
/// # Panics
///
/// Panics if `v` is outside `1..=58`.
#[inline]
#[must_use]
pub fn encode_token(hash: u64, v: u32) -> u64 {
    assert!(
        (1..=58).contains(&v),
        "token parameter v = {v} outside 1..=58"
    );
    let low = hash & mask(v);
    let nlz = u64::from((hash | mask(v)).leading_zeros()); // ∈ [0, 64−v]
    (low << 6) | nlz
}

/// Reconstructs a *representative* 64-bit hash from a token: a hash that
/// decomposes to the same register index and update value as the original
/// for every sketch with `p + t ≤ v`.
///
/// Layout (paper §4.3): `2^(64−s) − 2^v + ⟨token high bits⟩` where `s` is
/// the stored NLZ.
#[inline]
#[must_use]
pub fn decode_token(token: u64, v: u32) -> u64 {
    assert!(
        (1..=58).contains(&v),
        "token parameter v = {v} outside 1..=58"
    );
    let s = token & 0x3f;
    let low = token >> 6;
    debug_assert!(s <= u64::from(64 - v), "token NLZ {s} exceeds 64−v");
    debug_assert!(low <= mask(v), "token value bits exceed v");
    // 2^(64−s) − 2^v sets hash bits v..=63−s; computed in u128 so s = 0
    // (the 2^64 case) wraps correctly.
    let high = ((1u128 << (64 - s)) - (1u128 << v)) as u64;
    high | low
}

/// The token PMF ρ_token(w) of equation (24): tokens whose stored NLZ `s`
/// satisfies `s ≤ 64 − v` occur with probability 2^(−min(v+1+s, 64));
/// all other bit patterns are unreachable and have probability zero.
#[must_use]
pub fn rho_token(token: u64, v: u32) -> f64 {
    assert!(
        (1..=58).contains(&v),
        "token parameter v = {v} outside 1..=58"
    );
    let s = (token & 0x3f) as u32;
    if s > 64 - v || (token >> 6) > mask(v) {
        return 0.0;
    }
    let e = (v + 1 + s).min(64);
    2f64.powi(-(e as i32))
}

/// Batches up to this size insert token by token (binary search plus a
/// memmove each); larger ones sort and merge in place.
const SMALL_BATCH: usize = 4;

/// The first index of the sorted `run` whose token is ≥ `b`, found by
/// galloping down from the end: O(log d) for an answer d places from
/// the top.
fn gallop_down(run: &[u64], b: u64) -> usize {
    let mut hi = run.len();
    let mut step = 1;
    // Invariant: every token in run[hi..] is ≥ b.
    while hi > 0 && run[hi - 1] >= b {
        let lo = hi.saturating_sub(step);
        if run[lo] >= b {
            hi = lo;
            step *= 2;
        } else {
            return lo + 1 + run[lo + 1..hi].partition_point(|&a| a < b);
        }
    }
    hi
}

std::thread_local! {
    /// Per-thread buffer [`TokenSet::insert_hashes`] sorts a batch's new
    /// tokens in, so batches allocate nothing once it has grown.
    static SCRATCH: core::cell::RefCell<Vec<u64>> = const { core::cell::RefCell::new(Vec::new()) };
}

/// A deduplicated collection of hash tokens with direct ML estimation.
///
/// ```
/// use exaloglog::token::TokenSet;
/// use ell_hash::{Hasher64, WyHash};
///
/// let hasher = WyHash::new(0);
/// let mut tokens = TokenSet::new(26).unwrap(); // 32-bit tokens
/// for i in 0..500u32 {
///     tokens.insert_hash(hasher.hash_bytes(&i.to_le_bytes()));
/// }
/// let est = tokens.estimate();
/// assert!((est / 500.0 - 1.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenSet {
    v: u32,
    /// Sorted distinct tokens. Kept sorted so lookup, dedup, iteration and
    /// serialization are all trivial (the paper notes that 32-bit tokens in
    /// a plain integer array can be deduplicated with off-the-shelf sorts).
    tokens: Vec<u64>,
}

impl TokenSet {
    /// Creates an empty token set with parameter `v` (token size v+6 bits).
    ///
    /// Any ExaLogLog sketch with `p + t ≤ v` can later be fed from this
    /// set. `v = 26` gives convenient 32-bit tokens.
    pub fn new(v: u32) -> Result<Self, EllError> {
        if !(1..=58).contains(&v) {
            return Err(EllError::InvalidParameter {
                reason: format!("token parameter v = {v} outside 1..=58"),
            });
        }
        Ok(TokenSet {
            v,
            tokens: Vec::new(),
        })
    }

    /// The token parameter v.
    #[must_use]
    pub fn v(&self) -> u32 {
        self.v
    }

    /// Number of distinct tokens collected.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether no token has been collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Bulk-builds a token set from hashes: encode, sort, deduplicate.
    /// Much faster than repeated [`TokenSet::insert_hash`] for large
    /// batches (O(n log n) instead of O(n²) worst case).
    pub fn from_hashes(v: u32, hashes: impl Iterator<Item = u64>) -> Result<Self, EllError> {
        let mut set = Self::new(v)?;
        set.tokens = hashes.map(|h| encode_token(h, v)).collect();
        set.tokens.sort_unstable();
        set.tokens.dedup();
        Ok(set)
    }

    /// Encodes `hash` and inserts the token; returns whether it was new.
    pub fn insert_hash(&mut self, hash: u64) -> bool {
        self.insert_token(encode_token(hash, self.v))
    }

    /// Inserts an already-encoded token; returns whether it was new.
    pub fn insert_token(&mut self, token: u64) -> bool {
        match self.tokens.binary_search(&token) {
            Ok(_) => false,
            Err(pos) => {
                self.tokens.insert(pos, token);
                true
            }
        }
    }

    /// Iterates the distinct tokens in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.tokens.iter().copied()
    }

    /// Iterates representative 64-bit hashes (for densification).
    pub fn hashes(&self) -> impl Iterator<Item = u64> + '_ {
        let v = self.v;
        self.tokens.iter().map(move |&t| decode_token(t, v))
    }

    /// Inserts a batch of hashes; equivalent to [`TokenSet::insert_hash`]
    /// on each in turn. Tiny batches take the binary-search path; larger
    /// ones encode and sort only the new tokens (in a reused per-thread
    /// scratch buffer) and merge them into the existing run in place, so
    /// a batch costs O(n + k log k) instead of a memmove per new token.
    pub fn insert_hashes(&mut self, hashes: &[u64]) {
        if hashes.len() <= SMALL_BATCH {
            for &h in hashes {
                self.insert_hash(h);
            }
            return;
        }
        let v = self.v;
        SCRATCH.with(|scratch| {
            let mut new = scratch.borrow_mut();
            new.clear();
            new.extend(hashes.iter().map(|&h| encode_token(h, v)));
            new.sort_unstable();
            new.dedup();
            self.merge_sorted(&new);
        });
    }

    /// Merges the sorted, distinct run `new` into the token run in
    /// place. The vector grows by `new.len()` or an eighth of its length,
    /// whichever is more, so a set fed many small batches reallocates
    /// rarely while the many small sets of a keyed store keep little
    /// spare capacity. A backward merge fills the vector from the top: each new token gallops down
    /// to its place and the old tokens above it move up in one block, so
    /// every old token moves once at `memmove` speed and a batch of k
    /// costs O(n + k log n) however the runs interleave. The duplicates
    /// it drops leave a gap at the front, closed by one final shift.
    fn merge_sorted(&mut self, new: &[u64]) {
        let n = self.tokens.len();
        let total = n + new.len();
        if self.tokens.capacity() - n < new.len() {
            self.tokens.reserve_exact(new.len().max(n / 8));
        }
        if n == 0 || new.is_empty() || self.tokens[n - 1] < new[0] {
            self.tokens.extend_from_slice(new);
            return;
        }
        self.tokens.resize(total, 0);
        let t = &mut self.tokens[..];
        // Old tokens t[..i] are unmerged; the union fills t[w..total].
        let (mut i, mut w) = (n, total);
        for &b in new.iter().rev() {
            let p = gallop_down(&t[..i], b);
            t.copy_within(p..i, w - (i - p));
            w -= i - p;
            let duplicate = i > p && t[w] == b;
            i = p;
            if !duplicate {
                w -= 1;
                t[w] = b;
            }
        }
        if w > i {
            t.copy_within(0..i, w - i);
        }
        let gap = w - i;
        if gap > 0 {
            self.tokens.copy_within(gap.., 0);
            self.tokens.truncate(total - gap);
        }
    }

    /// Merges another token set collected with the same `v`.
    pub fn merge_from(&mut self, other: &TokenSet) -> Result<(), EllError> {
        if self.v != other.v {
            return Err(EllError::IncompatibleSketches {
                reason: format!("token parameters differ: v={} vs v={}", self.v, other.v),
            });
        }
        self.merge_sorted(&other.tokens);
        Ok(())
    }

    /// The ML distinct-count estimate directly from the token set
    /// (Algorithm 7 + the Newton solver of Algorithm 8 with m = 1).
    #[must_use]
    pub fn estimate(&self) -> f64 {
        let (alpha, beta) = self.coefficients();
        solve_ml_equation(alpha, &beta, 1.0)
    }

    /// The log-likelihood coefficients of equation (26) (Algorithm 7).
    #[must_use]
    pub fn coefficients(&self) -> (f64, [u64; MAX_EXPONENT + 1]) {
        // α' starts at 2^64 and loses each collected token's probability.
        let mut alpha_num: u128 = 1u128 << 64;
        let mut beta = [0u64; MAX_EXPONENT + 1];
        for &w in &self.tokens {
            let s = (w & 0x3f) as u32;
            let j = (self.v + 1 + s).min(64);
            beta[j as usize] += 1;
            alpha_num -= 1u128 << (64 - j);
        }
        (alpha_num as f64 / 2f64.powi(64), beta)
    }

    /// Nominal storage footprint of the collected tokens in bytes,
    /// assuming the tight (v+6)-bit encoding.
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        self.tokens.len() * (self.v as usize + 6)
    }

    /// Serializes the token set: magic `"ELLT"`, `v`, a little-endian
    /// token count, then the tokens packed at their native (v+6)-bit
    /// width in ascending order.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let width = self.v + 6;
        let mut packed = ell_bitpack::PackedArray::new(width, self.tokens.len());
        for (i, &t) in self.tokens.iter().enumerate() {
            packed.set(i, t);
        }
        let payload = packed.as_bytes();
        let mut out = Vec::with_capacity(13 + payload.len());
        out.extend_from_slice(b"ELLT");
        out.push(self.v as u8);
        out.extend_from_slice(&(self.tokens.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Restores a token set written by [`TokenSet::to_bytes`], validating
    /// the header, ordering, and that every token is a reachable bit
    /// pattern (NLZ field within `[0, 64−v]`).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EllError> {
        let corrupt = |reason: String| EllError::CorruptSerialization { reason };
        if bytes.len() < 13 || &bytes[..4] != b"ELLT" {
            return Err(corrupt("bad token-set header".into()));
        }
        let v = u32::from(bytes[4]);
        if !(1..=58).contains(&v) {
            return Err(corrupt(format!("token parameter v = {v} outside 1..=58")));
        }
        let mut len_bytes = [0u8; 8];
        len_bytes.copy_from_slice(&bytes[5..13]);
        let len = usize::try_from(u64::from_le_bytes(len_bytes))
            .map_err(|_| corrupt("token count overflows".into()))?;
        let packed = ell_bitpack::PackedArray::from_bytes(v + 6, len, &bytes[13..])
            .map_err(|e| corrupt(e.to_string()))?;
        let tokens: Vec<u64> = packed.iter().collect();
        if !tokens.windows(2).all(|w| w[0] < w[1]) {
            return Err(corrupt("tokens must be strictly ascending".into()));
        }
        for &w in &tokens {
            if (w & 0x3f) > u64::from(64 - v) {
                return Err(corrupt(format!("token {w:#x} has impossible NLZ field")));
            }
        }
        Ok(TokenSet { v, tokens })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ell_hash::SplitMix64;

    #[test]
    fn encode_decode_roundtrip_preserves_token() {
        // decode ∘ encode is not the identity on hashes, but
        // encode ∘ decode IS the identity on tokens.
        let mut rng = SplitMix64::new(1);
        for &v in &[1u32, 6, 8, 10, 12, 18, 26, 58] {
            for _ in 0..2000 {
                let h = rng.next_u64();
                let token = encode_token(h, v);
                let h2 = decode_token(token, v);
                assert_eq!(encode_token(h2, v), token, "v={v} h={h:#x}");
            }
        }
    }

    #[test]
    fn representative_hash_preserves_sketch_updates() {
        // The reconstructed hash must produce identical sketches for every
        // compatible configuration (p + t ≤ v).
        use crate::sketch::ExaLogLog;
        let v = 12u32;
        let mut rng = SplitMix64::new(2);
        let hashes: Vec<u64> = (0..5000).map(|_| rng.next_u64()).collect();
        for (t, d, p) in [(0u8, 2u8, 8u8), (2, 20, 8), (1, 9, 10), (2, 24, 10)] {
            assert!(u32::from(p) + u32::from(t) <= v);
            let mut direct = ExaLogLog::with_params(t, d, p).unwrap();
            let mut via_token = direct.clone();
            for &h in &hashes {
                direct.insert_hash(h);
                via_token.insert_hash(decode_token(encode_token(h, v), v));
            }
            assert_eq!(direct, via_token, "t={t} d={d} p={p}");
        }
    }

    #[test]
    fn token_fits_declared_width() {
        let mut rng = SplitMix64::new(3);
        for &v in &[1u32, 6, 26, 58] {
            for _ in 0..1000 {
                let token = encode_token(rng.next_u64(), v);
                assert!(
                    u128::from(token) < (1u128 << (v + 6)),
                    "v={v}: token {token:#x}"
                );
            }
        }
    }

    #[test]
    fn rho_token_sums_to_one() {
        // Equation (25): Σ_w ρ_token(w) = 1 over all 2^(v+6) patterns.
        for &v in &[1u32, 4, 6, 8] {
            let mut sum = 0.0;
            for w in 0..(1u64 << (v + 6)) {
                sum += rho_token(w, v);
            }
            assert!((sum - 1.0).abs() < 1e-9, "v={v}: Σρ = {sum}");
        }
    }

    #[test]
    fn rho_token_zero_for_unreachable_patterns() {
        let v = 6u32;
        // NLZ field larger than 64−v is impossible.
        assert_eq!(rho_token(59, v), 0.0); // s = 59 > 58
        assert!(rho_token(58, v) > 0.0);
    }

    #[test]
    fn set_deduplicates() {
        let mut set = TokenSet::new(10).unwrap();
        let mut rng = SplitMix64::new(4);
        let hashes: Vec<u64> = (0..300).map(|_| rng.next_u64()).collect();
        for &h in &hashes {
            set.insert_hash(h);
        }
        let n = set.len();
        for &h in &hashes {
            assert!(!set.insert_hash(h));
        }
        assert_eq!(set.len(), n);
        // Tokens iterate sorted.
        let tokens: Vec<u64> = set.iter().collect();
        assert!(tokens.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn estimate_tracks_true_count() {
        // v = 26 (32-bit tokens): error is tiny for n ≤ 10^5 (Figure 9).
        let mut set = TokenSet::new(26).unwrap();
        let mut rng = SplitMix64::new(5);
        let mut n = 0usize;
        for target in [100usize, 1_000, 10_000] {
            while n < target {
                set.insert_hash(rng.next_u64());
                n += 1;
            }
            let est = set.estimate();
            let rel = est / target as f64 - 1.0;
            assert!(rel.abs() < 0.02, "n={target}: off by {:.2} %", rel * 100.0);
        }
    }

    #[test]
    fn small_v_estimate_has_more_error_but_works() {
        let mut set = TokenSet::new(8).unwrap();
        let mut rng = SplitMix64::new(6);
        for _ in 0..2000 {
            set.insert_hash(rng.next_u64());
        }
        let est = set.estimate();
        assert!((est / 2000.0 - 1.0).abs() < 0.15, "{est}");
    }

    #[test]
    fn merge_is_union() {
        let mut a = TokenSet::new(12).unwrap();
        let mut b = TokenSet::new(12).unwrap();
        let mut all = TokenSet::new(12).unwrap();
        let mut rng = SplitMix64::new(7);
        for i in 0..400 {
            let h = rng.next_u64();
            if i % 2 == 0 {
                a.insert_hash(h);
            }
            if i % 3 == 0 {
                b.insert_hash(h);
            }
            if i % 2 == 0 || i % 3 == 0 {
                all.insert_hash(h);
            }
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a, all);
        // Mismatched v rejected.
        let c = TokenSet::new(13).unwrap();
        assert!(a.merge_from(&c).is_err());
    }

    #[test]
    fn batched_insert_equals_one_by_one() {
        // Batches of every size class, with repeats inside a batch and
        // against tokens already present, in both merge directions.
        let mut rng = SplitMix64::new(8);
        let pool: Vec<u64> = (0..700).map(|_| rng.next_u64()).collect();
        let mut batched = TokenSet::new(12).unwrap();
        let mut single = TokenSet::new(12).unwrap();
        for len in [0usize, 1, 3, 4, 5, 17, 64, 200, 2, 500, 900, 7] {
            let batch: Vec<u64> = (0..len)
                .map(|_| pool[(rng.next_u64() % pool.len() as u64) as usize])
                .collect();
            batched.insert_hashes(&batch);
            for &h in &batch {
                single.insert_hash(h);
            }
            assert_eq!(batched, single, "after a batch of {len}");
        }
        // Appending strictly larger tokens takes the no-merge shortcut.
        let top: Vec<u64> = (0..10).map(|i| u64::MAX - i).collect();
        batched.insert_hashes(&top);
        for &h in &top {
            single.insert_hash(h);
        }
        assert_eq!(batched, single);
    }

    #[test]
    fn empty_set_estimates_zero() {
        let set = TokenSet::new(26).unwrap();
        assert_eq!(set.estimate(), 0.0);
        let (alpha, beta) = set.coefficients();
        assert_eq!(alpha, 1.0);
        assert!(beta.iter().all(|&b| b == 0));
    }

    #[test]
    fn rejects_invalid_v() {
        assert!(TokenSet::new(0).is_err());
        assert!(TokenSet::new(59).is_err());
        assert!(TokenSet::new(1).is_ok());
        assert!(TokenSet::new(58).is_ok());
    }

    #[test]
    fn serialization_roundtrip() {
        let mut rng = SplitMix64::new(11);
        for &v in &[1u32, 10, 26, 58] {
            let set = TokenSet::from_hashes(v, (0..3000).map(|_| rng.next_u64())).unwrap();
            let bytes = set.to_bytes();
            // Tight packing: 13-byte header + ⌈len·(v+6)/8⌉.
            assert_eq!(bytes.len(), 13 + (set.len() * (v as usize + 6)).div_ceil(8));
            let restored = TokenSet::from_bytes(&bytes).unwrap();
            assert_eq!(restored, set, "v={v}");
        }
        // Empty set round-trips too.
        let empty = TokenSet::new(26).unwrap();
        assert_eq!(TokenSet::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn serialization_rejects_corruption() {
        let mut rng = SplitMix64::new(12);
        let set = TokenSet::from_hashes(10, (0..500).map(|_| rng.next_u64())).unwrap();
        let good = set.to_bytes();
        assert!(TokenSet::from_bytes(&good[..10]).is_err()); // truncated
        let mut bad = good.clone();
        bad[0] ^= 0xff; // magic
        assert!(TokenSet::from_bytes(&bad).is_err());
        let mut bad = good.clone();
        bad[4] = 0; // v out of range
        assert!(TokenSet::from_bytes(&bad).is_err());
        let mut bad = good.clone();
        bad[5] = bad[5].wrapping_add(1); // count mismatch vs payload
        assert!(TokenSet::from_bytes(&bad).is_err());
    }
}
