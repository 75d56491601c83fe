//! Entropy-coded serialization — the paper's §6 future-work direction.
//!
//! Figures 6 and 7 show that an *optimally compressed* ExaLogLog state
//! would need roughly 35–45 % fewer bits than the dense register array.
//! §6 suggests that "since the shape of the register distribution is
//! known (see Section 3.1), some sort of entropy coding could be a way to
//! approach the theoretical limit". This module implements exactly that:
//!
//! 1. estimate n̂ from the registers (the ML estimate);
//! 2. derive each register's probability model from the §3.1 PMF — the
//!    maximum update value `u` follows the distribution (13), and each
//!    indicator bit is an independent Bernoulli with probability
//!    Pr(A_k) = 1 − e^(−n̂·ρ(k)/m) (12);
//! 3. drive a binary arithmetic coder with that model.
//!
//! Because the decoder re-derives the identical model from the n̂ carried
//! in the header, coding is fully deterministic and lossless. The achieved
//! size lands within a few percent of the Shannon entropy, which the
//! extension experiment (`ell-repro --bin ext_compression`) compares to
//! the equation-(5) prediction.

use crate::config::{EllConfig, EllError};
use crate::pmf::{omega, rho_update};
use crate::sketch::ExaLogLog;

/// Magic for the compressed format.
const MAGIC: &[u8; 4] = b"ELLZ";

// ---------------------------------------------------------------------
// Binary arithmetic coder: the LZMA-style carry-propagating range coder
// (32-bit range, byte-wise renormalization, cache/pending-0xFF carry
// handling). Proven design; the round-trip property tests hammer it.
// ---------------------------------------------------------------------

const PROB_BITS: u32 = 16;
const PROB_ONE: u32 = 1 << PROB_BITS;
const TOP: u32 = 1 << 24;

struct Encoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl Encoder {
    fn new() -> Self {
        Encoder {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
        }
    }

    fn shift_low(&mut self) {
        if (self.low as u32) < 0xff00_0000 || (self.low >> 32) != 0 {
            let carry = (self.low >> 32) as u8;
            self.out.push(self.cache.wrapping_add(carry));
            for _ in 1..self.cache_size {
                self.out.push(0xffu8.wrapping_add(carry));
            }
            self.cache = (self.low >> 24) as u8;
            self.cache_size = 0;
        }
        self.cache_size += 1;
        self.low = u64::from((self.low as u32) << 8);
    }

    /// Encodes one bit with P(bit = 1) = `p1` (in 1/2^16 units, clamped
    /// away from 0 and 1 so both symbols stay codable).
    fn encode(&mut self, bit: bool, p1: u32) {
        let p1 = p1.clamp(1, PROB_ONE - 1);
        let bound = (self.range >> PROB_BITS) * p1;
        if bit {
            self.range = bound;
        } else {
            self.low += u64::from(bound);
            self.range -= bound;
        }
        while self.range < TOP {
            self.range <<= 8;
            self.shift_low();
        }
    }

    fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

struct Decoder<'a> {
    range: u32,
    code: u32,
    input: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn new(input: &'a [u8]) -> Self {
        let mut d = Decoder {
            range: u32::MAX,
            code: 0,
            input,
            pos: 0,
        };
        // The first emitted byte is the encoder's initial cache (possibly
        // plus a carry); the decoder consumes it and loads 4 code bytes.
        let _ = d.next_byte();
        for _ in 0..4 {
            d.code = (d.code << 8) | u32::from(d.next_byte());
        }
        d
    }

    fn next_byte(&mut self) -> u8 {
        let b = self.input.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    fn decode(&mut self, p1: u32) -> bool {
        let p1 = p1.clamp(1, PROB_ONE - 1);
        let bound = (self.range >> PROB_BITS) * p1;
        let bit = self.code < bound;
        if bit {
            self.range = bound;
        } else {
            self.code -= bound;
            self.range -= bound;
        }
        while self.range < TOP {
            self.range <<= 8;
            self.code = (self.code << 8) | u32::from(self.next_byte());
        }
        bit
    }
}

// ---------------------------------------------------------------------
// Register model from the §3.1 PMF.
// ---------------------------------------------------------------------

/// Per-sketch probability model derived from n̂.
struct RegisterModel {
    /// P(u > threshold | u ≥ threshold) for each u level, as coder probs.
    /// Used to code the maximum update value with a unary-style cascade.
    continue_probs: Vec<u32>,
    /// P(indicator bit set) for each update value k (1-indexed).
    bit_probs: Vec<u32>,
}

fn to_prob(p: f64) -> u32 {
    ((p * f64::from(PROB_ONE)) as u32).clamp(1, PROB_ONE - 1)
}

impl RegisterModel {
    fn build(cfg: &EllConfig, n_hat: f64) -> Self {
        let m = cfg.m() as f64;
        let rate = (n_hat / m).max(1e-12);
        let kmax = cfg.max_update_value();
        // P(max value ≥ u) = 1 − exp(−rate·(ω(u−1)))... derived from (13):
        // the maximum is ≥ u iff some value ≥ u occurred, which has total
        // probability ω(u−1).
        let p_ge = |u: u64| -> f64 {
            if u == 0 {
                1.0
            } else {
                -(-rate * omega(cfg, u - 1)).exp_m1()
            }
        };
        let mut continue_probs = Vec::with_capacity(kmax as usize + 1);
        for u in 0..=kmax {
            // P(max ≥ u+1 | max ≥ u)
            let num = if u == kmax { 0.0 } else { p_ge(u + 1) };
            let den = p_ge(u);
            let p = if den > 0.0 { (num / den).min(1.0) } else { 0.0 };
            continue_probs.push(to_prob(p));
        }
        let mut bit_probs = Vec::with_capacity(kmax as usize + 1);
        bit_probs.push(0); // k = 0 unused
        for k in 1..=kmax {
            bit_probs.push(to_prob(-(-rate * rho_update(cfg, k)).exp_m1()));
        }
        RegisterModel {
            continue_probs,
            bit_probs,
        }
    }
}

// ---------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------

/// Serializes a sketch with entropy coding. Typically 35–45 % smaller
/// than [`ExaLogLog::to_bytes`] in the mid-range of distinct counts,
/// approaching the equation-(5) optimum (Figure 6).
#[must_use]
pub fn compress(sketch: &ExaLogLog) -> Vec<u8> {
    let cfg = *sketch.config();
    let n_hat = sketch.estimate_ml_raw();
    let model = RegisterModel::build(&cfg, n_hat);
    let d = cfg.d();
    let mut enc = Encoder::new();
    // A zero register (u = 0) codes as exactly one "stop" bit at level 0.
    // Scanning only the nonzero registers through the word kernels and
    // gap-filling that stop bit for the runs of empty registers in
    // between produces a bit-identical stream to the historical
    // every-register loop, while empty stretches cost one word compare
    // per 64 bits instead of a register decode each.
    let zero_codes = cfg.max_update_value() > 0;
    let mut next = 0usize;
    sketch.for_each_nonzero_register(|i, r| {
        if zero_codes {
            for _ in next..i {
                enc.encode(false, model.continue_probs[0]);
            }
        }
        next = i + 1;
        let u = r >> d;
        // Unary-cascade code for u: one "continue" bit per level.
        for level in 0..u {
            enc.encode(true, model.continue_probs[level as usize]);
        }
        if u < cfg.max_update_value() {
            enc.encode(false, model.continue_probs[u as usize]);
        }
        // Indicator bits for values [max(1, u−d), u−1]; the sentinel bit
        // (position d−u when u ≤ d) is implied and not coded.
        if u >= 2 {
            let k_lo = if u > u64::from(d) {
                u - u64::from(d)
            } else {
                1
            };
            for k in k_lo..u {
                let bit = r & (1u64 << (u64::from(d) - (u - k))) != 0;
                enc.encode(bit, model.bit_probs[k as usize]);
            }
        }
    });
    if zero_codes {
        for _ in next..cfg.m() {
            enc.encode(false, model.continue_probs[0]);
        }
    }
    let payload = enc.finish();
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&[cfg.t(), cfg.d(), cfg.p(), 0]);
    out.extend_from_slice(&n_hat.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validates the header of a [`compress`] payload, returning its
/// configuration and carried estimate. [`decompress`] fails exactly when
/// this does: every range-coded body decodes to some register state
/// (input past its end reads as zero bytes), so a caller that only needs
/// to know whether a payload will decompress can stop here.
///
/// # Errors
///
/// Fails on a short header or a wrong magic, an invalid configuration,
/// or a carried estimate that is not a finite non-negative number.
pub fn check_header(bytes: &[u8]) -> Result<(EllConfig, f64), EllError> {
    if bytes.len() < 16 || &bytes[..4] != MAGIC {
        return Err(EllError::CorruptSerialization {
            reason: "bad compressed header".into(),
        });
    }
    let cfg = EllConfig::new(bytes[4], bytes[5], bytes[6])?;
    let mut n_bytes = [0u8; 8];
    n_bytes.copy_from_slice(&bytes[8..16]);
    let n_hat = f64::from_le_bytes(n_bytes);
    if !n_hat.is_finite() || n_hat < 0.0 {
        return Err(EllError::CorruptSerialization {
            reason: format!("invalid carried estimate {n_hat}"),
        });
    }
    Ok((cfg, n_hat))
}

/// Restores a sketch serialized with [`compress`].
///
/// # Errors
///
/// Fails exactly when [`check_header`] does.
pub fn decompress(bytes: &[u8]) -> Result<ExaLogLog, EllError> {
    let (cfg, n_hat) = check_header(bytes)?;
    let model = RegisterModel::build(&cfg, n_hat);
    let d = cfg.d();
    let kmax = cfg.max_update_value();
    let mut dec = Decoder::new(&bytes[16..]);
    let mut sketch = ExaLogLog::new(cfg);
    for i in 0..cfg.m() {
        let mut u = 0u64;
        while u < kmax && dec.decode(model.continue_probs[u as usize]) {
            u += 1;
        }
        if u == 0 {
            continue;
        }
        let mut r = u << d;
        if u <= u64::from(d) {
            r |= 1 << (u64::from(d) - u); // implied sentinel
        }
        if u >= 2 {
            let k_lo = if u > u64::from(d) {
                u - u64::from(d)
            } else {
                1
            };
            for k in k_lo..u {
                if dec.decode(model.bit_probs[k as usize]) {
                    r |= 1 << (u64::from(d) - (u - k));
                }
            }
        }
        sketch.set_register_unchecked(i, r);
    }
    // The raw register overwrites above dropped the incremental ML
    // coefficient cache; rebuild it here so a decompressed sketch —
    // like any other deserialized sketch — estimates at cached speed
    // instead of silently paying the Algorithm 3 scan on every call.
    sketch.refresh_coefficients();
    Ok(sketch)
}

/// The Shannon entropy of the sketch's state in bits under its own fitted
/// model — the floor any entropy coder can approach, and the quantity the
/// Figure 6/7 "optimal compression" MVPs refer to.
#[must_use]
pub fn state_entropy_bits(sketch: &ExaLogLog) -> f64 {
    let cfg = *sketch.config();
    let n_hat = sketch.estimate_ml_raw();
    let m = cfg.m() as f64;
    let rate = (n_hat / m).max(1e-300);
    let d = cfg.d();
    let kmax = cfg.max_update_value();
    // H = m · [H(U) + Σ_u P(U=u) Σ_{window} H_b(Pr(A_k))], computed
    // analytically thanks to the independence of the indicator events.
    let p_ge = |u: u64| -> f64 {
        if u == 0 {
            1.0
        } else {
            -(-rate * omega(&cfg, u - 1)).exp_m1()
        }
    };
    let mut h_u = 0.0;
    let mut h_bits = 0.0;
    for u in 0..=kmax {
        let p_u = (p_ge(u) - p_ge(u + 1)).max(0.0);
        h_u += ell_numerics::entropy_term(p_u);
        if u >= 2 && p_u > 0.0 {
            let k_lo = if u > u64::from(d) {
                u - u64::from(d)
            } else {
                1
            };
            let mut h_window = 0.0;
            for k in k_lo..u {
                let p_set = -(-rate * rho_update(&cfg, k)).exp_m1();
                h_window += ell_numerics::binary_entropy(p_set.clamp(0.0, 1.0));
            }
            h_bits += p_u * h_window;
        }
    }
    m * (h_u + h_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ell_hash::SplitMix64;

    fn build(t: u8, d: u8, p: u8, n: usize, seed: u64) -> ExaLogLog {
        let mut s = ExaLogLog::with_params(t, d, p).unwrap();
        let mut rng = SplitMix64::new(seed);
        for _ in 0..n {
            s.insert_hash(rng.next_u64());
        }
        s
    }

    #[test]
    fn decompress_fails_exactly_when_the_header_check_does() {
        let bytes = compress(&build(2, 20, 8, 3000, 5));
        let mut cases: Vec<Vec<u8>> = (0..=bytes.len()).map(|n| bytes[..n].to_vec()).collect();
        for i in 0..bytes.len() {
            for bit in [0, 3, 7] {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                cases.push(flipped);
            }
        }
        let mut body_only = 0;
        for case in &cases {
            assert_eq!(check_header(case).is_ok(), decompress(case).is_ok());
            body_only += usize::from(case.len() > 16 && check_header(case).is_ok());
        }
        // Truncated and flipped bodies are part of the sweep, and decode.
        assert!(body_only > bytes.len());
    }

    #[test]
    fn roundtrip_lossless() {
        for (t, d, p) in [
            (0u8, 2u8, 8u8),
            (1, 9, 8),
            (2, 20, 8),
            (2, 24, 6),
            (2, 16, 10),
        ] {
            for n in [0usize, 1, 10, 1000, 100_000] {
                let s = build(t, d, p, n, 99);
                let packed = compress(&s);
                let restored = decompress(&packed).unwrap();
                assert_eq!(restored, s, "t={t} d={d} p={p} n={n}");
            }
        }
    }

    #[test]
    fn decompressed_sketch_estimates_through_the_cache() {
        // Regression: `decompress` used to return the sketch with the
        // ML cache dropped by its raw register overwrites.
        let s = build(2, 20, 8, 30_000, 17);
        let restored = decompress(&compress(&s)).unwrap();
        assert!(
            restored.has_cached_coefficients(),
            "decompressed sketch must take the cached estimation path"
        );
        assert_eq!(restored.estimate().to_bits(), s.estimate().to_bits());
    }

    #[test]
    fn compression_saves_space_midrange() {
        // At n comparable to m·2^k the register distribution is far from
        // uniform, so entropy coding must beat the dense array clearly.
        let s = build(2, 20, 10, 200_000, 5);
        let dense = s.to_bytes().len();
        let packed = compress(&s).len();
        assert!(
            (packed as f64) < 0.75 * dense as f64,
            "compressed {packed} B vs dense {dense} B"
        );
    }

    #[test]
    fn compressed_size_near_entropy() {
        let s = build(2, 20, 10, 50_000, 6);
        let entropy_bytes = state_entropy_bits(&s) / 8.0;
        let packed = compress(&s).len() as f64 - 16.0; // header excluded
        assert!(
            packed < entropy_bytes * 1.1 + 16.0,
            "coder {packed:.0} B vs entropy floor {entropy_bytes:.0} B"
        );
        assert!(
            packed > entropy_bytes * 0.9 - 16.0,
            "coder beats entropy?! {packed:.0} B vs {entropy_bytes:.0} B"
        );
    }

    #[test]
    fn entropy_tracks_figure6_prediction() {
        // Equation (5): MVP_compressed ≈ entropy_bits × relvar. Check the
        // state entropy per register is in the ballpark the theory gives:
        // bits/register ≈ MVP5 / (MVP3 / (q+d)) … equivalently
        // entropy_bits ≈ MVP5 · ζ(2,1+τ) / ln b · … — use the direct form:
        // predicted compressed MVP = entropy · relvar where relvar =
        // MVP3/((q+d)m) by (1). So entropy/m ≈ MVP5/MVP3·(q+d).
        let s = build(2, 20, 10, 100_000, 7);
        let m = 1024.0;
        let predicted_bits_per_reg =
            crate::theory::mvp_ml_compressed(2, 20) / crate::theory::mvp_ml_dense(2, 20) * 28.0;
        let measured = state_entropy_bits(&s) / m;
        assert!(
            (measured / predicted_bits_per_reg - 1.0).abs() < 0.15,
            "bits/register {measured:.2} vs predicted {predicted_bits_per_reg:.2}"
        );
    }

    #[test]
    fn corrupt_compressed_header_rejected() {
        let s = build(2, 20, 6, 100, 8);
        let mut bytes = compress(&s);
        bytes[0] ^= 0xff;
        assert!(decompress(&bytes).is_err());
        let mut bytes = compress(&s);
        bytes[6] = 1; // invalid p
        assert!(decompress(&bytes).is_err());
        assert!(decompress(&[0u8; 3]).is_err());
    }
}
