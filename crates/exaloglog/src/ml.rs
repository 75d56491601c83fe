//! Maximum-likelihood estimation (paper §3.2 and Appendix A).
//!
//! Because every update-value probability is a power of two, the
//! log-likelihood of an ExaLogLog state collapses to the two-parameter
//! family of equation (15):
//!
//! ln L(n) = −(n/m)·α + Σ_u β_u · ln(1 − e^(−n/(m·2^u)))
//!
//! [`compute_coefficients`] extracts (α, β) from the registers with pure
//! integer arithmetic (Algorithm 3); [`solve_ml_equation`] finds the ML
//! root with the monotone, concave-safe Newton iteration of Algorithm 8,
//! which converges in a handful of iterations from the Lemma B.3 starting
//! point and never overshoots.
//!
//! # The column-count scan
//!
//! Algorithm 3 as written visits every indicator bit of every register:
//! O(m·d) data-dependent branches. But a register's contribution depends
//! only on its maximum u and its indicator bits, and every register with
//! the same u maps indicator bit b to the same update value
//! k = u − d + b and probability level φ(k). [`compute_coefficients`]
//! therefore only *counts*: registers per u, and, per u, how many of them
//! have each indicator bit set. Each indicator byte is spread into eight
//! byte lanes of a `u64` by a 256-entry table and added to a per-u lane
//! accumulator (one table load and one add per 8 bits); the lanes are
//! folded into per-bit column counters before any lane can overflow. The
//! column counts turn into exact (α·2^64, β) once at the end, so the
//! result is bit-identical to a fold of [`add_register`], the paper's
//! per-bit loop kept as the test oracle. At p = 12 with ELL(2, 20) this
//! cuts a scan from ~310 µs to ~23 µs (`bench_registers`, 2-core Intel
//! Xeon).
//!
//! Because each register's contribution to (α, β) is independent of every
//! other register and all arithmetic is exact (α is tracked as the integer
//! α·2^64, β as counts), the coefficients can also be maintained
//! *incrementally*. [`apply_register_change`] is the one place that knows
//! how a register change moves probability mass: it applies the change's
//! terms to a `u128` coefficient set. The incremental path is
//! bit-identical to a fresh [`compute_coefficients`] scan — `ExaLogLog`
//! keeps a cached coefficient set up to date through it and asserts the
//! equivalence in debug builds.
//!
//! The same machinery estimates from *hash-token* sets (Algorithm 7 uses
//! m = 1) and from PCSA states, since those likelihoods share shape (15).

use crate::config::EllConfig;
use crate::pmf::{exp2_neg, omega_exact, phi};

/// Exponent range of the β coefficients: β\[u\] multiplies
/// ln(1 − e^(−n/(m·2^u))); valid u never exceeds 64.
pub const MAX_EXPONENT: usize = 64;

/// Coefficients (α, β) of the log-likelihood function (15).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlCoefficients {
    /// The linear coefficient α ≥ 0, stored exactly as α·2^64 to keep
    /// Algorithm 3's accumulation in integer arithmetic.
    pub alpha_times_2_64: u128,
    /// β\[u\] counts log terms with probability 2^(−u), u ∈ \[0, 64\].
    pub beta: [u64; MAX_EXPONENT + 1],
}

impl MlCoefficients {
    /// α as a float (exact to f64 precision).
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha_times_2_64 as f64 / 2f64.powi(64)
    }

    /// Total number of recorded update events Σ_u β_u.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.beta.iter().sum()
    }
}

/// The coefficient set of an *empty* sketch with `m` registers:
/// α = m (every register contributes its full tail probability ω(0) = 1)
/// and no recorded events.
#[must_use]
pub fn empty_coefficients(m: usize) -> MlCoefficients {
    MlCoefficients {
        alpha_times_2_64: (m as u128) << 64,
        beta: [0u64; MAX_EXPONENT + 1],
    }
}

/// Extracts the log-likelihood coefficients from register values
/// (Algorithm 3 of the paper) with the column-count scan described in the
/// module docs.
///
/// `registers` must yield exactly the m = 2^p valid register values of a
/// sketch with configuration `cfg`. All contributions to α are integer
/// multiples of 2^(p−64), so the sum is exact and equals a fold of
/// [`add_register`] over the same registers.
#[must_use]
pub fn compute_coefficients(
    cfg: &EllConfig,
    registers: impl Iterator<Item = u64>,
) -> MlCoefficients {
    let mut scan = ColumnScan::new(cfg);
    for r in registers {
        scan.add(r);
    }
    debug_assert_eq!(
        scan.columns.iter().map(|c| c.registers).sum::<u64>(),
        cfg.m() as u64,
        "register count must equal m"
    );
    scan.finish()
}

/// `SPREAD[b]` holds bit `l` of the byte `b` in byte lane `l`, so adding
/// it to a `u64` counts eight indicator bits at once.
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut lane = 0;
        while lane < 8 {
            if (b >> lane) & 1 == 1 {
                table[b] |= 1 << (8 * lane);
            }
            lane += 1;
        }
        b += 1;
    }
    table
};

/// Byte groups needed for the widest indicator field (d ≤ 58).
const MAX_GROUPS: usize = 8;
/// No marker in [`ColumnScan::index`]: no register with that maximum yet.
const NO_COLUMN: u16 = u16::MAX;

/// Counts for all registers that share one maximum u.
struct Column {
    u: u64,
    /// Registers with this maximum.
    registers: u64,
    /// Registers added to `lanes` since the last fold; folding at 255
    /// keeps every byte lane from overflowing.
    unfolded: u8,
    /// Byte-lane accumulators: lane `l` of group `g` counts bit `8g + l`.
    lanes: [u64; MAX_GROUPS],
    /// Folded per-indicator-bit counts of set bits.
    set_bits: [u32; 8 * MAX_GROUPS],
}

impl Column {
    fn fold(&mut self, groups: usize) {
        for (g, lanes) in self.lanes[..groups].iter_mut().enumerate() {
            for (l, count) in self.set_bits[8 * g..8 * g + 8].iter_mut().enumerate() {
                *count += ((*lanes >> (8 * l)) & 0xff) as u32;
            }
            *lanes = 0;
        }
        self.unfolded = 0;
    }
}

/// Accumulator of the column-count scan: feed it every register (or
/// count runs of empty ones), then [`ColumnScan::finish`].
pub(crate) struct ColumnScan<'a> {
    cfg: &'a EllConfig,
    /// Mask of the d indicator bits.
    indicators: u64,
    /// Byte groups of the indicator field, ⌈d/8⌉.
    groups: usize,
    /// u → position in `columns`, or [`NO_COLUMN`].
    index: Vec<u16>,
    columns: Vec<Column>,
}

impl<'a> ColumnScan<'a> {
    pub(crate) fn new(cfg: &'a EllConfig) -> Self {
        // Valid maxima lie in [0, max_update_value] ≤ 3648, far below
        // the u16 column-index range.
        let u_range = cfg.max_update_value() as usize + 1;
        ColumnScan {
            cfg,
            indicators: ell_bitpack::mask(u32::from(cfg.d())),
            groups: usize::from(cfg.d()).div_ceil(8),
            index: vec![NO_COLUMN; u_range],
            columns: Vec::new(),
        }
    }

    /// The column for maximum `u`, opened on first use.
    #[inline]
    fn column(&mut self, u: u64) -> &mut Column {
        let mut at = self.index[u as usize];
        if at == NO_COLUMN {
            at = self.open(u);
        }
        &mut self.columns[usize::from(at)]
    }

    /// Opens an empty column for maximum `u` and returns its position.
    #[cold]
    #[inline(never)]
    fn open(&mut self, u: u64) -> u16 {
        let at = self.columns.len() as u16;
        self.index[u as usize] = at;
        self.columns.push(Column {
            u,
            registers: 0,
            unfolded: 0,
            lanes: [0; MAX_GROUPS],
            set_bits: [0; 8 * MAX_GROUPS],
        });
        at
    }

    /// Adds one (valid) register value.
    #[inline]
    pub(crate) fn add(&mut self, r: u64) {
        let (groups, mut bits) = (self.groups, r & self.indicators);
        let col = self.column(r >> self.cfg.d());
        col.registers += 1;
        for lanes in &mut col.lanes[..groups] {
            *lanes += SPREAD[(bits & 0xff) as usize];
            bits >>= 8;
        }
        col.unfolded += 1;
        if col.unfolded == u8::MAX {
            col.fold(groups);
        }
    }

    /// Adds `n` empty registers at once.
    pub(crate) fn add_empty(&mut self, n: u64) {
        self.column(0).registers += n;
    }

    /// Turns the column counts into exact coefficients: per column, the
    /// register count carries ω(u) and the β event of the maximum, and
    /// each indicator bit b (update value k = u − d + b ≥ 1) moves its
    /// set count to β\[φ(k)\] and its clear count to α.
    pub(crate) fn finish(mut self) -> MlCoefficients {
        let cfg = self.cfg;
        let d = u64::from(cfg.d());
        let mut coeffs = empty_coefficients(0);
        for col in &mut self.columns {
            col.fold(self.groups);
            let (u, n) = (col.u, col.registers);
            let (num, e) = omega_exact(cfg, u);
            coeffs.alpha_times_2_64 += u128::from(n) * (u128::from(num) << (64 - e));
            if u >= 1 {
                coeffs.beta[phi(cfg, u) as usize] += n;
            }
            // Bits below d + 1 − u would stand for k ≤ 0: the sentinel of
            // a register with u ≤ d, never an update value.
            for b in (d + 1).saturating_sub(u)..d {
                let j = phi(cfg, u + b - d);
                let set = u64::from(col.set_bits[b as usize]);
                coeffs.beta[j as usize] += set;
                coeffs.alpha_times_2_64 += u128::from(n - set) << (64 - j);
            }
        }
        coeffs
    }
}

/// 2^64·ω(u): the α share of the values above a register maximum u.
fn omega_times_2_64(cfg: &EllConfig, u: u64) -> u128 {
    let (num, e) = omega_exact(cfg, u);
    u128::from(num) << (64 - e)
}

/// Replaces one register's contribution: applies the Algorithm 3 terms
/// that turn the coefficients of register value `old` into those of
/// `new`, where `new` is `old` joined with further updates (an insert or
/// a register merge).
///
/// Algorithm 3 gives every update value k one of three roles in a
/// register with maximum u: unseen (k > u, or an unset indicator bit),
/// adding 2^(−φ(k)) to α; seen (k = u, or a set indicator bit), adding
/// one to β\[φ(k)\]; or below the indicator window, adding nothing. A
/// transition only moves values from unseen to seen, and from either
/// role to below the window, so α never increases. The terms are
/// applied value by value, except for the unseen values that drop
/// straight below the new window, which leave α as one difference of
/// tail probabilities ω. The cost is O(values that change role), not
/// O(d).
pub fn apply_register_change(coeffs: &mut MlCoefficients, cfg: &EllConfig, old: u64, new: u64) {
    let d = cfg.d();
    let d64 = u64::from(d);
    let indicators = ell_bitpack::mask(u32::from(d));
    let (u, v) = (old >> d, new >> d);
    debug_assert!(v >= u, "register maxima only grow");
    let up = v - u;
    // The values `old` has seen, in the frame of `new`: bit b stands for
    // value v − d + b. The old maximum is the implicit bit d of its field.
    let shifted = if up == 0 {
        old & indicators
    } else if u == 0 || up > d64 {
        0
    } else {
        ((1u64 << d) | (old & indicators)) >> up
    };
    // Bits below d + 1 − v would stand for values k ≤ 0: the sentinel of
    // a register with maximum ≤ d, never an update value.
    let valid = indicators & !ell_bitpack::mask((d64 + 1).saturating_sub(v) as u32);
    debug_assert_eq!(shifted & valid & !new, 0, "register bits may only be added");

    let mut alpha_drop = 0i128;
    let mut seen = |coeffs: &mut MlCoefficients, k: u64| {
        let j = phi(cfg, k);
        alpha_drop += 1i128 << (64 - j);
        coeffs.beta[j as usize] += 1;
    };
    let mut added = new & valid & !shifted;
    while added != 0 {
        seen(coeffs, v + u64::from(added.trailing_zeros()) - d64);
        added &= added - 1;
    }
    // Bits of the old field (value u − d + b) that fall below the new
    // window, restricted to update values k ≥ 1.
    let mut dropped = 0u64;
    let mut old_field = 0u64;
    if up > 0 {
        seen(coeffs, v);
        if u > 0 {
            old_field = (1u64 << d) | (old & indicators);
            let below_one = ell_bitpack::mask((d64 + 1).saturating_sub(u) as u32);
            dropped = ell_bitpack::mask(up.min(d64 + 1) as u32) & !below_one;
            let mut unseen = dropped & !old_field;
            while unseen != 0 {
                let k = u + u64::from(unseen.trailing_zeros()) - d64;
                alpha_drop += 1i128 << (64 - phi(cfg, k));
                unseen &= unseen - 1;
            }
        }
        // The values strictly between the old maximum and the new window
        // were all unseen.
        if v > u + d64 + 1 {
            alpha_drop +=
                omega_times_2_64(cfg, u) as i128 - omega_times_2_64(cfg, v - d64 - 1) as i128;
        }
    }
    debug_assert!(alpha_drop >= 0, "a register transition never raises α");
    coeffs.alpha_times_2_64 -= alpha_drop as u128;
    let mut gone = dropped & old_field;
    while gone != 0 {
        let k = u + u64::from(gone.trailing_zeros()) - d64;
        let j = phi(cfg, k) as usize;
        debug_assert!(coeffs.beta[j] > 0, "β[{j}] underflow");
        coeffs.beta[j] -= 1;
        gone &= gone - 1;
    }
}

/// Adds one register's contribution to a coefficient set (one loop
/// iteration of Algorithm 3, as the paper states it: ω(u) to α, the
/// maximum to β, then one step per indicator bit). Exact integer
/// arithmetic: folding the same registers in any order yields
/// bit-identical coefficients. No estimator uses this loop; it is the
/// independent reference that the tests check [`apply_register_change`]
/// and the column-count scan against, and the baseline
/// `bench_registers` times the scan against.
pub fn add_register(coeffs: &mut MlCoefficients, cfg: &EllConfig, r: u64) {
    let d = cfg.d();
    let p = u32::from(cfg.p());
    let u = r >> d;
    let (num, e) = omega_exact(cfg, u);
    debug_assert!(e <= 64 - p);
    coeffs.alpha_times_2_64 += u128::from(num) << (64 - e);
    if u >= 1 {
        coeffs.beta[phi(cfg, u) as usize] += 1;
    }
    if u >= 2 {
        let k_lo = if u > u64::from(d) {
            u - u64::from(d)
        } else {
            1
        };
        for k in k_lo..u {
            let j = phi(cfg, k);
            if r & (1u64 << (u64::from(d) - (u - k))) == 0 {
                coeffs.alpha_times_2_64 += 1u128 << (64 - j);
            } else {
                coeffs.beta[j as usize] += 1;
            }
        }
    }
}

/// Solves the ML equation f(x) = α·2^(u_max)·x − φ(x) = 0 and returns the
/// distinct-count estimate n̂ = m·2^(u_max)·ln(1 + x̂)
/// (Algorithm 8 of the paper, including the numerically robust recursions
/// (20)–(22) and (30) and both stop conditions).
///
/// Returns 0 when all β_u are zero (pristine sketch) and `f64::INFINITY`
/// when α = 0 (fully saturated sketch — unreachable for realistic counts).
#[must_use]
pub fn solve_ml_equation(alpha: f64, beta: &[u64; MAX_EXPONENT + 1], m: f64) -> f64 {
    // Locate the support [u_min, u_max] of β and the Lemma B.3 sums.
    let mut u_min = usize::MAX;
    let mut u_max = 0usize;
    let mut sigma0 = 0.0f64;
    let mut sigma1 = 0.0f64; // Σ β_j 2^(−j), scaled by 2^(u_max) below
    for (j, &b) in beta.iter().enumerate() {
        if b > 0 {
            if u_min == usize::MAX {
                u_min = j;
            }
            u_max = j;
            sigma0 += b as f64;
            sigma1 += b as f64 * exp2_neg(j as u32);
        }
    }
    if u_min == usize::MAX {
        return 0.0;
    }
    if alpha <= 0.0 {
        return f64::INFINITY;
    }
    let pow = 2f64.powi(u_max as i32);
    sigma1 *= pow; // now Σ β_j 2^(u_max − j) ≥ σ0
    let a2u = alpha * pow;
    let mut x = sigma1 / a2u; // upper bound of Lemma B.3
    if u_min < u_max {
        // Lower-bound starting point: exp(ln(1 + σ1/(α 2^u))·σ0/σ1) − 1.
        x = (x.ln_1p() * (sigma0 / sigma1)).exp_m1();
        // Newton iterations (29); the sequence increases towards the root.
        for _ in 0..64 {
            // One simultaneous evaluation of φ (17) and ψ (28) via the
            // shared recursions (20)–(22), (30).
            let mut lambda = 1.0f64;
            let mut eta = 0.0f64;
            let mut y = x;
            let mut u = u_max;
            let mut phi_x = beta[u] as f64;
            let mut psi = 0.0f64;
            loop {
                u -= 1;
                let z = 2.0 / (2.0 + y); // z ∈ (0, 1]
                lambda *= z;
                eta = eta * (2.0 - z) + (1.0 - z);
                let b = beta[u] as f64;
                phi_x += b * lambda;
                psi += b * lambda * eta;
                if u <= u_min {
                    break;
                }
                y *= y + 2.0; // y_{l+1} = y_l (2 + y_l), see (21)
            }
            let xp = a2u * x;
            if phi_x <= xp {
                // f(x) ≥ 0: reached (or numerically passed) the root.
                break;
            }
            let x_new = x * (1.0 + (phi_x - xp) / (psi + xp));
            // Negated form deliberately also stops on NaN.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(x_new > x) {
                // Numerical convergence: the increasing sequence stalled.
                break;
            }
            x = x_new;
        }
    }
    m * pow * x.ln_1p()
}

/// Convenience wrapper: coefficients → estimate for a register-based
/// sketch (without bias correction).
#[must_use]
pub fn ml_estimate_from_coefficients(coeffs: &MlCoefficients, m: f64) -> f64 {
    solve_ml_equation(coeffs.alpha(), &coeffs.beta, m)
}

/// Evaluates the log-likelihood (15) at `n` given coefficients — used by
/// tests to verify that the solver really lands on the maximizer.
#[must_use]
pub fn log_likelihood(coeffs: &MlCoefficients, m: f64, n: f64) -> f64 {
    let mut ll = -n / m * coeffs.alpha();
    for (u, &b) in coeffs.beta.iter().enumerate() {
        if b > 0 {
            let rate = n / (m * 2f64.powi(u as i32));
            // ln(1 − e^(−rate)), stable for small rates via ln(−expm1).
            ll += b as f64 * (-(-rate).exp_m1()).ln();
        }
    }
    ll
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(t: u8, d: u8, p: u8) -> EllConfig {
        EllConfig::new(t, d, p).unwrap()
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let c = cfg(2, 20, 4);
        let coeffs = compute_coefficients(&c, std::iter::repeat_n(0, c.m()));
        assert_eq!(coeffs.total_events(), 0);
        // α = Σ_i ω(0) = m exactly (so ln L = −(n/m)·α = −n: the Poisson
        // probability that all m registers stayed empty is e^(−n)).
        assert_eq!(coeffs.alpha_times_2_64, (c.m() as u128) << 64);
        assert_eq!(ml_estimate_from_coefficients(&coeffs, c.m() as f64), 0.0);
    }

    #[test]
    fn alpha_plus_beta_mass_conserved() {
        // Every probability unit is either in α (unseen) or in β (seen):
        // α·2^64 + Σ_u β contributions... more precisely, for each register
        // α-contribution + Σ seen ρ = contribution bookkeeping. We check a
        // weaker exact invariant: α ∈ (0, 1] and decreases as events are
        // recorded.
        let c = cfg(0, 2, 2);
        let empty = compute_coefficients(&c, std::iter::repeat_n(0, 4));
        assert_eq!(empty.alpha(), 4.0); // = m
                                        // One register with max value 3 and full indicators.
        let r = crate::registers::update(
            crate::registers::update(crate::registers::update(0, 3, 2), 2, 2),
            1,
            2,
        );
        let some = compute_coefficients(&c, [r, 0, 0, 0].into_iter());
        assert!(some.alpha() < 4.0);
        assert!(some.alpha() > 0.0);
        assert_eq!(some.total_events(), 3);
    }

    #[test]
    fn column_scan_at_max_precision() {
        // p = 26 moves the φ cap down to 38. The 2^26 − 64 empty registers
        // go in as one count so the check stays cheap in debug builds.
        for (t, d) in [(0u8, 58u8), (2, 28), (0, 0), (6, 2)] {
            let c = cfg(t, d, crate::config::MAX_P);
            let max = c.max_update_value();
            let mut rng = ell_hash::SplitMix64::new(u64::from(d));
            let regs: Vec<u64> = (0..64)
                .map(|i| {
                    let first = if i % 4 == 0 {
                        max
                    } else {
                        1 + rng.next_u64() % max
                    };
                    (0..3).fold(crate::registers::update(0, first, d), |r, _| {
                        crate::registers::update(r, 1 + rng.next_u64() % max, d)
                    })
                })
                .collect();
            let empty = c.m() - regs.len();
            let mut scan = ColumnScan::new(&c);
            let mut oracle = empty_coefficients(empty);
            for &r in &regs {
                scan.add(r);
                add_register(&mut oracle, &c, r);
            }
            scan.add_empty(empty as u64);
            assert_eq!(scan.finish(), oracle, "t={t} d={d}");
        }
    }

    #[test]
    fn transitions_match_the_per_bit_algorithm() {
        // Every step of random insert and merge chains, from empty to the
        // maximum update value, against the per-bit oracle: the change
        // old → new must turn old's contribution into new's.
        use crate::registers::{merge, update};
        for (t, d, p) in [
            (2u8, 20u8, 10u8),
            (0, 0, 4),
            (1, 9, 2),
            (0, 58, 3),
            (6, 2, 26),
            (2, 24, 26),
        ] {
            let c = cfg(t, d, p);
            let max = c.max_update_value();
            let mut rng = ell_hash::SplitMix64::new(u64::from(t) << 8 | u64::from(d));
            for _ in 0..300 {
                let mut r = 0u64;
                for step in 0..12 {
                    let k = match step % 4 {
                        0 => 1 + rng.next_u64() % max,
                        1 => (r >> d)
                            .saturating_sub(rng.next_u64() % (u64::from(d) + 2))
                            .max(1),
                        2 => ((r >> d) + 1 + rng.next_u64() % 3).min(max),
                        _ => max,
                    };
                    let next = if rng.next_u64().is_multiple_of(3) {
                        merge(r, update(update(0, k, d), 1 + rng.next_u64() % max, d), d)
                    } else {
                        update(r, k, d)
                    };
                    let mut want = empty_coefficients(0);
                    add_register(&mut want, &c, next);
                    let mut got = empty_coefficients(0);
                    add_register(&mut got, &c, r);
                    apply_register_change(&mut got, &c, r, next);
                    assert_eq!(got, want, "cfg {c}: {r:#x} -> {next:#x}");
                    r = next;
                }
            }
        }
    }

    #[test]
    fn column_scan_folds_lanes_before_overflow() {
        // 1000 registers share one maximum and every indicator bit, so
        // each byte lane passes 255 several times.
        let c = cfg(2, 20, 10);
        let full = (c.max_update_value() << 20) | ell_bitpack::mask(20);
        let mut oracle = empty_coefficients(c.m() - 1000);
        for _ in 0..1000 {
            add_register(&mut oracle, &c, full);
        }
        let regs = std::iter::repeat_n(full, 1000).chain(std::iter::repeat_n(0, c.m() - 1000));
        assert_eq!(compute_coefficients(&c, regs), oracle);
    }

    #[test]
    fn solver_single_level_is_closed_form() {
        // When only one β level is populated the root is exactly
        // x = β/(α·2^u), n̂ = m·2^u·ln(1+x).
        let mut beta = [0u64; 65];
        beta[5] = 7;
        let alpha = 0.4;
        let m = 16.0;
        let got = solve_ml_equation(alpha, &beta, m);
        let x = 7.0 / (alpha * 32.0);
        let want = m * 32.0 * x.ln_1p();
        assert!((got - want).abs() < 1e-12 * want, "{got} vs {want}");
    }

    #[test]
    fn solver_lands_on_likelihood_maximum() {
        // Multi-level coefficients: verify the returned n̂ maximizes (15)
        // against a fine grid scan.
        let mut beta = [0u64; 65];
        beta[3] = 10;
        beta[4] = 7;
        beta[6] = 3;
        beta[9] = 1;
        let coeffs = MlCoefficients {
            alpha_times_2_64: (0.37 * 2f64.powi(64)) as u128,
            beta,
        };
        let m = 64.0;
        let n_hat = ml_estimate_from_coefficients(&coeffs, m);
        let ll_hat = log_likelihood(&coeffs, m, n_hat);
        for delta in [-0.1, -0.01, 0.01, 0.1] {
            let n = n_hat * (1.0 + delta);
            let ll = log_likelihood(&coeffs, m, n);
            assert!(
                ll <= ll_hat + 1e-9 * ll_hat.abs(),
                "LL({n}) = {ll} exceeds LL(n̂={n_hat}) = {ll_hat}"
            );
        }
    }

    #[test]
    fn saturated_sketch_estimates_infinity() {
        let mut beta = [0u64; 65];
        beta[2] = 4;
        assert_eq!(solve_ml_equation(0.0, &beta, 4.0), f64::INFINITY);
    }

    #[test]
    fn solver_bracket_of_lemma_b3_contains_root() {
        let mut beta = [0u64; 65];
        beta[2] = 9;
        beta[5] = 4;
        beta[7] = 2;
        let alpha = 0.21;
        let m = 32.0;
        let n_hat = solve_ml_equation(alpha, &beta, m);
        // Upper bound: x ≤ σ0/(α 2^umax) → n ≤ m 2^umax ln(1+σ0/(α 2^umax)).
        let pow = 128.0;
        let upper = m * pow * (15.0 / (alpha * pow)).ln_1p();
        assert!(n_hat <= upper * (1.0 + 1e-12), "{n_hat} > {upper}");
        assert!(n_hat > 0.0);
    }

    #[test]
    fn coefficients_for_simple_known_state() {
        // ELL(0,0) (= HLL semantics) with p = 2: registers are plain maxima.
        // Registers [3, 0, 1, 0]: α must count the tails ω(3), ω(0), ω(1),
        // ω(0); β gets one event at φ(3) = 3 and one at φ(1) = 1.
        let c = cfg(0, 0, 2);
        let coeffs = compute_coefficients(&c, [3u64, 0, 1, 0].into_iter());
        assert_eq!(coeffs.beta[3], 1);
        assert_eq!(coeffs.beta[1], 1);
        assert_eq!(coeffs.total_events(), 2);
        // ω(3) = 2^−3, ω(1) = 2^−1, ω(0) = 1 → α = 1/8 + 1 + 1/2 + 1.
        let want = 0.125 + 1.0 + 0.5 + 1.0;
        assert!((coeffs.alpha() - want).abs() < 1e-15);
    }

    #[test]
    fn estimate_scales_linearly_with_m() {
        // Duplicating every register (doubling m) must double the estimate.
        let c4 = cfg(1, 9, 2);
        let c8 = cfg(1, 9, 3);
        let regs4: Vec<u64> = vec![
            crate::registers::update(0, 4, 9),
            crate::registers::update(0, 2, 9),
            0,
            crate::registers::update(0, 7, 9),
        ];
        let mut regs8 = regs4.clone();
        regs8.extend_from_slice(&regs4);
        let co4 = compute_coefficients(&c4, regs4.into_iter());
        let co8 = compute_coefficients(&c8, regs8.into_iter());
        let e4 = ml_estimate_from_coefficients(&co4, 4.0);
        let e8 = ml_estimate_from_coefficients(&co8, 8.0);
        // p enters φ only through the 64−p cap, untouched at these values.
        assert!((e8 - 2.0 * e4).abs() < 1e-9 * e8, "{e4} vs {e8}");
    }

    #[test]
    fn newton_converges_quickly() {
        // The paper reports ≤ 10 iterations; our cap is 64. Spot-check
        // convergence by ensuring the result is a fixed point (residual ~0).
        let mut beta = [0u64; 65];
        for (u, b) in [(3usize, 50u64), (4, 80), (5, 60), (6, 30), (7, 10), (10, 1)] {
            beta[u] = b;
        }
        let alpha = 0.05;
        let m = 256.0;
        let n_hat = solve_ml_equation(alpha, &beta, m);
        let coeffs = MlCoefficients {
            alpha_times_2_64: (alpha * 2f64.powi(64)) as u128,
            beta,
        };
        // Derivative of ln L at n̂ should be ≈ 0: compare symmetric LLs.
        let eps = n_hat * 1e-6;
        let l_minus = log_likelihood(&coeffs, m, n_hat - eps);
        let l_plus = log_likelihood(&coeffs, m, n_hat + eps);
        let l_mid = log_likelihood(&coeffs, m, n_hat);
        assert!(l_mid >= l_minus && l_mid >= l_plus - 1e-10 * l_mid.abs());
    }
}
