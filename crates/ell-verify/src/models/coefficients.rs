//! Protocol 6: coefficient counters on hot slots.
//!
//! The real code: after its CAS wins, `AtomicExaLogLog::insert_hash`
//! publishes the register transition's Algorithm 3 terms
//! (`exaloglog::ml::register_transition`) to relaxed atomic counters —
//! every β increment, then the α-deficit increment, then every β
//! decrement — and `AtomicExaLogLog::estimate` reads the counters back,
//! falling back to the register scan when the read is inconsistent.
//! Another thread's later transition on the same register can publish
//! its decrements before this thread's increments land, so a reader can
//! see a β level transiently "negative" (wrapped to a huge value).
//!
//! The model keeps one register lane (d = 2, t = 1: two update values
//! share each β level) in a word, and the deficit plus the β levels the
//! model's update values reach as shim atomics (the production array has
//! all 65; levels no write touches would only add reader decision
//! points). Two writers each CAS the lane and publish the transition
//! they won through the production term emitter; a reader takes one
//! counter read. Asserted:
//!
//! 1. **finite or fallback** — every read either passes the production
//!    consistency checks and yields a finite, non-negative estimate, or
//!    is rejected (the estimator then scans the registers);
//! 2. **exact at rest** — once both writers are joined the counters
//!    equal the sequential Algorithm 3 fold of the registers, and the
//!    lane equals the sequential join.
//!
//! [`FALLBACK_READS`] counts rejected reads across all explored
//! schedules, so the gate test can check that the fallback is reached.

use exaloglog::ml::{self, CoefficientSink, MlCoefficients, MAX_EXPONENT};
use exaloglog::{registers, EllConfig};
use shuttle::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::{lane, rmw_lane};

/// Lane width of the model word (the register needs 6 + t + d = 9 bits).
const WIDTH: u32 = 16;
/// β levels kept as atomics: update values up to 9 reach φ ≤ 6.
const LEVELS: usize = 8;

/// Reads the model rejected as inconsistent, summed over every explored
/// schedule (plain `std` atomic: bookkeeping outside the model).
pub static FALLBACK_READS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn cfg() -> EllConfig {
    EllConfig::new(1, 2, 2).expect("valid config")
}

/// The model's counters: port of `exaloglog::atomic::Counters`.
struct Counters {
    deficit: AtomicU64,
    beta: Vec<AtomicU64>,
}

impl Counters {
    fn empty() -> Self {
        Counters {
            deficit: AtomicU64::new(0),
            beta: (0..LEVELS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Port of `Counters::load`: `None` for a β level above m·(d + 1)
    /// or a zero deficit with nonzero β.
    fn load(&self, cfg: &EllConfig) -> Option<MlCoefficients> {
        let m = cfg.m() as u64;
        let limit = m * (u64::from(cfg.d()) + 1);
        let mut beta = [0u64; MAX_EXPONENT + 1];
        for (b, counter) in beta.iter_mut().zip(&self.beta) {
            // ordering: Relaxed — model port of the production counter
            // load; the scheduler runs every shim op SeqCst regardless.
            *b = counter.load(Ordering::Relaxed);
            if *b > limit {
                return None;
            }
        }
        // ordering: Relaxed — model port; see above.
        let deficit = self.deficit.load(Ordering::Relaxed);
        if deficit == 0 && beta.iter().any(|&b| b != 0) {
            return None;
        }
        Some(MlCoefficients {
            alpha_times_2_64: (u128::from(m) << 64) - (u128::from(deficit) << cfg.p()),
            beta,
        })
    }
}

/// Port of `exaloglog::atomic::Publish`: applies each term as it is
/// emitted.
struct Publish<'a> {
    counters: &'a Counters,
    p: u8,
}

impl CoefficientSink for Publish<'_> {
    fn add_beta(&mut self, level: usize) {
        // ordering: Relaxed — model port of the counter increment.
        self.counters.beta[level].fetch_add(1, Ordering::Relaxed);
    }

    fn sub_alpha(&mut self, amount: u128) {
        let units = (amount >> self.p) as u64;
        if units != 0 {
            // ordering: Relaxed — model port of the deficit increment.
            self.counters.deficit.fetch_add(units, Ordering::Relaxed);
        }
    }

    fn sub_beta(&mut self, level: usize) {
        // ordering: Relaxed — model port of the counter decrement.
        self.counters.beta[level].fetch_sub(1, Ordering::Relaxed);
    }
}

/// CAS-applies `f` to the lane and publishes the transition if this call
/// won it — the body of `AtomicExaLogLog::insert_hash`.
fn write(word: &AtomicU64, counters: &Counters, f: impl Fn(u64) -> u64) {
    let cfg = cfg();
    if let Some((old, new)) = rmw_lane(word, 0, WIDTH, f) {
        let mut sink = Publish {
            counters,
            p: cfg.p(),
        };
        ml::register_transition(&mut sink, &cfg, old, new);
    }
}

/// One run of the model; explore with [`shuttle::explore`].
pub fn model() {
    let cfg = cfg();
    let d = cfg.d();
    let word = Arc::new(AtomicU64::new(0));
    let counters = Arc::new(Counters::empty());

    // Writer A inserts k = 5. Writer B merges in a register holding 9
    // and 8: landing after A, its transition drops 5 (and the unseen 6)
    // below the window, so B's decrement of β[φ(5)] can overtake A's
    // increment of it.
    let (w, c) = (Arc::clone(&word), Arc::clone(&counters));
    let writer_a = shuttle::thread::spawn(move || {
        write(&w, &c, |r| registers::update(r, 5, d));
    });
    let other = registers::update(registers::update(0, 9, d), 8, d);
    let (w, c) = (Arc::clone(&word), Arc::clone(&counters));
    let writer_b = shuttle::thread::spawn(move || {
        write(&w, &c, |r| registers::merge(r, other, d));
    });
    let c = Arc::clone(&counters);
    let reader = shuttle::thread::spawn(move || c.load(&cfg));

    writer_a.join().expect("writer a");
    writer_b.join().expect("writer b");
    match reader.join().expect("reader") {
        Some(coeffs) => {
            let estimate = ml::ml_estimate_from_coefficients(&coeffs, cfg.m() as f64);
            assert!(
                estimate.is_finite() && estimate >= 0.0,
                "an accepted counter read estimated {estimate}"
            );
        }
        None => {
            // ordering: Relaxed — a statistic read after the explore run.
            FALLBACK_READS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    // Sequential reference: the join of every contribution.
    let want = registers::merge(registers::update(0, 5, d), other, d);
    // ordering: Relaxed — final read after both joins.
    let register = lane(word.load(Ordering::Relaxed), 0, WIDTH);
    assert_eq!(register, want, "the lane diverged from the sequential join");
    let fold = ml::compute_coefficients(
        &cfg,
        std::iter::once(register).chain(std::iter::repeat_n(0, cfg.m() - 1)),
    );
    assert_eq!(
        counters.load(&cfg),
        Some(fold),
        "quiesced counters differ from the sequential Algorithm 3 fold"
    );
}
