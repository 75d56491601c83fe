//! Protocol 4: snapshot during atomic-sketch ingest.
//!
//! The real code: `AtomicExaLogLog::snapshot` (and `for_each_nonzero`)
//! walks the word array with plain loads while inserters keep CAS-ing
//! registers. There is no quiescing: the snapshot is *not* a point-in-
//! time cut, and the estimator contract only needs each register to be
//! (a) untorn, (b) some value the register actually held, and (c) at
//! least as large as any state the snapshotter already observed — the
//! monotone sub-state argument in CONCURRENCY.md § "Snapshot during
//! atomic-sketch ingest" (which is why the production load is Relaxed,
//! not Acquire).
//!
//! The model packs two 16-bit lanes into one word. An ingest thread
//! performs three register updates; a snapshot thread takes two
//! word-snapshots back to back. Asserted per snapshot and per lane:
//!
//! 1. **legality** — the observed lane value is one of the states that
//!    lane actually passes through (the update chain is enumerable);
//! 2. **monotonicity** — the second snapshot's lane is ≥ the first's
//!    under join order (`merge(a, b) == b`);
//! 3. **convergence** — a final snapshot after join equals the full
//!    sequential merge.

use exaloglog::registers;
use shuttle::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::{lane, rmw_lane};

const D: u8 = 2;
const WIDTH: u32 = 16;

/// One run of the model; explore with [`shuttle::explore`].
pub fn model() {
    let word = Arc::new(AtomicU64::new(0));

    // The ingest chain: lane 0 sees k=4 then k=1; lane 1 sees k=6.
    // Every prefix of each lane's chain is a state the lane holds.
    let l0_states = {
        let s1 = registers::update(0, 4, D);
        let s2 = registers::update(s1, 1, D);
        [0, s1, s2]
    };
    let l1_states = {
        let s1 = registers::update(0, 6, D);
        [0, s1]
    };

    let w = Arc::clone(&word);
    let ingester = shuttle::thread::spawn(move || {
        rmw_lane(&w, 0, WIDTH, |r| registers::update(r, 4, D));
        rmw_lane(&w, WIDTH, WIDTH, |r| registers::update(r, 6, D));
        rmw_lane(&w, 0, WIDTH, |r| registers::update(r, 1, D));
    });

    let w = Arc::clone(&word);
    let snapshotter = shuttle::thread::spawn(move || {
        // ordering: Relaxed — the exact production snapshot load; the
        // model checks the sub-state contract that justifies it.
        let first = w.load(Ordering::Relaxed);
        let second = w.load(Ordering::Relaxed);
        (first, second)
    });

    ingester.join().expect("ingester");
    let (first, second) = snapshotter.join().expect("snapshotter");

    for (snap, label) in [(first, "first"), (second, "second")] {
        let l0 = lane(snap, 0, WIDTH);
        let l1 = lane(snap, WIDTH, WIDTH);
        assert!(
            l0_states.contains(&l0),
            "{label} snapshot lane 0 = {l0:#x} is not a state the lane held (torn?)"
        );
        assert!(
            l1_states.contains(&l1),
            "{label} snapshot lane 1 = {l1:#x} is not a state the lane held (torn?)"
        );
    }

    // Monotone: the later snapshot dominates the earlier one per lane
    // (join with the earlier state is a no-op).
    for shift in [0, WIDTH] {
        let a = lane(first, shift, WIDTH);
        let b = lane(second, shift, WIDTH);
        assert_eq!(
            registers::merge(a, b, D),
            b,
            "snapshot went backwards on lane at shift {shift}"
        );
    }

    // ordering: Relaxed — read after join; the join edge orders it.
    let final_bits = word.load(Ordering::Relaxed);
    assert_eq!(
        lane(final_bits, 0, WIDTH),
        l0_states[2],
        "lane 0 did not converge to the full sequential chain"
    );
    assert_eq!(
        lane(final_bits, WIDTH, WIDTH),
        l1_states[1],
        "lane 1 did not converge to the full sequential chain"
    );
}
