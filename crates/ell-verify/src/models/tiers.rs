//! Protocol 5: tier demote vs promote-on-access vs concurrent flush.
//!
//! The real code: one residency ladder (`ell-store`'s
//! `tiers::Ladder`) runs under both stores. Its sweep — called by
//! `EllStore::demote_idle`, and by `WindowedStore::advance` as part of
//! rotation — visits shard entries under the write lock, compressing
//! idle resident values (sketches or epoch rings) into warm byte blobs;
//! reads promote a warm entry back to residency on access; flushes that
//! land on a warm entry park their run as *pending* rather than paying
//! a decompress-merge-recompress round trip. All three transitions run
//! under the same shard write lock, so the race surface is transition
//! *ordering*, not torn state: a demote sliding in between a flush's
//! tier check and its merge, a promote racing a demote, pending deltas
//! surviving promote.
//!
//! The model is one entry with the union-of-bits sketch stand-in:
//! `Resident(u64)` vs `Warm { blob, pending }` where `blob` is the
//! "compressed" image and `pending` buffers flush deltas. Threads:
//! a demoter, a promote-on-access reader, and a flusher pushing two
//! deltas.
//!
//! Invariant: **conservation** — whatever order the transitions fire
//! in, a final forced promote observes the union of the initial state
//! and every flushed delta; no delta is dropped on the resident→warm
//! edge or stranded in `pending` across the warm→resident edge
//! (CONCURRENCY.md § "Tier demote vs promote").

use shuttle::sync::RwLock;
use std::sync::Arc;

enum Entry {
    Resident(u64),
    Warm { blob: u64, pending: u64 },
}

impl Entry {
    /// Port of the demote sweep body: compress a resident sketch. Idempotent
    /// no-op on an already-warm entry (the sweep re-checks under lock).
    fn demote(&mut self) {
        if let Entry::Resident(v) = *self {
            *self = Entry::Warm {
                blob: v,
                pending: 0,
            };
        }
    }

    /// Port of promote-on-access: decompress and merge the pending
    /// buffer back in. Returns the now-resident value.
    fn promote(&mut self) -> u64 {
        match *self {
            Entry::Resident(v) => v,
            Entry::Warm { blob, pending } => {
                let v = blob | pending;
                *self = Entry::Resident(v);
                v
            }
        }
    }

    /// Port of the flush merge: resident entries merge in place, warm
    /// entries buffer the delta as pending.
    fn flush(&mut self, delta: u64) {
        match self {
            Entry::Resident(v) => *v |= delta,
            Entry::Warm { pending, .. } => *pending |= delta,
        }
    }
}

/// One run of the model; explore with [`shuttle::explore`].
pub fn model() {
    const INITIAL: u64 = 0b0001;
    let entry = Arc::new(RwLock::new(Entry::Resident(INITIAL)));

    // Demoter: the idle sweep fires twice (an entry promoted by a read
    // can go idle and be demoted again).
    let e = Arc::clone(&entry);
    let demoter = shuttle::thread::spawn(move || {
        e.write().expect("entry").demote();
        e.write().expect("entry").demote();
    });

    // Reader: promote-on-access. The value it observes must already be
    // a legal sub-state: initial plus some subset of flushed deltas.
    let e = Arc::clone(&entry);
    let reader = shuttle::thread::spawn(move || {
        let seen = e.write().expect("entry").promote();
        assert_eq!(
            seen & INITIAL,
            INITIAL,
            "promote-on-access lost the pre-demote state"
        );
        assert_eq!(
            seen & !(INITIAL | 0b0110),
            0,
            "promote-on-access conjured bits no flush ever wrote"
        );
    });

    // Flusher: two deltas that must survive whatever tier the entry is
    // in when they land.
    let e = Arc::clone(&entry);
    let flusher = shuttle::thread::spawn(move || {
        e.write().expect("entry").flush(0b0010);
        e.write().expect("entry").flush(0b0100);
    });

    demoter.join().expect("demoter");
    reader.join().expect("reader");
    flusher.join().expect("flusher");

    // Conservation: force-promote and require the union of everything.
    let total = entry.write().expect("entry").promote();
    assert_eq!(
        total,
        INITIAL | 0b0110,
        "tier transitions dropped or stranded a contribution"
    );
}
