//! Protocol 2: session handoff-queue drain vs barrier flush.
//!
//! The real code: `Keyed::flush_runs` in `ell-store/src/core.rs`, the
//! one implementation both `EllStore` and `WindowedStore` flush
//! through, tries the shard write lock opportunistically; on contention
//! it parks `(key, tag, hashes)` run copies on the shard's `Mutex<Vec<…>>`
//! handoff queue, and once the queue depth reaches
//! `HANDOFF_SOFT_CAPACITY` the enqueuer itself performs a blocking
//! drain. Barrier flushes take the write lock outright, drain the queue
//! *first*, merge their own runs, and finish with
//! `drain_all_pending`. Every drainer loops `mem::take` on the queue
//! under the write lock until it observes empty.
//!
//! The model shrinks the slot to one `u64` whose bits union (a faithful
//! stand-in for register join — both are monotone idempotent merges)
//! and the soft capacity to 1 so the forced-drain edge is reachable in
//! a handful of steps.
//!
//! Invariants: a barrier flush leaves the queue empty behind it; after
//! both sessions finish and the drop-barrier runs, the slot holds the
//! union of every delta (nothing parked is lost, nothing merges twice —
//! idempotence makes double-merge invisible, so the model also asserts
//! queue emptiness rather than merge counts).

use shuttle::sync::{Mutex, RwLock, TryLockError};
use std::sync::Arc;

/// Model-scale `HANDOFF_SOFT_CAPACITY`.
const SOFT_CAPACITY: usize = 1;

struct Shard {
    slot: RwLock<u64>,
    pending: Mutex<Vec<u64>>,
}

impl Shard {
    /// Port of `drain_queue_into`: pop until observed empty, merging
    /// under the already-held write lock.
    fn drain_queue_into(&self, slot: &mut u64) {
        loop {
            let batch = std::mem::take(&mut *self.pending.lock().expect("queue"));
            if batch.is_empty() {
                return;
            }
            for delta in batch {
                *slot |= delta;
            }
        }
    }

    /// Port of `drain_shard`.
    fn drain_blocking(&self) {
        let mut slot = self.slot.write().expect("shard");
        self.drain_queue_into(&mut slot);
    }

    /// Port of `flush_runs`: opportunistic merge, else park and
    /// maybe force-drain.
    fn flush(&self, delta: u64, barrier: bool) {
        let guard = if barrier {
            Some(self.slot.write().expect("shard"))
        } else {
            match self.slot.try_write() {
                Err(TryLockError::WouldBlock) => None,
                other => Some(other.expect("shard")),
            }
        };
        match guard {
            Some(mut slot) => {
                self.drain_queue_into(&mut slot);
                *slot |= delta;
            }
            None => {
                let depth = {
                    let mut queue = self.pending.lock().expect("queue");
                    queue.push(delta);
                    queue.len()
                };
                if depth >= SOFT_CAPACITY {
                    self.drain_blocking();
                }
            }
        }
    }

    /// Port of `drain_all_pending` (single shard).
    fn drain_all_pending(&self) {
        let parked = !self.pending.lock().expect("queue").is_empty();
        if parked {
            self.drain_blocking();
        }
    }
}

/// One run of the model; explore with [`shuttle::explore`].
pub fn model() {
    let shard = Arc::new(Shard {
        slot: RwLock::new(0),
        pending: Mutex::new(Vec::new()),
    });

    // Session A: two opportunistic auto-flushes (the contended path
    // parks and, at depth ≥ 1, force-drains).
    let s = Arc::clone(&shard);
    let session_a = shuttle::thread::spawn(move || {
        s.flush(0b0001, false);
        s.flush(0b0010, false);
    });

    // Session B: a barrier flush (drains first, then read-your-writes
    // via drain_all_pending) — the `flush_with(barrier=true)` path.
    let s = Arc::clone(&shard);
    let session_b = shuttle::thread::spawn(move || {
        s.flush(0b0100, true);
        s.drain_all_pending();
        // Read-your-writes: after a barrier completes, this session's
        // own delta must be visible in the slot.
        let slot = s.slot.read().expect("shard");
        assert!(
            *slot & 0b0100 != 0,
            "barrier flush lost its own delta (read-your-writes)"
        );
    });

    session_a.join().expect("session a");
    session_b.join().expect("session b");

    // The drop-barrier every session runs on close.
    shard.drain_all_pending();

    let slot = shard.slot.read().expect("shard");
    assert_eq!(
        *slot, 0b0111,
        "final slot diverged from the union of all deltas"
    );
    assert!(
        shard.pending.lock().expect("queue").is_empty(),
        "deltas left parked after the final barrier"
    );
}
