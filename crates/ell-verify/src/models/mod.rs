//! The four protocol models. Each module exposes a `model()` closure
//! body suitable for [`shuttle::explore`]; the invariants are asserted
//! inside the model, so a violating interleaving panics and surfaces
//! with a replay token.

pub mod cas_merge;
pub mod snapshot;
pub mod suffix_chain;
pub mod tiers;

use shuttle::sync::atomic::{AtomicU64, Ordering};

/// Faithful port of `AtomicExaLogLog::rmw_register`: CAS-applies the
/// monotone closure `f` to the `width`-bit lane at `shift` until it
/// sticks. Returns the lane's `(old, new)` transition when this call
/// changed it.
pub(crate) fn rmw_lane(
    word: &AtomicU64,
    shift: u32,
    width: u32,
    f: impl Fn(u64) -> u64,
) -> Option<(u64, u64)> {
    let field = (1u64 << width) - 1;
    // ordering: Relaxed — model port of the production CAS loop; the
    // scheduler runs every shim op SeqCst regardless (see shuttle docs).
    let mut current = word.load(Ordering::Relaxed);
    loop {
        let old = (current >> shift) & field;
        let new = f(old);
        if new == old {
            return None;
        }
        let updated = (current & !(field << shift)) | (new << shift);
        // ordering: Relaxed/Relaxed — model port; see above.
        match word.compare_exchange_weak(current, updated, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Some((old, new)),
            Err(actual) => current = actual,
        }
    }
}

/// Reads the `width`-bit lane at `shift` of a packed word value.
pub(crate) fn lane(word_bits: u64, shift: u32, width: u32) -> u64 {
    (word_bits >> shift) & ((1u64 << width) - 1)
}
