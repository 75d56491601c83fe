//! Synchronization facade: the one place this crate touches
//! `std::sync` primitives.
//!
//! `core.rs`, `store.rs`, `window.rs`, and `tiers.rs` import their locks and
//! atomics from here instead of `std::sync` (enforced by
//! `ci/xlint.rs`). A normal build re-exports the real types at zero
//! cost; building with `RUSTFLAGS="--cfg ell_verify"` swaps in the
//! vendored `shuttle` shims, under which every lock acquisition and
//! atomic access becomes a deterministic-scheduler decision point. That
//! is how `ell-verify` model-checks session flushes racing rotation,
//! the suffix-chain rebuild, and the tier transitions on the real types
//! against *enumerated* interleavings rather than stress-test samples.
//!
//! Outside a model-checked execution the shims fall back to plain `std`
//! behavior, so an `ell_verify` build still passes the ordinary suite.

#[cfg(not(ell_verify))]
pub(crate) use std::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(ell_verify)]
pub(crate) use shuttle::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Atomic integer types and memory orderings.
pub(crate) mod atomic {
    #[cfg(not(ell_verify))]
    pub(crate) use std::sync::atomic::{AtomicU64, Ordering};

    #[cfg(ell_verify)]
    pub(crate) use shuttle::sync::atomic::{AtomicU64, Ordering};
}
