//! Synchronization facade: the one place this crate touches
//! `std::sync` primitives.
//!
//! `core.rs`, `store.rs`, `window.rs`, and `tiers.rs` import their locks and
//! atomics from here instead of `std::sync` (enforced by
//! `ci/xlint.rs`). A normal build re-exports the real types at zero
//! cost; building with `RUSTFLAGS="--cfg ell_verify"` swaps in the
//! vendored `shuttle` shims, under which every lock acquisition,
//! `try_write`, and atomic access becomes a deterministic-scheduler
//! decision point. That is how `ell-verify` model-checks the handoff
//! queue drain, the suffix-chain rebuild, and the tier transitions
//! against *enumerated* interleavings rather than stress-test samples.
//!
//! Outside a model-checked execution the shims fall back to plain `std`
//! behavior, so an `ell_verify` build still passes the ordinary suite.

#[cfg(not(ell_verify))]
pub(crate) use std::sync::{
    Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError,
};

#[cfg(ell_verify)]
pub(crate) use shuttle::sync::{
    Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError,
};

/// Atomic integer types and memory orderings.
pub(crate) mod atomic {
    #[cfg(not(ell_verify))]
    pub(crate) use std::sync::atomic::{AtomicU64, Ordering};

    #[cfg(ell_verify)]
    pub(crate) use shuttle::sync::atomic::{AtomicU64, Ordering};
}
