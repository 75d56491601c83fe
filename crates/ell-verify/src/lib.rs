//! # ell-verify — model checking for the concurrent serving core
//!
//! The store stack's concurrency story rests on a handful of subtle
//! protocols: the CAS word-packed atomic sketch, the double-checked
//! suffix-chain rebuild, snapshot-during-ingest, and the tier
//! promote/demote ladder. Stress tests sample a few interleavings of
//! each per run; this crate instead ports each protocol to a
//! **small-scale model** over the vendored [`shuttle`] deterministic
//! scheduler and *enumerates* interleavings — exhaustive DFS with
//! bounded preemption, topped up with seeded-random schedules to at
//! least 10 000 per protocol (the repo's acceptance gate).
//!
//! ## The four protocols
//!
//! | model | real code | invariant checked |
//! |---|---|---|
//! | [`models::cas_merge`] | `exaloglog::atomic::rmw_register` | concurrent CAS insert + merge converge to the sequential join |
//! | [`models::suffix_chain`] | `ell-store::window::with_suffixes` | every chain-served answer equals recomputation from the slots |
//! | [`models::snapshot`] | `exaloglog::atomic::snapshot` | snapshots are monotone, untorn, and legal sub-states |
//! | [`models::tiers`] | `ell-store::store::demote_idle` / promote-on-access | demote/promote/flush races conserve every contribution |
//!
//! A session flush (`ell-store::core::Keyed::flush_runs`) folds under
//! the shard write lock like a direct ingest, with no queue of its own
//! to model; `tests/real_models.rs` races real sessions, flushes and
//! rotation on the production types instead.
//!
//! Models use the shuttle shims directly, so they are deterministic
//! under a plain `cargo test`. The crates under test additionally route
//! their own `std::sync` use through `sync` facade modules; building
//! the workspace with `RUSTFLAGS="--cfg ell_verify"` swaps the *real*
//! types onto the same scheduler, which enables the integration models
//! in `tests/real_models.rs` (run by the `concurrency-model` CI job).
//!
//! ## Why small models are enough
//!
//! Every structure involved is a monotone join semilattice (registers
//! only grow; token sets and ring slots union; promotion is
//! threshold-crossing), so correctness claims are *per-merge-edge*, not
//! per-size: a two-lane word, a one-slot shard, or a three-epoch ring
//! already contains every distinct edge ordering the full-size
//! structure can produce. What grows with size is only the number of
//! independent copies of those edges. CONCURRENCY.md gives the
//! happens-before argument per protocol.

pub mod models;

pub use shuttle::{explore, replay, Config, Report, Violation};

/// The exploration configuration every protocol test uses: DFS with a
/// preemption bound of 3 (the CHESS observation: almost all concurrency
/// bugs need very few preemptions), topped up with seeded-random
/// schedules to the acceptance gate of ≥ 10 000 interleavings.
#[must_use]
pub fn protocol_config() -> Config {
    Config::default()
}

/// Number of interleavings every protocol model must explore cleanly
/// (the repo's acceptance gate).
pub const MIN_INTERLEAVINGS: u64 = 10_000;
