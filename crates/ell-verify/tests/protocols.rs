//! The acceptance gate: each of the four protocol models must explore
//! at least [`ell_verify::MIN_INTERLEAVINGS`] interleavings with zero
//! violations. A failure prints a replay token; feed it to
//! [`ell_verify::replay`] (see `seed_replay.rs`) to reproduce the exact
//! schedule deterministically.

use ell_verify::{models, protocol_config, MIN_INTERLEAVINGS};

fn check(name: &str, model: fn()) {
    let report = ell_verify::explore(&protocol_config(), model);
    eprintln!(
        "{name}: {} interleavings (dfs exhausted: {})",
        report.interleavings, report.dfs_exhausted
    );
    report.assert_clean(MIN_INTERLEAVINGS);
}

#[test]
fn cas_merge_converges_to_sequential_join() {
    check("cas_merge", models::cas_merge::model);
}

#[test]
fn suffix_chain_never_serves_stale_unions() {
    check("suffix_chain", models::suffix_chain::model);
}

#[test]
fn snapshots_are_monotone_legal_substates() {
    check("snapshot", models::snapshot::model);
}

#[test]
fn tier_transitions_conserve_contributions() {
    check("tiers", models::tiers::model);
}
