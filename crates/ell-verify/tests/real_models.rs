//! Real-type models: the production `AtomicExaLogLog`, `EllStore` and
//! `WindowedStore` running on the deterministic scheduler.
//!
//! These compile only under `RUSTFLAGS="--cfg ell_verify"`, which swaps
//! the `sync` facades in `exaloglog` and `ell-store` from `std::sync`
//! to the shuttle shims — every atomic op and lock acquisition in the
//! *actual* production code becomes a scheduling decision point. The
//! real types take hundreds of shim operations per run (each register
//! word is a decision point), so DFS cannot finish a level; these use
//! seeded-random schedules only, at counts small enough for CI. The
//! exhaustive ≥ 10 000-interleaving gate lives in `protocols.rs` over
//! the distilled small-scale models; this file is the fidelity check
//! that the distillations model the code we actually ship.
//!
//! Models use a single key so nothing depends on `HashMap` shard
//! iteration order (which is seeded per-process, not per-schedule).
#![cfg(ell_verify)]

use ell_store::{EllStore, WindowedStore};
use ell_verify::Config;
use exaloglog::atomic::AtomicExaLogLog;
use exaloglog::EllConfig;
use std::sync::Arc;

fn small_cfg() -> EllConfig {
    EllConfig::new(2, 16, 2).expect("valid config")
}

#[test]
fn real_atomic_sketch_concurrent_insert_and_snapshot() {
    let report = ell_verify::explore(&Config::default().random_only(150).seed(11), || {
        let sketch = Arc::new(AtomicExaLogLog::new(small_cfg()));
        let s = Arc::clone(&sketch);
        let ingester = shuttle::thread::spawn(move || {
            s.insert_hash(0x9E37_79B9_7F4A_7C15);
            s.insert_hash(0xDEAD_BEEF_CAFE_F00D);
        });
        let s = Arc::clone(&sketch);
        let snapshotter = shuttle::thread::spawn(move || s.snapshot());
        ingester.join().expect("ingester");
        let mid = snapshotter.join().expect("snapshotter");

        // The mid-flight snapshot must be a sub-state: merging it into
        // the final state changes nothing (join order-freedom).
        let fin = sketch.snapshot();
        let mut joined = fin.clone();
        joined.merge_from(&mid).expect("compatible configs");
        assert_eq!(
            joined.registers().collect::<Vec<u64>>(),
            fin.registers().collect::<Vec<u64>>(),
            "mid-ingest snapshot was not a sub-state of the final state"
        );
    });
    report.assert_clean(150);
}

#[test]
fn real_atomic_sketch_concurrent_merge_converges() {
    let report = ell_verify::explore(&Config::default().random_only(150).seed(12), || {
        let a = AtomicExaLogLog::new(small_cfg());
        a.insert_hash(0x0123_4567_89AB_CDEF);
        let delta = a.snapshot();

        let target = Arc::new(AtomicExaLogLog::new(small_cfg()));
        let t = Arc::clone(&target);
        let d = delta.clone();
        let merger = shuttle::thread::spawn(move || {
            t.merge_from(&d).expect("compatible configs");
        });
        let t = Arc::clone(&target);
        let inserter = shuttle::thread::spawn(move || {
            t.insert_hash(0xFEDC_BA98_7654_3210);
        });
        merger.join().expect("merger");
        inserter.join().expect("inserter");

        // Sequential reference.
        let seq = AtomicExaLogLog::new(small_cfg());
        seq.insert_hash(0xFEDC_BA98_7654_3210);
        seq.merge_from(&delta).expect("compatible configs");
        assert_eq!(
            target.snapshot().registers().collect::<Vec<u64>>(),
            seq.snapshot().registers().collect::<Vec<u64>>(),
            "concurrent merge + insert diverged from the sequential join"
        );
    });
    report.assert_clean(150);
}

#[test]
fn real_store_sessions_race_barrier_flush() {
    // The blocking flush on the real store: two sessions auto-flush
    // every hash, so their flushes wait on the one shard's write lock
    // in every order the scheduler picks.
    let report = ell_verify::explore(&Config::default().random_only(100).seed(13), || {
        let store = Arc::new(EllStore::new(1, small_cfg()).expect("store"));

        let s = Arc::clone(&store);
        let session_a = shuttle::thread::spawn(move || {
            let mut sess = s.session().with_auto_flush(1);
            sess.insert("k", 0x1111_2222_3333_4444);
            sess.insert("k", 0x5555_6666_7777_8888);
            // Drop runs the same flush.
        });
        let s = Arc::clone(&store);
        let session_b = shuttle::thread::spawn(move || {
            let mut sess = s.session().with_auto_flush(1);
            sess.insert("k", 0x9999_AAAA_BBBB_CCCC);
            sess.flush();
        });
        session_a.join().expect("session a");
        session_b.join().expect("session b");

        // Sequential reference: same three hashes through direct inserts.
        let seq = EllStore::new(1, small_cfg()).expect("store");
        seq.insert("k", 0x1111_2222_3333_4444);
        seq.insert("k", 0x5555_6666_7777_8888);
        seq.insert("k", 0x9999_AAAA_BBBB_CCCC);
        assert_eq!(
            store.estimate("k"),
            seq.estimate("k"),
            "racing sessions diverged from the sequential ingest"
        );
    });
    report.assert_clean(100);
}

#[test]
fn real_window_sessions_race_barrier_flush_and_advance() {
    // The blocking flush under the window's epoch pin: two sessions
    // auto-flush every hash (each flush takes the epoch read lock, then
    // the shard write lock) while a third thread rotates the window past
    // every buffered epoch under the epoch write lock. The lock order is
    // the same on every path, so no schedule may deadlock.
    let report = ell_verify::explore(&Config::default().random_only(100).seed(15), || {
        let store = Arc::new(WindowedStore::new(1, small_cfg(), 2).expect("store"));

        let s = Arc::clone(&store);
        let session_a = shuttle::thread::spawn(move || {
            let mut sess = s.session().with_auto_flush(1);
            sess.insert("k", 0, 0x1111_2222_3333_4444);
            sess.insert("k", 1, 0x5555_6666_7777_8888);
            // Drop runs the same flush.
        });
        let s = Arc::clone(&store);
        let session_b = shuttle::thread::spawn(move || {
            let mut sess = s.session().with_auto_flush(1);
            sess.insert("k", 0, 0x9999_AAAA_BBBB_CCCC);
            sess.flush();
        });
        let s = Arc::clone(&store);
        let rotator = shuttle::thread::spawn(move || s.advance(3));
        session_a.join().expect("session a");
        session_b.join().expect("session b");
        rotator.join().expect("rotator");

        // Sequential reference: the same events through direct ingest,
        // then the same rotation.
        let seq = WindowedStore::new(1, small_cfg(), 2).expect("store");
        seq.ingest(0, &[("k", 0x1111_2222_3333_4444)]);
        seq.ingest(0, &[("k", 0x9999_AAAA_BBBB_CCCC)]);
        seq.ingest(1, &[("k", 0x5555_6666_7777_8888)]);
        seq.advance(3);
        assert_eq!(
            store.snapshot_bytes(),
            seq.snapshot_bytes(),
            "racing window sessions diverged from the sequential ingest"
        );
    });
    report.assert_clean(100);
}

#[test]
fn real_store_demote_races_ingest_and_estimate() {
    let report = ell_verify::explore(&Config::default().random_only(100).seed(14), || {
        let store = Arc::new(EllStore::new(1, small_cfg()).expect("store"));
        store.insert("k", 0x1111_2222_3333_4444);

        let s = Arc::clone(&store);
        let demoter = shuttle::thread::spawn(move || {
            // Everything is idle relative to a far-future clock tick.
            s.advance_clock(1_000_000);
            s.demote_idle()
        });
        let s = Arc::clone(&store);
        let flusher = shuttle::thread::spawn(move || {
            s.insert("k", 0x9999_AAAA_BBBB_CCCC);
        });
        let s = Arc::clone(&store);
        let reader = shuttle::thread::spawn(move || s.estimate("k"));

        demoter.join().expect("demoter");
        flusher.join().expect("flusher");
        let seen = reader.join().expect("reader");
        assert!(seen.is_some(), "racing estimate lost the key entirely");

        let seq = EllStore::new(1, small_cfg()).expect("store");
        seq.insert("k", 0x1111_2222_3333_4444);
        seq.insert("k", 0x9999_AAAA_BBBB_CCCC);
        assert_eq!(
            store.estimate("k"),
            seq.estimate("k"),
            "demote/ingest race dropped a contribution"
        );
    });
    report.assert_clean(100);
}

#[test]
fn real_window_demote_races_flush_and_query() {
    // The window instance of the residency ladder, where rotation is the
    // sweep: with a one-epoch warm threshold, `advance` demotes the idle
    // ring while a session flush parks on it (or lands live) and a
    // window query revives it.
    let report = ell_verify::explore(&Config::default().random_only(100).seed(16), || {
        let mut store = WindowedStore::new(1, small_cfg(), 2).expect("store");
        store.set_warm_after(Some(1));
        store.insert("k", 0, 0x1111_2222_3333_4444);
        let store = Arc::new(store);

        let s = Arc::clone(&store);
        let rotator = shuttle::thread::spawn(move || s.advance(1));
        let s = Arc::clone(&store);
        let flusher = shuttle::thread::spawn(move || {
            let mut sess = s.session();
            sess.insert("k", 0, 0x9999_AAAA_BBBB_CCCC);
            sess.flush();
        });
        let s = Arc::clone(&store);
        let reader = shuttle::thread::spawn(move || s.estimate_window("k", 2));

        rotator.join().expect("rotator");
        flusher.join().expect("flusher");
        let seen = reader.join().expect("reader");
        assert!(seen.is_some(), "racing query lost the key entirely");

        // Sequential twin: the same events, then the same rotation.
        let seq = WindowedStore::new(1, small_cfg(), 2).expect("store");
        seq.insert("k", 0, 0x1111_2222_3333_4444);
        seq.insert("k", 0, 0x9999_AAAA_BBBB_CCCC);
        seq.advance(1);
        for k in 1..=2 {
            assert_eq!(
                store.estimate_window("k", k),
                seq.estimate_window("k", k),
                "demote/flush race changed window k={k}"
            );
        }
        assert_eq!(
            store.estimate_all_time("k"),
            seq.estimate_all_time("k"),
            "demote/flush race dropped a contribution"
        );
    });
    report.assert_clean(100);
}
