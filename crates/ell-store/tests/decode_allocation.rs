//! A snapshot decoder must check each sketch payload's configuration
//! against the snapshot header *before* decoding the payload. A payload
//! whose `p` byte is flipped from 6 to 24 would otherwise make the
//! decoder allocate a 2^24-register sketch (48 MiB) out of a snapshot of
//! a few kilobytes before rejecting it. Likewise an `ELLW` header whose
//! `p` is flipped must not make the decoder build a sketch of that
//! precision, for the store or for an entry's empty payloads, before the
//! first payload's check fails. Here the flipped snapshot must be
//! rejected while the decode's largest single allocation stays within
//! [`MAX_ALLOCATION_PER_INPUT_BYTE`] times the snapshot's length. The
//! same bound holds for an `ELLW` live entry whose payloads are all
//! empty, and for a token-set payload whose token count exceeds its
//! bytes.

// The counting global allocator needs `unsafe`: `GlobalAlloc` is an
// unsafe contract. It delegates straight to `System` and only records
// the size of each request.
#![allow(unsafe_code)]

use ell_hash::SplitMix64;
use ell_store::{EllStore, TierConfig, WindowedStore};
use exaloglog::compress::check_header;
use exaloglog::EllConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The bound c: a rejected decode may allocate at most c bytes per
/// input byte in any single allocation.
const MAX_ALLOCATION_PER_INPUT_BYTE: usize = 4;

thread_local! {
    /// The largest allocation this thread requested while tracking;
    /// `None` while not tracking. Const-initialized and without a
    /// destructor, so touching it never allocates.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn record(size: usize) {
    // `try_with`: the slot is unavailable while the thread tears down.
    let _ = LARGEST.try_with(|largest| {
        if let Some(max) = largest.get() {
            largest.set(Some(max.max(size)));
        }
    });
}

/// `System`, recording the largest request of a tracking thread.
struct LargestAllocation;

// SAFETY: `GlobalAlloc` is an unsafe trait; this impl upholds its
// contract by delegating every operation to `System` unchanged. The
// recording neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: `layout` is forwarded unmodified from our caller, who
        // guarantees it per the GlobalAlloc contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a prior `alloc`/`realloc` of
        // this allocator, which always returned `System` memory.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` is a live `System` allocation of `layout` per the
        // caller's GlobalAlloc obligations; arguments forwarded unmodified.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// Runs `f` and returns its result with the largest single allocation
/// it made on this thread.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|largest| largest.set(Some(0)));
    let out = f();
    let largest = LARGEST.with(|largest| largest.replace(None));
    (out, largest.expect("tracking was on"))
}

fn cfg() -> EllConfig {
    EllConfig::new(2, 16, 6).unwrap()
}

/// A copy of `snapshot` with the `p` byte of its first compressed
/// payload — whichever dense magic `check_header` finds, `ELLR` from
/// today's writer — raised from 6 to 24.
fn flip_first_compressed_p(snapshot: &[u8]) -> Vec<u8> {
    let at = (0..snapshot.len())
        .find(|&at| check_header(&snapshot[at..]).is_ok())
        .expect("the snapshot holds a compressed payload");
    assert_eq!(
        &snapshot[at..at + 4],
        b"ELLR",
        "today's writer compresses as ELLR"
    );
    let mut bad = snapshot.to_vec();
    assert_eq!(&bad[at + 4..at + 7], &[2, 16, 6], "the payload's (t, d, p)");
    bad[at + 6] = 24;
    bad
}

/// Decodes `bad` under the allocation tracker: it must fail, and no
/// single allocation may exceed c times its length.
fn assert_rejected_within_bound<T>(bad: &[u8], decode: impl FnOnce(&[u8]) -> Result<T, String>) {
    let (result, largest) = largest_allocation(|| decode(bad));
    assert!(result.is_err(), "a corrupted snapshot was accepted");
    let bound = MAX_ALLOCATION_PER_INPUT_BYTE * bad.len();
    assert!(
        largest <= bound,
        "rejecting a {}-byte snapshot allocated {largest} bytes at once (bound {bound})",
        bad.len()
    );
}

#[test]
fn flipped_p_in_a_warm_store_entry_is_rejected_before_allocating() {
    let mut store = EllStore::new(4, cfg()).unwrap();
    store.set_tier_config(TierConfig::new().warm_after(1));
    let mut rng = SplitMix64::new(41);
    for (key, n) in [("dense", 3_000), ("sparse", 5)] {
        let batch: Vec<(&str, u64)> = (0..n).map(|_| (key, rng.next_u64())).collect();
        store.ingest(&batch);
    }
    store.tick();
    assert_eq!(store.demote_idle(), (2, 0));
    let snapshot = store.snapshot_bytes();
    assert!(EllStore::from_snapshot_bytes(&snapshot).is_ok());
    assert_rejected_within_bound(&flip_first_compressed_p(&snapshot), |b| {
        EllStore::from_snapshot_bytes(b).map_err(|e| e.to_string())
    });
}

/// A windowed store whose keys `{idle}-0..3` went warm while `fresh`
/// stayed live, and its snapshot (entries sorted by key).
fn window_snapshot(idle: &str) -> Vec<u8> {
    let mut store = WindowedStore::new(4, cfg(), 3).unwrap();
    store.set_warm_after(Some(1));
    let mut rng = SplitMix64::new(43);
    for epoch in 0..3u64 {
        let batch: Vec<(String, u64)> = (0..900)
            .map(|i| (format!("{idle}-{}", i % 3), rng.next_u64()))
            .collect();
        let refs: Vec<(&str, u64)> = batch.iter().map(|(k, h)| (k.as_str(), *h)).collect();
        store.ingest(epoch, &refs);
    }
    store.ingest(5, &[("fresh", 1)]);
    store.demote_idle();
    assert_eq!(store.tier_stats().warm_keys, 3);
    let snapshot = store.snapshot_bytes();
    assert!(WindowedStore::from_snapshot_bytes(&snapshot).is_ok());
    snapshot
}

/// A copy of an `ELLW` snapshot with its header's `p` (byte 7) raised
/// from 6 to 22: a 2^22-register sketch is 12 MiB.
fn flip_header_p(snapshot: &[u8]) -> Vec<u8> {
    let mut bad = snapshot.to_vec();
    assert_eq!(
        &bad[..8],
        b"ELLW\x03\x02\x10\x06",
        "magic, version, (t, d, p)"
    );
    bad[7] = 22;
    bad
}

#[test]
fn flipped_p_in_a_warm_window_entry_is_rejected_before_allocating() {
    let snapshot = window_snapshot("key");
    assert_rejected_within_bound(&flip_first_compressed_p(&snapshot), |b| {
        WindowedStore::from_snapshot_bytes(b).map_err(|e| e.to_string())
    });
}

#[test]
fn flipped_header_p_before_a_live_window_entry_is_rejected_before_allocating() {
    // "fresh" sorts first: a live entry whose retired union and first
    // two slots are empty, so only its third slot carries a config.
    let snapshot = window_snapshot("key");
    assert_rejected_within_bound(&flip_header_p(&snapshot), |b| {
        WindowedStore::from_snapshot_bytes(b).map_err(|e| e.to_string())
    });
}

#[test]
fn flipped_header_p_before_a_warm_window_entry_is_rejected_before_allocating() {
    // "a-0" sorts before "fresh": the first entry is warm.
    let snapshot = window_snapshot("a");
    assert_rejected_within_bound(&flip_header_p(&snapshot), |b| {
        WindowedStore::from_snapshot_bytes(b).map_err(|e| e.to_string())
    });
}

/// An `ELLW` snapshot of `version` with p = 22 and E = 8, holding one
/// live entry whose retired union and slots are all empty: 74 bytes.
fn empty_live_entry(version: u8) -> Vec<u8> {
    let mut bytes = b"ELLW".to_vec();
    bytes.extend_from_slice(&[version, 2, 16, 22]);
    bytes.extend_from_slice(&8u32.to_le_bytes()); // epochs
    bytes.extend_from_slice(&1u32.to_le_bytes()); // shards
    bytes.extend_from_slice(&0u64.to_le_bytes()); // current epoch
    bytes.extend_from_slice(&1u64.to_le_bytes()); // entry count
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(b"k");
    bytes.push(0); // live
    for _ in 0..=8 {
        bytes.extend_from_slice(&0u32.to_le_bytes());
    }
    assert_eq!(bytes.len(), 74);
    bytes
}

#[test]
fn an_all_empty_live_window_entry_does_not_amplify() {
    for version in [2, 3] {
        let bytes = empty_live_entry(version);
        let (result, largest) =
            largest_allocation(|| WindowedStore::from_snapshot_bytes(&bytes).map(|_| ()));
        let bound = MAX_ALLOCATION_PER_INPUT_BYTE * bytes.len();
        assert!(
            result.is_err() || largest <= bound,
            "v{version}: restoring 74 bytes allocated {largest} bytes at once (bound {bound})"
        );
    }
}

#[test]
fn an_overstated_token_count_is_rejected_before_allocating() {
    let store = WindowedStore::new(1, cfg(), 3).unwrap();
    store.ingest(0, &[("k", 1), ("k", 2), ("k", 3)]);
    let snapshot = store.snapshot_bytes();
    assert!(WindowedStore::from_snapshot_bytes(&snapshot).is_ok());
    // The sparse slot's token payload: "ELLT", v, then the u64 count.
    let at = snapshot
        .windows(4)
        .position(|w| w == b"ELLT")
        .expect("the slot is a token set");
    let mut bad = snapshot.clone();
    bad[at + 5..at + 13].copy_from_slice(&(1u64 << 40).to_le_bytes());
    assert_rejected_within_bound(&bad, |b| {
        WindowedStore::from_snapshot_bytes(b).map_err(|e| e.to_string())
    });
}
