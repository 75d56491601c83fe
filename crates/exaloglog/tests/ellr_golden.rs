//! Golden bytes of the `ELLR` format [`compress`] writes.
//!
//! `tests/fixtures/ellr_golden.bin` holds the [`compress`] output of the
//! sketches [`cases`] builds — the cases of `tests/ellz_golden.rs` —
//! each behind a little-endian `u32` length. Stores keep `ELLR`
//! payloads in memory, in spill segments and inside `ELLK`/`ELLW`
//! snapshots, so the coder must keep writing and reading exactly these
//! bytes: equal sketches give equal bytes, across versions too.

use ell_hash::SplitMix64;
use exaloglog::compress::{compress, decompress};
use exaloglog::ExaLogLog;

/// `(t, d, p, distinct hashes, seed)`: the space-optimal ELL(2, 20) at
/// p = 10 empty, sparse, in the mid range and far past it, beside the
/// 32- and 16-bit-aligned, martingale and HyperLogLog register layouts.
const CASES: [(u8, u8, u8, usize, u64); 8] = [
    (2, 20, 10, 0, 1),
    (2, 20, 10, 40, 2),
    (2, 20, 10, 3_000, 3),
    (2, 20, 10, 2_000_000, 4),
    (2, 24, 11, 5_000, 5),
    (1, 9, 8, 700, 6),
    (2, 16, 4, 40, 7),
    (0, 0, 6, 300, 8),
];

fn cases() -> Vec<ExaLogLog> {
    CASES
        .iter()
        .map(|&(t, d, p, n, seed)| {
            let mut sketch = ExaLogLog::with_params(t, d, p).unwrap();
            let mut rng = SplitMix64::new(seed);
            for _ in 0..n {
                sketch.insert_hash(rng.next_u64());
            }
            sketch
        })
        .collect()
}

/// The fixture's payloads, in [`CASES`] order.
fn golden() -> Vec<&'static [u8]> {
    let mut rest: &[u8] = include_bytes!("fixtures/ellr_golden.bin");
    let mut out = Vec::new();
    while !rest.is_empty() {
        let (len, tail) = rest.split_at(4);
        let len = u32::from_le_bytes(len.try_into().unwrap()) as usize;
        let (payload, tail) = tail.split_at(len);
        out.push(payload);
        rest = tail;
    }
    out
}

#[test]
fn compress_writes_the_golden_bytes() {
    let golden = golden();
    assert_eq!(golden.len(), CASES.len());
    for ((case, sketch), bytes) in CASES.iter().zip(cases()).zip(golden) {
        assert_eq!(&bytes[..4], b"ELLR", "case {case:?}");
        assert_eq!(compress(&sketch), bytes, "case {case:?}");
    }
}

#[test]
fn decompress_reads_the_golden_bytes() {
    assert_eq!(golden().len(), CASES.len());
    for ((case, sketch), bytes) in CASES.iter().zip(cases()).zip(golden()) {
        let decoded = decompress(bytes).unwrap();
        assert_eq!(decoded.to_bytes(), sketch.to_bytes(), "case {case:?}");
        assert_eq!(
            decoded.estimate().to_bits(),
            sketch.estimate().to_bits(),
            "case {case:?}"
        );
    }
}
