//! Property tests for the coding substrate: every code must round-trip
//! arbitrary value sequences, agree with its length function, and reject
//! (not crash on) truncated input.

use ell_codec::codes::{
    delta_len, gamma_len, read_delta, read_gamma, read_rice, read_unary, rice_len, unary_len,
    write_delta, write_gamma, write_rice, write_unary,
};
use ell_codec::rans::SCALE;
use ell_codec::{
    AdaptiveBitModel, BitReader, BitWriter, IndexedTable, RangeDecoder, RangeEncoder, RansDecoder,
    RansEncoder, SmallTable, SymbolTable, PROB_ONE,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn bitio_roundtrip(values in prop::collection::vec((any::<u64>(), 0u32..=64), 0..200)) {
        let mut w = BitWriter::new();
        for &(v, width) in &values {
            w.write_bits(v & mask(width), width);
        }
        let expected_bits: usize = values.iter().map(|&(_, w)| w as usize).sum();
        prop_assert_eq!(w.bit_len(), expected_bits);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, width) in &values {
            prop_assert_eq!(r.read_bits(width).unwrap(), v & mask(width));
        }
    }

    #[test]
    fn unary_roundtrip(values in prop::collection::vec(0u64..5000, 0..100)) {
        let mut w = BitWriter::new();
        let mut total = 0u64;
        for &v in &values {
            write_unary(&mut w, v);
            total += unary_len(v);
        }
        prop_assert_eq!(w.bit_len() as u64, total);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            prop_assert_eq!(read_unary(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn gamma_roundtrip(values in prop::collection::vec(1u64.., 0..200)) {
        let mut w = BitWriter::new();
        let mut total = 0u64;
        for &v in &values {
            write_gamma(&mut w, v);
            total += gamma_len(v);
        }
        prop_assert_eq!(w.bit_len() as u64, total);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            prop_assert_eq!(read_gamma(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn delta_roundtrip(values in prop::collection::vec(1u64.., 0..200)) {
        let mut w = BitWriter::new();
        let mut total = 0u64;
        for &v in &values {
            write_delta(&mut w, v);
            total += delta_len(v);
        }
        prop_assert_eq!(w.bit_len() as u64, total);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            prop_assert_eq!(read_delta(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn rice_roundtrip(
        values in prop::collection::vec(any::<u64>(), 0..200),
        k in 0u32..40,
    ) {
        let mut w = BitWriter::new();
        let mut total = 0u64;
        // Cap the quotient at 255 so the unary prefix stays short — the
        // remainder still exercises all k low bits.
        let bounded: Vec<u64> = values.iter().map(|&v| v % (1u64 << (k + 8))).collect();
        for &v in &bounded {
            write_rice(&mut w, v, k);
            total += rice_len(v, k);
        }
        prop_assert_eq!(w.bit_len() as u64, total);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &bounded {
            prop_assert_eq!(read_rice(&mut r, k).unwrap(), v);
        }
    }

    #[test]
    fn range_static_roundtrip(
        bits in prop::collection::vec(any::<bool>(), 0..2000),
        p1 in 1u32..=(PROB_ONE - 1),
    ) {
        let mut enc = RangeEncoder::new();
        for &b in &bits {
            enc.encode(b, p1);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes);
        for &b in &bits {
            prop_assert_eq!(dec.decode(p1), b);
        }
    }

    #[test]
    fn range_adaptive_roundtrip(bits in prop::collection::vec(any::<bool>(), 0..2000)) {
        let mut enc = RangeEncoder::new();
        let mut m = AdaptiveBitModel::new();
        for &b in &bits {
            enc.encode_adaptive(b, &mut m);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes);
        let mut m = AdaptiveBitModel::new();
        for &b in &bits {
            prop_assert_eq!(dec.decode_adaptive(&mut m), b);
        }
    }

    /// The multi-symbol coder round-trips any symbol sequence drawn from
    /// any mix of its two table shapes, whatever the weights — symbols
    /// the weights call impossible included.
    #[test]
    fn rans_roundtrip(
        small in prop::collection::vec(0.0f64..1.0, 1..=16),
        big in prop::collection::vec(0.0f64..1.0, 1..300),
        picks in prop::collection::vec((any::<bool>(), any::<u64>()), 0..3000),
    ) {
        let small = SmallTable::from_weights(&small);
        let big = IndexedTable::from_weights(&big);
        let (small_len, big_len) = (count_symbols(&small), big.len());
        let coded: Vec<(bool, usize)> = picks
            .iter()
            .map(|&(is_big, r)| (is_big, (r % if is_big { big_len } else { small_len } as u64) as usize))
            .collect();
        let mut enc = RansEncoder::new();
        for &(is_big, s) in coded.iter().rev() {
            if is_big { enc.encode(&big, s) } else { enc.encode(&small, s) }
        }
        let bytes = enc.finish();
        let mut dec = RansDecoder::new(&bytes);
        for &(is_big, s) in &coded {
            let got = if is_big { dec.decode(&big) } else { dec.decode(&small) };
            prop_assert_eq!(got, s);
        }
    }

    /// Truncated or arbitrary rANS input decodes to symbols of the table
    /// without panicking.
    #[test]
    fn rans_decoder_is_total(
        weights in prop::collection::vec(0.0f64..1.0, 1..=16),
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let table = SmallTable::from_weights(&weights);
        let mut dec = RansDecoder::new(&bytes);
        for _ in 0..500 {
            prop_assert!(dec.decode(&table) < weights.len());
        }
    }

    #[test]
    fn truncated_streams_never_panic(
        values in prop::collection::vec(1u64..1_000_000, 1..50),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut w = BitWriter::new();
        for &v in &values {
            write_delta(&mut w, v);
        }
        let bytes = w.into_bytes();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        let mut r = BitReader::new(&bytes[..cut]);
        // Decoding may fail with an error but must not panic, and any
        // successfully decoded prefix must match the original values.
        for &v in &values {
            match read_delta(&mut r) {
                Ok(decoded) => prop_assert_eq!(decoded, v),
                Err(_) => break,
            }
        }
    }
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// The alphabet size of a [`SmallTable`]: the symbols with a slot range.
fn count_symbols(table: &SmallTable) -> usize {
    (0..16).take_while(|&s| table.range(s).0 < SCALE).count()
}
