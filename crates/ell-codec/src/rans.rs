//! Static-frequency multi-symbol coder: byte-renormalizing rANS.
//!
//! One coder step codes a whole symbol of an alphabet whose frequencies
//! are fixed in advance, where the binary coder of [`crate::range`]
//! spends one step per bit. The design is the 32-bit-state,
//! byte-renormalizing range variant of asymmetric numeral systems
//! (Duda 2013; the layout of Giesen's `rans_byte`):
//!
//! * frequencies are quantized to [`SCALE`] = 2^[`SCALE_BITS`] by
//!   [`quantize`], and every symbol keeps a frequency of at least 1, so
//!   every symbol of the alphabet stays codable, however unlikely the
//!   model thinks it is;
//! * the state lives in `[2^23, 2^31)`; the encoder emits its low bytes
//!   before a step would leave that interval and the decoder pulls bytes
//!   back in, at most two per symbol;
//! * [`LANES`] states interleave: symbols take them in turn, so a
//!   decoder works on independent dependency chains;
//! * the encoder runs **backwards**: [`RansEncoder::put`] takes the
//!   symbols in the reverse of the order [`RansDecoder`] returns them,
//!   and [`RansEncoder::finish`] reverses the bytes so the decoder reads
//!   forward.
//!
//! The decoder is total: reading past the end of its input yields zero
//! bytes, any state (even one no encoder produces) decodes to *some*
//! symbol sequence, and renormalization takes at most two bytes per
//! symbol, so a truncated or corrupt stream never panics or loops. Like
//! the range coder it cannot detect corruption by itself; the caller's
//! framing must.
//!
//! Two table shapes cover the alphabets in use, both found through a
//! bucket index of the slots: [`SmallTable`], up to 16 symbols held
//! inline, and [`IndexedTable`], up to [`MAX_INDEXED`] symbols.

/// Resolution of the quantized frequencies, in bits.
pub const SCALE_BITS: u32 = 15;
/// The sum of every quantized frequency table.
pub const SCALE: u32 = 1 << SCALE_BITS;
/// Lower bound of the normalized coder state.
const STATE_LOW: u32 = 1 << 23;

/// Quantizes non-negative `weights` into `freqs`: every frequency is at
/// least 1 and they sum to [`SCALE`]. Symbol `i` gets
/// `1 + ⌊wᵢ·((SCALE − n) / Σw)⌋` and the rounding remainder goes to the
/// first largest frequency, so the result is a deterministic function of
/// the weights. Non-finite or negative weights count as zero; if no
/// weight is positive the remainder goes to symbol 0.
///
/// # Panics
///
/// Panics if the slices differ in length, are empty, or hold more than
/// [`SCALE`] symbols.
pub fn quantize(weights: &[f64], freqs: &mut [u32]) {
    let n = weights.len();
    assert!(
        n == freqs.len() && n > 0 && n <= SCALE as usize,
        "quantize: {n} weights for {} frequencies",
        freqs.len()
    );
    let clean = |w: f64| if w.is_finite() && w > 0.0 { w } else { 0.0 };
    let total: f64 = weights.iter().map(|&w| clean(w)).sum();
    // cast: n ≤ SCALE, checked above.
    let spare = SCALE - n as u32;
    let per_weight = if total > 0.0 {
        f64::from(spare) / total
    } else {
        0.0
    };
    let mut sum = 0u32;
    for (&w, f) in weights.iter().zip(freqs.iter_mut()) {
        // cast: the float → int cast saturates; w ≤ total keeps the
        // share within `spare` up to rounding.
        *f = 1 + ((clean(w) * per_weight) as u32).min(spare);
        sum += *f;
    }
    // Float rounding can leave the shares a slot off either way; the
    // first largest frequency absorbs the difference.
    let mut largest = 0;
    for (i, &f) in freqs.iter().enumerate() {
        if f > freqs[largest] {
            largest = i;
        }
    }
    // cast: the largest frequency is at least (SCALE − n)/n + 1, far
    // above any rounding difference, so the result is positive.
    freqs[largest] = (i64::from(freqs[largest]) + i64::from(SCALE) - i64::from(sum)) as u32;
}

/// Number of interleaved coder states. Symbols take the lanes in turn,
/// the same on both sides, so consecutive symbols decode as independent
/// dependency chains — most of a decoder's speed.
pub const LANES: usize = 4;

/// Streaming rANS encoder over [`LANES`] interleaved states sharing one
/// output. Symbols go in **last first**.
#[derive(Debug)]
pub struct RansEncoder {
    /// The lane of the next symbol first; the others in turn.
    state: [u32; LANES],
    out: Vec<u8>,
}

impl Default for RansEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RansEncoder {
    /// Creates an empty encoder.
    #[must_use]
    pub fn new() -> Self {
        RansEncoder {
            state: [STATE_LOW; LANES],
            out: Vec::new(),
        }
    }

    /// Codes the symbol occupying `[start, start + freq)` of the
    /// [`SCALE`] slots. Calls must come in the reverse of decoding order.
    #[inline]
    pub fn put(&mut self, start: u32, freq: u32) {
        debug_assert!(freq >= 1 && start + freq <= SCALE, "[{start}, +{freq})");
        let mut state = self.state[0];
        let limit = ((STATE_LOW >> SCALE_BITS) << 8) * freq;
        while state >= limit {
            // cast: emits the low byte of the state.
            self.out.push(state as u8);
            state >>= 8;
        }
        self.state = next_lane(
            self.state,
            ((state / freq) << SCALE_BITS) + state % freq + start,
        );
    }

    /// Codes `symbol` of `table` (see [`RansEncoder::put`]).
    #[inline]
    pub fn encode<T: SymbolTable>(&mut self, table: &T, symbol: usize) {
        let (start, freq) = table.range(symbol);
        self.put(start, freq);
    }

    /// Flushes the states and returns the bytes in decoding order: the
    /// final states, the lane of the first symbol first, then the
    /// renormalization bytes.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        for state in self.state {
            self.out.extend_from_slice(&state.to_le_bytes());
        }
        self.out.reverse();
        self.out
    }
}

/// Streaming rANS decoder over a byte slice. Reading past the end of
/// the input yields zero bytes.
#[derive(Debug)]
pub struct RansDecoder<'a> {
    /// The lane of the next symbol first; the others in turn.
    state: [u32; LANES],
    input: &'a [u8],
    pos: usize,
}

impl<'a> RansDecoder<'a> {
    /// Creates a decoder over `input` (as produced by
    /// [`RansEncoder::finish`]).
    #[must_use]
    pub fn new(input: &'a [u8]) -> Self {
        let mut d = RansDecoder {
            state: [0; LANES],
            input,
            pos: 0,
        };
        for lane in 0..LANES {
            for _ in 0..4 {
                d.state[lane] = (d.state[lane] << 8) | u32::from(d.next_byte());
            }
        }
        d
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        let b = self.input.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// Decodes one symbol of `table`.
    #[inline]
    pub fn decode<T: SymbolTable>(&mut self, table: &T) -> usize {
        let state = self.state[0];
        let slot = state & (SCALE - 1);
        let symbol = table.find(slot);
        let (start, freq) = table.range(symbol);
        // Cannot overflow: freq·(state >> SCALE_BITS) ≤ state − slot,
        // and slot − start < freq ≤ SCALE.
        let mut state = freq * (state >> SCALE_BITS) + slot - start;
        // An encoder's state leaves at least 2^8 here, which two bytes
        // bring back to ≥ STATE_LOW. A corrupt state may stay below;
        // decoding then goes on without looping for more input.
        for _ in 0..2 {
            if state < STATE_LOW {
                state = (state << 8) | u32::from(self.next_byte());
            }
        }
        self.state = next_lane(self.state, state);
        symbol
    }
}

/// The lanes after one symbol: the next lane first, and the lane just
/// used, now holding `state`, last. Built whole rather than rotated in
/// place so the lanes stay in registers.
#[inline]
fn next_lane(lanes: [u32; LANES], state: u32) -> [u32; LANES] {
    core::array::from_fn(|i| if i + 1 < LANES { lanes[i + 1] } else { state })
}

/// A quantized static alphabet: each symbol owns a range of the
/// [`SCALE`] slots.
pub trait SymbolTable {
    /// `(start, freq)` of `symbol`'s slot range.
    fn range(&self, symbol: usize) -> (u32, u32);
    /// The symbol whose range holds `slot` (< [`SCALE`]).
    fn find(&self, slot: u32) -> usize;
}

/// Writes the range starts of `freqs` into `start`, then [`SCALE`]
/// into every entry after them.
fn starts(freqs: &[u32], start: &mut [u16]) {
    let mut at = 0u32;
    for (i, s) in start.iter_mut().enumerate() {
        // cast: at ≤ SCALE = 2^15, within u16.
        *s = at as u16;
        at += freqs.get(i).copied().unwrap_or(0);
    }
}

/// Buckets of a [`SmallTable`]'s index.
const SMALL_BUCKETS: usize = 64;

/// An alphabet of at most 16 symbols, held inline: range starts and an
/// index of the first symbol in each of 64 slot buckets, from which a
/// lookup scans forward (one step for nearly every slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmallTable {
    /// Range starts, then [`SCALE`] for every symbol past the alphabet.
    start: [u16; 17],
    bucket: [u8; SMALL_BUCKETS],
}

impl SmallTable {
    /// Builds the table from `weights` (1 to 16) through [`quantize`].
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or longer than 16.
    #[must_use]
    pub fn from_weights(weights: &[f64]) -> Self {
        let n = weights.len();
        assert!(n <= 16, "{n} symbols");
        let mut freqs = [0u32; 16];
        quantize(weights, &mut freqs[..n]);
        let mut table = SmallTable {
            start: [0; 17],
            bucket: [0; SMALL_BUCKETS],
        };
        starts(&freqs[..n], &mut table.start);
        // Bucket b's first slot, b·2^9, belongs to the symbol whose range
        // holds it: buckets ⌈start/2^9⌉ up to ⌈end/2^9⌉.
        for (symbol, ends) in table.start[..=n].windows(2).enumerate() {
            let first = usize::from(ends[0]).div_ceil(1 << 9);
            let last = usize::from(ends[1]).div_ceil(1 << 9);
            // cast: symbol < 16.
            table.bucket[first..last].fill(symbol as u8);
        }
        table
    }
}

impl SymbolTable for SmallTable {
    #[inline]
    fn range(&self, symbol: usize) -> (u32, u32) {
        let start = u32::from(self.start[symbol]);
        (start, u32::from(self.start[symbol + 1]) - start)
    }

    #[inline]
    fn find(&self, slot: u32) -> usize {
        // cast: SCALE / SMALL_BUCKETS = 2^9 slots per bucket.
        let mut symbol = usize::from(self.bucket[(slot >> 9) as usize % SMALL_BUCKETS]);
        // start[16] = SCALE > slot, so the scan stops in bounds.
        while symbol < 15 && u32::from(self.start[symbol + 1]) <= slot {
            symbol += 1;
        }
        symbol
    }
}

/// The largest alphabet an [`IndexedTable`] holds. Every symbol keeps
/// one of the [`SCALE`] slots, so a full alphabet takes an eighth of
/// them from the likely symbols.
pub const MAX_INDEXED: usize = 4096;

/// Buckets of an [`IndexedTable`]'s index.
const INDEXED_BUCKETS: usize = 256;

/// An alphabet of up to [`MAX_INDEXED`] symbols: range starts and an
/// index of the first symbol in each of 256 slot buckets, from which a
/// lookup scans forward (one step for nearly every slot a likely symbol
/// owns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexedTable {
    /// Range starts, one per symbol, then [`SCALE`].
    start: Vec<u16>,
    bucket: Box<[u16; INDEXED_BUCKETS]>,
}

impl IndexedTable {
    /// Builds the table from `weights` (1 to [`MAX_INDEXED`]) through
    /// [`quantize`].
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or longer than [`MAX_INDEXED`].
    #[must_use]
    pub fn from_weights(weights: &[f64]) -> Self {
        let n = weights.len();
        assert!(n <= MAX_INDEXED, "{n} symbols");
        let mut freqs = vec![0u32; n];
        quantize(weights, &mut freqs);
        let mut table = IndexedTable {
            start: vec![0; n + 1],
            bucket: Box::new([0; INDEXED_BUCKETS]),
        };
        starts(&freqs, &mut table.start);
        let mut symbol = 0;
        for (b, first) in table.bucket.iter_mut().enumerate() {
            // cast: b < INDEXED_BUCKETS = 256, so the slot is below SCALE.
            let slot = (b as u32) << 7;
            while u32::from(table.start[symbol + 1]) <= slot {
                symbol += 1;
            }
            // cast: symbol < MAX_INDEXED = 2^12.
            *first = symbol as u16;
        }
        table
    }

    /// The number of symbols.
    #[must_use]
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// Whether the alphabet is empty (never: `from_weights` needs one).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SymbolTable for IndexedTable {
    #[inline]
    fn range(&self, symbol: usize) -> (u32, u32) {
        let start = u32::from(self.start[symbol]);
        (start, u32::from(self.start[symbol + 1]) - start)
    }

    #[inline]
    fn find(&self, slot: u32) -> usize {
        // cast: SCALE / INDEXED_BUCKETS = 2^7 slots per bucket.
        let mut symbol = usize::from(self.bucket[(slot >> 7) as usize % INDEXED_BUCKETS]);
        // The last start is SCALE > slot, so the scan stops in bounds.
        while u32::from(self.start[symbol + 1]) <= slot {
            symbol += 1;
        }
        symbol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift for reproducible symbol streams.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
        /// A draw from the distribution `weights` (summing to 1).
        fn draw(&mut self, weights: &[f64]) -> usize {
            let mut u = self.unit();
            for (i, &w) in weights.iter().enumerate() {
                if u < w {
                    return i;
                }
                u -= w;
            }
            weights.len() - 1
        }
    }

    fn encode<T: SymbolTable>(table: &T, symbols: &[usize]) -> Vec<u8> {
        let mut enc = RansEncoder::new();
        for &s in symbols.iter().rev() {
            enc.encode(table, s);
        }
        enc.finish()
    }

    #[test]
    fn quantize_keeps_every_symbol_and_sums_to_scale() {
        for weights in [
            vec![1.0],
            vec![0.5, 0.5],
            vec![1.0, 0.0, 0.0, f64::NAN, -3.0],
            vec![0.0; 7],
            (0..256).map(|i| 0.9f64.powi(i)).collect(),
            vec![1e-300, 1.0, 1e-300],
        ] {
            let mut freqs = vec![0u32; weights.len()];
            quantize(&weights, &mut freqs);
            assert_eq!(freqs.iter().sum::<u32>(), SCALE, "{weights:?}");
            assert!(freqs.iter().all(|&f| f >= 1), "{weights:?}");
        }
        let mut freqs = [0u32; 3];
        quantize(&[1.0, 2.0, 1.0], &mut freqs);
        assert_eq!(freqs, [8192, 16384, 8192]);
    }

    #[test]
    fn tables_find_the_symbol_owning_every_slot() {
        let weights: Vec<f64> = (0..200)
            .map(|i| (-(f64::from(i) - 90.0).powi(2) / 50.0).exp())
            .collect();
        let big = IndexedTable::from_weights(&weights);
        let small = SmallTable::from_weights(&[0.7, 0.0, 0.2, 0.1, 1e-9]);
        for slot in 0..SCALE {
            let s = big.find(slot);
            let (start, freq) = big.range(s);
            assert!(s < big.len() && start <= slot && slot < start + freq);
            let s = small.find(slot);
            let (start, freq) = small.range(s);
            assert!(s < 5 && start <= slot && slot < start + freq);
        }
    }

    #[test]
    fn roundtrip_compresses_to_entropy() {
        let weights = [0.6, 0.25, 0.1, 0.04, 0.01];
        let table = SmallTable::from_weights(&weights);
        let mut rng = Rng(3);
        let symbols: Vec<usize> = (0..40_000).map(|_| rng.draw(&weights)).collect();
        let bytes = encode(&table, &symbols);
        let mut dec = RansDecoder::new(&bytes);
        for &s in &symbols {
            assert_eq!(dec.decode(&table), s);
        }
        let entropy: f64 = weights.iter().map(|&p| -p * p.log2()).sum();
        let ideal = 40_000.0 * entropy / 8.0;
        let ratio = bytes.len() as f64 / ideal;
        assert!(
            (0.98..1.01).contains(&ratio),
            "{} B vs {ideal:.0} B",
            bytes.len()
        );
    }

    #[test]
    fn unlikely_symbols_stay_codable() {
        // A model that puts all its weight on symbol 0 still codes the
        // rest, at about SCALE_BITS bits each.
        let mut weights = vec![0.0; 256];
        weights[0] = 1.0;
        let table = IndexedTable::from_weights(&weights);
        let symbols: Vec<usize> = (0..256).chain((0..256).rev()).collect();
        let bytes = encode(&table, &symbols);
        let mut dec = RansDecoder::new(&bytes);
        for &s in &symbols {
            assert_eq!(dec.decode(&table), s);
        }
        assert!(
            bytes.len() <= 512 * SCALE_BITS as usize / 8 + 4 * LANES,
            "{}",
            bytes.len()
        );
    }

    #[test]
    fn empty_stream_is_the_initial_states() {
        let bytes = RansEncoder::new().finish();
        assert_eq!(bytes, [STATE_LOW.to_be_bytes(); LANES].concat());
    }

    #[test]
    fn tables_mix_within_one_stream() {
        // Each symbol may come from a different table, and the stream
        // length need not be a multiple of LANES.
        let tables = [
            SmallTable::from_weights(&[0.4, 0.3, 0.2, 0.1]),
            SmallTable::from_weights(&[0.999, 0.001]),
            SmallTable::from_weights(&[1.0; 16]),
        ];
        let mut rng = Rng(21);
        for len in [0, 1, 2, 3, 5, 4097] {
            let coded: Vec<(usize, usize)> = (0..len)
                .map(|_| {
                    let t = (rng.next() % 3) as usize;
                    (t, (rng.next() % [4, 2, 16][t]) as usize)
                })
                .collect();
            let mut enc = RansEncoder::new();
            for &(t, s) in coded.iter().rev() {
                enc.encode(&tables[t], s);
            }
            let bytes = enc.finish();
            let mut dec = RansDecoder::new(&bytes);
            for &(t, s) in &coded {
                assert_eq!(dec.decode(&tables[t]), s);
            }
        }
    }

    #[test]
    fn any_input_decodes_without_panicking() {
        let table = IndexedTable::from_weights(&[0.5, 0.3, 0.2]);
        let mut rng = Rng(11);
        for len in 0..40 {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            for input in [&bytes[..], &[0u8; 9][..], &[0xff; 9][..]] {
                let mut dec = RansDecoder::new(input);
                for _ in 0..1000 {
                    assert!(dec.decode(&table) < 3);
                }
            }
        }
    }
}
