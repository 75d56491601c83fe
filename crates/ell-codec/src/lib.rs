//! Bit-level coding substrate for compressed sketch serialization.
//!
//! The paper's Table 2 shows that the CPC sketch reaches its headline
//! serialized size "by expensive compression during serialization"
//! (Lang 2017), and §6 names entropy coding as the route to the
//! compressed-MVP optima of Figures 6 and 7. This crate provides the
//! coding machinery both of those need, independent of any specific
//! sketch:
//!
//! * [`bitio`] — MSB-first [`BitWriter`]/[`BitReader`] over byte buffers;
//! * [`codes`] — universal integer codes: unary, Elias gamma/delta, and
//!   Rice (Golomb with power-of-two divisor), each with a length
//!   function for size accounting without encoding;
//! * [`range`] — a carry-propagating binary range coder (LZMA design)
//!   with static and adaptive bit models;
//! * [`rans`] — a static-frequency multi-symbol coder (byte-renormalizing
//!   rANS) over quantized tables in which every symbol stays codable.
//!
//! Consumers in this workspace: `ell-baselines::cpc` compresses the PCSA
//! state column-wise with Rice-coded bitmaps, and `exaloglog::compress`
//! codes registers with a model derived from the paper's §3.1 register
//! distribution — one [`rans`] symbol per register's maximum update value
//! and per group of indicator bits (the `ELLR` format it writes), or one
//! [`range`]-coded decision per bit (the legacy `ELLZ` format it still
//! reads). The `ell` CLI exposes both through sketch-file compression.
//!
//! All decoders are hardened against truncated or corrupt input: they
//! return [`CodecError`] instead of panicking, which the workspace-level
//! failure-injection tests verify byte-by-byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitio;
pub mod codes;
pub mod range;
pub mod rans;

pub use bitio::{BitReader, BitWriter};
pub use range::{AdaptiveBitModel, RangeDecoder, RangeEncoder, PROB_BITS, PROB_ONE};
pub use rans::{IndexedTable, RansDecoder, RansEncoder, SmallTable, SymbolTable};

/// Errors produced by the decoders in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value under decode was complete.
    UnexpectedEnd,
    /// A decoded value violates the code's structural constraints
    /// (e.g. an Elias length prefix larger than 64 bits).
    Malformed {
        /// Human-readable description of the violated constraint.
        reason: &'static str,
    },
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "input ended mid-value"),
            CodecError::Malformed { reason } => write!(f, "malformed input: {reason}"),
        }
    }
}

impl std::error::Error for CodecError {}
