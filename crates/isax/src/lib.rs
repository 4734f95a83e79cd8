//! The iSAX representation: PAA summarization, Gaussian breakpoints,
//! variable-cardinality symbolic words, and the lower-bound (MINDIST)
//! distances that make index-based pruning sound.
//!
//! Terminology follows the paper (§II):
//!
//! * **PAA** — Piecewise Aggregate Approximation: the series is cut into
//!   `w` segments and each segment is replaced by its mean.
//! * **iSAX word** — each PAA value is quantized into one of `2^b` regions
//!   delimited by N(0, 1) quantiles ("breakpoints"); `b` is the segment's
//!   *cardinality* in bits and may differ per segment.
//! * **MINDIST** — a distance between a query's PAA and an iSAX word that
//!   never exceeds the true Euclidean distance between the raw series.
//!
//! Symbols are *bottom-up region indices*; because breakpoints for `2^b`
//! regions nest inside those for `2^(b+1)`, a symbol at a coarse cardinality
//! is exactly the bit-prefix of the symbol at any finer cardinality. That
//! prefix property is what lets the index split nodes by "adding one bit".

#![deny(unsafe_op_in_unsafe_fn)]

pub mod breakpoints;
pub mod error;
pub mod mindist;
pub mod normal;
pub mod paa;
pub mod quantizer;
#[cfg(target_arch = "x86_64")]
pub(crate) mod simd;
pub mod split;
pub mod word;

pub use breakpoints::{breakpoints, BreakpointTable};
pub use error::IsaxError;
pub use mindist::{CoarseTable, MindistTable, NodeMindistTable, COARSE_BLOCK};
// The one SIMD gate every dispatch point in the workspace consults
// (re-exported so isax consumers need not depend on dsidx-series directly).
pub use dsidx_series::distance::simd_enabled;
pub use quantizer::Quantizer;
pub use word::{
    root_key_segments, NodeWord, Word, WordMatcher, MAX_BITS, MAX_CARDINALITY, MAX_SEGMENTS,
};

/// The paper's default number of segments ("w is fixed to 16 in this paper,
/// as in previous studies").
pub const DEFAULT_SEGMENTS: usize = 16;
