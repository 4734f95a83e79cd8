//! The [`Quantizer`]: a validated `(series_len, segments)` configuration
//! with the conversion routines every engine shares.
//!
//! [`Quantizer::word_into`] is the one summarization path: the MESSI, ADS+
//! and ParIS/ParIS+ builds and every query and DTW-envelope preparation
//! reach it (or its two halves). A series becomes its PAA
//! ([`crate::paa::paa_into`], AVX2 where the segmentation allows) and each
//! PAA value a symbol by a bucket-table lookup
//! ([`crate::BreakpointTable::symbol`]). Both halves are exact
//! replacements — the PAA repeats the scalar loop's float operations, the
//! lookup returns what a binary search over the breakpoints would — so a
//! word never depends on the SIMD mode.

use crate::breakpoints::breakpoints;
use crate::error::IsaxError;
use crate::paa::{paa_into, segment_bounds};
use crate::word::{Word, MAX_BITS, MAX_SEGMENTS};

/// Converts raw series into PAA summaries and full-cardinality iSAX words.
///
/// Cloneable and cheap; engines typically keep one per build/query and a
/// per-worker PAA scratch buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quantizer {
    series_len: usize,
    segments: usize,
    /// Per-segment lengths (differ by at most one).
    seg_lens: Vec<u32>,
}

impl Quantizer {
    /// Validates the configuration.
    ///
    /// # Errors
    /// [`IsaxError::BadSegmentCount`] unless `1 <= segments <= 16`;
    /// [`IsaxError::SeriesTooShort`] unless `series_len >= segments`.
    pub fn new(series_len: usize, segments: usize) -> Result<Self, IsaxError> {
        if segments == 0 || segments > MAX_SEGMENTS {
            return Err(IsaxError::BadSegmentCount {
                requested: segments,
            });
        }
        if series_len < segments {
            return Err(IsaxError::SeriesTooShort {
                series_len,
                segments,
            });
        }
        let bounds = segment_bounds(series_len, segments);
        let seg_lens = bounds.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
        Ok(Self {
            series_len,
            segments,
            seg_lens,
        })
    }

    /// Series length this quantizer was configured for.
    #[inline]
    #[must_use]
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Number of PAA/iSAX segments.
    #[inline]
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Number of points in each segment.
    #[inline]
    #[must_use]
    pub fn segment_lens(&self) -> &[u32] {
        &self.seg_lens
    }

    /// Computes the PAA of `series` into `paa_out`.
    ///
    /// # Panics
    /// Panics if `series.len() != self.series_len()` or
    /// `paa_out.len() != self.segments()`.
    #[inline]
    pub fn paa_into(&self, series: &[f32], paa_out: &mut [f32]) {
        assert_eq!(series.len(), self.series_len, "series length mismatch");
        assert_eq!(paa_out.len(), self.segments, "paa buffer length mismatch");
        paa_into(series, paa_out);
    }

    /// Quantizes a PAA vector into a full-cardinality word.
    #[inline]
    #[must_use]
    pub fn word_from_paa(&self, paa: &[f32]) -> Word {
        assert_eq!(paa.len(), self.segments, "paa length mismatch");
        let table = breakpoints();
        let mut symbols = [0u8; MAX_SEGMENTS];
        for (s, &v) in symbols.iter_mut().zip(paa) {
            *s = table.symbol(v, MAX_BITS);
        }
        Word::new(&symbols[..self.segments])
    }

    /// Summarizes a raw series into its word, using `paa_scratch` as the
    /// intermediate buffer (no allocation).
    #[inline]
    #[must_use]
    pub fn word_into(&self, series: &[f32], paa_scratch: &mut [f32]) -> Word {
        self.paa_into(series, paa_scratch);
        self.word_from_paa(paa_scratch)
    }

    /// Allocating convenience: summarize a raw series into its word.
    #[must_use]
    pub fn word(&self, series: &[f32]) -> Word {
        let mut scratch = vec![0.0; self.segments];
        self.word_into(series, &mut scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Quantizer::new(256, 16).is_ok());
        assert!(matches!(
            Quantizer::new(256, 0),
            Err(IsaxError::BadSegmentCount { requested: 0 })
        ));
        assert!(matches!(
            Quantizer::new(256, 17),
            Err(IsaxError::BadSegmentCount { requested: 17 })
        ));
        assert!(matches!(
            Quantizer::new(8, 16),
            Err(IsaxError::SeriesTooShort {
                series_len: 8,
                segments: 16
            })
        ));
        // Equal lengths are allowed (each point its own segment).
        assert!(Quantizer::new(16, 16).is_ok());
    }

    #[test]
    fn segment_lens_sum_to_series_len() {
        for (n, w) in [(256, 16), (128, 16), (10, 3), (7, 7), (100, 13)] {
            let q = Quantizer::new(n, w).unwrap();
            assert_eq!(q.segment_lens().len(), w);
            assert_eq!(q.segment_lens().iter().sum::<u32>() as usize, n);
        }
    }

    #[test]
    fn word_reflects_paa_signs() {
        let q = Quantizer::new(8, 2).unwrap();
        // First half strongly negative, second strongly positive.
        let s = [-2.0f32, -2.0, -2.0, -2.0, 2.0, 2.0, 2.0, 2.0];
        let w = q.word(&s);
        assert!(w.symbol(0) < 128, "negative segment quantizes below median");
        assert!(
            w.symbol(1) >= 128,
            "positive segment quantizes above median"
        );
        assert_eq!(w.root_key(2), 0b01);
        assert_eq!(w.root_key(1), 0b0);
    }

    #[test]
    fn word_into_matches_word() {
        let q = Quantizer::new(32, 8).unwrap();
        let s: Vec<f32> = (0..32).map(|i| ((i as f32) * 0.7).sin() * 2.0).collect();
        let mut scratch = vec![0.0; 8];
        assert_eq!(q.word_into(&s, &mut scratch), q.word(&s));
    }

    #[test]
    #[should_panic(expected = "series length mismatch")]
    fn wrong_series_len_panics() {
        let q = Quantizer::new(16, 4).unwrap();
        let mut out = [0.0f32; 4];
        q.paa_into(&[0.0; 8], &mut out);
    }
}
