//! N(0, 1) quantile breakpoints, for every cardinality `2^b`, `b = 0..=8`.
//!
//! Zero bits is the degenerate cardinality 1: no breakpoints, one region
//! covering the whole line — what a node word says about a segment it does
//! not constrain.
//!
//! The breakpoints for cardinality `2^b` are `Phi^{-1}(i / 2^b)` for
//! `i = 1..2^b - 1`. Because `i / 2^b == 2i / 2^(b+1)`, every breakpoint at
//! bits `b` reappears at bits `b+1` — the *nesting* that makes symbol
//! refinement a pure bit-append.

use crate::normal::inv_norm_cdf;
use crate::word::MAX_BITS;
use std::sync::OnceLock;

/// Breakpoints for all supported cardinalities.
#[derive(Debug)]
pub struct BreakpointTable {
    /// `per_bits[b]` holds the `2^b - 1` ascending breakpoints for `b` bits.
    per_bits: Vec<Vec<f32>>,
}

impl BreakpointTable {
    fn compute() -> Self {
        let mut per_bits = Vec::with_capacity(MAX_BITS as usize + 1);
        for bits in 0..=MAX_BITS {
            let card = 1usize << bits;
            let mut bps = Vec::with_capacity(card - 1);
            for i in 1..card {
                bps.push(inv_norm_cdf(i as f64 / card as f64) as f32);
            }
            per_bits.push(bps);
        }
        Self { per_bits }
    }

    /// The ascending breakpoints for a cardinality of `bits` bits.
    ///
    /// # Panics
    /// Panics unless `bits <= MAX_BITS`.
    #[inline]
    #[must_use]
    pub fn for_bits(&self, bits: u8) -> &[f32] {
        assert!(bits <= MAX_BITS, "bits out of range: {bits}");
        &self.per_bits[bits as usize]
    }

    /// Quantizes a value into its symbol (bottom-up region index) at the
    /// given cardinality.
    ///
    /// A value exactly equal to a breakpoint belongs to the region *above*
    /// it, so regions are `(-inf, b1), [b1, b2), ..., [b_{c-1}, +inf)`.
    #[inline]
    #[must_use]
    pub fn symbol(&self, value: f32, bits: u8) -> u8 {
        let bps = self.for_bits(bits);
        bps.partition_point(|&bp| bp <= value) as u8
    }

    /// The `(lower, upper)` boundaries of a symbol's region; outer regions
    /// extend to infinity.
    #[inline]
    #[must_use]
    pub fn region(&self, symbol: u8, bits: u8) -> (f32, f32) {
        let bps = self.for_bits(bits);
        let s = symbol as usize;
        debug_assert!(
            s < (1usize << bits),
            "symbol {s} out of range for {bits} bits"
        );
        let lower = if s == 0 {
            f32::NEG_INFINITY
        } else {
            bps[s - 1]
        };
        let upper = if s == bps.len() {
            f32::INFINITY
        } else {
            bps[s]
        };
        (lower, upper)
    }
}

/// The process-wide breakpoint table (computed once, on first use).
#[must_use]
pub fn breakpoints() -> &'static BreakpointTable {
    static TABLE: OnceLock<BreakpointTable> = OnceLock::new();
    TABLE.get_or_init(BreakpointTable::compute)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_order() {
        let t = breakpoints();
        for bits in 0..=MAX_BITS {
            let bps = t.for_bits(bits);
            assert_eq!(bps.len(), (1usize << bits) - 1);
            for w in bps.windows(2) {
                assert!(w[0] < w[1], "breakpoints must be strictly ascending");
            }
        }
    }

    #[test]
    fn one_bit_breakpoint_is_zero() {
        let t = breakpoints();
        assert_eq!(t.for_bits(1).len(), 1);
        assert!(t.for_bits(1)[0].abs() < 1e-7);
    }

    #[test]
    fn nesting_property() {
        let t = breakpoints();
        for bits in 1..MAX_BITS {
            let coarse = t.for_bits(bits);
            let fine = t.for_bits(bits + 1);
            for (k, &bp) in coarse.iter().enumerate() {
                assert_eq!(bp, fine[2 * k + 1], "bits={bits} k={k}");
            }
        }
    }

    #[test]
    fn symbol_is_prefix_of_finer_symbol() {
        let t = breakpoints();
        for i in -60..=60 {
            let v = i as f32 * 0.1;
            let full = t.symbol(v, MAX_BITS);
            for bits in 0..MAX_BITS {
                assert_eq!(
                    t.symbol(v, bits),
                    (u16::from(full) >> (MAX_BITS - bits)) as u8,
                    "v={v} bits={bits}"
                );
            }
        }
    }

    #[test]
    fn symbol_boundaries() {
        let t = breakpoints();
        // Exactly at a breakpoint -> upper region.
        let bp = t.for_bits(2)[1]; // middle breakpoint (== 0)
        assert_eq!(t.symbol(bp, 2), 2);
        assert_eq!(t.symbol(bp - 1e-4, 2), 1);
        // Extremes.
        assert_eq!(t.symbol(-100.0, 8), 0);
        assert_eq!(t.symbol(100.0, 8), 255);
    }

    #[test]
    fn region_contains_its_values() {
        let t = breakpoints();
        for bits in [1u8, 3, 8] {
            for i in -40..=40 {
                let v = i as f32 * 0.15;
                let s = t.symbol(v, bits);
                let (lo, hi) = t.region(s, bits);
                assert!(lo <= v && v < hi, "v={v} bits={bits} region=({lo},{hi})");
            }
        }
    }

    #[test]
    fn regions_partition_the_line() {
        let t = breakpoints();
        for bits in 0..=MAX_BITS {
            let card = 1u16 << bits;
            let (first_lo, _) = t.region(0, bits);
            assert_eq!(first_lo, f32::NEG_INFINITY);
            let (_, last_hi) = t.region((card - 1) as u8, bits);
            assert_eq!(last_hi, f32::INFINITY);
            for s in 0..card - 1 {
                let (_, hi) = t.region(s as u8, bits);
                let (lo_next, _) = t.region((s + 1) as u8, bits);
                assert_eq!(hi, lo_next, "adjacent regions must share a boundary");
            }
        }
    }

    #[test]
    fn breakpoints_match_symmetry() {
        let t = breakpoints();
        for bits in 1..=MAX_BITS {
            let bps = t.for_bits(bits);
            let n = bps.len();
            for k in 0..n {
                assert!(
                    (bps[k] + bps[n - 1 - k]).abs() < 1e-6,
                    "bits={bits}: quantiles should be symmetric around 0"
                );
            }
        }
    }
}
