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
//!
//! Quantizing a value is a lookup, not a search. The 8-bit symbol comes
//! from a table of 4096 buckets, 1/512 wide and centred on `-4 + b/512`,
//! plus one compare-and-increment against the next breakpoint. A value
//! lands within half a bucket of its bucket's centre, and the table holds
//! the symbol of the point a whole bucket below it; that 1.5-bucket span
//! is narrower than the closest pair of 8-bit breakpoints (≈ 0.0098,
//! around the median), so at most one breakpoint separates a value from
//! its bucket's symbol, and the result is exactly
//! `partition_point(|bp| bp <= v)` for every `f32`, NaN and the infinities
//! included (checked over all 2^32 bit patterns). A coarser symbol is the
//! 8-bit symbol's prefix (the nesting above).

use crate::normal::inv_norm_cdf;
use crate::word::MAX_BITS;
use std::sync::OnceLock;

/// Buckets of the quantizer's symbol table.
const BUCKETS: usize = 4096;
/// Bucket `b` is centred on `b / BUCKET_SCALE - BUCKET_ORIGIN`; every value
/// below the table lands in the first bucket, every value above in the
/// last.
const BUCKET_ORIGIN: f32 = 4.0;
/// Buckets per unit: a bucket is 1/512 wide.
const BUCKET_SCALE: f32 = BUCKETS as f32 / (2.0 * BUCKET_ORIGIN);

/// The bucket `value` falls in: `(value + BUCKET_ORIGIN) * BUCKET_SCALE`
/// rounded to the nearest integer. Clamped to the table first — NaN and
/// everything below the table to bucket 0, everything above it to the
/// last — then rounded by adding 2^23, which leaves the integer in the low
/// mantissa bits: no float-to-int conversion, and an index the mask keeps
/// in bounds.
#[inline]
fn bucket(value: f32) -> usize {
    const ROUND: f32 = 8_388_608.0; // 2^23: one unit in the last place
    const LAST: f32 = (BUCKETS - 1) as f32;
    let x = (value + BUCKET_ORIGIN) * BUCKET_SCALE;
    // NaN fails `x >= 0.0` and takes bucket 0.
    let clamped = if x >= 0.0 {
        if x < LAST {
            x
        } else {
            LAST
        }
    } else {
        0.0
    };
    (clamped + ROUND).to_bits() as usize & (BUCKETS - 1)
}

/// Breakpoints for all supported cardinalities.
#[derive(Debug)]
pub struct BreakpointTable {
    /// `per_bits[b]` holds the `2^b - 1` ascending breakpoints for `b` bits.
    per_bits: Vec<Vec<f32>>,
    /// `edges[b]` holds the `2^b + 1` region boundaries for `b` bits:
    /// `-inf`, the breakpoints, `+inf` — region `s` is `[edges[s],
    /// edges[s + 1])`.
    edges: Vec<Vec<f32>>,
    /// Each bucket's 8-bit symbol one bucket below its centre: at most the
    /// symbol of any value that lands in it, and at most one less.
    buckets: Box<[u8; BUCKETS]>,
    /// The breakpoint just above each bucket's symbol — a value at or
    /// above it takes the next symbol — or NaN for symbol 255, which the
    /// fix-up compare `v >= next[b]` never passes.
    next: Box<[f32; BUCKETS]>,
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
        let edges = per_bits
            .iter()
            .map(|bps| {
                let mut e = Vec::with_capacity(bps.len() + 2);
                e.push(f32::NEG_INFINITY);
                e.extend_from_slice(bps);
                e.push(f32::INFINITY);
                e
            })
            .collect();
        let finest = &per_bits[MAX_BITS as usize];
        // A value lands in bucket `b` only if it lies within half a bucket
        // of `b`'s centre, give or take the rounding of `v +
        // BUCKET_ORIGIN` (under 2^-22): a whole bucket below the centre is
        // a safe floor, exactly representable.
        let mut buckets = Box::new([0u8; BUCKETS]);
        let mut next = Box::new([f32::NAN; BUCKETS]);
        for (b, (slot, above)) in buckets.iter_mut().zip(next.iter_mut()).enumerate() {
            let floor = (b as f32 - 1.0) / BUCKET_SCALE - BUCKET_ORIGIN;
            let symbol = finest.partition_point(|&bp| bp <= floor);
            *slot = symbol as u8;
            *above = finest.get(symbol).copied().unwrap_or(f32::NAN);
        }
        Self {
            per_bits,
            edges,
            buckets,
            next,
        }
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
    /// it, so regions are `(-inf, b1), [b1, b2), ..., [b_{c-1}, +inf)`;
    /// NaN quantizes to symbol 0. Equal, for every `f32`, to the binary
    /// search `for_bits(bits).partition_point(|&bp| bp <= value)`.
    ///
    /// # Panics
    /// Panics unless `bits <= MAX_BITS`.
    #[inline]
    #[must_use]
    pub fn symbol(&self, value: f32, bits: u8) -> u8 {
        assert!(bits <= MAX_BITS, "bits out of range: {bits}");
        let b = bucket(value);
        let fine = self.buckets[b] + u8::from(value >= self.next[b]);
        (u16::from(fine) >> (MAX_BITS - bits)) as u8
    }

    /// The `2^bits + 1` region boundaries for `bits` bits: `-inf`, the
    /// breakpoints, `+inf`. Region `s` is `[edges[s], edges[s + 1])`.
    #[inline]
    pub(crate) fn edges(&self, bits: u8) -> &[f32] {
        &self.edges[usize::from(bits)]
    }

    /// The `(lower, upper)` boundaries of a symbol's region; outer regions
    /// extend to infinity.
    #[inline]
    #[must_use]
    pub fn region(&self, symbol: u8, bits: u8) -> (f32, f32) {
        assert!(bits <= MAX_BITS, "bits out of range: {bits}");
        let s = symbol as usize;
        debug_assert!(
            s < (1usize << bits),
            "symbol {s} out of range for {bits} bits"
        );
        let edges = self.edges(bits);
        (edges[s], edges[s + 1])
    }
}

/// The process-wide breakpoint table (computed once, on first use).
#[inline]
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

    /// The binary search the bucket table replaces.
    fn searched(v: f32) -> u8 {
        breakpoints()
            .for_bits(MAX_BITS)
            .partition_point(|&bp| bp <= v) as u8
    }

    #[test]
    fn buckets_are_narrower_than_every_breakpoint_gap() {
        // A value lies within half a bucket of its bucket's centre and the
        // table's symbol is taken a whole bucket below it: the
        // one-increment fix-up is exact only while no two breakpoints fit
        // in that 1.5-bucket span.
        let gap = breakpoints()
            .for_bits(MAX_BITS)
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(f32::INFINITY, f32::min);
        assert!(1.5 / BUCKET_SCALE < gap, "bucket span vs gap {gap}");
        assert_eq!(BUCKET_SCALE, 512.0);
    }

    #[test]
    fn table_symbol_equals_search_near_every_breakpoint() {
        let t = breakpoints();
        for &bp in t.for_bits(MAX_BITS) {
            for ulps in -64i32..=64 {
                let v = f32::from_bits(bp.to_bits().wrapping_add_signed(ulps));
                assert_eq!(t.symbol(v, MAX_BITS), searched(v), "bp={bp} ulps={ulps}");
            }
        }
    }

    #[test]
    fn table_symbol_equals_search_on_a_sweep_and_special_values() {
        let t = breakpoints();
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN,
            f32::MAX,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            -f32::from_bits(0x007F_FFFF),
            BUCKET_ORIGIN,
            -BUCKET_ORIGIN,
            BUCKET_ORIGIN - 1.0 / BUCKET_SCALE,
        ];
        for v in (-500_000..=500_000).map(|i| i as f32 * 1e-5) {
            assert_eq!(t.symbol(v, MAX_BITS), searched(v), "v={v:e}");
        }
        for v in specials {
            for bits in 0..=MAX_BITS {
                let coarse = t.for_bits(bits).partition_point(|&bp| bp <= v) as u8;
                assert_eq!(t.symbol(v, bits), coarse, "v={v:e} bits={bits}");
            }
        }
        assert_eq!(t.symbol(f32::NAN, MAX_BITS), 0);
        assert_eq!(t.symbol(f32::INFINITY, MAX_BITS), 255);
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
