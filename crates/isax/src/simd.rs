//! AVX2 kernels for summarization and the MINDIST lookup tables.
//!
//! A [`crate::MindistTable`] lookup at the paper's default 16 segments is 16
//! dependent loads and adds; with AVX2 it becomes two 8-lane gathers and a
//! horizontal sum. A [`crate::CoarseTable`] pre-filter ([`coarse_mask32_avx2`])
//! needs no gather at all: its 16-entry rows fit one `vpshufb` each. The PAA kernel ([`paa_avx2`]) sums eight segments at
//! once, one per lane, in the scalar loop's order. These kernels are
//! `pub(crate)` — callers go through the dispatching `lookup` methods in
//! [`crate::mindist`] and [`crate::paa::paa_into`], which gate on
//! [`dsidx_series::distance::simd_enabled`] and fall back to the scalar
//! loops everywhere else (non-x86-64, no AVX2, `DSIDX_NO_SIMD=1`, or a
//! shape the kernel does not cover).

#![cfg(target_arch = "x86_64")]

use crate::mindist::NODE_ROW;
use crate::word::{Word, MAX_BITS, MAX_CARDINALITY, MAX_SEGMENTS};
use std::arch::x86_64::{
    __m128i, __m256, _mm256_add_epi32, _mm256_add_ps, _mm256_adds_epu8, _mm256_and_si256,
    _mm256_broadcastsi128_si256, _mm256_castps256_ps128, _mm256_cmpeq_epi8, _mm256_cvtepu8_epi32,
    _mm256_div_ps, _mm256_extractf128_ps, _mm256_i32gather_ps, _mm256_min_epu8,
    _mm256_movemask_epi8, _mm256_set1_epi32, _mm256_set1_epi8, _mm256_set1_ps, _mm256_set_m128,
    _mm256_set_m128i, _mm256_setr_epi32, _mm256_setzero_ps, _mm256_setzero_si256,
    _mm256_shuffle_epi8, _mm256_shuffle_ps, _mm256_sllv_epi32, _mm256_srli_epi16, _mm256_storeu_ps,
    _mm256_unpackhi_epi16 as unpackhi16, _mm256_unpackhi_epi32 as unpackhi32,
    _mm256_unpackhi_epi64 as unpackhi64, _mm256_unpackhi_epi8 as unpackhi8, _mm256_unpackhi_ps,
    _mm256_unpacklo_epi16 as unpacklo16, _mm256_unpacklo_epi32 as unpacklo32,
    _mm256_unpacklo_epi64 as unpacklo64, _mm256_unpacklo_epi8 as unpacklo8, _mm256_unpacklo_ps,
    _mm_add_ps, _mm_add_ss, _mm_cvtss_f32, _mm_loadu_ps, _mm_loadu_si128, _mm_movehl_ps,
    _mm_shuffle_ps, _mm_srli_si128, _mm_unpackhi_epi16, _mm_unpackhi_epi32, _mm_unpackhi_epi8,
    _mm_unpacklo_epi16, _mm_unpacklo_epi32, _mm_unpacklo_epi8,
};

/// Whether [`paa_avx2`] covers a segmentation: segments in whole groups of
/// eight lanes, all of one length, that length a multiple of four (the
/// kernel transposes 8 x 4 blocks).
#[inline]
pub(crate) fn paa_fits(series_len: usize, segments: usize) -> bool {
    segments % 8 == 0 && series_len % segments == 0 && (series_len / segments) % 4 == 0
}

/// The PAA of `series` into `out`, eight segments per register, one per
/// lane.
///
/// Each group of eight segments is read as 8 x 4 blocks — four points of
/// each segment — transposed in-register so that column `j` holds point
/// `j` of every segment, and added column by column. Lane `r` therefore
/// adds its segment's points in index order starting from `-0.0` and
/// divides by the length: the float operations of
/// [`crate::paa::paa_scalar`], so every value is bit-identical to it.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and that
/// `paa_fits(series.len(), out.len())` holds.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn paa_avx2(series: &[f32], out: &mut [f32]) {
    debug_assert!(!out.is_empty() && paa_fits(series.len(), out.len()));
    let seg_len = series.len() / out.len();
    // SAFETY: the caller guarantees AVX2 and the segmentation. Group `g`
    // covers `series[8g * seg_len..8(g + 1) * seg_len]`, within the series
    // because `out.len()` is a multiple of 8 and `series.len() ==
    // out.len() * seg_len`; each 4-float load reads points `j..j + 4` of
    // one of its segments with `j + 4 <= seg_len` (a multiple of 4); the
    // store fills exactly the group's 8 output slots.
    unsafe {
        let len = _mm256_set1_ps(seg_len as f32);
        for (group, dst) in out.chunks_exact_mut(8).enumerate() {
            let base = series.as_ptr().add(group * 8 * seg_len);
            let row = |seg: usize, j: usize| _mm_loadu_ps(base.add(seg * seg_len + j));
            let mut acc = _mm256_set1_ps(-0.0);
            for j in (0..seg_len).step_by(4) {
                // Segment r in the low half, segment r + 4 in the high half.
                let v0 = _mm256_set_m128(row(4, j), row(0, j));
                let v1 = _mm256_set_m128(row(5, j), row(1, j));
                let v2 = _mm256_set_m128(row(6, j), row(2, j));
                let v3 = _mm256_set_m128(row(7, j), row(3, j));
                let t0 = _mm256_unpacklo_ps(v0, v1);
                let t1 = _mm256_unpackhi_ps(v0, v1);
                let t2 = _mm256_unpacklo_ps(v2, v3);
                let t3 = _mm256_unpackhi_ps(v2, v3);
                acc = _mm256_add_ps(acc, _mm256_shuffle_ps::<0x44>(t0, t2));
                acc = _mm256_add_ps(acc, _mm256_shuffle_ps::<0xEE>(t0, t2));
                acc = _mm256_add_ps(acc, _mm256_shuffle_ps::<0x44>(t1, t3));
                acc = _mm256_add_ps(acc, _mm256_shuffle_ps::<0xEE>(t1, t3));
            }
            _mm256_storeu_ps(dst.as_mut_ptr(), _mm256_div_ps(acc, len));
        }
    }
}

/// Horizontal sum of all 8 lanes.
///
/// # Safety
/// Caller must ensure AVX is available.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum256(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps::<1>(v);
    let sum4 = _mm_add_ps(lo, hi);
    let shuf = _mm_movehl_ps(sum4, sum4);
    let sum2 = _mm_add_ps(sum4, shuf);
    let shuf1 = _mm_shuffle_ps::<0b01>(sum2, sum2);
    _mm_cvtss_f32(_mm_add_ss(sum2, shuf1))
}

/// Sums `table[seg * 256 + symbols[seg]]` over all 16 segments.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and that
/// `table.len() >= MAX_SEGMENTS * MAX_CARDINALITY` (4096). Every gathered
/// index is then in bounds: `seg * 256 + symbol <= 15 * 256 + 255 = 4095`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn word_table_lookup_avx2(table: &[f32], symbols: &[u8; MAX_SEGMENTS]) -> f32 {
    debug_assert!(table.len() >= MAX_SEGMENTS * MAX_CARDINALITY);
    // SAFETY: the caller guarantees AVX2 and a full-size table; every index
    // is seg * 256 + u8 <= 4095 < table.len(), and the 16-byte load reads
    // exactly the [u8; 16] the reference covers.
    unsafe {
        let base = table.as_ptr();
        // 16 symbols -> two 8-lane i32 vectors.
        let raw: __m128i = _mm_loadu_si128(symbols.as_ptr().cast());
        let sym_lo = _mm256_cvtepu8_epi32(raw);
        let sym_hi = _mm256_cvtepu8_epi32(_mm_srli_si128::<8>(raw));
        // Per-lane row offsets seg * 256.
        let rows_lo = _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792);
        let rows_hi = _mm256_setr_epi32(2048, 2304, 2560, 2816, 3072, 3328, 3584, 3840);
        let idx_lo = _mm256_add_epi32(rows_lo, sym_lo);
        let idx_hi = _mm256_add_epi32(rows_hi, sym_hi);
        let gathered = _mm256_add_ps(
            _mm256_i32gather_ps::<4>(base, idx_lo),
            _mm256_i32gather_ps::<4>(base, idx_hi),
        );
        hsum256(gathered)
    }
}

/// Looks up `table[seg * 256 + symbol]` bounds for eight words at once:
/// transposes the 8 x 16 symbol matrix in-register, then for each segment
/// gathers that segment's entry for all eight words and accumulates
/// *vertically* — each output lane adds its word's per-segment
/// contributions in segment order 0..16 starting from zero, exactly the
/// float-add sequence of `MindistTable::lookup_scalar`. The batch results
/// are therefore **bit-identical** to the scalar loop (and, transitively,
/// to [`crate::mindist::mindist_paa_word_sq`]): scans prune identically
/// with SIMD on or off. This is also the faster shape — no per-word
/// horizontal sum, one dispatch per eight words — which is what lets the
/// SAX-array scans beat the (already load-parallel) scalar loop.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and that
/// `table.len() >= MAX_SEGMENTS * MAX_CARDINALITY` (4096).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn word_table_lookup_batch8_avx2(
    table: &[f32],
    words: &[Word; 8],
    out: &mut [f32; 8],
) {
    debug_assert!(table.len() >= MAX_SEGMENTS * MAX_CARDINALITY);
    // SAFETY: the caller guarantees AVX2 and a full-size table; every
    // gathered index is seg * 256 + u8 <= 4095 < table.len(), each 16-byte
    // load covers exactly one word's [u8; 16] symbol array, and the store
    // fills exactly the [f32; 8] output.
    unsafe {
        let base = table.as_ptr();
        let row = |i: usize| _mm_loadu_si128(words[i].symbols_raw().as_ptr().cast());
        // 8 x 16 byte transpose (unpack tree): rows = words, columns =
        // segments. After three rounds, `cols[c]` holds segments 2c and
        // 2c+1 as two 8-byte groups ordered word 0..7.
        let p0 = _mm_unpacklo_epi8(row(0), row(1));
        let p1 = _mm_unpackhi_epi8(row(0), row(1));
        let p2 = _mm_unpacklo_epi8(row(2), row(3));
        let p3 = _mm_unpackhi_epi8(row(2), row(3));
        let p4 = _mm_unpacklo_epi8(row(4), row(5));
        let p5 = _mm_unpackhi_epi8(row(4), row(5));
        let p6 = _mm_unpacklo_epi8(row(6), row(7));
        let p7 = _mm_unpackhi_epi8(row(6), row(7));
        let q0 = _mm_unpacklo_epi16(p0, p2);
        let q1 = _mm_unpackhi_epi16(p0, p2);
        let q2 = _mm_unpacklo_epi16(p1, p3);
        let q3 = _mm_unpackhi_epi16(p1, p3);
        let q4 = _mm_unpacklo_epi16(p4, p6);
        let q5 = _mm_unpackhi_epi16(p4, p6);
        let q6 = _mm_unpacklo_epi16(p5, p7);
        let q7 = _mm_unpackhi_epi16(p5, p7);
        let cols = [
            _mm_unpacklo_epi32(q0, q4),
            _mm_unpackhi_epi32(q0, q4),
            _mm_unpacklo_epi32(q1, q5),
            _mm_unpackhi_epi32(q1, q5),
            _mm_unpacklo_epi32(q2, q6),
            _mm_unpackhi_epi32(q2, q6),
            _mm_unpacklo_epi32(q3, q7),
            _mm_unpackhi_epi32(q3, q7),
        ];
        let mut acc = _mm256_setzero_ps();
        for seg in 0..MAX_SEGMENTS {
            let half = cols[seg / 2];
            let col8 = if seg % 2 == 0 {
                half
            } else {
                _mm_srli_si128::<8>(half)
            };
            let idx = _mm256_add_epi32(
                _mm256_cvtepu8_epi32(col8),
                _mm256_set1_epi32((seg * MAX_CARDINALITY) as i32),
            );
            acc = _mm256_add_ps(acc, _mm256_i32gather_ps::<4>(base, idx));
        }
        _mm256_storeu_ps(out.as_mut_ptr(), acc);
    }
}

/// Sums `table[seg * NODE_ROW + (1 << bits[seg]) - 1 + prefixes[seg]]` over
/// all 16 segments (the [`crate::NodeMindistTable`] layout).
///
/// # Safety
/// Caller must ensure the CPU supports AVX2, that
/// `table.len() >= MAX_SEGMENTS * NODE_ROW` (8192), and that every
/// `bits[seg]` is in `0..=MAX_BITS`. Each gathered index is then at least
/// `0 + 1 - 1 + 0 = 0` and at most `15 * 512 + 256 - 1 + 255 = 8190`, in
/// bounds. (`prefixes` needs no precondition beyond being `u8`: an
/// out-of-cardinality prefix reads a neighbouring-but-in-bounds slot, same
/// as the scalar loop.)
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn node_table_lookup_avx2(
    table: &[f32],
    bits: &[u8; MAX_SEGMENTS],
    prefixes: &[u8; MAX_SEGMENTS],
) -> f32 {
    debug_assert!(table.len() >= MAX_SEGMENTS * NODE_ROW);
    debug_assert!(bits.iter().all(|&b| b <= MAX_BITS));
    // SAFETY: the caller guarantees AVX2, a full-size table, and bits in
    // 0..=8, so every index is in 0..=15*512 + 255 + 255 = 8190 <
    // table.len() (the `- 1` is folded into the per-lane row offsets, and
    // `1 << bits >= 1` keeps lane 0 from going negative); the 16-byte loads
    // read exactly the [u8; 16] arrays.
    unsafe {
        let base = table.as_ptr();
        let raw_bits: __m128i = _mm_loadu_si128(bits.as_ptr().cast());
        let raw_pref: __m128i = _mm_loadu_si128(prefixes.as_ptr().cast());
        let bits_lo = _mm256_cvtepu8_epi32(raw_bits);
        let bits_hi = _mm256_cvtepu8_epi32(_mm_srli_si128::<8>(raw_bits));
        let pref_lo = _mm256_cvtepu8_epi32(raw_pref);
        let pref_hi = _mm256_cvtepu8_epi32(_mm_srli_si128::<8>(raw_pref));
        // Per-lane row offsets seg * NODE_ROW - 1; each lane computes
        // rowoff + (1 << bits) + prefix.
        const ROW: i32 = NODE_ROW as i32;
        let rows_lo = _mm256_setr_epi32(
            -1,
            ROW - 1,
            2 * ROW - 1,
            3 * ROW - 1,
            4 * ROW - 1,
            5 * ROW - 1,
            6 * ROW - 1,
            7 * ROW - 1,
        );
        let rows_hi = _mm256_add_epi32(rows_lo, _mm256_set1_epi32(8 * ROW));
        let one = _mm256_set1_epi32(1);
        let idx_lo = _mm256_add_epi32(
            _mm256_add_epi32(rows_lo, _mm256_sllv_epi32(one, bits_lo)),
            pref_lo,
        );
        let idx_hi = _mm256_add_epi32(
            _mm256_add_epi32(rows_hi, _mm256_sllv_epi32(one, bits_hi)),
            pref_hi,
        );
        let gathered = _mm256_add_ps(
            _mm256_i32gather_ps::<4>(base, idx_lo),
            _mm256_i32gather_ps::<4>(base, idx_hi),
        );
        hsum256(gathered)
    }
}

/// The [`crate::CoarseTable`] "may survive" mask of 32 words: bit `j` is
/// set iff the saturating `u8` sum over the 16 segments of
/// `slots[seg * 16 + (symbol >> 4)]` for word `j` is below `threshold`.
///
/// Words `0..16` go to the low 128-bit lane and words `16..32` to the high
/// one, each word's 16 high nibbles a row; four rounds of in-lane unpacks
/// (bytes, words, dwords, qwords) transpose each lane's 16 x 16 nibble
/// matrix, so `cols[seg]` holds segment `seg` of every word, byte `j` of a
/// lane being that lane's word `j`. Each segment is then one `vpshufb`
/// into its 16-entry row, broadcast to both lanes, and one saturating add.
/// The arithmetic is the scalar oracle's exactly (a saturating sum of
/// non-negative terms is `min(255, sum)` in any order), so the masks are
/// equal bit for bit.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and `threshold >= 1`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn coarse_mask32_avx2(
    slots: &[u8; MAX_SEGMENTS * 16],
    words: &[Word; 32],
    threshold: u8,
) -> u32 {
    debug_assert!(threshold >= 1);
    // SAFETY: the caller guarantees AVX2; each 16-byte load reads exactly
    // one word's [u8; 16] symbol array or one 16-byte row of `slots`
    // (`seg * 16 + 16 <= 256`), and everything else is register-only.
    unsafe {
        let nibble = _mm256_set1_epi8(0x0F);
        let load = |i: usize| _mm_loadu_si128(words[i].symbols_raw().as_ptr().cast());
        let mut x = [_mm256_setzero_si256(); 16];
        for (i, row) in x.iter_mut().enumerate() {
            let both = _mm256_set_m128i(load(i + 16), load(i));
            *row = _mm256_and_si256(_mm256_srli_epi16::<4>(both), nibble);
        }
        // Round 1: `a[k]` pairs words 2k, 2k+1 over segments 0..8,
        // `a[8 + k]` over segments 8..16.
        let mut a = [_mm256_setzero_si256(); 16];
        for k in 0..8 {
            a[k] = unpacklo8(x[2 * k], x[2 * k + 1]);
            a[8 + k] = unpackhi8(x[2 * k], x[2 * k + 1]);
        }
        // Round 2: `b[4q + m]` holds words 4m..4m+4 over segments
        // 4q..4q+4.
        let mut b = [_mm256_setzero_si256(); 16];
        for h in 0..2 {
            for m in 0..4 {
                let (lo, hi) = (a[8 * h + 2 * m], a[8 * h + 2 * m + 1]);
                b[4 * (2 * h) + m] = unpacklo16(lo, hi);
                b[4 * (2 * h + 1) + m] = unpackhi16(lo, hi);
            }
        }
        // Round 3: `c[2p + n]` holds words 8n..8n+8 over segments 2p, 2p+1.
        let mut c = [_mm256_setzero_si256(); 16];
        for q in 0..4 {
            for n in 0..2 {
                let (lo, hi) = (b[4 * q + 2 * n], b[4 * q + 2 * n + 1]);
                c[2 * (2 * q) + n] = unpacklo32(lo, hi);
                c[2 * (2 * q + 1) + n] = unpackhi32(lo, hi);
            }
        }
        // Round 4: segment `2p` and `2p + 1` over all 16 words of a lane.
        let mut acc = _mm256_setzero_si256();
        for p in 0..8 {
            let (lo, hi) = (c[2 * p], c[2 * p + 1]);
            for (seg, col) in [(2 * p, unpacklo64(lo, hi)), (2 * p + 1, unpackhi64(lo, hi))] {
                let row = _mm_loadu_si128(slots.as_ptr().add(seg * 16).cast());
                let looked = _mm256_shuffle_epi8(_mm256_broadcastsi128_si256(row), col);
                acc = _mm256_adds_epu8(acc, looked);
            }
        }
        // acc < threshold, unsigned: min(acc, threshold - 1) == acc.
        let below = _mm256_set1_epi8((threshold - 1) as i8);
        let keep = _mm256_cmpeq_epi8(_mm256_min_epu8(acc, below), acc);
        _mm256_movemask_epi8(keep) as u32
    }
}
