//! AVX2/FMA distance kernels (x86-64 only).
//!
//! The paper evaluates both lower-bound and real distances with SIMD
//! ("MESSI uses SIMD for calculating the distances", §III). These kernels
//! mirror that: 8-lane f32 fused multiply-add over unaligned loads, with a
//! horizontal reduction at the end. Every kernel is differentially tested
//! against the scalar oracle, including the early-abandon decision.

#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    __m256, _mm256_add_ps, _mm256_alignr_epi8, _mm256_castps256_ps128, _mm256_castps_si256,
    _mm256_castsi256_ps, _mm256_cvtss_f32, _mm256_extractf128_ps, _mm256_fmadd_ps, _mm256_loadu_ps,
    _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps, _mm256_permute2f128_ps, _mm256_set1_ps,
    _mm256_setzero_ps, _mm256_storeu_ps, _mm256_sub_ps, _mm_add_ps, _mm_add_ss, _mm_cvtss_f32,
    _mm_movehl_ps, _mm_shuffle_ps,
};

/// `true` when the running CPU supports AVX2 and FMA.
///
/// `is_x86_feature_detected!` caches its result in an atomic, so calling
/// this in hot loops is a load + branch.
#[inline]
#[must_use]
pub fn avx2_fma_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
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

/// Squared Euclidean distance with AVX2 + FMA.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA
/// (see [`avx2_fma_available`]) and that `a.len() == b.len()`.
#[target_feature(enable = "avx2", enable = "fma")]
#[must_use]
pub unsafe fn euclidean_sq_avx2(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    // SAFETY: every load stays within `a`/`b` (offsets bounded by `n`), and
    // the caller guarantees AVX2/FMA support and equal lengths.
    unsafe {
        let n = a.len();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut i = 0;
        // Two independent accumulators hide FMA latency.
        while i + 16 <= n {
            let va0 = _mm256_loadu_ps(pa.add(i));
            let vb0 = _mm256_loadu_ps(pb.add(i));
            let d0 = _mm256_sub_ps(va0, vb0);
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            let va1 = _mm256_loadu_ps(pa.add(i + 8));
            let vb1 = _mm256_loadu_ps(pb.add(i + 8));
            let d1 = _mm256_sub_ps(va1, vb1);
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            i += 16;
        }
        if i + 8 <= n {
            let va = _mm256_loadu_ps(pa.add(i));
            let vb = _mm256_loadu_ps(pb.add(i));
            let d = _mm256_sub_ps(va, vb);
            acc0 = _mm256_fmadd_ps(d, d, acc0);
            i += 8;
        }
        let mut sum = hsum256(acc0) + hsum256(acc1);
        while i < n {
            let d = *a.get_unchecked(i) - *b.get_unchecked(i);
            sum += d * d;
            i += 1;
        }
        sum
    }
}

/// Early-abandoning squared Euclidean distance with AVX2 + FMA.
///
/// Checks the partial sum every 32 points. Returns `Some(d2)` iff
/// `d2 < limit`, else `None`.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA and `a.len() == b.len()`.
#[target_feature(enable = "avx2", enable = "fma")]
#[must_use]
pub unsafe fn euclidean_sq_bounded_avx2(a: &[f32], b: &[f32], limit: f32) -> Option<f32> {
    debug_assert_eq!(a.len(), b.len());
    // SAFETY: every load stays within `a`/`b` (offsets bounded by `n`), and
    // the caller guarantees AVX2/FMA support and equal lengths.
    unsafe {
        let n = a.len();
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut sum = 0.0f32;
        let mut i = 0;
        while i + 32 <= n {
            let mut acc = _mm256_setzero_ps();
            for k in 0..4 {
                let va = _mm256_loadu_ps(pa.add(i + 8 * k));
                let vb = _mm256_loadu_ps(pb.add(i + 8 * k));
                let d = _mm256_sub_ps(va, vb);
                acc = _mm256_fmadd_ps(d, d, acc);
            }
            sum += hsum256(acc);
            if sum >= limit {
                return None;
            }
            i += 32;
        }
        while i + 8 <= n {
            let va = _mm256_loadu_ps(pa.add(i));
            let vb = _mm256_loadu_ps(pb.add(i));
            let d = _mm256_sub_ps(va, vb);
            sum += hsum256(_mm256_fmadd_ps(d, d, _mm256_setzero_ps()));
            i += 8;
        }
        while i < n {
            let d = *a.get_unchecked(i) - *b.get_unchecked(i);
            sum += d * d;
            i += 1;
        }
        if sum < limit {
            Some(sum)
        } else {
            None
        }
    }
}

/// LB_Keogh lower bound (squared) with AVX2 + FMA.
///
/// The envelope clamp is branch-free lane math: both excursions
/// `max(c - upper, 0)` and `max(lower - c, 0)` are computed per lane (for a
/// valid envelope `lower <= upper` at most one is non-zero) and
/// squared-accumulated.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA (see
/// [`avx2_fma_available`]) and that all three slices have equal lengths.
#[target_feature(enable = "avx2", enable = "fma")]
#[must_use]
pub unsafe fn lb_keogh_sq_avx2(candidate: &[f32], lower: &[f32], upper: &[f32]) -> f32 {
    debug_assert_eq!(candidate.len(), lower.len());
    debug_assert_eq!(candidate.len(), upper.len());
    // SAFETY: every load stays within the slices (offsets bounded by `n`),
    // and the caller guarantees AVX2/FMA support and equal lengths.
    unsafe {
        let n = candidate.len();
        let pc = candidate.as_ptr();
        let pl = lower.as_ptr();
        let pu = upper.as_ptr();
        let zero = _mm256_setzero_ps();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        // Two independent accumulators hide FMA latency.
        while i + 16 <= n {
            let c0 = _mm256_loadu_ps(pc.add(i));
            let above0 = _mm256_max_ps(_mm256_sub_ps(c0, _mm256_loadu_ps(pu.add(i))), zero);
            let below0 = _mm256_max_ps(_mm256_sub_ps(_mm256_loadu_ps(pl.add(i)), c0), zero);
            acc0 = _mm256_fmadd_ps(above0, above0, acc0);
            acc0 = _mm256_fmadd_ps(below0, below0, acc0);
            let c1 = _mm256_loadu_ps(pc.add(i + 8));
            let above1 = _mm256_max_ps(_mm256_sub_ps(c1, _mm256_loadu_ps(pu.add(i + 8))), zero);
            let below1 = _mm256_max_ps(_mm256_sub_ps(_mm256_loadu_ps(pl.add(i + 8)), c1), zero);
            acc1 = _mm256_fmadd_ps(above1, above1, acc1);
            acc1 = _mm256_fmadd_ps(below1, below1, acc1);
            i += 16;
        }
        if i + 8 <= n {
            let c = _mm256_loadu_ps(pc.add(i));
            let above = _mm256_max_ps(_mm256_sub_ps(c, _mm256_loadu_ps(pu.add(i))), zero);
            let below = _mm256_max_ps(_mm256_sub_ps(_mm256_loadu_ps(pl.add(i)), c), zero);
            acc0 = _mm256_fmadd_ps(above, above, acc0);
            acc0 = _mm256_fmadd_ps(below, below, acc0);
            i += 8;
        }
        let mut sum = hsum256(acc0) + hsum256(acc1);
        while i < n {
            let c = *candidate.get_unchecked(i);
            let above = (c - *upper.get_unchecked(i)).max(0.0);
            let below = (*lower.get_unchecked(i) - c).max(0.0);
            sum += above * above + below * below;
            i += 1;
        }
        sum
    }
}

/// Early-abandoning LB_Keogh with AVX2 + FMA: checks the partial sum every
/// 32 points, like [`euclidean_sq_bounded_avx2`]. Returns `Some(lb)` iff
/// `lb < limit`.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA and that all three
/// slices have equal lengths.
#[target_feature(enable = "avx2", enable = "fma")]
#[must_use]
pub unsafe fn lb_keogh_sq_bounded_avx2(
    candidate: &[f32],
    lower: &[f32],
    upper: &[f32],
    limit: f32,
) -> Option<f32> {
    debug_assert_eq!(candidate.len(), lower.len());
    debug_assert_eq!(candidate.len(), upper.len());
    // SAFETY: every load stays within the slices (offsets bounded by `n`),
    // and the caller guarantees AVX2/FMA support and equal lengths.
    unsafe {
        let n = candidate.len();
        let pc = candidate.as_ptr();
        let pl = lower.as_ptr();
        let pu = upper.as_ptr();
        let zero = _mm256_setzero_ps();
        let mut sum = 0.0f32;
        let mut i = 0;
        while i + 32 <= n {
            let mut acc = _mm256_setzero_ps();
            for k in 0..4 {
                let c = _mm256_loadu_ps(pc.add(i + 8 * k));
                let above =
                    _mm256_max_ps(_mm256_sub_ps(c, _mm256_loadu_ps(pu.add(i + 8 * k))), zero);
                let below =
                    _mm256_max_ps(_mm256_sub_ps(_mm256_loadu_ps(pl.add(i + 8 * k)), c), zero);
                acc = _mm256_fmadd_ps(above, above, acc);
                acc = _mm256_fmadd_ps(below, below, acc);
            }
            sum += hsum256(acc);
            if sum >= limit {
                return None;
            }
            i += 32;
        }
        while i + 8 <= n {
            let c = _mm256_loadu_ps(pc.add(i));
            let above = _mm256_max_ps(_mm256_sub_ps(c, _mm256_loadu_ps(pu.add(i))), zero);
            let below = _mm256_max_ps(_mm256_sub_ps(_mm256_loadu_ps(pl.add(i)), c), zero);
            let mut acc = _mm256_fmadd_ps(above, above, zero);
            acc = _mm256_fmadd_ps(below, below, acc);
            sum += hsum256(acc);
            i += 8;
        }
        while i < n {
            let c = *candidate.get_unchecked(i);
            let above = (c - *upper.get_unchecked(i)).max(0.0);
            let below = (*lower.get_unchecked(i) - c).max(0.0);
            sum += above * above + below * below;
            i += 1;
        }
        if sum < limit {
            Some(sum)
        } else {
            None
        }
    }
}

thread_local! {
    /// Scratch of [`dtw_sq_bounded_avx2`] (see [`dtw_rows_avx2`] for what
    /// it holds), one grow-only buffer per thread. DTW verification runs
    /// per-candidate inside hot query loops, so the kernel reuses this
    /// buffer instead of allocating per call.
    static DTW_SCRATCH: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Early-abandoning banded DTW with AVX2, walking the DP by
/// anti-diagonals with one row per vector lane.
///
/// Values AND the early-abandon decision are **bit-identical** to
/// [`scalar` DTW](crate::distance::dtw::dtw_sq_bounded_scalar) at every
/// limit — the differential tests assert exact equality.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA (see
/// [`avx2_fma_available`]) and that `a.len() == b.len()`.
#[must_use]
pub unsafe fn dtw_sq_bounded_avx2(a: &[f32], b: &[f32], band: usize, limit: f32) -> Option<f32> {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    if n == 0 {
        return if 0.0 < limit { Some(0.0) } else { None };
    }
    DTW_SCRATCH.with(|cell| {
        // SAFETY: forwards the caller's contract (AVX2/FMA support, equal
        // non-zero lengths); the kernel sizes the scratch itself.
        unsafe { dtw_rows_avx2(a, b, band.min(n - 1), limit, None, &mut cell.borrow_mut()).0 }
    })
}

/// Lanes kept in registers: bands up to `r = 15` hold a whole
/// anti-diagonal in two `ymm` registers.
const REGISTER_LANES: usize = 16;

/// Guard floats on each side of a diagonal kept in memory.
const GUARD: usize = 8;

/// Lane `k` ← lane `k + 1` over the 16 lanes `(lo, hi)`; lane 15 gets
/// lane 0 of `fill`.
///
/// # Safety
/// AVX2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn lanes_down(lo: __m256, hi: __m256, fill: __m256) -> (__m256, __m256) {
    let mid = _mm256_castps_si256(_mm256_permute2f128_ps(lo, hi, 0x21));
    let top = _mm256_castps_si256(_mm256_permute2f128_ps(hi, fill, 0x21));
    (
        _mm256_castsi256_ps(_mm256_alignr_epi8(mid, _mm256_castps_si256(lo), 4)),
        _mm256_castsi256_ps(_mm256_alignr_epi8(top, _mm256_castps_si256(hi), 4)),
    )
}

/// Lane `k` ← lane `k - 1` over the 16 lanes `(lo, hi)`; lane 0 gets lane
/// 7 of `fill`.
///
/// # Safety
/// AVX2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn lanes_up(lo: __m256, hi: __m256, fill: __m256) -> (__m256, __m256) {
    let bottom = _mm256_castps_si256(_mm256_permute2f128_ps(fill, lo, 0x21));
    let mid = _mm256_castps_si256(_mm256_permute2f128_ps(lo, hi, 0x21));
    (
        _mm256_castsi256_ps(_mm256_alignr_epi8(_mm256_castps_si256(lo), bottom, 12)),
        _mm256_castsi256_ps(_mm256_alignr_epi8(_mm256_castps_si256(hi), mid, 12)),
    )
}

/// The DP of [`dtw_sq_bounded_avx2`] and of the cascade's DTW, walked by
/// anti-diagonals `d = i + j`, with a grow-only caller scratch buffer it
/// sizes itself. `rest`, the outcome and the returned cell count are
/// those of [`dtw_rows_scalar`](crate::distance::dtw::dtw_rows_scalar),
/// to the bit.
///
/// Why the bits cannot differ: a cell is `min(up, diag, left) + (a_i -
/// b_j)²`. The minimum is exact whatever the order it is taken in, and
/// the subtraction, square and add see the same operands as in the row
/// loop, so any order that computes a cell after its three predecessors
/// gives every cell the same value. The cells of one anti-diagonal depend
/// only on the two before it, so a vector lane holds one row: lane `k` of
/// diagonal `d` is row `i = ⌊d/2⌋ - ⌊r/2⌋ + k`, column `d - i`. Then
/// `diag` is the same lane of diagonal `d - 2`, and `up`/`left` are the
/// same lane and its neighbour (above on even `d`, below on odd `d`) of
/// diagonal `d - 1`: one lane shift per diagonal. Lanes outside the band
/// get a `+inf` cost (a per-parity mask), and rows or columns outside the
/// series read `+inf` from the padded copies of `a` and of `b` reversed
/// (`b` reversed makes column `d - i` contiguous in `k`), so every lane
/// runs the same arithmetic with no boundary branch.
///
/// Abandoning stays in row order: every lane keeps its row's running
/// minimum, row `i` is complete once diagonal `2i + r` is (it sits in lane
/// 0 then), and its test `row_min + rest[i] ≥ limit` runs there, for each
/// row in turn — the same expression on the same values as the row loop's.
/// Rows completing past the last diagonal are tested after it, in order.
/// The cells reported are the row loop's count up to the stopping row, not
/// the (slightly larger) set this kernel evaluated.
///
/// Bands up to `r = 15` keep the last two diagonals and the row minima in
/// two `ymm` registers each; wider bands run the same loop over diagonals
/// kept in `scratch`, 8 lanes at a time.
///
/// # Safety
/// Caller must ensure AVX2/FMA support, `a.len() == b.len() == n > 0`,
/// `r < n`, and `rest`, when given, `n` long.
#[target_feature(enable = "avx2", enable = "fma")]
#[must_use]
pub(crate) unsafe fn dtw_rows_avx2(
    a: &[f32],
    b: &[f32],
    r: usize,
    limit: f32,
    rest: Option<&[f32]>,
    scratch: &mut Vec<f32>,
) -> (Option<f32>, u64) {
    let n = a.len();
    debug_assert!(n > 0 && b.len() == n && r < n);
    debug_assert!(rest.is_none_or(|rest| rest.len() == n));
    let inf = f32::INFINITY;
    let abandon_at = if rest.is_some() {
        crate::distance::dtw::widened_limit(limit, n)
    } else {
        limit
    };
    // Lane `k` of diagonal `d` is row `base + k`, `base = ⌊d/2⌋ - h`.
    let h = r / 2;
    let in_registers = r < REGISTER_LANES;
    let lanes = if in_registers {
        REGISTER_LANES
    } else {
        (r + 1).next_multiple_of(8)
    };
    // The cost mask: `0` on the band's lanes, `+inf` on the others; the
    // first `lanes` floats for even diagonals (lanes `0..=2h`), the rest
    // for odd ones (lanes `1 - r % 2 ..= 2h + r % 2`).
    let fill_mask = |mask: &mut [f32]| {
        let (even, odd) = mask.split_at_mut(lanes);
        for (k, (e, o)) in even.iter_mut().zip(odd).enumerate() {
            *e = if k <= 2 * h { 0.0 } else { inf };
            *o = if (1 - r % 2..=2 * h + r % 2).contains(&k) {
                0.0
            } else {
                inf
            };
        }
    };
    // Padded `a` and reversed `b`: index `h + i` holds row `i`, `h + m`
    // holds column `n - 1 - m`; a lane never reads past `n + lanes - 2`.
    let padded = n + lanes - 1;
    let memory = if in_registers {
        0
    } else {
        // Two diagonals with guards, two lane masks, the row minima.
        2 * (lanes + 2 * GUARD) + 2 * lanes + padded
    };
    if scratch.len() < 2 * padded + memory {
        scratch.resize(2 * padded + memory, 0.0);
    }
    let (ap, others) = scratch.split_at_mut(padded);
    let (bp, others) = others.split_at_mut(padded);
    ap[..h].fill(inf);
    ap[h..h + n].copy_from_slice(a);
    ap[h + n..].fill(inf);
    // `-inf` here against `+inf` in `ap`: an out-of-range row or column
    // (or both) costs `(+inf)² = +inf`, never `inf - inf`.
    bp[..h].fill(f32::NEG_INFINITY);
    for (dst, &v) in bp[h..h + n].iter_mut().zip(b.iter().rev()) {
        *dst = v;
    }
    bp[h + n..].fill(f32::NEG_INFINITY);
    let row_cells = |i: usize| ((i + r).min(n - 1) - i.saturating_sub(r) + 1) as u64;
    let row_fails = |i: usize, row_min: f32| {
        // SAFETY: `i < n` and `rest` is `n` long.
        rest.map_or(row_min, |rest| row_min + unsafe { *rest.get_unchecked(i) }) >= abandon_at
    };
    let mut cells = 0u64;
    // Rows `2i + r <= 2n - 2` are tested on their diagonal; the rest after
    // the last one.
    let mut tested = 0usize;
    let last = 2 * n - 2;
    let (h_i, n_i) = (h as isize, n as isize);
    let (pa, pb) = (ap.as_ptr(), bp.as_ptr());

    if in_registers {
        // SAFETY: `base` starts at `-h` and ends at `n - 1 - h`, so the
        // `a` loads cover `h + base .. h + base + 16 ⊆ 0..n + 15 = padded`;
        // the `b` loads start at `h + n - 1 - d + base`, from `0` (last
        // diagonal) up to `n - 1` (first), and end 15 lanes later. The
        // caller guarantees AVX2/FMA.
        unsafe {
            let vinf = _mm256_set1_ps(inf);
            let mut mask = [0.0; 2 * REGISTER_LANES];
            fill_mask(&mut mask);
            let pm = mask.as_ptr();
            let (even0, even1) = (_mm256_loadu_ps(pm), _mm256_loadu_ps(pm.add(8)));
            let (odd0, odd1) = (_mm256_loadu_ps(pm.add(16)), _mm256_loadu_ps(pm.add(24)));
            // Diagonal -2 holds the virtual cell (-1, -1) = 0 in lane `h`,
            // so (0, 0) comes out as `0 + cost` like the row loop's start.
            let mut start = [inf; REGISTER_LANES];
            start[h] = 0.0;
            let (mut p20, mut p21) = (
                _mm256_loadu_ps(start.as_ptr()),
                _mm256_loadu_ps(start.as_ptr().add(8)),
            );
            let (mut p10, mut p11) = (vinf, vinf);
            let (mut m0, mut m1) = (vinf, vinf);
            let mut base = -h_i - 1;
            let mut d = 0usize;
            // One diagonal; `$even` is `d % 2 == 0`.
            macro_rules! diagonal {
                ($even:literal) => {{
                    if $even {
                        base += 1;
                        (m0, m1) = lanes_down(m0, m1, vinf);
                    }
                    let ia = (h_i + base) as usize;
                    let ib = (h_i + n_i - 1 - d as isize + base) as usize;
                    let (k0, k1) = if $even { (even0, even1) } else { (odd0, odd1) };
                    let t0 =
                        _mm256_sub_ps(_mm256_loadu_ps(pa.add(ia)), _mm256_loadu_ps(pb.add(ib)));
                    let t1 = _mm256_sub_ps(
                        _mm256_loadu_ps(pa.add(ia + 8)),
                        _mm256_loadu_ps(pb.add(ib + 8)),
                    );
                    let c0 = _mm256_max_ps(_mm256_mul_ps(t0, t0), k0);
                    let c1 = _mm256_max_ps(_mm256_mul_ps(t1, t1), k1);
                    let (s0, s1) = if $even {
                        lanes_down(p10, p11, vinf)
                    } else {
                        lanes_up(p10, p11, vinf)
                    };
                    let n0 = _mm256_add_ps(_mm256_min_ps(_mm256_min_ps(p20, p10), s0), c0);
                    let n1 = _mm256_add_ps(_mm256_min_ps(_mm256_min_ps(p21, p11), s1), c1);
                    m0 = _mm256_min_ps(m0, n0);
                    m1 = _mm256_min_ps(m1, n1);
                    (p20, p21, p10, p11) = (p10, p11, n0, n1);
                    if d >= r && (d - r) % 2 == 0 {
                        let i = (d - r) / 2;
                        cells += row_cells(i);
                        if row_fails(i, _mm256_cvtss_f32(m0)) {
                            return (None, cells);
                        }
                        tested = i + 1;
                    }
                    d += 1;
                }};
            }
            // `last` is even: the walk ends on an even diagonal.
            loop {
                diagonal!(true);
                if d > last {
                    break;
                }
                diagonal!(false);
            }
            let mut tail = [0.0f32; 2 * REGISTER_LANES];
            let pt = tail.as_mut_ptr();
            _mm256_storeu_ps(pt, p10);
            _mm256_storeu_ps(pt.add(8), p11);
            _mm256_storeu_ps(pt.add(16), m0);
            _mm256_storeu_ps(pt.add(24), m1);
            // Lane of row `i` on the last diagonal: `i - (n - 1 - h)`.
            for i in tested..n {
                cells += row_cells(i);
                if row_fails(i, tail[REGISTER_LANES + i + h + 1 - n]) {
                    return (None, cells);
                }
            }
            let result = tail[h];
            return (if result < limit { Some(result) } else { None }, cells);
        }
    }

    let diag_len = lanes + 2 * GUARD;
    let (p2, others) = others.split_at_mut(diag_len);
    let (p1, others) = others.split_at_mut(diag_len);
    let (mask, others) = others.split_at_mut(2 * lanes);
    let mins = &mut others[..padded];
    p2.fill(inf);
    p2[GUARD + h] = 0.0;
    p1.fill(inf);
    mins.fill(inf);
    fill_mask(mask);
    let (mut p2, mut p1) = (p2.as_mut_ptr(), p1.as_mut_ptr());
    let pk = mask.as_ptr();
    let pmin = mins.as_mut_ptr();
    // SAFETY: the `a`/`b` loads are those of the register path with
    // `lanes` in place of 16 (`padded = n + lanes - 1`); diagonal reads
    // stay within one lane of `0..lanes`, inside the guards; the row
    // minima of row `i` sit at `h + i`, `h + base ..
    // h + base + lanes ⊆ 0..padded`. The caller guarantees AVX2/FMA.
    unsafe {
        let mut base = -h_i - 1;
        for d in 0..=last {
            let even = d % 2 == 0;
            if even {
                base += 1;
            }
            let ia = (h_i + base) as usize;
            let ib = (h_i + n_i - 1 - d as isize + base) as usize;
            let pkd = if even { pk } else { pk.add(lanes) };
            let side = if even { GUARD + 1 } else { GUARD - 1 };
            let mut k = 0;
            while k < lanes {
                let t = _mm256_sub_ps(
                    _mm256_loadu_ps(pa.add(ia + k)),
                    _mm256_loadu_ps(pb.add(ib + k)),
                );
                let c = _mm256_max_ps(_mm256_mul_ps(t, t), _mm256_loadu_ps(pkd.add(k)));
                let near = _mm256_min_ps(
                    _mm256_loadu_ps(p2.add(GUARD + k)),
                    _mm256_loadu_ps(p1.add(GUARD + k)),
                );
                let v = _mm256_add_ps(_mm256_min_ps(near, _mm256_loadu_ps(p1.add(side + k))), c);
                _mm256_storeu_ps(p2.add(GUARD + k), v);
                let pm = pmin.add(ia + k);
                _mm256_storeu_ps(pm, _mm256_min_ps(_mm256_loadu_ps(pm), v));
                k += 8;
            }
            std::mem::swap(&mut p1, &mut p2);
            if d >= r && (d - r) % 2 == 0 {
                let i = (d - r) / 2;
                cells += row_cells(i);
                if row_fails(i, *pmin.add(h + i)) {
                    return (None, cells);
                }
                tested = i + 1;
            }
        }
        for i in tested..n {
            cells += row_cells(i);
            if row_fails(i, *pmin.add(h + i)) {
                return (None, cells);
            }
        }
        let result = *p1.add(GUARD + h);
        (if result < limit { Some(result) } else { None }, cells)
    }
}

/// The in-place doubling passes of
/// [`envelope`](crate::distance::dtw::envelope), minimum and maximum side
/// by side, 8 lanes at a time — same operands in the same order as
/// [`sliding_min_max_scalar`](crate::distance::dtw::sliding_min_max_scalar),
/// so the outputs are bit-identical.
///
/// Every pass runs whole vectors, up to 7 lanes past the last element it
/// needs. Those lanes only ever read sentinels or other surplus lanes and
/// only write positions no needed lane reads afterwards (passes go up the
/// buffer and read ahead of where they write), which is why the buffers
/// carry 8 floats of padding.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2.
///
/// # Panics
/// Panics if a buffer is shorter than `n + window - 1 + 8`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn sliding_min_max_avx2(lo: &mut [f32], up: &mut [f32], n: usize, window: usize) {
    let len = n + window - 1 + 8;
    assert!(
        lo.len() >= len && up.len() >= len,
        "padded buffers too short"
    );
    /// One pass: `x[i] = op(x[i], x[i + ahead])` for `i < count`, rounded
    /// up to whole vectors.
    ///
    /// # Safety
    /// AVX2, and both buffers hold `count + ahead + 7` floats.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn pass(lo: *mut f32, up: *mut f32, count: usize, ahead: usize) {
        let mut i = 0;
        while i < count {
            // SAFETY: the last vector starts below `count`, so no lane is
            // past `count + ahead + 6`; the caller vouches for that many.
            unsafe {
                let far = _mm256_loadu_ps(lo.add(i + ahead));
                _mm256_storeu_ps(lo.add(i), _mm256_min_ps(_mm256_loadu_ps(lo.add(i)), far));
                let far = _mm256_loadu_ps(up.add(i + ahead));
                _mm256_storeu_ps(up.add(i), _mm256_max_ps(_mm256_loadu_ps(up.add(i)), far));
            }
            i += 8;
        }
    }
    let (lo, up) = (lo.as_mut_ptr(), up.as_mut_ptr());
    // SAFETY: every pass has `count + ahead <= n + window - 1`, which
    // leaves the 8 floats of padding checked above; AVX2 is the caller's
    // guarantee.
    unsafe {
        let mut s = 1;
        while 2 * s <= window {
            pass(lo, up, n + window - 2 * s, s);
            s *= 2;
        }
        pass(lo, up, n, window - s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::scalar;

    fn series(seed: u64, n: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / 16_777_216.0) * 6.0 - 3.0
            })
            .collect()
    }

    #[test]
    fn avx2_matches_scalar_differentially() {
        if !avx2_fma_available() {
            eprintln!("skipping: no AVX2/FMA on this host");
            return;
        }
        for n in [
            0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 128, 255, 256, 1024,
        ] {
            let a = series(n as u64 + 1, n);
            let b = series(n as u64 + 2, n);
            let scalar_d = scalar::euclidean_sq(&a, &b);
            // SAFETY: AVX2/FMA availability checked above; equal lengths.
            let simd_d = unsafe { euclidean_sq_avx2(&a, &b) };
            assert!(
                (scalar_d - simd_d).abs() <= scalar_d * 1e-4 + 1e-5,
                "n={n}: scalar {scalar_d} vs simd {simd_d}"
            );
        }
    }

    #[test]
    fn bounded_avx2_decision_matches_scalar() {
        if !avx2_fma_available() {
            eprintln!("skipping: no AVX2/FMA on this host");
            return;
        }
        for n in [8usize, 32, 33, 64, 100, 256] {
            let a = series(n as u64 + 10, n);
            let b = series(n as u64 + 20, n);
            let full = scalar::euclidean_sq(&a, &b);
            for limit in [
                0.0,
                full * 0.25,
                full * 0.999,
                full,
                full * 1.001,
                full * 4.0,
            ] {
                let s = scalar::euclidean_sq_bounded(&a, &b, limit);
                // SAFETY: AVX2/FMA availability checked above; equal lengths.
                let v = unsafe { euclidean_sq_bounded_avx2(&a, &b, limit) };
                match (s, v) {
                    (Some(x), Some(y)) => {
                        assert!((x - y).abs() <= x * 1e-4 + 1e-5);
                    }
                    (None, None) => {}
                    // Rounding at the exact boundary may flip the decision;
                    // only accept disagreement within float tolerance.
                    (sv, vv) => {
                        let near = (full - limit).abs() <= full * 1e-4 + 1e-5;
                        assert!(near, "n={n} limit={limit}: scalar {sv:?} vs simd {vv:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn detection_is_consistent() {
        // Just exercises the detection path; result depends on the host.
        let _ = avx2_fma_available();
    }

    fn envelope_of(q: &[f32], r: usize) -> (Vec<f32>, Vec<f32>) {
        let mut lo = Vec::new();
        let mut up = Vec::new();
        crate::distance::dtw::envelope(q, r, &mut lo, &mut up);
        (lo, up)
    }

    #[test]
    fn lb_keogh_avx2_matches_scalar_differentially() {
        if !avx2_fma_available() {
            eprintln!("skipping: no AVX2/FMA on this host");
            return;
        }
        use crate::distance::dtw::lb_keogh_sq_scalar;
        for n in [
            0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 128, 255, 256, 1024,
        ] {
            let q = series(n as u64 + 100, n);
            let c = series(n as u64 + 200, n);
            for r in [0usize, 1, 5] {
                let (lo, up) = envelope_of(&q, r);
                let scalar_lb = lb_keogh_sq_scalar(&c, &lo, &up);
                // SAFETY: AVX2/FMA availability checked above; equal lengths.
                let simd_lb = unsafe { lb_keogh_sq_avx2(&c, &lo, &up) };
                assert!(
                    (scalar_lb - simd_lb).abs() <= scalar_lb * 1e-4 + 1e-5,
                    "n={n} r={r}: scalar {scalar_lb} vs simd {simd_lb}"
                );
            }
        }
    }

    #[test]
    fn lb_keogh_bounded_avx2_decision_matches_scalar() {
        if !avx2_fma_available() {
            eprintln!("skipping: no AVX2/FMA on this host");
            return;
        }
        use crate::distance::dtw::{lb_keogh_sq_bounded_scalar, lb_keogh_sq_scalar};
        for n in [8usize, 32, 33, 64, 100, 256] {
            let q = series(n as u64 + 300, n);
            let c = series(n as u64 + 400, n);
            let (lo, up) = envelope_of(&q, 3);
            let full = lb_keogh_sq_scalar(&c, &lo, &up);
            for limit in [
                0.0,
                full * 0.25,
                full * 0.999,
                full,
                full * 1.001,
                full * 4.0,
            ] {
                let s = lb_keogh_sq_bounded_scalar(&c, &lo, &up, limit);
                // SAFETY: AVX2/FMA availability checked above; equal lengths.
                let v = unsafe { lb_keogh_sq_bounded_avx2(&c, &lo, &up, limit) };
                match (s, v) {
                    (Some(x), Some(y)) => {
                        assert!((x - y).abs() <= x * 1e-4 + 1e-5);
                    }
                    (None, None) => {}
                    // Rounding at the exact boundary may flip the decision;
                    // only accept disagreement within float tolerance.
                    (sv, vv) => {
                        let near = (full - limit).abs() <= full * 1e-4 + 1e-5;
                        assert!(near, "n={n} limit={limit}: scalar {sv:?} vs simd {vv:?}");
                    }
                }
            }
        }
    }

    /// Pairs for the DTW differential tests at length `n`: two unrelated
    /// series, two coarse series whose neighbours repeat (ties between
    /// `up`, `diag` and `left`), a series against a shifted copy of itself
    /// (a cheap warp) and a series against itself (every path ties).
    /// Past length 65 only the first two, to keep the debug-build
    /// test run short.
    fn dtw_pairs(seed: u64, n: usize) -> Vec<(Vec<f32>, Vec<f32>)> {
        let a = series(seed, n);
        let shifted: Vec<f32> = (0..n).map(|i| a[(i + 3) % n]).collect();
        let coarse = |s: u64| -> Vec<f32> {
            let raw = series(s, n.div_ceil(2));
            (0..n).map(|i| raw[i / 2].round()).collect()
        };
        let mut pairs = vec![
            (a.clone(), series(seed + 1, n)),
            (coarse(seed + 2), coarse(seed + 3)),
            (a.clone(), shifted),
            (a.clone(), a),
        ];
        if n > 65 {
            pairs.truncate(2);
        }
        pairs
    }

    /// Lengths of the DTW differential tests: every length up to 40, and
    /// both sides of 64 and 256.
    fn dtw_lengths() -> impl Iterator<Item = usize> {
        (1usize..=40).chain([63, 64, 65, 255, 256, 257])
    }

    /// Band radii of the DTW differential tests at length `n`, clamped and
    /// deduplicated: every band up to 20 (the register window holds bands
    /// up to 15, so 15 and 16 sit on either side of its edge) and `n - 1`.
    fn dtw_radii(n: usize) -> Vec<usize> {
        let mut radii: Vec<usize> = (0..=20).chain([n - 1]).map(|b| b.min(n - 1)).collect();
        radii.dedup();
        radii
    }

    /// The rows whose stopping limit the DTW differential tests try: every
    /// row up to length 40; past that the first 4, every 16th and the last
    /// 20 (which hold the rows a walk by anti-diagonals tests after its
    /// last diagonal), so the debug-build test run stays short.
    fn stop_rows(n: usize) -> impl Iterator<Item = usize> {
        (0..n).filter(move |&i| n <= 40 || i < 4 || i % 16 == 0 || i + 20 >= n)
    }

    /// Every row's minimum in the banded DP, computed like the row loop.
    fn row_minima(a: &[f32], b: &[f32], r: usize) -> Vec<f32> {
        let n = a.len();
        let inf = f32::INFINITY;
        let mut prev = vec![inf; n];
        let mut minima = Vec::with_capacity(n);
        for (i, &av) in a.iter().enumerate() {
            let mut curr = vec![inf; n];
            for j in i.saturating_sub(r)..=(i + r).min(n - 1) {
                let d = (av - b[j]) * (av - b[j]);
                let best = if i == 0 && j == 0 {
                    0.0
                } else {
                    let diag = if j > 0 { prev[j - 1] } else { inf };
                    let left = if j > 0 { curr[j - 1] } else { inf };
                    prev[j].min(diag).min(left)
                };
                curr[j] = best + d;
            }
            minima.push(curr.iter().copied().fold(inf, f32::min));
            prev = curr;
        }
        minima
    }

    /// Limits around `full` — one ulp under, at, one ulp over — plus `0`,
    /// `+inf` and each of `stops`, which the tests pick to stop the DP at
    /// every row in turn; each distinct limit once.
    fn dtw_limits(full: f32, stops: &[f32]) -> Vec<f32> {
        let below = f32::from_bits(full.to_bits().saturating_sub(1));
        let above = f32::from_bits(full.to_bits() + 1);
        let mut limits: Vec<f32> = [0.0, below, full, above, f32::INFINITY]
            .into_iter()
            .chain(stops.iter().copied())
            .collect();
        limits.sort_unstable_by(f32::total_cmp);
        limits.dedup_by(|x, y| x.to_bits() == y.to_bits());
        limits
    }

    #[test]
    fn dtw_avx2_is_bit_identical_to_scalar() {
        if !avx2_fma_available() {
            eprintln!("skipping: no AVX2/FMA on this host");
            return;
        }
        use crate::distance::dtw::dtw_sq_bounded_scalar;
        for n in dtw_lengths() {
            for (a, b) in dtw_pairs(n as u64 + 500, n) {
                for r in dtw_radii(n) {
                    let full = dtw_sq_bounded_scalar(&a, &b, r, f32::INFINITY)
                        .expect("infinite limit never abandons");
                    // A limit at row `i`'s minimum stops the DP at the
                    // first row whose minimum reaches it: row minima never
                    // fall, so these limits stop it at every tried row.
                    let minima = row_minima(&a, &b, r);
                    let stops: Vec<f32> = stop_rows(n).map(|i| minima[i]).collect();
                    for limit in dtw_limits(full, &stops) {
                        let s = dtw_sq_bounded_scalar(&a, &b, r, limit);
                        // SAFETY: AVX2/FMA availability checked above; equal lengths.
                        let v = unsafe { dtw_sq_bounded_avx2(&a, &b, r, limit) };
                        assert_eq!(
                            s.map(f32::to_bits),
                            v.map(f32::to_bits),
                            "n={n} r={r} limit={limit}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rest_abandoning_dtw_avx2_is_bit_identical_to_scalar() {
        if !avx2_fma_available() {
            eprintln!("skipping: no AVX2/FMA on this host");
            return;
        }
        use crate::distance::dtw::{dtw_rows_scalar, lb_keogh_sq_scalar};
        let mut scratch = Vec::new();
        for n in dtw_lengths() {
            let mut rows = vec![0.0f32; 2 * n];
            for (a, b) in dtw_pairs(n as u64 + 700, n) {
                for r in dtw_radii(n) {
                    // Any non-increasing non-negative `rest` exercises the
                    // kernels; use the forward LB_Keogh suffix sums.
                    let (lo, up) = envelope_of(&a, r);
                    let rest: Vec<f32> = (0..n)
                        .map(|i| {
                            let from = (i + r + 1).min(n);
                            lb_keogh_sq_scalar(&b[from..], &lo[from..], &up[from..])
                        })
                        .collect();
                    let (full, all_cells) =
                        dtw_rows_scalar(&a, &b, r, f32::INFINITY, None, &mut rows);
                    let full = full.expect("infinite limit never abandons");
                    // Row `i`'s test with `rest` is `min + rest[i]` against
                    // the limit widened by `(2n + 4)` epsilons: narrowed by
                    // a little more, the sums stop the DP at every tried
                    // row. Without `rest`, the row stops are the other
                    // test's; here only the limits around `full`.
                    let narrow = 1.0 - (2 * n + 8) as f32 * f32::EPSILON;
                    let minima = row_minima(&a, &b, r);
                    let stops: Vec<f32> = stop_rows(n)
                        .map(|i| (minima[i] + rest[i]) * narrow)
                        .collect();
                    for (rest, stops) in [(None, &[][..]), (Some(&rest[..]), &stops[..])] {
                        for limit in dtw_limits(full, stops) {
                            let s = dtw_rows_scalar(&a, &b, r, limit, rest, &mut rows);
                            // SAFETY: AVX2/FMA availability checked above;
                            // equal non-zero lengths, `r < n`, rest `n`.
                            let v = unsafe { dtw_rows_avx2(&a, &b, r, limit, rest, &mut scratch) };
                            // Same value, same decision, stopped at the same row.
                            assert_eq!(
                                (s.0.map(f32::to_bits), s.1),
                                (v.0.map(f32::to_bits), v.1),
                                "n={n} r={r} limit={limit} rest={}",
                                rest.is_some()
                            );
                            assert!(s.1 <= all_cells);
                            assert_eq!(s.0.is_some(), full < limit);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sliding_min_max_avx2_is_bit_identical_to_scalar() {
        if !avx2_fma_available() {
            eprintln!("skipping: no AVX2/FMA on this host");
            return;
        }
        use crate::distance::dtw::sliding_min_max_scalar;
        for n in (1usize..=40).chain([63, 64, 65, 100, 255, 256, 257, 300]) {
            let mut s = series(n as u64 + 900, n);
            // Equal neighbours and both zeros: ties must resolve alike.
            if n > 4 {
                s[1] = s[0];
                s[2] = 0.0;
                s[3] = -0.0;
            }
            for r in (0..n.min(20)).chain([n - 1]) {
                let window = 2 * r + 1;
                let len = n + window - 1 + 8;
                let mut lo = vec![f32::INFINITY; len];
                let mut up = vec![f32::NEG_INFINITY; len];
                lo[r..r + n].copy_from_slice(&s);
                up[r..r + n].copy_from_slice(&s);
                let (mut want_lo, mut want_up) = (lo.clone(), up.clone());
                sliding_min_max_scalar(&mut want_lo, &mut want_up, n, window);
                // SAFETY: AVX2 availability checked above.
                unsafe { sliding_min_max_avx2(&mut lo, &mut up, n, window) };
                let bits = |v: &[f32]| v[..n].iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&lo), bits(&want_lo), "n={n} r={r}");
                assert_eq!(bits(&up), bits(&want_up), "n={n} r={r}");
            }
        }
    }

    #[test]
    fn dtw_avx2_empty_series() {
        if !avx2_fma_available() {
            return;
        }
        // SAFETY: AVX2/FMA availability checked above; equal (zero) lengths.
        unsafe {
            assert_eq!(dtw_sq_bounded_avx2(&[], &[], 3, 1.0), Some(0.0));
            assert_eq!(dtw_sq_bounded_avx2(&[], &[], 3, 0.0), None);
        }
    }
}
