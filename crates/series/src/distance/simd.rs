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
    __m256, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_fmadd_ps, _mm256_loadu_ps,
    _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
    _mm256_storeu_ps, _mm256_sub_ps, _mm_add_ps, _mm_add_ss, _mm_cvtss_f32, _mm_movehl_ps,
    _mm_shuffle_ps,
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
    /// Scratch rows for [`dtw_sq_bounded_avx2`] (`prev`/`curr`/`cost`/`mins`,
    /// each `n` long, in one flat grow-only buffer). DTW verification runs
    /// per-candidate inside hot query loops, so the kernel reuses this
    /// per-thread buffer instead of paying four heap allocations per call.
    static DTW_SCRATCH: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Early-abandoning banded DTW with an AVX2-vectorized row pass.
///
/// Per DP row the two vectorizable parts — the cell costs `(a_i - b_j)^2`
/// for a lane of `j` and the lane-wise `min` of the two row-independent
/// predecessors `min(prev[j], prev[j-1])` — are computed 8 columns at a
/// time into scratch rows; a short serial pass then folds in the
/// loop-carried left predecessor. Every float operation (subtract, square,
/// `min`, add) is performed in the same order as the scalar kernel, so
/// results AND the row-min early-abandon decision are **bit-identical** to
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
        let mut buf = cell.borrow_mut();
        if buf.len() < 4 * n {
            buf.resize(4 * n, 0.0);
        }
        // SAFETY: forwards the caller's contract (AVX2/FMA support, equal
        // non-zero lengths); the scratch slice is exactly `4 * n` long.
        unsafe { dtw_rows_avx2(a, b, band.min(n - 1), limit, None, &mut buf[..4 * n]).0 }
    })
}

/// The DP-row loop of [`dtw_sq_bounded_avx2`], over a caller-provided flat
/// scratch buffer it splits into the four `n`-length rows. `rest` and the
/// returned cell count are those of
/// [`dtw_rows_scalar`](crate::distance::dtw::dtw_rows_scalar): the abandon
/// test is the same expression on the same values, so the two kernels stop
/// at the same row.
///
/// # Safety
/// Caller must ensure AVX2/FMA support, `a.len() == b.len() == n > 0`,
/// `r < n`, `scratch.len() == 4 * n`, and `rest`, when given, `n` long.
#[target_feature(enable = "avx2", enable = "fma")]
#[must_use]
pub(crate) unsafe fn dtw_rows_avx2(
    a: &[f32],
    b: &[f32],
    r: usize,
    limit: f32,
    rest: Option<&[f32]>,
    scratch: &mut [f32],
) -> (Option<f32>, u64) {
    let n = a.len();
    debug_assert!(rest.is_none_or(|rest| rest.len() == n));
    let inf = f32::INFINITY;
    let abandon_at = if rest.is_some() {
        crate::distance::dtw::widened_limit(limit, n)
    } else {
        limit
    };
    let mut cells = 0u64;
    let (mut prev, others) = scratch.split_at_mut(n);
    let (mut curr, others) = others.split_at_mut(n);
    let (cost, mins) = others.split_at_mut(n);
    // Band-edge cells one past a row's window are read (as `up`/`diag`)
    // before any row writes them; like the scalar kernel's fresh rows they
    // must start at +inf, so stale values from a previous call on this
    // thread never leak into the recurrence. `cost`/`mins` need no reset:
    // every cell read in a row was written earlier in that row.
    prev.fill(inf);
    curr.fill(inf);
    // SAFETY: all pointer offsets stay inside the window `lo..=hi` (for the
    // `diag` load, `j >= 1` is established before the vector loop), every
    // buffer is `n` long, and the caller guarantees AVX2/FMA support.
    unsafe {
        let pb = b.as_ptr();
        for (i, &av) in a.iter().enumerate() {
            let lo = i.saturating_sub(r);
            let hi = (i + r).min(n - 1);
            let va = _mm256_set1_ps(av);
            let pp = prev.as_ptr();
            let pcost = cost.as_mut_ptr();
            let pmins = mins.as_mut_ptr();
            let mut j = lo;
            if j == 0 {
                // No `prev[j-1]` at the left boundary: diag is +inf there,
                // so min(up, diag) degenerates to up.
                let d = av - *b.get_unchecked(0);
                *cost.get_unchecked_mut(0) = d * d;
                *mins.get_unchecked_mut(0) = *prev.get_unchecked(0);
                j = 1;
            }
            while j + 8 <= hi + 1 {
                let vb = _mm256_loadu_ps(pb.add(j));
                let d = _mm256_sub_ps(va, vb);
                _mm256_storeu_ps(pcost.add(j), _mm256_mul_ps(d, d));
                let up = _mm256_loadu_ps(pp.add(j));
                let diag = _mm256_loadu_ps(pp.add(j - 1));
                _mm256_storeu_ps(pmins.add(j), _mm256_min_ps(up, diag));
                j += 8;
            }
            while j <= hi {
                let d = av - *b.get_unchecked(j);
                *cost.get_unchecked_mut(j) = d * d;
                *mins.get_unchecked_mut(j) =
                    (*prev.get_unchecked(j)).min(*prev.get_unchecked(j - 1));
                j += 1;
            }
            // Serial pass: the left predecessor is loop-carried.
            let mut row_min = inf;
            let mut left = inf;
            for j in lo..=hi {
                let best = if i == 0 && j == 0 {
                    0.0
                } else {
                    (*mins.get_unchecked(j)).min(left)
                };
                let c = best + *cost.get_unchecked(j);
                *curr.get_unchecked_mut(j) = c;
                left = c;
                row_min = row_min.min(c);
            }
            cells += (hi - lo + 1) as u64;
            if rest.map_or(row_min, |rest| row_min + *rest.get_unchecked(i)) >= abandon_at {
                return (None, cells);
            }
            std::mem::swap(&mut prev, &mut curr);
        }
    }
    let result = prev[n - 1];
    (if result < limit { Some(result) } else { None }, cells)
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

    #[test]
    fn dtw_avx2_is_bit_identical_to_scalar() {
        if !avx2_fma_available() {
            eprintln!("skipping: no AVX2/FMA on this host");
            return;
        }
        use crate::distance::dtw::dtw_sq_bounded_scalar;
        for n in [1usize, 2, 7, 8, 9, 17, 33, 64, 100, 256] {
            let a = series(n as u64 + 500, n);
            let b = series(n as u64 + 600, n);
            for band in [0usize, 1, 3, 8, 40, n] {
                let full = dtw_sq_bounded_scalar(&a, &b, band, f32::INFINITY)
                    .expect("infinite limit never abandons");
                for limit in [0.0, full * 0.5, full, full * 1.001, f32::INFINITY] {
                    let s = dtw_sq_bounded_scalar(&a, &b, band, limit);
                    // SAFETY: AVX2/FMA availability checked above; equal lengths.
                    let v = unsafe { dtw_sq_bounded_avx2(&a, &b, band, limit) };
                    // Same ops in the same order: exact equality, no tolerance.
                    assert_eq!(
                        s.map(f32::to_bits),
                        v.map(f32::to_bits),
                        "n={n} band={band} limit={limit}"
                    );
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
        for n in [1usize, 2, 7, 8, 9, 17, 33, 64, 100, 256] {
            let a = series(n as u64 + 700, n);
            let b = series(n as u64 + 800, n);
            let mut rows = vec![0.0f32; 4 * n];
            for band in [0usize, 1, 3, 8, 40, n] {
                let r = band.min(n - 1);
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
                    dtw_rows_scalar(&a, &b, r, f32::INFINITY, None, &mut rows[..2 * n]);
                let full = full.expect("infinite limit never abandons");
                for limit in [0.0, full * 0.5, full, full * 1.001, f32::INFINITY] {
                    for rest in [None, Some(&rest[..])] {
                        let s = dtw_rows_scalar(&a, &b, r, limit, rest, &mut rows[..2 * n]);
                        // SAFETY: AVX2/FMA availability checked above; equal
                        // non-zero lengths, `r < n`, rows `4 * n`, rest `n`.
                        let v = unsafe { dtw_rows_avx2(&a, &b, r, limit, rest, &mut rows) };
                        // Same value, same decision, stopped at the same row.
                        assert_eq!(
                            (s.0.map(f32::to_bits), s.1),
                            (v.0.map(f32::to_bits), v.1),
                            "n={n} band={band} limit={limit} rest={}",
                            rest.is_some()
                        );
                        assert!(s.1 <= all_cells);
                        assert_eq!(s.0.is_some(), full < limit);
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
