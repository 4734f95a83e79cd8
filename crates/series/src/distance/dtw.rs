//! Dynamic Time Warping with a Sakoe-Chiba band, the LB_Keogh lower bound
//! and its envelope, and the per-candidate cascade that chains them.
//!
//! This implements the paper's "current work" extension (§V): the iSAX index
//! is built once and can then answer both Euclidean and DTW queries. Once a
//! candidate's raw values are in hand, DTW query answering is
//! [`dtw_cascade`] — the UCR suite's order of attack:
//!
//! 1. LB_Keogh of the candidate against the *query's* envelope,
//!    early-abandoning ([`lb_keogh_sq_bounded`]);
//! 2. LB_Keogh of the query against the *candidate's* envelope (the
//!    reversed bound) — which is why [`envelope`] is a branch-free,
//!    vectorized sliding min/max: it runs once per survivor of stage 1 and
//!    has to cost less than the DTW it saves;
//! 3. banded DTW that abandons a row as soon as the row minimum plus what
//!    the two bounds say is still owed reaches the limit ([`DtwScratch`]
//!    explains "still owed").
//!
//! Every stage is an exact lower bound of the next, so the cascade returns
//! a distance exactly when plain [`dtw_sq_bounded`] would, with the same
//! bits, in scalar and AVX2 dispatch alike; `widened_limit` is what keeps
//! that true under floating-point rounding.
//!
//! The scalar DTW walks the DP row by row; the AVX2 kernel walks it by
//! anti-diagonals, whose cells do not depend on each other, one row per
//! vector lane. A cell is `min(up, diag, left) + (a_i - b_j)²` either way:
//! the minimum is exact in any order and the subtraction, square and add
//! see the same operands, so every cell has the same bits. The AVX2 kernel
//! keeps each row's minimum and runs the row-abandon test in row order as
//! rows complete, so the two also stop at the same row and count the same
//! cells.
//!
//! All costs are **squared** point differences, so DTW values compare
//! directly against squared Euclidean BSFs (for band 0, DTW == squared ED).

/// Sentinel floats appended to the padded work buffers of [`envelope`] so
/// the AVX2 passes can run whole 8-lane vectors past the last needed
/// element without leaving the buffer.
const ENVELOPE_PAD: usize = 8;

/// Computes the lower/upper envelope of `series` for warping radius `r`.
///
/// `lower[i] = min(series[i-r ..= i+r])`, `upper[i] = max(...)` (clamped at
/// the boundaries). Branch-free doubling: the series is copied between `r`
/// sentinels (`+inf` for the minimum, `-inf` for the maximum), window
/// extrema of width 2, 4, ..., `p` (the largest power of two `<= 2r + 1`)
/// are built in place by `m_2s[i] = min(m_s[i], m_s[i + s])`, and two
/// overlapping width-`p` windows cover the full one:
/// `out[i] = min(m_p[i], m_p[i + 2r + 1 - p])`. That is `log2(2r + 1) + 1`
/// streaming passes with no data-dependent branch, so it vectorizes; the
/// candidate-side envelope of the DTW cascade is computed once per
/// LB_Keogh survivor and has to cost less than the DTW it saves.
///
/// Dispatches to the AVX2 kernel when
/// [`simd_enabled`](crate::distance::simd_enabled), otherwise to the same
/// passes as a scalar loop (`sliding_min_max_scalar`). Minimum and
/// maximum are exact and both paths combine the same operands in the same
/// order, so the outputs are bit-identical across dispatch modes.
///
/// The output vectors double as the work buffers (they grow to
/// `n + 2r + 8` once and are truncated to `n`), so reusing them across
/// calls avoids allocation.
pub fn envelope(series: &[f32], r: usize, lower: &mut Vec<f32>, upper: &mut Vec<f32>) {
    let n = series.len();
    lower.clear();
    upper.clear();
    if n == 0 {
        return;
    }
    // A radius past the ends sees the whole series either way.
    let r = r.min(n - 1);
    let window = 2 * r + 1;
    for (buf, sentinel) in [
        (&mut *lower, f32::INFINITY),
        (&mut *upper, f32::NEG_INFINITY),
    ] {
        buf.resize(r, sentinel);
        buf.extend_from_slice(series);
        buf.resize(n + window - 1 + ENVELOPE_PAD, sentinel);
    }
    sliding_min_max(lower, upper, n, window);
    lower.truncate(n);
    upper.truncate(n);
}

/// The doubling passes of [`envelope`] on whichever path
/// [`simd_enabled`](crate::distance::simd_enabled) selects.
#[inline]
fn sliding_min_max(lo: &mut [f32], up: &mut [f32], n: usize, window: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::distance::simd_enabled() {
            // SAFETY: `simd_enabled` implies AVX2; the kernel checks the
            // buffer lengths itself.
            unsafe { crate::distance::simd::sliding_min_max_avx2(lo, up, n, window) };
            return;
        }
    }
    sliding_min_max_scalar(lo, up, n, window);
}

/// The in-place doubling passes of [`envelope`] as a scalar loop — the
/// non-x86 fallback and the bit-exact oracle for the AVX2 kernel.
///
/// On entry `lo[i]`/`up[i]` hold the padded series; on return
/// `lo[i] = min(padded[i..i + window])` and `up[i]` the maximum, for
/// `i < n`. Elements past `n` are scratch.
///
/// # Panics
/// Panics if a buffer is shorter than `n + window - 1`.
pub(crate) fn sliding_min_max_scalar(lo: &mut [f32], up: &mut [f32], n: usize, window: usize) {
    // `a < b ? a : b` / `a > b ? a : b` with the lower index first: what
    // `_mm256_min_ps`/`_mm256_max_ps` compute, down to the sign of a zero.
    let min = |a: f32, b: f32| if a < b { a } else { b };
    let max = |a: f32, b: f32| if a > b { a } else { b };
    let mut s = 1;
    while 2 * s <= window {
        // Width-2s extrema are needed for every start the final pass (and
        // the passes between) will read: i < n + window - 2s.
        for i in 0..n + window - 2 * s {
            lo[i] = min(lo[i], lo[i + s]);
            up[i] = max(up[i], up[i + s]);
        }
        s *= 2;
    }
    let off = window - s;
    for i in 0..n {
        lo[i] = min(lo[i], lo[i + off]);
        up[i] = max(up[i], up[i + off]);
    }
}

/// LB_Keogh lower bound (squared) of DTW(query, candidate) given the
/// query's envelope.
///
/// Dispatches to the AVX2 kernel when
/// [`simd_enabled`](crate::distance::simd_enabled), otherwise to the
/// scalar loop ([`lb_keogh_sq_scalar`]).
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
#[must_use]
pub fn lb_keogh_sq(candidate: &[f32], lower: &[f32], upper: &[f32]) -> f32 {
    assert_eq!(candidate.len(), lower.len(), "lb_keogh_sq length mismatch");
    assert_eq!(candidate.len(), upper.len(), "lb_keogh_sq length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if crate::distance::simd_enabled() {
            // SAFETY: `simd_enabled` implies AVX2/FMA; lengths checked above.
            return unsafe { crate::distance::simd::lb_keogh_sq_avx2(candidate, lower, upper) };
        }
    }
    lb_keogh_sq_scalar(candidate, lower, upper)
}

/// Scalar LB_Keogh — the non-x86 fallback and the differential-testing
/// oracle for the AVX2 kernel.
#[must_use]
pub fn lb_keogh_sq_scalar(candidate: &[f32], lower: &[f32], upper: &[f32]) -> f32 {
    debug_assert_eq!(candidate.len(), lower.len());
    debug_assert_eq!(candidate.len(), upper.len());
    let mut sum = 0.0f32;
    for i in 0..candidate.len() {
        let c = candidate[i];
        if c > upper[i] {
            let d = c - upper[i];
            sum += d * d;
        } else if c < lower[i] {
            let d = lower[i] - c;
            sum += d * d;
        }
    }
    sum
}

/// Early-abandoning LB_Keogh: returns `Some(lb)` iff `lb < limit`.
///
/// Dispatches like [`lb_keogh_sq`].
#[inline]
#[must_use]
pub fn lb_keogh_sq_bounded(
    candidate: &[f32],
    lower: &[f32],
    upper: &[f32],
    limit: f32,
) -> Option<f32> {
    assert_eq!(candidate.len(), lower.len(), "lb_keogh_sq length mismatch");
    assert_eq!(candidate.len(), upper.len(), "lb_keogh_sq length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if crate::distance::simd_enabled() {
            // SAFETY: `simd_enabled` implies AVX2/FMA; lengths checked above.
            return unsafe {
                crate::distance::simd::lb_keogh_sq_bounded_avx2(candidate, lower, upper, limit)
            };
        }
    }
    lb_keogh_sq_bounded_scalar(candidate, lower, upper, limit)
}

/// Scalar early-abandoning LB_Keogh (partial-sum check every 16 points) —
/// the non-x86 fallback and the differential-testing oracle.
#[must_use]
pub fn lb_keogh_sq_bounded_scalar(
    candidate: &[f32],
    lower: &[f32],
    upper: &[f32],
    limit: f32,
) -> Option<f32> {
    debug_assert_eq!(candidate.len(), lower.len());
    debug_assert_eq!(candidate.len(), upper.len());
    let mut sum = 0.0f32;
    for (chunk_c, (chunk_l, chunk_u)) in candidate
        .chunks(16)
        .zip(lower.chunks(16).zip(upper.chunks(16)))
    {
        for i in 0..chunk_c.len() {
            let c = chunk_c[i];
            if c > chunk_u[i] {
                let d = c - chunk_u[i];
                sum += d * d;
            } else if c < chunk_l[i] {
                let d = chunk_l[i] - c;
                sum += d * d;
            }
        }
        if sum >= limit {
            return None;
        }
    }
    Some(sum)
}

/// Exact DTW (squared costs) between equal-length series with a Sakoe-Chiba
/// band of radius `band`.
///
/// `band == 0` degenerates to the squared Euclidean distance.
///
/// # Panics
/// Panics if the lengths differ.
#[must_use]
pub fn dtw_sq(a: &[f32], b: &[f32], band: usize) -> f32 {
    dtw_sq_bounded(a, b, band, f32::INFINITY).expect("infinite limit never abandons")
}

/// Early-abandoning banded DTW: returns `Some(d)` iff the exact banded DTW
/// cost `d` is strictly below `limit`; abandons as soon as an entire DP row
/// exceeds `limit`.
///
/// Dispatches to the AVX2 anti-diagonal kernel when
/// [`simd_enabled`](crate::distance::simd_enabled). Unlike the tolerance-
/// tested Euclidean/LB_Keogh pairs, the two DTW variants give every cell
/// the same three predecessors and the same cost, and test rows for
/// abandoning in the same order, so values and abandon decisions are
/// bit-identical across dispatch modes (see the module docs).
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
#[must_use]
pub fn dtw_sq_bounded(a: &[f32], b: &[f32], band: usize, limit: f32) -> Option<f32> {
    assert_eq!(a.len(), b.len(), "dtw_sq length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if crate::distance::simd_enabled() {
            // SAFETY: `simd_enabled` implies AVX2/FMA; lengths checked above.
            return unsafe { crate::distance::simd::dtw_sq_bounded_avx2(a, b, band, limit) };
        }
    }
    dtw_sq_bounded_scalar(a, b, band, limit)
}

/// Scalar early-abandoning banded DTW, row by row — the non-x86 fallback,
/// the `DSIDX_NO_SIMD=1` path and the bit-exact oracle for the AVX2
/// kernel.
#[must_use]
pub fn dtw_sq_bounded_scalar(a: &[f32], b: &[f32], band: usize, limit: f32) -> Option<f32> {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    if n == 0 {
        return if 0.0 < limit { Some(0.0) } else { None };
    }
    let mut rows = vec![0.0; 2 * n];
    dtw_rows_scalar(a, b, band.min(n - 1), limit, None, &mut rows).0
}

/// The limit the cascade's lower bounds are compared against: `limit`
/// widened by the most a bound and the DP can disagree through rounding
/// alone.
///
/// In exact arithmetic no bound exceeds the banded DTW cost, but the DP
/// adds its cells along the path while a bound adds its terms in another
/// order (by lanes, or back to front), and each of the at most `2n`
/// additions on either side rounds by half an ulp — so a bound that is
/// tight can come out above the DP's own result by a relative
/// `4n * 2^-24`. Pruning thresholds sit one ulp above the k-th distance
/// precisely so that an exact tie still completes and is ranked by
/// position; comparing a bound against the unwidened limit could lose such
/// a tie to rounding. The DTW's own final `cost < limit` test needs no
/// slack and gets none.
#[inline]
pub(crate) fn widened_limit(limit: f32, n: usize) -> f32 {
    limit * (1.0 + (2 * n + 4) as f32 * f32::EPSILON)
}

/// The DP-row loop of the scalar DTW kernel over caller-provided rows.
///
/// `rest`, when given, holds for every row `i` a lower bound on what any
/// warping path still has to pay after leaving row `i` (see
/// [`DtwScratch`]); a row is then abandoned as soon as `row_min + rest[i]`
/// reaches the [widened](widened_limit) limit instead of waiting for
/// `row_min` alone to get there. The cell arithmetic does not depend on
/// `rest`, so a completed DTW has the same bits either way, and because
/// `rest` is a lower bound the `Some`/`None` outcome is the same too — only
/// the row at which a hopeless DTW stops moves.
///
/// Returns the outcome and the number of DP cells evaluated.
///
/// `a.len() == b.len() == n > 0`, `r < n`, `rows.len() == 2 * n`, and
/// `rest`, when given, is `n` long.
pub(crate) fn dtw_rows_scalar(
    a: &[f32],
    b: &[f32],
    r: usize,
    limit: f32,
    rest: Option<&[f32]>,
    rows: &mut [f32],
) -> (Option<f32>, u64) {
    let n = a.len();
    let inf = f32::INFINITY;
    let abandon_at = if rest.is_some() {
        widened_limit(limit, n)
    } else {
        limit
    };
    let (mut prev, mut curr) = rows.split_at_mut(n);
    prev.fill(inf);
    curr.fill(inf);
    let mut cells = 0u64;
    for (i, &av) in a.iter().enumerate() {
        let lo = i.saturating_sub(r);
        let hi = (i + r).min(n - 1);
        curr[lo..=hi].fill(inf);
        let mut row_min = inf;
        for j in lo..=hi {
            let bv = b[j];
            let d = (av - bv) * (av - bv);
            let best = if i == 0 && j == 0 {
                0.0
            } else {
                let up = if i > 0 { prev[j] } else { inf };
                let diag = if i > 0 && j > 0 { prev[j - 1] } else { inf };
                let left = if j > lo { curr[j - 1] } else { inf };
                up.min(diag).min(left)
            };
            let cost = best + d;
            curr[j] = cost;
            row_min = row_min.min(cost);
        }
        cells += (hi - lo + 1) as u64;
        if rest.map_or(row_min, |rest| row_min + rest[i]) >= abandon_at {
            return (None, cells);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let result = prev[n - 1];
    (if result < limit { Some(result) } else { None }, cells)
}

/// The `rest`-abandoning DP on whichever path
/// [`simd_enabled`](crate::distance::simd_enabled) selects; same contract
/// as [`dtw_rows_scalar`], over a grow-only buffer each path sizes to what
/// it needs (the row loop's two rows, or the anti-diagonal kernel's padded
/// inputs).
#[inline]
fn dtw_rows(
    a: &[f32],
    b: &[f32],
    r: usize,
    limit: f32,
    rest: &[f32],
    rows: &mut Vec<f32>,
) -> (Option<f32>, u64) {
    let n = a.len();
    assert!(
        n > 0 && b.len() == n && r < n && rest.len() == n,
        "dtw_rows contract"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if crate::distance::simd_enabled() {
            // SAFETY: `simd_enabled` implies AVX2/FMA; the lengths were
            // checked just above.
            return unsafe {
                crate::distance::simd::dtw_rows_avx2(a, b, r, limit, Some(rest), rows)
            };
        }
    }
    if rows.len() < 2 * n {
        rows.resize(2 * n, 0.0);
    }
    dtw_rows_scalar(a, b, r, limit, Some(rest), &mut rows[..2 * n])
}

/// How [`dtw_cascade`] disposed of one candidate. Only [`Full`] carries a
/// distance; the other three say which stage proved the candidate cannot
/// be below the limit.
///
/// [`Full`]: DtwVerdict::Full
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DtwVerdict {
    /// LB_Keogh of the candidate against the *query's* envelope reached
    /// the limit.
    KeoghPruned,
    /// LB_Keogh of the query against the *candidate's* envelope reached
    /// the limit.
    ReversedPruned,
    /// The banded DTW was started and abandoned at some row.
    Abandoned,
    /// The banded DTW completed below the limit, with this cost.
    Full(f32),
}

/// Per-worker buffers of [`dtw_cascade`]: the candidate's envelope, the
/// remaining-cost bounds and the DP's working buffer (the scalar row
/// loop's two rows; the AVX2 kernel's padded query and reversed candidate,
/// plus its diagonals and row minima for bands past 15). They grow to the
/// series length once and are reused for every candidate.
///
/// The remaining-cost bound `rest[i]` is what every warping path of the
/// DTW of the query (rows) against the candidate (columns) still owes once
/// it leaves row `i`. It has to visit each later row, and a cell of row
/// `i'` costs at least the squared distance of `query[i']` to the
/// candidate's envelope — the reversed LB_Keogh's term for `i'`. It also
/// has to visit each column past `i + band`, which no row up to `i` can
/// reach, and a cell of column `j` costs at least the squared distance of
/// `series[j]` to the query's envelope — the forward LB_Keogh's term for
/// `j`. The two sets of cells may overlap, so `rest[i]` is the larger of
/// the two suffix sums, not their total.
#[derive(Debug, Default)]
pub struct DtwScratch {
    lower: Vec<f32>,
    upper: Vec<f32>,
    /// `col_tail[j]`: the forward LB_Keogh contributions of columns `>= j`.
    col_tail: Vec<f32>,
    /// `rest[i]`: a lower bound on the cost after row `i`.
    rest: Vec<f32>,
    rows: Vec<f32>,
    cells: u64,
}

impl DtwScratch {
    /// Empty buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// DP cells the last [`dtw_cascade`] call evaluated — zero unless it
    /// got as far as starting the DTW.
    #[must_use]
    pub fn cells(&self) -> u64 {
        self.cells
    }

    /// Fills `rest` (see the type docs) for band radius `r`; the
    /// candidate's envelope must already be in `lower`/`upper`.
    ///
    /// Plain scalar code on every dispatch path: the terms are
    /// element-wise and the suffix sums run back to front, so the values —
    /// and with them every abandon decision — do not depend on the SIMD
    /// mode.
    fn fill_rest(
        &mut self,
        query: &[f32],
        q_lower: &[f32],
        q_upper: &[f32],
        series: &[f32],
        r: usize,
    ) {
        let n = query.len();
        // At most one excursion is non-zero for a valid envelope.
        let term = |v: f32, lo: f32, up: f32| {
            let d = (v - up).max(lo - v).max(0.0);
            d * d
        };
        self.col_tail.clear();
        self.col_tail.resize(n + 1, 0.0);
        let mut sum = 0.0f32;
        for j in (0..n).rev() {
            sum += term(series[j], q_lower[j], q_upper[j]);
            self.col_tail[j] = sum;
        }
        self.rest.clear();
        self.rest.resize(n, 0.0);
        let mut sum = 0.0f32;
        for i in (0..n).rev() {
            self.rest[i] = sum.max(self.col_tail[(i + r + 1).min(n)]);
            sum += term(query[i], self.lower[i], self.upper[i]);
        }
    }
}

/// The whole per-candidate DTW cascade, cheapest stage first, each stage
/// an exact lower bound of the next:
///
/// 1. early-abandoning LB_Keogh of `series` against the query's envelope
///    (`q_lower`/`q_upper`, from [`envelope`] at radius `band`);
/// 2. for survivors, the candidate's own envelope and the *reversed*
///    LB_Keogh — `query` against the candidate's envelope. DTW is
///    symmetric, so this bounds the same distance from the other side and
///    catches candidates that stay inside the query's envelope while the
///    query leaves theirs;
/// 3. banded DTW that abandons a row once the row minimum plus the
///    per-position terms of both bounds that the path has not paid yet
///    reach the limit (see [`DtwScratch`]).
///
/// Returns [`DtwVerdict::Full`] with the exact banded DTW cost iff that
/// cost is strictly below `limit` — the same value, to the bit, and the
/// same decision as [`dtw_sq_bounded`] alone, in both dispatch modes.
/// `limit = +inf` always completes.
///
/// # Panics
/// Panics if the four slices differ in length.
#[must_use]
pub fn dtw_cascade(
    query: &[f32],
    q_lower: &[f32],
    q_upper: &[f32],
    series: &[f32],
    band: usize,
    limit: f32,
    scratch: &mut DtwScratch,
) -> DtwVerdict {
    assert_eq!(query.len(), series.len(), "dtw_cascade length mismatch");
    scratch.cells = 0;
    let n = query.len();
    let bound_limit = widened_limit(limit, n);
    if lb_keogh_sq_bounded(series, q_lower, q_upper, bound_limit).is_none() {
        return DtwVerdict::KeoghPruned;
    }
    envelope(series, band, &mut scratch.lower, &mut scratch.upper);
    if lb_keogh_sq_bounded(query, &scratch.lower, &scratch.upper, bound_limit).is_none() {
        return DtwVerdict::ReversedPruned;
    }
    if n == 0 {
        // Both bounds passed, so `0 < limit`.
        return DtwVerdict::Full(0.0);
    }
    let r = band.min(n - 1);
    scratch.fill_rest(query, q_lower, q_upper, series, r);
    let (cost, cells) = dtw_rows(query, series, r, limit, &scratch.rest, &mut scratch.rows);
    scratch.cells = cells;
    cost.map_or(DtwVerdict::Abandoned, DtwVerdict::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::scalar::euclidean_sq;

    fn env_of(s: &[f32], r: usize) -> (Vec<f32>, Vec<f32>) {
        let mut lo = Vec::new();
        let mut up = Vec::new();
        envelope(s, r, &mut lo, &mut up);
        (lo, up)
    }

    fn series(seed: u64, n: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / 16_777_216.0) * 2.0 - 1.0
            })
            .collect()
    }

    /// Naive O(n^2) DTW oracle with explicit DP table.
    fn dtw_naive(a: &[f32], b: &[f32], r: usize) -> f32 {
        dtw_table(a, b, r)[a.len() - 1][a.len() - 1]
    }

    /// The full DP table behind [`dtw_naive`]; cells outside the band are
    /// `+inf`.
    fn dtw_table(a: &[f32], b: &[f32], r: usize) -> Vec<Vec<f32>> {
        let n = a.len();
        let mut dp = vec![vec![f32::INFINITY; n]; n];
        for i in 0..n {
            for j in 0..n {
                if i.abs_diff(j) > r {
                    continue;
                }
                let d = (a[i] - b[j]) * (a[i] - b[j]);
                let best = if i == 0 && j == 0 {
                    0.0
                } else {
                    let up = if i > 0 { dp[i - 1][j] } else { f32::INFINITY };
                    let left = if j > 0 { dp[i][j - 1] } else { f32::INFINITY };
                    let diag = if i > 0 && j > 0 {
                        dp[i - 1][j - 1]
                    } else {
                        f32::INFINITY
                    };
                    up.min(left).min(diag)
                };
                dp[i][j] = best + d;
            }
        }
        dp
    }

    #[test]
    fn envelope_radius_zero_is_identity() {
        let s = series(1, 50);
        let (lo, up) = env_of(&s, 0);
        assert_eq!(lo, s);
        assert_eq!(up, s);
    }

    #[test]
    fn envelope_bounds_series() {
        let s = series(2, 100);
        for r in [1usize, 3, 10, 99, 200] {
            let (lo, up) = env_of(&s, r);
            assert_eq!(lo.len(), s.len());
            for i in 0..s.len() {
                assert!(lo[i] <= s[i] && s[i] <= up[i], "r={r} i={i}");
                // Check against naive window min/max.
                let a = i.saturating_sub(r);
                let b = (i + r).min(s.len() - 1);
                let w = &s[a..=b];
                let wmin = w.iter().copied().fold(f32::INFINITY, f32::min);
                let wmax = w.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                assert_eq!(lo[i], wmin);
                assert_eq!(up[i], wmax);
            }
        }
    }

    #[test]
    fn envelope_empty_series() {
        let (lo, up) = env_of(&[], 5);
        assert!(lo.is_empty() && up.is_empty());
    }

    #[test]
    fn dtw_band_zero_equals_euclidean() {
        let a = series(3, 64);
        let b = series(4, 64);
        let d = dtw_sq(&a, &b, 0);
        let e = euclidean_sq(&a, &b);
        assert!((d - e).abs() <= e * 1e-4 + 1e-5);
    }

    #[test]
    fn dtw_identical_series_is_zero() {
        let a = series(5, 48);
        for band in [0usize, 2, 10] {
            assert_eq!(dtw_sq(&a, &a, band), 0.0);
        }
    }

    #[test]
    fn dtw_matches_naive_oracle() {
        for n in [1usize, 2, 8, 21, 40] {
            for r in [0usize, 1, 3, 7, 40] {
                let a = series(n as u64 * 7 + 1, n);
                let b = series(n as u64 * 7 + 2, n);
                let got = dtw_sq(&a, &b, r);
                let want = dtw_naive(&a, &b, r.min(n - 1));
                assert!(
                    (got - want).abs() <= want.abs() * 1e-4 + 1e-5,
                    "n={n} r={r}: got {got} want {want}"
                );
            }
        }
    }

    #[test]
    fn wider_band_never_increases_cost() {
        let a = series(11, 60);
        let b = series(12, 60);
        let mut last = f32::INFINITY;
        for r in [0usize, 1, 2, 4, 8, 16, 59] {
            let d = dtw_sq(&a, &b, r);
            assert!(d <= last + 1e-4, "band {r} increased cost: {d} > {last}");
            last = d;
        }
    }

    #[test]
    fn dtw_shifted_sine_much_smaller_than_euclidean() {
        let n = 128;
        let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.2).sin()).collect();
        let b: Vec<f32> = (0..n).map(|i| ((i + 3) as f32 * 0.2).sin()).collect();
        let ed = euclidean_sq(&a, &b);
        let dtw = dtw_sq(&a, &b, 8);
        assert!(dtw < ed * 0.1, "dtw {dtw} should be far below ed {ed}");
    }

    #[test]
    fn lb_keogh_lower_bounds_dtw() {
        for seed in 0..20u64 {
            let n = 50;
            let q = series(seed * 2 + 1, n);
            let c = series(seed * 2 + 2, n);
            for r in [0usize, 1, 5, 12] {
                let (lo, up) = env_of(&q, r);
                let lb = lb_keogh_sq(&c, &lo, &up);
                let d = dtw_sq(&q, &c, r);
                assert!(
                    lb <= d + d.abs() * 1e-4 + 1e-4,
                    "seed={seed} r={r}: lb {lb} > dtw {d}"
                );
            }
        }
    }

    #[test]
    fn lb_keogh_bounded_matches_full() {
        let q = series(31, 80);
        let c = series(32, 80);
        let (lo, up) = env_of(&q, 4);
        let full = lb_keogh_sq(&c, &lo, &up);
        // SIMD bounded/full variants accumulate in different lane groupings,
        // so (like the Euclidean kernels) values match to tolerance, not bits.
        let got = lb_keogh_sq_bounded(&c, &lo, &up, full + 1.0).expect("below limit");
        assert!((got - full).abs() <= full * 1e-4 + 1e-5);
        assert_eq!(lb_keogh_sq_bounded(&c, &lo, &up, full * 0.5), None);
    }

    #[test]
    fn dtw_bounded_decision_is_exact() {
        let a = series(41, 64);
        let b = series(42, 64);
        let full = dtw_sq(&a, &b, 5);
        assert_eq!(dtw_sq_bounded(&a, &b, 5, full * 1.01), Some(full));
        assert_eq!(dtw_sq_bounded(&a, &b, 5, full * 0.99), None);
        assert_eq!(dtw_sq_bounded(&a, &b, 5, full), None, "strict");
    }

    /// `rest` of the cascade, as the cascade would fill it.
    fn rest_of(q: &[f32], c: &[f32], band: usize) -> Vec<f32> {
        let (q_lo, q_up) = env_of(q, band);
        let mut scratch = DtwScratch::new();
        envelope(c, band, &mut scratch.lower, &mut scratch.upper);
        scratch.fill_rest(q, &q_lo, &q_up, c, band.min(q.len() - 1));
        scratch.rest
    }

    #[test]
    fn reversed_lb_keogh_lower_bounds_dtw() {
        for seed in 0..20u64 {
            let n = 50;
            let q = series(seed * 2 + 1, n);
            let c = series(seed * 2 + 2, n);
            for r in [0usize, 1, 5, 12, 60] {
                let (lo, up) = env_of(&c, r);
                let lb = lb_keogh_sq(&q, &lo, &up);
                let d = dtw_sq(&q, &c, r);
                assert!(
                    lb <= d + d.abs() * 1e-4 + 1e-4,
                    "seed={seed} r={r}: reversed lb {lb} > dtw {d}"
                );
            }
        }
    }

    #[test]
    fn row_minimum_plus_rest_never_exceeds_the_final_cost() {
        for seed in 0..10u64 {
            let n = 40;
            let q = series(seed * 2 + 101, n);
            let c = series(seed * 2 + 102, n);
            for band in [0usize, 2, 7, 39, 100] {
                let rest = rest_of(&q, &c, band);
                assert_eq!(rest[n - 1], 0.0);
                let table = dtw_table(&q, &c, band.min(n - 1));
                let full = table[n - 1][n - 1];
                for i in 0..n {
                    let row_min = table[i].iter().copied().fold(f32::INFINITY, f32::min);
                    assert!(
                        row_min + rest[i] <= full * (1.0 + 1e-5) + 1e-5,
                        "seed={seed} band={band} row {i}: {row_min} + {} > {full}",
                        rest[i]
                    );
                }
            }
        }
    }

    #[test]
    fn cascade_decides_and_values_like_plain_dtw() {
        let mut scratch = DtwScratch::new();
        for seed in 0..12u64 {
            for n in [1usize, 2, 9, 33, 64] {
                let q = series(seed * 2 + 201, n);
                let c = series(seed * 2 + 202, n);
                for band in [0usize, 1, 4, 12, n, n + 5] {
                    let (lo, up) = env_of(&q, band);
                    let full = dtw_sq(&q, &c, band);
                    let next_up = f32::from_bits(full.to_bits() + 1);
                    for limit in [
                        0.0,
                        full * 0.3,
                        full * 0.9,
                        full,
                        next_up,
                        full * 1.5,
                        f32::INFINITY,
                    ] {
                        let plain = dtw_sq_bounded(&q, &c, band, limit);
                        let verdict = dtw_cascade(&q, &lo, &up, &c, band, limit, &mut scratch);
                        match verdict {
                            DtwVerdict::Full(d) => {
                                assert_eq!(Some(d.to_bits()), plain.map(f32::to_bits));
                                assert!(scratch.cells() > 0);
                            }
                            DtwVerdict::Abandoned => {
                                assert_eq!(plain, None, "n={n} band={band} limit={limit}");
                                assert!(scratch.cells() > 0);
                            }
                            DtwVerdict::KeoghPruned | DtwVerdict::ReversedPruned => {
                                assert_eq!(plain, None, "n={n} band={band} limit={limit}");
                                assert_eq!(scratch.cells(), 0);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cascade_completes_an_exact_tie_one_ulp_under_the_limit() {
        // Pruners expose the k-th distance plus one ulp so a duplicate of
        // the k-th neighbour still completes (and wins on position): no
        // stage may round its way past that.
        let mut scratch = DtwScratch::new();
        for seed in 0..40u64 {
            let n = 96;
            let q = series(seed * 2 + 301, n);
            let c = series(seed * 2 + 302, n);
            for band in [1usize, 5, 12] {
                let (lo, up) = env_of(&q, band);
                let full = dtw_sq(&q, &c, band);
                let limit = f32::from_bits(full.to_bits() + 1);
                assert_eq!(
                    dtw_cascade(&q, &lo, &up, &c, band, limit, &mut scratch),
                    DtwVerdict::Full(full),
                    "seed={seed} band={band}"
                );
            }
        }
    }

    #[test]
    fn rest_abandons_no_later_and_counts_fewer_cells() {
        let mut rows = vec![0.0; 2 * 128];
        let (mut plain_cells, mut rest_cells) = (0u64, 0u64);
        for seed in 0..20u64 {
            let n = 128;
            let q = series(seed * 2 + 401, n);
            let c = series(seed * 2 + 402, n);
            let band = 8;
            let rest = rest_of(&q, &c, band);
            let full = dtw_sq(&q, &c, band);
            let limit = full * 0.6;
            let (plain, cells) = dtw_rows_scalar(&q, &c, band, limit, None, &mut rows);
            assert_eq!(plain, None);
            plain_cells += cells;
            let (tailed, cells) = dtw_rows_scalar(&q, &c, band, limit, Some(&rest), &mut rows);
            assert_eq!(tailed, None);
            rest_cells += cells;
        }
        assert!(rest_cells < plain_cells, "{rest_cells} vs {plain_cells}");
    }

    #[test]
    fn dtw_empty_series() {
        assert_eq!(dtw_sq(&[], &[], 3), 0.0);
        assert_eq!(dtw_sq_bounded(&[], &[], 3, 0.0), None);
    }
}
