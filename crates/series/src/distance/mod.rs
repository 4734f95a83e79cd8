//! Distance kernels.
//!
//! The paper's engines spend nearly all query time in two kernels: the
//! *real* (Euclidean) distance between raw series, and the *lower-bound*
//! distance between a query summary and iSAX summaries (the latter lives in
//! `dsidx-isax`). Both ParIS and MESSI evaluate real distances with SIMD and
//! abandon a candidate as soon as its partial sum exceeds the best-so-far
//! (BSF); this module provides exactly those kernels.
//!
//! All functions return **squared** Euclidean distances. Comparisons against
//! a BSF are monotone under squaring, so engines never need the square root.

pub mod dtw;
pub mod scalar;
#[cfg(target_arch = "x86_64")]
pub mod simd;

use std::sync::atomic::{AtomicU8, Ordering};

/// Cached dispatch decision: 0 = undecided, 1 = SIMD, 2 = scalar.
static SIMD_STATE: AtomicU8 = AtomicU8::new(0);

/// `true` when the running CPU has the AVX2/FMA features the SIMD kernels
/// need (always `false` off x86-64). Ignores the kill-switch.
#[inline]
#[must_use]
pub fn hardware_simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        simd::avx2_fma_available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `true` when distance kernels should dispatch to their SIMD variants.
///
/// This is THE gate every kernel dispatch point in the workspace consults
/// (Euclidean, LB_Keogh, DTW here; the MINDIST table lookups in
/// `dsidx-isax` re-export it). It requires hardware support AND honors the
/// `DSIDX_NO_SIMD` kill-switch: setting `DSIDX_NO_SIMD=1` (any non-empty
/// value other than `0`) forces every kernel onto the scalar fallback, so
/// operators can bisect kernel regressions in production and the scalar
/// path stays testable on AVX2 hosts. The decision is computed once and
/// cached in an atomic; hot loops pay a load and a predictable branch.
#[inline]
#[must_use]
pub fn simd_enabled() -> bool {
    // ORDERING: relaxed — the cached decision is a self-contained value
    // (no data is published through it) and every racing initializer
    // computes the same answer.
    match SIMD_STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => init_simd_state(),
    }
}

#[cold]
fn init_simd_state() -> bool {
    let enabled = hardware_simd_available() && !simd_kill_switch_active();
    // ORDERING: relaxed — racing initializers compute the same value; the
    // store is idempotent and publishes nothing beyond itself.
    SIMD_STATE.store(if enabled { 1 } else { 2 }, Ordering::Relaxed);
    enabled
}

/// `true` when the `DSIDX_NO_SIMD` environment kill-switch is set (any
/// non-empty value other than `0`). While active, every dispatch point —
/// including the [`set_simd_enabled`] override — stays on the scalar path.
#[must_use]
pub fn simd_kill_switch_active() -> bool {
    std::env::var_os("DSIDX_NO_SIMD").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Overrides the cached dispatch decision (test hook: the SIMD-equivalence
/// suites run both paths in one process). Requesting SIMD
/// on hardware without it is ignored, and the `DSIDX_NO_SIMD` kill-switch
/// always wins — an operator bisecting a kernel regression must not have
/// the scalar pin silently undone by a library consumer calling this.
/// Returns the effective state.
pub fn set_simd_enabled(on: bool) -> bool {
    let effective = on && hardware_simd_available() && !simd_kill_switch_active();
    // ORDERING: relaxed — same contract as the initializer: the flag is a
    // self-contained dispatch decision, not a publication point.
    SIMD_STATE.store(if effective { 1 } else { 2 }, Ordering::Relaxed);
    effective
}

/// Squared Euclidean distance between two equal-length series.
///
/// Dispatches to an AVX2/FMA kernel when the CPU supports it (detected once,
/// cached by `std`), otherwise to an auto-vectorizable scalar loop.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
#[must_use]
pub fn euclidean_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "euclidean_sq length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if simd_enabled() {
            // SAFETY: `simd_enabled` implies AVX2/FMA; lengths equal.
            return unsafe { simd::euclidean_sq_avx2(a, b) };
        }
    }
    scalar::euclidean_sq(a, b)
}

/// Euclidean distance (square root of [`euclidean_sq`]).
#[inline]
#[must_use]
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    euclidean_sq(a, b).sqrt()
}

/// Early-abandoning squared Euclidean distance.
///
/// Returns `Some(d2)` iff the full squared distance `d2` is **strictly
/// smaller** than `limit`; otherwise returns `None`, possibly having
/// abandoned the computation part-way (the partial sum is monotone
/// non-decreasing, so once it reaches `limit` the outcome is decided).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
#[must_use]
pub fn euclidean_sq_bounded(a: &[f32], b: &[f32], limit: f32) -> Option<f32> {
    assert_eq!(a.len(), b.len(), "euclidean_sq_bounded length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if simd_enabled() {
            // SAFETY: `simd_enabled` implies AVX2/FMA; lengths equal.
            return unsafe { simd::euclidean_sq_bounded_avx2(a, b, limit) };
        }
    }
    scalar::euclidean_sq_bounded(a, b, limit)
}

/// Early-abandoning squared distance visiting points in a caller-chosen
/// order (the UCR Suite "reordering" optimization: visiting the largest
/// |query| points first abandons sooner on z-normalized data).
///
/// Semantics match [`euclidean_sq_bounded`].
///
/// # Panics
/// Panics if lengths differ or `order` is not a permutation-sized slice.
#[must_use]
pub fn euclidean_sq_ordered(a: &[f32], b: &[f32], order: &[u32], limit: f32) -> Option<f32> {
    assert_eq!(a.len(), b.len(), "euclidean_sq_ordered length mismatch");
    assert_eq!(a.len(), order.len(), "order must cover every point");
    scalar::euclidean_sq_ordered(a, b, order, limit)
}

/// Builds the UCR-style visit order for a query: point indices sorted by
/// decreasing `|q_i|`.
#[must_use]
pub fn abandon_order(query: &[f32]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..query.len() as u32).collect();
    order.sort_by(|&i, &j| {
        query[j as usize]
            .abs()
            .partial_cmp(&query[i as usize].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    fn series(seed: u64, n: usize) -> Vec<f32> {
        // Simple deterministic pseudo-random data; no rand dependency needed.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / 16_777_216.0) * 4.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn euclidean_sq_matches_naive_across_lengths() {
        for n in [
            1usize, 2, 7, 8, 9, 15, 16, 31, 32, 33, 63, 64, 128, 256, 1000,
        ] {
            let a = series(n as u64, n);
            let b = series(n as u64 + 1, n);
            let got = euclidean_sq(&a, &b);
            let want = naive(&a, &b);
            assert!(
                (got - want).abs() <= want.abs() * 1e-4 + 1e-5,
                "n={n}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn euclidean_is_sqrt() {
        let a = [0.0f32, 3.0];
        let b = [4.0f32, 0.0];
        assert!((euclidean(&a, &b) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn identical_series_have_zero_distance() {
        let a = series(3, 256);
        assert_eq!(euclidean_sq(&a, &a), 0.0);
        assert_eq!(euclidean_sq_bounded(&a, &a, 1.0), Some(0.0));
    }

    #[test]
    fn bounded_agrees_with_full_distance() {
        for n in [8usize, 64, 256, 257] {
            let a = series(7, n);
            let b = series(8, n);
            let full = euclidean_sq(&a, &b);
            // Limit above the distance: must return the exact value.
            let got = euclidean_sq_bounded(&a, &b, full * 1.5 + 1.0).expect("below limit");
            assert!((got - full).abs() <= full * 1e-4 + 1e-5);
            // Limit below the distance: must abandon.
            assert_eq!(euclidean_sq_bounded(&a, &b, full * 0.5), None);
            // Limit exactly at the distance: strict comparison -> None.
            assert_eq!(euclidean_sq_bounded(&a, &b, 0.0), None);
        }
    }

    #[test]
    fn set_simd_enabled_cannot_override_kill_switch() {
        let initial = simd_enabled();
        // The override is capped by hardware support AND the DSIDX_NO_SIMD
        // kill-switch — under the CI scalar-pin run this asserts that a
        // library consumer requesting SIMD is refused.
        let granted = set_simd_enabled(true);
        assert_eq!(
            granted,
            hardware_simd_available() && !simd_kill_switch_active()
        );
        assert_eq!(simd_enabled(), granted);
        set_simd_enabled(initial);
    }

    #[test]
    fn ordered_abandon_agrees_with_bounded() {
        let n = 128;
        let q = series(100, n);
        let c = series(101, n);
        let order = abandon_order(&q);
        let full = euclidean_sq(&q, &c);
        let got = euclidean_sq_ordered(&q, &c, &order, full + 1.0).expect("below limit");
        assert!((got - full).abs() <= full * 1e-4 + 1e-5);
        assert_eq!(euclidean_sq_ordered(&q, &c, &order, full * 0.9), None);
    }

    #[test]
    fn abandon_order_sorts_by_magnitude() {
        let q = [0.1f32, -5.0, 2.0, -0.5];
        assert_eq!(abandon_order(&q), vec![1, 2, 3, 0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let _ = euclidean_sq(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn zero_length_is_zero() {
        assert_eq!(euclidean_sq(&[], &[]), 0.0);
        assert_eq!(euclidean_sq_bounded(&[], &[], 1.0), Some(0.0));
    }
}
