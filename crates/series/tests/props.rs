//! Property-based tests for the series substrate.

use dsidx_series::distance::{
    abandon_order, dtw, euclidean, euclidean_sq, euclidean_sq_bounded, euclidean_sq_ordered,
    scalar, set_simd_enabled,
};
use dsidx_series::znorm::{is_znormalized, znormalize, STD_EPSILON};
use proptest::prelude::*;

fn finite_series(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 1..max_len)
}

fn series_pair(max_len: usize) -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (1..max_len).prop_flat_map(|n| {
        (
            prop::collection::vec(-100.0f32..100.0, n),
            prop::collection::vec(-100.0f32..100.0, n),
        )
    })
}

/// Lengths covering every remainder class the SIMD kernels branch on
/// (`n mod 32`: the 32-wide abandon blocks, 16- and 8-wide main loops, and
/// the scalar tail all change shape with the remainder).
fn remainder_class_pair() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (0usize..6, 0usize..32).prop_flat_map(|(blocks, rem)| {
        let n = (blocks * 32 + rem).max(1);
        (
            prop::collection::vec(-100.0f32..100.0, n),
            prop::collection::vec(-100.0f32..100.0, n),
        )
    })
}

proptest! {
    #[test]
    fn znormalize_always_yields_znormalized_or_zero(mut s in finite_series(300)) {
        znormalize(&mut s);
        prop_assert!(s.iter().all(|v| v.is_finite()));
        // Either properly normalized or the constant-series zero vector.
        let (mean, std) = dsidx_series::znorm::mean_std(&s);
        if std < STD_EPSILON {
            prop_assert!(s.iter().all(|&v| v == 0.0));
        } else {
            prop_assert!(is_znormalized(&s, 1e-3), "mean={mean} std={std}");
        }
    }

    #[test]
    fn euclidean_is_symmetric_and_nonnegative((a, b) in series_pair(256)) {
        let ab = euclidean_sq(&a, &b);
        let ba = euclidean_sq(&b, &a);
        prop_assert!(ab >= 0.0);
        prop_assert!((ab - ba).abs() <= ab.abs() * 1e-5 + 1e-5);
    }

    #[test]
    fn euclidean_self_distance_is_zero(a in finite_series(256)) {
        prop_assert_eq!(euclidean_sq(&a, &a), 0.0);
    }

    #[test]
    fn triangle_inequality_on_unsquared_distance(
        (a, b) in series_pair(64),
        c_seed in 0u64..1000,
    ) {
        // Third series derived deterministically with the same length.
        let c: Vec<f32> = a
            .iter()
            .enumerate()
            .map(|(i, &v)| v * 0.5 + ((i as u64 + c_seed) % 17) as f32 - 8.0)
            .collect();
        let ab = euclidean(&a, &b);
        let ac = euclidean(&a, &c);
        let cb = euclidean(&c, &b);
        prop_assert!(ab <= ac + cb + 1e-3, "ab={ab} ac={ac} cb={cb}");
    }

    #[test]
    fn bounded_distance_decision_matches_full(
        (a, b) in series_pair(256),
        frac in 0.0f32..2.0,
    ) {
        let full = euclidean_sq(&a, &b);
        let limit = full * frac + 0.001;
        let got = euclidean_sq_bounded(&a, &b, limit);
        // Strictly-below semantics, with float tolerance at the boundary.
        let near_boundary = (full - limit).abs() <= full * 1e-4 + 1e-4;
        match got {
            Some(d) => prop_assert!(
                near_boundary || ((d - full).abs() <= full * 1e-4 + 1e-5 && full < limit)
            ),
            None => prop_assert!(near_boundary || full >= limit),
        }
    }

    #[test]
    fn ordered_distance_agrees_with_plain((a, b) in series_pair(200)) {
        let order = abandon_order(&a);
        let full = euclidean_sq(&a, &b);
        let got = euclidean_sq_ordered(&a, &b, &order, full + 1.0);
        prop_assert!(got.is_some());
        let d = got.unwrap();
        prop_assert!((d - full).abs() <= full * 1e-4 + 1e-4);
    }

    #[test]
    fn dtw_never_exceeds_euclidean((a, b) in series_pair(128), band in 0usize..32) {
        let ed = euclidean_sq(&a, &b);
        let d = dtw::dtw_sq(&a, &b, band);
        prop_assert!(d <= ed + ed.abs() * 1e-4 + 1e-4, "dtw={d} ed={ed}");
    }

    #[test]
    fn lb_keogh_lower_bounds_dtw((q, c) in series_pair(96), band in 0usize..16) {
        let mut lo = Vec::new();
        let mut up = Vec::new();
        dtw::envelope(&q, band, &mut lo, &mut up);
        let lb = dtw::lb_keogh_sq(&c, &lo, &up);
        let d = dtw::dtw_sq(&q, &c, band);
        prop_assert!(lb <= d + d.abs() * 1e-4 + 1e-3, "lb={lb} dtw={d}");
    }

    #[test]
    fn envelope_contains_series(s in finite_series(200), band in 0usize..24) {
        let mut lo = Vec::new();
        let mut up = Vec::new();
        dtw::envelope(&s, band, &mut lo, &mut up);
        for i in 0..s.len() {
            prop_assert!(lo[i] <= s[i] && s[i] <= up[i]);
        }
    }

    #[test]
    fn envelope_equals_naive_window_extrema(
        (s, r) in (1usize..=300).prop_flat_map(|n| {
            (prop::collection::vec(-100.0f32..100.0, n), 0..=n + 5)
        }),
    ) {
        let mut lo = Vec::new();
        let mut up = Vec::new();
        dtw::envelope(&s, r, &mut lo, &mut up);
        prop_assert_eq!(lo.len(), s.len());
        prop_assert_eq!(up.len(), s.len());
        for i in 0..s.len() {
            let window = &s[i.saturating_sub(r)..=(i + r).min(s.len() - 1)];
            let min = window.iter().copied().fold(f32::INFINITY, f32::min);
            let max = window.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            prop_assert_eq!(lo[i].to_bits(), min.to_bits(), "lower[{}] r={}", i, r);
            prop_assert_eq!(up[i].to_bits(), max.to_bits(), "upper[{}] r={}", i, r);
        }
    }

    #[test]
    fn both_lb_keoghs_lower_bound_dtw((q, c) in series_pair(96), band in 0usize..16) {
        let (mut lo, mut up) = (Vec::new(), Vec::new());
        dtw::envelope(&q, band, &mut lo, &mut up);
        let forward = dtw::lb_keogh_sq(&c, &lo, &up);
        dtw::envelope(&c, band, &mut lo, &mut up);
        let reversed = dtw::lb_keogh_sq(&q, &lo, &up);
        let d = dtw::dtw_sq(&q, &c, band);
        prop_assert!(reversed <= d + d.abs() * 1e-4 + 1e-3, "reversed={reversed} dtw={d}");
        let both = forward.max(reversed);
        prop_assert!(both <= d + d.abs() * 1e-4 + 1e-3, "max={both} dtw={d}");
    }

    #[test]
    fn cascade_is_plain_dtw_in_value_and_decision(
        (q, c) in remainder_class_pair(),
        band in 0usize..40,
        frac in 0.0f32..2.0,
    ) {
        // Whatever stage stops a candidate, the outcome is the plain
        // kernel's: the same bits when it completes, `None` exactly when
        // that returns `None` — one ulp above the true cost included,
        // which is where pruners put their threshold on a tie.
        let (mut lo, mut up) = (Vec::new(), Vec::new());
        dtw::envelope(&q, band, &mut lo, &mut up);
        let full = dtw::dtw_sq(&q, &c, band);
        let mut scratch = dtw::DtwScratch::new();
        let cells_of_a_full_dtw = {
            let v = dtw::dtw_cascade(&q, &lo, &up, &c, band, f32::INFINITY, &mut scratch);
            prop_assert_eq!(v, dtw::DtwVerdict::Full(full));
            scratch.cells()
        };
        for limit in [full * frac + 0.001, full, f32::from_bits(full.to_bits() + 1)] {
            let plain = dtw::dtw_sq_bounded(&q, &c, band, limit);
            let verdict = dtw::dtw_cascade(&q, &lo, &up, &c, band, limit, &mut scratch);
            let got = match verdict {
                dtw::DtwVerdict::Full(d) => Some(d),
                _ => None,
            };
            prop_assert_eq!(
                got.map(f32::to_bits),
                plain.map(f32::to_bits),
                "limit={} verdict={:?} plain={:?}",
                limit,
                verdict,
                plain
            );
            prop_assert!(scratch.cells() <= cells_of_a_full_dtw);
            let started = matches!(verdict, dtw::DtwVerdict::Full(_) | dtw::DtwVerdict::Abandoned);
            prop_assert_eq!(scratch.cells() > 0, started);
        }
    }

    #[test]
    fn abandon_order_is_a_permutation(q in finite_series(200)) {
        let order = abandon_order(&q);
        let mut seen = vec![false; q.len()];
        for &i in &order {
            prop_assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    // ---- SIMD kernels vs scalar oracles -------------------------------
    //
    // On non-AVX2 hosts the dispatchers resolve to the scalar kernels and
    // these properties collapse to `x == x`; on AVX2 hosts they pin the
    // vector kernels to the scalar oracles across every `n mod 32`
    // remainder class.

    #[test]
    fn simd_euclidean_matches_scalar_oracle((a, b) in remainder_class_pair()) {
        let simd = euclidean_sq(&a, &b);
        let oracle = scalar::euclidean_sq(&a, &b);
        prop_assert!(
            (simd - oracle).abs() <= oracle.abs() * 1e-4 + 1e-5,
            "simd={simd} scalar={oracle}"
        );
    }

    #[test]
    fn simd_lb_keogh_matches_scalar_oracle(
        (q, c) in remainder_class_pair(),
        band in 0usize..16,
    ) {
        let mut lo = Vec::new();
        let mut up = Vec::new();
        dtw::envelope(&q, band, &mut lo, &mut up);
        let simd = dtw::lb_keogh_sq(&c, &lo, &up);
        let oracle = dtw::lb_keogh_sq_scalar(&c, &lo, &up);
        prop_assert!(
            (simd - oracle).abs() <= oracle.abs() * 1e-4 + 1e-5,
            "simd={simd} scalar={oracle}"
        );
    }

    #[test]
    fn simd_lb_keogh_bounded_decision_matches_scalar(
        (q, c) in remainder_class_pair(),
        band in 0usize..16,
        frac in 0.0f32..2.0,
    ) {
        let mut lo = Vec::new();
        let mut up = Vec::new();
        dtw::envelope(&q, band, &mut lo, &mut up);
        let full = dtw::lb_keogh_sq_scalar(&c, &lo, &up);
        let limit = full * frac + 0.001;
        let simd = dtw::lb_keogh_sq_bounded(&c, &lo, &up, limit);
        let oracle = dtw::lb_keogh_sq_bounded_scalar(&c, &lo, &up, limit);
        // Away from the limit boundary the Some/None decision must agree;
        // right at it, lane-grouped accumulation may legitimately differ.
        let near_boundary = (full - limit).abs() <= full.abs() * 1e-4 + 1e-4;
        if !near_boundary {
            prop_assert_eq!(simd.is_some(), oracle.is_some());
        }
        if let (Some(s), Some(o)) = (simd, oracle) {
            prop_assert!((s - o).abs() <= o.abs() * 1e-4 + 1e-5, "simd={s} scalar={o}");
        }
    }

    #[test]
    fn simd_dtw_is_bit_identical_to_scalar(
        (a, b) in remainder_class_pair(),
        band in 0usize..24,
        frac in 0.0f32..2.0,
    ) {
        // Every cell takes the same three predecessors and the same cost in
        // either kernel, and the rows are tested in the same order, so they
        // must agree to the bit — including the Some/None early-abandon
        // decision at every limit.
        let full = dtw::dtw_sq(&a, &b, band);
        let (mut lo, mut up) = (Vec::new(), Vec::new());
        dtw::envelope(&a, band, &mut lo, &mut up);
        let mut scratch = dtw::DtwScratch::new();
        for limit in [full * frac + 0.001, f32::INFINITY] {
            let simd = dtw::dtw_sq_bounded(&a, &b, band, limit);
            let oracle = dtw::dtw_sq_bounded_scalar(&a, &b, band, limit);
            prop_assert_eq!(
                simd.map(f32::to_bits),
                oracle.map(f32::to_bits),
                "limit={} simd={:?} scalar={:?}",
                limit,
                simd,
                oracle
            );
            // The cascade stops its DTW at the same row in both modes. The
            // gate is process-wide, but every other test here checks a
            // dispatching kernel against its scalar oracle, so a moment on
            // the scalar path cannot fail one.
            let mut cascade = |mode| {
                set_simd_enabled(mode);
                let verdict = dtw::dtw_cascade(&a, &lo, &up, &b, band, limit, &mut scratch);
                let bits = match verdict {
                    dtw::DtwVerdict::Full(d) => Some(d.to_bits()),
                    _ => None,
                };
                (std::mem::discriminant(&verdict), bits, scratch.cells())
            };
            let scalar_cascade = cascade(false);
            let simd_cascade = cascade(true);
            prop_assert_eq!(simd_cascade, scalar_cascade, "limit={}", limit);
        }
    }
}
