//! Piecewise Aggregate Approximation.
//!
//! A series of length `n` is cut into `w` contiguous segments; segment `i`
//! covers positions `[i*n/w, (i+1)*n/w)` (integer division), so lengths
//! differ by at most one when `w` does not divide `n`. Each segment is
//! summarized by its mean — a series by the means of its points, a DTW
//! query by the means of its envelope's two halves
//! ([`envelope_paa_bounds`]).

/// Returns the start offsets of each segment plus the final end offset
/// (`w + 1` entries).
#[must_use]
pub fn segment_bounds(series_len: usize, segments: usize) -> Vec<usize> {
    assert!(
        segments > 0 && segments <= series_len,
        "invalid segmentation"
    );
    (0..=segments).map(|i| i * series_len / segments).collect()
}

/// Computes the PAA of `series` into `out` (`out.len()` segments).
///
/// # Panics
/// Panics if `out` is empty or longer than `series`.
pub fn paa_into(series: &[f32], out: &mut [f32]) {
    let w = out.len();
    assert!(w > 0 && w <= series.len(), "invalid segmentation");
    let n = series.len();
    let mut start = 0;
    for (i, o) in out.iter_mut().enumerate() {
        let end = (i + 1) * n / w;
        let seg = &series[start..end];
        let sum: f32 = seg.iter().sum();
        *o = sum / seg.len() as f32;
        start = end;
    }
}

/// Allocating convenience wrapper around [`paa_into`].
#[must_use]
pub fn paa(series: &[f32], segments: usize) -> Vec<f32> {
    let mut out = vec![0.0; segments];
    paa_into(series, &mut out);
    out
}

/// Per-segment PAA of a DTW envelope: the segment **means** of the lower
/// and of the upper envelope (Keogh's LB_PAA).
///
/// Means are enough for a sound lower bound, and tighter than the
/// segment minimum/maximum. For a candidate `c` with segment mean `c̄`,
/// the per-point excursion `d(c_j, [L_j, U_j]) = max(c_j - U_j, L_j - c_j,
/// 0)` is jointly convex in `(c_j, L_j, U_j)`, so by Jensen the excursion of
/// the means is at most the mean of the excursions, and by Cauchy-Schwarz
/// the squared mean is at most the mean of the squares:
/// `len * d(c̄, [L̄, Ū])^2 <= sum_seg d(c_j, [L_j, U_j])^2`. Summed over
/// segments the right-hand side is LB_Keogh, which lower-bounds banded DTW.
/// An iSAX region that contains `c̄` is at least as close to `[L̄, Ū]` as
/// `c̄` itself, so the interval MINDIST tables built from these bounds
/// (`MindistTable::new_interval`, `NodeMindistTable::fill_interval`) stay
/// below the DTW distance of every series the word or node can hold.
pub fn envelope_paa_bounds(
    lower_env: &[f32],
    upper_env: &[f32],
    lower_out: &mut [f32],
    upper_out: &mut [f32],
) {
    assert_eq!(lower_env.len(), upper_env.len(), "envelope length mismatch");
    assert_eq!(lower_out.len(), upper_out.len(), "output length mismatch");
    paa_into(lower_env, lower_out);
    paa_into(upper_env, upper_out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        let s = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0];
        assert_eq!(paa(&s, 4), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn single_segment_is_mean() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(paa(&s, 1), vec![2.5]);
    }

    #[test]
    fn segments_equal_length_is_identity() {
        let s = [3.0, -1.0, 2.0];
        assert_eq!(paa(&s, 3), s.to_vec());
    }

    #[test]
    fn uneven_division_covers_everything() {
        // n=10, w=3 -> bounds 0,3,6,10 -> segments of 3,3,4.
        let bounds = segment_bounds(10, 3);
        assert_eq!(bounds, vec![0, 3, 6, 10]);
        let s: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let p = paa(&s, 3);
        assert_eq!(p, vec![1.0, 4.0, 7.5]);
    }

    #[test]
    fn paa_preserves_global_mean_when_even() {
        let s: Vec<f32> = (0..64).map(|i| ((i * 37) % 13) as f32).collect();
        let p = paa(&s, 16);
        let series_mean: f32 = s.iter().sum::<f32>() / 64.0;
        let paa_mean: f32 = p.iter().sum::<f32>() / 16.0;
        assert!((series_mean - paa_mean).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "invalid segmentation")]
    fn more_segments_than_points_panics() {
        let _ = paa(&[1.0, 2.0], 3);
    }

    #[test]
    fn envelope_paa_bounds_bracket_paa() {
        let s: Vec<f32> = (0..32).map(|i| (i as f32 * 0.3).sin()).collect();
        // Degenerate envelope (radius 0) -> bounds bracket the PAA means.
        let mut lo = vec![0.0; 8];
        let mut hi = vec![0.0; 8];
        envelope_paa_bounds(&s, &s, &mut lo, &mut hi);
        let p = paa(&s, 8);
        for i in 0..8 {
            assert!(lo[i] <= p[i] && p[i] <= hi[i]);
        }
    }
}
