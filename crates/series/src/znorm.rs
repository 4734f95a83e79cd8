//! Z-normalization: rescaling a series to mean 0 and standard deviation 1.
//!
//! Similarity search on data series conventionally compares z-normalized
//! series (UCR Suite, iSAX line of work). The iSAX breakpoints are N(0, 1)
//! quantiles precisely because indexed series are z-normalized.

/// Standard deviations below this are treated as zero (constant series).
///
/// Matches the UCR Suite guard: a (near-)constant series z-normalizes to all
/// zeros instead of exploding.
pub const STD_EPSILON: f64 = 1e-8;

/// Returns `(mean, std)` of a series, accumulated in `f64` for stability.
///
/// The standard deviation is the population one (divide by `n`), matching
/// the UCR Suite and the iSAX implementations. Returns `(0.0, 0.0)` for an
/// empty slice.
#[must_use]
pub fn mean_std(series: &[f32]) -> (f64, f64) {
    if series.is_empty() {
        return (0.0, 0.0);
    }
    let n = series.len() as f64;
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    for &v in series {
        let v = f64::from(v);
        sum += v;
        sum_sq += v * v;
    }
    let mean = sum / n;
    let var = (sum_sq / n - mean * mean).max(0.0);
    (mean, var.sqrt())
}

/// Z-normalizes a series in place.
///
/// Constant series (std below [`STD_EPSILON`]) become all zeros.
pub fn znormalize(series: &mut [f32]) {
    let (mean, std) = mean_std(series);
    if std < STD_EPSILON {
        series.fill(0.0);
        return;
    }
    // Subtract in f64: at large offsets (say 1e6) an f32 mean carries ~0.03
    // of rounding error, which would leak into every normalized point.
    let inv = 1.0 / std;
    for v in series.iter_mut() {
        *v = ((f64::from(*v) - mean) * inv) as f32;
    }
}

/// Checks whether a series is already z-normalized within `tolerance`.
///
/// The all-zero series (our normalization of constants) is accepted.
#[must_use]
pub fn is_znormalized(series: &[f32], tolerance: f64) -> bool {
    if series.is_empty() {
        return true;
    }
    let (mean, std) = mean_std(series);
    if mean.abs() > tolerance {
        return false;
    }
    std < STD_EPSILON || (std - 1.0).abs() <= tolerance
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basic() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-9);
        assert!((s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mean_std_empty() {
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn znormalize_constant_becomes_zeros() {
        let mut s = [3.25; 16];
        znormalize(&mut s);
        assert!(s.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn znormalize_single_point_becomes_zero() {
        let mut s = [42.0];
        znormalize(&mut s);
        assert_eq!(s, [0.0]);
    }

    #[test]
    fn is_znormalized_detects() {
        let mut s = vec![1.0f32, 9.0, -4.0, 3.0, 2.0, -1.0];
        assert!(!is_znormalized(&s, 1e-4));
        znormalize(&mut s);
        assert!(is_znormalized(&s, 1e-4));
        assert!(is_znormalized(&[0.0; 8], 1e-4));
        assert!(is_znormalized(&[], 1e-4));
    }

    #[test]
    fn znormalize_is_idempotent_within_tolerance() {
        let mut s: Vec<f32> = (0..64)
            .map(|i| (i as f32 * 0.37).sin() * 3.0 + 1.0)
            .collect();
        znormalize(&mut s);
        let once = s.clone();
        znormalize(&mut s);
        for (a, b) in once.iter().zip(&s) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn znormalize_large_offset_is_stable() {
        // f32 catastrophic cancellation guard: accumulate in f64.
        let mut s: Vec<f32> = (0..128).map(|i| 1.0e6 + (i % 7) as f32).collect();
        znormalize(&mut s);
        assert!(is_znormalized(&s, 1e-2));
    }
}
