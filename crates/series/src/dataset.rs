//! Flat, cache-friendly collections of equal-length series.

use crate::error::SeriesError;

/// A collection of equal-length data series stored in one flat buffer.
///
/// Series `i` occupies `data[i * series_len .. (i + 1) * series_len]`. This
/// layout is what the paper's "RawData array" is: sequential summarization
/// walks it linearly, and query-time real-distance computations fetch series
/// by position with no pointer chasing.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    data: Vec<f32>,
    series_len: usize,
}

impl Dataset {
    /// Creates an empty dataset of series of length `series_len`.
    ///
    /// # Errors
    /// Returns [`SeriesError::EmptySeries`] if `series_len == 0`.
    pub fn new(series_len: usize) -> Result<Self, SeriesError> {
        if series_len == 0 {
            return Err(SeriesError::EmptySeries);
        }
        Ok(Self {
            data: Vec::new(),
            series_len,
        })
    }

    /// Creates an empty dataset with room for `count` series.
    ///
    /// # Errors
    /// Returns [`SeriesError::EmptySeries`] if `series_len == 0`.
    pub fn with_capacity(series_len: usize, count: usize) -> Result<Self, SeriesError> {
        let mut ds = Self::new(series_len)?;
        ds.data.reserve_exact(count * series_len);
        Ok(ds)
    }

    /// Wraps an existing flat buffer.
    ///
    /// # Errors
    /// Returns [`SeriesError::EmptySeries`] if `series_len == 0`, or
    /// [`SeriesError::RaggedBuffer`] if `data.len()` is not a multiple of
    /// `series_len`.
    pub fn from_flat(data: Vec<f32>, series_len: usize) -> Result<Self, SeriesError> {
        if series_len == 0 {
            return Err(SeriesError::EmptySeries);
        }
        if data.len() % series_len != 0 {
            return Err(SeriesError::RaggedBuffer {
                buffer_len: data.len(),
                series_len,
            });
        }
        Ok(Self { data, series_len })
    }

    /// Appends one series.
    ///
    /// # Errors
    /// Returns [`SeriesError::LengthMismatch`] if `series.len()` differs from
    /// the dataset's series length.
    pub fn push(&mut self, series: &[f32]) -> Result<(), SeriesError> {
        if series.len() != self.series_len {
            return Err(SeriesError::LengthMismatch {
                expected: self.series_len,
                actual: series.len(),
            });
        }
        self.data.extend_from_slice(series);
        Ok(())
    }

    /// Number of series in the dataset.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len() / self.series_len
    }

    /// `true` when the dataset holds no series.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Length of every series in the dataset.
    #[must_use]
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Returns series `i`, panicking on out-of-bounds (hot-path accessor).
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> &[f32] {
        &self.data[i * self.series_len..(i + 1) * self.series_len]
    }

    /// Returns series `i`, or an error when out of bounds.
    ///
    /// # Errors
    /// Returns [`SeriesError::OutOfBounds`] if `i >= self.len()`.
    pub fn try_get(&self, i: usize) -> Result<&[f32], SeriesError> {
        if i >= self.len() {
            return Err(SeriesError::OutOfBounds {
                index: i,
                len: self.len(),
            });
        }
        Ok(self.get(i))
    }

    /// Iterates over all series in position order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f32]> + '_ {
        self.data.chunks_exact(self.series_len)
    }

    /// The underlying flat buffer.
    #[must_use]
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Z-normalizes every series in place.
    pub fn znormalize_all(&mut self) {
        for s in self.data.chunks_exact_mut(self.series_len) {
            crate::znorm::znormalize(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut ds = Dataset::new(3).unwrap();
        ds.push(&[1.0, 2.0, 3.0]).unwrap();
        ds.push(&[4.0, 5.0, 6.0]).unwrap();
        ds
    }

    #[test]
    fn new_rejects_zero_length() {
        assert!(Dataset::new(0).is_err());
        assert!(Dataset::from_flat(vec![], 0).is_err());
    }

    #[test]
    fn push_and_get() {
        let ds = sample();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.get(0), &[1.0, 2.0, 3.0]);
        assert_eq!(ds.get(1), &[4.0, 5.0, 6.0]);
        assert_eq!(ds.series_len(), 3);
        assert!(!ds.is_empty());
    }

    #[test]
    fn push_rejects_wrong_length() {
        let mut ds = sample();
        let err = ds.push(&[1.0]).unwrap_err();
        assert_eq!(
            err,
            SeriesError::LengthMismatch {
                expected: 3,
                actual: 1
            }
        );
    }

    #[test]
    fn try_get_bounds() {
        let ds = sample();
        assert!(ds.try_get(1).is_ok());
        assert_eq!(
            ds.try_get(2),
            Err(SeriesError::OutOfBounds { index: 2, len: 2 })
        );
    }

    #[test]
    fn from_flat_checks_divisibility() {
        assert!(Dataset::from_flat(vec![0.0; 6], 3).is_ok());
        let err = Dataset::from_flat(vec![0.0; 7], 3).unwrap_err();
        assert_eq!(
            err,
            SeriesError::RaggedBuffer {
                buffer_len: 7,
                series_len: 3
            }
        );
    }

    #[test]
    fn iter_yields_all_series() {
        let ds = sample();
        let collected: Vec<&[f32]> = ds.iter().collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[1], &[4.0, 5.0, 6.0]);
        assert_eq!(ds.iter().len(), 2);
    }

    #[test]
    fn znormalize_all_normalizes_each_series() {
        let mut ds = sample();
        ds.znormalize_all();
        for s in ds.iter() {
            let mean: f32 = s.iter().sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-6);
        }
    }

    #[test]
    fn empty_dataset_iterates_nothing() {
        let ds = Dataset::new(4).unwrap();
        assert_eq!(ds.len(), 0);
        assert!(ds.is_empty());
        assert_eq!(ds.iter().count(), 0);
    }

    #[test]
    fn with_capacity_preallocates() {
        let ds = Dataset::with_capacity(8, 100).unwrap();
        assert_eq!(ds.len(), 0);
        assert!(ds.data.capacity() >= 800);
    }
}
