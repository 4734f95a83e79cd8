//! Raw-series access for query-time verification, uniform over in-memory
//! datasets and on-disk files.

use dsidx_series::prefetch::prefetch_lines;
use dsidx_series::Dataset;
use dsidx_storage::{RawSource, StorageError};

/// Cache lines of a series requested ahead of its distance computation:
/// enough to cover where an early-abandoned distance usually stops; the
/// hardware prefetcher follows the sequential read from there.
const PREFETCH_LINES: usize = 4;

/// Fetches raw series from a [`RawSource`], taking the zero-copy path when
/// the source is an in-memory dataset and reading through a reusable
/// scratch buffer (charged to the device model) otherwise.
#[derive(Debug)]
pub struct SeriesFetcher<'a, S: RawSource> {
    source: &'a S,
    memory: Option<&'a Dataset>,
    scratch: Vec<f32>,
}

impl<'a, S: RawSource> SeriesFetcher<'a, S> {
    /// Wraps a source; the on-disk path gets one scratch buffer, the
    /// zero-copy in-memory path allocates nothing.
    #[must_use]
    pub fn new(source: &'a S) -> Self {
        let memory = source.as_memory();
        let scratch = if memory.is_some() {
            Vec::new()
        } else {
            vec![0.0f32; source.series_len()]
        };
        Self {
            source,
            memory,
            scratch,
        }
    }

    /// Hints that series `pos` is about to be [`fetch`](Self::fetch)ed, so
    /// a resident source can start pulling it toward the cache while the
    /// caller still works on something else. No-op (and no device charge)
    /// for non-resident sources.
    #[inline]
    pub fn prefetch(&self, pos: usize) {
        if let Some(ds) = self.memory {
            prefetch_lines(ds.get(pos), PREFETCH_LINES);
        }
    }

    /// Returns the raw values of series `pos`.
    ///
    /// # Errors
    /// Propagates I/O failures (the in-memory path is infallible for
    /// in-bounds positions).
    #[inline]
    pub fn fetch(&mut self, pos: usize) -> Result<&[f32], StorageError> {
        if let Some(ds) = self.memory {
            return Ok(ds.get(pos));
        }
        self.source.read_into(pos, &mut self.scratch)?;
        Ok(&self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_series::gen::sines;

    #[test]
    fn memory_fetch_is_zero_copy() {
        let ds = sines(4, 16, 1);
        let mut fetcher = SeriesFetcher::new(&ds);
        assert_eq!(fetcher.fetch(2).unwrap(), ds.get(2));
        assert!(std::ptr::eq(
            fetcher.fetch(3).unwrap().as_ptr(),
            ds.get(3).as_ptr()
        ));
    }
}
