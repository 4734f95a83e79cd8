//! Raw-series access for query-time verification, uniform over in-memory
//! datasets and on-disk files.
//!
//! A resident source can also be asked for a series ahead of its fetch
//! ([`SeriesFetcher::prefetch`]): a leaf visit requests each survivor's
//! whole series as soon as its bound passes, so the survivors' scattered
//! reads are in flight together by the time the first distance is paid.

use dsidx_series::prefetch::prefetch_lines;
use dsidx_series::Dataset;
use dsidx_storage::{RawSource, StorageError};

/// Fetches raw series from a [`RawSource`], taking the zero-copy path when
/// the source is an in-memory dataset and reading through a reusable
/// scratch buffer (charged to the device model) otherwise.
#[derive(Debug)]
pub struct SeriesFetcher<'a, S: RawSource> {
    source: &'a S,
    memory: Option<&'a Dataset>,
    /// The source's [`RawSource::span_gap`]; 0 for a resident source.
    span_gap: usize,
    /// One series, or the last span read.
    scratch: Vec<f32>,
}

impl<'a, S: RawSource> SeriesFetcher<'a, S> {
    /// Wraps a source; the scratch buffer is sized by the first read, so
    /// the zero-copy in-memory path allocates nothing.
    #[must_use]
    pub fn new(source: &'a S) -> Self {
        let memory = source.as_memory();
        let span_gap = if memory.is_some() {
            0
        } else {
            source.span_gap()
        };
        Self {
            source,
            memory,
            span_gap,
            scratch: Vec::new(),
        }
    }

    /// Length of each series.
    #[must_use]
    pub fn series_len(&self) -> usize {
        self.source.series_len()
    }

    /// The series a [`fetch_span`](Self::fetch_span) may run through
    /// instead of seeking past them: the source's
    /// [`RawSource::span_gap`], and 0 for a resident source, where a
    /// span saves nothing.
    #[must_use]
    pub fn span_gap(&self) -> usize {
        self.span_gap
    }

    /// Hints that series `pos` is about to be [`fetch`](Self::fetch)ed, so
    /// a resident source can start pulling all of it toward the cache while
    /// the caller still works on something else. The whole series, not its
    /// head: a DTW candidate's LB_Keogh pass reads every point, and the
    /// requests of one leaf's survivors overlap only if each is made before
    /// the first distance. No-op (and no device charge) for non-resident
    /// sources.
    #[inline]
    pub fn prefetch(&self, pos: usize) {
        if let Some(ds) = self.memory {
            prefetch_lines(ds.get(pos), usize::MAX);
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
        // Sized for one series: the first read, or one after a span.
        self.scratch.resize(self.source.series_len(), 0.0);
        self.source.read_into(pos, &mut self.scratch)?;
        Ok(&self.scratch)
    }

    /// Returns the raw values of the `count` series starting at `start`,
    /// back to back — one [`RawSource::read_span`] for a non-resident
    /// source.
    ///
    /// # Errors
    /// Propagates I/O failures and out-of-bounds spans (the in-memory
    /// path is infallible for in-bounds spans).
    pub fn fetch_span(&mut self, start: usize, count: usize) -> Result<&[f32], StorageError> {
        if let Some(ds) = self.memory {
            let len = ds.series_len();
            return Ok(&ds.as_flat()[start * len..(start + count) * len]);
        }
        self.source.read_span(start, count, &mut self.scratch)?;
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
        assert_eq!(fetcher.span_gap(), 0);
        assert_eq!(fetcher.fetch_span(1, 2).unwrap(), &ds.as_flat()[16..48]);
    }

    #[test]
    fn a_fetch_after_a_span_reads_one_series() {
        // A non-resident source whose span read grew the scratch buffer:
        // the next single fetch must read into one series' worth again.
        let ds = sines(6, 16, 4);
        let flaky = dsidx_storage::FlakySource::new(ds.clone(), u64::MAX);
        let mut fetcher = SeriesFetcher::new(&flaky);
        assert_eq!(fetcher.fetch_span(1, 4).unwrap(), &ds.as_flat()[16..80]);
        assert_eq!(fetcher.fetch(5).unwrap(), ds.get(5));
        assert_eq!(fetcher.fetch_span(0, 1).unwrap(), ds.get(0));
    }
}
