//! The [`RawSource`] abstraction: where engines fetch raw series from at
//! query time.
//!
//! ParIS/ParIS+ read non-pruned candidates from disk ("for which the raw
//! values need to be read from disk", §III); MESSI points into an in-memory
//! array. Engines are generic over this trait so the same query code runs
//! in both modes; `as_memory` exposes the zero-copy fast path.
//!
//! [`FlakySource`] is the fault-injecting stand-in the error-path tests
//! read through: its read budget and its trip latch are one value under
//! one lock.

use crate::error::StorageError;
use dsidx_series::Dataset;
use parking_lot::Mutex;

/// A positionally addressable collection of equal-length raw series.
pub trait RawSource: Sync {
    /// Number of series.
    fn count(&self) -> usize;

    /// Length of each series.
    fn series_len(&self) -> usize;

    /// Copies series `pos` into `out` (`out.len() == series_len`).
    ///
    /// # Errors
    /// Out-of-bounds positions and I/O failures.
    fn read_into(&self, pos: usize, out: &mut [f32]) -> Result<(), StorageError>;

    /// Zero-copy access when the source is an in-memory dataset.
    fn as_memory(&self) -> Option<&Dataset> {
        None
    }

    /// The series a read may run through instead of seeking past them:
    /// two wanted positions with at most this many series between them
    /// are cheaper to fetch as one [`read_span`](Self::read_span) than
    /// as two reads. 0 (the default) means every read stands alone; a
    /// resident or unthrottled source has nothing to save.
    fn span_gap(&self) -> usize {
        0
    }

    /// Copies the `count` series starting at `start`, back to back, into
    /// `out` (resized to `count × series_len`).
    ///
    /// The default reads them one by one through
    /// [`read_into`](Self::read_into), so a source that counts or hooks
    /// its reads sees every series; a file source overrides it with one
    /// device read.
    ///
    /// # Errors
    /// [`StorageError::OutOfBounds`] when the span runs past the end (or
    /// its end overflows), before anything is read; I/O failures,
    /// possibly after part of `out` was filled.
    fn read_span(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), StorageError> {
        check_span(start, count, self.count())?;
        let len = self.series_len();
        out.resize(count * len, 0.0);
        for (pos, series) in (start..).zip(out.chunks_exact_mut(len)) {
            self.read_into(pos, series)?;
        }
        Ok(())
    }
}

/// `Ok` when the span `start..start + count` lies inside a collection of
/// `len` series.
///
/// # Errors
/// [`StorageError::OutOfBounds`] at the span's end (saturated) otherwise.
pub(crate) fn check_span(start: usize, count: usize, len: usize) -> Result<(), StorageError> {
    if start.checked_add(count).is_none_or(|end| end > len) {
        return Err(StorageError::OutOfBounds {
            index: (start as u64).saturating_add(count as u64),
            len: len as u64,
        });
    }
    Ok(())
}

impl RawSource for Dataset {
    fn count(&self) -> usize {
        self.len()
    }

    fn series_len(&self) -> usize {
        self.series_len()
    }

    fn read_into(&self, pos: usize, out: &mut [f32]) -> Result<(), StorageError> {
        let s = self.try_get(pos)?;
        out.copy_from_slice(s);
        Ok(())
    }

    fn as_memory(&self) -> Option<&Dataset> {
        Some(self)
    }
}

impl<S: RawSource> RawSource for &S {
    fn count(&self) -> usize {
        (**self).count()
    }

    fn series_len(&self) -> usize {
        (**self).series_len()
    }

    fn read_into(&self, pos: usize, out: &mut [f32]) -> Result<(), StorageError> {
        (**self).read_into(pos, out)
    }

    fn as_memory(&self) -> Option<&Dataset> {
        (**self).as_memory()
    }

    fn span_gap(&self) -> usize {
        (**self).span_gap()
    }

    fn read_span(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), StorageError> {
        (**self).read_span(start, count, out)
    }
}

/// A fault-injecting [`RawSource`] for tests: serves reads from an
/// in-memory dataset until a budget of successful reads is exhausted, then
/// fails every subsequent read with [`StorageError::Io`] — the shape of a
/// device dying mid-query.
///
/// Deliberately *not* `as_memory`-optimized: engines must take their
/// fallible read path, so a recovering engine is proven to propagate the
/// error instead of panicking. Thread-safe; the budget is shared across
/// all readers (parallel schedules hit it from every worker).
#[derive(Debug)]
pub struct FlakySource {
    data: Dataset,
    budget: Mutex<Budget>,
}

/// A [`FlakySource`]'s reads left, and whether a read has failed yet.
#[derive(Debug)]
struct Budget {
    reads_left: u64,
    /// Set by the first failing read, which also bumps
    /// [`FLAKY_TRIPS_TOTAL`](crate::metrics::FLAKY_TRIPS_TOTAL) and emits a
    /// `flaky_trip` trace event.
    tripped: bool,
}

impl FlakySource {
    /// Wraps `data`, allowing exactly `reads_before_failure` successful
    /// reads (across all threads) before every read fails.
    #[must_use]
    pub fn new(data: Dataset, reads_before_failure: u64) -> Self {
        Self {
            data,
            budget: Mutex::new(Budget {
                reads_left: reads_before_failure,
                tripped: false,
            }),
        }
    }

    /// Records the first budget exhaustion in the obs registry and the
    /// trace stream.
    #[cold]
    fn note_trip(&self) {
        if dsidx_obs::enabled() {
            static TRIPS: std::sync::OnceLock<&'static dsidx_obs::registry::Counter> =
                std::sync::OnceLock::new();
            TRIPS
                .get_or_init(|| {
                    dsidx_obs::registry::counter(
                        crate::metrics::FLAKY_TRIPS_TOTAL,
                        "Fault-injection read budgets exhausted",
                    )
                })
                .inc();
        }
        if dsidx_obs::trace::enabled() {
            dsidx_obs::trace::emit(
                "flaky_trip",
                &[(
                    "series",
                    dsidx_obs::trace::Value::U64(self.data.len() as u64),
                )],
            );
        }
    }

    /// `true` once the read budget is exhausted (any further read fails).
    #[must_use]
    pub fn tripped(&self) -> bool {
        self.budget.lock().reads_left == 0
    }
}

impl RawSource for FlakySource {
    fn count(&self) -> usize {
        self.data.len()
    }

    fn series_len(&self) -> usize {
        self.data.series_len()
    }

    fn read_into(&self, pos: usize, out: &mut [f32]) -> Result<(), StorageError> {
        let mut budget = self.budget.lock();
        if budget.reads_left > 0 {
            budget.reads_left -= 1;
            drop(budget);
            return self.data.read_into(pos, out);
        }
        let first_trip = !std::mem::replace(&mut budget.tripped, true);
        // The metric and the trace event are emitted unlocked.
        drop(budget);
        if first_trip {
            self.note_trip();
        }
        Err(StorageError::Io(std::io::Error::other(
            "injected fault: read budget exhausted",
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_series::gen::sines;

    #[test]
    fn dataset_is_a_raw_source() {
        let ds = sines(4, 16, 1);
        let src: &dyn RawSource = &ds;
        assert_eq!(src.count(), 4);
        assert_eq!(src.series_len(), 16);
        let mut buf = vec![0.0; 16];
        src.read_into(2, &mut buf).unwrap();
        assert_eq!(&buf[..], ds.get(2));
        assert!(src.as_memory().is_some());
        assert!(src.read_into(4, &mut buf).is_err());
    }

    #[test]
    fn reference_forwarding_works() {
        let ds = sines(2, 8, 5);
        fn takes_source<S: RawSource>(s: S) -> usize {
            s.count()
        }
        assert_eq!(takes_source(&ds), 2);
    }

    #[test]
    fn flaky_source_fails_after_budget() {
        let ds = sines(4, 16, 3);
        let flaky = FlakySource::new(ds.clone(), 2);
        assert!(flaky.as_memory().is_none(), "must force the fallible path");
        let mut buf = vec![0.0f32; 16];
        flaky.read_into(0, &mut buf).unwrap();
        assert_eq!(&buf[..], ds.get(0));
        assert!(!flaky.tripped());
        flaky.read_into(3, &mut buf).unwrap();
        assert!(flaky.tripped());
        assert!(matches!(
            flaky.read_into(1, &mut buf),
            Err(StorageError::Io(_))
        ));
        // Once tripped, it stays tripped.
        assert!(flaky.read_into(0, &mut buf).is_err());
    }

    #[test]
    fn default_spans_read_series_by_series() {
        let ds = sines(6, 8, 2);
        let mut out = Vec::new();
        ds.read_span(1, 4, &mut out).unwrap();
        assert_eq!(out, ds.as_flat()[8..40]);
        assert_eq!(ds.span_gap(), 0);
        assert!(matches!(
            ds.read_span(4, 3, &mut out),
            Err(StorageError::OutOfBounds { index: 7, len: 6 })
        ));
        // Each series spends one read of a flaky budget: a span of three
        // with two reads left dies partway, with an I/O error.
        let flaky = FlakySource::new(ds.clone(), 2);
        let by_ref: &dyn RawSource = &&flaky;
        assert_eq!(by_ref.span_gap(), 0);
        assert!(matches!(
            by_ref.read_span(0, 3, &mut out),
            Err(StorageError::Io(_))
        ));
        assert!(flaky.tripped());
        assert_eq!(out[..16], ds.as_flat()[..16]);
    }

    #[test]
    fn flaky_source_budget_is_shared_across_threads() {
        let flaky = FlakySource::new(sines(8, 8, 7), 100);
        let ok = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let flaky = &flaky;
                let ok = &ok;
                s.spawn(move || {
                    let mut buf = vec![0.0f32; 8];
                    for pos in 0..50 {
                        if flaky.read_into(pos % 8, &mut buf).is_ok() {
                            ok.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(ok.load(std::sync::atomic::Ordering::Relaxed), 100);
        assert!(flaky.tripped());
    }
}
