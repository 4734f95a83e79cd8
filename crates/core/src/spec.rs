//! The query plane's request half: [`QuerySpec`] and its axes.
//!
//! The engines differ in *how* they answer a query, never in *what* a
//! query is — so the facade describes every query with one value. A
//! [`QuerySpec`] names the four orthogonal axes of a similarity request:
//!
//! * **how many** — `k` ([`QuerySpec::nn`] / [`QuerySpec::knn`]);
//! * **under which measure** — Euclidean or banded DTW ([`Measure`]);
//! * **at which fidelity** — exact or approximate ([`Fidelity`]);
//! * **with how much reporting** — work counters on request
//!   ([`QuerySpec::with_stats`]).
//!
//! Batching is not a spec axis: [`Search::search`](crate::Search::search)
//! always takes a slice of queries, and a single query is a batch of one.
//! Adding a new axis value means adding an enum variant, not a new method
//! on every index type. [`Measure`] lives in `dsidx-query`, below the
//! engines, because their entry points take it as a value.

use crate::error::{Error, InvalidSpec};

pub use dsidx_query::Measure;

/// How faithful the answer must be.
///
/// Marked `#[non_exhaustive]`: future fidelities (e.g. a probabilistic
/// early-stopping mode) appear as new variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fidelity {
    /// The true k nearest neighbors, bit-reproducible across runs and
    /// thread counts.
    Exact,
    /// The engine's fast approximate answer: a best-leaf visit for the
    /// tree engines (ADS+, MESSI), sketch-nearest probing for ParIS.
    /// Reported distances are *real* distances to real series — never
    /// below the exact answer at the same rank — but the positions may
    /// differ, and fewer than `k` matches may come back.
    Approximate,
}

/// One query-plane request: what to ask of an index, independent of which
/// engine answers.
///
/// Build with [`QuerySpec::nn`] or [`QuerySpec::knn`], refine with the
/// builder methods, execute with [`Search::search`](crate::Search::search):
///
/// ```
/// use dsidx::prelude::*;
///
/// let data = DatasetKind::Synthetic.generate(500, 64, 42);
/// let queries = DatasetKind::Synthetic.queries(2, 64, 42);
/// let index = MemoryIndex::build(data, Engine::Messi, &Options::default()).unwrap();
///
/// // The 5 nearest under banded DTW, with work counters.
/// let spec = QuerySpec::knn(5).measure(Measure::Dtw { band: 3 }).with_stats();
/// let batch: Vec<&[f32]> = queries.iter().collect();
/// let answers = index.search(&batch, &spec).unwrap();
/// assert_eq!(answers.len(), 2);
/// assert_eq!(answers.matches()[0].len(), 5);
/// assert!(answers.stats().is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    k: usize,
    measure: Measure,
    fidelity: Fidelity,
    with_stats: bool,
}

impl QuerySpec {
    /// A 1-NN request — the `k = 1` special case of [`knn`](Self::knn).
    #[must_use]
    pub fn nn() -> Self {
        Self::knn(1)
    }

    /// A k-NN request: the `k` nearest series, sorted ascending by
    /// `(distance, position)`. Defaults to [`Measure::Euclidean`],
    /// [`Fidelity::Exact`], no stats.
    ///
    /// `k == 0` is rejected at [`search`](crate::Search::search) time with
    /// [`InvalidSpec::ZeroK`] — construction never panics.
    #[must_use]
    pub fn knn(k: usize) -> Self {
        Self {
            k,
            measure: Measure::Euclidean,
            fidelity: Fidelity::Exact,
            with_stats: false,
        }
    }

    /// Sets the similarity measure (builder style).
    #[must_use]
    pub fn measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }

    /// Sets the answer fidelity (builder style).
    #[must_use]
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Requests the per-query/batch work counters in the
    /// [`Answers`](crate::Answers) (builder style). Collection is free —
    /// the engines count anyway — so this only controls exposure.
    #[must_use]
    pub fn with_stats(mut self) -> Self {
        self.with_stats = true;
        self
    }

    /// Neighbors requested per query.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The similarity measure.
    #[must_use]
    pub fn measure_kind(&self) -> Measure {
        self.measure
    }

    /// The answer fidelity.
    #[must_use]
    pub fn fidelity_kind(&self) -> Fidelity {
        self.fidelity
    }

    /// Whether stats were requested.
    #[must_use]
    pub fn stats_requested(&self) -> bool {
        self.with_stats
    }

    /// Validates this spec against an index's series length and a query
    /// batch; every rejection is an [`InvalidSpec`] with actionable text.
    pub(crate) fn validate(&self, series_len: usize, queries: &[&[f32]]) -> Result<(), Error> {
        if self.k == 0 {
            return Err(InvalidSpec::ZeroK.into());
        }
        if queries.is_empty() {
            return Err(InvalidSpec::EmptyBatch.into());
        }
        if let Measure::Dtw { band } = self.measure {
            if band >= series_len {
                return Err(InvalidSpec::BandTooWide { band, series_len }.into());
            }
        }
        for (index, q) in queries.iter().enumerate() {
            if q.len() != series_len {
                return Err(InvalidSpec::QueryLength {
                    expected: series_len,
                    got: q.len(),
                    index,
                }
                .into());
            }
            if !q.iter().all(|v| v.is_finite()) {
                return Err(InvalidSpec::NonFiniteQuery { index }.into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_all_axes() {
        let spec = QuerySpec::knn(7)
            .measure(Measure::Dtw { band: 4 })
            .fidelity(Fidelity::Approximate)
            .with_stats();
        assert_eq!(spec.k(), 7);
        assert_eq!(spec.measure_kind(), Measure::Dtw { band: 4 });
        assert_eq!(spec.fidelity_kind(), Fidelity::Approximate);
        assert!(spec.stats_requested());
        // Defaults.
        let spec = QuerySpec::nn();
        assert_eq!(spec.k(), 1);
        assert_eq!(spec.measure_kind(), Measure::Euclidean);
        assert_eq!(spec.fidelity_kind(), Fidelity::Exact);
        assert!(!spec.stats_requested());
    }

    #[test]
    fn validation_rejects_each_misuse() {
        let q = vec![0.0f32; 64];
        let qs: Vec<&[f32]> = vec![&q];
        assert!(matches!(
            QuerySpec::knn(0).validate(64, &qs),
            Err(Error::InvalidSpec(InvalidSpec::ZeroK))
        ));
        assert!(matches!(
            QuerySpec::nn().validate(64, &[]),
            Err(Error::InvalidSpec(InvalidSpec::EmptyBatch))
        ));
        assert!(matches!(
            QuerySpec::nn()
                .measure(Measure::Dtw { band: 64 })
                .validate(64, &qs),
            Err(Error::InvalidSpec(InvalidSpec::BandTooWide {
                band: 64,
                series_len: 64
            }))
        ));
        let short = vec![0.0f32; 32];
        let mixed: Vec<&[f32]> = vec![&q, &short];
        assert!(matches!(
            QuerySpec::nn().validate(64, &mixed),
            Err(Error::InvalidSpec(InvalidSpec::QueryLength {
                expected: 64,
                got: 32,
                index: 1
            }))
        ));
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut poisoned = q.clone();
            poisoned[17] = bad;
            let batch: Vec<&[f32]> = vec![&q, &poisoned];
            assert!(matches!(
                QuerySpec::nn().validate(64, &batch),
                Err(Error::InvalidSpec(InvalidSpec::NonFiniteQuery { index: 1 }))
            ));
        }
        // And the in-bounds spellings pass.
        assert!(QuerySpec::knn(5).validate(64, &qs).is_ok());
        assert!(QuerySpec::nn()
            .measure(Measure::Dtw { band: 63 })
            .validate(64, &qs)
            .is_ok());
    }
}
