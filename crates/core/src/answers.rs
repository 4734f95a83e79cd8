//! The query plane's response half: [`Answers`].

use dsidx_query::{BatchStats, QueryStats};
use dsidx_series::Match;

/// Everything one [`search`](crate::Search::search) call produced: one
/// match list per query (index-aligned with the request's queries, each
/// sorted ascending by `(distance, position)`), plus the
/// [`BatchStats`] when the spec asked for them.
///
/// ```
/// use dsidx::prelude::*;
///
/// let data = DatasetKind::Synthetic.generate(300, 64, 7);
/// let queries = DatasetKind::Synthetic.queries(3, 64, 7);
/// let index = MemoryIndex::build(data, Engine::Ads, &Options::default()).unwrap();
///
/// let batch: Vec<&[f32]> = queries.iter().collect();
/// let answers = index.search(&batch, &QuerySpec::knn(4).with_stats()).unwrap();
/// assert_eq!(answers.len(), 3);
/// for per_query in answers.matches() {
///     assert_eq!(per_query.len(), 4);
/// }
/// // Per-query counters come back through the same response.
/// assert!(answers.query_stats(0).unwrap().real_computed > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Answers {
    matches: Vec<Vec<Match>>,
    stats: Option<BatchStats>,
}

impl Answers {
    /// Packages a dispatch result (facade-internal).
    pub(crate) fn new(matches: Vec<Vec<Match>>, stats: Option<BatchStats>) -> Self {
        Self { matches, stats }
    }

    /// Number of queries answered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// `true` for a response to zero queries (never produced by
    /// [`search`](crate::Search::search), which rejects empty batches).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// The per-query match lists, index-aligned with the request.
    #[must_use]
    pub fn matches(&self) -> &[Vec<Match>] {
        &self.matches
    }

    /// Consumes the response into the per-query match lists.
    #[must_use]
    pub fn into_matches(self) -> Vec<Vec<Match>> {
        self.matches
    }

    /// Query `i`'s best match, if it has one (`None` past the end of the
    /// batch or when the collection was empty).
    #[must_use]
    pub fn best(&self, i: usize) -> Option<&Match> {
        self.matches.get(i)?.first()
    }

    /// The batch-of-one view: the single query's matches.
    ///
    /// # Panics
    /// Panics if the response holds more than one query's answers.
    #[must_use]
    pub fn single(&self) -> &[Match] {
        assert_eq!(self.matches.len(), 1, "batch of one");
        &self.matches[0]
    }

    /// Consumes a batch-of-one response into the single query's matches.
    ///
    /// # Panics
    /// Panics if the response holds more than one query's answers.
    #[must_use]
    pub fn into_single(mut self) -> Vec<Match> {
        assert_eq!(self.matches.len(), 1, "batch of one");
        self.matches.pop().expect("one query")
    }

    /// Consumes a batch-of-one response into its best match (`None` when
    /// the collection was empty) — the 1-NN view.
    ///
    /// # Panics
    /// Panics if the response holds more than one query's answers.
    #[must_use]
    pub fn into_nn(self) -> Option<Match> {
        self.into_single().into_iter().next()
    }

    /// The batch work counters, when the spec requested them
    /// ([`QuerySpec::with_stats`](crate::QuerySpec::with_stats)).
    #[must_use]
    pub fn stats(&self) -> Option<&BatchStats> {
        self.stats.as_ref()
    }

    /// Query `i`'s counters including its share of the batch-level work —
    /// `None` without [`with_stats`](crate::QuerySpec::with_stats) or past
    /// the end of the batch.
    #[must_use]
    pub fn query_stats(&self, i: usize) -> Option<QueryStats> {
        let stats = self.stats.as_ref()?;
        (i < self.matches.len()).then(|| stats.query_stats(i))
    }

    /// Wall-time-per-phase view of the whole call: the batch-level phase
    /// times plus every query's own — `None` without
    /// [`with_stats`](crate::QuerySpec::with_stats). All zeros when the
    /// observability plane is disabled (`DSIDX_NO_OBS`).
    #[must_use]
    pub fn phase_breakdown(&self) -> Option<dsidx_obs::phase::PhaseBreakdown> {
        let stats = self.stats.as_ref()?;
        let mut phase = stats.shared.phase;
        for q in &stats.per_query {
            phase = phase.merged(&q.phase);
        }
        Some(phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Answers {
        Answers::new(
            vec![vec![Match::new(3, 1.0), Match::new(7, 2.0)], vec![]],
            Some(BatchStats {
                broadcasts: 1,
                per_query: vec![QueryStats::default(), QueryStats::default()],
                ..BatchStats::default()
            }),
        )
    }

    #[test]
    fn accessors_view_the_right_slices() {
        let a = sample();
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert_eq!(a.best(0), Some(&Match::new(3, 1.0)));
        assert_eq!(a.best(1), None);
        assert_eq!(a.best(9), None);
        assert_eq!(a.stats().map(|s| s.broadcasts), Some(1));
        assert!(a.query_stats(1).is_some());
        assert!(a.query_stats(2).is_none());
        assert_eq!(a.into_matches().len(), 2);
    }

    #[test]
    fn single_views_require_a_batch_of_one() {
        let a = Answers::new(vec![vec![Match::new(5, 0.5)]], None);
        assert_eq!(a.single(), &[Match::new(5, 0.5)]);
        assert_eq!(a.clone().into_single(), vec![Match::new(5, 0.5)]);
        assert_eq!(a.into_nn(), Some(Match::new(5, 0.5)));
        let empty_collection = Answers::new(vec![vec![]], None);
        assert_eq!(empty_collection.into_nn(), None);
    }

    #[test]
    #[should_panic(expected = "batch of one")]
    fn single_on_a_larger_batch_panics() {
        let _ = sample().single();
    }

    #[test]
    fn query_stats_without_stats_is_none() {
        let a = Answers::new(vec![vec![]], None);
        assert!(a.stats().is_none());
        assert!(a.query_stats(0).is_none());
    }
}
