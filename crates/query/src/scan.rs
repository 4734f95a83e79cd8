//! The per-leaf early-abandoned real-distance loop — every MESSI leaf
//! visit, the seed's visit of the query's own leaf included, one leaf's
//! entries at a time, under whichever measure the [`Prepared`] query
//! brings. ParIS's collect/verify loops, which ADS+ runs at one worker,
//! are ParIS's own (`dsidx_paris`).
//!
//! A leaf's entries are bounded in two stages. The cheap one is a 4-bit
//! pre-filter ([`CoarseTable`]): one byte shuffle per segment rules out,
//! 32 words at a time, every word whose coarse sum already reaches the
//! live threshold — on random-walk collections all but a few percent of
//! them. Only the words it lets through pay the exact [`MindistTable`]
//! bound. It rules out nothing
//! the exact bound would keep, so the survivors, their bounds and every
//! work counter are those of the exact stage alone.
//!
//! Each survivor's whole series is requested from memory the moment its
//! bound passes, so the leaf's scattered reads overlap instead of each
//! distance opening on a miss. The survivors then pay their distances
//! best-bound-first, ordered by `(bound, position)`: the nearest
//! candidates tighten the threshold before the farther ones are tried,
//! and the first bound at or above the threshold ends the visit.
//!
//! The loop is generic over [`Pruner`]; every engine schedule runs it on
//! an [`OffsetTopK`](dsidx_sync::OffsetTopK), a k-NN collector whose
//! threshold is the k-th best distance so far (1-NN is k = 1).

use crate::fetch::SeriesFetcher;
use crate::prepare::Prepared;
use crate::stats::QueryStats;
use dsidx_isax::{CoarseTable, MindistTable, Word};
use dsidx_series::distance::dtw::DtwScratch;
use dsidx_storage::{RawSource, StorageError};
use dsidx_sync::Pruner;

/// Reusable state of the per-leaf loops: the entries that survived the
/// bound pass, the coarse pre-filter of the query being served, and what
/// the DTW cascade needs per candidate (empty and unused under Euclidean
/// distance). A worker visiting thousands of leaves per query allocates
/// them once.
///
/// The pre-filter runs only after [`begin_query`](Self::begin_query) has
/// named the query the leaves belong to; a fresh scratch bounds every
/// word exactly.
#[derive(Debug, Default)]
pub struct LeafScratch {
    /// `(position, bound)` of each surviving entry: in entry order after
    /// the bound pass, by `(bound, position)` once a visit sorts them.
    survivors: Vec<(u32, f32)>,
    /// The batch slot of the query the leaves bounded next belong to, and
    /// the coarse table made from its word table, once one was made.
    query: Option<(usize, Option<CoarseTable>)>,
    pub(crate) dtw: DtwScratch,
}

impl LeafScratch {
    /// Empty buffers; they grow to the largest leaf seen.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares that the leaves bounded next belong to the query in batch
    /// slot `slot`, and lets the pre-filter run for them.
    ///
    /// The coarse table is the query's own: it is kept while the slot
    /// stays the same and dropped when it changes. It is made from the
    /// word table of the first leaf visit with a finite threshold, and
    /// made again once the threshold falls below half the one it was made
    /// for (its quantisation is then too coarse to prune well). A scratch
    /// must therefore serve one batch's slots only: a slot number names
    /// one query within one batch.
    pub fn begin_query(&mut self, slot: usize) {
        if self
            .query
            .as_ref()
            .is_none_or(|&(served, _)| served != slot)
        {
            self.query = Some((slot, None));
        }
    }

    /// Pass one of a leaf visit: bounds every word (bit-identical with
    /// SIMD on or off, and whether or not the pre-filter runs), keeps in
    /// `survivors` the entries among the first `positions.len()` whose
    /// bound beats `limit`, as `(position, bound)` in entry order, and
    /// starts pulling each one's whole series toward the cache so pass two
    /// does not open each distance with a memory stall.
    ///
    /// The words go through [`MindistTable::for_each_below`], behind the
    /// served query's coarse table when there is one (a query named by
    /// [`begin_query`](Self::begin_query), a finite positive `limit`, 16
    /// segments).
    fn bound_leaf(
        &mut self,
        words: &[Word],
        positions: &[u32],
        table: &MindistTable,
        limit: f32,
        fetcher: &SeriesFetcher<'_, impl RawSource>,
    ) {
        assert!(words.len() >= positions.len(), "one word per position");
        self.survivors.clear();
        let coarse = coarse_for(&mut self.query, table, limit);
        table.for_each_below(coarse, words, limit, |i, lb| {
            // Padding words past the leaf have no position.
            if let Some(&pos) = positions.get(i) {
                self.survivors.push((pos, lb));
                fetcher.prefetch(pos as usize);
            }
        });
    }
}

/// The served query's coarse table for `limit`, made (again) when there is
/// none yet or `limit` fell below half its reference; `None` when no query
/// is named, `limit` is not finite and positive, or the table does not
/// have 16 segments.
fn coarse_for<'a>(
    query: &'a mut Option<(usize, Option<CoarseTable>)>,
    table: &MindistTable,
    limit: f32,
) -> Option<&'a CoarseTable> {
    let (_, coarse) = query.as_mut()?;
    if !(limit.is_finite() && limit > 0.0) {
        return None;
    }
    if coarse
        .as_ref()
        .is_none_or(|made| limit < made.reference() / 2.0)
    {
        *coarse = CoarseTable::new(table, limit);
    }
    coarse.as_ref()
}

/// Entry-level bound + real distance over one leaf's entries (a MESSI
/// leaf visit, and the seed's and the approximate answer's visit of the
/// query's own leaf), fetching survivors from any [`RawSource`] —
/// zero-copy in memory, device-charged reads on disk.
///
/// Two passes, because a leaf's entries point all over the raw data: first
/// the whole leaf is bounded through `prep`'s word-level table, behind the
/// coarse pre-filter once `scratch` serves a query
/// ([`LeafScratch::begin_query`]), and the survivors' series are
/// prefetched whole; then the survivors, sorted by `(bound, position)`,
/// pay `prep`'s [`distance`](Prepared::distance) against the pruning
/// threshold, re-read before each one. The first bound at or above it
/// ends the visit: every survivor behind it is at least as far. `words`
/// may be longer than `positions` — a run padded for the batched kernel
/// (`FlatTree::leaf_words_padded`); the extra bounds are ignored.
///
/// The order changes which candidates are tried, never what the pruner
/// holds afterwards: every entry whose distance beats the final threshold
/// has a bound below it, so it is tried whatever the order, and the
/// collector breaks ties by position.
///
/// Counts `lb_entry_computed` into `stats`, and whatever the measure books
/// per survivor tried; returns the number of series fetched.
///
/// # Errors
/// Propagates raw-source I/O failures.
///
/// # Panics
/// Panics if `words` is shorter than `positions`.
#[allow(clippy::too_many_arguments)] // the leaf, the query, and where results go
pub fn process_leaf_entries<P: Pruner, Q: Prepared>(
    words: &[Word],
    positions: &[u32],
    prep: &Q,
    fetcher: &mut SeriesFetcher<'_, impl RawSource>,
    query: &[f32],
    pruner: &P,
    scratch: &mut LeafScratch,
    stats: &mut QueryStats,
) -> Result<u64, StorageError> {
    scratch.bound_leaf(
        words,
        positions,
        prep.table(),
        pruner.threshold_sq(),
        fetcher,
    );
    stats.lb_entry_computed += positions.len() as u64;
    scratch
        .survivors
        .sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let mut fetched = 0u64;
    for &(pos, lb) in &scratch.survivors {
        // Re-read per survivor: this worker or a peer may have tightened it.
        let limit = pruner.threshold_sq();
        if lb >= limit {
            break;
        }
        let series = fetcher.fetch(pos as usize)?;
        fetched += 1;
        if let Some(d) = prep.distance(query, series, limit, &mut scratch.dtw, stats) {
            pruner.insert(d, pos);
        }
    }
    Ok(fetched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::PreparedQuery;
    use dsidx_series::distance::euclidean_sq;
    use dsidx_series::gen::DatasetKind;
    use dsidx_sync::SharedTopK;
    use dsidx_tree::TreeConfig;

    /// One leaf holding the whole fixture, padded like a flat-tree leaf.
    fn leaf_of(words: &[Word]) -> (Vec<Word>, Vec<u32>) {
        let positions = (0..words.len() as u32).collect();
        let mut padded = words.to_vec();
        padded.resize(words.len().next_multiple_of(8), words[0]);
        (padded, positions)
    }

    fn fixture(n: usize) -> (dsidx_series::Dataset, Vec<dsidx_isax::Word>, TreeConfig) {
        let config = TreeConfig::new(64, 8, 16).unwrap();
        let data = DatasetKind::Synthetic.generate(n, 64, 5);
        let quantizer = config.quantizer();
        let words = data.iter().map(|s| quantizer.word(s)).collect();
        (data, words, config)
    }

    fn brute(data: &dsidx_series::Dataset, q: &[f32]) -> (f32, u32) {
        let mut best = (f32::INFINITY, u32::MAX);
        for (pos, s) in data.iter().enumerate() {
            let d = euclidean_sq(q, s);
            if d < best.0 {
                best = (d, pos as u32);
            }
        }
        best
    }

    fn brute_topk(data: &dsidx_series::Dataset, q: &[f32], k: usize) -> Vec<(f32, u32)> {
        let mut all: Vec<(f32, u32)> = data
            .iter()
            .enumerate()
            .map(|(pos, s)| (euclidean_sq(q, s), pos as u32))
            .collect();
        all.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    /// The single-stage leaf bound: every word through `lookup_many`, the
    /// entries below `limit` kept in entry order — the oracle the two-stage
    /// visit must reproduce.
    fn single_stage(
        words: &[Word],
        positions: &[u32],
        table: &MindistTable,
        limit: f32,
    ) -> Vec<(u32, f32)> {
        let mut bounds = vec![0.0; words.len()];
        table.lookup_many(words, &mut bounds);
        bounds
            .iter()
            .zip(positions)
            .filter(|&(&lb, _)| lb < limit)
            .map(|(&lb, &pos)| (pos, lb))
            .collect()
    }

    #[test]
    fn two_stage_leaf_visits_keep_the_single_stage_survivors() {
        // Leaves of a 16-segment collection, padded like flat-tree leaves,
        // under point (ED) and interval (DTW) tables, at limits from loose
        // to tight and exactly at entries' own bounds, with the coarse
        // table made for a looser limit and rebuilt as the limit falls.
        let config = TreeConfig::new(128, 16, 16).unwrap();
        let data = DatasetKind::Synthetic.generate(700, 128, 12);
        let words: Vec<Word> = data.iter().map(|s| config.quantizer().word(s)).collect();
        let fetcher = SeriesFetcher::new(&data);
        let queries = DatasetKind::Synthetic.queries(3, 128, 77);
        let mut scratch = LeafScratch::new();
        for (qi, q) in queries.iter().enumerate() {
            let point = PreparedQuery::new(config.quantizer(), q);
            let band = crate::dtw::DtwPrepared::new(config.quantizer(), q, 6);
            // Each table stands for a query of its own, in a slot of its own.
            for (kind, table) in [&point.table, band.table()].into_iter().enumerate() {
                scratch.begin_query(2 * qi + kind);
                let mut all = vec![0.0; words.len()];
                table.lookup_many(&words, &mut all);
                let mut limits: Vec<f32> = all.clone();
                limits.sort_by(f32::total_cmp);
                let mut limits: Vec<f32> = [600, 300, 100, 20, 3, 0]
                    .iter()
                    .map(|&i| limits[i])
                    .filter(|&l| l > 0.0)
                    .collect();
                limits.insert(0, f32::INFINITY);
                for limit in limits {
                    for (start, len) in [(0usize, 700usize), (5, 61), (64, 3), (400, 32), (699, 1)]
                    {
                        let positions: Vec<u32> = (start as u32..(start + len) as u32).collect();
                        let padded_len = len.next_multiple_of(dsidx_tree::flat::LEAF_BLOCK);
                        let mut padded = words[start..].to_vec();
                        padded.resize(padded_len, words[0]);
                        scratch.bound_leaf(&padded, &positions, table, limit, &fetcher);
                        let want = single_stage(&padded, &positions, table, limit);
                        assert_eq!(scratch.survivors, want, "q{qi} limit={limit} start={start}");
                    }
                }
                let made = scratch.query.as_ref().and_then(|(_, c)| c.as_ref());
                assert!(made.is_some(), "a finite limit makes the coarse table");
            }
        }
    }

    /// A non-resident source that logs the position of every read.
    struct Logged {
        data: dsidx_series::Dataset,
        reads: std::sync::Mutex<Vec<u32>>,
    }

    impl RawSource for Logged {
        fn count(&self) -> usize {
            self.data.len()
        }

        fn series_len(&self) -> usize {
            self.data.series_len()
        }

        fn read_into(&self, pos: usize, out: &mut [f32]) -> Result<(), StorageError> {
            self.reads.lock().unwrap().push(pos as u32);
            out.copy_from_slice(self.data.get(pos));
            Ok(())
        }
    }

    #[test]
    fn a_leaf_visit_fetches_best_bound_first_and_stops_at_the_threshold() {
        // 16-segment words, so the pre-filter runs once a threshold is
        // finite; k = 1 and 5, from an infinite threshold and from one a
        // peer already tightened to the leaf's median bound.
        let config = TreeConfig::new(128, 16, 16).unwrap();
        let data = DatasetKind::Synthetic.generate(300, 128, 8);
        let words: Vec<Word> = data.iter().map(|s| config.quantizer().word(s)).collect();
        let (padded, positions) = leaf_of(&words);
        let source = Logged {
            data: data.clone(),
            reads: std::sync::Mutex::new(Vec::new()),
        };
        let queries = DatasetKind::Synthetic.queries(4, 128, 9);
        let mut scratch = LeafScratch::new();
        for (qi, q) in queries.iter().enumerate() {
            let prep = PreparedQuery::new(config.quantizer(), q);
            let mut bounds = vec![0.0; words.len()];
            prep.table.lookup_many(&words, &mut bounds);
            // Every entry in the order a visit must try them.
            let mut order: Vec<(f32, u32)> = bounds.iter().copied().zip(0..).collect();
            order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let median = order[order.len() / 2].0;
            for (k, preset) in [(1, None), (5, None), (1, Some(median))] {
                let label = format!("q{qi} k={k} preset={preset:?}");
                let topk = SharedTopK::new(k);
                if let Some(limit) = preset {
                    // A peer's distance past the end of the collection.
                    topk.insert(limit, u32::MAX);
                }
                source.reads.lock().unwrap().clear();
                scratch.begin_query(qi);
                let fetched = process_leaf_entries(
                    &padded,
                    &positions,
                    &prep,
                    &mut SeriesFetcher::new(&source),
                    q,
                    &topk,
                    &mut scratch,
                    &mut QueryStats::default(),
                )
                .unwrap();
                let reads = source.reads.lock().unwrap().clone();
                assert_eq!(fetched, reads.len() as u64, "{label}");
                // Ascending (bound, position): a prefix of the order.
                let want: Vec<u32> = order[..reads.len()].iter().map(|&(_, p)| p).collect();
                assert_eq!(reads, want, "{label}");
                // It stopped at the first bound at or above the threshold.
                let next = order.get(reads.len()).expect("the visit stops early");
                assert!(
                    next.0 >= topk.threshold_sq(),
                    "{label}: stopped before {next:?}"
                );
                if preset.is_none() {
                    let got: Vec<u32> = topk.matches().iter().map(|m| m.1).collect();
                    let want: Vec<u32> = brute_topk(&data, q, k).iter().map(|m| m.1).collect();
                    assert_eq!(got, want, "{label}");
                }
            }
        }
    }

    #[test]
    fn the_coarse_table_follows_the_slot_and_the_limit() {
        let config = TreeConfig::new(128, 16, 16).unwrap();
        let data = DatasetKind::Synthetic.generate(64, 128, 3);
        let words: Vec<Word> = data.iter().map(|s| config.quantizer().word(s)).collect();
        let positions: Vec<u32> = (0..64).collect();
        let fetcher = SeriesFetcher::new(&data);
        let prep = PreparedQuery::new(config.quantizer(), data.get(0));
        let reference = |scratch: &LeafScratch| {
            let (slot, coarse) = scratch.query.as_ref().expect("a query is named");
            (*slot, coarse.as_ref().map(CoarseTable::reference))
        };
        let mut scratch = LeafScratch::new();
        scratch.bound_leaf(&words, &positions, &prep.table, 8.0, &fetcher);
        assert!(scratch.query.is_none(), "no query named: exact stage only");
        scratch.begin_query(2);
        scratch.bound_leaf(&words, &positions, &prep.table, f32::INFINITY, &fetcher);
        assert_eq!(
            reference(&scratch),
            (2, None),
            "no table for an infinite limit"
        );
        scratch.bound_leaf(&words, &positions, &prep.table, 8.0, &fetcher);
        assert_eq!(reference(&scratch), (2, Some(8.0)));
        scratch.bound_leaf(&words, &positions, &prep.table, 4.0, &fetcher);
        assert_eq!(reference(&scratch), (2, Some(8.0)), "kept down to half");
        scratch.bound_leaf(&words, &positions, &prep.table, 3.9, &fetcher);
        assert_eq!(reference(&scratch), (2, Some(3.9)), "made again below half");
        scratch.begin_query(2);
        assert_eq!(reference(&scratch), (2, Some(3.9)), "same slot, same table");
        scratch.begin_query(5);
        assert_eq!(reference(&scratch), (5, None), "another slot drops it");
    }

    #[test]
    fn leaf_entry_processing_is_exact_over_the_leaf() {
        // 203 entries: the padded run carries five words past the leaf.
        let (data, words, config) = fixture(203);
        let (padded, positions) = leaf_of(&words);
        let queries = DatasetKind::Synthetic.queries(3, 64, 31);
        let mut scratch = LeafScratch::new();
        for q in queries.iter() {
            let prep = PreparedQuery::new(config.quantizer(), q);
            let best = SharedTopK::new(1);
            let mut fetcher = SeriesFetcher::new(&data);
            let mut stats = QueryStats::default();
            let fetched = process_leaf_entries(
                &padded,
                &positions,
                &prep,
                &mut fetcher,
                q,
                &best,
                &mut scratch,
                &mut stats,
            )
            .unwrap();
            assert_eq!(stats.lb_entry_computed, 203, "padding is not counted");
            assert!(stats.real_computed <= fetched && fetched <= 203);
            let want = brute(&data, q);
            assert_eq!(best.matches()[0].1, want.1);
        }
    }

    #[test]
    fn leaf_entry_processing_with_topk_is_exact_over_the_leaf() {
        let (data, words, config) = fixture(200);
        let (padded, positions) = leaf_of(&words);
        let queries = DatasetKind::Synthetic.queries(2, 64, 13);
        for q in queries.iter() {
            let prep = PreparedQuery::new(config.quantizer(), q);
            let k = 9;
            let topk = SharedTopK::new(k);
            let mut fetcher = SeriesFetcher::new(&data);
            process_leaf_entries(
                &padded,
                &positions,
                &prep,
                &mut fetcher,
                q,
                &topk,
                &mut LeafScratch::new(),
                &mut QueryStats::default(),
            )
            .unwrap();
            let want = brute_topk(&data, q, k);
            assert_eq!(
                topk.matches().iter().map(|m| m.1).collect::<Vec<_>>(),
                want.iter().map(|m| m.1).collect::<Vec<_>>()
            );
        }
    }
}
