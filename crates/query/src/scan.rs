//! The per-leaf early-abandoned real-distance loop — MESSI's exact phase
//! after seeding, one leaf's entries at a time, under whichever measure
//! the [`Prepared`] query brings. The scan engines' loops (ParIS's
//! collect/verify split, which ADS+ runs at one worker) exist only in
//! batch form ([`batch`](crate::batch)); a single query is a batch of one.
//!
//! The loop is generic over [`Pruner`]; every engine schedule runs it on
//! an [`OffsetTopK`](dsidx_sync::OffsetTopK), a k-NN collector whose
//! threshold is the k-th best distance so far (1-NN is k = 1).

use crate::fetch::SeriesFetcher;
use crate::prepare::Prepared;
use crate::stats::QueryStats;
use dsidx_isax::{MindistTable, Word};
use dsidx_series::distance::dtw::DtwScratch;
use dsidx_storage::{RawSource, StorageError};
use dsidx_sync::Pruner;

/// Reusable buffers of the per-leaf loops: one bound per (padded) word,
/// the entries that survived the bound pass, and what the DTW cascade
/// needs per candidate (empty and unused under Euclidean distance). A
/// worker visiting thousands of leaves per query allocates them once.
#[derive(Debug, Default)]
pub struct LeafScratch {
    bounds: Vec<f32>,
    /// `(position, bound)` of each surviving entry, in entry order.
    survivors: Vec<(u32, f32)>,
    pub(crate) dtw: DtwScratch,
}

impl LeafScratch {
    /// Empty buffers; they grow to the largest leaf seen.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pass one of a leaf visit: bounds every word with the batched kernel
    /// (bit-identical with SIMD on or off), keeps in `survivors` the
    /// entries among the first `positions.len()` whose bound beats
    /// `limit`, as `(position, bound)` in entry order, and starts pulling
    /// their series toward the cache so pass two does not open each
    /// distance with a memory stall.
    fn bound_leaf(
        &mut self,
        words: &[Word],
        positions: &[u32],
        table: &MindistTable,
        limit: f32,
        fetcher: &SeriesFetcher<'_, impl RawSource>,
    ) {
        assert!(words.len() >= positions.len(), "one word per position");
        if self.bounds.len() < words.len() {
            self.bounds.resize(words.len(), 0.0);
        }
        table.lookup_many(words, &mut self.bounds);
        self.survivors.clear();
        for (&lb, &pos) in self.bounds.iter().zip(positions) {
            if lb < limit {
                self.survivors.push((pos, lb));
                fetcher.prefetch(pos as usize);
            }
        }
    }
}

/// Entry-level bound + real distance over one leaf's entries (MESSI
/// processing phase), fetching survivors from any [`RawSource`] —
/// zero-copy in memory, device-charged reads on disk.
///
/// Two passes, because a leaf's entries point all over the raw data: first
/// the whole leaf is bounded through `prep`'s word-level table and the
/// survivors' series are prefetched ([`LeafScratch`]), then the survivors
/// pay `prep`'s [`distance`](Prepared::distance), the pruning threshold
/// re-read after each one (and each bound re-checked against it). `words`
/// may be longer than `positions` — a run padded for the batched kernel
/// (`FlatTree::leaf_words_padded`); the extra bounds are ignored.
///
/// Counts `lb_entry_computed` into `stats`, and whatever the measure books
/// per survivor; returns the number of series fetched.
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
    let mut fetched = 0u64;
    for &(pos, lb) in &scratch.survivors {
        // Re-read per survivor: this worker or a peer may have tightened it.
        let limit = pruner.threshold_sq();
        if lb >= limit {
            continue;
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
    use crate::batch::{batch_verify_candidates, BatchCandidate, QueryBatch};
    use crate::prepare::PreparedQuery;
    use dsidx_series::distance::euclidean_sq;
    use dsidx_series::gen::DatasetKind;
    use dsidx_sync::{AtomicBest, SharedTopK};
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

    #[test]
    fn verify_candidate_skips_stale_bounds() {
        // One query's candidates, verified as a batch of one whose
        // threshold an earlier insert holds at 1.0.
        let (data, _, config) = fixture(10);
        let q = data.get(0).to_vec();
        let batch = QueryBatch::new(config.quantizer(), &[&q], 1, None);
        batch.slots()[0].topk.insert(1.0, 999);
        let mut fetcher = SeriesFetcher::new(&data);
        let mut survivors = Vec::new();
        let mut locals = vec![QueryStats::default()];
        let candidate = |pos, lb| [BatchCandidate { pos, query: 0, lb }];
        // A bound at/above the BSF is pruned without touching the source.
        let bsf = batch.slots()[0].topk.threshold_sq();
        let stale = candidate(3, bsf);
        batch_verify_candidates(
            &stale,
            0..1,
            &mut fetcher,
            &batch,
            &mut survivors,
            &mut locals,
        )
        .unwrap();
        assert_eq!(locals[0].real_computed, 0);
        assert_eq!(batch.slots()[0].topk.threshold_sq(), bsf);
        // A bound below lets the real distance through (series 0 itself).
        let fresh = candidate(0, 0.0);
        batch_verify_candidates(
            &fresh,
            0..1,
            &mut fetcher,
            &batch,
            &mut survivors,
            &mut locals,
        )
        .unwrap();
        assert_eq!(locals[0].real_computed, 1);
        let (matches, stats) = batch.finish(0, QueryStats::default());
        assert_eq!((matches[0][0].pos, matches[0][0].dist_sq), (0, 0.0));
        assert_eq!(stats.series_fetched, 1, "only the fresh bound fetched");
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
            let best = AtomicBest::new();
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
            assert_eq!(best.get().1, want.1);
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
