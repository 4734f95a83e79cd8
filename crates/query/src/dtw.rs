//! DTW query preparation and the DTW kernel loops.
//!
//! A banded-DTW query carries more prepared state than a Euclidean one:
//! the LB_Keogh envelope of the query, the PAA of that envelope (segment
//! means of its lower and upper half), and the *interval* MINDIST tables
//! built from them (a point query lower-bounds candidates from its own
//! PAA; a warped query must lower-bound them from everything the band
//! allows). [`DtwPrepared`] packages all of it, built once per query.
//!
//! The loops here are the DTW generalizations of the ED loops in
//! [`scan`](crate::scan) and [`batch`](crate::batch): index summaries are
//! bounded through the interval tables first, and every raw series that
//! survives goes through the one raw-series cascade,
//! [`dtw_cascade`] — LB_Keogh, reversed LB_Keogh, banded DTW abandoning on
//! the bounds' unpaid remainder — against the live threshold, its verdict
//! booked by [`QueryStats::count_dtw`]. Seeds go through the same
//! function; they report only the full DTWs they paid. In the batch loops
//! a [`QueryBatch`] supplies the per-query pruners and counters, a
//! `&[DtwPrepared]` (index-aligned with the batch's slots) the per-query
//! envelopes, and each fetched series meets every active query in one
//! data pass.

use crate::batch::QueryBatch;
use crate::fetch::SeriesFetcher;
use crate::scan::LeafScratch;
use crate::stats::QueryStats;
use dsidx_isax::paa::envelope_paa_bounds;
use dsidx_isax::{MindistTable, NodeMindistTable, Quantizer, Word};
use dsidx_series::distance::dtw::{dtw_cascade, envelope, DtwScratch, DtwVerdict};
use dsidx_storage::{RawSource, StorageError};
use dsidx_sync::Pruner;

/// Everything a banded-DTW query needs before touching index structures:
/// the query envelope (for LB_Keogh), its per-segment PAA bounds, and the
/// interval word-level MINDIST table (for SAX-array and leaf-entry
/// bounds). The DTW counterpart of [`PreparedQuery`](crate::PreparedQuery).
#[derive(Debug, Clone)]
pub struct DtwPrepared {
    /// Lower envelope of the query under the band (length = series length).
    pub lo_env: Vec<f32>,
    /// Upper envelope of the query under the band.
    pub hi_env: Vec<f32>,
    /// Segment means of the lower envelope (see [`envelope_paa_bounds`]).
    lo_paa: Vec<f32>,
    /// Segment means of the upper envelope.
    hi_paa: Vec<f32>,
    /// Interval word-level MINDIST table — a sound DTW lower bound.
    pub table: MindistTable,
    /// The query's own full-cardinality iSAX word (locates its seed leaf).
    pub word: Word,
}

impl DtwPrepared {
    /// Builds the DTW prepared state for `query` under a Sakoe-Chiba band
    /// of half-width `band`.
    ///
    /// # Panics
    /// Panics if the query length differs from the quantizer's series
    /// length (engines assert this at their API boundary).
    #[must_use]
    pub fn new(quantizer: &Quantizer, query: &[f32], band: usize) -> Self {
        let mut lo_env = Vec::new();
        let mut hi_env = Vec::new();
        envelope(query, band, &mut lo_env, &mut hi_env);
        let segments = quantizer.segment_lens().len();
        let mut lo_paa = vec![0.0f32; segments];
        let mut hi_paa = vec![0.0f32; segments];
        envelope_paa_bounds(&lo_env, &hi_env, &mut lo_paa, &mut hi_paa);
        let table = MindistTable::new_interval(&lo_paa, &hi_paa, quantizer.segment_lens());
        Self {
            lo_env,
            hi_env,
            lo_paa,
            hi_paa,
            table,
            word: quantizer.word(query),
        }
    }

    /// Builds the interval node-level table for tree-traversing engines
    /// (MESSI). Separate from construction because scan-based consumers
    /// never need it.
    #[must_use]
    pub fn node_table(&self, quantizer: &Quantizer) -> NodeMindistTable {
        let mut table = NodeMindistTable::default();
        self.fill_node_table(quantizer, &mut table);
        table
    }

    /// One raw `series` through the [`dtw_cascade`] of `query` (the series
    /// this state was prepared from, under the same `band`) at `limit`,
    /// booked in `stats`; the distance if a full DTW was paid.
    pub fn cascade(
        &self,
        query: &[f32],
        series: &[f32],
        band: usize,
        limit: f32,
        scratch: &mut DtwScratch,
        stats: &mut QueryStats,
    ) -> Option<f32> {
        let verdict = dtw_cascade(
            query,
            &self.lo_env,
            &self.hi_env,
            series,
            band,
            limit,
            scratch,
        );
        stats.count_dtw(verdict, scratch.cells())
    }

    /// [`node_table`](Self::node_table) into a table the caller reuses
    /// from query to query.
    pub fn fill_node_table(&self, quantizer: &Quantizer, table: &mut NodeMindistTable) {
        table.fill_interval(&self.lo_paa, &self.hi_paa, quantizer.segment_lens());
    }
}

/// Seeds the pruner from the approximate leaf under banded DTW: every
/// entry (given by its raw-data position) goes through the
/// [`dtw_cascade`] against the pruner's current threshold — the DTW
/// counterpart of [`seed_from_entries`](crate::seed::seed_from_entries).
/// `lower`/`upper` are the query's envelope under `band`. Returns the
/// number of *full* DTW distances computed; pruned and abandoned entries
/// are not counted anywhere (the funnel counters are the leaf cascade's).
///
/// # Errors
/// Propagates raw-source I/O failures.
#[allow(clippy::too_many_arguments)] // the cascade's arguments + where results go
pub fn seed_from_entries_dtw<P: Pruner>(
    positions: impl IntoIterator<Item = u32>,
    fetcher: &mut SeriesFetcher<'_, impl RawSource>,
    query: &[f32],
    lower: &[f32],
    upper: &[f32],
    band: usize,
    pruner: &P,
    scratch: &mut LeafScratch,
) -> Result<u64, StorageError> {
    let mut paid = 0u64;
    for pos in positions {
        let limit = pruner.threshold_sq();
        let series = fetcher.fetch(pos as usize)?;
        let verdict = dtw_cascade(query, lower, upper, series, band, limit, &mut scratch.dtw);
        if let DtwVerdict::Full(d) = verdict {
            pruner.insert(d, pos);
            paid += 1;
        }
    }
    Ok(paid)
}

/// The full DTW cascade over one leaf's entries for a single query
/// (MESSI's DTW processing phase): the interval iSAX bound over the whole
/// leaf first, the survivors' series prefetched ([`LeafScratch`]), then the
/// raw-series [`dtw_cascade`] per survivor against the live threshold. The
/// DTW counterpart of
/// [`process_leaf_entries`](crate::scan::process_leaf_entries), with the
/// same `words`/`positions` contract.
///
/// Counter updates land in `stats` (`lb_entry_computed`, then
/// [`DtwPrepared::cascade`] per survivor); returns the number of series
/// fetched.
///
/// # Errors
/// Propagates raw-source I/O failures.
///
/// # Panics
/// Panics if `words` is shorter than `positions`.
#[allow(clippy::too_many_arguments)] // mirrors the ED leaf loop + band
pub fn process_leaf_entries_dtw<P: Pruner>(
    words: &[Word],
    positions: &[u32],
    prep: &DtwPrepared,
    fetcher: &mut SeriesFetcher<'_, impl RawSource>,
    query: &[f32],
    band: usize,
    pruner: &P,
    scratch: &mut LeafScratch,
    stats: &mut QueryStats,
) -> Result<u64, StorageError> {
    let limit = pruner.threshold_sq();
    scratch.bound_leaf(words, positions, &prep.table, limit, fetcher);
    stats.lb_entry_computed += positions.len() as u64;
    let mut fetched = 0u64;
    // The survivors by field, so the cascade's buffers can be borrowed
    // beside them.
    for &(pos, lb) in &scratch.survivors {
        // Re-read per survivor: this worker or a peer may have tightened it.
        let limit = pruner.threshold_sq();
        if lb >= limit {
            continue;
        }
        let series = fetcher.fetch(pos as usize)?;
        fetched += 1;
        if let Some(d) = prep.cascade(query, series, band, limit, &mut scratch.dtw, stats) {
            pruner.insert(d, pos);
        }
    }
    Ok(fetched)
}

/// Seeds every query in a DTW batch from the (deduplicated) `positions`:
/// each series is fetched once and goes through the [`dtw_cascade`] of
/// every query — the DTW counterpart of
/// [`batch_seed_positions`](crate::batch::batch_seed_positions). `preps`
/// is index-aligned with the batch's slots.
///
/// # Errors
/// Propagates raw-source I/O failures.
///
/// # Panics
/// Panics if `preps` is not one prepared state per query.
pub fn batch_seed_positions_dtw<P>(
    positions: &[u32],
    fetcher: &mut SeriesFetcher<'_, impl RawSource>,
    batch: &QueryBatch<'_, P>,
    preps: &[DtwPrepared],
    band: usize,
) -> Result<(), StorageError> {
    assert_eq!(preps.len(), batch.len(), "one DtwPrepared per query");
    if batch.is_empty() || positions.is_empty() {
        return Ok(());
    }
    let mut locals = vec![QueryStats::default(); batch.len()];
    let mut scratch = DtwScratch::new();
    for &pos in positions {
        let series = fetcher.fetch(pos as usize)?;
        for ((slot, prep), local) in batch.slots().iter().zip(preps).zip(&mut locals) {
            let limit = slot.topk.threshold_sq();
            if let Some(d) = prep.cascade(slot.values, series, band, limit, &mut scratch, local) {
                slot.topk.insert(d, pos);
            }
        }
    }
    batch.merge_locals(&locals);
    batch.count_io(
        positions.len() as u64,
        positions.len() as u64 * batch.len() as u64,
    );
    Ok(())
}

/// The full DTW pruning cascade over one leaf's entries for every query in
/// `active` (indices into the batch's slots whose leaf-level bound
/// survived): interval iSAX bound, then the raw-series [`dtw_cascade`],
/// each stage pruning against that query's current threshold. The leaf is
/// processed *once* for the whole batch, and a surviving entry is fetched
/// once from the [`RawSource`] for every query that still wants it — the
/// DTW counterpart of
/// [`batch_process_leaf_entries`](crate::batch::batch_process_leaf_entries).
///
/// `words` and `positions` are the leaf's entries (index-aligned);
/// `preps` is index-aligned with the batch's slots; `survivors` and
/// `scratch` are caller-owned scratch (their contents are overwritten).
///
/// # Errors
/// Propagates raw-source I/O failures.
///
/// # Panics
/// Panics if `preps` is not one prepared state per query.
#[allow(clippy::too_many_arguments)] // mirrors the ED batch loop + band
pub fn batch_process_leaf_entries_dtw<P>(
    words: &[Word],
    positions: &[u32],
    fetcher: &mut SeriesFetcher<'_, impl RawSource>,
    batch: &QueryBatch<'_, P>,
    active: &[usize],
    preps: &[DtwPrepared],
    band: usize,
    survivors: &mut Vec<usize>,
    scratch: &mut LeafScratch,
    locals: &mut [QueryStats],
) -> Result<(), StorageError> {
    assert_eq!(preps.len(), batch.len(), "one DtwPrepared per query");
    let scratch = &mut scratch.dtw;
    let (mut fetches, mut requests) = (0u64, 0u64);
    for (word, &pos) in words.iter().zip(positions) {
        survivors.clear();
        for &qi in active {
            let slot = &batch.slots()[qi];
            locals[qi].lb_entry_computed += 1;
            if preps[qi].table.lookup(word) < slot.topk.threshold_sq() {
                survivors.push(qi);
            }
        }
        if survivors.is_empty() {
            continue;
        }
        let series = fetcher.fetch(pos as usize)?;
        fetches += 1;
        for &qi in survivors.iter() {
            let slot = &batch.slots()[qi];
            let limit = slot.topk.threshold_sq();
            requests += 1;
            let local = &mut locals[qi];
            if let Some(d) = preps[qi].cascade(slot.values, series, band, limit, scratch, local) {
                slot.topk.insert(d, pos);
            }
        }
    }
    batch.count_io(fetches, requests);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::QueryStats;
    use dsidx_series::distance::dtw::dtw_sq;
    use dsidx_series::gen::DatasetKind;
    use dsidx_series::Dataset;
    use dsidx_tree::TreeConfig;

    fn fixture(n: usize) -> (Dataset, TreeConfig) {
        let config = TreeConfig::new(64, 8, 16).unwrap();
        let data = DatasetKind::Synthetic.generate(n, 64, 5);
        (data, config)
    }

    /// The whole fixture as one leaf: its words and positions.
    fn leaf_of(data: &Dataset, quantizer: &Quantizer) -> (Vec<Word>, Vec<u32>) {
        let words = data.iter().map(|s| quantizer.word(s)).collect();
        (words, (0..data.len() as u32).collect())
    }

    fn brute_dtw_topk(data: &Dataset, q: &[f32], band: usize, k: usize) -> Vec<(f32, u32)> {
        let mut all: Vec<(f32, u32)> = data
            .iter()
            .enumerate()
            .map(|(pos, s)| (dtw_sq(q, s, band), pos as u32))
            .collect();
        all.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    #[test]
    fn interval_table_lower_bounds_dtw() {
        let (data, config) = fixture(200);
        let quantizer = config.quantizer();
        let qs = DatasetKind::Synthetic.queries(3, 64, 9);
        for band in [0usize, 3, 6] {
            for q in qs.iter() {
                let prep = DtwPrepared::new(quantizer, q, band);
                for s in data.iter() {
                    let word = quantizer.word(s);
                    let lb = prep.table.lookup(&word);
                    let d = dtw_sq(q, s, band);
                    assert!(
                        lb <= d + d.abs() * 1e-4 + 1e-4,
                        "interval bound {lb} exceeds DTW {d} (band {band})"
                    );
                }
            }
        }
    }

    #[test]
    fn envelope_matches_direct_computation() {
        let (_, config) = fixture(1);
        let q = DatasetKind::Sald.queries(1, 64, 3);
        let prep = DtwPrepared::new(config.quantizer(), q.get(0), 4);
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        envelope(q.get(0), 4, &mut lo, &mut hi);
        assert_eq!(prep.lo_env, lo);
        assert_eq!(prep.hi_env, hi);
    }

    #[test]
    fn seed_from_entries_dtw_finds_leaf_minimum() {
        let (data, _) = fixture(100);
        let q = data.get(7);
        let topk = dsidx_sync::SharedTopK::new(1);
        let mut fetcher = SeriesFetcher::new(&data);
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        envelope(q, 3, &mut lo, &mut hi);
        let mut scratch = LeafScratch::new();
        let reals =
            seed_from_entries_dtw(0..20u32, &mut fetcher, q, &lo, &hi, 3, &topk, &mut scratch)
                .unwrap();
        // Only improvements are paid in full, and nothing after series 7
        // sets the best-so-far to zero can be one.
        assert!((1..=8).contains(&reals), "{reals}");
        // Series 7 is among the entries, so its DTW distance of 0 wins.
        assert_eq!(topk.matches(), vec![(0.0, 7)]);
    }

    #[test]
    fn single_query_leaf_cascade_equals_brute_force() {
        let (data, config) = fixture(220);
        let quantizer = config.quantizer();
        let (words, positions) = leaf_of(&data, quantizer);
        let qs = DatasetKind::Synthetic.queries(3, 64, 21);
        let band = 4;
        for q in qs.iter() {
            let prep = DtwPrepared::new(quantizer, q, band);
            let topk = dsidx_sync::SharedTopK::new(6);
            let mut fetcher = SeriesFetcher::new(&data);
            let mut stats = QueryStats::default();
            let fetched = process_leaf_entries_dtw(
                &words,
                &positions,
                &prep,
                &mut fetcher,
                q,
                band,
                &topk,
                &mut LeafScratch::new(),
                &mut stats,
            )
            .unwrap();
            assert_eq!(fetched, stats.lb_keogh_computed);
            let want = brute_dtw_topk(&data, q, band, 6);
            assert_eq!(
                topk.matches().iter().map(|m| m.1).collect::<Vec<_>>(),
                want.iter().map(|w| w.1).collect::<Vec<_>>()
            );
            // Every entry pays the entry bound; survivors resolve to
            // pruned, abandoned, or fully paid DTWs.
            assert_eq!(stats.lb_entry_computed, 220);
            assert_eq!(
                stats.lb_keogh_pruned + stats.dtw_abandoned + stats.real_computed,
                stats.lb_keogh_computed
            );
        }
    }

    #[test]
    fn batched_leaf_cascade_equals_brute_force() {
        let (data, config) = fixture(250);
        let quantizer = config.quantizer();
        let (words, positions) = leaf_of(&data, quantizer);
        let qs = DatasetKind::Synthetic.queries(4, 64, 13);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let band = 4;
        for k in [1usize, 5] {
            let batch = QueryBatch::new(quantizer, &qrefs, k);
            let preps: Vec<DtwPrepared> = qrefs
                .iter()
                .map(|q| DtwPrepared::new(quantizer, q, band))
                .collect();
            let active: Vec<usize> = (0..batch.len()).collect();
            let mut locals = vec![QueryStats::default(); batch.len()];
            let mut fetcher = SeriesFetcher::new(&data);
            batch_process_leaf_entries_dtw(
                &words,
                &positions,
                &mut fetcher,
                &batch,
                &active,
                &preps,
                band,
                &mut Vec::new(),
                &mut LeafScratch::new(),
                &mut locals,
            )
            .unwrap();
            batch.merge_locals(&locals);
            let (matches, stats) = batch.finish(0, QueryStats::default());
            for (qi, q) in qs.iter().enumerate() {
                let want = brute_dtw_topk(&data, q, band, k);
                assert_eq!(
                    matches[qi].iter().map(|m| m.pos).collect::<Vec<_>>(),
                    want.iter().map(|w| w.1).collect::<Vec<_>>(),
                    "q{qi} k={k}"
                );
                // Every entry paid an entry-level bound; survivors resolve
                // to pruned, abandoned, or fully paid DTWs.
                assert_eq!(stats.per_query[qi].lb_entry_computed, 250);
                let q = &stats.per_query[qi];
                assert_eq!(
                    q.lb_keogh_pruned + q.dtw_abandoned + q.real_computed,
                    q.lb_keogh_computed
                );
            }
        }
    }

    #[test]
    fn batch_seeding_dtw_tightens_every_query() {
        let (data, config) = fixture(60);
        let qs = DatasetKind::Synthetic.queries(3, 64, 11);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let batch = QueryBatch::new(config.quantizer(), &qrefs, 2);
        let preps: Vec<DtwPrepared> = qrefs
            .iter()
            .map(|q| DtwPrepared::new(config.quantizer(), q, 4))
            .collect();
        let mut fetcher = SeriesFetcher::new(&data);
        batch_seed_positions_dtw(&[3, 7, 19], &mut fetcher, &batch, &preps, 4).unwrap();
        for slot in batch.slots() {
            assert_eq!(slot.topk.len(), 2);
            assert!(slot.topk.threshold_sq().is_finite());
        }
        let (_, stats) = batch.finish(0, QueryStats::default());
        assert_eq!(stats.series_fetched, 3);
        assert_eq!(stats.series_requests, 9);
        for q in &stats.per_query {
            // Every position goes through the cascade and resolves to a
            // prune, an abandoned or a full DTW.
            assert_eq!(q.lb_keogh_computed, 3);
            assert_eq!(q.lb_keogh_pruned + q.dtw_abandoned + q.real_computed, 3);
            assert!(q.real_computed >= 2);
        }
    }

    #[test]
    fn empty_batch_and_empty_positions_are_no_ops() {
        let (data, config) = fixture(10);
        let batch = QueryBatch::new(config.quantizer(), &[], 2);
        let mut fetcher = SeriesFetcher::new(&data);
        batch_seed_positions_dtw(&[1, 2], &mut fetcher, &batch, &[], 3).unwrap();
        let qs = DatasetKind::Synthetic.queries(1, 64, 1);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let batch = QueryBatch::new(config.quantizer(), &qrefs, 2);
        let preps = [DtwPrepared::new(config.quantizer(), qs.get(0), 3)];
        batch_seed_positions_dtw(&[], &mut fetcher, &batch, &preps, 3).unwrap();
        let (_, stats) = batch.finish(0, QueryStats::default());
        assert_eq!(stats.series_fetched, 0);
    }
}
