//! UCR-style scans under Dynamic Time Warping (the paper's §V extension).
//!
//! The index-free baseline the DTW engines are measured against, so it
//! gets exactly what they get: every candidate of every scan here goes
//! through the one raw-series cascade
//! ([`dtw_cascade`]) — LB_Keogh
//! against the query's envelope, the reversed LB_Keogh against the
//! candidate's, then banded DTW abandoning on the bounds' unpaid remainder
//! — at the scan's current best-so-far. There are two scans: the serial
//! 1-NN reference ([`scan_dtw`]) and the one parallel scan
//! ([`scan_dtw_parallel`]: a batch of queries, k-NN, any source). They
//! differ in how positions are handed out and which [`Pruner`] collects;
//! the per-candidate body is `Warped::offer` in both.

use std::sync::Arc;

use dsidx_obs::phase::{Phase, PhaseBreakdown, PhaseClock};
use dsidx_query::{finish_knn, BatchStats, ErrorSlot, QueryStats, SeriesFetcher, ShardView};
use dsidx_series::distance::dtw::{dtw_cascade, dtw_sq, envelope, DtwScratch};
use dsidx_series::{Dataset, Match};
use dsidx_storage::{RawSource, StorageError};
use dsidx_sync::{AtomicBest, OffsetTopK, Pruner, WorkQueue};
use parking_lot::Mutex;

/// A query as the scans see it: its values and its envelope under the
/// band, computed once.
struct Warped<'q> {
    query: &'q [f32],
    lower: Vec<f32>,
    upper: Vec<f32>,
    band: usize,
}

impl<'q> Warped<'q> {
    fn new(query: &'q [f32], band: usize) -> Self {
        let (mut lower, mut upper) = (Vec::new(), Vec::new());
        envelope(query, band, &mut lower, &mut upper);
        Self {
            query,
            lower,
            upper,
            band,
        }
    }

    /// The loop body of every scan: `series` (at `pos`) through the
    /// cascade at `pruner`'s current threshold, counted into `stats`,
    /// recorded if a full DTW came out below it.
    fn offer<P: Pruner>(
        &self,
        series: &[f32],
        pos: u32,
        pruner: &P,
        scratch: &mut DtwScratch,
        stats: &mut QueryStats,
    ) {
        let limit = pruner.threshold_sq();
        let verdict = dtw_cascade(
            self.query,
            &self.lower,
            &self.upper,
            series,
            self.band,
            limit,
            scratch,
        );
        if let Some(d) = stats.count_dtw(verdict, scratch.cells()) {
            pruner.insert(d, pos);
        }
    }
}

/// Exact 1-NN under banded DTW by serial scan, every candidate through the
/// cascade against the best-so-far.
///
/// Returns `None` for an empty dataset.
///
/// # Panics
/// Panics if the query length differs from the dataset's series length.
#[must_use]
pub fn scan_dtw(data: &Dataset, query: &[f32], band: usize) -> Option<Match> {
    assert_eq!(query.len(), data.series_len(), "query length mismatch");
    if data.is_empty() {
        return None;
    }
    let warped = Warped::new(query, band);
    let best = AtomicBest::new();
    let mut scratch = DtwScratch::new();
    let mut stats = QueryStats::default();
    for (pos, series) in data.iter().enumerate() {
        warped.offer(series, pos as u32, &best, &mut scratch, &mut stats);
    }
    let (dist_sq, pos) = best.get();
    // Against +inf the cascade completes whatever finite series it is
    // given, so position 0 at the latest set a finite best.
    debug_assert!(dist_sq.is_finite(), "finite inputs give a finite DTW");
    Some(Match::new(pos, dist_sq))
}

/// Exact k-NN under banded DTW for a *batch* of queries by one parallel
/// scan over any [`RawSource`] — the one parallel DTW scan; a single query
/// is a batch of one, 1-NN is `k = 1`. Each position's series is read once
/// (zero-copy in memory, a device-charged positioned read on disk) and
/// goes through the cascade of every query in the batch: one data pass, B
/// threshold checks, a single pool broadcast. The index-free DTW baseline,
/// and the exact-DTW schedule the facade uses for engines without a DTW
/// index path — on disk included.
///
/// Each answer is the up-to-`k` nearest series sorted ascending by
/// `(distance, position)` — fewer than `k` when the collection is smaller,
/// empty for an empty source — deterministic across runs and thread counts
/// and independent of what else is in the batch; the [`BatchStats`] report
/// the single broadcast and the shared reads. A read failing mid-scan
/// surfaces as `Err`: workers record the first failure and stop claiming
/// chunks.
///
/// When `shard` is set, every query prunes against (and inserts into) the
/// shared [`SharedPruners`](dsidx_query::SharedPruners) collectors with
/// positions rebased by the shard's global offset, so a tight match found
/// by another shard raises this scan's abandon thresholds mid-flight.
///
/// # Errors
/// Propagates raw-source I/O failures (the in-memory path is infallible).
///
/// # Panics
/// Panics if any query length differs from the source's series length,
/// `threads == 0`, or `k == 0`.
pub fn scan_dtw_parallel(
    source: &impl RawSource,
    queries: &[&[f32]],
    band: usize,
    k: usize,
    threads: usize,
    shard: Option<ShardView<'_>>,
) -> Result<(Vec<Vec<Match>>, BatchStats), StorageError> {
    assert!(threads > 0, "thread count must be non-zero");
    for q in queries {
        assert_eq!(q.len(), source.series_len(), "query length mismatch");
    }
    let mut clock = PhaseClock::start();
    struct Slot<'q> {
        warped: Warped<'q>,
        topk: OffsetTopK,
    }
    let slots: Vec<Slot<'_>> = queries
        .iter()
        .enumerate()
        .map(|(qi, &query)| {
            let topk = match shard {
                Some(view) => OffsetTopK::shared(Arc::clone(&view.pruners.topks()[qi]), view.base),
                None => OffsetTopK::fresh(k),
            };
            Slot {
                warped: Warped::new(query, band),
                topk,
            }
        })
        .collect();
    let prepare_nanos = clock.lap();
    if source.count() == 0 || slots.is_empty() {
        let per_query = vec![QueryStats::default(); slots.len()];
        return Ok((
            vec![Vec::new(); slots.len()],
            BatchStats {
                per_query,
                ..BatchStats::default()
            },
        ));
    }

    let mut phase = PhaseBreakdown::new();
    phase.record(Phase::Prepare, prepare_nanos);

    // Position 0 seeds every query with one unconditional full DTW.
    {
        let mut fetcher = SeriesFetcher::new(source);
        let first_series = fetcher
            .fetch(0)
            .map_err(|e| e.in_phase(Phase::Seed.name()))?;
        for slot in &slots {
            let first = dtw_sq(slot.warped.query, first_series, band);
            slot.topk.insert(first, 0);
        }
    }
    phase.record(Phase::Seed, clock.lap());

    let queue = WorkQueue::new(source.count());
    let errors = ErrorSlot::for_phase(Phase::DtwCascade);
    let pool = dsidx_sync::pool::global(threads);
    let tallies = Mutex::new(vec![QueryStats::default(); slots.len()]);
    pool.broadcast(&|_worker| {
        // Accumulate locally, merge once per worker.
        let mut locals = vec![QueryStats::default(); slots.len()];
        let mut fetcher = SeriesFetcher::new(source);
        let mut scratch = DtwScratch::new();
        'claims: while let Some(range) = queue.claim_chunk(64) {
            if errors.is_set() {
                break;
            }
            for pos in range {
                let series = match fetcher.fetch(pos) {
                    Ok(s) => s,
                    Err(e) => {
                        errors.record(e);
                        break 'claims;
                    }
                };
                for (slot, local) in slots.iter().zip(&mut locals) {
                    slot.warped
                        .offer(series, pos as u32, &slot.topk, &mut scratch, local);
                }
            }
        }
        for (tally, local) in tallies.lock().iter_mut().zip(&locals) {
            *tally = tally.merged(local);
        }
    });
    errors.take()?;
    phase.record(Phase::DtwCascade, clock.lap());

    let mut matches = Vec::with_capacity(slots.len());
    let mut per_query = Vec::with_capacity(slots.len());
    for (slot, tally) in slots.iter().zip(tallies.into_inner()) {
        let (m, mut s) = finish_knn(slot.topk.inner(), Some(tally));
        // Position 0 paid one unconditional full DTW for the seed.
        s.real_computed += 1;
        matches.push(m);
        per_query.push(s);
    }
    // The scan fetches every position once; the seed step fetched
    // position 0 once more (its full-DTW threshold for every query).
    let n = source.count() as u64;
    let fetched = n + 1;
    Ok((
        matches,
        BatchStats {
            broadcasts: 1,
            series_fetched: fetched,
            // Every fetched series is examined (LB_Keogh reads the raw
            // values, the seed pays full DTWs) by every query.
            series_requests: fetched * queries.len() as u64,
            shared: QueryStats {
                phase,
                ..QueryStats::default()
            },
            per_query,
        },
    ))
}

/// Brute-force banded DTW k-NN (test oracle; no lower bounds, no
/// abandons): the `k` smallest DTW distances sorted ascending by
/// `(distance, position)`.
#[must_use]
pub fn brute_force_dtw_knn(data: &Dataset, query: &[f32], band: usize, k: usize) -> Vec<Match> {
    assert_eq!(query.len(), data.series_len(), "query length mismatch");
    let mut all: Vec<Match> = data
        .iter()
        .enumerate()
        .map(|(pos, series)| Match::new(pos as u32, dtw_sq(query, series, band)))
        .collect();
    all.sort_unstable_by(|a, b| {
        a.dist_sq
            .partial_cmp(&b.dist_sq)
            .expect("finite distances")
            .then(a.pos.cmp(&b.pos))
    });
    all.truncate(k);
    all
}

/// Brute-force banded DTW scan (test oracle; no lower bounds, no abandons).
#[must_use]
pub fn brute_force_dtw(data: &Dataset, query: &[f32], band: usize) -> Option<Match> {
    assert_eq!(query.len(), data.series_len(), "query length mismatch");
    let mut best: Option<Match> = None;
    for (pos, series) in data.iter().enumerate() {
        let d = dtw_sq(query, series, band);
        if best.is_none_or(|b| d < b.dist_sq) {
            best = Some(Match::new(pos as u32, d));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_series::gen::DatasetKind;

    /// One query through [`scan_dtw_parallel`] as a batch of one.
    fn knn(
        data: &Dataset,
        q: &[f32],
        band: usize,
        k: usize,
        threads: usize,
    ) -> (Vec<Match>, QueryStats) {
        let (mut matches, stats) = scan_dtw_parallel(data, &[q], band, k, threads, None).unwrap();
        (matches.pop().expect("batch of one"), stats.into_single())
    }

    #[test]
    fn scan_matches_brute_force() {
        for kind in DatasetKind::ALL {
            let data = kind.generate(150, 48, 31);
            let queries = kind.queries(5, 48, 31);
            for band in [0usize, 2, 5] {
                for q in queries.iter() {
                    let want = brute_force_dtw(&data, q, band).unwrap();
                    let got = scan_dtw(&data, q, band).unwrap();
                    assert_eq!(got.pos, want.pos, "{} band={band}", kind.name());
                    assert!((got.dist_sq - want.dist_sq).abs() <= want.dist_sq * 1e-4 + 1e-4);
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let data = DatasetKind::Sald.generate(200, 64, 13);
        let queries = DatasetKind::Sald.queries(4, 64, 13);
        for q in queries.iter() {
            let want = scan_dtw(&data, q, 6).unwrap();
            for threads in [1usize, 3, 8] {
                let got = knn(&data, q, 6, 1, threads).0[0];
                assert_eq!(got.pos, want.pos);
                assert!((got.dist_sq - want.dist_sq).abs() <= want.dist_sq * 1e-4 + 1e-4);
            }
        }
    }

    #[test]
    fn parallel_stats_account_every_position() {
        let data = DatasetKind::Synthetic.generate(180, 48, 29);
        let queries = DatasetKind::Synthetic.queries(3, 48, 29);
        for q in queries.iter() {
            let (m, stats) = knn(&data, q, 4, 1, 3);
            assert_eq!(m[0].pos, brute_force_dtw(&data, q, 4).unwrap().pos);
            // Every position pays one LB_Keogh bound and lands in exactly
            // one bucket: pruned, abandoned, or fully paid (minus the
            // unconditional seed DTW at position 0).
            assert_eq!(stats.lb_keogh_computed, 180);
            assert_eq!(
                stats.lb_keogh_pruned + stats.dtw_abandoned + stats.real_computed - 1,
                180
            );
            assert_eq!(stats.lb_total(), stats.lb_keogh_computed);
        }
    }

    #[test]
    fn knn_dtw_equals_brute_force_topk() {
        let data = DatasetKind::Sald.generate(160, 48, 23);
        let queries = DatasetKind::Sald.queries(3, 48, 23);
        for q in queries.iter() {
            for k in [1usize, 5, 20, 200] {
                let want = brute_force_dtw_knn(&data, q, 4, k);
                for threads in [1usize, 3] {
                    let (got, stats) = knn(&data, q, 4, k, threads);
                    assert_eq!(got.len(), want.len(), "k={k} x{threads}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.pos, w.pos, "k={k} x{threads}");
                        assert!((g.dist_sq - w.dist_sq).abs() <= w.dist_sq * 1e-4 + 1e-4);
                    }
                    // The cascade reports through the unified counters.
                    assert_eq!(stats.lb_keogh_computed, 160);
                    assert!(stats.real_computed >= 1);
                }
            }
        }
    }

    #[test]
    fn knn_dtw_at_k1_matches_nn_scan() {
        let data = DatasetKind::Synthetic.generate(120, 48, 41);
        let queries = DatasetKind::Synthetic.queries(3, 48, 41);
        for q in queries.iter() {
            let nn = scan_dtw(&data, q, 5).unwrap();
            let (got, _) = knn(&data, q, 5, 1, 3);
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].pos, nn.pos);
        }
    }

    #[test]
    fn knn_dtw_batch_equals_sequential_and_brute_force() {
        let data = DatasetKind::Sald.generate(180, 48, 19);
        let qs = DatasetKind::Sald.queries(5, 48, 19);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        for band in [0usize, 4] {
            for k in [1usize, 6] {
                for threads in [1usize, 3] {
                    let (batched, stats) =
                        scan_dtw_parallel(&data, &qrefs, band, k, threads, None).unwrap();
                    assert_eq!(stats.broadcasts, 1);
                    assert!(stats.broadcasts_per_query() < 1.0);
                    // Every position once, plus the seed's re-read of
                    // position 0.
                    assert_eq!(stats.series_fetched, 181);
                    for (qi, q) in qs.iter().enumerate() {
                        let want = brute_force_dtw_knn(&data, q, band, k);
                        let (single, _) = knn(&data, q, band, k, threads);
                        assert_eq!(
                            batched[qi].iter().map(|m| m.pos).collect::<Vec<_>>(),
                            want.iter().map(|m| m.pos).collect::<Vec<_>>(),
                            "q{qi} band={band} k={k} x{threads}"
                        );
                        assert_eq!(batched[qi], single, "q{qi} band={band} k={k} x{threads}");
                        // Every position pays one LB_Keogh per query.
                        assert_eq!(stats.per_query[qi].lb_keogh_computed, 180);
                    }
                }
            }
        }
    }

    #[test]
    fn knn_dtw_batch_on_empty_inputs() {
        let data = Dataset::new(8).unwrap();
        let q = [0.0f32; 8];
        let (m, stats) = scan_dtw_parallel(&data, &[&q], 2, 3, 2, None).unwrap();
        assert_eq!(m, vec![Vec::new()]);
        assert_eq!(stats.broadcasts, 0);
        let data = DatasetKind::Synthetic.generate(20, 8, 1);
        let (m, stats) = scan_dtw_parallel(&data, &[], 2, 3, 2, None).unwrap();
        assert!(m.is_empty());
        assert!(stats.per_query.is_empty());
    }

    #[test]
    fn knn_dtw_batch_over_flaky_source_errors_instead_of_panicking() {
        let data = DatasetKind::Sald.generate(120, 48, 5);
        let qs = DatasetKind::Sald.queries(2, 48, 5);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        // The scan reads every position, so any budget below the count
        // must fail — in the seed fetch or inside the broadcast.
        for budget in [0u64, 1, 40, 100] {
            let flaky = dsidx_storage::FlakySource::new(data.clone(), budget);
            assert!(
                scan_dtw_parallel(&flaky, &qrefs, 3, 4, 3, None).is_err(),
                "budget {budget} cannot cover a 120-series scan"
            );
        }
        // An unconstrained budget answers exactly like the dataset.
        let flaky = dsidx_storage::FlakySource::new(data.clone(), u64::MAX);
        let (via_flaky, _) = scan_dtw_parallel(&flaky, &qrefs, 3, 4, 3, None).unwrap();
        let (via_data, _) = scan_dtw_parallel(&data, &qrefs, 3, 4, 3, None).unwrap();
        assert_eq!(via_flaky, via_data);
    }

    #[test]
    fn knn_dtw_on_empty_dataset_is_empty() {
        let data = Dataset::new(8).unwrap();
        let (got, stats) = knn(&data, &[0.0; 8], 2, 3, 4);
        assert!(got.is_empty());
        assert_eq!(stats, QueryStats::default());
    }

    #[test]
    fn dtw_finds_warped_copy_that_ed_misses() {
        // Plant a time-shifted copy of the query; DTW should match it with
        // near-zero distance.
        let base = DatasetKind::Synthetic.generate(50, 64, 3);
        let mut flat = Vec::new();
        let shifted: Vec<f32> = {
            let orig = base.get(7);
            let mut s = orig.to_vec();
            s.rotate_right(2);
            s
        };
        for (i, series) in base.iter().enumerate() {
            if i == 20 {
                flat.extend_from_slice(&shifted);
            } else {
                flat.extend_from_slice(series);
            }
        }
        let data = Dataset::from_flat(flat, 64).unwrap();
        let q = base.get(7);
        let dtw_match = scan_dtw(&data, q, 4).unwrap();
        // Positions 7 (original) and 20 (shifted) are both near-perfect under
        // DTW; either is acceptable, but the distance must be tiny.
        assert!(
            dtw_match.pos == 7 || dtw_match.pos == 20,
            "pos={}",
            dtw_match.pos
        );
        assert!(dtw_match.dist_sq < 1.0, "dist_sq={}", dtw_match.dist_sq);
    }

    #[test]
    fn empty_dataset_returns_none() {
        let data = Dataset::new(8).unwrap();
        assert!(scan_dtw(&data, &[0.0; 8], 2).is_none());
        assert!(knn(&data, &[0.0; 8], 2, 1, 4).0.is_empty());
    }

    #[test]
    fn band_zero_equals_euclidean_scan() {
        let data = DatasetKind::Seismic.generate(100, 32, 17);
        let queries = DatasetKind::Seismic.queries(3, 32, 17);
        for q in queries.iter() {
            let ed = crate::ed::scan_ed(&data, q).unwrap();
            let dtw = scan_dtw(&data, q, 0).unwrap();
            assert_eq!(ed.pos, dtw.pos);
            assert!((ed.dist_sq - dtw.dist_sq).abs() <= ed.dist_sq * 1e-3 + 1e-3);
        }
    }
}
