//! UCR Suite-p, the paper's parallel scan competitor, and the crate's one
//! scan: the serial UCR Suite is its one-worker case, 1-NN is `k = 1`, an
//! on-disk collection is a file source.

use dsidx_obs::phase::{Phase, PhaseClock};
use dsidx_query::{
    BatchStats, ErrorSlot, Measure, QueryBatch, QueryStats, SeriesFetcher, ShardView,
};
use dsidx_series::distance::dtw::{dtw_cascade, envelope, DtwScratch};
use dsidx_series::distance::{abandon_order, euclidean_sq_ordered};
use dsidx_series::Match;
use dsidx_storage::{RawSource, StorageError};
use dsidx_sync::WorkQueue;

/// Positions per Fetch&Inc claim, read with one fetch: large enough to
/// amortize the atomic and, on a file, the seek; small enough to balance
/// stragglers.
const CHUNK: usize = 256;

/// A query as the scan sees it: what UCR Suite prepares under its measure.
enum Ucr {
    /// The query's point indices by decreasing magnitude, the order the
    /// Euclidean distance is accumulated (and abandoned) in.
    Ed(Vec<u32>),
    /// The band and the query's envelope under it, for the cascade.
    Dtw {
        band: usize,
        lower: Vec<f32>,
        upper: Vec<f32>,
    },
}

impl Ucr {
    fn new(query: &[f32], measure: Measure) -> Self {
        match measure {
            Measure::Euclidean => Ucr::Ed(abandon_order(query)),
            Measure::Dtw { band } => {
                let (mut lower, mut upper) = (Vec::new(), Vec::new());
                envelope(query, band, &mut lower, &mut upper);
                Ucr::Dtw { band, lower, upper }
            }
        }
    }

    /// The distance from `query` to `series` if it is below `limit`,
    /// booked in `stats`: a Euclidean distance counts `real_computed` when
    /// it completes; a DTW candidate goes through the cascade and is
    /// booked by [`QueryStats::count_dtw`]. An infinite limit never
    /// abandons.
    fn distance(
        &self,
        query: &[f32],
        series: &[f32],
        limit: f32,
        scratch: &mut DtwScratch,
        stats: &mut QueryStats,
    ) -> Option<f32> {
        match self {
            Ucr::Ed(order) => {
                let d = euclidean_sq_ordered(query, series, order, limit)?;
                stats.real_computed += 1;
                Some(d)
            }
            Ucr::Dtw { band, lower, upper } => {
                let verdict = dtw_cascade(query, lower, upper, series, *band, limit, scratch);
                stats.count_dtw(verdict, scratch.cells())
            }
        }
    }
}

/// Exact k-NN for a batch of queries by one scan over any [`RawSource`]:
/// the UCR Suite baseline, serial at `threads = 1` and UCR Suite-p above.
/// Position 0 seeds every query with one full distance; then workers
/// claim 256 positions at a time by Fetch&Inc and read each chunk
/// with one [`SeriesFetcher::fetch_span`] (zero-copy in memory, one device
/// read on a file). Every series goes through every query's early-abandoning
/// distance at that query's current threshold: the Euclidean distance in
/// decreasing query magnitude order, or the DTW cascade (LB_Keogh, reversed
/// LB_Keogh, banded DTW abandoning on the bounds' unpaid remainder). The
/// index-free baseline, and the exact-DTW schedule of the engines without
/// a DTW index path, on disk included.
///
/// Each answer is the up-to-`k` nearest series sorted ascending by
/// `(distance, position)` — fewer than `k` when the collection is smaller,
/// empty for an empty source — deterministic across runs and thread
/// counts and independent of what else is in the batch. The
/// [`BatchStats`] report one broadcast, `count + 1` series read (the seed
/// reads position 0 twice) each serving every query, and per query the
/// seed's full distance as one `real_computed` plus the scan's work, booked
/// under [`Phase::Verify`] (Euclidean) or [`Phase::DtwCascade`]. A read
/// failing mid-scan surfaces as `Err`: workers record the first failure
/// and stop claiming chunks.
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
/// `threads == 0`, or `k == 0` for a non-empty batch without `shard`.
pub fn scan(
    source: &impl RawSource,
    queries: &[&[f32]],
    measure: Measure,
    k: usize,
    threads: usize,
    shard: Option<ShardView<'_>>,
) -> Result<(Vec<Vec<Match>>, BatchStats), StorageError> {
    assert!(threads > 0, "thread count must be non-zero");
    for q in queries {
        assert_eq!(q.len(), source.series_len(), "query length mismatch");
    }
    let mut clock = PhaseClock::start();
    let batch = QueryBatch::prepared(queries, k, shard, |q| Ucr::new(q, measure));
    let count = source.count();
    if count == 0 || batch.is_empty() {
        return Ok(batch.finish(0));
    }
    batch.record_phase(Phase::Prepare, clock.lap());

    let mut fetcher = SeriesFetcher::new(source);
    let first = fetcher
        .fetch(0)
        .map_err(|e| e.in_phase(Phase::Seed.name()))?;
    let mut scratch = DtwScratch::new();
    for slot in batch.slots() {
        // Booked as one real distance, nothing else. A distance that is
        // not finite (an infinite value, or one whose square overflows)
        // seeds nothing: it is never a neighbour.
        if let Some(seed) = slot.prep.distance(
            slot.values,
            first,
            f32::INFINITY,
            &mut scratch,
            &mut QueryStats::default(),
        ) {
            slot.topk.insert(seed, 0);
        }
    }
    let seeded = QueryStats {
        real_computed: 1,
        ..QueryStats::default()
    };
    batch.merge_locals(&vec![seeded; batch.len()]);
    batch.record_phase(Phase::Seed, clock.lap());

    let phase = match measure {
        Measure::Euclidean => Phase::Verify,
        Measure::Dtw { .. } => Phase::DtwCascade,
    };
    let queue = WorkQueue::new(count);
    let errors = ErrorSlot::for_phase(phase);
    dsidx_sync::pool::global(threads).broadcast(&|_worker| {
        let mut locals = vec![QueryStats::default(); batch.len()];
        let mut fetcher = SeriesFetcher::new(source);
        let mut scratch = DtwScratch::new();
        while let Some(range) = queue.claim_chunk(CHUNK) {
            if errors.is_set() {
                break;
            }
            let span = match fetcher.fetch_span(range.start, range.len()) {
                Ok(span) => span,
                Err(e) => {
                    errors.record(e);
                    break;
                }
            };
            for (pos, series) in range.zip(span.chunks_exact(source.series_len())) {
                for (slot, local) in batch.slots().iter().zip(&mut locals) {
                    let limit = slot.topk.threshold_sq();
                    if let Some(d) =
                        slot.prep
                            .distance(slot.values, series, limit, &mut scratch, local)
                    {
                        slot.topk.insert(d, pos as u32);
                    }
                }
            }
        }
        batch.merge_locals(&locals);
    });
    errors.take()?;
    batch.record_phase(phase, clock.lap());
    let fetched = count as u64 + 1;
    batch.count_io(fetched, fetched * batch.len() as u64);
    Ok(batch.finish(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{brute_force, brute_force_dtw_knn, brute_force_knn};
    use dsidx_series::gen::DatasetKind;
    use dsidx_series::Dataset;
    use dsidx_storage::{write_dataset, DatasetFile, Device, DeviceProfile, FlakySource};
    use std::sync::{Arc, Mutex};

    /// One query, 1-NN, Euclidean.
    fn nn(source: &impl RawSource, q: &[f32], threads: usize) -> Option<Match> {
        let (mut matches, _) = scan(source, &[q], Measure::Euclidean, 1, threads, None).unwrap();
        matches.pop().expect("batch of one").pop()
    }

    #[test]
    fn parallel_matches_serial_for_all_kinds_and_thread_counts() {
        for kind in DatasetKind::ALL {
            let data = kind.generate(500, 64, 21);
            let queries = kind.queries(5, 64, 21);
            for q in queries.iter() {
                let want = nn(&data, q, 1).unwrap();
                for threads in [2usize, 4, 8] {
                    assert_eq!(
                        nn(&data, q, threads).unwrap(),
                        want,
                        "{} x{threads}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let data = DatasetKind::Synthetic.generate(1000, 32, 5);
        let q = DatasetKind::Synthetic.queries(1, 32, 5);
        let a = nn(&data, q.get(0), 8).unwrap();
        for _ in 0..5 {
            let b = nn(&data, q.get(0), 8).unwrap();
            assert_eq!(a, b, "ties must resolve deterministically");
        }
    }

    #[test]
    fn empty_dataset_returns_none() {
        let data = Dataset::new(8).unwrap();
        assert!(nn(&data, &[0.0; 8], 4).is_none());
    }

    #[test]
    fn finds_planted_neighbor() {
        let data = DatasetKind::Seismic.generate(300, 64, 7);
        let mut q = data.get(123).to_vec();
        // Perturb slightly; the planted original must still win.
        for v in &mut q {
            *v += 0.001;
        }
        let got = nn(&data, &q, 6).unwrap();
        assert_eq!(got.pos, 123);
        assert_eq!(got.pos, brute_force(&data, &q).unwrap().pos);
    }

    /// A resident source that logs every read: `(start, count)`, a single
    /// series read being a span of one.
    struct LoggingSource<'a> {
        data: &'a Dataset,
        log: Mutex<Vec<(usize, usize)>>,
    }

    impl RawSource for LoggingSource<'_> {
        fn count(&self) -> usize {
            self.data.len()
        }

        fn series_len(&self) -> usize {
            self.data.series_len()
        }

        fn read_into(&self, pos: usize, out: &mut [f32]) -> Result<(), StorageError> {
            self.log.lock().unwrap().push((pos, 1));
            out.copy_from_slice(self.data.get(pos));
            Ok(())
        }

        fn read_span(
            &self,
            start: usize,
            count: usize,
            out: &mut Vec<f32>,
        ) -> Result<(), StorageError> {
            self.log.lock().unwrap().push((start, count));
            let len = self.data.series_len();
            out.clear();
            out.extend_from_slice(&self.data.as_flat()[start * len..(start + count) * len]);
            Ok(())
        }
    }

    #[test]
    fn one_worker_reads_one_span_per_chunk_after_the_seed() {
        let data = DatasetKind::Synthetic.generate(3 * CHUNK + 17, 32, 3);
        let qs = DatasetKind::Synthetic.queries(3, 32, 3);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        for measure in [Measure::Euclidean, Measure::Dtw { band: 3 }] {
            let source = LoggingSource {
                data: &data,
                log: Mutex::new(Vec::new()),
            };
            let (got, stats) = scan(&source, &qrefs, measure, 4, 1, None).unwrap();
            let (want, _) = scan(&data, &qrefs, measure, 4, 1, None).unwrap();
            assert_eq!(got, want, "{measure:?}");
            assert_eq!(
                source.log.into_inner().unwrap(),
                [
                    (0, 1),
                    (0, CHUNK),
                    (CHUNK, CHUNK),
                    (2 * CHUNK, CHUNK),
                    (3 * CHUNK, 17)
                ],
                "{measure:?}"
            );
            assert_eq!(stats.series_fetched, data.len() as u64 + 1);
            assert_eq!(stats.series_requests, 3 * (data.len() as u64 + 1));
        }
    }

    #[test]
    fn one_worker_reads_a_file_in_order() {
        let dir = std::env::temp_dir().join(format!("dsidx-ucr-ssd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.dsidx");
        let data = DatasetKind::Sald.generate(2 * CHUNK + 40, 64, 9);
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let q = DatasetKind::Sald.queries(1, 64, 9);
        for measure in [Measure::Euclidean, Measure::Dtw { band: 4 }] {
            let device = Arc::new(Device::new(DeviceProfile::SSD));
            let file = DatasetFile::open(&path, Arc::clone(&device)).unwrap();
            device.reset_stats();
            let (on_file, _) = scan(&file, &[q.get(0)], measure, 3, 1, None).unwrap();
            let (resident, _) = scan(&data, &[q.get(0)], measure, 3, 1, None).unwrap();
            assert_eq!(on_file, resident, "{measure:?}");
            let io = device.stats();
            // Every series once, plus the seed's read of position 0.
            assert_eq!(
                io.bytes_read,
                (data.len() as u64 + 1) * 64 * 4,
                "{measure:?}"
            );
            assert!(io.seeks <= 2, "{measure:?}: {} seeks", io.seeks);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_equals_brute_force_on_every_source_and_width() {
        let dir = std::env::temp_dir().join(format!("dsidx-ucr-all-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.dsidx");
        let data = DatasetKind::Sald.generate(CHUNK + 150, 48, 17);
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let file = DatasetFile::open(&path, Arc::new(Device::unthrottled())).unwrap();
        let flaky = FlakySource::new(data.clone(), u64::MAX);
        let qs = DatasetKind::Sald.queries(3, 48, 17);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        for measure in [Measure::Euclidean, Measure::Dtw { band: 4 }] {
            for k in [1usize, 10] {
                let want: Vec<Vec<u32>> = qrefs
                    .iter()
                    .map(|q| {
                        let oracle = match measure {
                            Measure::Euclidean => brute_force_knn(&data, q, k),
                            Measure::Dtw { band } => brute_force_dtw_knn(&data, q, band, k),
                        };
                        oracle.iter().map(|m| m.pos).collect()
                    })
                    .collect();
                let (serial, _) = scan(&data, &qrefs, measure, k, 1, None).unwrap();
                for threads in [1usize, 2, 4] {
                    let label = format!("{measure:?} k={k} x{threads}");
                    let (on_data, _) = scan(&data, &qrefs, measure, k, threads, None).unwrap();
                    let (on_file, _) = scan(&file, &qrefs, measure, k, threads, None).unwrap();
                    let (on_flaky, _) = scan(&flaky, &qrefs, measure, k, threads, None).unwrap();
                    let positions: Vec<Vec<u32>> = on_data
                        .iter()
                        .map(|a| a.iter().map(|m| m.pos).collect())
                        .collect();
                    assert_eq!(positions, want, "{label}");
                    assert_eq!(on_data, serial, "{label}");
                    assert_eq!(on_file, serial, "{label}");
                    assert_eq!(on_flaky, serial, "{label}");
                    // A budget short of the scan's reads fails, whether in
                    // the seed or inside the broadcast.
                    for budget in [0u64, 1, 200] {
                        let short = FlakySource::new(data.clone(), budget);
                        assert!(
                            scan(&short, &qrefs, measure, k, threads, None).is_err(),
                            "{label}"
                        );
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
