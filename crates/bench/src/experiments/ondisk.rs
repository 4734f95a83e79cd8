//! The closed engine matrix on disk — all four engines answering from the
//! same dataset file through `DiskIndex`, with raw reads charged to the
//! modeled device.
//!
//! The paper keeps MESSI in memory; this workspace genericizes its query
//! paths over `RawSource`, so the tree-based schedule competes with
//! ADS+/ParIS/ParIS+ on one storage plane. The observable claims this
//! experiment pins, per engine and measure:
//!
//! * **broadcasts per query** — the batch amortization survives the move
//!   to disk (MESSI still answers a whole batch in ≤ 1 broadcast,
//!   self-asserted; ParIS keeps its 2, and so does ADS+, which runs
//!   ParIS's scan on a one-worker pool);
//! * **device-charged bytes read** and **raw series fetched** — how much
//!   raw data each engine's pruning actually touches, the paper's reason
//!   tree-based query answering wins on slow devices;
//! * **one read per request** (`series_fetched == series_requests`) on
//!   every row whose exact path is an index — ADS+, ParIS and ParIS+ seed
//!   and verify each query from its own reads, and MESSI runs the same
//!   claim-and-help schedule on disk as in memory — checked here under
//!   real worker threads; the scan engines' DTW rows run the UCR scan,
//!   which shares each read across the batch, so there fetches only never
//!   exceed requests (`series_fetched <= series_requests`); all
//!   self-asserted.

use crate::{disk_dataset, f, ms, queries_planted, time, Scale, Table};
use dsidx::prelude::*;

/// Neighbors per query.
const K: usize = 5;
/// Sakoe-Chiba half-width for the DTW rows, as a fraction of length.
const BAND_DIVISOR: usize = 20;

/// Runs this experiment at the given scale, printing its table and CSV.
///
/// # Panics
/// Panics (self-assertion) if on-disk MESSI issues more than one broadcast
/// per batch, an index path fetches other than once per request, or the
/// UCR scan reports more raw fetches than requests.
pub fn run(scale: &Scale) {
    let kind = DatasetKind::Synthetic;
    let len = scale.len_for(kind);
    let path = disk_dataset(kind, scale.disk_series, len);
    let workdir = crate::data_dir();
    let options = Options::default().with_threads(0);
    let qs = queries_planted(kind, scale.disk_queries, scale);
    let batch: Vec<&[f32]> = qs.iter().collect();
    let band = len / BAND_DIVISOR;

    let mut table = Table::new(
        "ondisk",
        &[
            "engine",
            "measure",
            "avg_query_ms",
            "broadcasts_per_query",
            "bytes_read_per_query",
            "series_fetched_per_query",
            "real_per_query",
            "phase_ms_per_query",
            "phase_top",
        ],
    );
    let nq = batch.len() as u64;
    for engine in Engine::ALL {
        let idx = DiskIndex::build(&path, &workdir, engine, &options, DeviceProfile::SSD)
            .expect("on-disk build");
        for measure in [Measure::Euclidean, Measure::Dtw { band }] {
            let spec = QuerySpec::knn(K).measure(measure).with_stats();
            idx.file().device().reset_stats();
            let (answers, t) = time(|| idx.search(&batch, &spec).expect("on-disk query"));
            let stats = answers.stats().expect("stats requested");
            let bytes = idx.file().device().stats().bytes_read;
            #[allow(clippy::cast_precision_loss)] // display-only ratio
            let bpq = stats.broadcasts as f64 / nq as f64;
            let phase = stats.total().phase;
            let phase_top = phase
                .iter()
                .max_by_key(|&(_, nanos)| nanos)
                .filter(|&(_, nanos)| nanos > 0)
                .map_or("-", |(p, _)| p.name());
            #[allow(clippy::cast_precision_loss)] // display-only average
            let phase_ms = phase.total_nanos() as f64 / nq as f64 / 1e6;
            table.row(&[
                engine.name().into(),
                match measure {
                    Measure::Dtw { .. } => "DTW".into(),
                    _ => "ED".into(),
                },
                f(ms(t) / nq as f64),
                f(bpq),
                (bytes / nq).to_string(),
                (stats.series_fetched / nq).to_string(),
                (stats.total().real_computed / nq).to_string(),
                f(phase_ms),
                phase_top.into(),
            ]);
            let ucr_scan = engine != Engine::Messi && matches!(measure, Measure::Dtw { .. });
            if ucr_scan {
                assert!(
                    stats.series_fetched <= stats.series_requests,
                    "{} {measure:?}: {} raw fetches served only {} requests",
                    engine.name(),
                    stats.series_fetched,
                    stats.series_requests
                );
            } else {
                assert_eq!(
                    stats.series_fetched,
                    stats.series_requests,
                    "on-disk {} reads one series per request ({measure:?})",
                    engine.name()
                );
            }
            if engine == Engine::Messi {
                assert!(
                    stats.broadcasts <= 1,
                    "on-disk MESSI must answer a batch in <= 1 broadcast \
                     ({measure:?}: {} broadcasts for {nq} queries)",
                    stats.broadcasts
                );
            }
        }
    }
    table.finish();
    println!(
        "shape check: the engine matrix is closed — every engine answers both measures\n\
         on disk. MESSI keeps its <=1-broadcast-per-batch invariant, every index path\n\
         reads one series per request, and the UCR scan fetches no more raw series than\n\
         its queries requested (all self-asserted). Under DTW MESSI's tree pruning\n\
         reads far fewer device-charged bytes than the scan engines, which read every\n\
         series."
    );
}
