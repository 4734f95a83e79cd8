//! §V extension — DTW query answering over the ED-built index.
//!
//! "No changes are required in the index structure: we can index a dataset
//! once, and then use this index to answer both Euclidean and DTW
//! similarity search queries." Compares the facade's DTW query plane
//! (`QuerySpec::nn().measure(Measure::Dtw { band })` on a MESSI
//! `MemoryIndex`) against the UCR scan at one worker and at every core
//! (asserted to answer alike) for several warping bands, then answers the
//! whole query set as ONE batched DTW search — a single pool broadcast for
//! B queries, asserted below.

use crate::{core_ladder, f, mem_dataset, ms, queries, time, time_queries, Scale, Table};
use dsidx::prelude::*;
use std::sync::Arc;

/// Runs this experiment at the given scale, printing its table and CSV.
pub fn run(scale: &Scale) {
    let cores = *core_ladder(&[24]).last().expect("non-empty");
    dsidx::sync::pool::global(cores).broadcast(&|_| {});
    let kind = DatasetKind::Synthetic;
    // DTW is O(n * band) per candidate; keep the collection smaller.
    let reduced = Scale {
        mem_series: scale.mem_series / 5,
        ..*scale
    };
    let data = Arc::new(mem_dataset(kind, &reduced));
    let len = data.series_len();
    let qs = queries(kind, scale.mem_queries.min(5), len);
    let qrefs: Vec<&[f32]> = qs.iter().collect();
    let options = Options::default().with_threads(cores);
    let index = MemoryIndex::build(data.clone(), Engine::Messi, &options).expect("valid config");

    let mut table = Table::new(
        "ext-dtw",
        &[
            "band_pct",
            "ucr_dtw_serial_ms",
            "ucr_dtw_p_ms",
            "messi_dtw_ms",
            "keogh_pruned",
            "rev_pruned",
            "dtw_abandoned",
            "dtw_cells",
            "real_computed",
        ],
    );
    let nq = qs.len() as u64;
    for band_pct in [2usize, 5, 10] {
        let band = len * band_pct / 100;
        let spec = QuerySpec::nn().measure(Measure::Dtw { band }).with_stats();
        let _ = index.search(&qrefs[..1], &spec).expect("warm");
        // The one UCR scan at one worker (UCR Suite) and at `cores` (UCR
        // Suite-p): the same answers, asserted below.
        let scan = |q: &[f32], threads: usize| {
            let dtw = Measure::Dtw { band };
            dsidx::ucr::scan(&*data, &[q], dtw, 1, threads, None).expect("in-memory scan")
        };
        let (mut serial_answers, mut parallel_answers) = (Vec::new(), Vec::new());
        let serial = time_queries(&qs, |q| serial_answers.push(scan(q, 1).0));
        let parallel = time_queries(&qs, |q| parallel_answers.push(scan(q, cores).0));
        assert_eq!(
            serial_answers, parallel_answers,
            "the UCR scan must answer alike at 1 and {cores} workers (band {band})"
        );
        let mut stats = QueryStats::default();
        let messi_t = time_queries(&qs, |q| {
            let answers = index.search(&[q], &spec).expect("query");
            stats = stats.merged(&answers.query_stats(0).expect("stats requested"));
        });
        table.row(&[
            band_pct.to_string(),
            f(ms(serial)),
            f(ms(parallel)),
            f(ms(messi_t)),
            (stats.lb_keogh_pruned / nq).to_string(),
            (stats.lb_keogh_rev_pruned / nq).to_string(),
            (stats.dtw_abandoned / nq).to_string(),
            (stats.dtw_cells / nq).to_string(),
            (stats.real_computed / nq).to_string(),
        ]);
    }
    table.finish();
    println!(
        "shape check: the index answers DTW queries far below the serial scan and\n\
         below the parallel scan; the gap grows with the band (scan DTW cost grows,\n\
         index pruning still avoids most of it). The counters show the cascade:\n\
         LB_Keogh prunes most survivors (keogh_pruned counts both directions,\n\
         rev_pruned the share that only the candidate's own envelope caught), early\n\
         abandoning kills most DTWs that do start (dtw_cells: DP cells evaluated, a\n\
         full DTW being about len * (2 * band + 1)), and only real_computed full DTWs\n\
         remain — the same QueryStats the ED figures report."
    );

    // Batched DTW: the missing cell of the old method matrix. The whole
    // query set goes through MESSI's cascade as one batch — per-query
    // envelopes ride in the prepared state, and the entire batch costs at
    // most ONE pool broadcast (asserted: this is the acceptance bar).
    let mut batched = Table::new(
        "ext-dtw-batch",
        &[
            "band_pct",
            "batch",
            "seq_ms_per_q",
            "batch_ms_per_q",
            "broadcasts_per_batch",
        ],
    );
    for band_pct in [2usize, 5, 10] {
        let band = len * band_pct / 100;
        let spec = QuerySpec::knn(5)
            .measure(Measure::Dtw { band })
            .with_stats();
        let (seq_answers, seq_t) = time(|| {
            qrefs
                .iter()
                .map(|q| index.search(&[q], &spec).expect("query").into_single())
                .collect::<Vec<_>>()
        });
        let (answers, batch_t) = time(|| index.search(&qrefs, &spec).expect("query"));
        let stats = answers.stats().expect("stats requested");
        assert!(
            stats.broadcasts <= 1,
            "batched DTW must cost at most one broadcast per batch (got {})",
            stats.broadcasts
        );
        for (qi, seq) in seq_answers.iter().enumerate() {
            assert_eq!(
                answers.matches()[qi],
                *seq,
                "batched DTW diverged from sequential DTW at query {qi}"
            );
        }
        batched.row(&[
            band_pct.to_string(),
            qrefs.len().to_string(),
            f(ms(seq_t) / nq as f64),
            f(ms(batch_t) / nq as f64),
            stats.broadcasts.to_string(),
        ]);
    }
    batched.finish();
    println!(
        "shape check: batched DTW answers B queries inside one traversal broadcast\n\
         (broadcasts_per_batch <= 1, element-wise equal to the sequential answers);\n\
         the fixed per-query costs (broadcast, traversal) amortize across the batch,\n\
         which shows up in wall time as cores grow."
    );
}
