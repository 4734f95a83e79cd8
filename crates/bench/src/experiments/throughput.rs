//! Batched query throughput — how much of a query's cost is the fixed
//! per-query overhead that batching amortizes.
//!
//! For sub-millisecond queries the pool broadcast (waking and joining
//! every worker) dominates; a batch of B queries pays it once. This
//! experiment drives the facade's query plane (`Search::search` with a
//! `QuerySpec`), sweeping the batch size per engine at fixed k around the
//! pool width t — B ∈ {1, t − 1, t, t + 1, 2t, 64}, deduplicated, each
//! over the largest multiple of B queries that fits in 64 — and reporting
//! wall time per query plus the amortization counters: broadcasts per
//! query (constant per batch ⇒ shrinking as 1/B for every engine; ADS+
//! runs ParIS's two broadcasts on a one-worker pool) and raw series
//! fetched versus the per-query requests they served (every engine here
//! answers each query from its own reads, so the two columns are equal).
//! Around t is where MESSI's schedule turns from every worker on one
//! query into whole queries per worker.

use crate::{core_ladder, f, mem_dataset, ms, queries, time, Scale, Table};
use dsidx::prelude::*;
use std::sync::Arc;

/// Queries available to a cell (the widest batch).
const QUERIES: usize = 64;
/// Neighbors per query.
const K: usize = 10;

/// Field-wise accumulation of one engine × batch-size cell.
#[derive(Default)]
struct Cell {
    broadcasts: u64,
    fetched: u64,
    requests: u64,
    real: u64,
    phase_nanos: u64,
}

impl Cell {
    fn add(&mut self, stats: &BatchStats) {
        self.broadcasts += stats.broadcasts;
        self.fetched += stats.series_fetched;
        self.requests += stats.series_requests;
        let total = stats.total();
        self.real += total.real_computed;
        self.phase_nanos += total.phase.total_nanos();
    }
}

/// Runs this experiment at the given scale, printing its table and CSV.
pub fn run(scale: &Scale) {
    let cores = *core_ladder(&[24]).last().expect("non-empty");
    dsidx::sync::pool::global(cores).broadcast(&|_| {});
    let kind = DatasetKind::Synthetic;
    let data = Arc::new(mem_dataset(kind, scale));
    let len = data.series_len();
    let options = Options::default().with_threads(cores);
    let qs = queries(kind, QUERIES, len);
    let qrefs: Vec<&[f32]> = qs.iter().collect();
    let mut widths = vec![1, cores - 1, cores, cores + 1, 2 * cores, QUERIES];
    widths.retain(|&b| (1..=QUERIES).contains(&b));
    widths.sort_unstable();
    widths.dedup();

    let engines = [Engine::Ads, Engine::Paris, Engine::Messi];
    let indexes: Vec<MemoryIndex> = engines
        .iter()
        .map(|&e| MemoryIndex::build(data.clone(), e, &options).expect("valid config"))
        .collect();

    // Warm up the pool-backed engines once.
    let spec = QuerySpec::knn(K).with_stats();
    for idx in &indexes {
        let _ = idx.search(&qrefs[..1], &spec).expect("warm");
    }

    let mut table = Table::new(
        "throughput",
        &[
            "engine",
            "batch",
            "avg_query_ms",
            "broadcasts_per_query",
            "fetched_per_query",
            "requests_per_query",
            "real_per_query",
            "phase_ms_per_query",
        ],
    );
    let mut amortized = true;
    for b in widths {
        let batches = qrefs.chunks_exact(b);
        let nq = (qrefs.len() - batches.remainder().len()) as u64;
        for idx in &indexes {
            let mut cell = Cell::default();
            let (_, t) = time(|| {
                for chunk in batches.clone() {
                    let answers = idx.search(chunk, &spec).expect("query");
                    cell.add(answers.stats().expect("stats requested"));
                }
            });
            #[allow(clippy::cast_precision_loss)] // display-only ratios
            let bpq = cell.broadcasts as f64 / nq as f64;
            #[allow(clippy::cast_precision_loss)] // display-only averages
            table.row(&[
                idx.engine().name().into(),
                b.to_string(),
                f(ms(t) / nq as f64),
                f(bpq),
                (cell.fetched / nq).to_string(),
                (cell.requests / nq).to_string(),
                (cell.real / nq).to_string(),
                f(cell.phase_nanos as f64 / nq as f64 / 1e6),
            ]);
            if b >= 4 && bpq >= 1.0 {
                amortized = false;
            }
        }
    }
    table.finish();
    assert!(
        amortized,
        "every engine must issue fewer than one broadcast per query at B >= 4"
    );
    println!(
        "shape check: broadcasts_per_query is constant-per-batch (2/B ParIS and ADS+,\n\
         1/B MESSI). requests_per_query equals fetched_per_query for every engine —\n\
         each query's distance attempts read their own series."
    );
}
