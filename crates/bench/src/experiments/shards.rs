//! Scatter-gather sharding sweep — one MESSI index versus the same data
//! split over `N` shards with mid-flight BSF sharing, at `N` in
//! {1, 2, 4, 8} over a fixed total.
//!
//! Reports per shard count: build time, exact k-NN batch latency, and
//! candidates verified by the sharded index versus the isolated baseline —
//! one `MemoryIndex` per `partition` slice, searched independently and
//! merged (the number the shared BSF shrinks). Self-asserts the two
//! contracts the `ShardedIndex` promises:
//!
//! * every sharded answer — and the merged isolated one — is element-wise
//!   **bit-identical** to the monolithic index over the concatenated
//!   dataset;
//! * at `N >= 2`, sharing verifies **strictly fewer** candidates than `N`
//!   independent shard searches (sharing only tightens thresholds, and a
//!   tight match from one shard prunes the others mid-flight).

use crate::{core_ladder, f, mem_dataset, queries, time, Scale, Table};
use dsidx::prelude::*;
use dsidx::shard::partition;
use dsidx::ShardedIndex;

/// Neighbors per query.
const K: usize = 10;
/// Shard counts swept over the fixed total.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Latency repetitions (min-of-reps per cell).
const REPS: usize = 3;

/// Candidates verified (real distances fully computed) across a batch.
fn verified(stats: &BatchStats) -> u64 {
    stats.shared.real_computed + stats.per_query.iter().map(|q| q.real_computed).sum::<u64>()
}

/// The isolated baseline: one `MemoryIndex` per [`partition`] slice of
/// `data`, each searched on its own; the answers are rebased to global
/// positions and merged to the `k` smallest `(distance, position)` pairs
/// per query. Returns the merged answers and the candidates verified.
fn isolated(
    data: &Dataset,
    n: usize,
    options: &Options,
    qrefs: &[&[f32]],
    spec: &QuerySpec,
) -> (Vec<Vec<Match>>, u64) {
    let len = data.series_len();
    let mut merged: Vec<Vec<Match>> = vec![Vec::new(); qrefs.len()];
    let mut work = 0;
    for range in partition(data.len(), n) {
        let base = range.start as u32;
        let flat = data.as_flat()[range.start * len..range.end * len].to_vec();
        let slice = Dataset::from_flat(flat, len).expect("a slice of a valid dataset");
        let index = MemoryIndex::build(slice, Engine::Messi, options).expect("valid config");
        let answers = index.search(qrefs, spec).expect("slice query");
        work += verified(answers.stats().expect("stats requested"));
        for (row, ms) in merged.iter_mut().zip(answers.matches()) {
            row.extend(ms.iter().map(|m| Match::new(base + m.pos, m.dist_sq)));
        }
    }
    for row in &mut merged {
        row.sort_unstable_by(|a, b| a.dist_sq.total_cmp(&b.dist_sq).then(a.pos.cmp(&b.pos)));
        row.truncate(spec.k());
    }
    (merged, work)
}

/// Runs this experiment at the given scale, printing its table and CSV.
///
/// # Panics
/// Panics (self-assertion) if any sharded answer differs from the
/// monolith's, or if BSF sharing fails to verify strictly fewer
/// candidates than isolated shards at `N >= 2`.
pub fn run(scale: &Scale) {
    let cores = *core_ladder(&[24]).last().expect("non-empty");
    dsidx::sync::pool::global(cores).broadcast(&|_| {});
    let kind = DatasetKind::Synthetic;
    let data = mem_dataset(kind, scale);
    let len = data.series_len();
    let options = Options::default().with_threads(cores);
    let qs = queries(kind, scale.mem_queries, len);
    let qrefs: Vec<&[f32]> = qs.iter().collect();
    let spec = QuerySpec::knn(K).with_stats();

    let monolith = MemoryIndex::build(data.clone(), Engine::Messi, &options).expect("valid config");
    let want = monolith.search(&qrefs, &spec).expect("monolith query");
    let (_, mono_t) = time(|| monolith.search(&qrefs, &spec).expect("monolith query"));

    let mut table = Table::new(
        "shards",
        &[
            "shards",
            "build_ms",
            "search_ms",
            "verified_shared",
            "verified_isolated",
            "saved_pct",
        ],
    );

    for n in SHARD_COUNTS {
        let (sharded, build_t) = time(|| {
            ShardedIndex::build_in_memory(&data, n, Engine::Messi, &options).expect("valid config")
        });

        // Sharing on (the default): answers must match the monolith
        // bit-for-bit, in every cell of the sweep.
        let answers = sharded.search(&qrefs, &spec).expect("sharded query");
        assert_eq!(
            want.matches(),
            answers.matches(),
            "sharded (sharing on, n={n}) diverged from the monolith"
        );
        let on = verified(answers.stats().expect("stats requested"));
        let mut search_ms = f64::INFINITY;
        for _ in 0..REPS {
            let (_, t) = time(|| sharded.search(&qrefs, &spec).expect("sharded query"));
            search_ms = search_ms.min(t.as_secs_f64() * 1e3);
        }

        // The isolated baseline: same answers, more work.
        let (merged, off) = isolated(&data, n, &options, &qrefs, &spec);
        assert_eq!(
            want.matches(),
            &merged[..],
            "isolated slices (n={n}) diverged from the monolith"
        );
        if n >= 2 {
            assert!(
                on < off,
                "BSF sharing verified {on} candidates at n={n}, not strictly \
                 below the {off} of isolated shards"
            );
        }

        #[allow(clippy::cast_precision_loss)] // display-only ratio
        let saved_pct = 100.0 * (off.saturating_sub(on)) as f64 / off.max(1) as f64;
        table.row(&[
            n.to_string(),
            f(build_t.as_secs_f64() * 1e3),
            f(search_ms),
            on.to_string(),
            off.to_string(),
            f(saved_pct),
        ]);
    }
    table.finish();

    println!(
        "shape check: every sharded answer is bit-identical to the monolith \n\
         ({:.1} ms for the monolithic batch), and BSF sharing verifies strictly \n\
         fewer candidates than isolated shards at every n >= 2.",
        mono_t.as_secs_f64() * 1e3
    );
}
