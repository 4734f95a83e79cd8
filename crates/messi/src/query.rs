//! MESSI exact query answering (stage 3 of Fig. 3).
//!
//! Two phases, executed by one pool broadcast with a spin-barrier between:
//!
//! * **Traversal** — workers claim root subtrees by Fetch&Inc and prune
//!   with node-level lower bounds against the shared BSF; the root level
//!   (tens of thousands of one-bit words) is scanned flat from the key
//!   bits alone, without touching tree memory. Each worker appends its
//!   surviving leaves to a private run and publishes it sorted by bound.
//! * **Processing** — workers claim leaves best-bound-first, their own
//!   run first, then the others'; a popped bound above the BSF abandons
//!   the whole run (everything behind it is farther). Surviving entries
//!   pay an entry-level lower bound, then an early-abandoned real
//!   distance.
//!
//! Query preparation, approximate-descent seeding and the per-entry
//! verify loop come from the shared kernel (`dsidx-query`); this module
//! contributes the MESSI scheduling — cooperative traversal plus
//! best-bound-first run draining (see [`crate::pqueue`]). All tree reads
//! go through the flattened view ([`dsidx_tree::flat`]).
//!
//! Every entry point is generic over [`RawSource`]: the tree prunes the
//! same way wherever the raw values live, and only the surviving
//! candidates pay a fetch — zero-copy against an in-memory [`Dataset`],
//! device-charged positioned reads against a
//! [`DatasetFile`](dsidx_storage::DatasetFile). A read failing mid-query
//! (a device dying under load) surfaces as `Err`: each worker records the
//! first failure in a shared [`ErrorSlot`], its peers close the runs
//! without paying further I/O, and the broadcast's coordinator returns the
//! error.
//!
//! [`Dataset`]: dsidx_series::Dataset

use crate::build::MessiIndex;
use crate::config::MessiConfig;
use crate::pqueue::{drain_best_first, Drain, LeafRuns, RunBuilder};
use crate::traverse::BatchTraversal;
use dsidx_obs::phase::{Phase, PhaseBreakdown, PhaseClock};
use dsidx_query::{
    approx_leaf_flat, batch_process_leaf_entries, batch_seed_positions, finish_knn,
    process_leaf_entries, seed_from_entries, AtomicQueryStats, BatchStats, ErrorSlot,
    PreparedQuery, Pruner, QueryBatch, QueryStats, SeriesFetcher, ShardView, SharedTopK,
};
use dsidx_series::Match;
use dsidx_storage::{RawSource, StorageError};
use dsidx_sync::{AtomicBest, SpinBarrier};

/// The MESSI schedule behind [`exact_nn`]: approximate-descent seeding,
/// then one pool broadcast running the cooperative traversal and the
/// best-bound-first run processing with a spin barrier between. Returns
/// `Ok(None)` for an empty index. (k-NN goes through the batch path —
/// [`exact_knn`] is a batch of one.)
fn run_exact<P: Pruner>(
    messi: &MessiIndex,
    source: &impl RawSource,
    query: &[f32],
    cfg: &MessiConfig,
    best: &P,
) -> Result<Option<QueryStats>, StorageError> {
    let config = messi.index.config();
    assert_eq!(query.len(), config.series_len(), "query length mismatch");
    cfg.validate();
    let flat = &messi.flat;
    if flat.entry_count() == 0 {
        return Ok(None);
    }
    let mut clock = PhaseClock::start();
    let mut phase = PhaseBreakdown::new();
    let quantizer = config.quantizer();
    let prep = PreparedQuery::new(quantizer, query);
    let node_table = prep.node_table(quantizer);
    let pool = dsidx_sync::pool::global(cfg.threads);
    phase.record(Phase::Prepare, clock.lap());

    // Initial threshold from the query's own leaf (approximate answer),
    // routing around empty subtrees.
    let approx_idx =
        approx_leaf_flat(flat, &prep.word).expect("non-empty index has a non-empty leaf");
    let mut fetcher = SeriesFetcher::new(source);
    let approx_real = seed_from_entries(
        flat.leaf_entries(flat.node(approx_idx)),
        &mut fetcher,
        query,
        best,
    )
    .map_err(|e| e.in_phase(Phase::Seed.name()))?;
    phase.record(Phase::Seed, clock.lap());

    // Phase A: cooperative parallel traversal — the root level is scanned
    // flat from the key bits alone, large subtrees are split via work
    // donation (see [`crate::traverse`]); surviving leaves enter the
    // worker's run with their node-level lower bound. Phase B: pop
    // best-first; a popped minimum above the BSF closes its whole run;
    // each worker moves on to the next run. One broadcast, phases
    // separated by a spin barrier. A failed raw read records into `errors`
    // and closes the run; peers see `is_set` and close theirs.
    let shared = AtomicQueryStats::new();
    let runs = LeafRuns::new(cfg.threads, 0);
    let traversal = crate::traverse::Traversal::new(flat, &node_table, best);
    let phase_barrier = SpinBarrier::new(cfg.threads);
    let errors = ErrorSlot::for_phase(Phase::Traversal);

    pool.broadcast(&|worker| {
        // Workers accumulate locally and merge once per phase — shared
        // fetch_adds per leaf would bounce one cache line across every
        // core and dominate these sub-ms phases.
        let mut local = QueryStats::default();
        let mut run = RunBuilder::new();
        local.nodes_pruned = traversal.run_worker(&mut run);
        local.leaves_enqueued = run.len() as u64;
        runs.publish(worker, run);
        phase_barrier.wait();

        // Phase B: best-bound-first processing.
        let mut fetcher = SeriesFetcher::new(source);
        let unclaimed = drain_best_first(&runs, worker, |lb, idx, _| {
            if errors.is_set() || lb >= best.threshold_sq() {
                // Everything left in this run is at least as far (or a
                // peer already failed): abandon it wholesale.
                local.leaves_discarded += 1;
                return Drain::Abandon;
            }
            local.leaves_processed += 1;
            let entries = flat.leaf_entries(flat.node(idx));
            local.lb_entry_computed += entries.len() as u64;
            match process_leaf_entries(entries, &prep.table, &mut fetcher, query, best) {
                Ok(reals) => {
                    local.real_computed += reals;
                    Drain::Processed
                }
                Err(e) => {
                    errors.record(e);
                    Drain::Abandon
                }
            }
        });
        local.leaves_discarded += unclaimed;
        shared.merge(&local);
    });
    errors.take()?;
    phase.record(Phase::Traversal, clock.lap());

    let mut stats = shared.snapshot();
    stats.real_computed += approx_real;
    stats.phase = stats.phase.merged(&phase);
    Ok(Some(stats))
}

/// Exact 1-NN through the MESSI index over any [`RawSource`].
///
/// Returns `Ok(None)` for an empty index.
///
/// # Errors
/// Propagates raw-source I/O failures (the in-memory path is infallible).
///
/// # Panics
/// Panics if the query length differs from the configured series length.
pub fn exact_nn(
    messi: &MessiIndex,
    source: &impl RawSource,
    query: &[f32],
    cfg: &MessiConfig,
) -> Result<Option<(Match, QueryStats)>, StorageError> {
    let best = AtomicBest::new();
    match run_exact(messi, source, query, cfg, &best)? {
        None => Ok(None),
        Some(stats) => {
            let (dist_sq, pos) = best.get();
            Ok(Some((Match::new(pos, dist_sq), stats)))
        }
    }
}

/// Exact k-NN through the MESSI index: the same traversal + sorted-run
/// schedule, pruning against the k-th best distance (a [`SharedTopK`])
/// instead of the single best.
///
/// Returns the up-to-`k` nearest series sorted ascending by
/// `(distance, position)` — fewer than `k` when the collection is smaller,
/// empty for an empty index. The answer is deterministic across runs and
/// thread counts (distance ties prefer the lowest position).
///
/// # Errors
/// Propagates raw-source I/O failures.
///
/// # Panics
/// Panics if the query length differs from the configured series length or
/// `k == 0`.
pub fn exact_knn(
    messi: &MessiIndex,
    source: &impl RawSource,
    query: &[f32],
    k: usize,
    cfg: &MessiConfig,
) -> Result<(Vec<Match>, QueryStats), StorageError> {
    let (mut matches, stats) = exact_knn_batch(messi, source, &[query], k, cfg)?;
    Ok((matches.pop().expect("batch of one"), stats.into_single()))
}

/// Exact k-NN for a *batch* of queries in **one** pool broadcast: the tree
/// is traversed once for the whole batch (a node is pruned only when every
/// query's threshold beats its bound), queued leaves carry the
/// per-query node mindists, and a popped leaf is processed once — each
/// entry's series fetched from the source at most once per leaf visit and
/// checked against every query whose leaf-level bound survived.
///
/// Answers are element-wise identical to calling [`exact_knn`] per query,
/// deterministic across runs and thread counts. The
/// traversal counters ([`QueryStats::nodes_pruned`], `leaves_*`) describe
/// work done once for the whole batch and are reported in
/// [`BatchStats::shared`]; per-query counters sit in
/// [`BatchStats::per_query`].
///
/// # Errors
/// Propagates raw-source I/O failures.
///
/// # Panics
/// Panics if any query length differs from the configured series length or
/// `k == 0`.
pub fn exact_knn_batch(
    messi: &MessiIndex,
    source: &impl RawSource,
    queries: &[&[f32]],
    k: usize,
    cfg: &MessiConfig,
) -> Result<(Vec<Vec<Match>>, BatchStats), StorageError> {
    exact_knn_batch_shared(messi, source, queries, k, cfg, None)
}

/// [`exact_knn_batch`] with an optional cross-shard pruner view (see
/// [`SharedPruners`](dsidx_query::SharedPruners)): with `shard` set, the
/// traversal and run-processing phases prune against thresholds that
/// other shards tighten mid-flight, and recorded positions are rebased to
/// global. The returned matches then reflect the whole gather so far; the
/// coordinator uses this return value for stats and reads the final answer
/// from the shared pruners after every shard joined.
///
/// # Errors
/// Propagates raw-source I/O failures.
///
/// # Panics
/// As [`exact_knn_batch`].
pub fn exact_knn_batch_shared(
    messi: &MessiIndex,
    source: &impl RawSource,
    queries: &[&[f32]],
    k: usize,
    cfg: &MessiConfig,
    shard: Option<ShardView<'_>>,
) -> Result<(Vec<Vec<Match>>, BatchStats), StorageError> {
    let config = messi.index.config();
    for q in queries {
        assert_eq!(q.len(), config.series_len(), "query length mismatch");
    }
    cfg.validate();
    let flat = &messi.flat;
    let quantizer = config.quantizer();
    let mut clock = PhaseClock::start();
    let batch = QueryBatch::for_shard(quantizer, queries, k, shard);
    let prepare_nanos = clock.lap();
    if flat.entry_count() == 0 || batch.is_empty() {
        return Ok(batch.finish(0, QueryStats::default()));
    }
    batch.phases().record(Phase::Prepare, prepare_nanos);
    let tables: Vec<_> = batch
        .slots()
        .iter()
        .map(|s| s.prep.node_table(quantizer))
        .collect();
    let pool = dsidx_sync::pool::global(cfg.threads);
    clock.lap_into(batch.phases(), Phase::Prepare);

    // Initial thresholds from the union of the batch's own leaves
    // (distinct leaves only), cross-seeded into every pruner. Positions
    // are deduplicated and fetched in position order (sequential-friendly
    // for on-disk sources).
    let mut leaf_idxs: Vec<u32> = batch
        .slots()
        .iter()
        .map(|slot| {
            approx_leaf_flat(flat, &slot.prep.word).expect("non-empty index has a non-empty leaf")
        })
        .collect();
    leaf_idxs.sort_unstable();
    leaf_idxs.dedup();
    let mut positions: Vec<u32> = leaf_idxs
        .iter()
        .flat_map(|&idx| flat.leaf_entries(flat.node(idx)).iter().map(|e| e.pos))
        .collect();
    positions.sort_unstable();
    positions.dedup();
    let mut fetcher = SeriesFetcher::new(source);
    batch_seed_positions(&positions, &mut fetcher, &batch)
        .map_err(|e| e.in_phase(Phase::Seed.name()))?;
    clock.lap_into(batch.phases(), Phase::Seed);

    // Phase A: one cooperative traversal for the whole batch (see
    // [`crate::traverse::BatchTraversal`]); surviving leaves enter the
    // worker's run keyed by their minimum per-query bound. Phase B: pop
    // best-first; a popped minimum at or above every query's threshold
    // closes its whole run; an entry pays per-query bounds and
    // early-abandoned distances only for queries whose leaf bound
    // survived. One broadcast, phases separated by a spin barrier; a
    // failed raw read closes the run and surfaces after the join.
    let shared = AtomicQueryStats::new();
    let runs = LeafRuns::new(cfg.threads, batch.len());
    let traversal = BatchTraversal::new(flat, &tables, &batch);
    let phase_barrier = SpinBarrier::new(cfg.threads);
    let errors = ErrorSlot::for_phase(Phase::Traversal);

    pool.broadcast(&|worker| {
        // Workers accumulate locally and merge once per phase (see
        // `AtomicQueryStats`).
        let mut shared_local = QueryStats::default();
        let mut locals = vec![QueryStats::default(); batch.len()];
        let mut run = RunBuilder::new();
        shared_local.nodes_pruned = traversal.run_worker(&mut run);
        shared_local.leaves_enqueued = run.len() as u64;
        runs.publish(worker, run);
        phase_barrier.wait();

        // Phase B: best-bound-first processing, once per leaf for the
        // whole batch.
        let mut fetcher = SeriesFetcher::new(source);
        let mut active: Vec<usize> = Vec::with_capacity(batch.len());
        let mut survivors: Vec<usize> = Vec::with_capacity(batch.len());
        let unclaimed = drain_best_first(&runs, worker, |min_lb, idx, lbs| {
            if errors.is_set() || min_lb >= batch.max_threshold_sq() {
                // Every remaining leaf in this run is at least as far for
                // every query (or a peer already failed): abandon it
                // wholesale.
                shared_local.leaves_discarded += 1;
                return Drain::Abandon;
            }
            active.clear();
            for (qi, slot) in batch.slots().iter().enumerate() {
                if lbs[qi] < slot.topk.threshold_sq() {
                    active.push(qi);
                }
            }
            if active.is_empty() {
                // No query can benefit from this one leaf, but the run's
                // minimum key still beat some threshold — keep draining it.
                shared_local.leaves_discarded += 1;
                return Drain::Processed;
            }
            shared_local.leaves_processed += 1;
            let entries = flat.leaf_entries(flat.node(idx));
            match batch_process_leaf_entries(
                entries,
                &mut fetcher,
                &batch,
                &active,
                &mut survivors,
                &mut locals,
            ) {
                Ok(()) => Drain::Processed,
                Err(e) => {
                    errors.record(e);
                    Drain::Abandon
                }
            }
        });
        shared_local.leaves_discarded += unclaimed;
        batch.merge_locals(&locals);
        shared.merge(&shared_local);
    });
    errors.take()?;
    clock.lap_into(batch.phases(), Phase::Traversal);

    Ok(batch.finish(1, shared.snapshot()))
}

/// *Approximate* k-NN through the MESSI index: descend to the query's own
/// leaf (the paper's approximate answer — "the most promising leaf") and
/// return the k nearest of its entries by real Euclidean distance, without
/// the exact traversal/processing phases. No pool broadcast is issued; on
/// an on-disk source only the one leaf's entries are fetched.
///
/// Every reported distance is a real distance to a real series, so it is
/// never below the exact answer at the same rank; the positions may
/// differ. Returns fewer than `k` matches when the leaf holds fewer
/// entries, empty for an empty index.
///
/// # Errors
/// Propagates raw-source I/O failures.
///
/// # Panics
/// Panics if the query length differs from the configured series length or
/// `k == 0`.
pub fn approx_knn(
    messi: &MessiIndex,
    source: &impl RawSource,
    query: &[f32],
    k: usize,
) -> Result<(Vec<Match>, QueryStats), StorageError> {
    approx_leaf_visit(messi, query, k, |entries, topk| {
        let mut fetcher = SeriesFetcher::new(source);
        seed_from_entries(entries, &mut fetcher, query, topk)
    })
}

/// The shared best-leaf visit behind both approximate measures (ED here,
/// DTW in [`crate::dtw`]): locate the query's leaf, let `pay` charge one
/// real distance per entry into the collector.
pub(crate) fn approx_leaf_visit(
    messi: &MessiIndex,
    query: &[f32],
    k: usize,
    pay: impl FnOnce(&[dsidx_tree::LeafEntry], &SharedTopK) -> Result<u64, StorageError>,
) -> Result<(Vec<Match>, QueryStats), StorageError> {
    let config = messi.index.config();
    assert_eq!(query.len(), config.series_len(), "query length mismatch");
    let topk = SharedTopK::new(k);
    let flat = &messi.flat;
    if flat.entry_count() == 0 {
        return Ok(finish_knn(&topk, None));
    }
    let word = config.quantizer().word(query);
    let idx = approx_leaf_flat(flat, &word).expect("non-empty index has a non-empty leaf");
    let stats = QueryStats {
        real_computed: pay(flat.leaf_entries(flat.node(idx)), &topk)?,
        ..QueryStats::default()
    };
    Ok(finish_knn(&topk, Some(stats)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use crate::config::MessiConfig;
    use dsidx_series::gen::DatasetKind;
    use dsidx_series::Dataset;
    use dsidx_storage::FlakySource;
    use dsidx_tree::TreeConfig;
    use dsidx_ucr::brute_force;

    fn cfg(threads: usize) -> MessiConfig {
        MessiConfig::new(TreeConfig::new(64, 8, 16).unwrap(), threads).with_chunk_series(64)
    }

    #[test]
    fn exact_on_all_dataset_kinds() {
        for kind in DatasetKind::ALL {
            let data = kind.generate(700, 64, 51);
            let (messi, _) = build(&data, &cfg(4));
            let queries = kind.queries(8, 64, 51);
            for q in queries.iter() {
                let want = brute_force(&data, q).unwrap();
                for threads in [1usize, 4] {
                    let c = cfg(threads);
                    let (got, _) = exact_nn(&messi, &data, q, &c).unwrap().unwrap();
                    assert_eq!(got.pos, want.pos, "{} x{threads}", kind.name());
                    assert!((got.dist_sq - want.dist_sq).abs() <= want.dist_sq * 1e-4 + 1e-4);
                }
            }
        }
    }

    #[test]
    fn knn_equals_brute_force_topk() {
        let data = DatasetKind::Synthetic.generate(600, 64, 43);
        let (messi, _) = build(&data, &cfg(4));
        let queries = DatasetKind::Synthetic.queries(3, 64, 43);
        for q in queries.iter() {
            for k in [1usize, 10, 50, 700] {
                let want = dsidx_ucr::brute_force_knn(&data, q, k);
                for threads in [1usize, 4] {
                    let c = cfg(threads);
                    let (got, stats) = exact_knn(&messi, &data, q, k, &c).unwrap();
                    assert_eq!(got.len(), want.len(), "k={k} x{threads}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.pos, w.pos, "k={k} x{threads}");
                        assert!((g.dist_sq - w.dist_sq).abs() <= w.dist_sq * 1e-4 + 1e-4);
                    }
                    assert!(stats.real_computed >= got.len() as u64);
                }
            }
        }
    }

    #[test]
    fn knn_batch_equals_sequential_knn() {
        let data = DatasetKind::Synthetic.generate(700, 64, 57);
        let (messi, _) = build(&data, &cfg(4));
        let qs = DatasetKind::Synthetic.queries(7, 64, 57);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        for k in [1usize, 8, 40] {
            for threads in [1usize, 4] {
                let c = cfg(threads);
                let (batched, stats) = exact_knn_batch(&messi, &data, &qrefs, k, &c).unwrap();
                assert_eq!(stats.broadcasts, 1, "one broadcast for the whole batch");
                assert!(stats.broadcasts_per_query() < 1.0);
                for (qi, q) in qs.iter().enumerate() {
                    let (single, _) = exact_knn(&messi, &data, q, k, &c).unwrap();
                    assert_eq!(
                        batched[qi].iter().map(|m| m.pos).collect::<Vec<_>>(),
                        single.iter().map(|m| m.pos).collect::<Vec<_>>(),
                        "q{qi} k={k} x{threads}"
                    );
                }
                // Traversal ran once for the batch: structural counters
                // live in the shared slice, per-query ones per slot; every
                // enqueued leaf is processed or discarded, exactly once.
                assert_eq!(
                    stats.shared.leaves_processed + stats.shared.leaves_discarded,
                    stats.shared.leaves_enqueued
                );
                assert_eq!(stats.shared.lb_computed, 0);
            }
        }
    }

    #[test]
    fn knn_batch_deterministic_across_thread_counts() {
        let data = DatasetKind::Seismic.generate(400, 64, 71);
        let (messi, _) = build(&data, &cfg(4));
        let qs = DatasetKind::Seismic.queries(5, 64, 71);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let (first, _) = exact_knn_batch(&messi, &data, &qrefs, 9, &cfg(1)).unwrap();
        for threads in [2usize, 3, 8] {
            let (got, _) = exact_knn_batch(&messi, &data, &qrefs, 9, &cfg(threads)).unwrap();
            assert_eq!(got, first, "threads={threads}");
        }
    }

    #[test]
    fn knn_deterministic_across_thread_counts() {
        let data = DatasetKind::Seismic.generate(500, 64, 3);
        let (messi, _) = build(&data, &cfg(4));
        let q = DatasetKind::Seismic.queries(1, 64, 3);
        let (first, _) = exact_knn(&messi, &data, q.get(0), 12, &cfg(1)).unwrap();
        assert_eq!(first.len(), 12);
        for threads in [2usize, 3, 8] {
            let c = cfg(threads);
            for _ in 0..2 {
                let (m, _) = exact_knn(&messi, &data, q.get(0), 12, &c).unwrap();
                assert_eq!(m, first, "threads={threads}");
            }
        }
    }

    #[test]
    fn approx_knn_never_beats_exact_and_is_broadcast_free() {
        let data = DatasetKind::Synthetic.generate(800, 64, 23);
        let (messi, _) = build(&data, &cfg(4));
        let queries = DatasetKind::Synthetic.queries(5, 64, 23);
        for q in queries.iter() {
            for k in [1usize, 5, 12] {
                let exact = dsidx_ucr::brute_force_knn(&data, q, k);
                let (approx, stats) = approx_knn(&messi, &data, q, k).unwrap();
                assert!(approx.len() <= k);
                assert!(!approx.is_empty());
                // Rank-wise: the approximate i-th distance never falls
                // below the exact i-th (real distances of real series).
                for (a, e) in approx.iter().zip(&exact) {
                    assert!(a.dist_sq >= e.dist_sq - e.dist_sq * 1e-6);
                }
                // Approximate work is the leaf visit only.
                assert!(stats.real_computed >= approx.len() as u64);
                assert_eq!(stats.nodes_pruned, 0);
                assert_eq!(stats.leaves_enqueued, 0);
            }
        }
    }

    #[test]
    fn approx_knn_finds_indexed_series_exactly() {
        let data = DatasetKind::Sald.generate(300, 64, 6);
        let (messi, _) = build(&data, &cfg(3));
        for pos in [0usize, 123, 299] {
            let (m, _) = approx_knn(&messi, &data, data.get(pos), 1).unwrap();
            assert_eq!(m[0].pos as usize, pos);
            assert_eq!(m[0].dist_sq, 0.0);
        }
    }

    #[test]
    fn approx_knn_on_empty_index_is_empty() {
        let data = Dataset::new(64).unwrap();
        let (messi, _) = build(&data, &cfg(2));
        let (got, stats) = approx_knn(&messi, &data, &vec![0.0; 64], 4).unwrap();
        assert!(got.is_empty());
        assert_eq!(stats, QueryStats::default());
    }

    #[test]
    fn knn_on_empty_index_is_empty() {
        let data = Dataset::new(64).unwrap();
        let (messi, _) = build(&data, &cfg(2));
        let (got, stats) = exact_knn(&messi, &data, &vec![0.0; 64], 4, &cfg(2)).unwrap();
        assert!(got.is_empty());
        assert_eq!(stats, QueryStats::default());
    }

    #[test]
    fn thread_count_does_not_change_the_answer() {
        let data = DatasetKind::Synthetic.generate(500, 64, 8);
        let (messi, _) = build(&data, &cfg(4));
        let queries = DatasetKind::Synthetic.queries(4, 64, 8);
        for q in queries.iter() {
            let (first, _) = exact_nn(&messi, &data, q, &cfg(1)).unwrap().unwrap();
            assert_eq!(first.pos, brute_force(&data, q).unwrap().pos);
            for threads in [2usize, 3, 8] {
                let (got, stats) = exact_nn(&messi, &data, q, &cfg(threads)).unwrap().unwrap();
                assert_eq!(got, first, "threads={threads}");
                assert_eq!(
                    stats.leaves_processed + stats.leaves_discarded,
                    stats.leaves_enqueued,
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn stats_show_pruning() {
        let data = dsidx_series::gen::sines(1000, 64, 3);
        let (messi, _) = build(&data, &cfg(4));
        let queries = dsidx_series::gen::sines(3, 64, 77);
        for q in queries.iter() {
            let (_, stats) = exact_nn(&messi, &data, q, &cfg(4)).unwrap().unwrap();
            // On clusterable data the sorted runs + tree bounds must
            // discard most real-distance work.
            assert!(
                stats.real_computed < 500,
                "expected strong pruning, computed {} real distances",
                stats.real_computed
            );
            assert_eq!(
                stats.leaves_processed + stats.leaves_discarded,
                stats.leaves_enqueued
            );
            // Scan-only counters stay zero for the tree-based engine.
            assert_eq!(stats.lb_computed, 0);
            assert_eq!(stats.candidates, 0);
        }
    }

    #[test]
    fn query_for_indexed_series_finds_itself() {
        let data = DatasetKind::Sald.generate(300, 64, 6);
        let (messi, _) = build(&data, &cfg(3));
        for pos in [0usize, 123, 299] {
            let (m, _) = exact_nn(&messi, &data, data.get(pos), &cfg(3))
                .unwrap()
                .unwrap();
            assert_eq!(m.pos as usize, pos);
            assert_eq!(m.dist_sq, 0.0);
        }
    }

    #[test]
    fn empty_index_returns_none() {
        let data = Dataset::new(64).unwrap();
        let (messi, _) = build(&data, &cfg(2));
        assert!(exact_nn(&messi, &data, &vec![0.0; 64], &cfg(2))
            .unwrap()
            .is_none());
    }

    #[test]
    fn deterministic_across_runs() {
        let data = DatasetKind::Seismic.generate(600, 64, 13);
        let (messi, _) = build(&data, &cfg(8));
        let q = DatasetKind::Seismic.queries(1, 64, 13);
        let (first, _) = exact_nn(&messi, &data, q.get(0), &cfg(1)).unwrap().unwrap();
        for _ in 0..5 {
            let (m, _) = exact_nn(&messi, &data, q.get(0), &cfg(8)).unwrap().unwrap();
            assert_eq!(m, first);
        }
    }

    #[test]
    fn query_with_missing_root_subtree_still_exact() {
        // Construct a dataset occupying few subtrees, query from a pattern
        // whose root key is absent.
        let data = dsidx_series::gen::sines(100, 64, 5);
        let (messi, _) = build(&data, &cfg(2));
        let q = DatasetKind::Seismic.queries(1, 64, 123);
        let want = brute_force(&data, q.get(0)).unwrap();
        let (got, _) = exact_nn(&messi, &data, q.get(0), &cfg(2)).unwrap().unwrap();
        assert_eq!(got.pos, want.pos);
    }

    #[test]
    fn mid_query_read_failure_is_an_error_not_a_panic() {
        let data = DatasetKind::Synthetic.generate(500, 64, 91);
        let (messi, _) = build(&data, &cfg(4));
        let q = DatasetKind::Synthetic.queries(2, 64, 91);
        let qrefs: Vec<&[f32]> = q.iter().collect();
        // Budget 0: the very first fetch (approximate-leaf seeding) fails,
        // and the error carries the phase it happened in.
        let flaky = FlakySource::new(data.clone(), 0);
        let err = exact_nn(&messi, &flaky, q.get(0), &cfg(4)).unwrap_err();
        assert!(matches!(err.root_cause(), StorageError::Io(_)));
        assert!(err.to_string().starts_with("during seed:"), "{err}");
        // Budgets that survive seeding but die inside the broadcast's
        // processing phase: the error must surface through the pool join
        // as `Err` — a worker panic would abort the whole process here.
        for budget in [1u64, 8, 32, 64] {
            let flaky = FlakySource::new(data.clone(), budget);
            assert!(
                exact_knn_batch(&messi, &flaky, &qrefs, 50, &cfg(4)).is_err(),
                "budget {budget} cannot cover a k=50 batch over 500 series"
            );
            assert!(flaky.tripped());
        }
        // An unconstrained budget answers exactly like the dataset itself.
        let flaky = FlakySource::new(data.clone(), u64::MAX);
        let (via_flaky, _) = exact_knn(&messi, &flaky, q.get(0), 7, &cfg(4)).unwrap();
        let (via_data, _) = exact_knn(&messi, &data, q.get(0), 7, &cfg(4)).unwrap();
        assert_eq!(via_flaky, via_data);
    }
}
