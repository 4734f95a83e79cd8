//! ParIS/ParIS+ exact query answering (stage 4 of Fig. 2).
//!
//! Identical for ParIS and ParIS+ ("for query answering, ParIS and ParIS+
//! are the same"): compute an approximate best-so-far from the most
//! promising leaf, prune over the SAX array with lower-bound distances in
//! parallel, collect the survivors in a candidate list, then compute real
//! distances for the candidates in parallel with early abandoning.
//!
//! The per-candidate work (preparation, seeding, lower-bound filtering,
//! early-abandoned verification) comes from the shared kernel
//! (`dsidx-query`); this module contributes the ParIS scheduling: two
//! Fetch&Inc-chunked pool phases with a shared candidate list between.
//!
//! Unlike MESSI, candidates are processed in position order, not
//! best-bound-first — the paper attributes part of MESSI's speedup to
//! exactly that difference, which `fig12`'s real-distance counts show.

use crate::build::ParisIndex;
use dsidx_obs::phase::{Phase, PhaseBreakdown, PhaseClock};
use dsidx_query::{
    approx_leaf, batch_collect_candidates, batch_seed_positions, batch_seed_prefix,
    batch_verify_candidates, collect_candidates, finish_knn, seed_from_entries, verify_candidates,
    AtomicQueryStats, BatchCandidate, BatchStats, DtwPrepared, ErrorSlot, PreparedQuery, Pruner,
    QueryBatch, QueryStats, SeriesFetcher, ShardView, SharedTopK,
};
use dsidx_series::distance::dtw::{dtw_sq_bounded, lb_keogh_sq_bounded};
use dsidx_series::distance::euclidean_sq_bounded;
use dsidx_series::Match;
use dsidx_storage::{LeafHandle, RawSource, StorageError};
use dsidx_sync::{AtomicBest, WorkQueue};
use parking_lot::Mutex;

/// SAX-array positions per Fetch&Inc claim in the lower-bound phase.
const LB_CHUNK: usize = 4096;
/// Candidates per Fetch&Inc claim in the real-distance phase.
const REAL_CHUNK: usize = 16;
/// Positions sampled per requested neighbor when warming a k-NN threshold
/// before the collect phase: the k-th best of a `4k` sample sits at a low
/// quantile of the distance distribution, where the k-th of a bare-k
/// sample would be the sample maximum (no pruning power at all).
const KNN_WARM_PER_NEIGHBOR: usize = 4;
/// Sketch-nearest probes per requested neighbor in approximate mode
/// (floored at [`APPROX_PROBE_MIN`]): verifying a few times k of the
/// best-sketch positions keeps the answer quality high while staying a
/// tiny fraction of the exact candidate list.
const APPROX_PROBE_PER_NEIGHBOR: usize = 4;
/// Minimum sketch-nearest probes whatever the k.
const APPROX_PROBE_MIN: usize = 16;

/// Charges the on-disk read-back of one materialized leaf to the leaf
/// store's device (a no-op for in-memory builds).
fn charge_leaf_read(paris: &ParisIndex, leaf: &dsidx_tree::Node) -> Result<(), StorageError> {
    if let Some(reader) = &paris.leaves {
        let mut records = Vec::new();
        for chunk in &leaf.payload().expect("leaf payload").chunks {
            reader.read(
                LeafHandle {
                    offset: chunk.offset,
                    count: chunk.count,
                },
                &mut records,
            )?;
        }
    }
    Ok(())
}

/// The ParIS schedule behind [`exact_nn`]: approximate-descent seeding,
/// then the two Fetch&Inc-chunked pool phases (parallel lower-bound
/// collect, parallel early-abandoned verify). Returns `None` for an empty
/// index. (k-NN goes through the batch path — [`exact_knn`] is a batch of
/// one.)
fn run_exact<P: Pruner>(
    paris: &ParisIndex,
    source: &impl RawSource,
    query: &[f32],
    threads: usize,
    pruner: &P,
) -> Result<Option<QueryStats>, StorageError> {
    let config = paris.index.config();
    assert_eq!(query.len(), config.series_len(), "query length mismatch");
    assert!(threads > 0, "thread count must be non-zero");
    if paris.index.is_empty() {
        return Ok(None);
    }
    let mut clock = PhaseClock::start();
    let mut phase = PhaseBreakdown::new();
    let prep = PreparedQuery::new(config.quantizer(), query);
    phase.record(Phase::Prepare, clock.lap());

    // Step 1: approximate answer — descend to the query's leaf, compute
    // real distances for its entries. In on-disk mode the leaf was
    // materialized, so charge its read-back from the leaf store.
    let leaf = approx_leaf(&paris.index, &prep.word).expect("non-empty index has a non-empty leaf");
    charge_leaf_read(paris, leaf).map_err(|e| e.in_phase(Phase::Seed.name()))?;
    let mut fetcher = SeriesFetcher::new(source);
    let entries = leaf.entries().expect("leaves are resident");
    let approx_real = seed_from_entries(entries, &mut fetcher, query, pruner)
        .map_err(|e| e.in_phase(Phase::Seed.name()))?;
    phase.record(Phase::Seed, clock.lap());

    // Step 2: parallel lower-bound pruning over the SAX array.
    let pool = dsidx_sync::pool::global(threads);
    let words = paris.sax.words();
    let lb_queue = WorkQueue::new(words.len());
    let candidates: Mutex<Vec<(u32, f32)>> = Mutex::new(Vec::new());
    pool.broadcast(&|_worker| {
        let mut local: Vec<(u32, f32)> = Vec::new();
        while let Some(range) = lb_queue.claim_chunk(LB_CHUNK) {
            collect_candidates(words, range, &prep.table, pruner, &mut local);
        }
        if !local.is_empty() {
            candidates.lock().extend_from_slice(&local);
        }
    });
    let candidates = candidates.into_inner();
    phase.record(Phase::Collect, clock.lap());

    // Step 3: parallel real distances over the candidate list.
    let real_queue = WorkQueue::new(candidates.len());
    let shared = AtomicQueryStats::new();
    let errors = ErrorSlot::for_phase(Phase::Verify);
    pool.broadcast(&|_worker| {
        let mut fetcher = SeriesFetcher::new(source);
        let mut reals = 0u64;
        while let Some(range) = real_queue.claim_chunk(REAL_CHUNK) {
            if errors.is_set() {
                break;
            }
            match verify_candidates(&candidates, range, &mut fetcher, query, pruner) {
                Ok(n) => reals += n,
                Err(e) => {
                    errors.record(e);
                    break;
                }
            }
        }
        shared.add_real_computed(reals);
    });
    errors.take()?;
    phase.record(Phase::Verify, clock.lap());

    let mut stats = shared.snapshot();
    stats.lb_computed = words.len() as u64;
    stats.candidates = candidates.len() as u64;
    stats.real_computed += approx_real;
    stats.phase = stats.phase.merged(&phase);
    Ok(Some(stats))
}

/// Exact 1-NN through the ParIS index.
///
/// `source` supplies raw series (the dataset file for on-disk operation —
/// reads are charged to its device — or the in-memory dataset).
///
/// Returns `None` for an empty index.
///
/// # Errors
/// Propagates raw-source and leaf-store I/O failures.
///
/// # Panics
/// Panics if the query length differs from the configured series length or
/// `threads == 0`.
pub fn exact_nn(
    paris: &ParisIndex,
    source: &impl RawSource,
    query: &[f32],
    threads: usize,
) -> Result<Option<(Match, QueryStats)>, StorageError> {
    let best = AtomicBest::new();
    match run_exact(paris, source, query, threads, &best)? {
        None => Ok(None),
        Some(stats) => {
            let (dist_sq, pos) = best.get();
            Ok(Some((Match::new(pos, dist_sq), stats)))
        }
    }
}

/// Exact k-NN through the ParIS index: the same two pool phases, pruning
/// against the k-th best distance (a [`SharedTopK`]) instead of the single
/// best. Workers share one top-k set, so the candidate list shrinks as any
/// worker tightens the k-th distance.
///
/// Returns the up-to-`k` nearest series sorted ascending by
/// `(distance, position)` — fewer than `k` when the collection is smaller,
/// empty for an empty index. The answer is deterministic across runs and
/// thread counts (distance ties prefer the lowest position).
///
/// # Errors
/// Propagates raw-source and leaf-store I/O failures.
///
/// # Panics
/// Panics if the query length differs from the configured series length,
/// `threads == 0`, or `k == 0`.
pub fn exact_knn(
    paris: &ParisIndex,
    source: &impl RawSource,
    query: &[f32],
    k: usize,
    threads: usize,
) -> Result<(Vec<Match>, QueryStats), StorageError> {
    let (mut matches, stats) = exact_knn_batch(paris, source, &[query], k, threads)?;
    Ok((matches.pop().expect("batch of one"), stats.into_single()))
}

/// Exact k-NN for a *batch* of queries, amortizing the pool wake-ups that
/// dominate sub-millisecond queries: the whole batch is answered by **one**
/// collect broadcast plus **one** verify broadcast (instead of two per
/// query), with the same Fetch&Inc chunking inside.
///
/// The collect phase lower-bounds each SAX word against every query in one
/// pass, emitting per-query candidate lists as `(position, query, bound)`
/// triples; the verify phase claims chunks of the shared triple list and
/// pays one raw fetch for every run of queries that kept the same
/// position. Seeding unions the batch's approximate leaves (each distinct
/// leaf charged once to the leaf store in on-disk mode) and cross-seeds
/// every pruner, then warms the k-NN thresholds over a position-order
/// prefix exactly like the single-query path.
///
/// Answers are element-wise identical to calling [`exact_knn`] per query,
/// deterministic across runs and thread counts.
///
/// # Errors
/// Propagates raw-source and leaf-store I/O failures.
///
/// # Panics
/// Panics if any query length differs from the configured series length,
/// `threads == 0`, or `k == 0`.
pub fn exact_knn_batch(
    paris: &ParisIndex,
    source: &impl RawSource,
    queries: &[&[f32]],
    k: usize,
    threads: usize,
) -> Result<(Vec<Vec<Match>>, BatchStats), StorageError> {
    exact_knn_batch_shared(paris, source, queries, k, threads, None)
}

/// [`exact_knn_batch`] with an optional cross-shard pruner view (see
/// [`SharedPruners`](dsidx_query::SharedPruners)): with `shard` set, both
/// pool phases prune against thresholds that other shards tighten
/// mid-flight, and recorded positions are rebased to global. The returned
/// matches then reflect the whole gather so far; the coordinator uses this
/// return value for stats and reads the final answer from the shared
/// pruners after every shard joined.
///
/// # Errors
/// Propagates raw-source and leaf-store I/O failures.
///
/// # Panics
/// As [`exact_knn_batch`].
pub fn exact_knn_batch_shared(
    paris: &ParisIndex,
    source: &impl RawSource,
    queries: &[&[f32]],
    k: usize,
    threads: usize,
    shard: Option<ShardView<'_>>,
) -> Result<(Vec<Vec<Match>>, BatchStats), StorageError> {
    let config = paris.index.config();
    for q in queries {
        assert_eq!(q.len(), config.series_len(), "query length mismatch");
    }
    assert!(threads > 0, "thread count must be non-zero");
    let mut clock = PhaseClock::start();
    let batch = QueryBatch::for_shard(config.quantizer(), queries, k, shard);
    let prepare_nanos = clock.lap();
    if paris.index.is_empty() || batch.is_empty() {
        return Ok(batch.finish(0, QueryStats::default()));
    }
    batch.phases().record(Phase::Prepare, prepare_nanos);

    // Step 1: approximate answers — the union of the batch's leaves
    // (distinct leaves charged once), cross-seeded into every pruner, then
    // the shared threshold warm-up over a position-order prefix.
    let mut leaves: Vec<&dsidx_tree::Node> = Vec::new();
    for slot in batch.slots() {
        let leaf = approx_leaf(&paris.index, &slot.prep.word)
            .expect("non-empty index has a non-empty leaf");
        if !leaves.iter().any(|l| std::ptr::eq(*l, leaf)) {
            leaves.push(leaf);
        }
    }
    let mut positions: Vec<u32> = Vec::new();
    for leaf in &leaves {
        charge_leaf_read(paris, leaf).map_err(|e| e.in_phase(Phase::Seed.name()))?;
        positions.extend(
            leaf.entries()
                .expect("leaves are resident")
                .iter()
                .map(|e| e.pos),
        );
    }
    positions.sort_unstable();
    positions.dedup();
    let mut fetcher = SeriesFetcher::new(source);
    batch_seed_positions(&positions, &mut fetcher, &batch)
        .map_err(|e| e.in_phase(Phase::Seed.name()))?;
    let warm = k.saturating_mul(KNN_WARM_PER_NEIGHBOR).min(source.count());
    batch_seed_prefix(warm, &mut fetcher, &batch).map_err(|e| e.in_phase(Phase::Seed.name()))?;
    clock.lap_into(batch.phases(), Phase::Seed);

    // Step 2: one parallel lower-bound broadcast for the whole batch.
    let pool = dsidx_sync::pool::global(threads);
    let words = paris.sax.words();
    let lb_queue = WorkQueue::new(words.len());
    let candidates: Mutex<Vec<BatchCandidate>> = Mutex::new(Vec::new());
    pool.broadcast(&|_worker| {
        let mut locals = vec![QueryStats::default(); batch.len()];
        let mut local: Vec<BatchCandidate> = Vec::new();
        while let Some(range) = lb_queue.claim_chunk(LB_CHUNK) {
            batch_collect_candidates(words, range, &batch, &mut locals, &mut local);
        }
        batch.merge_locals(&locals);
        if !local.is_empty() {
            candidates.lock().extend_from_slice(&local);
        }
    });
    let candidates = candidates.into_inner();
    clock.lap_into(batch.phases(), Phase::Collect);

    // Step 3: one parallel verify broadcast over the shared triple list.
    let real_queue = WorkQueue::new(candidates.len());
    let errors = ErrorSlot::for_phase(Phase::Verify);
    pool.broadcast(&|_worker| {
        let mut fetcher = SeriesFetcher::new(source);
        let mut locals = vec![QueryStats::default(); batch.len()];
        while let Some(range) = real_queue.claim_chunk(REAL_CHUNK) {
            if errors.is_set() {
                break;
            }
            if let Err(e) =
                batch_verify_candidates(&candidates, range, &mut fetcher, &batch, &mut locals)
            {
                errors.record(e);
                break;
            }
        }
        batch.merge_locals(&locals);
    });
    errors.take()?;
    clock.lap_into(batch.phases(), Phase::Verify);

    // Every query paid one bound per SAX-array position.
    let bounds = QueryStats {
        lb_computed: words.len() as u64,
        ..QueryStats::default()
    };
    for slot in batch.slots() {
        slot.stats.merge(&bounds);
    }
    Ok(batch.finish(2, QueryStats::default()))
}

/// *Approximate* k-NN through the ParIS index by **sketch-nearest**
/// probing: one serial pass over the SAX array (the sketches) lower-bounds
/// every position, the few-times-k positions with the smallest sketch
/// distances are fetched and verified with real Euclidean distances, and
/// the k nearest of those probes are returned — no pool broadcast, no
/// exhaustive verification.
///
/// Every reported distance is a real distance to a real series, so it is
/// never below the exact answer at the same rank; the positions may
/// differ. Empty for an empty index.
///
/// # Errors
/// Propagates raw-source I/O failures.
///
/// # Panics
/// Panics if the query length differs from the configured series length or
/// `k == 0`.
pub fn approx_knn(
    paris: &ParisIndex,
    source: &impl RawSource,
    query: &[f32],
    k: usize,
) -> Result<(Vec<Match>, QueryStats), StorageError> {
    let config = paris.index.config();
    assert_eq!(query.len(), config.series_len(), "query length mismatch");
    let prep = PreparedQuery::new(config.quantizer(), query);
    sketch_nearest(
        paris,
        source,
        k,
        |word| prep.table.lookup(word),
        move |series, limit, stats| {
            if let Some(d) = euclidean_sq_bounded(query, series, limit) {
                stats.real_computed += 1;
                Some(d)
            } else {
                None
            }
        },
    )
}

/// *Approximate* k-NN under banded DTW through the ParIS index: the same
/// sketch-nearest probing as [`approx_knn`], using the interval (envelope)
/// sketch bound to rank positions and paying the LB_Keogh →
/// early-abandoned banded DTW cascade for the probes.
///
/// # Errors
/// Propagates raw-source I/O failures.
///
/// # Panics
/// Panics if the query length differs from the configured series length or
/// `k == 0`.
pub fn approx_knn_dtw(
    paris: &ParisIndex,
    source: &impl RawSource,
    query: &[f32],
    band: usize,
    k: usize,
) -> Result<(Vec<Match>, QueryStats), StorageError> {
    let config = paris.index.config();
    assert_eq!(query.len(), config.series_len(), "query length mismatch");
    let prep = DtwPrepared::new(config.quantizer(), query, band);
    sketch_nearest(
        paris,
        source,
        k,
        |word| prep.table.lookup(word),
        move |series, limit, stats| {
            stats.lb_keogh_computed += 1;
            if lb_keogh_sq_bounded(series, &prep.lo_env, &prep.hi_env, limit).is_none() {
                stats.lb_keogh_pruned += 1;
                return None;
            }
            if let Some(d) = dtw_sq_bounded(query, series, band, limit) {
                stats.real_computed += 1;
                Some(d)
            } else {
                stats.dtw_abandoned += 1;
                None
            }
        },
    )
}

/// The shared sketch-nearest schedule behind both approximate measures:
/// rank every SAX word by `bound`, verify the best few-times-k positions
/// through `verify` (which charges its own counters and returns a full
/// real distance when one was paid).
fn sketch_nearest(
    paris: &ParisIndex,
    source: &impl RawSource,
    k: usize,
    bound: impl Fn(&dsidx_isax::Word) -> f32,
    mut verify: impl FnMut(&[f32], f32, &mut QueryStats) -> Option<f32>,
) -> Result<(Vec<Match>, QueryStats), StorageError> {
    let topk = SharedTopK::new(k);
    if paris.index.is_empty() {
        return Ok(finish_knn(&topk, None));
    }
    let mut clock = PhaseClock::start();
    let words = paris.sax.words();
    let mut stats = QueryStats {
        lb_computed: words.len() as u64,
        ..QueryStats::default()
    };
    let mut sketched: Vec<(f32, u32)> = words
        .iter()
        .enumerate()
        .map(|(pos, w)| (bound(w), pos as u32))
        .collect();
    let probe = k
        .saturating_mul(APPROX_PROBE_PER_NEIGHBOR)
        .max(APPROX_PROBE_MIN)
        .min(sketched.len());
    if probe < sketched.len() {
        // Deterministic selection: ties on the sketch distance break by
        // position, so the probed set never depends on sort internals.
        sketched.select_nth_unstable_by(probe - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        sketched.truncate(probe);
    }
    stats.candidates = sketched.len() as u64;
    stats.phase.record(Phase::SaxScan, clock.lap());
    // Fetch in position order (sequential-friendly for on-disk sources).
    sketched.sort_unstable_by_key(|&(_, pos)| pos);
    let mut fetcher = SeriesFetcher::new(source);
    for &(_, pos) in &sketched {
        let series = fetcher.fetch(pos as usize)?;
        let limit = topk.threshold_sq();
        if let Some(d) = verify(series, limit, &mut stats) {
            topk.insert(d, pos);
        }
    }
    stats.phase.record(Phase::Verify, clock.lap());
    Ok(finish_knn(&topk, Some(stats)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_in_memory, build_on_disk};
    use crate::config::{Overlap, ParisConfig};
    use dsidx_series::gen::DatasetKind;
    use dsidx_storage::{write_dataset, DatasetFile, Device};
    use dsidx_tree::TreeConfig;
    use dsidx_ucr::brute_force;
    use std::sync::Arc;

    fn cfg(threads: usize) -> ParisConfig {
        ParisConfig::new(TreeConfig::new(64, 8, 16).unwrap(), threads)
            .with_block_series(64)
            .with_generation_series(256)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dsidx-parisq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn exact_on_all_dataset_kinds_in_memory() {
        for kind in DatasetKind::ALL {
            let data = kind.generate(600, 64, 37);
            let (paris, _) = build_in_memory(&data, &cfg(4));
            let queries = kind.queries(8, 64, 37);
            for q in queries.iter() {
                let want = brute_force(&data, q).unwrap();
                for threads in [1usize, 4] {
                    let (got, stats) = exact_nn(&paris, &data, q, threads).unwrap().unwrap();
                    assert_eq!(got.pos, want.pos, "{} x{threads}", kind.name());
                    assert!((got.dist_sq - want.dist_sq).abs() <= want.dist_sq * 1e-4 + 1e-4);
                    assert_eq!(stats.lb_computed, 600);
                    assert!(stats.candidates <= 600);
                }
            }
        }
    }

    #[test]
    fn exact_on_disk_matches_memory() {
        let data = DatasetKind::Seismic.generate(400, 64, 5);
        let path = tmp("q.dsidx");
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let file = DatasetFile::open(&path, Arc::new(Device::unthrottled())).unwrap();
        let (paris, _) = build_on_disk(&file, &tmp("q.leaf"), &cfg(3), Overlap::ParisPlus).unwrap();
        let queries = DatasetKind::Seismic.queries(6, 64, 5);
        for q in queries.iter() {
            let want = brute_force(&data, q).unwrap();
            let (got, _) = exact_nn(&paris, &file, q, 4).unwrap().unwrap();
            assert_eq!(got.pos, want.pos);
            assert!((got.dist_sq - want.dist_sq).abs() <= want.dist_sq * 1e-4 + 1e-4);
        }
    }

    #[test]
    fn knn_equals_brute_force_topk_across_thread_counts() {
        let data = DatasetKind::Synthetic.generate(500, 64, 29);
        let (paris, _) = build_in_memory(&data, &cfg(4));
        let queries = DatasetKind::Synthetic.queries(3, 64, 29);
        for q in queries.iter() {
            for k in [1usize, 8, 40, 600] {
                let want = dsidx_ucr::brute_force_knn(&data, q, k);
                for threads in [1usize, 4] {
                    let (got, _) = exact_knn(&paris, &data, q, k, threads).unwrap();
                    assert_eq!(got.len(), want.len(), "k={k} x{threads}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.pos, w.pos, "k={k} x{threads}");
                        assert!((g.dist_sq - w.dist_sq).abs() <= w.dist_sq * 1e-4 + 1e-4);
                    }
                }
            }
        }
    }

    #[test]
    fn knn_collect_phase_stays_bounded_when_k_exceeds_the_seed_leaf() {
        // With leaf capacity 16 and k = 50, leaf seeding alone cannot fill
        // the top-k, and an infinite threshold would make the collect
        // phase emit every position as a candidate. The position-order
        // top-up caps it: the candidate list must stay a fraction of the
        // collection.
        let data = DatasetKind::Synthetic.generate(2000, 64, 8);
        let (paris, _) = build_in_memory(&data, &cfg(4));
        let q = DatasetKind::Synthetic.queries(1, 64, 8);
        let (got, stats) = exact_knn(&paris, &data, q.get(0), 50, 4).unwrap();
        assert_eq!(got.len(), 50);
        assert!(
            stats.candidates < 2000,
            "collect phase ran unpruned: {} candidates",
            stats.candidates
        );
        // And the warmed seeding still yields the exact answer.
        let want = dsidx_ucr::brute_force_knn(&data, q.get(0), 50);
        assert_eq!(
            got.iter().map(|m| m.pos).collect::<Vec<_>>(),
            want.iter().map(|m| m.pos).collect::<Vec<_>>()
        );
    }

    #[test]
    fn knn_batch_equals_sequential_knn_across_thread_counts() {
        let data = DatasetKind::Synthetic.generate(600, 64, 47);
        let (paris, _) = build_in_memory(&data, &cfg(4));
        let qs = DatasetKind::Synthetic.queries(6, 64, 47);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        for k in [1usize, 9, 35] {
            for threads in [1usize, 4] {
                let (batched, stats) = exact_knn_batch(&paris, &data, &qrefs, k, threads).unwrap();
                assert_eq!(stats.broadcasts, 2, "one collect + one verify per batch");
                assert!(stats.broadcasts_per_query() < 1.0);
                for (qi, q) in qs.iter().enumerate() {
                    let (single, _) = exact_knn(&paris, &data, q, k, threads).unwrap();
                    assert_eq!(
                        batched[qi].iter().map(|m| m.pos).collect::<Vec<_>>(),
                        single.iter().map(|m| m.pos).collect::<Vec<_>>(),
                        "q{qi} k={k} x{threads}"
                    );
                    assert_eq!(stats.per_query[qi].lb_computed, 600);
                }
                // Shared fetches never exceed the per-query requests.
                assert!(stats.series_fetched <= stats.series_requests);
            }
        }
    }

    #[test]
    fn knn_batch_on_disk_matches_memory_batch() {
        let data = DatasetKind::Seismic.generate(300, 64, 53);
        let path = tmp("batch.dsidx");
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let file = DatasetFile::open(&path, Arc::new(Device::unthrottled())).unwrap();
        let (paris, _) =
            build_on_disk(&file, &tmp("batch.leaf"), &cfg(3), Overlap::ParisPlus).unwrap();
        let qs = DatasetKind::Seismic.queries(5, 64, 53);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let (mem, _) = exact_knn_batch(&paris, &data, &qrefs, 7, 4).unwrap();
        let (disk, _) = exact_knn_batch(&paris, &file, &qrefs, 7, 4).unwrap();
        for (qi, (m, d)) in mem.iter().zip(&disk).enumerate() {
            assert_eq!(
                m.iter().map(|x| x.pos).collect::<Vec<_>>(),
                d.iter().map(|x| x.pos).collect::<Vec<_>>(),
                "q{qi}"
            );
            let want = dsidx_ucr::brute_force_knn(&data, qs.get(qi), 7);
            assert_eq!(
                m.iter().map(|x| x.pos).collect::<Vec<_>>(),
                want.iter().map(|x| x.pos).collect::<Vec<_>>(),
                "q{qi}"
            );
        }
    }

    #[test]
    fn knn_on_disk_matches_memory() {
        let data = DatasetKind::Seismic.generate(350, 64, 17);
        let path = tmp("knn.dsidx");
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let file = DatasetFile::open(&path, Arc::new(Device::unthrottled())).unwrap();
        let (paris, _) =
            build_on_disk(&file, &tmp("knn.leaf"), &cfg(3), Overlap::ParisPlus).unwrap();
        let queries = DatasetKind::Seismic.queries(3, 64, 17);
        for q in queries.iter() {
            let want = dsidx_ucr::brute_force_knn(&data, q, 10);
            let (got, _) = exact_knn(&paris, &file, q, 10, 4).unwrap();
            assert_eq!(
                got.iter().map(|m| m.pos).collect::<Vec<_>>(),
                want.iter().map(|m| m.pos).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn knn_deterministic_across_runs_and_threads() {
        let data = DatasetKind::Sald.generate(600, 64, 23);
        let (paris, _) = build_in_memory(&data, &cfg(6));
        let q = DatasetKind::Sald.queries(1, 64, 23);
        let (first, _) = exact_knn(&paris, &data, q.get(0), 15, 1).unwrap();
        assert_eq!(first.len(), 15);
        for threads in [2usize, 4, 8] {
            for _ in 0..3 {
                let (m, _) = exact_knn(&paris, &data, q.get(0), 15, threads).unwrap();
                assert_eq!(m, first);
            }
        }
    }

    #[test]
    fn approx_knn_never_beats_exact_on_memory_and_disk() {
        let data = DatasetKind::Synthetic.generate(600, 64, 67);
        let (paris, _) = build_in_memory(&data, &cfg(4));
        let queries = DatasetKind::Synthetic.queries(4, 64, 67);
        for q in queries.iter() {
            for k in [1usize, 5, 12] {
                let exact = dsidx_ucr::brute_force_knn(&data, q, k);
                let (approx, stats) = approx_knn(&paris, &data, q, k).unwrap();
                assert_eq!(approx.len(), k.min(data.len()));
                for (a, e) in approx.iter().zip(&exact) {
                    assert!(a.dist_sq >= e.dist_sq - e.dist_sq * 1e-6, "k={k}");
                }
                // Sketch pass bounds every position; probes stay few.
                assert_eq!(stats.lb_computed, 600);
                assert!(stats.candidates <= 600);
                assert!(stats.candidates >= k as u64);
                let exact_dtw = dsidx_ucr::brute_force_dtw_knn(&data, q, 4, k);
                let (approx_dtw, _) = approx_knn_dtw(&paris, &data, q, 4, k).unwrap();
                for (a, e) in approx_dtw.iter().zip(&exact_dtw) {
                    assert!(a.dist_sq >= e.dist_sq - e.dist_sq * 1e-6, "dtw k={k}");
                }
            }
        }
        // The on-disk index gives the same approximate answers.
        let path = tmp("approx.dsidx");
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let file = DatasetFile::open(&path, Arc::new(Device::unthrottled())).unwrap();
        let (paris_d, _) =
            build_on_disk(&file, &tmp("approx.leaf"), &cfg(3), Overlap::ParisPlus).unwrap();
        for q in queries.iter() {
            let (mem, _) = approx_knn(&paris_d, &data, q, 5).unwrap();
            let (disk, _) = approx_knn(&paris_d, &file, q, 5).unwrap();
            assert_eq!(
                mem.iter().map(|m| m.pos).collect::<Vec<_>>(),
                disk.iter().map(|m| m.pos).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn approx_knn_finds_planted_twin_and_handles_empty() {
        // The query IS a collection member: its sketch distance is 0, so
        // the probe set must contain it and approximate k-NN returns it.
        let data = DatasetKind::Seismic.generate(400, 64, 21);
        let (paris, _) = build_in_memory(&data, &cfg(3));
        for pos in [0usize, 200, 399] {
            let (m, _) = approx_knn(&paris, &data, data.get(pos), 1).unwrap();
            assert_eq!(m[0].pos as usize, pos);
            assert_eq!(m[0].dist_sq, 0.0);
        }
        let empty = dsidx_series::Dataset::new(64).unwrap();
        let (paris, _) = build_in_memory(&empty, &cfg(2));
        let (m, stats) = approx_knn(&paris, &empty, &vec![0.0; 64], 3).unwrap();
        assert!(m.is_empty());
        assert_eq!(stats, QueryStats::default());
    }

    #[test]
    fn query_for_indexed_series_finds_itself() {
        let data = DatasetKind::Synthetic.generate(300, 64, 11);
        let (paris, _) = build_in_memory(&data, &cfg(4));
        for pos in [0usize, 150, 299] {
            let (m, _) = exact_nn(&paris, &data, data.get(pos), 4).unwrap().unwrap();
            assert_eq!(m.pos as usize, pos);
            assert_eq!(m.dist_sq, 0.0);
        }
    }

    #[test]
    fn empty_index_returns_none() {
        let data = dsidx_series::Dataset::new(64).unwrap();
        let (paris, _) = build_in_memory(&data, &cfg(2));
        assert!(exact_nn(&paris, &data, &vec![0.0; 64], 2)
            .unwrap()
            .is_none());
    }

    #[test]
    fn deterministic_answer_across_runs_and_threads() {
        let data = DatasetKind::Sald.generate(800, 64, 3);
        let (paris, _) = build_in_memory(&data, &cfg(6));
        let q = DatasetKind::Sald.queries(1, 64, 3);
        let (first, _) = exact_nn(&paris, &data, q.get(0), 1).unwrap().unwrap();
        for threads in [2usize, 4, 8] {
            for _ in 0..3 {
                let (m, _) = exact_nn(&paris, &data, q.get(0), threads).unwrap().unwrap();
                assert_eq!(m, first);
            }
        }
    }

    #[test]
    fn tree_counters_stay_zero_for_scan_engine() {
        let data = DatasetKind::Synthetic.generate(200, 64, 2);
        let (paris, _) = build_in_memory(&data, &cfg(2));
        let q = DatasetKind::Synthetic.queries(1, 64, 2);
        let (_, stats) = exact_nn(&paris, &data, q.get(0), 2).unwrap().unwrap();
        assert_eq!(stats.nodes_pruned, 0);
        assert_eq!(stats.leaves_enqueued, 0);
        assert_eq!(stats.leaves_processed, 0);
        assert_eq!(stats.lb_entry_computed, 0);
        assert_eq!(stats.lb_total(), stats.lb_computed);
    }
}
