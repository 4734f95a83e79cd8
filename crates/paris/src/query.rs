//! ParIS/ParIS+ exact query answering (stage 4 of Fig. 2).
//!
//! Identical for ParIS and ParIS+ ("for query answering, ParIS and ParIS+
//! are the same"): compute an approximate best-so-far from the most
//! promising leaf, prune over every series' iSAX word with lower-bound
//! distances in parallel, collect the survivors in a candidate list, then
//! compute real distances for the candidates in parallel with early
//! abandoning.
//!
//! The paper scans a SAX array: the words in position order, kept beside
//! the tree. Here the scan reads the flat tree's own entry runs — the same
//! words, in leaf order, each with its position. The collect phase inserts
//! nothing, so its candidate set does not depend on the scan order, and
//! each query's list is ordered by position before anything else.
//!
//! The whole schedule lives in this crate: the per-entry loops in the
//! private `seed` and `batch` modules, their scheduling here — two
//! Fetch&Inc-chunked pool phases with the queries' candidate lists between.
//! The shared kernel (`dsidx-query`) gives the batch, the fetcher and the
//! descent to a leaf.
//! There is one exact schedule, [`exact`] (1-NN and single queries are
//! its k = 1 / batch-of-one cases), and one approximate one, [`approx`].
//! The exact schedule also answers for ADS+: at one worker it is SIMS,
//! the serial scan ParIS parallelizes. Every query in a batch seeds,
//! collects and verifies for itself, so at one worker it does exactly the
//! work it does alone; a batch shares only the broadcasts, the entry scan
//! and the read-back of a leaf two queries seed from.
//!
//! **Departs from the paper** in *which* raw series the schedule pays
//! for, never in the answer. The paper seeds from every entry of the
//! approximate leaf and verifies the whole candidate list in position
//! order, which favours an HDD's short forward seeks. The modeled device
//! (like an SSD) charges a full access latency for any non-adjacent read,
//! so what counts is the number of reads. Here each query's seed fetches
//! only the few entries of its own leaf whose MINDIST ranks best
//! ([`best_bound_positions`]), and each query's few dozen best-bound
//! candidates are verified *first*, best bound first — the
//! order the paper credits for part of MESSI's win ("MESSI also performs
//! less real distance calculations"), which nothing in the collect →
//! verify split prevents. That tightens the thresholds after a handful of
//! reads, and the re-check drops most of the remaining list without
//! touching the device. The remainder keeps the paper's position order:
//! whatever still survives has to be read anyway, and in that order
//! survivors that lie close together are fetched as one *span* read
//! whenever the series between them cost less to read through than a
//! seek ([`RawSource::span_gap`]: 47 series
//! at length 256 on the modeled SSD, 1,392 on the HDD) — the paper's
//! short forward seek, priced by the device. Fewer reads wins on both
//! device profiles; `fig12`'s real-distance counts show the gap to MESSI
//! closing.

use crate::batch::{
    batch_collect_candidates, batch_verify_candidates, order_best_bound_first, BatchCandidate,
};
use crate::seed::{best_bound_positions, seed_query};
use dsidx_obs::phase::{Phase, PhaseClock};
use dsidx_query::{
    approx_leaf_flat, finish_knn, BatchStats, ErrorSlot, Prepared, Pruner, QueryBatch, QueryStats,
    SeriesFetcher, ShardView, SharedTopK,
};
use dsidx_series::distance::dtw::DtwScratch;
use dsidx_series::Match;
use dsidx_storage::{EntryRuns, RawSource, StorageError};
use dsidx_sync::WorkQueue;
use dsidx_tree::FlatTree;
use parking_lot::Mutex;

/// Entries per Fetch&Inc claim in the lower-bound phase.
const LB_CHUNK: usize = 4096;
/// Candidates per Fetch&Inc claim in the real-distance phase.
const REAL_CHUNK: usize = 16;
/// Best-bound candidates per query verified ahead of the position-order
/// remainder of its list ([`order_best_bound_first`]), floored at k.
/// Past a few dozen the reads saved stop growing (16, 64, 256 and the
/// whole list measured alike on the modeled SSD), while every head entry
/// costs a seek when the candidate list is dense.
const VERIFY_HEAD: usize = 64;
/// Entries of its approximate leaf each query seeds from — the ones with
/// the smallest MINDIST to it — floored at k so a large enough leaf still
/// fills the top-k.
const SEED_PROBES: usize = 8;
/// Positions sampled per requested neighbor when warming a k-NN threshold
/// before the collect phase. Leaf seeding alone leaves the threshold at
/// `+inf` when the leaf holds fewer than k entries, and collect would then
/// keep the whole collection. The k-th best of a `4k` sample sits at a low
/// quantile of the distance distribution, where the k-th of a bare-k
/// sample would be the sample maximum (no pruning power at all). The
/// sample also caps the threshold of a query whose leaf holds nothing
/// near it — the queries that would otherwise collect most of the
/// collection — and, being adjacent positions, costs one seek.
const KNN_WARM_PER_NEIGHBOR: usize = 4;
/// Sketch-nearest probes per requested neighbor in approximate mode
/// (floored at [`APPROX_PROBE_MIN`]): verifying a few times k of the
/// best-sketch positions keeps the answer quality high while staying a
/// tiny fraction of the exact candidate list.
const APPROX_PROBE_PER_NEIGHBOR: usize = 4;
/// Minimum sketch-nearest probes whatever the k.
const APPROX_PROBE_MIN: usize = 16;

/// Exact Euclidean k-NN for a *batch* of queries through the ParIS index,
/// amortizing the pool wake-ups that dominate sub-millisecond queries: the
/// whole batch is answered by **one** collect broadcast plus **one** verify
/// broadcast, with Fetch&Inc chunking inside. A single query is a batch of
/// one; 1-NN is `k = 1`.
///
/// `source` supplies raw series (the dataset file for on-disk operation —
/// reads are charged to its device — or the in-memory dataset). `leaves`
/// are `tree`'s entry runs on disk, if its leaves are to be read back from
/// them: the `WORDS` and `POSITION` sections of the snapshot an on-disk
/// index holds, whether its build wrote it or it was opened.
///
/// Each query seeds itself: it ranks its own approximate leaf by its
/// MINDIST, fetches the best few entries in position order (each distinct
/// leaf read back once from `leaves`, when given), then warms its
/// threshold over a short position-order prefix, checking every series
/// against its own threshold only. The collect phase lower-bounds each
/// entry's word against every query in one pass, appending each survivor
/// to its own query's candidate list. Each list is then ordered on its own
/// — its best-bound candidates first, best bound first, the rest in
/// position order — and the lists are joined, query after query, into one
/// verify queue. The verify phase claims chunks of it from the front,
/// paying one raw fetch for every candidate that still beats its query's
/// live threshold, and reading a chunk's nearby survivors of one query as
/// one span when the source's gap allows. A position two queries read is
/// read once for each. Workers share one top-k set per query, so the tail
/// of a candidate list is dropped as soon as any worker tightens the k-th
/// distance.
///
/// Each answer is the up-to-`k` nearest series sorted ascending by
/// `(distance, position)` — fewer than `k` when the collection is smaller,
/// empty for an empty index — deterministic across runs and thread counts
/// (distance ties prefer the lowest position) and independent of what else
/// is in the batch.
///
/// With `shard` set (see [`SharedPruners`](dsidx_query::SharedPruners)),
/// both pool phases prune against thresholds that other shards tighten
/// mid-flight, and recorded positions are rebased to global. The returned
/// matches then reflect the whole gather so far; the coordinator uses this
/// return value for stats and reads the final answer from the shared
/// pruners after every shard joined.
///
/// # Errors
/// Propagates raw-source and leaf read-back I/O failures.
///
/// # Panics
/// Panics if any query length differs from the configured series length,
/// `threads == 0`, or `k == 0`.
pub fn exact(
    tree: &FlatTree,
    leaves: Option<&EntryRuns>,
    source: &impl RawSource,
    queries: &[&[f32]],
    k: usize,
    threads: usize,
    shard: Option<ShardView<'_>>,
) -> Result<(Vec<Vec<Match>>, BatchStats), StorageError> {
    let config = tree.config();
    for q in queries {
        assert_eq!(q.len(), config.series_len(), "query length mismatch");
    }
    assert!(threads > 0, "thread count must be non-zero");
    let mut clock = PhaseClock::start();
    let batch = QueryBatch::new(config.quantizer(), queries, k, shard);
    let prepare_nanos = clock.lap();
    if tree.entry_count() == 0 || batch.is_empty() {
        return Ok(batch.finish(0));
    }
    batch.record_phase(Phase::Prepare, prepare_nanos);

    // Step 1: approximate answers, each query on its own — the best-bound
    // entries of its approximate leaf in position order (distinct leaves
    // read back once), then the threshold warm-up over a position-order
    // prefix (adjacent positions: one seek for the lot), each against its
    // own threshold only.
    let warm = u32::try_from(k.saturating_mul(KNN_WARM_PER_NEIGHBOR).min(source.count()))
        .expect("positions are u32");
    let mut fetcher = SeriesFetcher::new(source);
    let mut locals = vec![QueryStats::default(); batch.len()];
    let (mut read_back, mut seeds, mut fetches) = (Vec::new(), Vec::new(), 0);
    for (slot, local) in batch.slots().iter().zip(&mut locals) {
        let leaf =
            approx_leaf_flat(tree, &slot.prep.word).expect("non-empty index has a non-empty leaf");
        let node = tree.node(leaf);
        if let Some(runs) = leaves.filter(|_| !read_back.contains(&leaf)) {
            // The read-back is charged to the runs' device; the tree
            // already holds what it reads.
            runs.read(node.entry_range(), &mut Vec::new(), &mut Vec::new())
                .map_err(|e| e.in_phase(Phase::Seed.name()))?;
            read_back.push(leaf);
        }
        seeds.clear();
        best_bound_positions(
            tree.leaf_words(node),
            tree.leaf_positions(node),
            &slot.prep.table,
            k.max(SEED_PROBES),
            &mut seeds,
        );
        let reads = seeds.iter().copied().chain(0..warm);
        fetches += seed_query(slot, reads, &mut fetcher, local)
            .map_err(|e| e.in_phase(Phase::Seed.name()))?;
    }
    batch.merge_locals(&locals);
    batch.count_io(fetches, fetches);
    batch.record_phase(Phase::Seed, clock.lap());

    // Step 2: one parallel lower-bound broadcast for the whole batch, then
    // each query's candidate list ordered on its own (best-bound head,
    // position-order rest) and the lists joined, query after query.
    let pool = dsidx_sync::pool::global(threads);
    let (words, positions) = (tree.words(), tree.positions());
    let lb_queue = WorkQueue::new(words.len());
    let lists: Mutex<Vec<Vec<BatchCandidate>>> = Mutex::new(vec![Vec::new(); batch.len()]);
    pool.broadcast(&|_worker| {
        let mut locals = vec![QueryStats::default(); batch.len()];
        let mut local = vec![Vec::new(); batch.len()];
        while let Some(range) = lb_queue.claim_chunk(LB_CHUNK) {
            batch_collect_candidates(words, positions, range, &batch, &mut locals, &mut local);
        }
        batch.merge_locals(&locals);
        for (list, mine) in lists.lock().iter_mut().zip(local) {
            list.extend(mine);
        }
    });
    let mut candidates = Vec::new();
    for mut list in lists.into_inner() {
        order_best_bound_first(&mut list, k.max(VERIFY_HEAD));
        candidates.append(&mut list);
    }
    batch.record_phase(Phase::Collect, clock.lap());

    // Step 3: one parallel verify broadcast, claimed from the front of
    // the joined lists.
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
    batch.record_phase(Phase::Verify, clock.lap());

    // Every query paid one bound per entry.
    let bounds = QueryStats {
        lb_computed: words.len() as u64,
        ..QueryStats::default()
    };
    batch.merge_locals(&vec![bounds; batch.len()]);
    Ok(batch.finish(2))
}

/// *Approximate* k-NN through the ParIS index by **sketch-nearest**
/// probing: one serial pass over `tree`'s entry words (the sketches)
/// lower-bounds every series through `prep`'s word-level table (the
/// point bound of a Euclidean query, the interval bound of a DTW one), the
/// few-times-k positions with the smallest sketch distances are fetched
/// and verified with `prep`'s real distance (early-abandoned Euclidean, or
/// the raw-series cascade), and the k nearest of those probes are returned
/// — no pool broadcast, no exhaustive verification.
///
/// Every reported distance is a real distance to a real series, so it is
/// never below the exact answer at the same rank; the positions may
/// differ. Empty for an empty index.
///
/// The probes are the smallest `(sketch distance, position)` pairs, fetched
/// in position order ([`best_bound_positions`], the ranking the exact seed
/// uses), so the probed set depends neither on the SIMD mode nor on the
/// leaf order the words come in.
///
/// # Errors
/// Propagates raw-source I/O failures.
///
/// # Panics
/// Panics if the query length differs from the configured series length or
/// `k == 0`.
pub fn approx(
    tree: &FlatTree,
    source: &impl RawSource,
    query: &[f32],
    prep: &impl Prepared,
    k: usize,
) -> Result<(Vec<Match>, QueryStats), StorageError> {
    assert_eq!(
        query.len(),
        tree.config().series_len(),
        "query length mismatch"
    );
    let topk = SharedTopK::new(k);
    if tree.entry_count() == 0 {
        return Ok(finish_knn(&topk, None));
    }
    let mut clock = PhaseClock::start();
    let words = tree.words();
    let mut stats = QueryStats {
        lb_computed: words.len() as u64,
        ..QueryStats::default()
    };
    let probe = k
        .saturating_mul(APPROX_PROBE_PER_NEIGHBOR)
        .max(APPROX_PROBE_MIN);
    let mut probes = Vec::new();
    best_bound_positions(words, tree.positions(), prep.table(), probe, &mut probes);
    stats.candidates = probes.len() as u64;
    stats.phase.record(Phase::SaxScan, clock.lap());
    let mut fetcher = SeriesFetcher::new(source);
    let mut scratch = DtwScratch::new();
    for pos in probes {
        let series = fetcher.fetch(pos as usize)?;
        let limit = topk.threshold_sq();
        if let Some(d) = prep.distance(query, series, limit, &mut scratch, &mut stats) {
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
    use dsidx_query::PreparedQuery;
    use dsidx_series::gen::DatasetKind;
    use dsidx_storage::{write_dataset, DatasetFile, Device, DeviceProfile, FlakySource};
    use dsidx_tree::TreeConfig;
    use dsidx_ucr::brute_force;
    use std::sync::Arc;

    fn cfg(threads: usize) -> ParisConfig {
        ParisConfig::new(TreeConfig::new(64, 8, 16).unwrap(), threads)
            .with_block_series(64)
            .with_generation_series(256)
    }

    /// One query through [`exact`] as a batch of one, reading leaves back
    /// from `leaves` when given.
    fn knn_from(
        tree: &FlatTree,
        leaves: Option<&EntryRuns>,
        source: &impl RawSource,
        q: &[f32],
        k: usize,
        threads: usize,
    ) -> (Vec<Match>, QueryStats) {
        let (mut matches, stats) = exact(tree, leaves, source, &[q], k, threads, None).unwrap();
        (matches.pop().expect("batch of one"), stats.into_single())
    }

    /// [`knn_from`] with every leaf resident.
    fn knn(
        tree: &FlatTree,
        source: &impl RawSource,
        q: &[f32],
        k: usize,
        threads: usize,
    ) -> (Vec<Match>, QueryStats) {
        knn_from(tree, None, source, q, k, threads)
    }

    /// The `k = 1` case of [`knn`]; `None` for an empty index.
    fn nn(
        tree: &FlatTree,
        source: &impl RawSource,
        q: &[f32],
        threads: usize,
    ) -> Option<(Match, QueryStats)> {
        let (matches, stats) = knn(tree, source, q, 1, threads);
        matches.first().map(|&m| (m, stats))
    }

    /// The Euclidean sketch-nearest answer.
    fn approx_ed(
        tree: &FlatTree,
        source: &impl RawSource,
        q: &[f32],
        k: usize,
    ) -> Result<(Vec<Match>, QueryStats), StorageError> {
        approx(
            tree,
            source,
            q,
            &PreparedQuery::new(tree.config().quantizer(), q),
            k,
        )
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dsidx-parisq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// `tree`'s two entry runs — its snapshot's `WORDS` and `POSITION`
    /// sections — back to back in a plain file at `path`, read through
    /// `device`.
    fn entry_runs(tree: &FlatTree, path: &std::path::Path, device: &Arc<Device>) -> EntryRuns {
        let sections = dsidx_tree::snapshot::encode(tree);
        std::fs::write(
            path,
            [sections.words.as_slice(), &sections.positions].concat(),
        )
        .unwrap();
        EntryRuns::new(
            std::fs::File::open(path).unwrap(),
            0,
            sections.words.len() as u64,
            tree.config().segments(),
            Arc::clone(device),
        )
    }

    /// ADS+'s build: MESSI's at one worker.
    fn serial_cfg() -> dsidx_messi::MessiConfig {
        dsidx_messi::MessiConfig::new(TreeConfig::new(64, 8, 16).unwrap(), 1)
    }

    #[test]
    fn pruning_actually_happens_on_clusterable_data() {
        let data = dsidx_series::gen::sines(800, 64, 3);
        let (paris, _) = dsidx_messi::build(&data, &serial_cfg());
        let queries = dsidx_series::gen::sines(5, 64, 999);
        for q in queries.iter() {
            let (_, stats) = nn(&paris, &data, q, 1).unwrap();
            assert!(
                stats.candidates <= 400,
                "lower bounds should prune most sines candidates: {}",
                stats.candidates
            );
        }
    }

    #[test]
    fn knn_batch_of_zero_queries_is_empty() {
        let data = DatasetKind::Synthetic.generate(50, 64, 3);
        let (paris, _) = dsidx_messi::build(&data, &serial_cfg());
        let (matches, stats) = exact(&paris, None, &data, &[], 5, 1, None).unwrap();
        assert!(matches.is_empty());
        assert_eq!(stats.broadcasts, 0);
        assert!(stats.per_query.is_empty());
    }

    #[test]
    fn stats_account_seeding_and_scan_uniformly() {
        // At one worker the scan keeps its accounting: every query bounds
        // every SAX word, pays real distances from the seed on, leaves the
        // tree counters at zero, and the batch still costs the schedule's
        // two broadcasts.
        let data = DatasetKind::Synthetic.generate(150, 64, 17);
        let (paris, _) = dsidx_messi::build(&data, &serial_cfg());
        let qs = DatasetKind::Synthetic.queries(3, 64, 17);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let (_, stats) = exact(&paris, None, &data, &qrefs, 1, 1, None).unwrap();
        assert_eq!(stats.broadcasts, 2);
        assert_eq!(stats.series_fetched, stats.series_requests);
        for q in &stats.per_query {
            assert_eq!(q.lb_computed, 150);
            assert_eq!(q.lb_total(), 150);
            assert!(q.real_computed >= 1, "seeding pays at least one real");
            assert_eq!(q.nodes_pruned, 0);
            assert_eq!(q.leaves_enqueued, 0);
            assert_eq!(q.lb_entry_computed, 0);
        }
    }

    #[test]
    fn on_disk_query_matches_in_memory() {
        // No entry runs to read a leaf back from: the one-worker scan over
        // a file still answers exactly as over the resident dataset.
        let data = DatasetKind::Seismic.generate(300, 64, 8);
        let path = tmp("serial.dsidx");
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let file = DatasetFile::open(&path, Arc::new(Device::unthrottled())).unwrap();
        let (paris, _) = dsidx_messi::build_from_file(&file, &serial_cfg(), 64).unwrap();
        for q in DatasetKind::Seismic.queries(5, 64, 8).iter() {
            let (mem, _) = nn(&paris, &data, q, 1).unwrap();
            let (disk, _) = nn(&paris, &file, q, 1).unwrap();
            assert_eq!(mem.pos, disk.pos);
            assert_eq!(mem.dist_sq.to_bits(), disk.dist_sq.to_bits());
            assert_eq!(mem.pos, brute_force(&data, q).unwrap().pos);
        }
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
                    let (got, stats) = nn(&paris, &data, q, threads).unwrap();
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
        let runs = entry_runs(&paris, &tmp("q.runs"), file.device());
        let queries = DatasetKind::Seismic.queries(6, 64, 5);
        for q in queries.iter() {
            let want = brute_force(&data, q).unwrap();
            let (got, _) = knn_from(&paris, Some(&runs), &file, q, 1, 4);
            let got = got[0];
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
                    let (got, _) = knn(&paris, &data, q, k, threads);
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
        let (got, stats) = knn(&paris, &data, q.get(0), 50, 4);
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
    fn ranked_seeding_is_exact_when_leaves_are_smaller_than_the_probe_count() {
        // Leaf capacity 4 < SEED_PROBES: every approximate leaf is taken
        // whole; k = 3 still fits one, k = 9 only fills from the warm-up.
        let tiny = ParisConfig::new(TreeConfig::new(64, 8, 4).unwrap(), 2)
            .with_block_series(64)
            .with_generation_series(256);
        let data = DatasetKind::Synthetic.generate(500, 64, 61);
        let (paris, _) = build_in_memory(&data, &tiny);
        let largest = dsidx_tree::stats::index_stats(&paris).max_leaf_len;
        assert!(largest < SEED_PROBES, "fixture leaves too large: {largest}");
        let qs = DatasetKind::Synthetic.queries(5, 64, 61);
        for q in qs.iter() {
            for k in [1usize, 3, 9] {
                let want = dsidx_ucr::brute_force_knn(&data, q, k);
                let (got, stats) = knn(&paris, &data, q, k, 2);
                assert_eq!(
                    got.iter().map(|m| m.pos).collect::<Vec<_>>(),
                    want.iter().map(|m| m.pos).collect::<Vec<_>>(),
                    "k={k}"
                );
                assert!(stats.candidates < 500, "k={k}: collect ran unpruned");
            }
        }
    }

    #[test]
    fn candidate_lists_far_longer_than_the_verify_head_stay_exact() {
        // Seismic bounds barely prune: nearly the whole collection survives
        // collect, so almost every candidate sits in the position-order
        // remainder behind the best-bound head.
        let data = DatasetKind::Seismic.generate(1500, 64, 101);
        let (paris, _) = build_in_memory(&data, &cfg(4));
        let qs = DatasetKind::Seismic.queries(12, 64, 101);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        for k in [1usize, 10] {
            for threads in [1usize, 4] {
                let (got, stats) = exact(&paris, None, &data, &qrefs, k, threads, None).unwrap();
                for (qi, q) in qs.iter().enumerate() {
                    let want = dsidx_ucr::brute_force_knn(&data, q, k);
                    assert_eq!(
                        got[qi].iter().map(|m| m.pos).collect::<Vec<_>>(),
                        want.iter().map(|m| m.pos).collect::<Vec<_>>(),
                        "q{qi} k={k} x{threads}"
                    );
                    assert!(
                        stats.per_query[qi].candidates > 4 * VERIFY_HEAD as u64,
                        "fixture prunes too well to reach past the head"
                    );
                }
            }
        }
    }

    #[test]
    fn duplicate_heavy_data_keeps_the_lowest_position_tie_break() {
        // 12 distinct series, 25 copies each, interleaved: every distance
        // is a 25-way tie, so each seed, each best-bound run and the top-k
        // boundary all cut through ties.
        let base = DatasetKind::Synthetic.generate(12, 64, 71);
        let mut data = dsidx_series::Dataset::new(64).unwrap();
        for _ in 0..25 {
            for s in base.iter() {
                data.push(s).unwrap();
            }
        }
        let (paris, _) = build_in_memory(&data, &cfg(4));
        let fresh = DatasetKind::Synthetic.queries(2, 64, 71);
        let queries: Vec<&[f32]> = vec![base.get(5), fresh.get(0), fresh.get(1)];
        for k in [1usize, 7, 25, 40] {
            for threads in [1usize, 4] {
                let (got, stats) = exact(&paris, None, &data, &queries, k, threads, None).unwrap();
                for (qi, q) in queries.iter().enumerate() {
                    let want = dsidx_ucr::brute_force_knn(&data, q, k);
                    assert_eq!(
                        got[qi].iter().map(|m| m.pos).collect::<Vec<_>>(),
                        want.iter().map(|m| m.pos).collect::<Vec<_>>(),
                        "q{qi} k={k} x{threads}"
                    );
                }
                assert_eq!(stats.series_fetched, stats.series_requests);
            }
        }
        // The member query's nearest copies are positions 5, 17, 29, ...
        let (own, _) = knn(&paris, &data, base.get(5), 3, 4);
        assert_eq!(own.iter().map(|m| m.pos).collect::<Vec<_>>(), [5, 17, 29]);
        assert!(own.iter().all(|m| m.dist_sq == 0.0));
    }

    #[test]
    fn queries_sharing_a_leaf_charge_its_read_back_once() {
        let data = DatasetKind::Seismic.generate(400, 64, 83);
        let path = tmp("shared-leaf.dsidx");
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let file = DatasetFile::open(&path, Arc::new(Device::unthrottled())).unwrap();
        let (paris, _) =
            build_on_disk(&file, &tmp("shared-leaf.leaf"), &cfg(3), Overlap::ParisPlus).unwrap();
        let runs = entry_runs(&paris, &tmp("shared-leaf.runs"), file.device());
        let q = DatasetKind::Seismic.queries(1, 64, 83);
        let series_bytes = 64 * std::mem::size_of::<f32>() as u64;
        // Bytes the device saw beyond the raw series the batch fetched:
        // the leaf read-back (one thread, so fetches repeat exactly).
        let leaf_bytes = |queries: &[&[f32]]| {
            file.device().reset_stats();
            let (_, stats) = exact(&paris, Some(&runs), &file, queries, 1, 1, None).unwrap();
            let read = file.device().stats().bytes_read;
            (read - stats.series_fetched * series_bytes, stats)
        };
        let (one, one_stats) = leaf_bytes(&[q.get(0)]);
        let (three, three_stats) = leaf_bytes(&[q.get(0), q.get(0), q.get(0)]);
        assert!(one > 0, "the leaf read-back must reach the device counters");
        assert_eq!(three, one, "three queries in one leaf: one read-back");
        // ...but no raw fetch is shared: each query reads its own.
        assert_eq!(three_stats.series_fetched, 3 * one_stats.series_fetched);
        assert_eq!(three_stats.series_requests, three_stats.series_fetched);
    }

    #[test]
    fn read_failures_are_structured_errors_in_the_phase_they_hit() {
        let data = DatasetKind::Synthetic.generate(500, 64, 91);
        let (paris, _) = build_in_memory(&data, &cfg(4));
        let qs = DatasetKind::Synthetic.queries(2, 64, 91);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        // Every read budget either answers or fails with the phase that
        // ran dry — seeding first, then (past the few seed probes) the
        // verify broadcast, where the error has to cross the pool join.
        // Each query reads its own seeds: up to 2 x (8 + 20) reads.
        let mut phases = Vec::new();
        for budget in 0u64..128 {
            let flaky = FlakySource::new(data.clone(), budget);
            match exact(&paris, None, &flaky, &qrefs, 5, 4, None) {
                Ok(_) => assert!(!flaky.tripped(), "budget {budget}"),
                Err(err) => {
                    assert!(flaky.tripped());
                    assert!(matches!(err.root_cause(), StorageError::Io(_)), "{err}");
                    let text = err.to_string();
                    let phase = ["seed", "verify"]
                        .into_iter()
                        .find(|p| text.starts_with(&format!("during {p}:")))
                        .unwrap_or_else(|| panic!("budget {budget}: unphased error {text}"));
                    phases.push(phase);
                }
            }
        }
        assert_eq!(phases.first(), Some(&"seed"), "budget 0 dies seeding");
        assert!(phases.contains(&"verify"), "no budget died mid-verify");
        // Once verify is reached, larger budgets never fall back to seed.
        let first_verify = phases.iter().position(|&p| p == "verify").unwrap();
        assert!(phases[first_verify..].iter().all(|&p| p == "verify"));
        // An unconstrained budget answers exactly like the dataset itself.
        let flaky = FlakySource::new(data.clone(), u64::MAX);
        let (via_flaky, _) = exact(&paris, None, &flaky, &qrefs, 5, 4, None).unwrap();
        let (via_data, _) = exact(&paris, None, &data, &qrefs, 5, 4, None).unwrap();
        assert_eq!(via_flaky, via_data);
    }

    /// A flaky source that takes span reads eight series wide. Its
    /// [`read_span`](RawSource::read_span) is the default one, which
    /// spends the budget series by series, so a span can die partway.
    struct FlakySpans(FlakySource);

    impl RawSource for FlakySpans {
        fn count(&self) -> usize {
            self.0.count()
        }

        fn series_len(&self) -> usize {
            self.0.series_len()
        }

        fn read_into(&self, pos: usize, out: &mut [f32]) -> Result<(), StorageError> {
            self.0.read_into(pos, out)
        }

        fn span_gap(&self) -> usize {
            8
        }
    }

    #[test]
    fn span_reads_that_fail_partway_are_structured_errors_in_their_phase() {
        // Seismic's dense candidate lists put most survivors within a
        // span of each other.
        let data = DatasetKind::Seismic.generate(500, 64, 91);
        let (paris, _) = build_in_memory(&data, &cfg(4));
        let qs = DatasetKind::Seismic.queries(2, 64, 91);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let (via_data, _) = exact(&paris, None, &data, &qrefs, 5, 4, None).unwrap();
        let mut phases = Vec::new();
        for budget in (0u64..64).chain([96, 128, 192, 256, u64::MAX]) {
            let flaky = FlakySpans(FlakySource::new(data.clone(), budget));
            match exact(&paris, None, &flaky, &qrefs, 5, 4, None) {
                Ok((got, _)) => {
                    assert!(!flaky.0.tripped(), "budget {budget}");
                    assert_eq!(got, via_data, "budget {budget}");
                }
                Err(err) => {
                    assert!(flaky.0.tripped());
                    assert!(matches!(err.root_cause(), StorageError::Io(_)), "{err}");
                    let text = err.to_string();
                    let phase = ["seed", "verify"]
                        .into_iter()
                        .find(|p| text.starts_with(&format!("during {p}:")))
                        .unwrap_or_else(|| panic!("budget {budget}: unphased error {text}"));
                    phases.push(phase);
                }
            }
        }
        assert_eq!(phases.first(), Some(&"seed"), "budget 0 dies seeding");
        assert!(phases.contains(&"verify"), "no budget died mid-verify");
    }

    #[test]
    fn a_dataset_file_truncated_after_open_fails_the_search_cleanly() {
        let data = DatasetKind::Seismic.generate(600, 64, 61);
        let path = tmp("truncated.dsidx");
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let file = DatasetFile::open(&path, Arc::new(Device::new(DeviceProfile::SSD))).unwrap();
        let (paris, _) = build_in_memory(&data, &cfg(2));
        // Another handle cuts the payload to its first 100 series, and
        // part of the 101st, under the open file.
        let cut = dsidx_storage::format::HEADER_LEN + (100 * 64 + 7) * 4;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let qs = DatasetKind::Seismic.queries(6, 64, 61);
        let mut failed = 0;
        for threads in [1usize, 4] {
            for q in qs.iter() {
                match exact(&paris, None, &file, &[q], 1, threads, None) {
                    Ok((got, _)) => {
                        assert_eq!(got[0][0].pos, brute_force(&data, q).unwrap().pos);
                    }
                    Err(err) => {
                        assert!(matches!(err.root_cause(), StorageError::Io(_)), "{err}");
                        let text = err.to_string();
                        assert!(
                            text.starts_with("during seed:") || text.starts_with("during verify:"),
                            "unphased error {text}"
                        );
                        failed += 1;
                    }
                }
            }
        }
        assert!(failed > 0, "no query read past the cut");
    }

    /// A file source with its span reads hidden: every fetch is a read of
    /// its own.
    struct NoSpans<'a>(&'a DatasetFile);

    impl RawSource for NoSpans<'_> {
        fn count(&self) -> usize {
            self.0.count()
        }

        fn series_len(&self) -> usize {
            self.0.series_len()
        }

        fn read_into(&self, pos: usize, out: &mut [f32]) -> Result<(), StorageError> {
            self.0.read_into(pos, out)
        }
    }

    /// `stats` without its wall-clock phase times.
    fn counters(mut stats: BatchStats) -> BatchStats {
        stats.shared.phase = Default::default();
        for q in &mut stats.per_query {
            q.phase = Default::default();
        }
        stats
    }

    #[test]
    fn span_reads_change_only_what_the_device_charges() {
        // Seismic bounds barely prune, so the candidate list is dense and
        // most survivors have a neighbour within the SSD's span gap.
        let data = DatasetKind::Seismic.generate(1500, 64, 101);
        let path = tmp("spans.dsidx");
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let file = DatasetFile::open(&path, Arc::new(Device::new(DeviceProfile::SSD))).unwrap();
        assert!(file.span_gap() > 0);
        let (paris, _) = build_in_memory(&data, &cfg(4));
        let qs = DatasetKind::Seismic.queries(5, 64, 101);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let batches: Vec<&[&[f32]]> = vec![&qrefs[..1], &qrefs[1..2], &qrefs];
        let device = file.device();
        let (mut seeks, mut off_seeks) = (0, 0);
        for k in [1usize, 10] {
            for queries in &batches {
                device.reset_stats();
                let (off, off_stats) =
                    exact(&paris, None, &NoSpans(&file), queries, k, 1, None).unwrap();
                let off_device = device.stats();
                device.reset_stats();
                let (on, on_stats) = exact(&paris, None, &file, queries, k, 1, None).unwrap();
                let on_device = device.stats();
                let what = format!("k={k} batch of {}", queries.len());
                assert_eq!(on, off, "{what}");
                assert_eq!(counters(on_stats), counters(off_stats), "{what}");
                assert!(on_device.seeks <= off_device.seeks, "{what}");
                assert!(on_device.bytes_read >= off_device.bytes_read, "{what}");
                (seeks, off_seeks) = (seeks + on_device.seeks, off_seeks + off_device.seeks);
                for threads in [2usize, 4, 8] {
                    let (on_t, _) = exact(&paris, None, &file, queries, k, threads, None).unwrap();
                    let (off_t, _) =
                        exact(&paris, None, &NoSpans(&file), queries, k, threads, None).unwrap();
                    assert_eq!(on_t, on, "{what} x{threads}");
                    assert_eq!(off_t, on, "{what} x{threads}");
                }
            }
        }
        assert!(
            seeks < off_seeks,
            "spans saved no seek: {seeks} vs {off_seeks}"
        );
    }

    /// Reads like the dataset, but gives the CPU away inside every read —
    /// the window a device wait opens between a worker deciding to fetch
    /// and verifying what it fetched.
    struct YieldingSource<'a>(&'a dsidx_series::Dataset);

    impl RawSource for YieldingSource<'_> {
        fn count(&self) -> usize {
            self.0.len()
        }

        fn series_len(&self) -> usize {
            self.0.series_len()
        }

        fn read_into(&self, pos: usize, out: &mut [f32]) -> Result<(), StorageError> {
            std::thread::yield_now();
            self.0.read_into(pos, out)
        }
    }

    #[test]
    fn fetches_never_exceed_requests_under_eight_threads() {
        // Eight workers tighten one query's threshold under each other's
        // feet while fetches are in flight. Batches of one, so every fetch
        // serves exactly one request and a single request lost to a second
        // threshold read would let the totals cross.
        let data = DatasetKind::Synthetic.generate(3000, 64, 97);
        let (paris, _) = build_in_memory(&data, &cfg(4));
        let source = YieldingSource(&data);
        let qs = DatasetKind::Synthetic.queries(4, 64, 97);
        for rep in 0..300 {
            let q = qs.get(rep % qs.len());
            let (got, stats) = exact(&paris, None, &source, &[q], 1, 8, None).unwrap();
            assert_eq!(got[0][0].pos, brute_force(&data, q).unwrap().pos);
            assert_eq!(
                stats.series_fetched, stats.series_requests,
                "rep {rep}: fetches and requests of a batch of one must agree"
            );
        }
    }

    #[test]
    fn knn_batch_equals_sequential_knn_across_thread_counts() {
        let data = DatasetKind::Synthetic.generate(600, 64, 47);
        let (paris, _) = build_in_memory(&data, &cfg(4));
        let qs = DatasetKind::Synthetic.queries(6, 64, 47);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        for k in [1usize, 9, 35] {
            for threads in [1usize, 4] {
                let (batched, stats) =
                    exact(&paris, None, &data, &qrefs, k, threads, None).unwrap();
                assert_eq!(stats.broadcasts, 2, "one collect + one verify per batch");
                assert!(stats.broadcasts_per_query() < 1.0);
                for (qi, q) in qs.iter().enumerate() {
                    let (single, _) = knn(&paris, &data, q, k, threads);
                    assert_eq!(
                        batched[qi].iter().map(|m| m.pos).collect::<Vec<_>>(),
                        single.iter().map(|m| m.pos).collect::<Vec<_>>(),
                        "q{qi} k={k} x{threads}"
                    );
                    assert_eq!(stats.per_query[qi].lb_computed, 600);
                }
                // Every fetch serves exactly one request.
                assert_eq!(stats.series_fetched, stats.series_requests);
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
        let runs = entry_runs(&paris, &tmp("batch.runs"), file.device());
        let qs = DatasetKind::Seismic.queries(5, 64, 53);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let (mem, _) = exact(&paris, None, &data, &qrefs, 7, 4, None).unwrap();
        let (disk, _) = exact(&paris, Some(&runs), &file, &qrefs, 7, 4, None).unwrap();
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
        let runs = entry_runs(&paris, &tmp("knn.runs"), file.device());
        let queries = DatasetKind::Seismic.queries(3, 64, 17);
        for q in queries.iter() {
            let want = dsidx_ucr::brute_force_knn(&data, q, 10);
            let (got, _) = knn_from(&paris, Some(&runs), &file, q, 10, 4);
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
        let (first, _) = knn(&paris, &data, q.get(0), 15, 1);
        assert_eq!(first.len(), 15);
        for threads in [2usize, 4, 8] {
            for _ in 0..3 {
                let (m, _) = knn(&paris, &data, q.get(0), 15, threads);
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
                let (approx, stats) = approx_ed(&paris, &data, q, k).unwrap();
                assert_eq!(approx.len(), k.min(data.len()));
                for (a, e) in approx.iter().zip(&exact) {
                    assert!(a.dist_sq >= e.dist_sq - e.dist_sq * 1e-6, "k={k}");
                }
                // Sketch pass bounds every position; probes stay few.
                assert_eq!(stats.lb_computed, 600);
                assert!(stats.candidates <= 600);
                assert!(stats.candidates >= k as u64);
                let exact_dtw = dsidx_ucr::brute_force_dtw_knn(&data, q, 4, k);
                let prep = dsidx_query::DtwPrepared::new(paris.config().quantizer(), q, 4);
                let (approx_dtw, _) = super::approx(&paris, &data, q, &prep, k).unwrap();
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
            let (mem, _) = approx_ed(&paris_d, &data, q, 5).unwrap();
            let (disk, _) = approx_ed(&paris_d, &file, q, 5).unwrap();
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
            let (m, _) = approx_ed(&paris, &data, data.get(pos), 1).unwrap();
            assert_eq!(m[0].pos as usize, pos);
            assert_eq!(m[0].dist_sq, 0.0);
        }
        let empty = dsidx_series::Dataset::new(64).unwrap();
        let (paris, _) = build_in_memory(&empty, &cfg(2));
        let (m, stats) = approx_ed(&paris, &empty, &vec![0.0; 64], 3).unwrap();
        assert!(m.is_empty());
        assert_eq!(stats, QueryStats::default());
    }

    #[test]
    fn query_for_indexed_series_finds_itself() {
        let data = DatasetKind::Synthetic.generate(300, 64, 11);
        let (paris, _) = build_in_memory(&data, &cfg(4));
        for pos in [0usize, 150, 299] {
            let (m, _) = nn(&paris, &data, data.get(pos), 4).unwrap();
            assert_eq!(m.pos as usize, pos);
            assert_eq!(m.dist_sq, 0.0);
        }
    }

    #[test]
    fn empty_index_returns_none() {
        let data = dsidx_series::Dataset::new(64).unwrap();
        let (paris, _) = build_in_memory(&data, &cfg(2));
        assert!(nn(&paris, &data, &vec![0.0; 64], 2).is_none());
    }

    #[test]
    fn deterministic_answer_across_runs_and_threads() {
        let data = DatasetKind::Sald.generate(800, 64, 3);
        let (paris, _) = build_in_memory(&data, &cfg(6));
        let q = DatasetKind::Sald.queries(1, 64, 3);
        let (first, _) = nn(&paris, &data, q.get(0), 1).unwrap();
        for threads in [2usize, 4, 8] {
            for _ in 0..3 {
                let (m, _) = nn(&paris, &data, q.get(0), threads).unwrap();
                assert_eq!(m, first);
            }
        }
    }

    #[test]
    fn tree_counters_stay_zero_for_scan_engine() {
        let data = DatasetKind::Synthetic.generate(200, 64, 2);
        let (paris, _) = build_in_memory(&data, &cfg(2));
        let q = DatasetKind::Synthetic.queries(1, 64, 2);
        let (_, stats) = nn(&paris, &data, q.get(0), 2).unwrap();
        assert_eq!(stats.nodes_pruned, 0);
        assert_eq!(stats.leaves_enqueued, 0);
        assert_eq!(stats.leaves_processed, 0);
        assert_eq!(stats.lb_entry_computed, 0);
        assert_eq!(stats.lb_total(), stats.lb_computed);
    }
}
