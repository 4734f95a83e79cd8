//! MESSI exact query answering (stage 3 of Fig. 3).
//!
//! One query is answered in two steps, by however many workers join it:
//!
//! * **Traversal** — root subtrees are claimed by Fetch&Inc and pruned
//!   with node-level lower bounds against the query's best-so-far; the
//!   root level (up to `2^r` words of one bit on each keyed segment, `r`
//!   fitted to the collection) is scanned from the key bits alone, two
//!   table reads per root
//!   ([`RootBounds`](crate::traverse::RootBounds)), without touching tree
//!   memory. Surviving leaves are appended to the worker's run, which is
//!   sorted by bound and published the moment the worker's share ends.
//! * **Processing** — leaves are visited best-bound-first; a bound at or
//!   above the best-so-far abandons everything behind it. A visited leaf
//!   is bounded whole by the batched MINDIST kernel over its padded word
//!   run and its survivors' whole series are prefetched; then the
//!   survivors, best bound first, each pay an early-abandoned real
//!   distance until a bound reaches the best-so-far. The words of the leaf
//!   a few places behind the popped one (and, twice as far, its node) are
//!   requested early, whoever will claim it.
//!
//! Before either step the query is **seeded**: the worker that claimed it
//! visits the query's own leaf (the leaf its word descends to) with the
//! same leaf visit, from the initial threshold, so the traversal starts
//! from that leaf's k best. The seed's work is the query's like any
//! other visit's, and its reads are counted with the rest.
//!
//! Query preparation, approximate-descent seeding and the per-leaf loops
//! come from the shared kernel (`dsidx-query`), generic over the
//! [`Prepared`] query, so that one schedule answers both measures
//! (see [`crate::dtw`] for what DTW changes). This module contributes the
//! MESSI scheduling and the crate's entry point, [`exact`], which takes the
//! [`Measure`] as a value and prepares each query under it. All tree reads
//! go through the flat tree ([`dsidx_tree::flat`]); the approximate answer
//! is the shared best-leaf visit,
//! [`approx_best_leaf`](dsidx_query::approx_best_leaf), over the same
//! tree.
//!
//! # The schedule
//!
//! [`exact`] runs one schedule for every [`RawSource`] — the resident
//! dataset, a dataset file, a fault-injecting wrapper — with no option,
//! environment variable or feature behind it: **claim and help**. Each
//! worker claims the next query from a [`WorkQueue`], prepares it, seeds
//! it from its own leaf and opens it to its peers, then runs its share of
//! the traversal into its own run, publishes the run and drains
//! best-bound-first. A worker that finds the queue empty joins an open
//! query that still has work: its traversal while a participant is still
//! traversing, its published runs while they hold unclaimed leaves. A
//! batch of one is the paper's schedule (every worker on the one query); a
//! batch of 64 is whole queries per worker with the tail shared. Every
//! distance attempt reads its own series, so a call reports
//! `series_fetched == series_requests`.
//!
//! The schedule has no barrier. Every published run is drained by its
//! publisher until it is exhausted or closed, so exactness never waits on
//! a peer. A worker with nothing to do waits (spinning, then yielding)
//! only while some query is still being opened or has a participant that
//! has not published its run, and stops waiting as soon as a peer records
//! an error.
//!
//! A call is one pool broadcast, and its answers are bit-identical across
//! thread counts and sources: every reported distance comes from the same
//! bounded kernel, and the top-k collectors break ties by position.
//!
//! Claim and help replaced a width rule (whole queries from `threads`
//! queries per call up, all workers on each query below); `repro
//! throughput --scale small` (100k x 256, 10-NN, 2 workers, 16 alternating
//! runs, µs per query, rule → this schedule) reads 379 → 391 at width 1,
//! 472 → 384 at t, 446 → 348 at t + 1, 409 → 368 at 2t and 345 → 356 at
//! 64. It also replaced a second schedule for non-resident sources that
//! walked the tree once per batch and read each surviving series once for
//! every query that wanted it. On a `DiskIndex` (modeled SSD, 2 workers,
//! alternating runs in the README) claim and help is ahead in `repro
//! ondisk` (ED 43.1 → 39.7 ms per query, DTW 284.5 → 278), level at one
//! query per call and 2 % behind at 64 x 1-NN ED per call; it is behind
//! on wide batches no workload issues, where one read served several
//! queries (64 x 10-NN ED 44.9 → 59.2, 64 x DTW 1-NN 85 → 373).
//!
//! A read failing mid-query (a device dying under load) surfaces as `Err`:
//! the worker records the first failure in a shared [`ErrorSlot`], with
//! the query and the phase it tripped in; its peers stop claiming,
//! joining and waiting, and the coordinator returns the error.

use crate::pqueue::{drain_best_first, Drain, LeafRuns, RunBuilder};
use crate::traverse::Traversal;
use dsidx_obs::phase::{Phase, PhaseBreakdown, PhaseClock};
use dsidx_query::{
    approx_leaf_flat, process_leaf_entries, BatchStats, DtwPrepared, ErrorSlot, LeafScratch,
    Measure, Prepared, PreparedQuery, QueryBatch, QueryStats, SeriesFetcher, ShardView,
};
use dsidx_series::prefetch::prefetch_lines;
use dsidx_series::Match;
use dsidx_storage::{RawSource, StorageError};
use dsidx_sync::{OffsetTopK, WorkQueue};
use dsidx_tree::FlatTree;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// How many places behind the popped leaf a draining worker requests a
/// leaf's words — far enough that they arrive before they are bounded,
/// near enough that they are still cached then. The leaf's *node* (which
/// says where its words are) is requested twice as far ahead: asking for
/// the words only once that read is also a miss stalls the prefetch
/// itself and costs more than it saves.
const LOOKAHEAD: usize = 4;

/// Cache lines of a leaf's word run requested ahead: the first ~15 of its
/// 17-byte words. A fitted tree's leaf holds about half its capacity (~49
/// words, ~13 lines, at capacity 100); the hardware prefetcher follows the
/// bound pass's sequential read through the rest, and a whole-run request
/// read within noise of this one.
const LEAF_PREFETCH_LINES: usize = 4;

/// Everything the schedule shares for one call. The batch holds no
/// prepared state: each query is prepared by the worker that claims it.
struct Call<'a, 'q, S> {
    tree: &'a FlatTree,
    source: &'a S,
    threads: usize,
    batch: &'a QueryBatch<'q, ()>,
    errors: &'a ErrorSlot,
}

/// [`exact`] for queries prepared by `prepare`: builds the batch and runs
/// the schedule (see the module docs) in one broadcast.
fn exact_batch<Q: Prepared>(
    tree: &FlatTree,
    source: &impl RawSource,
    queries: &[&[f32]],
    k: usize,
    threads: usize,
    shard: Option<ShardView<'_>>,
    prepare: impl Fn(&[f32]) -> Q + Sync,
) -> Result<(Vec<Vec<Match>>, BatchStats), StorageError> {
    let config = tree.config();
    for q in queries {
        assert_eq!(q.len(), config.series_len(), "query length mismatch");
    }
    assert!(threads > 0, "thread count must be non-zero");
    let mut clock = PhaseClock::start();
    let batch = QueryBatch::prepared(queries, k, shard, |_| ());
    if tree.entry_count() == 0 || queries.is_empty() {
        return Ok(batch.finish(0));
    }
    let errors = ErrorSlot::for_phase(Q::PHASE);
    let call = Call {
        tree,
        source,
        threads,
        batch: &batch,
        errors: &errors,
    };
    call.claim_and_help(&prepare, &mut clock);
    errors.take()?;
    // The schedule accounts everything per query.
    Ok(batch.finish(1))
}

/// One query of a call, opened to every worker by the one that claimed
/// it: what a peer needs to join its traversal or its drain.
struct Open<'a, Q> {
    prep: Q,
    traversal: Traversal<'a, OffsetTopK>,
    runs: LeafRuns,
    /// Participants that joined the traversal and have not published their
    /// run yet (the opener counts from the start).
    traversing: AtomicUsize,
}

/// Where a worker that found the query queue empty goes next.
enum Help {
    /// Work on this query: join its traversal first when `true` (the
    /// worker is then counted in `traversing`), then drain it.
    Join(usize, bool),
    /// Nothing to do yet: some query is still being opened or traversed.
    Wait,
    /// Every query is opened, traversed and drained.
    Done,
}

/// What a worker keeps from query to query: its fetcher and per-leaf
/// scratch, and its tallies — the work it did for each query (index-aligned
/// with the batch's slots), the phase times it measured and the series it
/// fetched. The tallies are plain values, merged into the batch once, when
/// the worker's broadcast ends: a visit takes no lock.
struct Worker<'a, S: RawSource> {
    fetcher: SeriesFetcher<'a, S>,
    scratch: LeafScratch,
    locals: Vec<QueryStats>,
    phases: PhaseBreakdown,
    fetched: u64,
}

impl<'a, S: RawSource> Call<'a, '_, S> {
    /// Any batch width: workers claim whole queries, prepare them with
    /// `prepare`, and help unfinished ones once the queue is empty (see
    /// the module docs).
    fn claim_and_help<Q: Prepared>(
        &self,
        prepare: &(impl Fn(&[f32]) -> Q + Sync),
        clock: &mut PhaseClock,
    ) {
        let Self { batch, errors, .. } = *self;
        let pool = dsidx_sync::pool::global(self.threads);
        let claims = WorkQueue::new(batch.len());
        let opened: Vec<OnceLock<Open<'a, Q>>> =
            batch.slots().iter().map(|_| OnceLock::new()).collect();
        let spent = Mutex::new(PhaseBreakdown::new());
        batch.record_phase(Phase::Prepare, clock.lap());

        pool.broadcast(&|worker| {
            let mut me = Worker {
                fetcher: SeriesFetcher::new(self.source),
                scratch: LeafScratch::new(),
                locals: vec![QueryStats::default(); batch.len()],
                phases: PhaseBreakdown::new(),
                fetched: 0,
            };
            let mut spins = 0u32;
            while !errors.is_set() {
                let (qi, traverse) = if let Some(qi) = claims.claim() {
                    match self.open(qi, prepare, &mut me) {
                        Ok(open) => {
                            assert!(opened[qi].set(open).is_ok(), "query {qi} opened twice");
                            (qi, true)
                        }
                        Err(e) => {
                            errors.record_for_query(e, qi);
                            continue;
                        }
                    }
                } else {
                    match help_wanted(&opened, worker) {
                        Help::Join(qi, traverse) => (qi, traverse),
                        Help::Wait => {
                            backoff(&mut spins);
                            continue;
                        }
                        Help::Done => break,
                    }
                };
                spins = 0;
                let open = opened[qi].get().expect("worked-on queries are open");
                self.work_on(qi, open, traverse, worker, &mut me);
            }
            // Every distance attempt reads its own series.
            batch.count_io(me.fetched, me.fetched);
            batch.merge_locals(&me.locals);
            let mut spent = spent.lock();
            *spent = spent.merged(&me.phases);
        });

        // The workers' phase times add up to about `threads` times the
        // broadcast's wall time (waiting for a peer is booked to no phase).
        // Book the wall time, split in the proportions the workers
        // measured, so the breakdown adds up to what the caller waited.
        let wall = clock.lap();
        let spent = spent.into_inner();
        let total = u128::from(spent.total_nanos());
        if total == 0 {
            batch.record_phase(Q::PHASE, wall);
        }
        for (phase, nanos) in spent.iter().filter(|&(_, nanos)| nanos > 0) {
            let share = u128::from(wall) * u128::from(nanos) / total;
            batch.record_phase(phase, u64::try_from(share).unwrap_or(u64::MAX));
        }
    }

    /// Prepares and seeds claimed query `qi` on the calling worker; returns
    /// it ready to open, with the caller counted as traversing it.
    fn open<Q: Prepared>(
        &self,
        qi: usize,
        prepare: impl Fn(&[f32]) -> Q,
        me: &mut Worker<'_, S>,
    ) -> Result<Open<'a, Q>, StorageError> {
        let (flat, quantizer) = (self.tree, self.tree.config().quantizer());
        let slot = &self.batch.slots()[qi];
        let mut clock = PhaseClock::start();
        let prep = prepare(slot.values);
        let traversal = Traversal::new(flat, prep.node_table(quantizer), &slot.topk);
        me.phases.record(Phase::Prepare, clock.lap());

        // Initial threshold from the query's own leaf (its approximate
        // answer), routing around empty subtrees, visited like any other
        // leaf. The scratch is named for this query first: a coarse table
        // left by the worker's previous query must not bound its words.
        let own_leaf =
            approx_leaf_flat(flat, prep.word()).expect("non-empty index has a non-empty leaf");
        let node = flat.node(own_leaf);
        me.scratch.begin_query(qi);
        me.fetched += process_leaf_entries(
            flat.leaf_words_padded(node),
            flat.leaf_positions(node),
            &prep,
            &mut me.fetcher,
            slot.values,
            &slot.topk,
            &mut me.scratch,
            &mut me.locals[qi],
        )
        .map_err(|e| e.in_phase(Phase::Seed.name()))?;
        me.phases.record(Phase::Seed, clock.lap());
        Ok(Open {
            prep,
            traversal,
            runs: LeafRuns::new(self.threads),
            traversing: AtomicUsize::new(1),
        })
    }

    /// One visit of the calling worker to open query `qi`: its share of the
    /// traversal into its own run and the run's publication when
    /// `traverse` (the caller is then counted in `traversing`), then a
    /// best-bound-first drain, own run first.
    fn work_on<Q: Prepared>(
        &self,
        qi: usize,
        open: &Open<'_, Q>,
        traverse: bool,
        worker: usize,
        me: &mut Worker<'_, S>,
    ) {
        let (flat, errors) = (self.tree, self.errors);
        let slot = &self.batch.slots()[qi];
        let mut clock = PhaseClock::start();
        let Worker {
            fetcher,
            scratch,
            locals,
            fetched,
            ..
        } = me;
        scratch.begin_query(qi);
        let local = &mut locals[qi];
        if traverse {
            let mut run = RunBuilder::new();
            local.nodes_pruned = open.traversal.run_worker(&mut run);
            local.leaves_enqueued = run.len() as u64;
            open.runs.publish(worker, run);
            // ORDERING: release — pairs with the acquire in `help_wanted`:
            // a peer that reads the count this leaves sees the run
            // published.
            open.traversing.fetch_sub(1, Ordering::Release);
        }
        let unclaimed = drain_best_first(&open.runs, worker, |lb, leaf, ahead| {
            if errors.is_set() || lb >= slot.topk.threshold_sq() {
                // Everything left in this run is at least as far (or a
                // peer already failed): abandon it wholesale.
                local.leaves_discarded += 1;
                return Drain::Abandon;
            }
            if let Some(far) = ahead.leaf(2 * LOOKAHEAD) {
                prefetch_lines(std::slice::from_ref(flat.node(far)), 1);
            }
            if let Some(near) = ahead.leaf(LOOKAHEAD) {
                prefetch_lines(flat.leaf_words(flat.node(near)), LEAF_PREFETCH_LINES);
            }
            local.leaves_processed += 1;
            let node = flat.node(leaf);
            match process_leaf_entries(
                flat.leaf_words_padded(node),
                flat.leaf_positions(node),
                &open.prep,
                fetcher,
                slot.values,
                &slot.topk,
                scratch,
                local,
            ) {
                Ok(series) => {
                    *fetched += series;
                    Drain::Processed
                }
                Err(e) => {
                    errors.record_for_query(e, qi);
                    Drain::Abandon
                }
            }
        });
        local.leaves_discarded += unclaimed;
        me.phases.record(Q::PHASE, clock.lap());
    }
}

/// Where a worker whose claims ran dry goes next: the first open query it
/// can still help — its traversal while a participant is still traversing
/// and this worker has not published for it, its published runs while
/// they hold unclaimed leaves — else wait while some claimed query is not
/// open yet (being prepared and seeded) or still traversed, else done.
fn help_wanted<Q>(opened: &[OnceLock<Open<'_, Q>>], worker: usize) -> Help {
    let mut pending = false;
    for (qi, open) in opened.iter().enumerate() {
        let Some(open) = open.get() else {
            pending = true;
            continue;
        };
        // ORDERING: acquire — pairs with the release decrement in
        // `work_on`: once the count reads zero, every run of the query is
        // published and visible to `has_unclaimed` below.
        let traversing = open.traversing.load(Ordering::Acquire) > 0;
        if traversing && !open.runs.is_published(worker) {
            // ORDERING: relaxed — a count, no payload; the run it announces
            // is published by the release decrement in `work_on`.
            open.traversing.fetch_add(1, Ordering::Relaxed);
            return Help::Join(qi, true);
        }
        if open.runs.has_unclaimed() {
            return Help::Join(qi, false);
        }
        pending |= traversing;
    }
    if pending {
        Help::Wait
    } else {
        Help::Done
    }
}

/// One step of waiting for a peer: spin briefly, then yield, because a hot
/// spin on a shared or oversubscribed core slows the very peer it waits
/// for.
fn backoff(spins: &mut u32) {
    if *spins < 64 {
        std::hint::spin_loop();
        *spins += 1;
    } else {
        std::thread::yield_now();
    }
}

/// Exact k-NN for a batch of queries under `measure` in **one** pool
/// broadcast — the crate's one exact entry point. A single query is a
/// batch of one; 1-NN is `k = 1`. How the batch is scheduled onto the
/// `threads` workers is in the [module docs](self). Each query is prepared
/// under `measure` (a [`PreparedQuery`], or a [`DtwPrepared`] whose
/// interval node tables drive the traversal and whose cascade runs at the
/// leaves; see [`crate::dtw`]), and the same schedule runs for both.
///
/// Each answer is the up-to-`k` nearest series sorted ascending by
/// `(distance, position)` — fewer than `k` when the collection is smaller,
/// empty for an empty index — deterministic across runs, thread counts and
/// sources (distance ties prefer the lowest position) and independent of
/// what else is in the batch. Every counter is per query, in
/// [`BatchStats::per_query`], where `leaves_processed + leaves_discarded
/// == leaves_enqueued` holds query by query; [`BatchStats::shared`] holds
/// only the call's phase times.
///
/// With `shard` set (see [`SharedPruners`](dsidx_query::SharedPruners)),
/// every query prunes against thresholds that other shards tighten
/// mid-flight, and recorded positions are rebased to global. The returned
/// matches then reflect the whole gather so far; the coordinator uses this
/// return value for stats and reads the final answer from the shared
/// pruners after every shard joined.
///
/// # Errors
/// Propagates raw-source I/O failures (the in-memory dataset is
/// infallible), naming the query and the phase that tripped.
///
/// # Panics
/// Panics if any query length differs from the configured series length,
/// `threads == 0`, or `k == 0`.
pub fn exact(
    tree: &FlatTree,
    source: &impl RawSource,
    queries: &[&[f32]],
    measure: Measure,
    k: usize,
    threads: usize,
    shard: Option<ShardView<'_>>,
) -> Result<(Vec<Vec<Match>>, BatchStats), StorageError> {
    let quantizer = tree.config().quantizer();
    match measure {
        Measure::Euclidean => exact_batch(tree, source, queries, k, threads, shard, |q| {
            PreparedQuery::new(quantizer, q)
        }),
        Measure::Dtw { band } => exact_batch(tree, source, queries, k, threads, shard, |q| {
            DtwPrepared::new(quantizer, q, band)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use crate::config::MessiConfig;
    use dsidx_query::approx_best_leaf;
    use dsidx_series::gen::DatasetKind;
    use dsidx_series::Dataset;
    use dsidx_storage::FlakySource;
    use dsidx_tree::TreeConfig;
    use dsidx_ucr::brute_force;

    fn cfg(threads: usize) -> MessiConfig {
        MessiConfig::new(TreeConfig::new(64, 8, 16).unwrap(), threads)
    }

    /// The Euclidean approximate answer through the index's tree.
    fn approx(
        messi: &FlatTree,
        source: &impl RawSource,
        q: &[f32],
        k: usize,
    ) -> Result<(Vec<Match>, QueryStats), StorageError> {
        let prep = PreparedQuery::new(messi.config().quantizer(), q);
        approx_best_leaf(messi, source, q, &prep, k)
    }

    /// Euclidean [`exact`] for a batch, on `threads` workers.
    fn knn_batch(
        messi: &FlatTree,
        source: &impl RawSource,
        queries: &[&[f32]],
        k: usize,
        threads: usize,
    ) -> Result<(Vec<Vec<Match>>, BatchStats), StorageError> {
        exact(messi, source, queries, Measure::Euclidean, k, threads, None)
    }

    /// One query through [`exact`] as a batch of one.
    fn knn(
        messi: &FlatTree,
        source: &impl RawSource,
        q: &[f32],
        k: usize,
        threads: usize,
    ) -> Result<(Vec<Match>, QueryStats), StorageError> {
        let (mut matches, stats) = knn_batch(messi, source, &[q], k, threads)?;
        Ok((matches.pop().expect("batch of one"), stats.into_single()))
    }

    /// The `k = 1` case of [`knn`]; `None` for an empty index.
    fn nn(
        messi: &FlatTree,
        source: &impl RawSource,
        q: &[f32],
        threads: usize,
    ) -> Result<Option<(Match, QueryStats)>, StorageError> {
        let (matches, stats) = knn(messi, source, q, 1, threads)?;
        Ok(matches.first().map(|&m| (m, stats)))
    }

    /// Every enqueued leaf is processed or discarded, exactly once.
    fn assert_funnel_exact(stats: &QueryStats) {
        assert_eq!(
            stats.leaves_processed + stats.leaves_discarded,
            stats.leaves_enqueued,
            "{stats:?}"
        );
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
                    let (got, _) = nn(&messi, &data, q, threads).unwrap().unwrap();
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
                    let (got, stats) = knn(&messi, &data, q, k, threads).unwrap();
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
                let (batched, stats) = knn_batch(&messi, &data, &qrefs, k, threads).unwrap();
                assert_eq!(stats.broadcasts, 1, "one broadcast for the whole batch");
                assert!(stats.broadcasts_per_query() < 1.0);
                for (qi, q) in qs.iter().enumerate() {
                    let (single, _) = knn(&messi, &data, q, k, threads).unwrap();
                    assert_eq!(
                        batched[qi].iter().map(|m| m.pos).collect::<Vec<_>>(),
                        single.iter().map(|m| m.pos).collect::<Vec<_>>(),
                        "q{qi} k={k} x{threads}"
                    );
                }
                // Every query is traversed on its own: every leaf a query
                // enqueued is processed or discarded, exactly once.
                for (qi, q) in stats.per_query.iter().enumerate() {
                    assert!(q.leaves_enqueued > 0, "q{qi} k={k} x{threads}");
                    assert_funnel_exact(q);
                }
                assert_eq!(stats.shared.leaves_enqueued, 0);
                assert_eq!(stats.series_fetched, stats.series_requests);
                // The same batch over a source that is not resident runs
                // the same schedule: same answers, one read per request.
                let file = FlakySource::new(data.clone(), u64::MAX);
                let (on_file, stats) = knn_batch(&messi, &file, &qrefs, k, threads).unwrap();
                assert_eq!(on_file, batched, "k={k} x{threads}");
                assert_eq!(stats.broadcasts, 1);
                stats.per_query.iter().for_each(assert_funnel_exact);
                assert_eq!(stats.shared.leaves_enqueued, 0);
                assert_eq!(stats.series_fetched, stats.series_requests);
            }
        }
    }

    #[test]
    fn knn_batch_deterministic_across_thread_counts() {
        let data = DatasetKind::Seismic.generate(400, 64, 71);
        let (messi, _) = build(&data, &cfg(4));
        let qs = DatasetKind::Seismic.queries(5, 64, 71);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let (first, _) = knn_batch(&messi, &data, &qrefs, 9, 1).unwrap();
        for threads in [2usize, 3, 8] {
            let (got, _) = knn_batch(&messi, &data, &qrefs, 9, threads).unwrap();
            assert_eq!(got, first, "threads={threads}");
        }
    }

    #[test]
    fn knn_deterministic_across_thread_counts() {
        let data = DatasetKind::Seismic.generate(500, 64, 3);
        let (messi, _) = build(&data, &cfg(4));
        let q = DatasetKind::Seismic.queries(1, 64, 3);
        let (first, _) = knn(&messi, &data, q.get(0), 12, 1).unwrap();
        assert_eq!(first.len(), 12);
        for threads in [2usize, 3, 8] {
            for _ in 0..2 {
                let (m, _) = knn(&messi, &data, q.get(0), 12, threads).unwrap();
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
                let (approx, stats) = approx(&messi, &data, q, k).unwrap();
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
            let (m, _) = approx(&messi, &data, data.get(pos), 1).unwrap();
            assert_eq!(m[0].pos as usize, pos);
            assert_eq!(m[0].dist_sq, 0.0);
        }
    }

    #[test]
    fn approx_knn_on_empty_index_is_empty() {
        let data = Dataset::new(64).unwrap();
        let (messi, _) = build(&data, &cfg(2));
        let (got, stats) = approx(&messi, &data, &vec![0.0; 64], 4).unwrap();
        assert!(got.is_empty());
        assert_eq!(stats, QueryStats::default());
    }

    #[test]
    fn knn_on_empty_index_is_empty() {
        let data = Dataset::new(64).unwrap();
        let (messi, _) = build(&data, &cfg(2));
        let (got, stats) = knn(&messi, &data, &vec![0.0; 64], 4, 2).unwrap();
        assert!(got.is_empty());
        assert_eq!(stats, QueryStats::default());
    }

    #[test]
    fn thread_count_does_not_change_the_answer() {
        let data = DatasetKind::Synthetic.generate(500, 64, 8);
        let (messi, _) = build(&data, &cfg(4));
        let queries = DatasetKind::Synthetic.queries(4, 64, 8);
        for q in queries.iter() {
            let (first, _) = nn(&messi, &data, q, 1).unwrap().unwrap();
            assert_eq!(first.pos, brute_force(&data, q).unwrap().pos);
            for threads in [2usize, 3, 8] {
                let (got, stats) = nn(&messi, &data, q, threads).unwrap().unwrap();
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
            let (_, stats) = nn(&messi, &data, q, 4).unwrap().unwrap();
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
    fn funnel_is_exact_when_runs_are_abandoned() {
        // Clusterable data and k = 1: thresholds tighten fast, so sorted
        // runs are closed early with leaves still unclaimed — every one of
        // them must still be counted as discarded, once, by its query.
        let data = dsidx_series::gen::sines(1000, 64, 3);
        let (messi, _) = build(&data, &cfg(4));
        let file = FlakySource::new(data.clone(), u64::MAX);
        let queries = dsidx_series::gen::sines(3, 64, 77);
        let all: Vec<&[f32]> = queries.iter().collect();
        for threads in [1usize, 2, 4] {
            for batch in [&all[..1], &all[..]] {
                let (got, stats) = knn_batch(&messi, &file, batch, 1, threads).unwrap();
                let (want, _) = knn_batch(&messi, &data, batch, 1, threads).unwrap();
                assert_eq!(got, want, "x{threads}");
                stats.per_query.iter().for_each(assert_funnel_exact);
                assert!(
                    stats.per_query.iter().any(|q| q.leaves_discarded > 1),
                    "x{threads}: expected a run closed early, {:?}",
                    stats.per_query
                );
                assert_eq!(stats.series_fetched, stats.series_requests);
            }
        }
    }

    #[test]
    fn query_for_indexed_series_finds_itself() {
        let data = DatasetKind::Sald.generate(300, 64, 6);
        let (messi, _) = build(&data, &cfg(3));
        for pos in [0usize, 123, 299] {
            let (m, _) = nn(&messi, &data, data.get(pos), 3).unwrap().unwrap();
            assert_eq!(m.pos as usize, pos);
            assert_eq!(m.dist_sq, 0.0);
        }
    }

    #[test]
    fn empty_index_returns_none() {
        let data = Dataset::new(64).unwrap();
        let (messi, _) = build(&data, &cfg(2));
        assert!(nn(&messi, &data, &vec![0.0; 64], 2).unwrap().is_none());
    }

    #[test]
    fn deterministic_across_runs() {
        let data = DatasetKind::Seismic.generate(600, 64, 13);
        let (messi, _) = build(&data, &cfg(8));
        let q = DatasetKind::Seismic.queries(1, 64, 13);
        let (first, _) = nn(&messi, &data, q.get(0), 1).unwrap().unwrap();
        for _ in 0..5 {
            let (m, _) = nn(&messi, &data, q.get(0), 8).unwrap().unwrap();
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
        let (got, _) = nn(&messi, &data, q.get(0), 2).unwrap().unwrap();
        assert_eq!(got.pos, want.pos);
    }

    /// The k nearest entries of `q`'s own leaf by `distance`, sorted and
    /// truncated: what a seed must leave in the pruner.
    fn own_leaf_best(
        messi: &FlatTree,
        q: &[f32],
        k: usize,
        distance: impl Fn(usize) -> f32,
    ) -> Vec<(f32, u32)> {
        let word = messi.config().quantizer().word(q);
        let leaf = approx_leaf_flat(messi, &word).unwrap();
        let mut all: Vec<(f32, u32)> = messi
            .leaf_positions(messi.node(leaf))
            .iter()
            .map(|&p| (distance(p as usize), p))
            .collect();
        all.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    /// What the pruner held right after a seed, the seed's counters and
    /// the series it read.
    type Seeded = (Vec<(f32, u32)>, QueryStats, u64);

    /// Opens every query of `queries` in turn on one worker, as the worker
    /// that claims each does (seed, then a full visit, so the worker's
    /// scratch holds the previous query's coarse table when the next one
    /// is seeded), and returns per query what the pruner held right after
    /// its seed, the seed's counters and its reads.
    fn seeds(
        messi: &FlatTree,
        source: &impl RawSource,
        queries: &[&[f32]],
        k: usize,
        measure: Measure,
    ) -> Vec<Seeded> {
        let quantizer = messi.config().quantizer();
        match measure {
            Measure::Euclidean => seeds_of(messi, source, queries, k, |q| {
                PreparedQuery::new(quantizer, q)
            }),
            Measure::Dtw { band } => seeds_of(messi, source, queries, k, |q| {
                DtwPrepared::new(quantizer, q, band)
            }),
        }
    }

    /// [`seeds`] for queries prepared by `prepare`.
    fn seeds_of<Q: Prepared>(
        messi: &FlatTree,
        source: &impl RawSource,
        queries: &[&[f32]],
        k: usize,
        prepare: impl Fn(&[f32]) -> Q,
    ) -> Vec<Seeded> {
        let batch = QueryBatch::prepared(queries, k, None, |_| ());
        let errors = ErrorSlot::for_phase(Q::PHASE);
        let call = Call {
            tree: messi,
            source,
            threads: 1,
            batch: &batch,
            errors: &errors,
        };
        let mut me = Worker {
            fetcher: SeriesFetcher::new(source),
            scratch: LeafScratch::new(),
            locals: vec![QueryStats::default(); batch.len()],
            phases: PhaseBreakdown::new(),
            fetched: 0,
        };
        let mut out = Vec::new();
        for qi in 0..queries.len() {
            let before = me.fetched;
            let open = call.open(qi, &prepare, &mut me).unwrap();
            let seeded = batch.slots()[qi].topk.matches();
            out.push((seeded, me.locals[qi], me.fetched - before));
            call.work_on(qi, &open, true, 0, &mut me);
        }
        assert!(!errors.is_set());
        out
    }

    #[test]
    fn a_seed_leaves_the_k_best_of_its_leaf_in_the_pruner() {
        use dsidx_series::distance::{dtw::dtw_sq, euclidean_sq};
        use dsidx_storage::{write_dataset, DatasetFile, Device};
        use std::sync::Arc;
        let data = DatasetKind::Synthetic.generate(800, 64, 61);
        let (messi, _) = build(&data, &cfg(2));
        let dir = std::env::temp_dir().join(format!("dsidx-messi-seed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.dsidx");
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let file = DatasetFile::open(&path, Arc::new(Device::unthrottled())).unwrap();
        let flaky = FlakySource::new(data.clone(), u64::MAX);
        let qs = DatasetKind::Synthetic.queries(6, 64, 62);
        let queries: Vec<&[f32]> = qs.iter().collect();
        let quantizer = messi.config().quantizer();
        let band = 4;
        for k in [1usize, 10] {
            for dtw in [false, true] {
                let measure = if dtw {
                    Measure::Dtw { band }
                } else {
                    Measure::Euclidean
                };
                let resident = seeds(&messi, &data, &queries, k, measure);
                for (qi, (got, stats, reads)) in resident.iter().enumerate() {
                    let label = format!("q{qi} k={k} dtw={dtw}");
                    let q = queries[qi];
                    let want = own_leaf_best(&messi, q, k, |p| {
                        if dtw {
                            dtw_sq(q, data.get(p), band)
                        } else {
                            euclidean_sq(q, data.get(p))
                        }
                    });
                    assert_eq!(
                        got.iter().map(|m| m.1).collect::<Vec<_>>(),
                        want.iter().map(|w| w.1).collect::<Vec<_>>(),
                        "{label}"
                    );
                    for (g, w) in got.iter().zip(&want) {
                        assert!((g.0 - w.0).abs() <= w.0 * 1e-5 + 1e-5, "{label}");
                    }
                    // The seed is a leaf visit: its entry bounds and its
                    // distance attempts are the query's, one read each.
                    let word = quantizer.word(q);
                    let leaf = approx_leaf_flat(&messi, &word).unwrap();
                    let entries = messi.leaf_positions(messi.node(leaf)).len() as u64;
                    assert_eq!(stats.lb_entry_computed, entries, "{label}");
                    assert!((1..=entries).contains(reads), "{label}");
                    let tried = if dtw {
                        stats.lb_keogh_computed
                    } else {
                        stats.real_computed
                    };
                    assert!(tried <= *reads, "{label}");
                    assert_eq!(stats.leaves_processed, 0, "{label}");
                }
                // Over a dataset file and a fault-injecting wrapper the seed
                // does the same work with the same answer.
                let label = format!("k={k} dtw={dtw}");
                assert_eq!(
                    seeds(&messi, &file, &queries, k, measure),
                    resident,
                    "{label}"
                );
                assert_eq!(
                    seeds(&messi, &flaky, &queries, k, measure),
                    resident,
                    "{label}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_budget_spent_inside_a_seed_names_the_seed_and_its_query() {
        let data = DatasetKind::Synthetic.generate(500, 64, 91);
        let (messi, _) = build(&data, &cfg(4));
        let qs = DatasetKind::Synthetic.queries(2, 64, 93);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        // k = 50 above any leaf's size: each seed reads its whole leaf.
        let k = 50;
        let leaf_len = |q: &[f32]| {
            let word = messi.config().quantizer().word(q);
            let leaf = approx_leaf_flat(&messi, &word).unwrap();
            messi.leaf_positions(messi.node(leaf)).len() as u64
        };
        let (first, second) = (leaf_len(qrefs[0]), leaf_len(qrefs[1]));
        assert!(first >= 2 && second >= 2, "fixture leaves too small");
        // At one worker query 0 is claimed, seeded and drained before
        // query 1 is claimed: what query 0 reads alone is what it reads
        // here.
        let unconstrained = FlakySource::new(data.clone(), u64::MAX);
        let (_, alone) = knn_batch(&messi, &unconstrained, &qrefs[..1], k, 1).unwrap();
        for (budget, query) in [
            (1, 0),
            (first - 1, 0),
            (alone.series_fetched, 1),
            (alone.series_fetched + second - 1, 1),
        ] {
            let flaky = FlakySource::new(data.clone(), budget);
            let err = knn_batch(&messi, &flaky, &qrefs, k, 1).unwrap_err();
            assert!(matches!(err.root_cause(), StorageError::Io(_)), "{err}");
            assert!(
                err.to_string()
                    .starts_with(&format!("during seed (query {query}):")),
                "budget {budget}: {err}"
            );
        }
    }

    #[test]
    fn mid_query_read_failure_is_an_error_not_a_panic() {
        let data = DatasetKind::Synthetic.generate(500, 64, 91);
        let (messi, _) = build(&data, &cfg(4));
        let q = DatasetKind::Synthetic.queries(2, 64, 91);
        let qrefs: Vec<&[f32]> = q.iter().collect();
        // Budget 0: the very first fetch (approximate-leaf seeding) fails,
        // and the error carries the phase and the query it happened in.
        let flaky = FlakySource::new(data.clone(), 0);
        let err = nn(&messi, &flaky, q.get(0), 4).unwrap_err();
        assert!(matches!(err.root_cause(), StorageError::Io(_)));
        assert!(
            err.to_string().starts_with("during seed (query 0):"),
            "{err}"
        );
        // Budgets that survive seeding but die inside the broadcast's
        // processing phase: the error must surface through the pool join
        // as `Err` — a worker panic would abort the whole process here.
        for budget in [1u64, 8, 32, 64] {
            let flaky = FlakySource::new(data.clone(), budget);
            assert!(
                knn_batch(&messi, &flaky, &qrefs, 50, 4).is_err(),
                "budget {budget} cannot cover a k=50 batch over 500 series"
            );
            assert!(flaky.tripped());
        }
        // A batch wider than the pool: a failed read stops every worker
        // and still comes back as `Err` (the error path across widths and
        // budgets has its own test below).
        let wide = DatasetKind::Synthetic.queries(9, 64, 92);
        let wide: Vec<&[f32]> = wide.iter().collect();
        for budget in [1u64, 8, 32, 64] {
            let flaky = FlakySource::new(data.clone(), budget);
            let err = knn_batch(&messi, &flaky, &wide, 50, 4).unwrap_err();
            assert!(matches!(err.root_cause(), StorageError::Io(_)), "{err}");
            assert!(flaky.tripped());
        }
        // An unconstrained budget answers exactly like the dataset itself,
        // and both count the traversal of each query as that query's and
        // read one series per request.
        let flaky = FlakySource::new(data.clone(), u64::MAX);
        let (via_flaky, _) = knn(&messi, &flaky, q.get(0), 7, 4).unwrap();
        let (via_data, _) = knn(&messi, &data, q.get(0), 7, 4).unwrap();
        assert_eq!(via_flaky, via_data);
        let (via_flaky, on_flaky) = knn_batch(&messi, &flaky, &wide, 7, 4).unwrap();
        let (via_data, on_data) = knn_batch(&messi, &data, &wide, 7, 4).unwrap();
        assert_eq!(via_flaky, via_data);
        for on in [&on_flaky, &on_data] {
            assert_eq!(on.shared.leaves_enqueued, 0);
            assert!(on.per_query.iter().all(|q| q.leaves_enqueued > 0));
            on.per_query.iter().for_each(assert_funnel_exact);
            assert_eq!(on.series_fetched, on.series_requests);
        }
        assert_eq!((on_flaky.broadcasts, on_data.broadcasts), (1, 1));
    }

    /// Runs `f` on a thread of its own and fails unless it returns within a
    /// minute: a worker left waiting on a run nobody publishes fails the
    /// test instead of hanging it (a hung thread cannot be joined, so it is
    /// joined only once it has answered). A panic inside `f` fails it too.
    fn under_watchdog<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let call = std::thread::spawn(move || tx.send(f()).expect("the watchdog waits"));
        let got = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("{label}: the call hung or panicked ({e})"));
        call.join()
            .expect("the call answered, then its thread ends");
        got
    }

    #[test]
    fn resident_read_failures_are_errors_with_their_query_and_phase() {
        let data = DatasetKind::Synthetic.generate(500, 64, 91);
        let (messi, _) = build(&data, &cfg(4));
        let messi = std::sync::Arc::new(messi);
        let queries: std::sync::Arc<Vec<Vec<f32>>> = std::sync::Arc::new(
            DatasetKind::Synthetic
                .queries(64, 64, 92)
                .iter()
                .map(<[f32]>::to_vec)
                .collect(),
        );
        // Query 0's seeding reads its own leaf: a budget of exactly that
        // many reads fails in the drain when query 0 is all there is, or
        // when one worker answers the batch in order.
        let prep = PreparedQuery::new(messi.config().quantizer(), &queries[0]);
        let own_leaf = approx_leaf_flat(&messi, &prep.word).unwrap();
        let seed_reads = messi.leaf_positions(messi.node(own_leaf)).len() as u64;
        for threads in [1usize, 2, 4, 8] {
            let mut widths = vec![1, threads, threads + 1, 64];
            widths.dedup();
            for width in widths {
                for (budget, dtw) in [
                    (0, false),
                    (0, true),
                    (seed_reads, false),
                    (seed_reads, true),
                ] {
                    let label = format!("x{threads} width={width} budget={budget} dtw={dtw}");
                    let (messi, queries, data) = (messi.clone(), queries.clone(), data.clone());
                    let got = under_watchdog(&label, move || {
                        let flaky = FlakySource::new(data, budget);
                        let qrefs: Vec<&[f32]> =
                            queries[..width].iter().map(Vec::as_slice).collect();
                        let measure = if dtw {
                            Measure::Dtw { band: 4 }
                        } else {
                            Measure::Euclidean
                        };
                        let got = exact(&messi, &flaky, &qrefs, measure, 50, threads, None);
                        got.map(|_| ()).map_err(|e| {
                            (e.to_string(), matches!(e.root_cause(), StorageError::Io(_)))
                        })
                    });
                    let (msg, io) = got.expect_err(&label);
                    assert!(io, "{label}: {msg}");
                    // "during <phase> (query <i>): I/O error: ..."
                    let (phase, query) = msg
                        .strip_prefix("during ")
                        .and_then(|rest| rest.split_once(" (query "))
                        .and_then(|(phase, rest)| Some((phase, rest.split_once("):")?.0)))
                        .unwrap_or_else(|| panic!("{label}: {msg}"));
                    let query: usize = query.parse().unwrap();
                    assert!(query < width, "{label}: {msg}");
                    let drain = if dtw { "dtw_cascade" } else { "traversal" };
                    let want: &[&str] = if budget == 0 {
                        // Every read fails: no query is ever opened.
                        &["seed"]
                    } else if width == 1 || threads == 1 {
                        &[drain]
                    } else {
                        &["seed", drain]
                    };
                    assert!(want.contains(&phase), "{label}: {msg}");
                    if want == [drain] {
                        assert_eq!(query, 0, "{label}: {msg}");
                    }
                }
            }
            // With the budget unconstrained the same calls answer exactly
            // like the dataset itself.
            let flaky = FlakySource::new(data.clone(), u64::MAX);
            let qrefs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
            let (got, _) = knn_batch(&messi, &flaky, &qrefs, 7, threads).unwrap();
            let (want, _) = knn_batch(&messi, &data, &qrefs, 7, threads).unwrap();
            assert_eq!(got, want, "x{threads}");
        }
    }
}
