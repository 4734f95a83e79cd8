//! Batched query execution: one schedule answers many queries.
//!
//! A single exact query is dominated by fixed costs — the pool broadcast
//! that wakes every worker, the walk over the SAX array or tree. A
//! [`QueryBatch`] shares them across B queries: an engine runs the whole
//! batch inside one schedule, so the per-query broadcast cost drops to
//! `1/B` of the single-query path. The loops each engine runs inside its
//! schedule are the engine's own; only the UCR scan checks one fetched
//! series against every query.
//!
//! Per-query state is exactly the single-query state, vectorized: a
//! prepared query (a [`PreparedQuery`], or whatever the schedule
//! prepares), an [`OffsetTopK`] pruner (k-NN shaped; 1-NN batches are
//! k = 1), and its [`QueryStats`] behind a lock. A worker never takes that
//! lock per item: it fills one local `QueryStats` per query and folds them
//! in once, when its phase ends ([`QueryBatch::merge_locals`]). Every
//! engine answers a single query as a batch of one.
//!
//! [`BatchStats`] makes the amortization observable: broadcasts issued for
//! the whole batch, raw series fetched versus the per-query requests they
//! served, plus the per-query [`QueryStats`]. The batch-level tallies
//! (fetches, requests, phase times) are plain values under one lock too;
//! every tally is read once, by [`QueryBatch::finish`], after the
//! schedule has joined its workers.

use crate::prepare::PreparedQuery;
use crate::stats::QueryStats;
use dsidx_isax::Quantizer;
use dsidx_obs::phase::{Phase, PhaseBreakdown};
use dsidx_series::Match;
use dsidx_sync::{OffsetTopK, SharedTopK};
use parking_lot::Mutex;
use std::sync::Arc;

/// Per-query state inside a [`QueryBatch`]: the query's raw values, its
/// prepared summaries, its own pruner and its own work counters.
///
/// `P` is what the batch prepared per query up front: a [`PreparedQuery`]
/// for ParIS's Euclidean loops, the UCR scan's own per-query state, or `()` for a
/// schedule that prepares each query where it answers it.
pub struct BatchSlot<'q, P = PreparedQuery> {
    /// The raw (z-normalized) query values.
    pub values: &'q [f32],
    /// This query's prepared state (word, MINDIST tables, distance).
    pub prep: P,
    /// This query's top-k collector — its threshold prunes only for this
    /// query, never for its batch-mates. An [`OffsetTopK`] view: a plain
    /// per-batch collector for an ordinary batch, or a rebasing view into
    /// one cross-shard [`SharedPruners`] collector for a sharded search.
    pub topk: OffsetTopK,
    /// This query's work counters. Workers add to them only through
    /// [`QueryBatch::merge_locals`], once per phase each, so the lock is
    /// never contended for long; [`QueryBatch::finish`] takes them out.
    pub stats: Mutex<QueryStats>,
}

/// One cross-shard pruner per query: the mid-flight BSF-sharing channel of
/// a scatter-gather search.
///
/// Each shard builds its [`QueryBatch`] over its own [`view`](Self::view)
/// ([`QueryBatch::prepared`]), so all shards' kernel loops for query `i`
/// feed `topks[i]` — a tight match found in one shard immediately raises
/// the threshold every other shard prunes against. Positions inside the
/// collectors are **global** (each shard's view rebases by its first
/// global position), so the position-dedup and lowest-position tie-break
/// operate on the concatenated dataset exactly as a monolithic index
/// would.
#[derive(Debug)]
pub struct SharedPruners {
    topks: Vec<Arc<SharedTopK>>,
}

impl SharedPruners {
    /// One fresh k-collector per query.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(queries: usize, k: usize) -> Self {
        Self {
            topks: (0..queries).map(|_| Arc::new(SharedTopK::new(k))).collect(),
        }
    }

    /// Number of queries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.topks.len()
    }

    /// `true` for zero queries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.topks.is_empty()
    }

    /// The per-query collectors, index-aligned with the queries.
    #[must_use]
    pub fn topks(&self) -> &[Arc<SharedTopK>] {
        &self.topks
    }

    /// Per-query answers so far (sorted ascending by `(distance, global
    /// position)`) — the gather step, read once after every shard joins.
    #[must_use]
    pub fn matches(&self) -> Vec<Vec<Match>> {
        self.topks
            .iter()
            .map(|t| {
                t.matches()
                    .into_iter()
                    .map(|(dist_sq, pos)| Match::new(pos, dist_sq))
                    .collect()
            })
            .collect()
    }

    /// A shard's rebasing view: pass to an engine's batch entry point so
    /// its kernels record positions as `base + local`.
    #[must_use]
    pub fn view(&self, base: u32) -> ShardView<'_> {
        ShardView {
            pruners: self,
            base,
        }
    }
}

/// One shard's handle on the cross-shard [`SharedPruners`]: the pruners
/// plus this shard's first global position. Engines' batch entry points
/// take `Option<ShardView>` — `None` is the ordinary standalone batch.
#[derive(Debug, Clone, Copy)]
pub struct ShardView<'a> {
    /// The per-query cross-shard collectors.
    pub pruners: &'a SharedPruners,
    /// Global position of this shard's local position 0.
    pub base: u32,
}

/// A batch of exact k-NN queries answered by one shared schedule.
pub struct QueryBatch<'q, P = PreparedQuery> {
    slots: Vec<BatchSlot<'q, P>>,
    tally: Mutex<Tally>,
}

/// What a batch counts for the whole batch rather than per query.
#[derive(Default)]
struct Tally {
    /// Raw series actually read.
    fetches: u64,
    /// Per-query distance attempts those reads served.
    requests: u64,
    /// Phase times, lapped by the coordinating thread.
    phase: PhaseBreakdown,
}

impl<'q> QueryBatch<'q> {
    /// Prepares every query in `queries` for a Euclidean k-NN batch under
    /// `quantizer` (see [`prepared`](QueryBatch::prepared) for `shard`).
    ///
    /// # Panics
    /// As [`prepared`](QueryBatch::prepared), and if any query length
    /// differs from the quantizer's series length (engines also assert
    /// this at their API boundary).
    #[must_use]
    pub fn new(
        quantizer: &Quantizer,
        queries: &[&'q [f32]],
        k: usize,
        shard: Option<ShardView<'_>>,
    ) -> Self {
        Self::prepared(queries, k, shard, |values| {
            PreparedQuery::new(quantizer, values)
        })
    }
}

/// What every batch offers, whatever it prepared per query.
impl<'q, P> QueryBatch<'q, P> {
    /// A k-NN batch whose slots hold `prepare(query)` for each query — a
    /// prepared query, or `()` for a schedule that prepares each query
    /// where it answers it (in parallel, inside the worker that claimed
    /// it) instead of serially up front. With `shard` set (see
    /// [`SharedPruners`]) the per-query pruners are rebasing views into the
    /// cross-shard collectors: this batch's local position `p` is recorded
    /// as global `base + p`.
    ///
    /// # Panics
    /// Panics if `k == 0` (without `shard`), if `shard`'s pruners are not
    /// one per query, or as `prepare` does.
    #[must_use]
    pub fn prepared(
        queries: &[&'q [f32]],
        k: usize,
        shard: Option<ShardView<'_>>,
        mut prepare: impl FnMut(&[f32]) -> P,
    ) -> Self {
        if let Some(view) = shard {
            assert_eq!(
                view.pruners.len(),
                queries.len(),
                "one shared pruner per query"
            );
        }
        let slots = queries
            .iter()
            .enumerate()
            .map(|(qi, &values)| BatchSlot {
                values,
                prep: prepare(values),
                topk: match shard {
                    Some(view) => {
                        OffsetTopK::shared(Arc::clone(&view.pruners.topks()[qi]), view.base)
                    }
                    None => OffsetTopK::fresh(k),
                },
                stats: Mutex::new(QueryStats::default()),
            })
            .collect();
        Self {
            slots,
            tally: Mutex::new(Tally::default()),
        }
    }

    /// Number of queries in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` for a batch of zero queries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The per-query slots.
    #[must_use]
    pub fn slots(&self) -> &[BatchSlot<'q, P>] {
        &self.slots
    }

    /// Books `nanos` of the schedule's wall time to `phase`. The engine's
    /// coordinating thread calls this with each lap of its
    /// [`PhaseClock`](dsidx_obs::phase::PhaseClock);
    /// [`finish`](Self::finish) folds the times into the batch's shared
    /// stats.
    pub fn record_phase(&self, phase: Phase, nanos: u64) {
        self.tally.lock().phase.record(phase, nanos);
    }

    /// Adds raw-fetch accounting: `fetches` series actually read, serving
    /// `requests` per-query distance attempts.
    pub fn count_io(&self, fetches: u64, requests: u64) {
        let mut tally = self.tally.lock();
        tally.fetches += fetches;
        tally.requests += requests;
    }

    /// Merges one worker's per-query local tallies (index-aligned with
    /// [`slots`](Self::slots)) into the shared per-query counters.
    ///
    /// # Panics
    /// Panics if `locals` is not exactly one entry per query.
    pub fn merge_locals(&self, locals: &[QueryStats]) {
        assert_eq!(locals.len(), self.slots.len(), "one local per query");
        for (slot, local) in self.slots.iter().zip(locals) {
            let mut stats = slot.stats.lock();
            *stats = stats.merged(local);
        }
    }

    /// Finishes the batch: per-query answers (sorted ascending by
    /// `(distance, position)`) plus the [`BatchStats`]. Phase times booked
    /// with [`record_phase`](Self::record_phase) become the shared stats
    /// (the schedule ran once for the whole batch).
    #[must_use]
    pub fn finish(self, broadcasts: u64) -> (Vec<Vec<Match>>, BatchStats) {
        let tally = self.tally.into_inner();
        let shared = QueryStats {
            phase: tally.phase,
            ..QueryStats::default()
        };
        let mut matches = Vec::with_capacity(self.slots.len());
        let mut per_query = Vec::with_capacity(self.slots.len());
        for slot in self.slots {
            matches.push(
                slot.topk
                    .matches()
                    .into_iter()
                    .map(|(dist_sq, pos)| Match::new(pos, dist_sq))
                    .collect(),
            );
            per_query.push(slot.stats.into_inner());
        }
        let stats = BatchStats {
            broadcasts,
            series_fetched: tally.fetches,
            series_requests: tally.requests,
            shared,
            per_query,
        };
        (matches, stats)
    }
}

/// Work accounting for one answered [`QueryBatch`] — the observable form
/// of the amortization: how many pool broadcasts the whole batch cost, and
/// how many raw-series fetches were shared across queries (UCR scan only).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchStats {
    /// Pool broadcasts issued for the whole batch (0 for approximate
    /// answers; constant per batch for exact ones, so broadcasts-per-query
    /// shrinks as `1/B`).
    pub broadcasts: u64,
    /// Raw series actually fetched: one per request for ParIS and MESSI,
    /// and once per scan step whatever the batch size for the UCR scan.
    pub series_fetched: u64,
    /// Per-query real-distance attempts those fetches served — what B
    /// independent queries would each have fetched for. `series_requests
    /// >= series_fetched`; the gap is the sharing.
    pub series_requests: u64,
    /// The batch's phase times (the schedule ran once for the batch).
    /// Its counters stay zero: every engine counts its work per query,
    /// MESSI included, whose traversals are each one query's.
    pub shared: QueryStats,
    /// Per-query counters, index-aligned with the batch's queries.
    pub per_query: Vec<QueryStats>,
}

impl BatchStats {
    /// Broadcasts issued per query — below 1 whenever batching amortizes
    /// (B queries per broadcast set).
    #[must_use]
    pub fn broadcasts_per_query(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)] // display-only ratio
        if self.per_query.is_empty() {
            0.0
        } else {
            self.broadcasts as f64 / self.per_query.len() as f64
        }
    }

    /// Query `i`'s counters including its share of the batch-level work —
    /// the view that matches what a single-query run would have reported.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn query_stats(&self, i: usize) -> QueryStats {
        self.shared.merged(&self.per_query[i])
    }

    /// Collapses a batch-of-one into the single-query [`QueryStats`] —
    /// how the single-query facade methods are re-expressed over the
    /// batch path.
    ///
    /// # Panics
    /// Panics if the batch did not hold exactly one query.
    #[must_use]
    pub fn into_single(self) -> QueryStats {
        assert_eq!(self.per_query.len(), 1, "batch of one");
        self.shared.merged(&self.per_query[0])
    }

    /// Field-wise total over the whole batch (shared + every query).
    #[must_use]
    pub fn total(&self) -> QueryStats {
        self.per_query
            .iter()
            .fold(self.shared, |acc, q| acc.merged(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_series::gen::DatasetKind;
    use dsidx_tree::TreeConfig;

    fn config() -> TreeConfig {
        TreeConfig::new(64, 8, 16).unwrap()
    }

    #[test]
    fn merge_locals_is_thread_safe() {
        let qs = DatasetKind::Synthetic.queries(2, 64, 3);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let batch = QueryBatch::new(config().quantizer(), &qrefs, 1, None);
        let tally = |k: u64| {
            let mut phase = PhaseBreakdown::new();
            phase.record(Phase::Verify, 5 * k);
            QueryStats {
                candidates: k,
                leaves_processed: 2 * k,
                dtw_cells: 3 * k,
                real_computed: 4 * k,
                phase,
                ..QueryStats::default()
            }
        };
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        batch.merge_locals(&[tally(1), tally(3)]);
                        batch.count_io(1, 2);
                        batch.record_phase(Phase::Collect, 7);
                    }
                });
            }
        });
        let (_, stats) = batch.finish(1);
        assert_eq!(stats.per_query, vec![tally(8000), tally(24_000)]);
        assert_eq!(
            (stats.series_fetched, stats.series_requests),
            (8000, 16_000)
        );
        assert_eq!(stats.shared.phase.nanos(Phase::Collect), 56_000);
        assert_eq!(stats.shared.phase.nanos(Phase::Verify), 0);
    }

    #[test]
    fn stats_views_compose() {
        let shared = QueryStats {
            nodes_pruned: 7,
            ..QueryStats::default()
        };
        let q0 = QueryStats {
            real_computed: 3,
            ..QueryStats::default()
        };
        let stats = BatchStats {
            broadcasts: 1,
            series_fetched: 5,
            series_requests: 9,
            shared,
            per_query: vec![q0],
        };
        assert_eq!(stats.query_stats(0).nodes_pruned, 7);
        assert_eq!(stats.query_stats(0).real_computed, 3);
        assert_eq!(stats.total(), stats.query_stats(0));
        assert!((stats.broadcasts_per_query() - 1.0).abs() < 1e-9);
        assert_eq!(stats.into_single().real_computed, 3);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let batch = QueryBatch::new(config().quantizer(), &[], 3, None);
        assert!(batch.is_empty());
        batch.merge_locals(&[]);
        let (matches, stats) = batch.finish(0);
        assert!(matches.is_empty());
        assert_eq!(stats.series_fetched, 0);
        assert!((stats.broadcasts_per_query() - 0.0).abs() < 1e-9);
    }
}
