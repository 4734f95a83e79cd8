//! Batched query execution: one pass over the data answers many queries.
//!
//! A single exact query is dominated by fixed costs — the pool broadcast
//! that wakes every worker, the walk over the SAX array or tree, the raw
//! fetch per surviving candidate. A [`QueryBatch`] shares all of them
//! across B queries: each fetched series (or scanned SAX word, or visited
//! tree node) is checked against *every* query in the batch — one data
//! pass, B threshold checks — instead of re-walking the data per query.
//! Engines run the whole batch inside one schedule (ADS+ one serial scan,
//! ParIS one collect + one verify broadcast, MESSI one traversal
//! broadcast), so the per-query broadcast cost drops to `1/B` of the
//! single-query path.
//!
//! Per-query state is exactly the single-query state, vectorized: a
//! [`PreparedQuery`], a [`SharedTopK`] pruner (k-NN shaped; 1-NN batches
//! are k = 1), and an [`AtomicQueryStats`]. The loops in this module are
//! the batch generalizations of the single-query kernel loops in
//! [`seed`](crate::seed) and [`scan`](crate::scan) — those remain as the
//! lean B = 1 specializations used by the `exact_nn` paths.
//!
//! [`BatchStats`] makes the amortization observable: broadcasts issued for
//! the whole batch, raw series fetched once versus the per-query requests
//! they served, plus the per-query [`QueryStats`].

use crate::fetch::SeriesFetcher;
use crate::prepare::PreparedQuery;
use crate::stats::{AtomicQueryStats, QueryStats};
use dsidx_isax::{Quantizer, Word};
use dsidx_obs::phase::PhaseAcc;
use dsidx_series::distance::euclidean_sq_bounded;
use dsidx_series::Match;
use dsidx_storage::{RawSource, StorageError};
use dsidx_sync::{OffsetTopK, SharedTopK};
use dsidx_tree::LeafEntry;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-query state inside a [`QueryBatch`]: the query's raw values, its
/// prepared summaries, its own pruner and its own work counters.
pub struct BatchSlot<'q> {
    /// The raw (z-normalized) query values.
    pub values: &'q [f32],
    /// PAA summary, iSAX word and MINDIST table for this query.
    pub prep: PreparedQuery,
    /// This query's top-k collector — its threshold prunes only for this
    /// query, never for its batch-mates. An [`OffsetTopK`] view: a plain
    /// per-batch collector for an ordinary batch, or a rebasing view into
    /// one cross-shard [`SharedPruners`] collector for a sharded search.
    pub topk: OffsetTopK,
    /// This query's work counters (shared-counter form, so parallel phases
    /// merge worker-local tallies without locks).
    pub stats: AtomicQueryStats,
}

/// One cross-shard pruner per query: the mid-flight BSF-sharing channel of
/// a scatter-gather search.
///
/// Each shard builds its [`QueryBatch`] with
/// [`QueryBatch::with_shared`], so all shards' kernel loops for query `i`
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
pub struct QueryBatch<'q> {
    slots: Vec<BatchSlot<'q>>,
    fetches: AtomicU64,
    requests: AtomicU64,
    phases: PhaseAcc,
}

impl<'q> QueryBatch<'q> {
    /// Prepares every query in `queries` for a k-NN batch under
    /// `quantizer`.
    ///
    /// # Panics
    /// Panics if `k == 0` or any query length differs from the quantizer's
    /// series length (engines also assert this at their API boundary).
    #[must_use]
    pub fn new(quantizer: &Quantizer, queries: &[&'q [f32]], k: usize) -> Self {
        Self::build(quantizer, queries, |_| OffsetTopK::fresh(k))
    }

    /// Prepares a batch whose per-query pruners are rebasing views into
    /// `shared` (see [`SharedPruners`]): this batch's local position `p`
    /// is recorded as global `base + p`. Used once per shard of a
    /// scatter-gather search, with `base` the shard's first global
    /// position.
    ///
    /// # Panics
    /// Panics if `shared` does not hold exactly one pruner per query.
    #[must_use]
    pub fn with_shared(
        quantizer: &Quantizer,
        queries: &[&'q [f32]],
        shared: &SharedPruners,
        base: u32,
    ) -> Self {
        assert_eq!(shared.len(), queries.len(), "one shared pruner per query");
        Self::build(quantizer, queries, |qi| {
            OffsetTopK::shared(Arc::clone(&shared.topks()[qi]), base)
        })
    }

    /// [`new`](Self::new) or [`with_shared`](Self::with_shared), chosen by
    /// whether a shard view is present — the one-line dispatch every
    /// engine's batch entry point uses.
    ///
    /// # Panics
    /// As [`new`](Self::new) / [`with_shared`](Self::with_shared).
    #[must_use]
    pub fn for_shard(
        quantizer: &Quantizer,
        queries: &[&'q [f32]],
        k: usize,
        shard: Option<ShardView<'_>>,
    ) -> Self {
        match shard {
            Some(v) => Self::with_shared(quantizer, queries, v.pruners, v.base),
            None => Self::new(quantizer, queries, k),
        }
    }

    fn build(
        quantizer: &Quantizer,
        queries: &[&'q [f32]],
        mut topk: impl FnMut(usize) -> OffsetTopK,
    ) -> Self {
        let slots = queries
            .iter()
            .enumerate()
            .map(|(qi, &values)| BatchSlot {
                values,
                prep: PreparedQuery::new(quantizer, values),
                topk: topk(qi),
                stats: AtomicQueryStats::new(),
            })
            .collect();
        Self {
            slots,
            fetches: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            phases: PhaseAcc::new(),
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
    pub fn slots(&self) -> &[BatchSlot<'q>] {
        &self.slots
    }

    /// The batch-level phase-time accumulator. The engine's coordinating
    /// thread laps its [`PhaseClock`](dsidx_obs::phase::PhaseClock) into
    /// this at each schedule boundary; [`finish`](Self::finish) folds it
    /// into the batch's shared stats.
    #[must_use]
    pub fn phases(&self) -> &PhaseAcc {
        &self.phases
    }

    /// The loosest pruning threshold across the batch. A candidate whose
    /// lower bound reaches it cannot improve *any* query — the sound
    /// batch-wide pruning test (per-query tests prune more; this one gates
    /// work shared by the whole batch, like a MESSI queue abandonment).
    #[must_use]
    pub fn max_threshold_sq(&self) -> f32 {
        self.slots
            .iter()
            .map(|s| s.topk.threshold_sq())
            .fold(0.0f32, f32::max)
    }

    /// Adds raw-fetch accounting: `fetches` series actually read, serving
    /// `requests` per-query distance attempts.
    pub fn count_io(&self, fetches: u64, requests: u64) {
        // ORDERING: relaxed — read only in `finish`, after the schedule's
        // join point; the join is the happens-before edge.
        self.fetches.fetch_add(fetches, Ordering::Relaxed);
        self.requests.fetch_add(requests, Ordering::Relaxed);
    }

    /// Merges one worker's per-query local tallies (index-aligned with
    /// [`slots`](Self::slots)) into the shared per-query counters.
    ///
    /// # Panics
    /// Panics if `locals` is not exactly one entry per query.
    pub fn merge_locals(&self, locals: &[QueryStats]) {
        assert_eq!(locals.len(), self.slots.len(), "one local per query");
        for (slot, local) in self.slots.iter().zip(locals) {
            slot.stats.merge(local);
        }
    }

    /// Finishes the batch: per-query answers (sorted ascending by
    /// `(distance, position)`) plus the [`BatchStats`]. `shared` carries
    /// counters for work done once for the whole batch (a tree engine's
    /// traversal); scan engines pass [`QueryStats::default()`]. Phase
    /// times lapped into [`phases`](Self::phases) are folded into the
    /// shared stats here (the schedule ran once for the whole batch).
    #[must_use]
    pub fn finish(self, broadcasts: u64, mut shared: QueryStats) -> (Vec<Vec<Match>>, BatchStats) {
        shared.phase = shared.phase.merged(&self.phases.snapshot());
        let mut matches = Vec::with_capacity(self.slots.len());
        let mut per_query = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            matches.push(
                slot.topk
                    .matches()
                    .into_iter()
                    .map(|(dist_sq, pos)| Match::new(pos, dist_sq))
                    .collect(),
            );
            per_query.push(slot.stats.snapshot());
        }
        let stats = BatchStats {
            broadcasts,
            // ORDERING: relaxed — `finish` consumes `self` after the
            // schedule joined every worker, so all counts are visible.
            series_fetched: self.fetches.load(Ordering::Relaxed),
            series_requests: self.requests.load(Ordering::Relaxed),
            shared,
            per_query,
        };
        (matches, stats)
    }
}

/// Work accounting for one answered [`QueryBatch`] — the observable form
/// of the amortization: how many pool broadcasts the whole batch cost, and
/// how many raw-series fetches were shared across queries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchStats {
    /// Pool broadcasts issued for the whole batch (0 for the serial
    /// engine; constant per batch for the parallel ones, so
    /// broadcasts-per-query shrinks as `1/B`).
    pub broadcasts: u64,
    /// Raw series actually fetched, each at most once per scan/verify
    /// step whatever the batch size.
    pub series_fetched: u64,
    /// Per-query real-distance attempts those fetches served — what B
    /// independent queries would each have fetched for. `series_requests
    /// >= series_fetched`; the gap is the sharing.
    pub series_requests: u64,
    /// Counters for work done once for the whole batch (tree traversal
    /// for MESSI: nodes pruned, leaves enqueued/processed/discarded);
    /// zero for the scan engines.
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

/// Seeds every query in the batch from the (deduplicated, typically
/// union-of-approximate-leaves) `positions`: each series is fetched once
/// and pays an early-abandoned real distance against every query, so
/// every pruner starts from a threshold at least as tight as its own-leaf
/// seed. Abandoning against each query's own threshold is result-identical
/// to full distances (the pruner rejects anything at or above it anyway)
/// and caps the cross-seeding cost once a query's top-k fills.
///
/// # Errors
/// Propagates raw-source I/O failures.
pub fn batch_seed_positions(
    positions: &[u32],
    fetcher: &mut SeriesFetcher<'_, impl RawSource>,
    batch: &QueryBatch<'_>,
) -> Result<(), StorageError> {
    if batch.is_empty() || positions.is_empty() {
        return Ok(());
    }
    let mut locals = vec![QueryStats::default(); batch.len()];
    for &pos in positions {
        let series = fetcher.fetch(pos as usize)?;
        for (slot, local) in batch.slots().iter().zip(&mut locals) {
            let limit = slot.topk.threshold_sq();
            if let Some(d) = euclidean_sq_bounded(slot.values, series, limit) {
                slot.topk.insert(d, pos);
                local.real_computed += 1;
            }
        }
    }
    batch.merge_locals(&locals);
    batch.count_io(
        positions.len() as u64,
        positions.len() as u64 * batch.len() as u64,
    );
    Ok(())
}

/// Warms every k-NN threshold in the batch over the position-order prefix
/// `0..prefix` (see [`seed_prefix`](crate::seed::seed_prefix) for why a
/// batch lower-bound phase needs this): one fetch per position, an
/// early-abandoned real distance per query.
///
/// # Errors
/// Propagates raw-source I/O failures.
pub fn batch_seed_prefix(
    prefix: usize,
    fetcher: &mut SeriesFetcher<'_, impl RawSource>,
    batch: &QueryBatch<'_>,
) -> Result<(), StorageError> {
    if batch.is_empty() || prefix == 0 {
        return Ok(());
    }
    let mut locals = vec![QueryStats::default(); batch.len()];
    for pos in 0..prefix {
        let series = fetcher.fetch(pos)?;
        for (slot, local) in batch.slots().iter().zip(&mut locals) {
            let limit = slot.topk.threshold_sq();
            if let Some(d) = euclidean_sq_bounded(slot.values, series, limit) {
                slot.topk.insert(d, pos as u32);
                local.real_computed += 1;
            }
        }
    }
    batch.merge_locals(&locals);
    batch.count_io(prefix as u64, prefix as u64 * batch.len() as u64);
    Ok(())
}

/// SIMS-style serial scan, batched (the ADS+ schedule): every SAX word is
/// lower-bounded against every query; a position is fetched at most once,
/// then verified for each query whose bound survived. The batch
/// generalization of [`scan_sax_serial`](crate::scan::scan_sax_serial).
///
/// # Errors
/// Propagates raw-source I/O failures.
pub fn batch_scan_sax_serial(
    words: &[Word],
    fetcher: &mut SeriesFetcher<'_, impl RawSource>,
    batch: &QueryBatch<'_>,
) -> Result<(), StorageError> {
    if batch.is_empty() {
        return Ok(());
    }
    let mut locals = vec![QueryStats::default(); batch.len()];
    let mut survivors: Vec<(usize, f32)> = Vec::with_capacity(batch.len());
    let (mut fetches, mut requests) = (0u64, 0u64);
    for (pos, word) in words.iter().enumerate() {
        survivors.clear();
        for (qi, slot) in batch.slots().iter().enumerate() {
            locals[qi].lb_computed += 1;
            let lb = slot.prep.table.lookup(word);
            if lb < slot.topk.threshold_sq() {
                locals[qi].candidates += 1;
                survivors.push((qi, lb));
            }
        }
        if survivors.is_empty() {
            continue;
        }
        let series = fetcher.fetch(pos)?;
        fetches += 1;
        for &(qi, _) in &survivors {
            let slot = &batch.slots()[qi];
            // No stale-bound re-check needed: this loop is serial, each
            // query appears at most once per position, and verifications
            // for other queries never touch this query's threshold. (A
            // cross-shard sharer may tighten it concurrently — that only
            // prunes more; the insert-time comparison stays authoritative.)
            let limit = slot.topk.threshold_sq();
            requests += 1;
            if let Some(d) = euclidean_sq_bounded(slot.values, series, limit) {
                slot.topk.insert(d, pos as u32);
                locals[qi].real_computed += 1;
            }
        }
    }
    batch.merge_locals(&locals);
    batch.count_io(fetches, requests);
    Ok(())
}

/// One surviving `(position, query, bound)` triple from a batched ParIS
/// collect phase. Triples for one position are emitted contiguously, so
/// the verify phase can share one fetch across every query that kept the
/// position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchCandidate {
    /// SAX-array position of the candidate series.
    pub pos: u32,
    /// Index of the query (into the batch's slots) that kept it.
    pub query: u32,
    /// The lower bound that beat that query's threshold.
    pub lb: f32,
}

/// Lower-bound filter over one Fetch&Inc chunk of the SAX array, batched
/// (ParIS collect): each word in `range` is bounded against every query;
/// survivors append one [`BatchCandidate`] per `(position, query)` pair.
/// Thresholds are sampled once per chunk — the paper's granularity for
/// refreshing the pruning threshold. The batch generalization of
/// [`collect_candidates`](crate::scan::collect_candidates).
pub fn batch_collect_candidates(
    words: &[Word],
    range: Range<usize>,
    batch: &QueryBatch<'_>,
    locals: &mut [QueryStats],
    out: &mut Vec<BatchCandidate>,
) {
    let limits: Vec<f32> = batch
        .slots()
        .iter()
        .map(|s| s.topk.threshold_sq())
        .collect();
    for pos in range {
        let word = &words[pos];
        for (qi, slot) in batch.slots().iter().enumerate() {
            let lb = slot.prep.table.lookup(word);
            if lb < limits[qi] {
                locals[qi].candidates += 1;
                out.push(BatchCandidate {
                    pos: pos as u32,
                    query: qi as u32,
                    lb,
                });
            }
        }
    }
}

/// Verifies one Fetch&Inc chunk of a batched candidate list (ParIS
/// verify): bounds are re-checked against each query's *current*
/// threshold, and a run of triples sharing a position pays one fetch for
/// all of them. The batch generalization of
/// [`verify_candidates`](crate::scan::verify_candidates).
///
/// # Errors
/// Propagates raw-source I/O failures.
pub fn batch_verify_candidates(
    candidates: &[BatchCandidate],
    range: Range<usize>,
    fetcher: &mut SeriesFetcher<'_, impl RawSource>,
    batch: &QueryBatch<'_>,
    locals: &mut [QueryStats],
) -> Result<(), StorageError> {
    let cs = &candidates[range];
    let (mut fetches, mut requests) = (0u64, 0u64);
    let mut i = 0;
    while i < cs.len() {
        let pos = cs[i].pos;
        let mut j = i + 1;
        while j < cs.len() && cs[j].pos == pos {
            j += 1;
        }
        let run = &cs[i..j];
        i = j;
        // Skip the fetch entirely when every query's threshold has moved
        // below its recorded bound since collection.
        if !run
            .iter()
            .any(|c| c.lb < batch.slots()[c.query as usize].topk.threshold_sq())
        {
            continue;
        }
        let series = fetcher.fetch(pos as usize)?;
        fetches += 1;
        for c in run {
            let slot = &batch.slots()[c.query as usize];
            let limit = slot.topk.threshold_sq();
            if c.lb >= limit {
                continue;
            }
            requests += 1;
            if let Some(d) = euclidean_sq_bounded(slot.values, series, limit) {
                slot.topk.insert(d, c.pos);
                locals[c.query as usize].real_computed += 1;
            }
        }
    }
    batch.count_io(fetches, requests);
    Ok(())
}

/// Entry-level bound + early-abandoned real distance over one leaf's
/// entries for every query in `active` (indices into the batch's slots
/// whose leaf-level bound survived) — the leaf is processed *once* for the
/// whole batch, and a surviving entry is fetched once from the
/// [`RawSource`] for every query that still wants it. The batch
/// generalization of
/// [`process_leaf_entries`](crate::scan::process_leaf_entries).
///
/// `survivors` is caller-owned scratch (its contents are overwritten), so
/// a worker visiting thousands of leaves allocates it once.
///
/// # Errors
/// Propagates raw-source I/O failures.
pub fn batch_process_leaf_entries(
    entries: &[LeafEntry],
    fetcher: &mut SeriesFetcher<'_, impl RawSource>,
    batch: &QueryBatch<'_>,
    active: &[usize],
    survivors: &mut Vec<usize>,
    locals: &mut [QueryStats],
) -> Result<(), StorageError> {
    let (mut fetches, mut requests) = (0u64, 0u64);
    for e in entries {
        survivors.clear();
        for &qi in active {
            let slot = &batch.slots()[qi];
            locals[qi].lb_entry_computed += 1;
            if slot.prep.table.lookup(&e.word) < slot.topk.threshold_sq() {
                survivors.push(qi);
            }
        }
        if survivors.is_empty() {
            continue;
        }
        let series = fetcher.fetch(e.pos as usize)?;
        fetches += 1;
        for &qi in survivors.iter() {
            let slot = &batch.slots()[qi];
            let limit = slot.topk.threshold_sq();
            requests += 1;
            if let Some(d) = euclidean_sq_bounded(slot.values, series, limit) {
                slot.topk.insert(d, e.pos);
                locals[qi].real_computed += 1;
            }
        }
    }
    batch.count_io(fetches, requests);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_series::distance::euclidean_sq;
    use dsidx_series::gen::DatasetKind;
    use dsidx_series::Dataset;
    use dsidx_tree::TreeConfig;

    fn fixture(n: usize) -> (Dataset, Vec<Word>, TreeConfig) {
        let config = TreeConfig::new(64, 8, 16).unwrap();
        let data = DatasetKind::Synthetic.generate(n, 64, 5);
        let quantizer = config.quantizer();
        let words = data.iter().map(|s| quantizer.word(s)).collect();
        (data, words, config)
    }

    fn brute_topk(data: &Dataset, q: &[f32], k: usize) -> Vec<(f32, u32)> {
        let mut all: Vec<(f32, u32)> = data
            .iter()
            .enumerate()
            .map(|(pos, s)| (euclidean_sq(q, s), pos as u32))
            .collect();
        all.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    #[test]
    fn batch_serial_scan_equals_per_query_brute_force() {
        let (data, words, config) = fixture(400);
        let qs = DatasetKind::Synthetic.queries(6, 64, 7);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        for k in [1usize, 4, 17] {
            let batch = QueryBatch::new(config.quantizer(), &qrefs, k);
            let mut fetcher = SeriesFetcher::new(&data);
            batch_scan_sax_serial(&words, &mut fetcher, &batch).unwrap();
            let (matches, stats) = batch.finish(0, QueryStats::default());
            assert_eq!(matches.len(), qrefs.len());
            for (qi, q) in qs.iter().enumerate() {
                let want = brute_topk(&data, q, k);
                let got = &matches[qi];
                assert_eq!(got.len(), want.len(), "q{qi} k={k}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.pos, w.1, "q{qi} k={k}");
                    assert!((g.dist_sq - w.0).abs() <= w.0 * 1e-4 + 1e-4);
                }
                // Every query paid one bound per position.
                assert_eq!(stats.per_query[qi].lb_computed, 400);
            }
            // Fetches are shared: never more than one per position, and
            // never fewer than any single query's needs.
            assert!(stats.series_fetched <= 400);
            assert!(stats.series_requests >= stats.series_fetched);
        }
    }

    #[test]
    fn batch_collect_verify_equals_brute_force() {
        let (data, words, config) = fixture(300);
        let qs = DatasetKind::Synthetic.queries(4, 64, 9);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let k = 5;
        let batch = QueryBatch::new(config.quantizer(), &qrefs, k);
        let mut fetcher = SeriesFetcher::new(&data);
        // Warm the thresholds like the ParIS schedule does, or the collect
        // phase materializes everything.
        batch_seed_prefix(4 * k, &mut fetcher, &batch).unwrap();
        let mut locals = vec![QueryStats::default(); batch.len()];
        let mut candidates = Vec::new();
        for start in (0..words.len()).step_by(64) {
            let end = (start + 64).min(words.len());
            batch_collect_candidates(&words, start..end, &batch, &mut locals, &mut candidates);
        }
        for start in (0..candidates.len()).step_by(16) {
            let end = (start + 16).min(candidates.len());
            batch_verify_candidates(&candidates, start..end, &mut fetcher, &batch, &mut locals)
                .unwrap();
        }
        batch.merge_locals(&locals);
        let (matches, stats) = batch.finish(2, QueryStats::default());
        for (qi, q) in qs.iter().enumerate() {
            let want = brute_topk(&data, q, k);
            assert_eq!(
                matches[qi].iter().map(|m| m.pos).collect::<Vec<_>>(),
                want.iter().map(|m| m.1).collect::<Vec<_>>(),
                "q{qi}"
            );
        }
        assert_eq!(stats.broadcasts, 2);
        assert!((stats.broadcasts_per_query() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn batch_seeding_tightens_every_query() {
        let (data, _, config) = fixture(50);
        let qs = DatasetKind::Synthetic.queries(3, 64, 11);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let batch = QueryBatch::new(config.quantizer(), &qrefs, 2);
        let mut fetcher = SeriesFetcher::new(&data);
        batch_seed_positions(&[3, 7, 19], &mut fetcher, &batch).unwrap();
        for slot in batch.slots() {
            assert_eq!(slot.topk.len(), 2);
            assert!(slot.topk.threshold_sq().is_finite());
        }
        let (_, stats) = batch.finish(0, QueryStats::default());
        assert_eq!(stats.series_fetched, 3);
        assert_eq!(stats.series_requests, 9);
        for q in &stats.per_query {
            // At least k full distances fill the collector; the rest may
            // early-abandon against the tightened threshold.
            assert!(q.real_computed >= 2 && q.real_computed <= 3);
        }
    }

    #[test]
    fn batch_leaf_processing_respects_active_set() {
        let (data, words, config) = fixture(120);
        let entries: Vec<LeafEntry> = words
            .iter()
            .enumerate()
            .map(|(pos, w)| LeafEntry::new(*w, pos as u32))
            .collect();
        let qs = DatasetKind::Synthetic.queries(3, 64, 13);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let k = 4;
        let batch = QueryBatch::new(config.quantizer(), &qrefs, k);
        let mut locals = vec![QueryStats::default(); batch.len()];
        let mut fetcher = SeriesFetcher::new(&data);
        // Only queries 0 and 2 are active for this "leaf".
        // Stale scratch contents must not leak into the survivor set.
        let mut survivors = vec![1usize];
        batch_process_leaf_entries(
            &entries,
            &mut fetcher,
            &batch,
            &[0, 2],
            &mut survivors,
            &mut locals,
        )
        .unwrap();
        batch.merge_locals(&locals);
        let (matches, stats) = batch.finish(1, QueryStats::default());
        for qi in [0usize, 2] {
            let want = brute_topk(&data, qs.get(qi), k);
            assert_eq!(
                matches[qi].iter().map(|m| m.pos).collect::<Vec<_>>(),
                want.iter().map(|m| m.1).collect::<Vec<_>>(),
                "q{qi}"
            );
            assert_eq!(stats.per_query[qi].lb_entry_computed, 120);
        }
        assert!(matches[1].is_empty(), "inactive query untouched");
        assert_eq!(stats.per_query[1], QueryStats::default());
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
        let (data, words, config) = fixture(20);
        let batch = QueryBatch::new(config.quantizer(), &[], 3);
        assert!(batch.is_empty());
        let mut fetcher = SeriesFetcher::new(&data);
        batch_seed_positions(&[1, 2], &mut fetcher, &batch).unwrap();
        batch_seed_prefix(5, &mut fetcher, &batch).unwrap();
        batch_scan_sax_serial(&words, &mut fetcher, &batch).unwrap();
        let (matches, stats) = batch.finish(0, QueryStats::default());
        assert!(matches.is_empty());
        assert_eq!(stats.series_fetched, 0);
        assert!((stats.broadcasts_per_query() - 0.0).abs() < 1e-9);
    }
}
