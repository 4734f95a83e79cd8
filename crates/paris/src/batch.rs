//! ParIS's collect and verify loops, Euclidean only, which
//! [`exact`](crate::exact) schedules: the collect pass over a batch, the
//! order a query's candidates are verified in, and verify. Every query
//! keeps its own candidate list and verify reads, as it keeps its own seed
//! ([`seed`](crate::seed)).

use dsidx_isax::{CoarseTable, Word};
use dsidx_query::{QueryBatch, QueryStats, SeriesFetcher};
use dsidx_series::distance::euclidean_sq_bounded;
use dsidx_storage::{RawSource, StorageError};
use std::ops::Range;

/// One surviving candidate of the collect phase: a position one query
/// kept, with the bound that beat that query's threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BatchCandidate {
    /// Raw-data position of the candidate series.
    pub pos: u32,
    /// Index of the query (into the batch's slots) that kept it.
    pub query: u32,
    /// The lower bound that beat that query's threshold.
    pub lb: f32,
}

/// Lower-bound filter over one Fetch&Inc chunk of a collection's
/// `(word, position)` pairs, batched (ParIS collect): `words` and
/// `positions` are index-aligned (a flat tree's entry runs, in leaf order),
/// each word in `range` is bounded against every query, and each survivor
/// is appended to its own query's list in `lists` (index-aligned with the
/// batch's slots). Nothing is inserted, so the candidate set does not
/// depend on the order the pairs come in. Thresholds are sampled once per
/// chunk — the paper's granularity for refreshing the pruning threshold.
///
/// Bounds come in two stages ([`MindistTable::for_each_below`]): a query
/// with a finite positive threshold first rules out most words 32 at a
/// time behind a [`CoarseTable`] quantised for that threshold, once per
/// chunk, and only the rest pay the exact bound. A word ruled out has an
/// exact bound at or above the threshold, so the candidates, their bounds
/// and the counters are those of the exact stage alone.
pub(crate) fn batch_collect_candidates(
    words: &[Word],
    positions: &[u32],
    range: Range<usize>,
    batch: &QueryBatch<'_>,
    locals: &mut [QueryStats],
    lists: &mut [Vec<BatchCandidate>],
) {
    let (words, positions) = (&words[range.clone()], &positions[range]);
    let queries = batch.slots().iter().zip(locals).zip(lists);
    for (query, ((slot, local), list)) in (0u32..).zip(queries) {
        let limit = slot.topk.threshold_sq();
        let table = &slot.prep.table;
        let coarse = CoarseTable::new(table, limit);
        table.for_each_below(coarse.as_ref(), words, limit, |i, lb| {
            local.candidates += 1;
            list.push(BatchCandidate {
                pos: positions[i],
                query,
                lb,
            });
        });
    }
}

/// Puts one query's collected candidate list in the order ParIS verifies
/// it: a **best-bound-first head**, then the rest **in position order**.
///
/// The head holds the candidates with the list's `head` smallest bounds
/// (ties included), sorted ascending by `(bound, position)`: the series
/// most likely to be the answer, so fetching them first tightens the
/// threshold after a few reads, and the re-check in
/// [`batch_verify_candidates`] then drops most of what follows without
/// touching the source. What still survives has to be read whatever the
/// order, and in position order nearby survivors are one span read and a
/// sequential walk of an in-memory collection instead of a seek each. A
/// list no longer than the head is sorted outright; then, with one worker
/// and k = 1, no candidate whose bound exceeds the final distance is
/// fetched at all. A query keeps each position at most once, so the result
/// does not depend on the order the entries were scanned or appended in.
pub(crate) fn order_best_bound_first(list: &mut [BatchCandidate], head: usize) {
    let cutoff = match head {
        0 => f32::NEG_INFINITY,
        _ if list.len() <= head => f32::INFINITY,
        _ => {
            let mut bounds: Vec<f32> = list.iter().map(|c| c.lb).collect();
            *bounds.select_nth_unstable_by(head - 1, f32::total_cmp).1
        }
    };
    list.sort_unstable_by(|a, b| {
        let lead = |c: &BatchCandidate| c.lb <= cutoff;
        match (lead(a), lead(b)) {
            (true, true) => a.lb.total_cmp(&b.lb).then(a.pos.cmp(&b.pos)),
            (false, false) => a.pos.cmp(&b.pos),
            (a_leads, b_leads) => b_leads.cmp(&a_leads),
        }
    });
}

/// Verifies one Fetch&Inc chunk of ParIS's verify queue — the per-query
/// ordered lists, one query after another: each candidate's bound is
/// re-checked against its own query's *current* threshold, and a candidate
/// that survives the re-check pays one fetch and one early-abandoned
/// distance for that query alone.
///
/// The fetch decision and the abandon limit come from one threshold
/// sample; a stale sample is only looser, and the insert-time comparison
/// stays authoritative.
///
/// **Spans.** A survivor that has to be read opens a *span*: the source
/// is read once, from its position through the last of the chunk's
/// following candidates **of the same query** that ascend, leave at most
/// [`SeriesFetcher::span_gap`] series between each other, and are live
/// when the span opens (a dead candidate in between is read through with
/// the rest of the gap). A span never crosses into the next query's list.
/// That look ahead is a peek and counts nothing. Each later candidate of
/// the span still takes its own sample at its turn; only if that sample
/// keeps it does it count a fetch and verify from the span, so a candidate
/// gone stale since the peek is read but not counted. At one worker the
/// samples, and so every counter, are those of one fetch per candidate;
/// only the device's seeks, bytes and charged time differ. A resident or
/// unthrottled source has a gap of 0 and reads spans of one series; the
/// best-bound head is not in position order and mostly does too.
///
/// # Errors
/// Propagates raw-source I/O failures.
pub(crate) fn batch_verify_candidates(
    candidates: &[BatchCandidate],
    range: Range<usize>,
    fetcher: &mut SeriesFetcher<'_, impl RawSource>,
    batch: &QueryBatch<'_>,
    locals: &mut [QueryStats],
) -> Result<(), StorageError> {
    let chunk = &candidates[range];
    let (gap, len) = (fetcher.span_gap(), fetcher.series_len());
    let mut fetches = 0u64;
    // The last span read: the series it holds, the position of the first,
    // and the end (in `chunk`) of the candidates it was read for.
    let mut span: &[f32] = &[];
    let (mut span_first, mut covered) = (0, 0);
    for (at, c) in chunk.iter().enumerate() {
        let slot = &batch.slots()[c.query as usize];
        let limit = slot.topk.threshold_sq();
        if c.lb >= limit {
            continue;
        }
        if at >= covered {
            // Open a span: peek along this query's following candidates.
            let mut last = c.pos;
            covered = at + 1;
            for (i, next) in chunk.iter().enumerate().skip(at + 1) {
                if gap == 0
                    || next.query != c.query
                    || next.pos <= last
                    || (next.pos - last - 1) as usize > gap
                {
                    break;
                }
                if next.lb < slot.topk.threshold_sq() {
                    (last, covered) = (next.pos, i + 1);
                }
            }
            span = fetcher.fetch_span(c.pos as usize, (last - c.pos) as usize + 1)?;
            span_first = c.pos;
        }
        let offset = (c.pos - span_first) as usize * len;
        fetches += 1;
        if let Some(d) = euclidean_sq_bounded(slot.values, &span[offset..offset + len], limit) {
            slot.topk.insert(d, c.pos);
            locals[c.query as usize].real_computed += 1;
        }
    }
    batch.count_io(fetches, fetches);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::seed_query;
    use dsidx_query::SharedPruners;
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

    /// Warms every query's threshold over positions `0..n`, as the
    /// schedule's warm prefix does.
    fn warm(batch: &QueryBatch<'_>, data: &Dataset, n: usize) {
        let mut fetcher = SeriesFetcher::new(data);
        for slot in batch.slots() {
            let prefix = 0..u32::try_from(n).unwrap();
            seed_query(slot, prefix, &mut fetcher, &mut QueryStats::default()).unwrap();
        }
    }

    #[test]
    fn verify_candidate_skips_stale_bounds() {
        // One query's candidates, verified as a batch of one whose
        // threshold an earlier insert holds at 1.0.
        let (data, _, config) = fixture(10);
        let q = data.get(0).to_vec();
        let batch = QueryBatch::new(config.quantizer(), &[&q], 1, None);
        batch.slots()[0].topk.insert(1.0, 999);
        let mut fetcher = SeriesFetcher::new(&data);
        let mut locals = vec![QueryStats::default()];
        let candidate = |pos, lb| [BatchCandidate { pos, query: 0, lb }];
        // A bound at/above the BSF is pruned without touching the source.
        let bsf = batch.slots()[0].topk.threshold_sq();
        let stale = candidate(3, bsf);
        batch_verify_candidates(&stale, 0..1, &mut fetcher, &batch, &mut locals).unwrap();
        assert_eq!(locals[0].real_computed, 0);
        assert_eq!(batch.slots()[0].topk.threshold_sq(), bsf);
        // A bound below lets the real distance through (series 0 itself).
        let fresh = candidate(0, 0.0);
        batch_verify_candidates(&fresh, 0..1, &mut fetcher, &batch, &mut locals).unwrap();
        assert_eq!(locals[0].real_computed, 1);
        let (matches, stats) = batch.finish(0);
        assert_eq!((matches[0][0].pos, matches[0][0].dist_sq), (0, 0.0));
        assert_eq!(stats.series_fetched, 1, "only the fresh bound fetched");
    }

    #[test]
    fn batch_collect_verify_equals_brute_force() {
        let (data, words, config) = fixture(300);
        let qs = DatasetKind::Synthetic.queries(4, 64, 9);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let k = 5;
        let batch = QueryBatch::new(config.quantizer(), &qrefs, k, None);
        let mut fetcher = SeriesFetcher::new(&data);
        // Warm the thresholds like the ParIS schedule does, or the collect
        // phase materializes everything.
        warm(&batch, &data, 4 * k);
        let mut locals = vec![QueryStats::default(); batch.len()];
        let mut lists = vec![Vec::new(); batch.len()];
        for start in (0..words.len()).step_by(64) {
            let end = (start + 64).min(words.len());
            let positions = in_order(&words);
            batch_collect_candidates(
                &words,
                &positions,
                start..end,
                &batch,
                &mut locals,
                &mut lists,
            );
        }
        let candidates = lists.concat();
        for start in (0..candidates.len()).step_by(16) {
            let end = (start + 16).min(candidates.len());
            batch_verify_candidates(&candidates, start..end, &mut fetcher, &batch, &mut locals)
                .unwrap();
        }
        batch.merge_locals(&locals);
        let (matches, stats) = batch.finish(2);
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

    /// A [`RawSource`] that logs every position read and, when a hook is
    /// set, runs it inside each read — how a test forces "another worker
    /// tightened the threshold while this one was fetching". With a
    /// non-zero `gap` it also takes span reads, logging each as `(start,
    /// count)` before reading its series one by one.
    struct LoggingSource<'a> {
        data: &'a Dataset,
        reads: std::sync::Mutex<Vec<usize>>,
        spans: std::sync::Mutex<Vec<(usize, usize)>>,
        on_read: Option<&'a (dyn Fn() + Sync)>,
        gap: usize,
    }

    impl<'a> LoggingSource<'a> {
        fn new(data: &'a Dataset) -> Self {
            Self {
                data,
                reads: std::sync::Mutex::new(Vec::new()),
                spans: std::sync::Mutex::new(Vec::new()),
                on_read: None,
                gap: 0,
            }
        }

        fn reads(&self) -> Vec<usize> {
            self.reads.lock().unwrap().clone()
        }

        fn spans(&self) -> Vec<(usize, usize)> {
            self.spans.lock().unwrap().clone()
        }
    }

    impl RawSource for LoggingSource<'_> {
        fn count(&self) -> usize {
            self.data.len()
        }

        fn series_len(&self) -> usize {
            self.data.series_len()
        }

        fn read_into(&self, pos: usize, out: &mut [f32]) -> Result<(), StorageError> {
            self.reads.lock().unwrap().push(pos);
            if let Some(hook) = self.on_read {
                hook();
            }
            self.data.read_into(pos, out)
        }

        fn span_gap(&self) -> usize {
            self.gap
        }

        fn read_span(
            &self,
            start: usize,
            count: usize,
            out: &mut Vec<f32>,
        ) -> Result<(), StorageError> {
            self.spans.lock().unwrap().push((start, count));
            let len = self.data.series_len();
            out.resize(count * len, 0.0);
            for (pos, series) in (start..).zip(out.chunks_exact_mut(len)) {
                self.read_into(pos, series)?;
            }
            Ok(())
        }
    }

    /// The positions of words listed in position order.
    fn in_order(words: &[Word]) -> Vec<u32> {
        (0..words.len() as u32).collect()
    }

    /// Collects every `(word, position)` pair for `batch` in 64-entry
    /// chunks: one candidate list per query.
    fn collect_all(
        words: &[Word],
        positions: &[u32],
        batch: &QueryBatch<'_>,
    ) -> Vec<Vec<BatchCandidate>> {
        let mut locals = vec![QueryStats::default(); batch.len()];
        let mut lists = vec![Vec::new(); batch.len()];
        for start in (0..words.len()).step_by(64) {
            let end = (start + 64).min(words.len());
            batch_collect_candidates(words, positions, start..end, batch, &mut locals, &mut lists);
        }
        lists
    }

    /// Verifies `candidates` serially in `chunk`-sized claims; returns the
    /// positions fetched, in order.
    fn verify_all(
        candidates: &[BatchCandidate],
        chunk: usize,
        data: &Dataset,
        batch: &QueryBatch<'_>,
    ) -> Vec<usize> {
        let source = LoggingSource::new(data);
        let mut fetcher = SeriesFetcher::new(&source);
        let mut locals = vec![QueryStats::default(); batch.len()];
        for start in (0..candidates.len()).step_by(chunk) {
            let end = (start + chunk).min(candidates.len());
            batch_verify_candidates(candidates, start..end, &mut fetcher, batch, &mut locals)
                .unwrap();
        }
        source.reads()
    }

    #[test]
    fn best_bound_first_fetches_nothing_past_the_final_distance() {
        // One worker, k = 1: best-bound-first fetches exactly the
        // candidates whose bound beats the final distance — the fewest any
        // order can get away with — so never more than position order.
        let (data, words, config) = fixture(500);
        let qs = DatasetKind::Synthetic.queries(6, 64, 17);
        let (mut best_total, mut position_total) = (0, 0);
        for q in qs.iter() {
            let seeded = || {
                let batch = QueryBatch::new(config.quantizer(), &[q], 1, None);
                warm(&batch, &data, 3);
                batch
            };
            let by_position = seeded();
            let candidates = collect_all(&words, &in_order(&words), &by_position).remove(0);
            assert!(candidates.windows(2).all(|w| w[0].pos < w[1].pos));
            let position_reads = verify_all(&candidates, 16, &data, &by_position);

            let best_first = seeded();
            let mut ordered = candidates.clone();
            order_best_bound_first(&mut ordered, usize::MAX);
            assert!(ordered
                .windows(2)
                .all(|w| (w[0].lb, w[0].pos) < (w[1].lb, w[1].pos)));
            let best_reads = verify_all(&ordered, 4, &data, &best_first);

            let want = brute_topk(&data, q, 1)[0];
            for batch in [&by_position, &best_first] {
                assert_eq!(batch.slots()[0].topk.matches()[0].1, want.1);
            }
            let final_dist = best_first.slots()[0].topk.matches()[0].0;
            for &pos in &best_reads {
                let c = ordered.iter().find(|c| c.pos as usize == pos).unwrap();
                assert!(c.lb <= final_dist, "fetched {pos} with bound {}", c.lb);
            }
            let must_fetch = candidates.iter().filter(|c| c.lb <= final_dist).count();
            assert_eq!(best_reads.len(), must_fetch);
            assert!(best_reads.len() <= position_reads.len());
            best_total += best_reads.len();
            position_total += position_reads.len();
        }
        assert!(
            best_total < position_total,
            "{best_total} vs {position_total}"
        );
    }

    #[test]
    fn best_bound_order_does_not_depend_on_the_order_entries_are_scanned_in() {
        // ParIS collects from a flat tree's entries, which come in leaf
        // order: the same `(word, position)` pairs scanned in position
        // order and shuffled must be put in one verify order.
        let (data, words, config) = fixture(500);
        let n = words.len();
        // 7919 is prime and does not divide 500: a permutation of 0..n.
        let shuffled: Vec<u32> = (0..n).map(|i| (i * 7919 % n) as u32).collect();
        let shuffled_words: Vec<Word> = shuffled.iter().map(|&p| words[p as usize]).collect();
        let qs = DatasetKind::Synthetic.queries(4, 64, 37);
        for queries in [1usize, 4] {
            let qrefs: Vec<&[f32]> = qs.iter().take(queries).collect();
            for k in [1usize, 10] {
                let batch = QueryBatch::new(config.quantizer(), &qrefs, k, None);
                warm(&batch, &data, 4 * k);
                let by_position = collect_all(&words, &in_order(&words), &batch);
                let by_shuffle = collect_all(&shuffled_words, &shuffled, &batch);
                assert!(
                    by_position.concat().len() > 1,
                    "fixture keeps too few candidates"
                );
                assert_ne!(by_position, by_shuffle, "the two scans differ in order");
                for head in [0, 5, 64, usize::MAX] {
                    for (a, b) in by_position.iter().zip(&by_shuffle) {
                        let (mut a, mut b) = (a.clone(), b.clone());
                        order_best_bound_first(&mut a, head);
                        order_best_bound_first(&mut b, head);
                        assert_eq!(a, b, "{queries} queries, k={k}, head={head}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_finite_head_leads_and_the_rest_keeps_position_order() {
        let (data, words, config) = fixture(400);
        let qs = DatasetKind::Synthetic.queries(2, 64, 31);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let batch = QueryBatch::new(config.quantizer(), &qrefs, 1, None);
        warm(&batch, &data, 2);
        let head = 5;
        let mut queue = Vec::new();
        for collected in collect_all(&words, &in_order(&words), &batch) {
            assert!(collected.len() > 3 * head);
            let mut ordered = collected.clone();
            order_best_bound_first(&mut ordered, head);
            // Nothing lost, nothing invented.
            let mut sorted = ordered.clone();
            sorted.sort_by_key(|c| c.pos);
            assert_eq!(sorted, collected);
            // The head holds exactly the `head` best bounds (ties
            // included), bound-ordered; the tail keeps position order.
            let mut lbs: Vec<f32> = collected.iter().map(|c| c.lb).collect();
            lbs.sort_by(f32::total_cmp);
            let cutoff = lbs[head - 1];
            let lead_len = collected.iter().filter(|c| c.lb <= cutoff).count();
            let (lead, tail) = ordered.split_at(lead_len);
            assert!(lead.len() >= head && lead.len() <= 2 * head);
            assert!(lead.iter().all(|c| c.lb <= cutoff));
            assert!(lead
                .windows(2)
                .all(|w| (w[0].lb, w[0].pos) < (w[1].lb, w[1].pos)));
            assert!(tail.windows(2).all(|w| w[0].pos < w[1].pos));
            // A head of zero is plain position order.
            let mut flat = ordered.clone();
            order_best_bound_first(&mut flat, 0);
            assert_eq!(flat, collected);
            queue.extend(ordered);
        }
        // Whatever the head, verification stays exact.
        verify_all(&queue, 16, &data, &batch);
        let (matches, _) = batch.finish(2);
        for (qi, q) in qrefs.iter().enumerate() {
            assert_eq!(matches[qi][0].pos, brute_topk(&data, q, 1)[0].1, "q{qi}");
        }
    }

    /// What [`verify_spans`] saw: the spans read as `(start, count)`, the
    /// positions read, and the fetch and request counts.
    type SpanReads = (Vec<(usize, usize)>, Vec<usize>, (u64, u64));

    /// Verifies the per-query `lists`, joined, over a gap of 4 series in
    /// `chunk`-sized claims, with `tighten` run inside every read.
    fn verify_spans(
        lists: &[&[(u32, f32)]],
        chunk: usize,
        tighten: Option<&(dyn Fn(&SharedPruners) + Sync)>,
    ) -> SpanReads {
        let (data, _, config) = fixture(80);
        let queries: Vec<&[f32]> = [7, 20, 33].iter().map(|&p| data.get(p)).collect();
        let qrefs = &queries[..lists.len()];
        let candidates: Vec<BatchCandidate> = (0u32..)
            .zip(lists)
            .flat_map(|(query, list)| {
                list.iter()
                    .map(move |&(pos, lb)| BatchCandidate { pos, query, lb })
            })
            .collect();
        let shared = SharedPruners::new(qrefs.len(), 1);
        let batch = QueryBatch::new(config.quantizer(), qrefs, 1, Some(shared.view(0)));
        let hook = || tighten.map_or((), |t| t(&shared));
        let mut source = LoggingSource::new(&data);
        source.gap = 4;
        source.on_read = Some(&hook);
        let mut fetcher = SeriesFetcher::new(&source);
        let mut locals = vec![QueryStats::default(); qrefs.len()];
        for start in (0..candidates.len()).step_by(chunk) {
            let end = (start + chunk).min(candidates.len());
            batch_verify_candidates(&candidates, start..end, &mut fetcher, &batch, &mut locals)
                .unwrap();
        }
        let (_, stats) = batch.finish(0);
        assert_eq!(stats.series_fetched, stats.series_requests);
        (
            source.spans(),
            source.reads(),
            (stats.series_fetched, stats.series_requests),
        )
    }

    #[test]
    fn nearby_survivors_are_read_as_one_span_and_counted_at_their_turn() {
        // Query 0 keeps 3, 5, 7 (dead: its bound can never beat a
        // threshold), 10, 12 (dead) and 60; query 1 keeps 5. With a gap of
        // 4 series, 3..=10 is one span (5 -> 10 leaves exactly 4 series
        // between, the dead 7 among them; the dead 12 does not stretch it),
        // 60 stands alone, and so does query 1's 5: a span never reaches
        // into another query's list.
        let inf = f32::INFINITY;
        let q0: &[(u32, f32)] = &[
            (3, 0.1),
            (5, 0.2),
            (7, inf),
            (10, 0.3),
            (12, inf),
            (60, 0.4),
        ];
        let q1: &[(u32, f32)] = &[(5, 0.2)];
        let (spans, reads, counts) = verify_spans(&[q0, q1], 7, None);
        assert_eq!(spans, [(3, 8), (60, 1), (5, 1)]);
        assert_eq!(reads, [3, 4, 5, 6, 7, 8, 9, 10, 60, 5]);
        assert_eq!(
            counts,
            (5, 5),
            "one fetch and one request per live candidate"
        );

        // Spans stay inside a claimed chunk.
        let (spans, _, counts) = verify_spans(&[q0, q1], 3, None);
        assert_eq!(spans, [(3, 3), (10, 1), (60, 1), (5, 1)]);
        assert_eq!(counts, (5, 5));

        // Both thresholds collapse while the span is read: 5 and 10 were
        // read but are stale at their turn, so only 3 counts, and neither
        // 60 nor query 1's 5 is ever read.
        let collapse = |shared: &SharedPruners| {
            for topk in shared.topks() {
                dsidx_sync::Pruner::insert(topk.as_ref(), 0.0, 39);
            }
        };
        let (spans, reads, counts) = verify_spans(&[q0, q1], 7, Some(&collapse));
        assert_eq!(spans, [(3, 8)]);
        assert_eq!(reads, [3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(counts, (1, 1));
    }

    #[test]
    fn a_span_never_crosses_into_the_next_querys_list() {
        // Query 0's list ends at 5 and query 1's starts at 7, within the
        // gap of 4 series: the joined queue ascends across the join, yet
        // each query opens its own span, in one chunk and in chunks that
        // cut the lists anywhere, and each read counts for its own query.
        let q0: &[(u32, f32)] = &[(3, 0.1), (5, 0.2)];
        let q1: &[(u32, f32)] = &[(7, 0.1), (9, 0.2)];
        for chunk in [1, 2, 3, 4] {
            let (spans, _, counts) = verify_spans(&[q0, q1], chunk, None);
            let want: &[(usize, usize)] = match chunk {
                1 => &[(3, 1), (5, 1), (7, 1), (9, 1)],
                3 => &[(3, 3), (7, 1), (9, 1)],
                _ => &[(3, 3), (7, 3)],
            };
            assert_eq!(spans, want, "chunk {chunk}");
            assert_eq!(counts, (4, 4), "chunk {chunk}");
        }
        // A third query whose list repeats query 1's positions reads them
        // again, for itself.
        let (spans, _, counts) = verify_spans(&[q0, q1, q1], 8, None);
        assert_eq!(spans, [(3, 3), (7, 3), (7, 3)]);
        assert_eq!(counts, (6, 6));
    }

    /// Each query's candidates among `words[skip..]` by the scalar lookup:
    /// the reference the collect kernel must reproduce.
    fn scalar_candidates(
        words: &[Word],
        skip: usize,
        batch: &QueryBatch<'_>,
    ) -> Vec<Vec<BatchCandidate>> {
        (0u32..)
            .zip(batch.slots())
            .map(|(query, slot)| {
                (0u32..)
                    .zip(words)
                    .skip(skip)
                    .filter_map(|(pos, word)| {
                        let lb = slot.prep.table.lookup_scalar(word);
                        (lb < slot.topk.threshold_sq()).then_some(BatchCandidate { pos, query, lb })
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn collect_bounds_match_the_scalar_reference_for_every_query() {
        // The batched kernel is bit-identical to the scalar lookup with
        // SIMD on or off, across block boundaries and a short last block.
        let (data, words, config) = fixture(256 + 37);
        let qs = DatasetKind::Synthetic.queries(3, 64, 29);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let batch = QueryBatch::new(config.quantizer(), &qrefs, 1, None);
        warm(&batch, &data, 2);
        let mut locals = vec![QueryStats::default(); batch.len()];
        let mut got = vec![Vec::new(); batch.len()];
        let positions = in_order(&words);
        batch_collect_candidates(
            &words,
            &positions,
            5..words.len(),
            &batch,
            &mut locals,
            &mut got,
        );
        let want = scalar_candidates(&words, 5, &batch);
        assert!(!want.concat().is_empty());
        assert_eq!(got, want);
        for (local, kept) in locals.iter().zip(&want) {
            assert_eq!(local.candidates, kept.len() as u64);
        }
    }

    #[test]
    fn collect_behind_the_coarse_stage_keeps_exactly_the_exact_candidates() {
        // At 16 segments every query with a finite threshold bounds its
        // chunk behind the coarse pre-filter; the candidates, their bounds
        // and the counters are still the exact stage's, across blocks of
        // the kernel and a short last one.
        let config = TreeConfig::new(64, 16, 16).unwrap();
        let data = DatasetKind::Synthetic.generate(3 * 256 + 45, 64, 8);
        let words: Vec<Word> = data.iter().map(|s| config.quantizer().word(s)).collect();
        let positions = in_order(&words);
        let qs = DatasetKind::Synthetic.queries(4, 64, 41);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        for seeds in [1usize, 4, 64] {
            let batch = QueryBatch::new(config.quantizer(), &qrefs, 1, None);
            warm(&batch, &data, seeds);
            let mut locals = vec![QueryStats::default(); batch.len()];
            let mut got = vec![Vec::new(); batch.len()];
            batch_collect_candidates(
                &words,
                &positions,
                3..words.len(),
                &batch,
                &mut locals,
                &mut got,
            );
            let want = scalar_candidates(&words, 3, &batch);
            let kept = want.concat().len();
            assert!(kept > 0 && kept < words.len() * qrefs.len());
            assert_eq!(got, want, "seeds={seeds}");
            for (local, kept) in locals.iter().zip(&want) {
                assert_eq!(local.candidates, kept.len() as u64);
            }
        }
    }
}
