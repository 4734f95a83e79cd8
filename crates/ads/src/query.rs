//! SIMS-style serial exact query answering.
//!
//! All heavy lifting comes from the shared kernel (`dsidx-query`): query
//! preparation, approximate-descent seeding, and the interleaved
//! lower-bound/verify scan. ADS+ contributes only the scheduling — one
//! thread, position order. One entry point, [`exact`] (Euclidean, a batch
//! of queries in one pass; a single query is a batch of one); the
//! approximate answer is the shared best-leaf visit,
//! [`approx_best_leaf`](dsidx_query::approx_best_leaf), over
//! [`AdsIndex::tree`].

use crate::build::AdsIndex;
use dsidx_obs::phase::{Phase, PhaseClock};
use dsidx_query::{
    approx_leaf_flat, batch_scan_sax_serial, batch_seed_positions, BatchStats, QueryBatch,
    QueryStats, SeriesFetcher, ShardView,
};
use dsidx_series::Match;
use dsidx_storage::{RawSource, StorageError};

/// Exact Euclidean k-NN for a *batch* of queries in one serial pass: every
/// query is seeded from the union of the batch's approximate leaves (each
/// series fetched once, checked against all B queries), then a single
/// SAX-array scan lower-bounds each word against every query and fetches a
/// surviving position at most once.
///
/// Each answer is the up-to-`k` nearest series sorted ascending by
/// `(distance, position)` — fewer than `k` when the collection is smaller,
/// empty for an empty index — and does not depend on what else is in the
/// batch; the data is walked once instead of B times. The serial engine
/// issues no pool broadcasts, so [`BatchStats::broadcasts`] is 0.
///
/// With `shard` set, every kernel loop feeds the shared per-query
/// collectors (recording positions rebased to global), so other shards'
/// finds tighten this scan's thresholds mid-flight. The returned matches
/// then reflect the *global* gather so far; the scatter-gather coordinator
/// reads the authoritative answer from the
/// [`SharedPruners`](dsidx_query::SharedPruners) once every shard joined,
/// and consumes this return value for its stats only.
///
/// # Errors
/// Propagates raw-source I/O failures.
///
/// # Panics
/// Panics if any query length differs from the configured series length or
/// `k == 0`.
pub fn exact(
    ads: &AdsIndex,
    source: &impl RawSource,
    queries: &[&[f32]],
    k: usize,
    shard: Option<ShardView<'_>>,
) -> Result<(Vec<Vec<Match>>, BatchStats), StorageError> {
    let (tree, config) = (&ads.tree, &ads.config);
    for q in queries {
        assert_eq!(q.len(), config.series_len(), "query length mismatch");
    }
    let mut clock = PhaseClock::start();
    let batch = QueryBatch::for_shard(config.quantizer(), queries, k, shard);
    let prepare_nanos = clock.lap();
    if tree.entry_count() == 0 || batch.is_empty() {
        return Ok(batch.finish(0, QueryStats::default()));
    }
    batch.phases().record(Phase::Prepare, prepare_nanos);
    let mut fetcher = SeriesFetcher::new(source);

    // Step 1: approximate answers — the union of every query's own leaf,
    // deduplicated, cross-seeded into every pruner.
    let mut positions: Vec<u32> = Vec::new();
    for slot in batch.slots() {
        let leaf =
            approx_leaf_flat(tree, &slot.prep.word).expect("non-empty index has a non-empty leaf");
        positions.extend_from_slice(tree.leaf_positions(tree.node(leaf)));
    }
    positions.sort_unstable();
    positions.dedup();
    batch_seed_positions(&positions, &mut fetcher, &batch)
        .map_err(|e| e.in_phase(Phase::Seed.name()))?;
    clock.lap_into(batch.phases(), Phase::Seed);

    // Step 2: SIMS — one serial scan of the SAX array for the whole batch.
    batch_scan_sax_serial(ads.sax.words(), &mut fetcher, &batch)
        .map_err(|e| e.in_phase(Phase::SaxScan.name()))?;
    clock.lap_into(batch.phases(), Phase::SaxScan);
    Ok(batch.finish(0, QueryStats::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_from_dataset, build_from_file};
    use dsidx_query::{approx_best_leaf, Measure};
    use dsidx_series::gen::DatasetKind;
    use dsidx_storage::{write_dataset, DatasetFile, Device};
    use dsidx_tree::TreeConfig;
    use dsidx_ucr::brute_force;
    use std::sync::Arc;

    fn config() -> TreeConfig {
        TreeConfig::new(64, 8, 16).unwrap()
    }

    /// The approximate answer through the index's tree.
    fn approx(
        ads: &AdsIndex,
        source: &impl RawSource,
        q: &[f32],
        measure: Measure,
        k: usize,
    ) -> Result<(Vec<Match>, QueryStats), StorageError> {
        approx_best_leaf(&ads.tree, &ads.config, source, q, measure, k)
    }

    /// One query through [`exact`] as a batch of one.
    fn knn(
        ads: &AdsIndex,
        source: &impl RawSource,
        q: &[f32],
        k: usize,
    ) -> (Vec<Match>, QueryStats) {
        let (mut matches, stats) = exact(ads, source, &[q], k, None).unwrap();
        (matches.pop().expect("batch of one"), stats.into_single())
    }

    /// The `k = 1` case of [`knn`]; `None` for an empty index.
    fn nn(ads: &AdsIndex, source: &impl RawSource, q: &[f32]) -> Option<(Match, QueryStats)> {
        let (matches, stats) = knn(ads, source, q, 1);
        matches.first().map(|&m| (m, stats))
    }

    #[test]
    fn exact_on_all_dataset_kinds() {
        for kind in DatasetKind::ALL {
            let data = kind.generate(500, 64, 23);
            let (ads, _) = build_from_dataset(&data, &config());
            let queries = kind.queries(10, 64, 23);
            for q in queries.iter() {
                let (got, stats) = nn(&ads, &data, q).unwrap();
                let want = brute_force(&data, q).unwrap();
                assert_eq!(got.pos, want.pos, "{}", kind.name());
                assert!((got.dist_sq - want.dist_sq).abs() <= want.dist_sq * 1e-4 + 1e-4);
                assert!(stats.lb_computed == 500);
                assert!(stats.candidates <= 500);
            }
        }
    }

    #[test]
    fn pruning_actually_happens_on_clusterable_data() {
        let data = dsidx_series::gen::sines(800, 64, 3);
        let (ads, _) = build_from_dataset(&data, &config());
        let queries = dsidx_series::gen::sines(5, 64, 999);
        let mut pruned_everything = true;
        for q in queries.iter() {
            let (_, stats) = nn(&ads, &data, q).unwrap();
            if stats.candidates > 400 {
                pruned_everything = false;
            }
        }
        assert!(
            pruned_everything,
            "lower bounds should prune most sines candidates"
        );
    }

    #[test]
    fn knn_equals_brute_force_topk() {
        let data = DatasetKind::Synthetic.generate(400, 64, 13);
        let (ads, _) = build_from_dataset(&data, &config());
        let queries = DatasetKind::Synthetic.queries(4, 64, 13);
        for q in queries.iter() {
            for k in [1usize, 5, 25, 400, 500] {
                let (got, stats) = knn(&ads, &data, q, k);
                let want = dsidx_ucr::brute_force_knn(&data, q, k);
                assert_eq!(got.len(), want.len(), "k={k}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.pos, w.pos, "k={k}");
                    assert!((g.dist_sq - w.dist_sq).abs() <= w.dist_sq * 1e-4 + 1e-4);
                }
                assert_eq!(stats.lb_computed, 400);
            }
        }
    }

    #[test]
    fn knn_at_k1_matches_exact_nn() {
        let data = DatasetKind::Sald.generate(300, 64, 7);
        let (ads, _) = build_from_dataset(&data, &config());
        let queries = DatasetKind::Sald.queries(5, 64, 7);
        for q in queries.iter() {
            let want = brute_force(&data, q).unwrap();
            let (got, _) = knn(&ads, &data, q, 1);
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].pos, want.pos);
        }
    }

    #[test]
    fn knn_batch_equals_sequential_knn() {
        let data = DatasetKind::Synthetic.generate(500, 64, 19);
        let (ads, _) = build_from_dataset(&data, &config());
        let qs = DatasetKind::Synthetic.queries(8, 64, 19);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        for k in [1usize, 6, 30] {
            let (batched, stats) = exact(&ads, &data, &qrefs, k, None).unwrap();
            assert_eq!(stats.broadcasts, 0, "serial engine broadcasts nothing");
            assert_eq!(stats.per_query.len(), 8);
            for (qi, q) in qs.iter().enumerate() {
                let (single, _) = knn(&ads, &data, q, k);
                assert_eq!(
                    batched[qi].iter().map(|m| m.pos).collect::<Vec<_>>(),
                    single.iter().map(|m| m.pos).collect::<Vec<_>>(),
                    "q{qi} k={k}"
                );
                assert_eq!(stats.per_query[qi].lb_computed, 500);
            }
            // The scan fetched each position at most once for the batch.
            assert!(stats.series_fetched <= 500 + 8 * 16);
            assert!(stats.series_requests >= stats.series_fetched);
        }
    }

    #[test]
    fn knn_batch_of_zero_queries_is_empty() {
        let data = DatasetKind::Synthetic.generate(50, 64, 3);
        let (ads, _) = build_from_dataset(&data, &config());
        let (matches, stats) = exact(&ads, &data, &[], 5, None).unwrap();
        assert!(matches.is_empty());
        assert_eq!(stats.broadcasts, 0);
        assert!(stats.per_query.is_empty());
    }

    #[test]
    fn approx_knn_never_beats_exact() {
        let data = DatasetKind::Synthetic.generate(500, 64, 41);
        let (ads, _) = build_from_dataset(&data, &config());
        let queries = DatasetKind::Synthetic.queries(4, 64, 41);
        for q in queries.iter() {
            for k in [1usize, 5, 12] {
                let exact = dsidx_ucr::brute_force_knn(&data, q, k);
                let (approx, stats) = approx(&ads, &data, q, Measure::Euclidean, k).unwrap();
                assert!(!approx.is_empty() && approx.len() <= k);
                for (a, e) in approx.iter().zip(&exact) {
                    assert!(a.dist_sq >= e.dist_sq - e.dist_sq * 1e-6, "k={k}");
                }
                // No scan: the SAX-array counter stays zero.
                assert_eq!(stats.lb_computed, 0);
                assert!(stats.real_computed >= approx.len() as u64);
                let exact_dtw = dsidx_ucr::brute_force_dtw_knn(&data, q, 4, k);
                let (approx_dtw, _) =
                    self::approx(&ads, &data, q, Measure::Dtw { band: 4 }, k).unwrap();
                for (a, e) in approx_dtw.iter().zip(&exact_dtw) {
                    assert!(a.dist_sq >= e.dist_sq - e.dist_sq * 1e-6, "dtw k={k}");
                }
            }
        }
    }

    #[test]
    fn approx_knn_finds_indexed_series_and_handles_empty() {
        let data = DatasetKind::Sald.generate(200, 64, 13);
        let (ads, _) = build_from_dataset(&data, &config());
        for pos in [0usize, 77, 199] {
            let (m, _) = approx(&ads, &data, data.get(pos), Measure::Euclidean, 1).unwrap();
            assert_eq!(m[0].pos as usize, pos);
            assert_eq!(m[0].dist_sq, 0.0);
        }
        let empty = dsidx_series::Dataset::new(64).unwrap();
        let (ads, _) = build_from_dataset(&empty, &config());
        let (m, stats) = approx(&ads, &empty, &vec![0.0; 64], Measure::Euclidean, 3).unwrap();
        assert!(m.is_empty());
        assert_eq!(stats, QueryStats::default());
    }

    #[test]
    fn knn_on_empty_index_is_empty() {
        let data = dsidx_series::Dataset::new(64).unwrap();
        let (ads, _) = build_from_dataset(&data, &config());
        let (got, stats) = knn(&ads, &data, &vec![0.0; 64], 3);
        assert!(got.is_empty());
        assert_eq!(stats, QueryStats::default());
    }

    #[test]
    fn on_disk_query_matches_in_memory() {
        let dir = std::env::temp_dir().join(format!("dsidx-adsq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.dsidx");
        let data = DatasetKind::Seismic.generate(300, 64, 8);
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let file = DatasetFile::open(&path, Arc::new(Device::unthrottled())).unwrap();
        let (ads, _) = build_from_file(&file, &config(), 64).unwrap();
        let queries = DatasetKind::Seismic.queries(5, 64, 8);
        for q in queries.iter() {
            let (mem, _) = nn(&ads, &data, q).unwrap();
            let (disk, _) = nn(&ads, &file, q).unwrap();
            assert_eq!(mem.pos, disk.pos);
            assert!((mem.dist_sq - disk.dist_sq).abs() <= mem.dist_sq * 1e-4 + 1e-4);
        }
    }

    #[test]
    fn empty_index_returns_none() {
        let data = dsidx_series::Dataset::new(64).unwrap();
        let (ads, _) = build_from_dataset(&data, &config());
        assert!(nn(&ads, &data, &vec![0.0; 64]).is_none());
    }

    #[test]
    fn query_for_indexed_series_returns_it() {
        let data = DatasetKind::Synthetic.generate(200, 64, 4);
        let (ads, _) = build_from_dataset(&data, &config());
        for pos in [0usize, 99, 199] {
            let (m, _) = nn(&ads, &data, data.get(pos)).unwrap();
            assert_eq!(m.pos as usize, pos);
            assert_eq!(m.dist_sq, 0.0);
        }
    }

    #[test]
    fn stats_account_seeding_and_scan_uniformly() {
        // The unified QueryStats semantics: real_computed includes the
        // seeding pass (every leaf entry pays a full distance) plus the
        // non-abandoned scan survivors; tree-only counters stay zero for
        // this scan-based engine.
        let data = DatasetKind::Synthetic.generate(150, 64, 17);
        let (ads, _) = build_from_dataset(&data, &config());
        let q = DatasetKind::Synthetic.queries(1, 64, 17);
        let (_, stats) = nn(&ads, &data, q.get(0)).unwrap();
        assert_eq!(stats.lb_computed, 150);
        assert!(stats.real_computed >= 1, "seeding pays at least one real");
        assert_eq!(stats.nodes_pruned, 0);
        assert_eq!(stats.leaves_enqueued, 0);
        assert_eq!(stats.lb_entry_computed, 0);
        assert_eq!(stats.lb_total(), 150);
    }
}
