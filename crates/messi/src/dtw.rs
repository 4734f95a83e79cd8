//! DTW exact query answering over the MESSI index — the paper's "current
//! work" extension (§V): "no changes are required in the index structure:
//! we can index a dataset once, and then use this index to answer both
//! Euclidean and DTW similarity search queries."
//!
//! The pruning cascade per candidate, five stages, each an exact lower
//! bound of the banded DTW distance: the iSAX bound of the query
//! envelope's PAA at the node, the same bound at the leaf entry, then —
//! on the raw series, all inside
//! [`dtw_cascade`](dsidx_series::distance::dtw::dtw_cascade) — LB_Keogh
//! against the query's envelope, LB_Keogh of the query against the
//! candidate's envelope, and a banded DTW that abandons on what both
//! bounds say is still unpaid. The counters tell them apart:
//! `lb_keogh_pruned` covers both LB_Keogh directions
//! (`lb_keogh_rev_pruned` is the reversed one's share) and `dtw_cells`
//! says how far the DTWs that did start got.
//!
//! The schedule is the Euclidean one ([`crate::query`]: claim and help),
//! entered through the same [`exact`](crate::query::exact) with
//! `Measure::Dtw { band }`, which prepares each query as a
//! [`DtwPrepared`](dsidx_query::DtwPrepared): interval tables instead of
//! point tables, the cascade at the leaves, and `Phase::DtwCascade` as the
//! phase the broadcast is booked under. This module holds no code of its
//! own, only the DTW tests of that schedule. Like the ED path the
//! schedule is generic over
//! [`RawSource`](dsidx_storage::RawSource): the cascade's first stage
//! prunes from the leaf summaries alone, so an on-disk source pays
//! positioned reads only for entries that survive the iSAX bound — this is
//! what gives exact DTW an on-disk schedule. Mid-query read failures
//! surface as `Err`.

#[cfg(test)]
mod tests {
    use crate::build::build;
    use crate::config::MessiConfig;
    use crate::query::exact;
    use dsidx_query::{approx_best_leaf, BatchStats, DtwPrepared, Measure, QueryStats};
    use dsidx_series::distance::dtw::dtw_sq;
    use dsidx_series::gen::DatasetKind;
    use dsidx_series::{Dataset, Match};
    use dsidx_storage::FlakySource;
    use dsidx_storage::{RawSource, StorageError};
    use dsidx_tree::FlatTree;
    use dsidx_tree::TreeConfig;
    use dsidx_ucr::dtw::brute_force_dtw;

    fn cfg(threads: usize) -> MessiConfig {
        MessiConfig::new(TreeConfig::new(64, 8, 16).unwrap(), threads)
    }

    /// [`exact`] under banded DTW for a batch, on `threads` workers.
    fn knn_dtw_batch(
        messi: &FlatTree,
        source: &impl RawSource,
        queries: &[&[f32]],
        band: usize,
        k: usize,
        threads: usize,
    ) -> Result<(Vec<Vec<Match>>, BatchStats), StorageError> {
        let measure = Measure::Dtw { band };
        exact(messi, source, queries, measure, k, threads, None)
    }

    /// One query through [`exact`] as a batch of one.
    fn knn_dtw(
        messi: &FlatTree,
        source: &impl RawSource,
        q: &[f32],
        band: usize,
        k: usize,
        threads: usize,
    ) -> Result<(Vec<Match>, QueryStats), StorageError> {
        let (mut matches, stats) = knn_dtw_batch(messi, source, &[q], band, k, threads)?;
        Ok((matches.pop().expect("batch of one"), stats.into_single()))
    }

    /// The `k = 1` case of [`knn_dtw`]; `None` for an empty index.
    fn nn_dtw(
        messi: &FlatTree,
        source: &impl RawSource,
        q: &[f32],
        band: usize,
        threads: usize,
    ) -> Result<Option<(Match, QueryStats)>, StorageError> {
        let (matches, stats) = knn_dtw(messi, source, q, band, 1, threads)?;
        Ok(matches.first().map(|&m| (m, stats)))
    }

    /// Euclidean 1-NN through the same entry point.
    fn nn_ed(messi: &FlatTree, data: &Dataset, q: &[f32], threads: usize) -> Match {
        let (matches, _) = exact(messi, data, &[q], Measure::Euclidean, 1, threads, None).unwrap();
        matches[0][0]
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
    fn dtw_exact_on_all_dataset_kinds() {
        for kind in DatasetKind::ALL {
            let data = kind.generate(300, 64, 61);
            let (messi, _) = build(&data, &cfg(4));
            let queries = kind.queries(4, 64, 61);
            for band in [0usize, 3, 6] {
                for q in queries.iter() {
                    let want = brute_force_dtw(&data, q, band).unwrap();
                    let (got, _) = nn_dtw(&messi, &data, q, band, 4).unwrap().unwrap();
                    assert_eq!(got.pos, want.pos, "{} band={band}", kind.name());
                    assert!((got.dist_sq - want.dist_sq).abs() <= want.dist_sq * 1e-4 + 1e-4);
                }
            }
        }
    }

    #[test]
    fn knn_dtw_equals_brute_force_topk() {
        let data = DatasetKind::Synthetic.generate(250, 64, 83);
        let (messi, _) = build(&data, &cfg(4));
        let queries = DatasetKind::Synthetic.queries(3, 64, 83);
        for q in queries.iter() {
            for k in [1usize, 6, 30, 300] {
                let want = dsidx_ucr::brute_force_dtw_knn(&data, q, 4, k);
                for threads in [1usize, 4] {
                    let (got, stats) = knn_dtw(&messi, &data, q, 4, k, threads).unwrap();
                    assert_eq!(got.len(), want.len(), "k={k} x{threads}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.pos, w.pos, "k={k} x{threads}");
                        assert!((g.dist_sq - w.dist_sq).abs() <= w.dist_sq * 1e-4 + 1e-4);
                    }
                    assert!(stats.real_computed >= 1);
                }
            }
        }
    }

    #[test]
    fn knn_dtw_at_k1_matches_nn_dtw() {
        let data = DatasetKind::Seismic.generate(200, 64, 29);
        let (messi, _) = build(&data, &cfg(3));
        let queries = DatasetKind::Seismic.queries(4, 64, 29);
        for q in queries.iter() {
            let (nn, _) = nn_dtw(&messi, &data, q, 5, 3).unwrap().unwrap();
            let (knn, _) = knn_dtw(&messi, &data, q, 5, 1, 3).unwrap();
            assert_eq!(knn.len(), 1);
            assert_eq!(knn[0].pos, nn.pos);
        }
    }

    #[test]
    fn knn_dtw_batch_equals_sequential_knn_dtw() {
        let data = DatasetKind::Synthetic.generate(300, 64, 91);
        let (messi, _) = build(&data, &cfg(4));
        let qs = DatasetKind::Synthetic.queries(5, 64, 91);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        for band in [0usize, 4] {
            for k in [1usize, 6, 20] {
                for threads in [1usize, 4] {
                    let (batched, stats) =
                        knn_dtw_batch(&messi, &data, &qrefs, band, k, threads).unwrap();
                    assert_eq!(stats.broadcasts, 1, "one broadcast for the whole DTW batch");
                    assert!(stats.broadcasts_per_query() < 1.0);
                    for (qi, q) in qs.iter().enumerate() {
                        let (single, _) = knn_dtw(&messi, &data, q, band, k, threads).unwrap();
                        assert_eq!(
                            batched[qi].iter().map(|m| m.pos).collect::<Vec<_>>(),
                            single.iter().map(|m| m.pos).collect::<Vec<_>>(),
                            "q{qi} band={band} k={k} x{threads}"
                        );
                    }
                    // Every query is traversed on its own, and each query's
                    // leaf funnel is exact.
                    for (qi, q) in stats.per_query.iter().enumerate() {
                        assert!(q.leaves_enqueued > 0, "q{qi} band={band} k={k} x{threads}");
                        assert_funnel_exact(q);
                    }
                    assert_eq!(stats.shared.leaves_enqueued, 0);
                    // The same batch over a source that is not resident
                    // runs the same schedule: same answers, per-query
                    // funnels, one read per request.
                    let file = FlakySource::new(data.clone(), u64::MAX);
                    let (on_file, stats) =
                        knn_dtw_batch(&messi, &file, &qrefs, band, k, threads).unwrap();
                    assert_eq!(on_file, batched, "band={band} k={k} x{threads}");
                    assert_eq!(stats.broadcasts, 1);
                    stats.per_query.iter().for_each(assert_funnel_exact);
                    assert_eq!(stats.shared.leaves_enqueued, 0);
                    assert_eq!(stats.series_fetched, stats.series_requests);
                }
            }
        }
    }

    #[test]
    fn knn_dtw_batch_equals_brute_force() {
        let data = DatasetKind::Sald.generate(200, 64, 47);
        let (messi, _) = build(&data, &cfg(3));
        let qs = DatasetKind::Sald.queries(4, 64, 47);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let (batched, _) = knn_dtw_batch(&messi, &data, &qrefs, 5, 7, 3).unwrap();
        for (qi, q) in qs.iter().enumerate() {
            let want = dsidx_ucr::brute_force_dtw_knn(&data, q, 5, 7);
            assert_eq!(
                batched[qi].iter().map(|m| m.pos).collect::<Vec<_>>(),
                want.iter().map(|m| m.pos).collect::<Vec<_>>(),
                "q{qi}"
            );
        }
    }

    #[test]
    fn knn_dtw_batch_deterministic_across_thread_counts() {
        let data = DatasetKind::Seismic.generate(250, 64, 61);
        let (messi, _) = build(&data, &cfg(4));
        let qs = DatasetKind::Seismic.queries(4, 64, 61);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let (first, _) = knn_dtw_batch(&messi, &data, &qrefs, 4, 6, 1).unwrap();
        for threads in [2usize, 3, 8] {
            let (got, _) = knn_dtw_batch(&messi, &data, &qrefs, 4, 6, threads).unwrap();
            assert_eq!(got, first, "threads={threads}");
        }
    }

    #[test]
    fn knn_dtw_deterministic_across_thread_counts() {
        let data = DatasetKind::Seismic.generate(250, 64, 67);
        let (messi, _) = build(&data, &cfg(4));
        let qs = DatasetKind::Seismic.queries(3, 64, 67);
        for q in qs.iter() {
            let (first, _) = knn_dtw(&messi, &data, q, 4, 6, 1).unwrap();
            for threads in [2usize, 3, 8] {
                let (got, _) = knn_dtw(&messi, &data, q, 4, 6, threads).unwrap();
                assert_eq!(got, first, "threads={threads}");
            }
        }
    }

    #[test]
    fn knn_dtw_batch_on_empty_index_or_batch_is_empty() {
        let empty = Dataset::new(64).unwrap();
        let (messi, _) = build(&empty, &cfg(2));
        let q = vec![0.0f32; 64];
        let (got, stats) = knn_dtw_batch(&messi, &empty, &[&q], 3, 2, 2).unwrap();
        assert_eq!(got, vec![Vec::new()]);
        assert_eq!(stats.broadcasts, 0);
        let data = DatasetKind::Synthetic.generate(50, 64, 9);
        let (messi, _) = build(&data, &cfg(2));
        let (got, _) = knn_dtw_batch(&messi, &data, &[], 3, 2, 2).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn approx_knn_dtw_never_beats_exact() {
        let data = DatasetKind::Synthetic.generate(400, 64, 33);
        let (messi, _) = build(&data, &cfg(3));
        let queries = DatasetKind::Synthetic.queries(4, 64, 33);
        for q in queries.iter() {
            for k in [1usize, 5] {
                let exact = dsidx_ucr::brute_force_dtw_knn(&data, q, 4, k);
                let prep = DtwPrepared::new(messi.config().quantizer(), q, 4);
                let (approx, stats) = approx_best_leaf(&messi, &data, q, &prep, k).unwrap();
                assert!(!approx.is_empty() && approx.len() <= k);
                for (a, e) in approx.iter().zip(&exact) {
                    assert!(a.dist_sq >= e.dist_sq - e.dist_sq * 1e-6);
                    // And each reported distance is the true DTW distance.
                    let true_d = dtw_sq(q, data.get(a.pos as usize), 4);
                    assert!((a.dist_sq - true_d).abs() <= true_d * 1e-5 + 1e-5);
                }
                assert!(stats.real_computed >= approx.len() as u64);
                assert_eq!(stats.leaves_enqueued, 0, "no traversal in approximate mode");
            }
        }
    }

    #[test]
    fn knn_dtw_on_empty_index_is_empty() {
        let data = Dataset::new(64).unwrap();
        let (messi, _) = build(&data, &cfg(2));
        let (got, stats) = knn_dtw(&messi, &data, &vec![0.0; 64], 3, 5, 2).unwrap();
        assert!(got.is_empty());
        assert_eq!(stats, QueryStats::default());
    }

    #[test]
    fn same_index_answers_both_measures() {
        // "Index a dataset once, answer both ED and DTW."
        let data = DatasetKind::Synthetic.generate(400, 64, 71);
        let (messi, _) = build(&data, &cfg(4));
        let q = DatasetKind::Synthetic.queries(1, 64, 71);
        let ed = nn_ed(&messi, &data, q.get(0), 4);
        let (dtw, _) = nn_dtw(&messi, &data, q.get(0), 5, 4).unwrap().unwrap();
        // DTW distance never exceeds ED distance.
        assert!(dtw.dist_sq <= ed.dist_sq + ed.dist_sq * 1e-4 + 1e-4);
    }

    #[test]
    fn empty_index_returns_none() {
        let data = Dataset::new(64).unwrap();
        let (messi, _) = build(&data, &cfg(2));
        assert!(nn_dtw(&messi, &data, &vec![0.0; 64], 3, 2)
            .unwrap()
            .is_none());
    }

    #[test]
    fn dtw_stats_account_the_cascade() {
        let data = DatasetKind::Sald.generate(400, 64, 9);
        let (messi, _) = build(&data, &cfg(3));
        let queries = DatasetKind::Sald.queries(3, 64, 9);
        for q in queries.iter() {
            let (_, stats) = nn_dtw(&messi, &data, q, 4, 3).unwrap().unwrap();
            // Seeding pays at least one full DTW.
            assert!(stats.real_computed >= 1);
            // Each LB_Keogh survivor resolves to an abandoned or a fully
            // paid DTW (seeding reals are counted on top).
            assert!(stats.lb_keogh_pruned <= stats.lb_keogh_computed);
            assert!(
                stats.dtw_abandoned + stats.real_computed
                    >= stats.lb_keogh_computed - stats.lb_keogh_pruned
            );
            // The cascade only sees entries that survived the iSAX bound.
            assert!(stats.lb_keogh_computed <= stats.lb_entry_computed);
            // Traversal counters report through the same struct.
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
    fn band_zero_matches_ed_answer() {
        let data = DatasetKind::Seismic.generate(250, 64, 19);
        let (messi, _) = build(&data, &cfg(3));
        let queries = DatasetKind::Seismic.queries(3, 64, 19);
        for q in queries.iter() {
            let ed = nn_ed(&messi, &data, q, 3);
            let (dtw, _) = nn_dtw(&messi, &data, q, 0, 3).unwrap().unwrap();
            assert_eq!(ed.pos, dtw.pos);
        }
    }

    #[test]
    fn mid_query_dtw_read_failure_is_an_error_not_a_panic() {
        let data = DatasetKind::Synthetic.generate(400, 64, 7);
        let (messi, _) = build(&data, &cfg(4));
        let qs = DatasetKind::Synthetic.queries(2, 64, 7);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        // Budget 0 fails in seeding; small budgets fail inside the
        // broadcast's DTW cascade — both must surface as Err.
        for budget in [0u64, 1, 16, 48] {
            let flaky = FlakySource::new(data.clone(), budget);
            assert!(
                knn_dtw_batch(&messi, &flaky, &qrefs, 4, 40, 4).is_err(),
                "budget {budget} cannot cover a k=40 DTW batch over 400 series"
            );
        }
        // An unconstrained budget answers exactly like the dataset itself.
        let flaky = FlakySource::new(data.clone(), u64::MAX);
        let (via_flaky, _) = knn_dtw(&messi, &flaky, qs.get(0), 4, 5, 4).unwrap();
        let (via_data, _) = knn_dtw(&messi, &data, qs.get(0), 4, 5, 4).unwrap();
        assert_eq!(via_flaky, via_data);
    }
}
