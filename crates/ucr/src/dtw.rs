//! The banded-DTW oracles (the paper's §V extension), and the scan's DTW
//! tests.
//!
//! The scan answers DTW queries with exactly what the DTW engines use:
//! every candidate goes through the one raw-series cascade
//! ([`dtw_cascade`](dsidx_series::distance::dtw::dtw_cascade)) — LB_Keogh
//! against the query's envelope, the reversed LB_Keogh against the
//! candidate's, then banded DTW abandoning on the bounds' unpaid remainder
//! — at the query's current threshold.

use crate::sorted_by;
use dsidx_series::distance::dtw::dtw_sq;
use dsidx_series::{Dataset, Match};

/// Brute-force banded DTW k-NN (test oracle; no lower bounds, no
/// abandons): the `k` smallest DTW distances sorted ascending by
/// `(distance, position)`.
///
/// # Panics
/// Panics if the query length differs from the dataset's series length.
#[must_use]
pub fn brute_force_dtw_knn(data: &Dataset, query: &[f32], band: usize, k: usize) -> Vec<Match> {
    sorted_by(data, query, k, |series| dtw_sq(query, series, band))
}

/// Brute-force banded DTW 1-NN (test oracle; no lower bounds, no
/// abandons); `None` for an empty dataset.
///
/// # Panics
/// Panics if the query length differs from the dataset's series length.
#[must_use]
pub fn brute_force_dtw(data: &Dataset, query: &[f32], band: usize) -> Option<Match> {
    brute_force_dtw_knn(data, query, band, 1).pop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan;
    use dsidx_query::{Measure, QueryStats};
    use dsidx_series::gen::DatasetKind;

    /// One query through [`scan`] as a batch of one.
    fn knn(
        data: &Dataset,
        q: &[f32],
        band: usize,
        k: usize,
        threads: usize,
    ) -> (Vec<Match>, QueryStats) {
        let (mut matches, stats) =
            scan(data, &[q], Measure::Dtw { band }, k, threads, None).unwrap();
        (matches.pop().expect("batch of one"), stats.into_single())
    }

    #[test]
    fn scan_matches_brute_force() {
        for kind in DatasetKind::ALL {
            let data = kind.generate(150, 48, 31);
            let queries = kind.queries(5, 48, 31);
            for band in [0usize, 2, 5] {
                for q in queries.iter() {
                    let want = brute_force_dtw(&data, q, band).unwrap();
                    let got = knn(&data, q, band, 1, 1).0[0];
                    assert_eq!(got.pos, want.pos, "{} band={band}", kind.name());
                    assert_eq!(got.dist_sq.to_bits(), want.dist_sq.to_bits());
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let data = DatasetKind::Sald.generate(600, 64, 13);
        let queries = DatasetKind::Sald.queries(4, 64, 13);
        for q in queries.iter() {
            let want = knn(&data, q, 6, 1, 1).0;
            for threads in [2usize, 3, 8] {
                assert_eq!(knn(&data, q, 6, 1, threads).0, want, "x{threads}");
            }
        }
    }

    #[test]
    fn parallel_stats_account_every_position() {
        let data = DatasetKind::Synthetic.generate(580, 48, 29);
        let queries = DatasetKind::Synthetic.queries(3, 48, 29);
        for q in queries.iter() {
            let (m, stats) = knn(&data, q, 4, 1, 3);
            assert_eq!(m[0].pos, brute_force_dtw(&data, q, 4).unwrap().pos);
            // Every position pays one LB_Keogh bound and lands in exactly
            // one bucket: pruned, abandoned, or fully paid (minus the
            // unconditional seed DTW at position 0).
            assert_eq!(stats.lb_keogh_computed, 580);
            assert_eq!(
                stats.lb_keogh_pruned + stats.dtw_abandoned + stats.real_computed - 1,
                580
            );
            assert_eq!(stats.lb_total(), stats.lb_keogh_computed);
        }
    }

    #[test]
    fn knn_dtw_equals_brute_force_topk() {
        let data = DatasetKind::Sald.generate(160, 48, 23);
        let queries = DatasetKind::Sald.queries(3, 48, 23);
        for q in queries.iter() {
            for k in [1usize, 5, 20, 200] {
                let want = brute_force_dtw_knn(&data, q, 4, k);
                for threads in [1usize, 3] {
                    let (got, stats) = knn(&data, q, 4, k, threads);
                    assert_eq!(got, want, "k={k} x{threads}");
                    // The cascade reports through the unified counters.
                    assert_eq!(stats.lb_keogh_computed, 160);
                    assert!(stats.real_computed >= 1);
                }
            }
        }
    }

    #[test]
    fn knn_dtw_at_k1_matches_nn_scan() {
        // The 1-NN answer heads every k-NN answer.
        let data = DatasetKind::Synthetic.generate(120, 48, 41);
        let queries = DatasetKind::Synthetic.queries(3, 48, 41);
        for q in queries.iter() {
            let (nn, _) = knn(&data, q, 5, 1, 3);
            let (top, _) = knn(&data, q, 5, 7, 3);
            assert_eq!(nn.len(), 1);
            assert_eq!(nn[0], top[0]);
        }
    }

    #[test]
    fn knn_dtw_batch_equals_sequential_and_brute_force() {
        let data = DatasetKind::Sald.generate(180, 48, 19);
        let qs = DatasetKind::Sald.queries(5, 48, 19);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        for band in [0usize, 4] {
            for k in [1usize, 6] {
                for threads in [1usize, 3] {
                    let (batched, stats) =
                        scan(&data, &qrefs, Measure::Dtw { band }, k, threads, None).unwrap();
                    assert_eq!(stats.broadcasts, 1);
                    assert!(stats.broadcasts_per_query() < 1.0);
                    // Every position once, plus the seed's re-read of
                    // position 0.
                    assert_eq!(stats.series_fetched, 181);
                    for (qi, q) in qs.iter().enumerate() {
                        let want = brute_force_dtw_knn(&data, q, band, k);
                        let (single, _) = knn(&data, q, band, k, threads);
                        assert_eq!(batched[qi], want, "q{qi} band={band} k={k} x{threads}");
                        assert_eq!(batched[qi], single, "q{qi} band={band} k={k} x{threads}");
                        // Every position pays one LB_Keogh per query.
                        assert_eq!(stats.per_query[qi].lb_keogh_computed, 180);
                    }
                }
            }
        }
    }

    #[test]
    fn knn_dtw_batch_on_empty_inputs() {
        let dtw = Measure::Dtw { band: 2 };
        let data = Dataset::new(8).unwrap();
        let q = [0.0f32; 8];
        let (m, stats) = scan(&data, &[&q], dtw, 3, 2, None).unwrap();
        assert_eq!(m, vec![Vec::new()]);
        assert_eq!(stats.broadcasts, 0);
        let data = DatasetKind::Synthetic.generate(20, 8, 1);
        let (m, stats) = scan(&data, &[], dtw, 3, 2, None).unwrap();
        assert!(m.is_empty());
        assert!(stats.per_query.is_empty());
    }

    #[test]
    fn knn_dtw_batch_over_flaky_source_errors_instead_of_panicking() {
        let dtw = Measure::Dtw { band: 3 };
        let data = DatasetKind::Sald.generate(620, 48, 5);
        let qs = DatasetKind::Sald.queries(2, 48, 5);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        // The scan reads every position, so any budget below the count
        // must fail — in the seed fetch or inside the broadcast.
        for budget in [0u64, 1, 40, 300, 600] {
            let flaky = dsidx_storage::FlakySource::new(data.clone(), budget);
            assert!(
                scan(&flaky, &qrefs, dtw, 4, 3, None).is_err(),
                "budget {budget} cannot cover a 620-series scan"
            );
        }
        // An unconstrained budget answers exactly like the dataset.
        let flaky = dsidx_storage::FlakySource::new(data.clone(), u64::MAX);
        let (via_flaky, _) = scan(&flaky, &qrefs, dtw, 4, 3, None).unwrap();
        let (via_data, _) = scan(&data, &qrefs, dtw, 4, 3, None).unwrap();
        assert_eq!(via_flaky, via_data);
    }

    #[test]
    fn knn_dtw_on_empty_dataset_is_empty() {
        let data = Dataset::new(8).unwrap();
        let (got, stats) = knn(&data, &[0.0; 8], 2, 3, 4);
        assert!(got.is_empty());
        assert_eq!(stats, QueryStats::default());
    }

    #[test]
    fn dtw_finds_warped_copy_that_ed_misses() {
        // Plant a time-shifted copy of the query; DTW should match it with
        // near-zero distance.
        let base = DatasetKind::Synthetic.generate(50, 64, 3);
        let mut flat = Vec::new();
        let shifted: Vec<f32> = {
            let mut s = base.get(7).to_vec();
            s.rotate_right(2);
            s
        };
        for (i, series) in base.iter().enumerate() {
            if i == 20 {
                flat.extend_from_slice(&shifted);
            } else {
                flat.extend_from_slice(series);
            }
        }
        let data = Dataset::from_flat(flat, 64).unwrap();
        let dtw_match = knn(&data, base.get(7), 4, 1, 1).0[0];
        // Positions 7 (original) and 20 (shifted) are both near-perfect under
        // DTW; either is acceptable, but the distance must be tiny.
        assert!(
            dtw_match.pos == 7 || dtw_match.pos == 20,
            "pos={}",
            dtw_match.pos
        );
        assert!(dtw_match.dist_sq < 1.0, "dist_sq={}", dtw_match.dist_sq);
    }

    #[test]
    fn empty_dataset_returns_none() {
        let data = Dataset::new(8).unwrap();
        assert!(brute_force_dtw(&data, &[0.0; 8], 2).is_none());
        assert!(knn(&data, &[0.0; 8], 2, 1, 4).0.is_empty());
    }

    #[test]
    fn band_zero_equals_euclidean_scan() {
        let data = DatasetKind::Seismic.generate(100, 32, 17);
        let queries = DatasetKind::Seismic.queries(3, 32, 17);
        for q in queries.iter() {
            let (ed, _) = scan(&data, &[q], Measure::Euclidean, 1, 1, None).unwrap();
            let dtw = knn(&data, q, 0, 1, 1).0[0];
            assert_eq!(ed[0][0].pos, dtw.pos);
            assert!((ed[0][0].dist_sq - dtw.dist_sq).abs() <= dtw.dist_sq * 1e-3 + 1e-3);
        }
    }
}
