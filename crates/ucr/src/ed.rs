//! The Euclidean oracles, and the scan's Euclidean tests.

use crate::sorted_by;
use dsidx_series::distance::euclidean_sq;
use dsidx_series::{Dataset, Match};

/// Reference brute-force exact 1-NN without any optimization (test
/// oracle): the lowest position at the smallest distance; `None` for an
/// empty dataset.
///
/// # Panics
/// Panics if the query length differs from the dataset's series length.
#[must_use]
pub fn brute_force(data: &Dataset, query: &[f32]) -> Option<Match> {
    brute_force_knn(data, query, 1).pop()
}

/// Reference brute-force exact k-NN (test oracle): every distance, sorted
/// ascending by `(distance, position)`, truncated to `k`.
///
/// # Panics
/// Panics if the query length differs from the dataset's series length.
#[must_use]
pub fn brute_force_knn(data: &Dataset, query: &[f32], k: usize) -> Vec<Match> {
    sorted_by(data, query, k, |series| euclidean_sq(query, series))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan;
    use dsidx_query::{Measure, QueryStats};
    use dsidx_series::gen::{random_walk, DatasetKind};
    use dsidx_storage::{write_dataset, DatasetFile, Device, RawSource};
    use std::sync::Arc;

    /// One query, 1-NN, at one worker.
    fn nn(source: &impl RawSource, query: &[f32]) -> (Option<Match>, QueryStats) {
        let (mut matches, stats) = scan(source, &[query], Measure::Euclidean, 1, 1, None).unwrap();
        (
            matches.pop().expect("batch of one").pop(),
            stats.into_single(),
        )
    }

    #[test]
    fn scan_matches_brute_force() {
        for kind in DatasetKind::ALL {
            let data = kind.generate(300, 64, 11);
            let queries = kind.queries(10, 64, 11);
            for q in queries.iter() {
                let got = nn(&data, q).0.unwrap();
                let want = brute_force(&data, q).unwrap();
                assert_eq!(got.pos, want.pos, "{}", kind.name());
                assert!((got.dist_sq - want.dist_sq).abs() <= want.dist_sq * 1e-4 + 1e-4);
            }
        }
    }

    #[test]
    fn finds_exact_copy() {
        let data = random_walk(100, 32, 5);
        let q = data.get(37).to_vec();
        let (m, stats) = nn(&data, &q);
        assert_eq!(m, Some(Match::new(37, 0.0)));
        // The seed's full distance plus every completed one; nothing after
        // the copy completes.
        assert!((3..=39).contains(&stats.real_computed), "{stats:?}");
        assert_eq!(stats.lb_total(), 0);
    }

    #[test]
    fn empty_dataset_returns_none() {
        let data = Dataset::new(16).unwrap();
        let (m, stats) = nn(&data, &[0.0; 16]);
        assert!(m.is_none());
        assert_eq!(stats, QueryStats::default());
    }

    #[test]
    fn single_series_dataset() {
        let data = random_walk(1, 32, 9);
        let q = random_walk(1, 32, 10);
        assert_eq!(nn(&data, q.get(0)).0.unwrap().pos, 0);
    }

    #[test]
    #[should_panic(expected = "query length mismatch")]
    fn wrong_query_length_panics() {
        let data = random_walk(5, 32, 1);
        let _ = nn(&data, &[0.0; 16]);
    }

    #[test]
    fn file_scan_matches_memory_scan() {
        let dir = std::env::temp_dir().join(format!("dsidx-ucr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.dsidx");
        let data = random_walk(600, 48, 3);
        let dev = || Arc::new(Device::unthrottled());
        write_dataset(&path, &data, dev()).unwrap();
        let file = DatasetFile::open(&path, dev()).unwrap();
        let queries = random_walk(5, 48, 99);
        for q in queries.iter() {
            // The same series in the same order: the same answer and work.
            let (mem, mem_stats) = nn(&data, q);
            let (disk, disk_stats) = nn(&file, q);
            assert_eq!(mem, disk);
            assert_eq!(
                QueryStats {
                    phase: Default::default(),
                    ..mem_stats
                },
                QueryStats {
                    phase: Default::default(),
                    ..disk_stats
                }
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
