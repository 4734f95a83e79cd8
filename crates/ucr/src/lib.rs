//! The UCR Suite baseline: exact nearest-neighbor search by optimized
//! sequential scan.
//!
//! The paper compares every index against "the serial scan method, UCR
//! Suite" (§IV) and against "an in-memory, parallel implementation of UCR
//! Suite" it calls *UCR Suite-p* (Figs. 9, 12). Both are one function here,
//! [`scan`]: a batch of exact k-NN queries, Euclidean or banded DTW, over
//! any raw source, with the serial UCR Suite its one-worker case. For
//! whole-matching over z-normalized, equal-length series the applicable
//! UCR Suite optimizations are early abandoning and, under Euclidean
//! distance, reordering the accumulation by decreasing query magnitude;
//! under DTW every series goes through the LB_Keogh cascade, then banded
//! DTW with early abandoning.
//!
//! The brute-force oracles ([`brute_force`], [`brute_force_knn`],
//! [`dtw::brute_force_dtw`], [`brute_force_dtw_knn`]) are what the scan and
//! every engine are tested against.

pub mod dtw;
pub mod ed;
pub mod parallel;

pub use dtw::brute_force_dtw_knn;
pub use ed::{brute_force, brute_force_knn};
pub use parallel::scan;

use dsidx_series::{Dataset, Match};

/// Every series' distance to `query` under `dist`, sorted ascending by
/// `(distance, position)` and truncated to `k`: the oracles' one loop.
/// The lowest-position tie-break matches the concurrent collectors'
/// determinism contract.
fn sorted_by(data: &Dataset, query: &[f32], k: usize, dist: impl Fn(&[f32]) -> f32) -> Vec<Match> {
    assert_eq!(query.len(), data.series_len(), "query length mismatch");
    let mut all: Vec<Match> = data
        .iter()
        .enumerate()
        .map(|(pos, series)| Match::new(pos as u32, dist(series)))
        .collect();
    all.sort_unstable_by(|a, b| {
        a.dist_sq
            .partial_cmp(&b.dist_sq)
            .expect("finite distances")
            .then(a.pos.cmp(&b.pos))
    });
    all.truncate(k);
    all
}
