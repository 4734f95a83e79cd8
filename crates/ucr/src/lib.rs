//! The UCR Suite baseline: exact nearest-neighbor search by optimized
//! sequential scan.
//!
//! The paper compares every index against "the serial scan method, UCR
//! Suite" (§IV) and against "an in-memory, parallel implementation of UCR
//! Suite" it calls *UCR Suite-p* (Figs. 9, 12). For whole-matching over
//! z-normalized, equal-length series the applicable UCR Suite optimizations
//! are early abandoning of the Euclidean distance and reordering the
//! distance accumulation by decreasing query magnitude; both are
//! implemented here, over in-memory data and over on-disk files (block
//! sequential scan), for both ED and DTW (LB_Keogh cascade, then banded
//! DTW with early abandoning).

pub mod dtw;
pub mod ed;
pub mod parallel;

pub use dtw::{brute_force_dtw_knn, scan_dtw, scan_dtw_parallel};
pub use ed::{brute_force, brute_force_knn, scan_ed, scan_ed_file};
pub use parallel::scan_ed_parallel;
