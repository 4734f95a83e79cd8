//! The unified per-query counter set shared by every engine.

use dsidx_obs::phase::PhaseBreakdown;
use dsidx_series::distance::dtw::DtwVerdict;

/// Counters from one exact query, uniform across engines.
///
/// Engines touch the counters their algorithm has: the scan-based engines
/// (ADS+, ParIS) fill the SAX-array counters and leave the tree-traversal
/// ones at zero; MESSI does the opposite; the DTW cascade fills the
/// LB_Keogh/DTW counters on top of whichever family answered.
/// `real_computed` is meaningful everywhere, so cross-engine comparisons
/// (Fig. 12) read one type.
///
/// Alongside the work counters rides the [`PhaseBreakdown`]: wall-clock
/// nanoseconds per query phase, recorded by the coordinating thread as
/// contiguous intervals. Counters are deterministic across runs at exact
/// fidelity; the phase times are not (they are wall time), so equality
/// between two *live* runs is generally false — determinism tests compare
/// matches, and empty/early-return paths report the all-zero default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Lower bounds evaluated over the SAX array (scan-based engines).
    pub lb_computed: u64,
    /// Positions whose lower bound beat the BSF (candidate list size).
    pub candidates: u64,
    /// Nodes (roots included) pruned during tree traversal (MESSI).
    pub nodes_pruned: u64,
    /// Leaves appended to the sorted leaf runs (MESSI).
    pub leaves_enqueued: u64,
    /// Leaves actually examined — popped and below the BSF (MESSI).
    pub leaves_processed: u64,
    /// Leaves never examined: popped at or above every threshold, or left
    /// unclaimed in a run such a pop closed (MESSI). Together with
    /// `leaves_processed` this accounts for every enqueued leaf.
    pub leaves_discarded: u64,
    /// Entry-level lower bounds computed (MESSI).
    pub lb_entry_computed: u64,
    /// LB_Keogh envelope bounds evaluated (DTW cascade).
    pub lb_keogh_computed: u64,
    /// Candidates pruned by LB_Keogh — against the query's envelope or,
    /// reversed, against their own — before any DTW work (DTW cascade).
    pub lb_keogh_pruned: u64,
    /// The part of `lb_keogh_pruned` that passed the query-envelope bound
    /// and fell to the reversed one (query against the candidate's
    /// envelope).
    pub lb_keogh_rev_pruned: u64,
    /// Banded DTW computations abandoned early against the BSF (DTW
    /// cascade).
    pub dtw_abandoned: u64,
    /// DP cells evaluated by the banded DTWs that were started, abandoned
    /// ones included — how early the abandons come (DTW cascade).
    pub dtw_cells: u64,
    /// Real distances fully evaluated (not early-abandoned) — Euclidean or
    /// DTW, per the query.
    pub real_computed: u64,
    /// Wall-clock nanoseconds per query phase (prepare, seed, scan /
    /// collect / verify / traversal, DTW cascade), measured on the
    /// coordinating thread.
    pub phase: PhaseBreakdown,
}

impl QueryStats {
    /// Total lower-bound evaluations, whatever their granularity: SAX-array
    /// entries for the scan-based engines; node bounds (a visited node is
    /// either pruned or enqueued) plus entry bounds for MESSI; LB_Keogh
    /// envelope bounds for the DTW cascade. The uniform "lower-bound work"
    /// column of the Fig. 12 comparison.
    #[must_use]
    pub fn lb_total(&self) -> u64 {
        self.lb_computed
            + self.nodes_pruned
            + self.leaves_enqueued
            + self.lb_entry_computed
            + self.lb_keogh_computed
    }

    /// Books what [`dtw_cascade`](dsidx_series::distance::dtw::dtw_cascade)
    /// did with one candidate — `cells` being the DP cells it evaluated —
    /// and returns the distance if a full DTW was paid. Every call is one
    /// `lb_keogh_computed` that resolves to exactly one of
    /// `lb_keogh_pruned` (either direction), `dtw_abandoned` or
    /// `real_computed`.
    ///
    /// The leaf loop (every MESSI leaf visit, the seed's and the
    /// approximate answer's included), the batch loops and ParIS's sketch
    /// probe book every candidate this way.
    pub fn count_dtw(&mut self, verdict: DtwVerdict, cells: u64) -> Option<f32> {
        self.lb_keogh_computed += 1;
        self.dtw_cells += cells;
        match verdict {
            DtwVerdict::KeoghPruned => self.lb_keogh_pruned += 1,
            DtwVerdict::ReversedPruned => {
                self.lb_keogh_pruned += 1;
                self.lb_keogh_rev_pruned += 1;
            }
            DtwVerdict::Abandoned => self.dtw_abandoned += 1,
            DtwVerdict::Full(d) => {
                self.real_computed += 1;
                return Some(d);
            }
        }
        None
    }

    /// Field-wise sum (aggregating a query batch into one report row).
    #[must_use]
    pub fn merged(&self, other: &QueryStats) -> QueryStats {
        // Destructure exhaustively: adding a counter without deciding how
        // it merges is a compile error here, not a silently dropped stat.
        let QueryStats {
            lb_computed,
            candidates,
            nodes_pruned,
            leaves_enqueued,
            leaves_processed,
            leaves_discarded,
            lb_entry_computed,
            lb_keogh_computed,
            lb_keogh_pruned,
            lb_keogh_rev_pruned,
            dtw_abandoned,
            dtw_cells,
            real_computed,
            phase,
        } = *other;
        QueryStats {
            lb_computed: self.lb_computed + lb_computed,
            candidates: self.candidates + candidates,
            nodes_pruned: self.nodes_pruned + nodes_pruned,
            leaves_enqueued: self.leaves_enqueued + leaves_enqueued,
            leaves_processed: self.leaves_processed + leaves_processed,
            leaves_discarded: self.leaves_discarded + leaves_discarded,
            lb_entry_computed: self.lb_entry_computed + lb_entry_computed,
            lb_keogh_computed: self.lb_keogh_computed + lb_keogh_computed,
            lb_keogh_pruned: self.lb_keogh_pruned + lb_keogh_pruned,
            lb_keogh_rev_pruned: self.lb_keogh_rev_pruned + lb_keogh_rev_pruned,
            dtw_abandoned: self.dtw_abandoned + dtw_abandoned,
            dtw_cells: self.dtw_cells + dtw_cells,
            real_computed: self.real_computed + real_computed,
            phase: self.phase.merged(&phase),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_obs::phase::Phase;

    fn sample(k: u64) -> QueryStats {
        let mut phase = PhaseBreakdown::new();
        phase.record(Phase::Seed, 12 * k);
        phase.record(Phase::Verify, 13 * k);
        QueryStats {
            lb_computed: k,
            candidates: 2 * k,
            nodes_pruned: 3 * k,
            leaves_enqueued: 4 * k,
            leaves_processed: 5 * k,
            leaves_discarded: 6 * k,
            lb_entry_computed: 7 * k,
            lb_keogh_computed: 8 * k,
            lb_keogh_pruned: 9 * k,
            lb_keogh_rev_pruned: 14 * k,
            dtw_abandoned: 10 * k,
            dtw_cells: 15 * k,
            real_computed: 11 * k,
            phase,
        }
    }

    #[test]
    fn merged_sums_every_field() {
        let m = sample(1).merged(&sample(10));
        assert_eq!(m, sample(11));
    }

    #[test]
    fn merged_sums_phase_times() {
        let m = sample(1).merged(&sample(10));
        assert_eq!(m.phase.nanos(Phase::Seed), 12 * 11);
        assert_eq!(m.phase.nanos(Phase::Verify), 13 * 11);
        assert_eq!(m.phase.nanos(Phase::Traversal), 0);
    }

    #[test]
    fn lb_total_spans_both_engine_families() {
        // Scan-based shape: only SAX-array bounds.
        let scan = QueryStats {
            lb_computed: 100,
            ..QueryStats::default()
        };
        assert_eq!(scan.lb_total(), 100);
        // Tree-based shape: node bounds + entry bounds.
        let tree = QueryStats {
            nodes_pruned: 10,
            leaves_enqueued: 5,
            lb_entry_computed: 40,
            ..QueryStats::default()
        };
        assert_eq!(tree.lb_total(), 55);
        // DTW cascade shape: LB_Keogh bounds count as lower-bound work too.
        let dtw = QueryStats {
            lb_entry_computed: 20,
            lb_keogh_computed: 12,
            lb_keogh_pruned: 9,
            dtw_abandoned: 2,
            ..QueryStats::default()
        };
        assert_eq!(dtw.lb_total(), 32);
    }
}
