//! Wall-clock time per build phase: the one report every engine's build
//! returns (the data behind Figs. 4–6).
//!
//! Where a query's phases ([`Phase`](crate::phase::Phase)) are measured on
//! the coordinating thread, so is a build's: every duration in a
//! [`BuildReport`] is wall time the coordinator saw, and no two overlap,
//! so they never add up to more than [`BuildReport::total`]. Work a
//! pipeline hides under another phase — ParIS+ summarizing and growing
//! while the coordinator reads — is time the coordinator spent in that
//! other phase, not a field of its own.

use std::time::Duration;

/// Wall-clock decomposition of one index build, the same for every engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildReport {
    /// Total wall time of the build.
    pub total: Duration,
    /// Reading raw series from a dataset file (zero in memory). For
    /// ParIS/ParIS+ it is only the coordinator's charged waits on the
    /// device: the workers copy and decode each block it charged, hidden
    /// like their summarizing.
    pub read: Duration,
    /// Summarizing series to iSAX words ("Calculate iSAX Representations";
    /// zero where a pipeline hides it under reads).
    pub summarize: Duration,
    /// Growing the subtrees ("Tree Index Construction"), or the part of a
    /// stall on it that was CPU.
    pub grow: Duration,
    /// Writing leaves to the leaf store, or the part of a stall on it that
    /// was writes, plus, for a ParIS/ParIS+ index built on disk, writing
    /// the snapshot it reads its leaves back from (zero for the engines
    /// that write none).
    pub flush: Duration,
    /// The serial end: joining the grown subtrees into one flat tree.
    pub stitch: Duration,
    /// Memory-budget refills of a ParIS/ParIS+ pipeline (zero for the
    /// engines that build in one pass).
    pub generations: usize,
}

impl BuildReport {
    /// Charges a coordinator `stall` on subtree growth and leaf flushes to
    /// [`grow`](Self::grow) and [`flush`](Self::flush), in proportion to
    /// the worker time each took (`grow_work`, `flush_work`: totals across
    /// threads). A stall with no measured work is all growth.
    pub fn split_stall(&mut self, stall: Duration, grow_work: Duration, flush_work: Duration) {
        let grow = grow_work.as_secs_f64();
        let flush = flush_work.as_secs_f64();
        self.grow = if grow + flush <= f64::EPSILON {
            stall
        } else {
            stall.mul_f64(grow / (grow + flush)).min(stall)
        };
        self.flush = stall.saturating_sub(self.grow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_split_is_proportional() {
        let mut r = BuildReport::default();
        r.split_stall(
            Duration::from_secs(4),
            Duration::from_secs(3),
            Duration::from_secs(1),
        );
        assert_eq!(r.grow, Duration::from_secs(3));
        assert_eq!(r.flush, Duration::from_secs(1));
    }

    #[test]
    fn zero_work_attributes_stall_to_cpu() {
        let mut r = BuildReport::default();
        r.split_stall(Duration::from_secs(1), Duration::ZERO, Duration::ZERO);
        assert_eq!(r.grow, Duration::from_secs(1));
        assert_eq!(r.flush, Duration::ZERO);
    }
}
