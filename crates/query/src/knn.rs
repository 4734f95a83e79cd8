//! Shared k-NN result assembly: every engine's k-NN answer ends the same
//! way, so the collector-to-answer conversion lives here once.

use crate::stats::QueryStats;
use dsidx_series::Match;
use dsidx_sync::SharedTopK;

/// Turns a finished [`SharedTopK`] plus the schedule's outcome into the
/// engine-level k-NN answer: the held pairs as [`Match`]es sorted
/// ascending by `(distance, position)`, or the empty answer (with zeroed
/// stats) when the schedule reported an empty index (`None`).
#[must_use]
pub fn finish_knn(topk: &SharedTopK, stats: Option<QueryStats>) -> (Vec<Match>, QueryStats) {
    match stats {
        None => (Vec::new(), QueryStats::default()),
        Some(stats) => (
            topk.matches()
                .into_iter()
                .map(|(dist_sq, pos)| Match::new(pos, dist_sq))
                .collect(),
            stats,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_sync::Pruner;

    #[test]
    fn empty_schedule_yields_empty_answer() {
        let topk = SharedTopK::new(3);
        topk.insert(1.0, 7); // ignored: the schedule saw an empty index
        let (matches, stats) = finish_knn(&topk, None);
        assert!(matches.is_empty());
        assert_eq!(stats, QueryStats::default());
    }

    #[test]
    fn matches_come_out_sorted_with_stats() {
        let topk = SharedTopK::new(2);
        topk.insert(5.0, 1);
        topk.insert(2.0, 9);
        topk.insert(3.0, 4);
        let stats = QueryStats {
            real_computed: 3,
            ..QueryStats::default()
        };
        let (matches, got) = finish_knn(&topk, Some(stats));
        assert_eq!(matches, vec![Match::new(9, 2.0), Match::new(4, 3.0)]);
        assert_eq!(got, stats);
    }
}
