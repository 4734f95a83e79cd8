//! ParIS's seed: the bound ranking it shares with the approximate probe,
//! and the reads that seed one query of a batch.

use dsidx_isax::{MindistTable, Word};
use dsidx_query::{BatchSlot, QueryStats, SeriesFetcher};
use dsidx_series::distance::euclidean_sq_bounded;
use dsidx_storage::{RawSource, StorageError};

/// Appends to `out`, in position order, the positions of the `n` entries
/// (`words` and their index-aligned `positions`) with the smallest MINDIST
/// to the query behind `table`, ties broken by position (all of them when
/// there are no more than `n`).
///
/// The seed ranks a query's approximate leaf this way, the approximate
/// answer the whole collection: on a device that charges a latency per
/// raw series only the few best are worth a fetch, and ranking them costs
/// no I/O. The bounds come from [`MindistTable::lookup_many`], bit-identical
/// with SIMD on or off, so the picks depend neither on the SIMD mode nor
/// on the order the entries come in.
pub fn best_bound_positions(
    words: &[Word],
    positions: &[u32],
    table: &MindistTable,
    n: usize,
    out: &mut Vec<u32>,
) {
    let mut bounds = vec![0.0f32; words.len()];
    table.lookup_many(words, &mut bounds);
    let mut ranked: Vec<(f32, u32)> = bounds.into_iter().zip(positions.iter().copied()).collect();
    if n < ranked.len() {
        if n > 0 {
            ranked.select_nth_unstable_by(n - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
        ranked.truncate(n);
    }
    let start = out.len();
    out.extend(ranked.iter().map(|&(_, pos)| pos));
    out[start..].sort_unstable();
}

/// Seeds one query of a batch from `positions`, in the order given: each
/// series is fetched for this query alone and pays an early-abandoned
/// distance ([`euclidean_sq_bounded`], booked in `local` as
/// `real_computed` when it completes) against the query's own threshold.
/// Abandoning is result-identical to a full distance (the pruner rejects
/// anything at or above the threshold anyway) and keeps the seed cheap
/// once the query's top-k fills. Returns the number of series read.
///
/// # Errors
/// Propagates raw-source I/O failures.
pub(crate) fn seed_query(
    slot: &BatchSlot<'_>,
    positions: impl IntoIterator<Item = u32>,
    fetcher: &mut SeriesFetcher<'_, impl RawSource>,
    local: &mut QueryStats,
) -> Result<u64, StorageError> {
    let mut fetches = 0;
    for pos in positions {
        let series = fetcher.fetch(pos as usize)?;
        fetches += 1;
        if let Some(d) = euclidean_sq_bounded(slot.values, series, slot.topk.threshold_sq()) {
            local.real_computed += 1;
            slot.topk.insert(d, pos);
        }
    }
    Ok(fetches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_query::{approx_leaf_flat, PreparedQuery};
    use dsidx_series::gen::DatasetKind;
    use dsidx_tree::TreeConfig;

    #[test]
    fn best_bound_positions_rank_by_bound_then_position() {
        let config = TreeConfig::new(64, 8, 16).unwrap();
        let data = DatasetKind::Synthetic.generate(300, 64, 77);
        let (tree, _) = dsidx_messi::build(&data, &dsidx_messi::MessiConfig::new(config, 1));
        let q = data.get(42);
        let prep = PreparedQuery::new(tree.config().quantizer(), q);
        let leaf = tree.node(approx_leaf_flat(&tree, &prep.word).expect("non-empty"));
        let (words, positions) = (tree.leaf_words(leaf), tree.leaf_positions(leaf));
        assert!(words.len() > 2, "fixture leaf too small to rank");
        let mut ranked: Vec<(f32, u32)> = words
            .iter()
            .zip(positions)
            .map(|(w, &pos)| (prep.table.lookup_scalar(w), pos))
            .collect();
        ranked.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // The query's own entry bounds to zero, so it is among the first.
        let own = positions.iter().position(|&p| p == 42).expect("own leaf");
        assert_eq!(prep.table.lookup(&words[own]), 0.0);
        for n in [0usize, 1, 2, words.len(), words.len() + 5] {
            let mut want: Vec<u32> = ranked.iter().take(n).map(|&(_, pos)| pos).collect();
            want.sort_unstable();
            let mut got = vec![7u32]; // appended to, never cleared
            best_bound_positions(words, positions, &prep.table, n, &mut got);
            assert_eq!(got[0], 7);
            assert_eq!(got[1..], want, "n={n}");
        }
    }
}
