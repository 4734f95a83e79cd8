//! Approximate-descent BSF seeding: locate the leaf the query's own word
//! descends to and pay real distances for its entries, so the exact phase
//! starts from a tight best-so-far instead of infinity — or, at
//! approximate fidelity, so that leaf's best entries *are* the answer
//! ([`approx_best_leaf`]).

use crate::fetch::SeriesFetcher;
use crate::knn::finish_knn;
use crate::prepare::Prepared;
use crate::scan::LeafScratch;
use crate::stats::QueryStats;
use dsidx_isax::{MindistTable, Word};
use dsidx_obs::phase::{Phase, PhaseClock};
use dsidx_series::Match;
use dsidx_storage::{RawSource, StorageError};
use dsidx_sync::{Pruner, SharedTopK};
use dsidx_tree::FlatTree;

/// The most promising leaf for `word` (its node index): the query's own
/// non-empty leaf, routing around empty subtrees; when the query's root
/// slot is empty, the leaf its word reaches under the next occupied key
/// (the last one when none is above). `None` only for an empty index.
#[must_use]
pub fn approx_leaf_flat(flat: &FlatTree, word: &Word) -> Option<u32> {
    let roots = flat.roots();
    if roots.is_empty() {
        return None;
    }
    let key = flat.config().root_key(word);
    let start_root = match roots.binary_search_by_key(&key, |&(k, _)| k) {
        Ok(i) => i,
        Err(i) => i.min(roots.len() - 1), // absent subtree: nearest key
    };
    flat.descend_non_empty(roots[start_root].1, word)
        .or_else(|| {
            roots
                .iter()
                .find_map(|&(_, r)| flat.descend_non_empty(r, word))
        })
}

/// *Approximate* k-NN by one best-leaf visit — the approximate answer of
/// ADS+ and MESSI, the paper's "most promising leaf": descend to the
/// query's own leaf ([`approx_leaf_flat`]) and return the k nearest of its
/// entries by `prep`'s real distance (early-abandoned Euclidean, or each
/// entry through the DTW cascade), with no scan, no traversal and no pool
/// broadcast. On an on-disk source only that leaf's series are fetched.
///
/// Every reported distance is a real distance to a real series, so it is
/// never below the exact answer at the same rank; returns fewer than `k`
/// matches when the leaf holds fewer entries, empty for an empty tree.
///
/// # Errors
/// Propagates raw-source I/O failures.
///
/// # Panics
/// Panics if the query length differs from the configured series length or
/// `k == 0`.
pub fn approx_best_leaf(
    tree: &FlatTree,
    source: &impl RawSource,
    query: &[f32],
    prep: &impl Prepared,
    k: usize,
) -> Result<(Vec<Match>, QueryStats), StorageError> {
    assert_eq!(
        query.len(),
        tree.config().series_len(),
        "query length mismatch"
    );
    let topk = SharedTopK::new(k);
    if tree.entry_count() == 0 {
        return Ok(finish_knn(&topk, None));
    }
    let mut clock = PhaseClock::start();
    let leaf = approx_leaf_flat(tree, prep.word()).expect("non-empty index has a non-empty leaf");
    let positions = tree.leaf_positions(tree.node(leaf)).iter().copied();
    let mut fetcher = SeriesFetcher::new(source);
    let mut stats = QueryStats::default();
    stats.phase.record(Phase::Prepare, clock.lap());
    stats.real_computed = seed_from_entries(
        positions,
        &mut fetcher,
        query,
        prep,
        &topk,
        &mut LeafScratch::new(),
    )?;
    stats.phase.record(Phase::Seed, clock.lap());
    Ok(finish_knn(&topk, Some(stats)))
}

/// Seeds the pruner from the approximate leaf: every entry (given by its
/// raw-data position) pays `prep`'s [`distance`](Prepared::distance)
/// against the pruner's current threshold. Returns the number of *full*
/// real distances computed — all of them until the pruner holds k, fewer
/// once it abandons. That count is all a seed books: the rest of what the
/// measure counts per candidate (a DTW cascade's prunes, abandons and
/// cells) is left out here, and the leaf and batch loops book it.
///
/// # Errors
/// Propagates raw-source I/O failures.
pub fn seed_from_entries<P: Pruner, Q: Prepared>(
    positions: impl IntoIterator<Item = u32>,
    fetcher: &mut SeriesFetcher<'_, impl RawSource>,
    query: &[f32],
    prep: &Q,
    pruner: &P,
    scratch: &mut LeafScratch,
) -> Result<u64, StorageError> {
    let mut unbooked = QueryStats::default();
    let mut paid = 0u64;
    for pos in positions {
        let limit = pruner.threshold_sq();
        let series = fetcher.fetch(pos as usize)?;
        if let Some(d) = prep.distance(query, series, limit, &mut scratch.dtw, &mut unbooked) {
            pruner.insert(d, pos);
            paid += 1;
        }
    }
    Ok(paid)
}

/// Appends to `out` the positions of the `n` leaf entries (`words` and
/// their index-aligned `positions`) with the smallest MINDIST to the query
/// behind `table`, ties broken by position (all of them when the leaf
/// holds no more than `n`).
///
/// Bound-ranked seeding: on a device that charges an access latency per
/// raw series, seeding from a whole approximate leaf pays for every
/// entry although the best-so-far almost always comes from the few whose
/// summaries sit closest to the query's. Ranking costs one table lookup
/// per resident entry and no I/O.
///
/// The bounds come from [`MindistTable::lookup_many`], whose sums are
/// bit-identical with SIMD on or off, so the ranking — and every seed
/// drawn from it — does not depend on the SIMD mode.
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
    ranked.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ranked.truncate(n);
    out.extend(ranked.iter().map(|&(_, pos)| pos));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_series::gen::DatasetKind;
    use dsidx_sync::SharedTopK;
    use dsidx_tree::{Index, LeafEntry, TreeConfig};

    fn build_index(n: usize) -> (dsidx_series::Dataset, Index) {
        let config = TreeConfig::new(64, 8, 16).unwrap();
        let data = DatasetKind::Synthetic.generate(n, 64, 77);
        let quantizer = config.quantizer().clone();
        let mut index = Index::new(config);
        for (pos, series) in data.iter().enumerate() {
            index.insert(LeafEntry::new(quantizer.word(series), pos as u32));
        }
        (data, index)
    }

    /// The flat tree of [`build_index`] and the approximate leaf of series
    /// `pos`'s own word, as `(words, positions)`.
    fn own_leaf(index: &Index, data: &dsidx_series::Dataset, pos: usize) -> (Vec<Word>, Vec<u32>) {
        let flat = FlatTree::from_index(index);
        let word = index.config().quantizer().word(data.get(pos));
        let leaf = flat.node(approx_leaf_flat(&flat, &word).expect("non-empty"));
        (
            flat.leaf_words(leaf).to_vec(),
            flat.leaf_positions(leaf).to_vec(),
        )
    }

    #[test]
    fn empty_index_has_no_leaf() {
        let (_, index) = build_index(0);
        let word = Word::new(&[0u8; 8]);
        let flat = FlatTree::from_index(&index);
        assert!(approx_leaf_flat(&flat, &word).is_none());
    }

    #[test]
    fn flat_and_pointer_descent_agree() {
        let (data, index) = build_index(500);
        for pos in [0usize, 123, 499] {
            let (_, mut flat_positions) = own_leaf(&index, &data, pos);
            // The pointer tree's leaf holding the series: where insertion
            // routed its word.
            let mut tree_positions = Vec::new();
            index.for_each_leaf(&mut |leaf| {
                let entries = leaf.entries().unwrap();
                if entries.iter().any(|e| e.pos == pos as u32) {
                    tree_positions = entries.iter().map(|e| e.pos).collect();
                }
            });
            flat_positions.sort_unstable();
            tree_positions.sort_unstable();
            assert_eq!(flat_positions, tree_positions);
            // The query's own leaf contains the queried series.
            assert!(tree_positions.contains(&(pos as u32)));
        }
    }

    #[test]
    fn best_bound_positions_rank_by_bound_then_position() {
        let (data, index) = build_index(300);
        let quantizer = index.config().quantizer();
        let q = data.get(42);
        let prep = crate::prepare::PreparedQuery::new(quantizer, q);
        let (words, positions) = own_leaf(&index, &data, 42);
        assert!(words.len() > 2, "fixture leaf too small to rank");
        let mut want: Vec<(f32, u32)> = words
            .iter()
            .zip(&positions)
            .map(|(w, &pos)| (prep.table.lookup_scalar(w), pos))
            .collect();
        want.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let want: Vec<u32> = want.iter().map(|&(_, pos)| pos).collect();
        // The query's own entry bounds to zero, so it is among the first.
        let own = positions.iter().position(|&p| p == 42).expect("own leaf");
        assert_eq!(prep.table.lookup(&words[own]), 0.0);
        for n in [0usize, 1, 2, words.len(), words.len() + 5] {
            let mut got = vec![7u32]; // appended to, never cleared
            best_bound_positions(&words, &positions, &prep.table, n, &mut got);
            assert_eq!(got[0], 7);
            assert_eq!(&got[1..], &want[..n.min(want.len())], "n={n}");
        }
    }

    #[test]
    fn seeding_finds_the_leaf_minimum() {
        let (data, index) = build_index(300);
        let q = data.get(42);
        let (_, positions) = own_leaf(&index, &data, 42);
        let prep = crate::prepare::PreparedQuery::new(index.config().quantizer(), q);
        let best = SharedTopK::new(1);
        let mut fetcher = SeriesFetcher::new(&data);
        let mut scratch = LeafScratch::new();
        let reals = seed_from_entries(
            positions.iter().copied(),
            &mut fetcher,
            q,
            &prep,
            &best,
            &mut scratch,
        )
        .unwrap();
        // Everything is paid in full until the first insertion; after it
        // the rest may abandon against the tightening best-so-far.
        assert!((1..=positions.len() as u64).contains(&reals));
        // Series 42 is in its own leaf, so seeding must find distance 0.
        assert_eq!(best.matches(), vec![(0.0, 42)]);
    }
}
