//! Approximate-descent BSF seeding: locate the leaf the query's own word
//! descends to ([`approx_leaf_flat`]) and visit it like any other leaf
//! ([`process_leaf_entries`]: bounded whole, survivors prefetched and
//! tried best-bound-first), so the exact phase starts from a tight
//! best-so-far instead of infinity — or, at approximate fidelity, so that
//! leaf's best entries *are* the answer ([`approx_best_leaf`]).

use crate::fetch::SeriesFetcher;
use crate::knn::finish_knn;
use crate::prepare::Prepared;
use crate::scan::{process_leaf_entries, LeafScratch};
use crate::stats::QueryStats;
use dsidx_isax::Word;
use dsidx_obs::phase::{Phase, PhaseClock};
use dsidx_series::Match;
use dsidx_storage::{RawSource, StorageError};
use dsidx_sync::SharedTopK;
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
/// broadcast. The visit is the exact schedule's leaf visit
/// ([`process_leaf_entries`]) from an infinite threshold, so its stats
/// count the leaf's entry bounds and what the measure books per survivor
/// tried. On an on-disk source only that leaf's series are fetched.
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
    let node = tree.node(leaf);
    let mut fetcher = SeriesFetcher::new(source);
    let mut stats = QueryStats::default();
    stats.phase.record(Phase::Prepare, clock.lap());
    process_leaf_entries(
        tree.leaf_words_padded(node),
        tree.leaf_positions(node),
        prep,
        &mut fetcher,
        query,
        &topk,
        &mut LeafScratch::new(),
        &mut stats,
    )?;
    stats.phase.record(Phase::Seed, clock.lap());
    Ok(finish_knn(&topk, Some(stats)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_series::gen::DatasetKind;
    use dsidx_sync::Pruner;
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
    fn seeding_finds_the_leaf_minimum() {
        let (data, index) = build_index(300);
        let q = data.get(42);
        let (words, positions) = own_leaf(&index, &data, 42);
        let prep = crate::prepare::PreparedQuery::new(index.config().quantizer(), q);
        let best = SharedTopK::new(1);
        let mut stats = QueryStats::default();
        let fetched = process_leaf_entries(
            &words,
            &positions,
            &prep,
            &mut SeriesFetcher::new(&data),
            q,
            &best,
            &mut LeafScratch::new(),
            &mut stats,
        )
        .unwrap();
        // Series 42 is in its own leaf, so the visit must find distance 0.
        assert_eq!(best.matches(), vec![(0.0, 42)]);
        assert_eq!(stats.lb_entry_computed, positions.len() as u64);
        // Its entry bounds to zero and is tried among the first; after it
        // only entries bounding below the (now zero) best are, so the visit
        // fetches exactly those.
        let below = words
            .iter()
            .filter(|w| prep.table.lookup(w) < best.threshold_sq())
            .count();
        assert!(below >= 1);
        assert_eq!(fetched, below as u64);
        assert!(stats.real_computed <= fetched);
    }

    /// The k nearest of `positions` by `distance`, as a sort and a
    /// truncation: the oracle of a best-leaf visit.
    fn sorted_truncated(
        positions: &[u32],
        k: usize,
        distance: impl Fn(u32) -> f32,
    ) -> Vec<(f32, u32)> {
        let mut all: Vec<(f32, u32)> = positions.iter().map(|&p| (distance(p), p)).collect();
        all.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    fn assert_answers(got: &[Match], want: &[(f32, u32)], label: &str) {
        assert_eq!(
            got.iter().map(|m| m.pos).collect::<Vec<_>>(),
            want.iter().map(|w| w.1).collect::<Vec<_>>(),
            "{label}"
        );
        for (g, w) in got.iter().zip(want) {
            assert!((g.dist_sq - w.0).abs() <= w.0 * 1e-5 + 1e-5, "{label}");
        }
    }

    #[test]
    fn the_best_leaf_answer_is_its_leaf_sorted_and_truncated() {
        use dsidx_series::distance::dtw::dtw_sq;
        use dsidx_series::distance::euclidean_sq;
        let (data, index) = build_index(600);
        let flat = FlatTree::from_index(&index);
        let quantizer = index.config().quantizer();
        let queries = DatasetKind::Synthetic.queries(4, 64, 19);
        let band = 5;
        for (qi, q) in queries.iter().enumerate() {
            let ed = crate::prepare::PreparedQuery::new(quantizer, q);
            let dtw = crate::dtw::DtwPrepared::new(quantizer, q, band);
            for k in [1usize, 5, 1000] {
                // Both measures descend by the query's own word.
                let leaf = approx_leaf_flat(&flat, &ed.word).unwrap();
                let positions = flat.leaf_positions(flat.node(leaf));
                let label = format!("q{qi} k={k}");
                let (got, stats) = approx_best_leaf(&flat, &data, q, &ed, k).unwrap();
                let want =
                    sorted_truncated(positions, k, |p| euclidean_sq(q, data.get(p as usize)));
                assert_answers(&got, &want, &format!("{label} ed"));
                assert_eq!(stats.lb_entry_computed, positions.len() as u64);
                let (got, stats) = approx_best_leaf(&flat, &data, q, &dtw, k).unwrap();
                let want =
                    sorted_truncated(positions, k, |p| dtw_sq(q, data.get(p as usize), band));
                assert_answers(&got, &want, &format!("{label} dtw"));
                assert_eq!(
                    stats.lb_keogh_pruned + stats.dtw_abandoned + stats.real_computed,
                    stats.lb_keogh_computed,
                    "{label} dtw"
                );
            }
        }
    }
}
