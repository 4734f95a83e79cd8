//! Approximate-descent BSF seeding: locate the leaf the query's own word
//! descends to and pay real distances for its entries, so the exact phase
//! starts from a tight best-so-far instead of infinity.

use crate::fetch::SeriesFetcher;
use dsidx_isax::{MindistTable, Word};
use dsidx_series::distance::euclidean_sq_bounded;
use dsidx_storage::{RawSource, StorageError};
use dsidx_sync::Pruner;
use dsidx_tree::{FlatTree, Index, LeafEntry, Node};

/// The most promising leaf for `word` in a pointer tree: the query's own
/// non-empty leaf, or any non-empty leaf when the query's subtree is empty.
/// `None` only for an empty index.
#[must_use]
pub fn approx_leaf<'i>(index: &'i Index, word: &Word) -> Option<&'i Node> {
    index.non_empty_leaf_for(word).or_else(|| index.any_leaf())
}

/// The most promising leaf for `word` in a flattened tree (node index
/// form), routing around empty subtrees. `None` only for an empty index.
#[must_use]
pub fn approx_leaf_flat(flat: &FlatTree, word: &Word) -> Option<u32> {
    let roots = flat.roots();
    if roots.is_empty() {
        return None;
    }
    let key = word.root_key(flat.root_segments());
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

/// Seeds the pruner from the approximate leaf: every entry (given by its
/// raw-data position) pays an early-abandoned real distance against the
/// pruner's current threshold. Returns the number of *full* real distances
/// computed — all of them until the pruner holds k, fewer once it abandons.
///
/// The distance goes through [`euclidean_sq_bounded`] like every other
/// insertion in the kernel, never the unbounded variant: the two SIMD
/// kernels add in different orders and can disagree in the last bit, and a
/// reported distance must not depend on which phase reached the series
/// first (memory and disk schedules seed from different sets).
///
/// # Errors
/// Propagates raw-source I/O failures.
pub fn seed_from_entries<P: Pruner>(
    positions: impl IntoIterator<Item = u32>,
    fetcher: &mut SeriesFetcher<'_, impl RawSource>,
    query: &[f32],
    pruner: &P,
) -> Result<u64, StorageError> {
    let mut paid = 0u64;
    for pos in positions {
        let limit = pruner.threshold_sq();
        let series = fetcher.fetch(pos as usize)?;
        if let Some(d) = euclidean_sq_bounded(query, series, limit) {
            pruner.insert(d, pos);
            paid += 1;
        }
    }
    Ok(paid)
}

/// Appends to `out` the positions of the `n` entries of `entries` with the
/// smallest MINDIST to the query behind `table`, ties broken by position
/// (all of them when the leaf holds no more than `n`).
///
/// Bound-ranked seeding: on a device that charges an access latency per
/// raw series, seeding from a whole approximate leaf pays for every
/// entry although the best-so-far almost always comes from the few whose
/// summaries sit closest to the query's. Ranking costs one table lookup
/// per resident entry and no I/O.
pub fn best_bound_positions(
    entries: &[LeafEntry],
    table: &MindistTable,
    n: usize,
    out: &mut Vec<u32>,
) {
    let mut ranked: Vec<(f32, u32)> = entries
        .iter()
        .map(|e| (table.lookup(&e.word), e.pos))
        .collect();
    ranked.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ranked.truncate(n);
    out.extend(ranked.iter().map(|&(_, pos)| pos));
}

/// Pays (early-abandoned) real distances for the position-order prefix
/// `0..prefix`, feeding improvements to the pruner. Returns the number of
/// *full* real distances computed.
///
/// Leaf seeding alone leaves a k-NN threshold at `+inf` whenever the
/// approximate leaf holds fewer than k entries — harmless for engines
/// that interleave pruning with insertion (ADS+'s scan, MESSI's
/// best-first processing), but pathological for a batch lower-bound phase
/// like ParIS's collect, which would then materialize the *entire*
/// collection as candidates. Warming over a prefix a few times k puts the
/// threshold at a low quantile of the sampled distance distribution
/// instead of the sample maximum, restoring pruning power before any
/// batch phase runs. Once the collector fills, the loop early-abandons
/// against the tightening threshold, so oversampling stays cheap.
///
/// # Errors
/// Propagates raw-source I/O failures.
pub fn seed_prefix<P: Pruner>(
    prefix: usize,
    fetcher: &mut SeriesFetcher<'_, impl RawSource>,
    query: &[f32],
    pruner: &P,
) -> Result<u64, StorageError> {
    let mut paid = 0u64;
    for pos in 0..prefix {
        let limit = pruner.threshold_sq();
        let series = fetcher.fetch(pos)?;
        if let Some(d) = euclidean_sq_bounded(query, series, limit) {
            pruner.insert(d, pos as u32);
            paid += 1;
        }
    }
    Ok(paid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_series::gen::DatasetKind;
    use dsidx_sync::AtomicBest;
    use dsidx_tree::TreeConfig;

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

    #[test]
    fn empty_index_has_no_leaf() {
        let (_, index) = build_index(0);
        let word = Word::new(&[0u8; 8]);
        assert!(approx_leaf(&index, &word).is_none());
        let flat = FlatTree::from_index(&index);
        assert!(approx_leaf_flat(&flat, &word).is_none());
    }

    #[test]
    fn flat_and_pointer_descent_agree() {
        let (data, index) = build_index(500);
        let flat = FlatTree::from_index(&index);
        let quantizer = index.config().quantizer();
        for pos in [0usize, 123, 499] {
            let word = quantizer.word(data.get(pos));
            let leaf = approx_leaf(&index, &word).expect("non-empty");
            let flat_idx = approx_leaf_flat(&flat, &word).expect("non-empty");
            let mut flat_positions = flat.leaf_positions(flat.node(flat_idx)).to_vec();
            let mut tree_positions: Vec<u32> =
                leaf.entries().unwrap().iter().map(|e| e.pos).collect();
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
        let leaf = approx_leaf(&index, &prep.word).expect("non-empty");
        let entries = leaf.entries().expect("resident leaf");
        assert!(entries.len() > 2, "fixture leaf too small to rank");
        let mut want: Vec<(f32, u32)> = entries
            .iter()
            .map(|e| (prep.table.lookup(&e.word), e.pos))
            .collect();
        want.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let want: Vec<u32> = want.iter().map(|&(_, pos)| pos).collect();
        // The query's own entry bounds to zero, so it is among the first.
        let own = entries.iter().find(|e| e.pos == 42).expect("own leaf");
        assert_eq!(prep.table.lookup(&own.word), 0.0);
        for n in [0usize, 1, 2, entries.len(), entries.len() + 5] {
            let mut got = vec![7u32]; // appended to, never cleared
            best_bound_positions(entries, &prep.table, n, &mut got);
            assert_eq!(got[0], 7);
            assert_eq!(&got[1..], &want[..n.min(want.len())], "n={n}");
        }
    }

    #[test]
    fn seeding_finds_the_leaf_minimum() {
        let (data, index) = build_index(300);
        let quantizer = index.config().quantizer();
        let q = data.get(42);
        let word = quantizer.word(q);
        let leaf = approx_leaf(&index, &word).expect("non-empty");
        let entries = leaf.entries().expect("resident leaf");
        let best = AtomicBest::new();
        let mut fetcher = SeriesFetcher::new(&data);
        let positions = entries.iter().map(|e| e.pos);
        let reals = seed_from_entries(positions, &mut fetcher, q, &best).unwrap();
        // Everything is paid in full until the first insertion; after it
        // the rest may abandon against the tightening best-so-far.
        assert!((1..=entries.len() as u64).contains(&reals));
        // Series 42 is in its own leaf, so seeding must find distance 0.
        let (dist_sq, pos) = best.get();
        assert_eq!(pos, 42);
        assert_eq!(dist_sq, 0.0);
    }
}
