//! Property tests for trees whose root fan-out is fitted to the collection:
//! whatever `r` the collection size derives, the tree is structurally valid,
//! independent of how its subtrees were filled, and its flat form survives
//! the snapshot codec bit for bit — under its own `r` and no other.

use dsidx_isax::Word;
use dsidx_tree::snapshot::{decode_tree, encode, validate};
use dsidx_tree::stats::index_stats;
use dsidx_tree::{FlatFragment, FlatTree, Index, LeafEntry, Node, TreeConfig};
use proptest::prelude::*;

/// `count` words of `segments` symbols, drawn so that neighbouring
/// segments correlate (as PAA values of real series do) and duplicates
/// occur.
fn words(segments: usize, raw: &[u8]) -> Vec<Word> {
    raw.chunks_exact(segments)
        .map(|chunk| {
            let mut symbols = chunk.to_vec();
            for i in 1..segments {
                symbols[i] = ((u16::from(symbols[i - 1]) * 3 + u16::from(symbols[i])) / 4) as u8;
            }
            Word::new(&symbols)
        })
        .collect()
}

fn collection() -> impl Strategy<Value = (usize, usize, Vec<Word>)> {
    (1usize..=16, 1usize..12, 0usize..300).prop_flat_map(|(segments, capacity, count)| {
        (
            Just(segments),
            Just(capacity),
            prop::collection::vec(0u8..=255, count * segments)
                .prop_map(move |raw| words(segments, &raw)),
        )
    })
}

fn serial(config: &TreeConfig, words: &[Word]) -> Index {
    let mut index = Index::new(config.clone());
    for (pos, word) in words.iter().enumerate() {
        index.insert(LeafEntry::new(*word, pos as u32));
    }
    index
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Serial inserts into a fitted tree give a valid tree whose shape
    /// statistics add up, whose flat view agrees with it, and which equals
    /// the tree grown by partition from per-root buffers (MESSI's and
    /// ADS+'s way) and the one assembled from subtrees inserted one by one
    /// (ParIS's way).
    #[test]
    fn fitted_trees_are_valid_however_they_are_filled((segments, capacity, words) in collection()) {
        let config = TreeConfig::new(64, segments, capacity).unwrap().fitted_to(words.len());
        let r = config.root_segments();
        prop_assert!((1..=segments).contains(&r));
        // The derivation: 2^r root slots of one leaf each hold the
        // collection, and one bit fewer would not (unless clamped).
        prop_assert!(r == segments || (capacity << r) >= words.len());
        prop_assert!(r == 1 || (capacity << (r - 1)) < words.len());

        let index = serial(&config, &words);
        let flat = FlatTree::from_index(&index);
        prop_assert!(validate(&flat, words.len()).is_ok());
        let stats = index_stats(&flat);
        prop_assert_eq!(stats.entry_count, words.len());
        prop_assert!(stats.root_subtrees <= config.root_count());
        prop_assert_eq!(stats.leaf_count - stats.inner_count, stats.root_subtrees);
        for &key in index.occupied_roots() {
            let root = index.root(key).unwrap();
            prop_assert_eq!(root.word(), &config.root_word(key));
            prop_assert_eq!(root.word().total_bits() as usize, r);
        }
        prop_assert_eq!(flat.config(), &config);
        prop_assert_eq!(flat.entry_count(), words.len());
        for word in &words {
            let at = flat.roots().binary_search_by_key(&word.root_key(r), |&(k, _)| k);
            let leaf = flat.descend_non_empty(flat.roots()[at.unwrap()].1, word);
            prop_assert!(flat.leaf_words(flat.node(leaf.unwrap())).contains(word));
        }

        // Grown by partition from position-ordered per-root buffers, the
        // way MESSI and ADS+ build.
        let mut buffers = vec![Vec::new(); config.root_count()];
        for (pos, word) in words.iter().enumerate() {
            buffers[usize::from(config.root_key(word))].push(LeafEntry::new(*word, pos as u32));
        }
        let mut fragment = FlatFragment::with_capacity(words.len());
        for (key, buffer) in buffers.iter_mut().enumerate() {
            if !buffer.is_empty() {
                fragment.grow(key as u16, buffer, &config);
            }
        }
        prop_assert_eq!(FlatTree::stitch(config.clone(), vec![fragment]), flat);

        let mut slots: Vec<Option<Box<Node>>> = vec![None; config.root_count()];
        for (pos, word) in words.iter().enumerate() {
            let key = config.root_key(word);
            slots[usize::from(key)]
                .get_or_insert_with(|| Box::new(Node::new_leaf(config.root_word(key))))
                .insert(LeafEntry::new(*word, pos as u32), &config);
        }
        prop_assert_eq!(Index::from_roots(config, slots), index);
    }

    /// The snapshot codec round-trips a fitted tree's flat form bit for
    /// bit, and the same bytes decoded under any other root fan-out are an
    /// error, never a different tree.
    #[test]
    fn codec_round_trips_under_the_trees_own_fan_out_only(
        (segments, capacity, words) in collection(),
    ) {
        let unfitted = TreeConfig::new(64, segments, capacity).unwrap();
        let config = unfitted.fitted_to(words.len());
        let flat = FlatTree::from_index(&serial(&config, &words));
        let sections = encode(&flat);
        let back = decode_tree(config.clone(), words.len(), &sections).expect("own encoding");
        prop_assert_eq!(&back, &flat);
        for r in 1..=segments {
            // `fitted_to(capacity << r)` derives exactly `r`. (An empty
            // tree has no root records to disagree with any fan-out.)
            let other = unfitted.fitted_to(capacity << r);
            if other.root_segments() != config.root_segments() && !words.is_empty() {
                prop_assert!(decode_tree(other, words.len(), &sections).is_err(), "r={}", r);
            }
        }
    }
}
