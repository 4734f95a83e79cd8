//! Leaf-split policy: which segment's cardinality to refine.
//!
//! Per ADS+/iSAX 2.0, an overflowing leaf splits on the segment whose next
//! bit partitions the leaf's entries most evenly ("the one that will result
//! in the most balanced split", §II). Ties prefer the segment with the
//! lowest current cardinality (keeping words shallow), then the lowest
//! index.

use crate::word::{NodeWord, Word};

/// Picks the split segment for a leaf with word `node` holding `words`.
///
/// Returns `None` when every segment is already at maximum cardinality —
/// the caller must then let the leaf overflow (identical full-cardinality
/// words cannot be separated).
pub fn choose_split_segment<'a>(
    words: impl IntoIterator<Item = &'a Word>,
    node: &NodeWord,
) -> Option<usize> {
    let segments = node.segments();
    let mut ones = vec![0u32; segments];
    let mut total = 0u32;
    for w in words {
        debug_assert!(
            node.contains(w),
            "word outside node cannot vote on its split"
        );
        for (seg, count) in ones.iter_mut().enumerate() {
            if node.can_split(seg) && node.split_bit(w, seg) {
                *count += 1;
            }
        }
        total += 1;
    }
    let mut best: Option<(u32, u8, usize)> = None; // (imbalance, bits, seg)
    for (seg, &seg_ones) in ones.iter().enumerate() {
        if !node.can_split(seg) {
            continue;
        }
        let imbalance = (2 * seg_ones).abs_diff(total);
        let key = (imbalance, node.bits(seg), seg);
        if best.is_none_or(|b| key < b) {
            best = Some(key);
        }
    }
    best.map(|(_, _, seg)| seg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::MAX_BITS;

    #[test]
    fn picks_most_balanced_segment() {
        // Root node over 2 segments; both prefixes are 1.
        let node = NodeWord::root(0b11, 2, 2);
        // Segment 0 next bits: 0,0,0,0 (imbalance 4).
        // Segment 1 next bits: 0,0,1,1 (imbalance 0) -> pick 1.
        let words = [
            Word::new(&[0b1000_0000, 0b1000_0000]),
            Word::new(&[0b1000_0000, 0b1010_0000]),
            Word::new(&[0b1011_0000, 0b1100_0000]),
            Word::new(&[0b1001_0000, 0b1110_0000]),
        ];
        assert_eq!(choose_split_segment(words.iter(), &node), Some(1));
    }

    #[test]
    fn tie_breaks_on_lower_cardinality_then_index() {
        let node = NodeWord::root(0b00, 2, 2);
        // Both segments perfectly balanced.
        let words = [
            Word::new(&[0b0000_0000, 0b0000_0000]),
            Word::new(&[0b0100_0000, 0b0100_0000]),
        ];
        assert_eq!(choose_split_segment(words.iter(), &node), Some(0));
        // Refine segment 0 once; now segment 1 has fewer bits and wins ties.
        let (zero, _) = node.split(0);
        let words = [
            Word::new(&[0b0000_0000, 0b0000_0000]),
            Word::new(&[0b0010_0000, 0b0100_0000]),
        ];
        assert_eq!(choose_split_segment(words.iter(), &zero), Some(1));
    }

    #[test]
    fn unconstrained_segments_win_ties_below_a_partial_root() {
        // Root keyed on segment 0 only; segments 1 and 2 carry zero bits.
        let node = NodeWord::root(0b1, 1, 3);
        // All three next bits split 1:1 — the zero-bit segments tie on
        // cardinality, the lower index wins.
        let words = [
            Word::new(&[0b1000_0000, 0b0000_0000, 0b0000_0000]),
            Word::new(&[0b1100_0000, 0b1000_0000, 0b1000_0000]),
        ];
        assert_eq!(choose_split_segment(words.iter(), &node), Some(1));
        let (zero, one) = node.split(1);
        assert!(zero.contains(&words[0]) && one.contains(&words[1]));
        assert_eq!(choose_split_segment(words[..1].iter(), &zero), Some(2));
    }

    #[test]
    fn returns_none_at_max_cardinality() {
        let mut node = NodeWord::root(0, 1, 1);
        for _ in 1..MAX_BITS {
            node = node.split(0).0;
        }
        let words = [Word::new(&[0]), Word::new(&[0])];
        assert_eq!(choose_split_segment(words.iter(), &node), None);
    }

    #[test]
    fn empty_leaf_still_picks_a_segment() {
        let node = NodeWord::root(0, 4, 4);
        // No entries: every splittable segment has imbalance 0; lowest index.
        assert_eq!(choose_split_segment([].iter(), &node), Some(0));
    }

    #[test]
    fn split_actually_separates_on_chosen_segment() {
        let node = NodeWord::root(0b0, 1, 1);
        let words = [
            Word::new(&[0b0000_0000]),
            Word::new(&[0b0111_1111]),
            Word::new(&[0b0100_0000]),
        ];
        let seg = choose_split_segment(words.iter(), &node).unwrap();
        let (zero, one) = node.split(seg);
        let zeros = words.iter().filter(|w| zero.contains(w)).count();
        let ones = words.iter().filter(|w| one.contains(w)).count();
        assert_eq!(zeros + ones, words.len());
        assert!(zeros > 0 && ones > 0, "split should separate these words");
    }
}
