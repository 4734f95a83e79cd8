//! Index configuration: two inputs (segments, leaf capacity) and one
//! derived shape (the root fan-out).
//!
//! The paper fixes the root fan-out at `2^w` — one root child per
//! combination of the first bit of every segment — which suits its 100 M
//! series collections: 65,536 subtrees of ~1,500 series each. A smaller
//! collection spread over the same 65,536 slots puts a dozen series under
//! each root child and leaves every leaf almost empty, so the tree
//! degenerates into a hash table that node-level pruning cannot use. The
//! root key is therefore taken from `r <= w` of the segments only (spread
//! evenly over the word, [`dsidx_isax::root_key_segments`]), with `r`
//! *derived* from the collection size so that an average root child holds
//! between half a leaf and a full one:
//!
//! ```text
//! r = clamp(ceil(log2(count / leaf_capacity)), 1, w)
//! ```
//!
//! A root's word carries one bit on its `r` keyed segments and none on the
//! other `w - r`; the ordinary split policy refines all of them below the
//! root. `r` is not an input: [`TreeConfig::new`] does not know the
//! collection and keeps the paper's `r = w`; every engine's build refits
//! the configuration it is handed with [`TreeConfig::fitted_to`], and a
//! snapshot records the `r` its tree was built with.

use dsidx_isax::{IsaxError, NodeWord, Quantizer, Word};

/// Configuration shared by every engine building or querying an index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeConfig {
    quantizer: Quantizer,
    leaf_capacity: usize,
    root_segments: usize,
}

impl TreeConfig {
    /// Validates a configuration for a collection of unknown size: the
    /// root is keyed on all `segments` (the paper's full `2^w` fan-out).
    /// Builders refit it to the collection with
    /// [`fitted_to`](Self::fitted_to).
    ///
    /// # Errors
    /// Propagates [`Quantizer::new`]'s errors (segment count out of range,
    /// series shorter than the segment count).
    ///
    /// # Panics
    /// Panics if `leaf_capacity == 0` (a programming error, not a data
    /// error).
    pub fn new(
        series_len: usize,
        segments: usize,
        leaf_capacity: usize,
    ) -> Result<Self, IsaxError> {
        assert!(leaf_capacity > 0, "leaf capacity must be non-zero");
        Ok(Self {
            quantizer: Quantizer::new(series_len, segments)?,
            leaf_capacity,
            root_segments: segments,
        })
    }

    /// This configuration with the root fan-out derived for a collection
    /// of `count` series (see the module docs for the rule). Collections
    /// smaller than one leaf — empty ones included — get the minimum,
    /// `r = 1`.
    #[must_use]
    pub fn fitted_to(&self, count: usize) -> Self {
        let leaves = count.div_ceil(self.leaf_capacity);
        let root_segments =
            (leaves.next_power_of_two().trailing_zeros() as usize).clamp(1, self.segments());
        // Root keys travel as `u16` (`Index`'s occupied list, `FlatTree`'s
        // root directory, the snapshot's root records).
        assert!(
            root_segments <= u16::BITS as usize,
            "root key wider than u16"
        );
        Self {
            root_segments,
            ..self.clone()
        }
    }

    /// The quantizer (series length, segmentation, conversion routines).
    #[inline]
    #[must_use]
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    /// Series length.
    #[inline]
    #[must_use]
    pub fn series_len(&self) -> usize {
        self.quantizer.series_len()
    }

    /// Number of iSAX segments (`w`).
    #[inline]
    #[must_use]
    pub fn segments(&self) -> usize {
        self.quantizer.segments()
    }

    /// Maximum entries a leaf holds before splitting.
    #[inline]
    #[must_use]
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_capacity
    }

    /// Number of segments the root key is taken from (`r`, in
    /// `1..=segments`) — derived, never set; see the module docs.
    #[inline]
    #[must_use]
    pub fn root_segments(&self) -> usize {
        self.root_segments
    }

    /// Number of root slots (`2^r`).
    #[inline]
    #[must_use]
    pub fn root_count(&self) -> usize {
        1 << self.root_segments
    }

    /// The root slot `word` belongs to.
    #[inline]
    #[must_use]
    pub fn root_key(&self, word: &Word) -> u16 {
        word.root_key(self.root_segments)
    }

    /// The node word of root slot `key`.
    #[inline]
    #[must_use]
    pub fn root_word(&self, key: u16) -> NodeWord {
        NodeWord::root(key, self.root_segments, self.segments())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let c = TreeConfig::new(256, 16, 100).unwrap();
        assert_eq!(c.series_len(), 256);
        assert_eq!(c.segments(), 16);
        assert_eq!(c.leaf_capacity(), 100);
        assert_eq!(c.root_segments(), 16);
        assert_eq!(c.root_count(), 65536);
        assert_eq!(c.quantizer().segment_lens().len(), 16);
    }

    #[test]
    fn root_fan_out_follows_the_collection() {
        let c = TreeConfig::new(256, 16, 100).unwrap();
        for (count, r) in [
            (0, 1),
            (1, 1),
            (99, 1),
            (200, 1),
            (201, 2),
            (20_000, 8),
            (100_000, 10),
            (200_000, 11),
            (204_800, 11),
            (204_801, 12),
            (6_553_600, 16),
            (100_000_000, 16),
            (usize::MAX, 16),
        ] {
            let fitted = c.fitted_to(count);
            assert_eq!(fitted.root_segments(), r, "count={count}");
            assert_eq!(fitted.root_count(), 1 << r);
            // Only the shape moves, and refitting starts from the inputs.
            assert_eq!(fitted.quantizer(), c.quantizer());
            assert_eq!(fitted.leaf_capacity(), 100);
            assert_eq!(fitted.fitted_to(count), fitted);
            assert_eq!(fitted.fitted_to(100_000_000), c);
        }
        // Never wider than the word.
        let narrow = TreeConfig::new(64, 4, 1).unwrap().fitted_to(1_000_000);
        assert_eq!(narrow.root_segments(), 4);
    }

    #[test]
    fn keys_and_root_words_agree() {
        let c = TreeConfig::new(64, 8, 10).unwrap().fitted_to(75);
        assert_eq!(c.root_segments(), 3);
        let w = Word::new(&[0x80, 0x7F, 0xC0, 0x00, 0xFF, 0x00, 0xFF, 0x00]);
        // Keyed segments 0, 2 and 5.
        assert_eq!(c.root_key(&w), 0b110);
        let root = c.root_word(0b110);
        assert!(root.contains(&w));
        assert_eq!(root.total_bits(), 3);
        assert!(!c.root_word(0b100).contains(&w));
    }

    #[test]
    fn propagates_quantizer_errors() {
        assert!(TreeConfig::new(4, 16, 10).is_err());
        assert!(TreeConfig::new(16, 0, 10).is_err());
    }

    #[test]
    #[should_panic(expected = "leaf capacity")]
    fn zero_capacity_panics() {
        let _ = TreeConfig::new(64, 8, 0);
    }
}
