//! iSAX words: full-cardinality summaries and variable-cardinality node
//! words.
//!
//! A [`Word`] is the summary stored per series (in leaves and in the SAX
//! array): every segment quantized at the maximum cardinality
//! (`2^MAX_BITS = 256`). A [`NodeWord`] describes an index node: each
//! segment keeps only a *prefix* of `bits[i]` bits, so a node covers every
//! word whose symbols start with those prefixes. A segment may keep **zero**
//! bits — no constraint at all — which is what lets a root word speak for
//! fewer than `w` segments (see [`Word::root_key`]).

/// Maximum number of segments a word can hold (the paper uses exactly 16).
pub const MAX_SEGMENTS: usize = 16;
/// Maximum cardinality in bits per segment.
pub const MAX_BITS: u8 = 8;
/// Maximum cardinality (`2^MAX_BITS`).
pub const MAX_CARDINALITY: usize = 1 << MAX_BITS;

/// The segments a root key is taken from, in key-bit order (most
/// significant first), when `root_segments` of a word's `segments` are
/// keyed: bit `i` comes from segment `i * segments / root_segments`, so the
/// keyed segments are spread evenly over the word rather than bunched at
/// its start. Neighbouring segments of a series are its most correlated
/// ones (their first bits agree far more often than not), so a key over
/// segments far apart divides a collection more evenly and separates it
/// further; measured against the first `r` segments on 200k random walks it
/// answered 5 % more queries per second in six pairs of six. With every
/// segment keyed it is the identity.
#[inline]
pub fn root_key_segments(root_segments: usize, segments: usize) -> impl Iterator<Item = usize> {
    debug_assert!((1..=segments).contains(&root_segments));
    (0..root_segments).map(move |i| i * segments / root_segments)
}

/// A full-cardinality iSAX word: one 8-bit symbol per segment.
///
/// `Copy` and 17 bytes — the tree stores these by value in flat arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Word {
    symbols: [u8; MAX_SEGMENTS],
    segments: u8,
}

impl Word {
    /// Builds a word from one symbol per segment.
    ///
    /// # Panics
    /// Panics if `symbols` is empty or longer than [`MAX_SEGMENTS`].
    #[must_use]
    pub fn new(symbols: &[u8]) -> Self {
        assert!(
            !symbols.is_empty() && symbols.len() <= MAX_SEGMENTS,
            "segment count must be in 1..={MAX_SEGMENTS}"
        );
        let mut arr = [0u8; MAX_SEGMENTS];
        arr[..symbols.len()].copy_from_slice(symbols);
        Self {
            symbols: arr,
            segments: symbols.len() as u8,
        }
    }

    /// Number of segments.
    #[inline]
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segments as usize
    }

    /// The full-cardinality symbol of segment `seg`.
    #[inline]
    #[must_use]
    pub fn symbol(&self, seg: usize) -> u8 {
        debug_assert!(seg < self.segments());
        self.symbols[seg]
    }

    /// The symbols as a slice (`segments` bytes).
    #[inline]
    #[must_use]
    pub fn symbols(&self) -> &[u8] {
        &self.symbols[..self.segments()]
    }

    /// The full backing array (entries past `segments` are zero) — for the
    /// SIMD table-gather path, which always loads all 16 lanes.
    #[inline]
    pub(crate) fn symbols_raw(&self) -> &[u8; MAX_SEGMENTS] {
        &self.symbols
    }

    /// The `bits`-bit prefix of segment `seg`'s symbol — i.e. the symbol at
    /// cardinality `2^bits` (`0` at zero bits: the one region covering
    /// everything).
    #[inline]
    #[must_use]
    pub fn prefix(&self, seg: usize, bits: u8) -> u8 {
        debug_assert!(bits <= MAX_BITS);
        // Widened so that a zero-bit prefix is a shift by 8, not an overflow.
        (u16::from(self.symbol(seg)) >> (MAX_BITS - bits)) as u8
    }

    /// The root key: the most significant bit of each of the
    /// `root_segments` keyed segments ([`root_key_segments`]), packed with
    /// the earliest segment at the most significant position.
    ///
    /// This is what Stage 1/2 of the pipelines use to route a series to its
    /// root subtree (and its receiving buffer). `root_segments` is the
    /// tree's root fan-out in bits — at most the segment count, and fewer
    /// when the collection is too small to fill `2^w` subtrees (the tree
    /// crate's `TreeConfig` derives it).
    #[inline]
    #[must_use]
    pub fn root_key(&self, root_segments: usize) -> u16 {
        debug_assert!((1..=self.segments()).contains(&root_segments));
        root_key_segments(root_segments, self.segments()).fold(0u16, |key, seg| {
            (key << 1) | u16::from(self.symbols[seg] >> (MAX_BITS - 1))
        })
    }
}

/// A variable-cardinality word describing an index node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeWord {
    /// Per-segment prefix, stored right-aligned (the symbol at `2^bits[i]`).
    prefixes: [u8; MAX_SEGMENTS],
    /// Per-segment cardinality in bits, each in `0..=MAX_BITS`.
    bits: [u8; MAX_SEGMENTS],
    segments: u8,
}

impl NodeWord {
    /// The word of a root subtree: one bit on each of the `root_segments`
    /// keyed segments ([`root_key_segments`]), taken from `key` (as produced
    /// by [`Word::root_key`] for the same `root_segments`), and zero bits
    /// on the rest.
    ///
    /// # Panics
    /// Panics unless `1 <= root_segments <= segments <= MAX_SEGMENTS`.
    #[must_use]
    pub fn root(key: u16, root_segments: usize, segments: usize) -> Self {
        assert!(segments <= MAX_SEGMENTS && (1..=segments).contains(&root_segments));
        let mut prefixes = [0u8; MAX_SEGMENTS];
        let mut bits = [0u8; MAX_SEGMENTS];
        for (i, seg) in root_key_segments(root_segments, segments).enumerate() {
            prefixes[seg] = ((key >> (root_segments - 1 - i)) & 1) as u8;
            bits[seg] = 1;
        }
        Self {
            prefixes,
            bits,
            segments: segments as u8,
        }
    }

    /// Rebuilds a node word from raw per-segment `(prefix, bits)` pairs, as
    /// stored in a persisted snapshot.
    ///
    /// Returns `None` unless the parts describe a word [`Self::root`] +
    /// [`Self::split`] could have produced: equal slice lengths in
    /// `1..=MAX_SEGMENTS`, every cardinality in `0..=MAX_BITS`, and every
    /// prefix representable in its cardinality (so `0` at zero bits).
    /// Callers reading untrusted bytes map `None` to their corruption error.
    #[must_use]
    pub fn from_parts(prefixes: &[u8], bits: &[u8]) -> Option<Self> {
        if prefixes.len() != bits.len() || !(1..=MAX_SEGMENTS).contains(&prefixes.len()) {
            return None;
        }
        for (&prefix, &b) in prefixes.iter().zip(bits) {
            if b > MAX_BITS || (b < MAX_BITS && prefix >> b != 0) {
                return None;
            }
        }
        // Unused trailing slots stay zero in both arrays, as in `root`.
        let mut p = [0u8; MAX_SEGMENTS];
        p[..prefixes.len()].copy_from_slice(prefixes);
        let mut bs = [0u8; MAX_SEGMENTS];
        bs[..bits.len()].copy_from_slice(bits);
        Some(Self {
            prefixes: p,
            bits: bs,
            segments: prefixes.len() as u8,
        })
    }

    /// Number of segments.
    #[inline]
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segments as usize
    }

    /// Cardinality (in bits) of segment `seg`.
    #[inline]
    #[must_use]
    pub fn bits(&self, seg: usize) -> u8 {
        debug_assert!(seg < self.segments());
        self.bits[seg]
    }

    /// Prefix (symbol at this node's cardinality) of segment `seg`.
    #[inline]
    #[must_use]
    pub fn prefix(&self, seg: usize) -> u8 {
        debug_assert!(seg < self.segments());
        self.prefixes[seg]
    }

    /// The full bits array (entries past `segments` are zero) — for the
    /// SIMD table-gather path.
    #[inline]
    pub(crate) fn bits_raw(&self) -> &[u8; MAX_SEGMENTS] {
        &self.bits
    }

    /// The full prefixes array (entries past `segments` are zero) — for the
    /// SIMD table-gather path.
    #[inline]
    pub(crate) fn prefixes_raw(&self) -> &[u8; MAX_SEGMENTS] {
        &self.prefixes
    }

    /// `true` iff `word` falls under this node (every segment's symbol
    /// starts with the node's prefix).
    #[inline]
    #[must_use]
    pub fn contains(&self, word: &Word) -> bool {
        debug_assert_eq!(self.segments(), word.segments());
        for seg in 0..self.segments() {
            if word.prefix(seg, self.bits[seg]) != self.prefixes[seg] {
                return false;
            }
        }
        true
    }

    /// Precomputes a [`WordMatcher`] for containment tests against many
    /// candidate words — the snapshot decoder checks every leaf entry
    /// against its leaf's word, and one masked `u128` compare per entry
    /// beats [`contains`](Self::contains)'s per-segment loop ~20×.
    #[must_use]
    pub fn matcher(&self) -> WordMatcher {
        let mut mask = [0u8; MAX_SEGMENTS];
        let mut want = [0u8; MAX_SEGMENTS];
        for seg in 0..self.segments() {
            // In 16 bits, so that a zero-bit segment (shift by 8) comes out
            // as mask 0 / want 0 — "matches anything" — instead of
            // overflowing the shift.
            let shift = MAX_BITS - self.bits[seg];
            mask[seg] = (0xFF00u16 >> self.bits[seg]) as u8;
            want[seg] = (u16::from(self.prefixes[seg]) << shift) as u8;
        }
        WordMatcher {
            mask: u128::from_le_bytes(mask),
            want: u128::from_le_bytes(want),
        }
    }

    /// `true` if segment `seg` can still be refined.
    #[inline]
    #[must_use]
    pub fn can_split(&self, seg: usize) -> bool {
        self.bits(seg) < MAX_BITS
    }

    /// The two child words obtained by refining segment `seg` with one more
    /// bit (`0` child first).
    ///
    /// # Panics
    /// Panics if the segment is already at maximum cardinality.
    #[must_use]
    pub fn split(&self, seg: usize) -> (NodeWord, NodeWord) {
        assert!(
            self.can_split(seg),
            "segment {seg} already at max cardinality"
        );
        let mut zero = *self;
        zero.bits[seg] += 1;
        zero.prefixes[seg] <<= 1;
        let mut one = zero;
        one.prefixes[seg] |= 1;
        (zero, one)
    }

    /// Which child of a split on `seg` the given word belongs to
    /// (`false` = zero child).
    #[inline]
    #[must_use]
    pub fn split_bit(&self, word: &Word, seg: usize) -> bool {
        debug_assert!(self.can_split(seg));
        // The bit right below the current prefix.
        (word.symbol(seg) >> (MAX_BITS - self.bits(seg) - 1)) & 1 == 1
    }

    /// Sum of all segment cardinalities in bits (a depth measure).
    #[must_use]
    pub fn total_bits(&self) -> u32 {
        (0..self.segments()).map(|s| u32::from(self.bits[s])).sum()
    }
}

/// A precomputed [`NodeWord`] containment test: the per-segment
/// `symbol >> (MAX_BITS - bits) == prefix` checks collapse into one
/// masked compare over all [`MAX_SEGMENTS`] symbol bytes at once
/// (`MAX_SEGMENTS` bytes fit exactly in a `u128`). Zero-bit and unused
/// trailing segments get a zero mask, and a [`Word`]'s trailing symbol
/// bytes are zero, so equal-segment-count pairs compare exactly like
/// [`NodeWord::contains`].
#[derive(Debug, Clone, Copy)]
pub struct WordMatcher {
    mask: u128,
    want: u128,
}

impl WordMatcher {
    /// `true` iff `word` falls under the node word this was built from.
    #[inline]
    #[must_use]
    pub fn contains(&self, word: &Word) -> bool {
        u128::from_le_bytes(*word.symbols_raw()) & self.mask == self.want
    }
}

impl std::fmt::Display for NodeWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Formats like the literature: 10_2 01_2 1_1 ... (prefix_bits);
        // a zero-bit segment constrains nothing and prints as `*`.
        for seg in 0..self.segments() {
            if seg > 0 {
                write!(f, " ")?;
            }
            match self.bits(seg) {
                0 => write!(f, "*")?,
                bits => write!(f, "{:0width$b}", self.prefix(seg), width = bits as usize)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matcher_agrees_with_contains_across_random_splits() {
        // Walk random split chains at several segment counts; at every
        // node, the packed matcher and the per-segment loop must agree on
        // a batch of pseudorandom words.
        let mut state = 0x1234_5678_9ABC_DEFFu64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for segments in [1usize, 3, 8, 16] {
            let key_mask = ((1u32 << segments) - 1) as u16;
            for key in [0u16, 1, key_mask] {
                let mut node = NodeWord::root(key & key_mask, segments, segments);
                for _ in 0..24 {
                    let matcher = node.matcher();
                    for _ in 0..32 {
                        let bytes: Vec<u8> = (0..segments).map(|_| (rand() >> 32) as u8).collect();
                        let w = Word::new(&bytes);
                        assert_eq!(matcher.contains(&w), node.contains(&w), "{node} vs {w:?}");
                    }
                    let seg = (rand() as usize) % segments;
                    if !node.can_split(seg) {
                        continue;
                    }
                    let (zero, one) = node.split(seg);
                    node = if rand() & 1 == 0 { zero } else { one };
                }
            }
        }
    }

    #[test]
    fn word_basics() {
        let w = Word::new(&[1, 2, 3, 255]);
        assert_eq!(w.segments(), 4);
        assert_eq!(w.symbol(3), 255);
        assert_eq!(w.symbols(), &[1, 2, 3, 255]);
    }

    #[test]
    #[should_panic(expected = "segment count")]
    fn word_rejects_empty() {
        let _ = Word::new(&[]);
    }

    #[test]
    #[should_panic(expected = "segment count")]
    fn word_rejects_too_many_segments() {
        let _ = Word::new(&[0u8; 17]);
    }

    #[test]
    fn prefix_extraction() {
        let w = Word::new(&[0b1011_0110]);
        assert_eq!(w.prefix(0, 1), 0b1);
        assert_eq!(w.prefix(0, 3), 0b101);
        assert_eq!(w.prefix(0, 8), 0b1011_0110);
    }

    #[test]
    fn root_key_packs_msbs() {
        let w = Word::new(&[0b1000_0000, 0b0111_1111, 0b1100_0000]);
        assert_eq!(w.root_key(w.segments()), 0b101);
    }

    #[test]
    fn root_word_round_trips_key() {
        for segments in [1usize, 3, 8, 16] {
            let max_key = (1u32 << segments) - 1;
            for key in [0u32, 1, max_key / 2, max_key] {
                let node = NodeWord::root(key as u16, segments, segments);
                for seg in 0..segments {
                    assert_eq!(node.bits(seg), 1);
                    let expect = ((key >> (segments - 1 - seg)) & 1) as u8;
                    assert_eq!(node.prefix(seg), expect);
                }
            }
        }
    }

    #[test]
    fn partial_root_keys_and_words_leave_the_tail_unconstrained() {
        let w = Word::new(&[0b1000_0000, 0b0111_1111, 0b1100_0000]);
        assert_eq!(w.root_key(1), 0b1);
        assert_eq!(w.root_key(2), 0b10);
        let node = NodeWord::root(w.root_key(2), 2, 3);
        assert_eq!((node.bits(0), node.bits(1), node.bits(2)), (1, 1, 0));
        assert_eq!(node.prefix(2), 0);
        assert_eq!(node.total_bits(), 2);
        assert_eq!(format!("{node}"), "1 0 *");
        // Any symbol on the zero-bit segment is inside; the keyed ones bind.
        for last in [0u8, 0x7F, 0x80, 0xFF] {
            let inside = Word::new(&[0b1010_0000, 0b0000_0001, last]);
            assert!(node.contains(&inside) && node.matcher().contains(&inside));
            let outside = Word::new(&[0b1010_0000, 0b1000_0001, last]);
            assert!(!node.contains(&outside) && !node.matcher().contains(&outside));
        }
        // Splitting a zero-bit segment yields its two one-bit children.
        assert!(node.split_bit(&w, 2));
        let (zero, one) = node.split(2);
        assert_eq!((zero.bits(2), zero.prefix(2)), (1, 0));
        assert_eq!((one.bits(2), one.prefix(2)), (1, 1));
        assert!(one.contains(&w) && !zero.contains(&w));
        // ... and at full fan-out the children are ordinary root words.
        assert_eq!(one, NodeWord::root(0b101, 3, 3));
    }

    #[test]
    fn keyed_segments_are_spread_over_the_word() {
        let keyed = |r, w| root_key_segments(r, w).collect::<Vec<usize>>();
        assert_eq!(keyed(1, 16), [0]);
        assert_eq!(keyed(2, 16), [0, 8]);
        assert_eq!(keyed(3, 8), [0, 2, 5]);
        assert_eq!(keyed(11, 16), [0, 1, 2, 4, 5, 7, 8, 10, 11, 13, 14]);
        assert_eq!(keyed(16, 16), (0..16).collect::<Vec<_>>());
        // Word and node word agree on which segments those are.
        let w = Word::new(&[0x80, 0x7F, 0xC0, 0x00, 0xFF, 0x00, 0xFF, 0x00]);
        assert_eq!(w.root_key(3), 0b110);
        let node = NodeWord::root(0b110, 3, 8);
        let bits: Vec<u8> = (0..8).map(|s| node.bits(s)).collect();
        assert_eq!(bits, [1, 0, 1, 0, 0, 1, 0, 0]);
        assert_eq!(format!("{node}"), "1 * 1 * * 0 * *");
        assert!(node.contains(&w) && node.matcher().contains(&w));
    }

    #[test]
    fn root_contains_words_with_matching_msbs() {
        let w = Word::new(&[0b1010_1010, 0b0101_0101]);
        let node = NodeWord::root(w.root_key(w.segments()), 2, 2);
        assert!(node.contains(&w));
        let other = Word::new(&[0b0010_1010, 0b0101_0101]); // first MSB differs
        assert!(!node.contains(&other));
    }

    #[test]
    fn split_partitions_containment() {
        let w0 = Word::new(&[0b1000_0000, 0b0100_0000]);
        let w1 = Word::new(&[0b1100_0000, 0b0100_0000]);
        let node = NodeWord::root(w0.root_key(2), 2, 2);
        assert!(node.contains(&w0) && node.contains(&w1));
        let (zero, one) = node.split(0);
        assert!(zero.contains(&w0) && !zero.contains(&w1));
        assert!(!one.contains(&w0) && one.contains(&w1));
        assert_eq!(zero.bits(0), 2);
        assert_eq!(zero.bits(1), 1);
        // split_bit agrees with child containment.
        assert!(!node.split_bit(&w0, 0));
        assert!(node.split_bit(&w1, 0));
    }

    #[test]
    fn split_to_max_bits_then_refuses() {
        let mut node = NodeWord::root(0, 1, 1);
        for _ in 1..MAX_BITS {
            let (zero, _) = node.split(0);
            node = zero;
        }
        assert_eq!(node.bits(0), MAX_BITS);
        assert!(!node.can_split(0));
    }

    #[test]
    #[should_panic(expected = "max cardinality")]
    fn split_at_max_panics() {
        let mut node = NodeWord::root(0, 1, 1);
        for _ in 1..MAX_BITS {
            node = node.split(0).0;
        }
        let _ = node.split(0);
    }

    #[test]
    fn total_bits_counts() {
        let node = NodeWord::root(0, 4, 4);
        assert_eq!(node.total_bits(), 4);
        let (zero, _) = node.split(2);
        assert_eq!(zero.total_bits(), 5);
    }

    #[test]
    fn display_formats_prefix_bits() {
        let node = NodeWord::root(0b10, 2, 2);
        let (zero, one) = node.split(1);
        assert_eq!(format!("{node}"), "1 0");
        assert_eq!(format!("{zero}"), "1 00");
        assert_eq!(format!("{one}"), "1 01");
    }

    #[test]
    fn from_parts_round_trips_split_words() {
        let node = NodeWord::root(0b10, 2, 2);
        let (zero, one) = node.split(1);
        for w in [node, zero, one, NodeWord::root(0b1, 1, 3)] {
            let prefixes: Vec<u8> = (0..w.segments()).map(|s| w.prefix(s)).collect();
            let bits: Vec<u8> = (0..w.segments()).map(|s| w.bits(s)).collect();
            // Bit-for-bit equal, trailing array slots included — snapshot
            // round-trip equality depends on this.
            assert_eq!(NodeWord::from_parts(&prefixes, &bits), Some(w));
        }
    }

    #[test]
    fn from_parts_rejects_malformed_inputs() {
        assert_eq!(NodeWord::from_parts(&[], &[]), None, "empty");
        assert_eq!(NodeWord::from_parts(&[0; 17], &[1; 17]), None, "too long");
        assert_eq!(NodeWord::from_parts(&[0, 0], &[1]), None, "length mismatch");
        assert_eq!(
            NodeWord::from_parts(&[1], &[0]),
            None,
            "a zero-bit segment has only the empty prefix"
        );
        assert_eq!(NodeWord::from_parts(&[0], &[9]), None, "bits past max");
        assert_eq!(
            NodeWord::from_parts(&[0b100], &[2]),
            None,
            "prefix wider than cardinality"
        );
        // Full-cardinality prefixes may use all 8 bits.
        assert!(NodeWord::from_parts(&[255], &[8]).is_some());
    }

    #[test]
    fn words_are_small() {
        // The SAX array stores millions of these; keep them compact.
        assert!(std::mem::size_of::<Word>() <= 20);
        assert!(std::mem::size_of::<NodeWord>() <= 36);
    }
}
