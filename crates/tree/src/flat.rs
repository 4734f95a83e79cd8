//! The flat tree: the one form an index takes after construction.
//!
//! Every index ends up as dense arrays of nodes (depth-first), leaf
//! entries (leaf-contiguous) and occupied roots, and answers every query
//! from them; a snapshot stores them as they are ([`crate::snapshot`]) and
//! an open reads them straight back. The paper's C implementation gets the
//! same effect by storing nodes in preallocated arrays.
//!
//! The arrays are assembled per run of root subtrees, in [`FlatFragment`]s
//! that [`FlatTree::stitch`] joins in key order. A subtree reaches its
//! fragment one of two ways, and both give the same tree for the same
//! entries in the same order:
//!
//! * **grown by partition** ([`FlatFragment::grow`]) when all of its
//!   entries are at hand, in position order — MESSI and ADS+. No node is
//!   boxed: each node votes on its first `leaf_capacity + 1` entries and
//!   stable-partitions all of them between its children.
//! * **flattened** ([`FlatFragment::push`]) from a boxed [`Node`] graph
//!   grown by [`Node::insert`] — ParIS/ParIS+, whose entries arrive in
//!   generations with leaf flushes in between, and [`Index::insert`]. The
//!   graph suits that (in-place splits) but not traversal, where every
//!   node visit is a pointer chase, so it is dropped once flattened.
//!
//! Leaf entries are stored as two parallel arrays, the iSAX words and the
//! raw-data positions (the bytes of a [`LeafEntry`],
//! split by field). Processing a leaf first lower-bounds *every* word and
//! only then touches the positions of the few survivors, so the words of
//! one leaf sit contiguously for the batched MINDIST kernel
//! ([`MindistTable::lookup_many`](dsidx_isax::MindistTable::lookup_many))
//! and no cache line is spent on positions that are never read. The word
//! array is padded so that any leaf can be bounded in whole blocks of
//! [`LEAF_BLOCK`] words ([`FlatTree::leaf_words_padded`]): neither the
//! coarse pre-filter nor the exact kernel then falls back to a short-block
//! path, and the caller ignores the extra results.

use crate::config::TreeConfig;
use crate::entry::LeafEntry;
use crate::index::Index;
use crate::node::Node;
use dsidx_isax::split::choose_split_segment;
use dsidx_isax::{NodeMindistTable, NodeWord, Word, MAX_BITS, MAX_SEGMENTS};

/// Words per block of the leaf-bounding kernels; leaf word runs are padded
/// to a multiple of it.
///
/// It is the coarse pre-filter's block
/// ([`COARSE_BLOCK`](dsidx_isax::COARSE_BLOCK), 32 words per mask), which
/// is also a whole number of the exact kernel's 8-word blocks
/// ([`MindistTable::lookup_many`](dsidx_isax::MindistTable::lookup_many)):
/// a padded leaf run is bounded in full blocks by both stages.
pub const LEAF_BLOCK: usize = dsidx_isax::COARSE_BLOCK;

/// A node in the flattened tree (44 bytes, the snapshot's node record).
///
/// Children are laid out depth-first, so an inner node's zero child sits
/// at `self_index + 1` and only the one child's index is stored. The
/// depth-first layout also makes every *subtree's* entries contiguous, so
/// each node records its subtree's entry range — leaves use it as their
/// content, inner nodes use it for O(1) emptiness checks during guided
/// descents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatNode {
    pub(crate) prefixes: [u8; MAX_SEGMENTS],
    pub(crate) bits: [u8; MAX_SEGMENTS],
    /// Start of this subtree's entry range.
    pub(crate) entry_start: u32,
    /// End of this subtree's entry range.
    pub(crate) entry_end: u32,
    /// Index of the one-child; `NO_CHILD` for leaves.
    pub(crate) one_child: u32,
}

const NO_CHILD: u32 = u32::MAX;

impl FlatNode {
    /// A leaf record for `word` over entries `entry_start..entry_end` (it
    /// becomes an inner node once its one child is linked).
    fn new(word: &NodeWord, entry_start: u32, entry_end: u32) -> Self {
        let mut prefixes = [0u8; MAX_SEGMENTS];
        let mut bits = [0u8; MAX_SEGMENTS];
        for seg in 0..word.segments() {
            prefixes[seg] = word.prefix(seg);
            bits[seg] = word.bits(seg);
        }
        Self {
            prefixes,
            bits,
            entry_start,
            entry_end,
            one_child: NO_CHILD,
        }
    }

    /// `true` if this is a leaf.
    #[inline]
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        self.one_child == NO_CHILD
    }

    /// The subtree's entry range within the flat entry array (for leaves:
    /// exactly their own entries).
    #[inline]
    #[must_use]
    pub fn entry_range(&self) -> std::ops::Range<usize> {
        self.entry_start as usize..self.entry_end as usize
    }

    /// Number of entries below this node.
    #[inline]
    #[must_use]
    pub fn subtree_len(&self) -> usize {
        (self.entry_end - self.entry_start) as usize
    }

    /// An inner node's children: `(zero_child, one_child)` node indices.
    /// The zero child always directly follows its parent (depth-first
    /// layout), so descents towards it stay sequential in memory.
    #[inline]
    #[must_use]
    pub fn children(&self, self_index: u32) -> (u32, u32) {
        debug_assert!(!self.is_leaf());
        (self_index + 1, self.one_child)
    }

    /// Looks up this node's lower bound in a per-query table.
    #[inline]
    #[must_use]
    pub fn mindist_sq(&self, table: &NodeMindistTable) -> f32 {
        table.lookup_parts(&self.bits, &self.prefixes)
    }

    /// The node's word over `segments` segments; `None` unless it is
    /// representable and every slot past `segments` is zero.
    pub(crate) fn word(&self, segments: usize) -> Option<NodeWord> {
        let mut unused = self.prefixes[segments..]
            .iter()
            .chain(&self.bits[segments..]);
        if unused.any(|&b| b != 0) {
            return None;
        }
        NodeWord::from_parts(&self.prefixes[..segments], &self.bits[..segments])
    }
}

/// The flattened index: dense arrays for traversal.
///
/// `PartialEq` compares everything — nodes, roots, words, positions — so a
/// decoded snapshot can be checked against the tree it was saved from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatTree {
    /// All nodes, subtree by subtree, each subtree depth-first
    /// (zero-child-adjacent).
    pub(crate) nodes: Vec<FlatNode>,
    /// `(root key, node index)` for every occupied root, key-ascending.
    pub(crate) roots: Vec<(u16, u32)>,
    /// Every leaf's iSAX words, leaf-contiguous, followed by
    /// `LEAF_BLOCK - 1` filler words so the last leaf can be padded too.
    pub(crate) words: Vec<Word>,
    /// Raw-data position of each word (no filler: `words.len() -
    /// (LEAF_BLOCK - 1)` of them).
    pub(crate) positions: Vec<u32>,
    /// The configuration the tree was built under, fitted to its
    /// collection.
    pub(crate) config: TreeConfig,
}

/// Root subtrees laid out on their own, keys ascending: the unit a build
/// worker hands over once it has grown a run of subtrees, straight into it
/// ([`grow`](Self::grow)) or from boxed nodes it can then drop
/// ([`push`](Self::push)). Node indices, child links and entry ranges
/// count from the fragment's start; [`FlatTree::stitch`] rebases them.
#[derive(Debug, Default)]
pub struct FlatFragment {
    /// `(root key, node index)` of each subtree, keys ascending.
    roots: Vec<(u16, u32)>,
    nodes: Vec<FlatNode>,
    words: Vec<Word>,
    positions: Vec<u32>,
}

impl FlatFragment {
    /// An empty fragment with room for `entries` entries (and for the
    /// filler words a stitched tree ends with).
    #[must_use]
    pub fn with_capacity(entries: usize) -> Self {
        Self {
            words: Vec::with_capacity(entries + LEAF_BLOCK - 1),
            positions: Vec::with_capacity(entries),
            ..Self::default()
        }
    }

    /// Appends the subtree `root` under root key `key`: nodes depth-first,
    /// zero child adjacent, entries leaf-contiguous (O(nodes + entries)).
    ///
    /// # Panics
    /// Panics unless `key` is above every key already in the fragment.
    pub fn push(&mut self, key: u16, root: &Node) {
        self.assert_after_last(key);
        let idx = self.push_subtree(root);
        self.roots.push((key, idx));
    }

    fn push_subtree(&mut self, node: &Node) -> u32 {
        let my_index = self.nodes.len() as u32;
        let entry_start = self.positions.len() as u32;
        self.nodes
            .push(FlatNode::new(node.word(), entry_start, entry_start));
        if let Some((_, zero, one)) = node.children() {
            let zero_idx = self.push_subtree(zero);
            debug_assert_eq!(zero_idx, my_index + 1, "zero child is adjacent");
            let one_idx = self.push_subtree(one);
            self.nodes[my_index as usize].one_child = one_idx;
        } else {
            let entries = node.entries().expect("resident leaf");
            self.words.extend(entries.iter().map(|e| e.word));
            self.positions.extend(entries.iter().map(|e| e.pos));
        }
        self.nodes[my_index as usize].entry_end = self.positions.len() as u32;
        my_index
    }

    /// Appends the subtree of root key `key` grown from all of its entries
    /// at once, straight into the fragment: the tree [`Node::insert`]
    /// builds from the same entries in the same order, without a node.
    ///
    /// A node holding at most `leaf_capacity` entries is a leaf. A larger
    /// one votes on its first `leaf_capacity + 1` entries — what a leaf
    /// filled by inserts holds when it first overflows — and
    /// stable-partitions all of them on the chosen bit, which is the order
    /// each child would have received them in; both children then grow the
    /// same way. A node whose vote finds no segment left to refine is a
    /// leaf that overflows, as an inserted one does.
    ///
    /// `entries` all carry root key `key`, in the order they would be
    /// inserted (position order, for every builder); they are left in the
    /// fragment's leaf order.
    ///
    /// # Panics
    /// Panics unless `key` is above every key already in the fragment.
    pub fn grow(&mut self, key: u16, entries: &mut [LeafEntry], config: &TreeConfig) {
        self.assert_after_last(key);
        let capacity = config.leaf_capacity();
        // Only a subtree that splits needs room to partition into.
        let mut scratch = if entries.len() > capacity {
            entries.to_vec()
        } else {
            Vec::new()
        };
        let start = self.positions.len() as u32;
        let idx = self.grow_node(
            config.root_word(key),
            entries,
            start,
            &mut scratch,
            capacity,
        );
        self.words.extend(entries.iter().map(|e| e.word));
        self.positions.extend(entries.iter().map(|e| e.pos));
        self.roots.push((key, idx));
    }

    /// Appends the node `word` over `entries` (fragment entries from
    /// `start` on) and, if it splits, its subtree; returns its index.
    fn grow_node(
        &mut self,
        word: NodeWord,
        entries: &mut [LeafEntry],
        start: u32,
        scratch: &mut [LeafEntry],
        capacity: usize,
    ) -> u32 {
        let my_index = self.nodes.len() as u32;
        self.nodes
            .push(FlatNode::new(&word, start, start + entries.len() as u32));
        if entries.len() <= capacity {
            return my_index;
        }
        let voters = entries[..=capacity].iter().map(|e| &e.word);
        let Some(seg) = choose_split_segment(voters, &word) else {
            return my_index;
        };
        let zeros = stable_partition(entries, scratch, &word, seg);
        let (zero_word, one_word) = word.split(seg);
        let (zero, one) = entries.split_at_mut(zeros);
        let zero_idx = self.grow_node(zero_word, zero, start, scratch, capacity);
        debug_assert_eq!(zero_idx, my_index + 1, "zero child is adjacent");
        let one_idx = self.grow_node(one_word, one, start + zeros as u32, scratch, capacity);
        self.nodes[my_index as usize].one_child = one_idx;
        my_index
    }

    /// # Panics
    /// Panics unless `key` is above every key already in the fragment.
    fn assert_after_last(&self, key: u16) {
        assert!(
            self.roots.last().is_none_or(|&(last, _)| last < key),
            "subtrees out of key order"
        );
    }
}

/// Moves the entries whose next bit below `node` on `seg` is zero to the
/// front of `entries` and the others behind them, each side in its old
/// order; returns how many are zero. Branch-free: every entry is written
/// to both sides (the zero side in place — its cursor never passes the
/// entry being read — and the one side into `scratch`) and only its own
/// side's cursor advances.
fn stable_partition(
    entries: &mut [LeafEntry],
    scratch: &mut [LeafEntry],
    node: &NodeWord,
    seg: usize,
) -> usize {
    let shift = MAX_BITS - 1 - node.bits(seg);
    let (mut zeros, mut ones) = (0, 0);
    for i in 0..entries.len() {
        let entry = entries[i];
        let one = usize::from((entry.word.symbol(seg) >> shift) & 1);
        entries[zeros] = entry;
        scratch[ones] = entry;
        zeros += 1 - one;
        ones += one;
    }
    entries[zeros..].copy_from_slice(&scratch[..ones]);
    zeros
}

impl FlatTree {
    /// Flattens a built index (O(nodes + entries)): every occupied root's
    /// subtree into one [`FlatFragment`], then [`stitch`](Self::stitch).
    /// ParIS/ParIS+ end their builds with it; MESSI and ADS+ grow their
    /// fragments directly ([`FlatFragment::grow`]).
    #[must_use]
    pub fn from_index(index: &Index) -> Self {
        let mut fragment = FlatFragment::with_capacity(index.len());
        for &key in index.occupied_roots() {
            fragment.push(key, index.root(key).expect("occupied root exists"));
        }
        Self::stitch(index.config().clone(), vec![fragment])
    }

    /// Concatenates fragments into one tree under `config`, rebasing each
    /// fragment's node indices and entry ranges by what precedes it. The
    /// first fragment's arrays are taken over as they are (it needs no
    /// rebase); every other fragment is copied and dropped.
    ///
    /// # Panics
    /// Panics unless the keys ascend across the fragments (each occupied
    /// root once).
    #[must_use]
    pub fn stitch(config: TreeConfig, fragments: Vec<FlatFragment>) -> Self {
        let nodes: usize = fragments.iter().map(|f| f.nodes.len()).sum();
        let entries: usize = fragments.iter().map(|f| f.positions.len()).sum();
        let mut fragments = fragments.into_iter();
        let first = fragments.next().unwrap_or_default();
        let mut flat = FlatTree {
            nodes: first.nodes,
            roots: first.roots,
            words: first.words,
            positions: first.positions,
            config,
        };
        flat.nodes.reserve_exact(nodes - flat.nodes.len());
        flat.words
            .reserve_exact(entries + LEAF_BLOCK - 1 - flat.words.len());
        flat.positions.reserve_exact(entries - flat.positions.len());
        for fragment in fragments {
            let (last, next) = (flat.roots.last(), fragment.roots.first());
            assert!(
                last.zip(next).is_none_or(|(a, b)| a.0 < b.0),
                "fragments out of key order"
            );
            let node_base = flat.nodes.len() as u32;
            let entry_base = flat.positions.len() as u32;
            flat.roots.extend(
                fragment
                    .roots
                    .iter()
                    .map(|&(key, idx)| (key, idx + node_base)),
            );
            flat.nodes.extend(fragment.nodes.iter().map(|n| FlatNode {
                entry_start: n.entry_start + entry_base,
                entry_end: n.entry_end + entry_base,
                one_child: if n.is_leaf() {
                    NO_CHILD
                } else {
                    n.one_child + node_base
                },
                ..*n
            }));
            flat.words.extend_from_slice(&fragment.words);
            flat.positions.extend_from_slice(&fragment.positions);
        }
        flat.pad_words();
        flat
    }

    /// Appends the `LEAF_BLOCK - 1` filler words that let the last leaf be
    /// bounded in whole blocks.
    pub(crate) fn pad_words(&mut self) {
        let filler = Word::new(&[0u8; MAX_SEGMENTS][..self.config.segments()]);
        self.words
            .extend(std::iter::repeat_n(filler, LEAF_BLOCK - 1));
    }

    /// Occupied `(root key, node index)` pairs, key-ascending.
    #[inline]
    #[must_use]
    pub fn roots(&self) -> &[(u16, u32)] {
        &self.roots
    }

    /// The node at `idx`.
    #[inline]
    #[must_use]
    pub fn node(&self, idx: u32) -> &FlatNode {
        &self.nodes[idx as usize]
    }

    /// All nodes.
    #[inline]
    #[must_use]
    pub fn nodes(&self) -> &[FlatNode] {
        &self.nodes
    }

    /// The iSAX words of a leaf's entries, index-aligned with
    /// [`leaf_positions`](Self::leaf_positions).
    ///
    /// # Panics
    /// Debug-asserts the node is a leaf (an inner node's range spans its
    /// whole subtree).
    #[inline]
    #[must_use]
    pub fn leaf_words(&self, node: &FlatNode) -> &[Word] {
        debug_assert!(node.is_leaf());
        &self.words[node.entry_range()]
    }

    /// [`leaf_words`](Self::leaf_words) extended to the next multiple of
    /// [`LEAF_BLOCK`] words: the leaf's own words first, then whatever
    /// follows them in the array (the next leaf's words or filler). Bound
    /// the whole run with the batched kernel and read only the first
    /// `subtree_len()` results.
    #[inline]
    #[must_use]
    pub fn leaf_words_padded(&self, node: &FlatNode) -> &[Word] {
        debug_assert!(node.is_leaf());
        let start = node.entry_start as usize;
        &self.words[start..start + node.subtree_len().next_multiple_of(LEAF_BLOCK)]
    }

    /// The raw-data positions of a leaf's entries.
    ///
    /// # Panics
    /// Debug-asserts the node is a leaf.
    #[inline]
    #[must_use]
    pub fn leaf_positions(&self, node: &FlatNode) -> &[u32] {
        debug_assert!(node.is_leaf());
        &self.positions[node.entry_range()]
    }

    /// Total number of entries.
    #[inline]
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.positions.len()
    }

    /// The configuration the tree was built under.
    #[inline]
    #[must_use]
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// Every entry's iSAX word, leaf-contiguous (no filler), index-aligned
    /// with [`positions`](Self::positions). Each series' word appears
    /// once: this is the paper's SAX array, in leaf order.
    #[inline]
    #[must_use]
    pub fn words(&self) -> &[Word] {
        &self.words[..self.positions.len()]
    }

    /// Every entry's raw-data position, leaf-contiguous.
    #[inline]
    #[must_use]
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }

    /// Descends from node `idx` towards `word`, detouring around empty
    /// subtrees so the returned leaf always holds at least one entry (for
    /// an indexed word: the leaf holding it). Returns `None` when the
    /// subtree at `idx` is entirely empty.
    #[must_use]
    pub fn descend_non_empty(&self, mut idx: u32, word: &Word) -> Option<u32> {
        if self.node(idx).subtree_len() == 0 {
            return None;
        }
        loop {
            let node = self.node(idx);
            if node.is_leaf() {
                return Some(idx);
            }
            // The split segment is the one where the children carry one
            // more bit; recover the branch from the word's next bit.
            let (zero, one) = node.children(idx);
            let zero_node = self.node(zero);
            let seg = (0..self.config.segments())
                .find(|&s| zero_node.bits[s] == node.bits[s] + 1)
                .expect("inner node has a refined segment");
            let bit = (word.symbol(seg) >> (dsidx_isax::MAX_BITS - node.bits[seg] - 1)) & 1;
            let (matching, sibling) = if bit == 1 { (one, zero) } else { (zero, one) };
            idx = if self.node(matching).subtree_len() > 0 {
                matching
            } else {
                sibling
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_isax::Quantizer;

    fn build_index(n: u64, cap: usize) -> (TreeConfig, Index, Vec<LeafEntry>) {
        // Three of eight segments in the root key, whatever `n`: every
        // subtree starts from a word with zero-bit segments.
        let cfg = TreeConfig::new(64, 8, cap).unwrap().fitted_to(8 * cap);
        assert_eq!(cfg.root_segments(), 3);
        let mut idx = Index::new(cfg.clone());
        let mut entries = Vec::new();
        for seed in 0..n {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let s: Vec<f32> = (0..64)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    ((state >> 40) as f32 / 16_777_216.0) * 4.0 - 2.0
                })
                .collect();
            let e = LeafEntry::new(cfg.quantizer().word(&s), seed as u32);
            idx.insert(e);
            entries.push(e);
        }
        (cfg, idx, entries)
    }

    #[test]
    fn flattening_preserves_every_entry() {
        let (_, idx, entries) = build_index(500, 8);
        let flat = FlatTree::from_index(&idx);
        assert_eq!(flat.entry_count(), 500);
        assert_eq!(flat.roots().len(), idx.occupied_roots().len());
        let mut seen: Vec<u32> = flat
            .nodes()
            .iter()
            .filter(|n| n.is_leaf())
            .flat_map(|n| flat.leaf_positions(n).iter().copied())
            .collect();
        seen.sort_unstable();
        let mut want: Vec<u32> = entries.iter().map(|e| e.pos).collect();
        want.sort_unstable();
        assert_eq!(seen, want);
        // Its `(word, position)` pairs are the inserted entries.
        let mut pairs: Vec<LeafEntry> = flat
            .words()
            .iter()
            .zip(flat.positions())
            .map(|(&word, &pos)| LeafEntry::new(word, pos))
            .collect();
        pairs.sort_unstable_by_key(|e| e.pos);
        assert_eq!(pairs, entries);
    }

    #[test]
    fn flat_structure_mirrors_boxed_structure() {
        let (_, idx, _) = build_index(400, 4);
        let flat = FlatTree::from_index(&idx);
        // Walk both trees in lockstep.
        fn check(flat: &FlatTree, fidx: u32, node: &Node) {
            let fnode = flat.node(fidx);
            assert_eq!(fnode.is_leaf(), node.is_leaf());
            assert_eq!(
                fnode.word(flat.config().segments()).as_ref(),
                Some(node.word())
            );
            if let Some((_, zero, one)) = node.children() {
                let (fz, fo) = fnode.children(fidx);
                check(flat, fz, zero);
                check(flat, fo, one);
            } else {
                let want = node.entries().unwrap();
                let got: Vec<LeafEntry> = flat
                    .leaf_words(fnode)
                    .iter()
                    .zip(flat.leaf_positions(fnode))
                    .map(|(&word, &pos)| LeafEntry::new(word, pos))
                    .collect();
                assert_eq!(got, want);
            }
        }
        for (i, &key) in idx.occupied_roots().iter().enumerate() {
            let (fkey, fidx) = flat.roots()[i];
            assert_eq!(fkey, key);
            check(&flat, fidx, idx.root(key).unwrap());
        }
    }

    #[test]
    fn descend_agrees_with_boxed_descend() {
        let (cfg, idx, entries) = build_index(600, 4);
        let flat = FlatTree::from_index(&idx);
        let q = Quantizer::new(64, 8).unwrap();
        assert_eq!(q.segments(), cfg.segments());
        // The boxed leaf each entry was routed into on insert.
        let mut leaf_of = vec![Vec::new(); entries.len()];
        idx.for_each_leaf(&mut |leaf| {
            let positions: Vec<u32> = leaf.entries().unwrap().iter().map(|e| e.pos).collect();
            for &pos in &positions {
                leaf_of[pos as usize].clone_from(&positions);
            }
        });
        for e in entries.iter().step_by(7) {
            let root_pos = idx
                .occupied_roots()
                .binary_search(&cfg.root_key(&e.word))
                .unwrap();
            let (_, root_idx) = flat.roots()[root_pos];
            let flat_leaf = flat.node(flat.descend_non_empty(root_idx, &e.word).unwrap());
            assert_eq!(flat.leaf_positions(flat_leaf), leaf_of[e.pos as usize]);
        }
    }

    #[test]
    fn mindist_matches_node_word_lookup() {
        let (cfg, idx, _) = build_index(300, 4);
        let flat = FlatTree::from_index(&idx);
        let q = cfg.quantizer();
        let paa: Vec<f32> = (0..8).map(|i| i as f32 * 0.2 - 0.8).collect();
        let table = NodeMindistTable::new_point(&paa, q.segment_lens());
        fn check(flat: &FlatTree, fidx: u32, node: &Node, table: &NodeMindistTable) {
            let direct = table.lookup(node.word());
            let got = flat.node(fidx).mindist_sq(table);
            assert!((direct - got).abs() <= direct.abs() * 1e-6 + 1e-7);
            if let Some((_, zero, one)) = node.children() {
                let (fz, fo) = flat.node(fidx).children(fidx);
                check(flat, fz, zero, table);
                check(flat, fo, one, table);
            }
        }
        for (i, &key) in idx.occupied_roots().iter().enumerate() {
            let (_, fidx) = flat.roots()[i];
            check(&flat, fidx, idx.root(key).unwrap(), &table);
        }
    }

    /// `idx`'s subtrees as fragments of `per` subtrees each.
    fn fragments(idx: &Index, per: usize) -> Vec<FlatFragment> {
        idx.occupied_roots()
            .chunks(per)
            .map(|keys| {
                let mut fragment = FlatFragment::default();
                for &key in keys {
                    fragment.push(key, idx.root(key).unwrap());
                }
                fragment
            })
            .collect()
    }

    #[test]
    fn stitched_fragments_equal_the_serial_flatten() {
        let (cfg, idx, _) = build_index(500, 8);
        let serial = FlatTree::from_index(&idx);
        assert!(serial.roots().len() > 3);
        for per in [1, 2, 3] {
            assert_eq!(
                FlatTree::stitch(cfg.clone(), fragments(&idx, per)),
                serial,
                "per={per}"
            );
        }
    }

    /// `entries` grown by partition, subtree by subtree, into one fragment.
    fn grown(cfg: &TreeConfig, entries: &[LeafEntry]) -> FlatTree {
        let mut buffers = vec![Vec::new(); cfg.root_count()];
        for e in entries {
            buffers[usize::from(cfg.root_key(&e.word))].push(*e);
        }
        let mut fragment = FlatFragment::with_capacity(entries.len());
        for (key, buffer) in buffers.iter_mut().enumerate() {
            if !buffer.is_empty() {
                fragment.grow(key as u16, buffer, cfg);
            }
        }
        FlatTree::stitch(cfg.clone(), vec![fragment])
    }

    #[test]
    fn grown_subtrees_equal_inserted_ones() {
        for cap in [1, 4, 8] {
            let (cfg, idx, entries) = build_index(600, cap);
            assert_eq!(
                grown(&cfg, &entries),
                FlatTree::from_index(&idx),
                "capacity {cap}"
            );
        }
    }

    #[test]
    fn a_grown_leaf_overflows_where_identical_words_cannot_split() {
        // Ten copies of one word, two near misses and a stranger, in leaves
        // of two: the copies are split apart from the rest down to full
        // cardinality on every segment, where the vote has nothing left to
        // refine and their leaf overflows, exactly as inserts leave it.
        let cfg = TreeConfig::new(64, 4, 2).unwrap().fitted_to(8);
        let same = Word::new(&[5, 9, 200, 31]);
        let mut entries: Vec<LeafEntry> = (0..10).map(|pos| LeafEntry::new(same, pos)).collect();
        for (pos, symbols) in [[6, 9, 200, 31], [5, 9, 201, 31], [100, 50, 7, 3]]
            .iter()
            .enumerate()
        {
            entries.push(LeafEntry::new(Word::new(symbols), 10 + pos as u32));
        }
        let mut serial = Index::new(cfg.clone());
        for e in &entries {
            serial.insert(*e);
        }
        let tree = grown(&cfg, &entries);
        assert_eq!(tree, FlatTree::from_index(&serial));
        let stats = crate::stats::index_stats(&tree);
        assert_eq!((stats.entry_count, stats.max_leaf_len), (13, 10));
    }

    #[test]
    #[should_panic(expected = "fragments out of key order")]
    fn stitch_refuses_fragments_out_of_key_order() {
        let (cfg, idx, _) = build_index(500, 8);
        let mut fragments = fragments(&idx, 1);
        fragments.swap(0, 1);
        let _ = FlatTree::stitch(cfg, fragments);
    }

    #[test]
    fn empty_index_flattens_empty() {
        let cfg = TreeConfig::new(64, 8, 4).unwrap();
        let idx = Index::new(cfg);
        let flat = FlatTree::from_index(&idx);
        assert_eq!(flat.entry_count(), 0);
        assert!(flat.roots().is_empty());
        assert!(flat.nodes().is_empty());
        assert!(flat.words().is_empty());
    }
}
