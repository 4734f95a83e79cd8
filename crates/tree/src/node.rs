//! Tree nodes, the form of a tree grown by inserts: leaves, inner nodes,
//! splitting, leaf materialization bookkeeping.
//!
//! [`Node::insert`] is for entries that arrive a few at a time: ParIS and
//! ParIS+ fill each subtree generation by generation and flush its leaves
//! in between, and [`crate::Index::insert`] takes one entry at a time. A
//! builder that holds all of a subtree's entries up front grows it
//! straight into the flat form instead ([`crate::FlatFragment::grow`]),
//! which gives the same tree for the same entries in the same order. Once
//! construction ends the graph is flattened ([`crate::flat`]) and dropped,
//! so nothing after a build — queries, snapshots, opens — sees a `Node`.

use crate::config::TreeConfig;
use crate::entry::LeafEntry;
use dsidx_isax::split::choose_split_segment;
use dsidx_isax::NodeWord;

/// A leaf's contents.
///
/// Entries always stay resident (the split policy needs their words); the
/// `flushed` prefix counts those ParIS/ParIS+ have already materialized to
/// the leaf store. The paper flushes leaves "to free space in main memory"
/// — at this reproduction's laptop scale the summaries fit comfortably, so
/// we model the *I/O cost* of materialization (every flush is charged to
/// the device) while keeping the bytes resident. Where a flush lands is
/// not recorded: a leaf is read back by its entry range in the flat tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeafPayload {
    /// All entries of this leaf.
    pub entries: Vec<LeafEntry>,
    /// How many of `entries` (as a prefix) are already on disk.
    pub flushed: u32,
}

/// A subtree node. Roots of subtrees are `Node`s owned by
/// [`crate::Index`]'s slot table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    word: NodeWord,
    kind: NodeKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum NodeKind {
    Leaf(LeafPayload),
    Inner {
        split_seg: u8,
        zero: Box<Node>,
        one: Box<Node>,
    },
}

impl Node {
    /// A fresh empty leaf with the given word.
    #[must_use]
    pub fn new_leaf(word: NodeWord) -> Self {
        Self {
            word,
            kind: NodeKind::Leaf(LeafPayload::default()),
        }
    }

    /// The node's variable-cardinality word.
    #[inline]
    #[must_use]
    pub fn word(&self) -> &NodeWord {
        &self.word
    }

    /// `true` for leaves.
    #[inline]
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf(_))
    }

    /// The leaf payload, if this is a leaf.
    #[must_use]
    pub fn payload(&self) -> Option<&LeafPayload> {
        match &self.kind {
            NodeKind::Leaf(p) => Some(p),
            NodeKind::Inner { .. } => None,
        }
    }

    /// Leaf entries, if this is a leaf.
    #[must_use]
    pub fn entries(&self) -> Option<&[LeafEntry]> {
        self.payload().map(|p| p.entries.as_slice())
    }

    /// The two children and the split segment, if this is an inner node.
    #[must_use]
    pub fn children(&self) -> Option<(usize, &Node, &Node)> {
        match &self.kind {
            NodeKind::Inner {
                split_seg,
                zero,
                one,
            } => Some((*split_seg as usize, zero, one)),
            NodeKind::Leaf(_) => None,
        }
    }

    /// Inserts an entry, splitting overflowing leaves.
    ///
    /// # Panics
    /// In debug builds, panics if the entry does not belong under this node.
    pub fn insert(&mut self, entry: LeafEntry, config: &TreeConfig) {
        debug_assert!(
            self.word.contains(&entry.word),
            "entry routed to wrong subtree"
        );
        match &mut self.kind {
            NodeKind::Leaf(payload) => {
                payload.entries.push(entry);
                if payload.entries.len() > config.leaf_capacity() {
                    self.split(config);
                }
            }
            NodeKind::Inner {
                split_seg,
                zero,
                one,
            } => {
                let child = if self.word.split_bit(&entry.word, *split_seg as usize) {
                    one
                } else {
                    zero
                };
                child.insert(entry, config);
            }
        }
    }

    /// Splits a leaf into two children (recursively while a child still
    /// overflows). No-op if no segment can be refined further.
    ///
    /// Splitting discards the leaf's flush bookkeeping: the children are
    /// new leaves whose contents have not been materialized (real systems
    /// rewrite leaf files on split, and so do we — the next flush re-writes
    /// both children in full).
    fn split(&mut self, config: &TreeConfig) {
        let NodeKind::Leaf(payload) = &mut self.kind else {
            unreachable!("split called on inner node");
        };
        let Some(seg) = choose_split_segment(payload.entries.iter().map(|e| &e.word), &self.word)
        else {
            // Every segment at max cardinality: the leaf may exceed its
            // capacity (identical words are inseparable).
            return;
        };
        let taken = std::mem::take(&mut payload.entries);
        let (zero_word, one_word) = self.word.split(seg);
        let mut zero = Box::new(Node::new_leaf(zero_word));
        let mut one = Box::new(Node::new_leaf(one_word));
        let mut zero_entries = Vec::with_capacity(taken.len());
        let mut one_entries = Vec::with_capacity(taken.len());
        for e in taken {
            if self.word.split_bit(&e.word, seg) {
                one_entries.push(e);
            } else {
                zero_entries.push(e);
            }
        }
        zero.kind = NodeKind::Leaf(LeafPayload {
            entries: zero_entries,
            ..Default::default()
        });
        one.kind = NodeKind::Leaf(LeafPayload {
            entries: one_entries,
            ..Default::default()
        });
        if zero.entries().map_or(0, <[LeafEntry]>::len) > config.leaf_capacity() {
            zero.split(config);
        }
        if one.entries().map_or(0, <[LeafEntry]>::len) > config.leaf_capacity() {
            one.split(config);
        }
        self.kind = NodeKind::Inner {
            split_seg: seg as u8,
            zero,
            one,
        };
    }

    /// Visits every leaf below this node (depth-first, zero child first).
    pub fn for_each_leaf<'a>(&'a self, f: &mut impl FnMut(&'a Node)) {
        match &self.kind {
            NodeKind::Leaf(_) => f(self),
            NodeKind::Inner { zero, one, .. } => {
                zero.for_each_leaf(f);
                one.for_each_leaf(f);
            }
        }
    }

    /// Visits every leaf mutably (used by the flush path).
    pub fn for_each_leaf_mut(&mut self, f: &mut impl FnMut(&mut Node)) {
        match &mut self.kind {
            NodeKind::Leaf(_) => f(self),
            NodeKind::Inner { zero, one, .. } => {
                zero.for_each_leaf_mut(f);
                one.for_each_leaf_mut(f);
            }
        }
    }

    /// Entries appended since the last flush (the suffix to materialize).
    ///
    /// # Panics
    /// Panics on inner nodes.
    #[must_use]
    pub fn unflushed_entries(&self) -> &[LeafEntry] {
        let payload = self.payload().expect("unflushed_entries on inner node");
        &payload.entries[payload.flushed as usize..]
    }

    /// Records that the previously unflushed suffix is now on disk.
    ///
    /// # Panics
    /// Panics on inner nodes.
    pub fn mark_flushed(&mut self) {
        let NodeKind::Leaf(payload) = &mut self.kind else {
            panic!("mark_flushed on inner node");
        };
        payload.flushed = payload.entries.len() as u32;
    }

    /// Number of entries below this node.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf(p) => p.entries.len(),
            NodeKind::Inner { zero, one, .. } => zero.entry_count() + one.entry_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_isax::{Quantizer, Word};

    /// Four segments, the first two in the root key.
    fn config(cap: usize) -> TreeConfig {
        let config = TreeConfig::new(32, 4, cap).unwrap().fitted_to(3 * cap);
        assert_eq!(config.root_segments(), 2);
        config
    }

    fn entry(q: &Quantizer, seed: u64) -> LeafEntry {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let s: Vec<f32> = (0..32)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / 16_777_216.0) * 4.0 - 2.0
            })
            .collect();
        LeafEntry::new(q.word(&s), seed as u32)
    }

    fn entries_for_root(cfg: &TreeConfig, key: u16, n: usize) -> Vec<LeafEntry> {
        let q = cfg.quantizer();
        let mut out = Vec::new();
        let mut seed = 0u64;
        while out.len() < n {
            let e = entry(q, seed);
            if cfg.root_key(&e.word) == key {
                out.push(e);
            }
            seed += 1;
        }
        out
    }

    fn any_key(cfg: &TreeConfig) -> u16 {
        cfg.root_key(&entry(cfg.quantizer(), 0).word)
    }

    #[test]
    fn leaf_holds_until_capacity() {
        let cfg = config(4);
        let key = any_key(&cfg);
        let es = entries_for_root(&cfg, key, 4);
        let mut node = Node::new_leaf(cfg.root_word(key));
        for e in &es {
            node.insert(*e, &cfg);
        }
        assert!(node.is_leaf());
        assert_eq!(node.entries().unwrap().len(), 4);
        assert_eq!(node.entry_count(), 4);
    }

    #[test]
    fn overflow_splits_and_partitions() {
        let cfg = config(4);
        let key = any_key(&cfg);
        let es = entries_for_root(&cfg, key, 20);
        let mut node = Node::new_leaf(cfg.root_word(key));
        for e in &es {
            node.insert(*e, &cfg);
        }
        assert!(!node.is_leaf(), "20 entries with capacity 4 must split");
        assert_eq!(node.entry_count(), 20);
        let mut total = 0;
        node.for_each_leaf(&mut |leaf| {
            let entries = leaf.entries().unwrap();
            total += entries.len();
            assert!(entries.len() <= cfg.leaf_capacity());
            for e in entries {
                assert!(leaf.word().contains(&e.word));
            }
        });
        assert_eq!(total, 20);
    }

    #[test]
    fn descend_finds_containing_leaf() {
        let cfg = config(2);
        let key = any_key(&cfg);
        let es = entries_for_root(&cfg, key, 12);
        let mut node = Node::new_leaf(cfg.root_word(key));
        for e in &es {
            node.insert(*e, &cfg);
        }
        // Leaf words partition the subtree: each entry's word falls under
        // exactly one leaf, and that leaf holds it.
        for e in &es {
            let mut holders = Vec::new();
            node.for_each_leaf(&mut |leaf| {
                if leaf.word().contains(&e.word) {
                    holders.push(leaf);
                }
            });
            assert_eq!(holders.len(), 1);
            assert!(holders[0].entries().unwrap().iter().any(|x| x.pos == e.pos));
        }
    }

    #[test]
    fn identical_words_overflow_gracefully() {
        let cfg = config(2);
        let w = Word::new(&[5, 9, 200, 31]);
        let mut node = Node::new_leaf(cfg.root_word(cfg.root_key(&w)));
        for pos in 0..10 {
            node.insert(LeafEntry::new(w, pos), &cfg);
        }
        assert_eq!(node.entry_count(), 10);
        let mut leaves = 0;
        node.for_each_leaf(&mut |_| leaves += 1);
        assert!(leaves >= 1);
    }

    #[test]
    fn flush_bookkeeping_tracks_suffixes() {
        let cfg = config(10);
        let key = any_key(&cfg);
        let es = entries_for_root(&cfg, key, 6);
        let mut node = Node::new_leaf(cfg.root_word(key));
        for e in &es[..4] {
            node.insert(*e, &cfg);
        }
        assert_eq!(node.unflushed_entries().len(), 4);
        node.mark_flushed();
        assert_eq!(node.unflushed_entries().len(), 0);
        // Two more entries arrive in the next generation.
        for e in &es[4..] {
            node.insert(*e, &cfg);
        }
        assert_eq!(node.unflushed_entries(), &es[4..]);
        node.mark_flushed();
        assert_eq!(node.payload().unwrap().flushed, 6);
    }

    #[test]
    fn split_resets_flush_state() {
        let cfg = config(4);
        let key = any_key(&cfg);
        let es = entries_for_root(&cfg, key, 5);
        let mut node = Node::new_leaf(cfg.root_word(key));
        for e in &es[..4] {
            node.insert(*e, &cfg);
        }
        node.mark_flushed();
        node.insert(es[4], &cfg); // overflow -> split
        assert!(!node.is_leaf());
        node.for_each_leaf(&mut |leaf| {
            let p = leaf.payload().unwrap();
            assert_eq!(p.flushed, 0, "children start unflushed");
        });
    }

    #[test]
    fn children_accessor() {
        let cfg = config(1);
        let key = any_key(&cfg);
        let es = entries_for_root(&cfg, key, 6);
        let mut node = Node::new_leaf(cfg.root_word(key));
        for e in &es {
            node.insert(*e, &cfg);
        }
        let (seg, zero, one) = node.children().expect("must have split");
        assert!(seg < 4);
        assert_eq!(zero.word().bits(seg), node.word().bits(seg) + 1);
        assert_eq!(one.word().bits(seg), node.word().bits(seg) + 1);
    }
}
