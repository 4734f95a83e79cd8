//! The index under construction: root slot table + configuration.
//!
//! This is the build-time form of the tree — builders insert into it (or
//! assemble it from subtrees grown in parallel) and flatten it into a
//! [`FlatTree`](crate::FlatTree) when construction ends; nothing queries
//! it.
//!
//! The slot table has `2^r` entries, `r` being the configuration's derived
//! [`root_segments`](TreeConfig::root_segments): a word's slot is the top
//! bit of each of its `r` keyed segments. Whoever creates the index decides
//! `r` by the configuration it passes — the engines pass one fitted to
//! their collection, so a slot holds about a leaf's worth of series
//! instead of a handful.

use crate::config::TreeConfig;
use crate::entry::LeafEntry;
use crate::node::Node;

/// An iSAX tree index being built over a raw data source.
///
/// Holds one optional subtree per root key (`u16`: the configuration caps
/// `r` at 16). Engines build the subtrees — serially ([`Index::insert`])
/// or in parallel (building `Node`s for disjoint keys and assembling with
/// [`Index::from_roots`]) — and flatten the result, which reads them
/// through [`Index::root`]/[`Index::occupied_roots`].
///
/// `PartialEq` compares full structure (configuration, every node, every
/// leaf's entries in order) — what build-determinism tests assert.
#[derive(Debug, PartialEq, Eq)]
pub struct Index {
    config: TreeConfig,
    roots: Vec<Option<Box<Node>>>,
    /// Keys of non-empty root slots, ascending.
    occupied: Vec<u16>,
    len: usize,
}

impl Index {
    /// An empty index.
    #[must_use]
    pub fn new(config: TreeConfig) -> Self {
        let roots = (0..config.root_count()).map(|_| None).collect();
        Self {
            config,
            roots,
            occupied: Vec::new(),
            len: 0,
        }
    }

    /// Assembles an index from subtrees built in parallel.
    ///
    /// `roots` must have exactly `config.root_count()` slots.
    ///
    /// # Panics
    /// Panics on a slot-count mismatch.
    #[must_use]
    pub fn from_roots(config: TreeConfig, roots: Vec<Option<Box<Node>>>) -> Self {
        assert_eq!(roots.len(), config.root_count(), "root slot count mismatch");
        let occupied: Vec<u16> = roots
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_some())
            .map(|(k, _)| k as u16)
            .collect();
        let len = occupied
            .iter()
            .map(|&k| roots[k as usize].as_ref().map_or(0, |n| n.entry_count()))
            .sum();
        Self {
            config,
            roots,
            occupied,
            len,
        }
    }

    /// The configuration.
    #[inline]
    #[must_use]
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// Total number of indexed entries.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing has been indexed.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts one entry (serial engines).
    pub fn insert(&mut self, entry: LeafEntry) {
        let key = self.config.root_key(&entry.word);
        let slot = &mut self.roots[key as usize];
        match slot {
            Some(node) => node.insert(entry, &self.config),
            None => {
                let mut node = Box::new(Node::new_leaf(self.config.root_word(key)));
                node.insert(entry, &self.config);
                *slot = Some(node);
                let at = self.occupied.partition_point(|&k| k < key);
                self.occupied.insert(at, key);
            }
        }
        self.len += 1;
    }

    /// The subtree for a root key, if any.
    #[inline]
    #[must_use]
    pub fn root(&self, key: u16) -> Option<&Node> {
        self.roots[key as usize].as_deref()
    }

    /// Keys of the non-empty root subtrees, ascending.
    #[inline]
    #[must_use]
    pub fn occupied_roots(&self) -> &[u16] {
        &self.occupied
    }

    /// Visits every leaf in the index.
    pub fn for_each_leaf<'a>(&'a self, f: &mut impl FnMut(&'a Node)) {
        for &key in &self.occupied {
            if let Some(node) = self.root(key) {
                node.for_each_leaf(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_isax::{Quantizer, Word};

    /// Four segments, two of them in the root key: root words carry
    /// zero bits on the other two.
    fn config() -> TreeConfig {
        let config = TreeConfig::new(32, 4, 8).unwrap().fitted_to(20);
        assert_eq!(config.root_segments(), 2);
        config
    }

    fn entry(q: &Quantizer, seed: u64) -> LeafEntry {
        let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
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

    #[test]
    fn empty_index() {
        let idx = Index::new(config());
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert!(idx.occupied_roots().is_empty());
    }

    #[test]
    fn serial_inserts_are_all_findable() {
        let cfg = config();
        let mut idx = Index::new(cfg.clone());
        let entries: Vec<LeafEntry> = (0..500).map(|i| entry(cfg.quantizer(), i)).collect();
        for e in &entries {
            idx.insert(*e);
        }
        assert_eq!(idx.len(), 500);
        for e in &entries {
            let root = idx.root(cfg.root_key(&e.word)).expect("subtree exists");
            let mut found = false;
            root.for_each_leaf(&mut |leaf| {
                found |= leaf.word().contains(&e.word)
                    && leaf.entries().unwrap().iter().any(|x| x.pos == e.pos);
            });
            assert!(found, "entry {} not in the leaf of its word", e.pos);
        }
        // occupied_roots is sorted and deduplicated.
        let occ = idx.occupied_roots();
        assert!(occ.windows(2).all(|w| w[0] < w[1]));
        // Total across leaves equals len.
        let mut total = 0;
        idx.for_each_leaf(&mut |leaf| total += leaf.entry_count());
        assert_eq!(total, 500);
    }

    #[test]
    fn from_roots_matches_serial_build() {
        let cfg = config();
        let entries: Vec<LeafEntry> = (0..300).map(|i| entry(cfg.quantizer(), i)).collect();
        // Serial reference.
        let mut serial = Index::new(cfg.clone());
        for e in &entries {
            serial.insert(*e);
        }
        // Partitioned build.
        let mut slots: Vec<Option<Box<Node>>> = (0..cfg.root_count()).map(|_| None).collect();
        for e in &entries {
            let key = cfg.root_key(&e.word);
            let node = slots[usize::from(key)]
                .get_or_insert_with(|| Box::new(Node::new_leaf(cfg.root_word(key))));
            node.insert(*e, &cfg);
        }
        let built = Index::from_roots(cfg, slots);
        assert_eq!(built.len(), serial.len());
        assert_eq!(built.occupied_roots(), serial.occupied_roots());
    }

    #[test]
    fn leaf_for_missing_root_is_none() {
        let cfg = config();
        let mut idx = Index::new(cfg.clone());
        let e = entry(cfg.quantizer(), 1);
        idx.insert(e);
        // A word with a different root key than anything inserted.
        let mut symbols = [0u8; 4];
        for (i, s) in symbols.iter_mut().enumerate() {
            *s = if e.word.symbol(i) >= 128 { 0 } else { 255 };
        }
        let other = Word::new(&symbols);
        assert_ne!(cfg.root_key(&other), cfg.root_key(&e.word));
        assert!(idx.root(cfg.root_key(&other)).is_none());
        assert_eq!(idx.occupied_roots(), [cfg.root_key(&e.word)]);
    }

    #[test]
    #[should_panic(expected = "slot count mismatch")]
    fn from_roots_validates_slot_count() {
        let _ = Index::from_roots(config(), vec![]);
    }
}
