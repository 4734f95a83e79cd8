//! Index shape statistics. (Structural validation is the snapshot
//! decoder's: [`crate::snapshot::validate`].)

use crate::flat::FlatTree;

/// Structural statistics of a built index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Number of non-empty root subtrees.
    pub root_subtrees: usize,
    /// Total leaves (including empty ones created by splits).
    pub leaf_count: usize,
    /// Total inner nodes.
    pub inner_count: usize,
    /// Total entries across leaves.
    pub entry_count: usize,
    /// Deepest leaf, counted in edges from its subtree root.
    pub max_depth: usize,
    /// Entries in the fullest leaf.
    pub max_leaf_len: usize,
}

/// Computes shape statistics for a flattened index.
#[must_use]
pub fn index_stats(tree: &FlatTree) -> IndexStats {
    let mut stats = IndexStats {
        root_subtrees: tree.roots().len(),
        ..Default::default()
    };
    let mut stack: Vec<(u32, usize)> = tree.roots().iter().map(|&(_, idx)| (idx, 0)).collect();
    while let Some((idx, depth)) = stack.pop() {
        let node = tree.node(idx);
        if node.is_leaf() {
            stats.leaf_count += 1;
            stats.max_depth = stats.max_depth.max(depth);
            stats.entry_count += node.subtree_len();
            stats.max_leaf_len = stats.max_leaf_len.max(node.subtree_len());
        } else {
            stats.inner_count += 1;
            let (zero, one) = node.children(idx);
            stack.extend([(zero, depth + 1), (one, depth + 1)]);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use crate::entry::LeafEntry;
    use crate::index::Index;

    fn build(n: u64, cap: usize) -> FlatTree {
        let cfg = TreeConfig::new(64, 8, cap).unwrap().fitted_to(n as usize);
        let mut idx = Index::new(cfg.clone());
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
            idx.insert(LeafEntry::new(cfg.quantizer().word(&s), seed as u32));
        }
        FlatTree::from_index(&idx)
    }

    #[test]
    fn stats_count_consistently() {
        let tree = build(400, 4);
        let st = index_stats(&tree);
        assert_eq!(st.entry_count, 400);
        assert_eq!(st.root_subtrees, tree.roots().len());
        // A binary tree with L leaves has L-1 inner nodes per subtree; in a
        // forest: leaves - inners == subtrees.
        assert_eq!(st.leaf_count - st.inner_count, st.root_subtrees);
        assert_eq!(st.leaf_count + st.inner_count, tree.nodes().len());
        assert!(st.max_leaf_len <= 4 || st.max_depth > 0);
    }

    #[test]
    fn validate_accepts_well_formed_index() {
        for (n, cap) in [(500, 7), (1, 1), (0, 5)] {
            let tree = build(n, cap);
            crate::snapshot::validate(&tree, n as usize).expect("built trees are valid");
        }
    }

    #[test]
    fn stats_on_empty_index() {
        let st = index_stats(&build(0, 3));
        assert_eq!(st, IndexStats::default());
    }
}
