//! Index shape statistics and structural validation.

use crate::index::Index;
use crate::node::Node;

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

/// Computes shape statistics for an index.
#[must_use]
pub fn index_stats(index: &Index) -> IndexStats {
    let mut stats = IndexStats {
        root_subtrees: index.occupied_roots().len(),
        ..Default::default()
    };
    for &key in index.occupied_roots() {
        if let Some(node) = index.root(key) {
            visit(node, 0, &mut stats);
        }
    }
    stats
}

fn visit(node: &Node, depth: usize, stats: &mut IndexStats) {
    if let Some((_, zero, one)) = node.children() {
        stats.inner_count += 1;
        visit(zero, depth + 1, stats);
        visit(one, depth + 1, stats);
    } else {
        stats.leaf_count += 1;
        stats.max_depth = stats.max_depth.max(depth);
        let n = node.entry_count();
        stats.entry_count += n;
        stats.max_leaf_len = stats.max_leaf_len.max(n);
    }
}

/// Exhaustively checks the structural invariants of an index; panics with a
/// description on the first violation. Test-and-debug helper.
///
/// Invariants:
/// 1. every resident entry's word is contained in its leaf's node word;
/// 2. resident leaves never exceed capacity unless their word is fully
///    refined (no splittable segment remains);
/// 3. children's words refine their parent's word by exactly one bit on the
///    recorded split segment;
/// 4. `index.len()` equals the number of entries found.
///
/// # Panics
/// Panics when any invariant is violated.
pub fn validate(index: &Index) {
    let cfg = index.config();
    let mut found = 0usize;
    for &key in index.occupied_roots() {
        let node = index.root(key).expect("occupied root must exist");
        validate_node(node, cfg, &mut found);
    }
    assert_eq!(
        found,
        index.len(),
        "index.len() disagrees with leaf contents"
    );
}

fn validate_node(node: &Node, cfg: &crate::config::TreeConfig, found: &mut usize) {
    if let Some((seg, zero, one)) = node.children() {
        assert_eq!(
            zero.word().bits(seg),
            node.word().bits(seg) + 1,
            "zero child bit count"
        );
        assert_eq!(
            one.word().bits(seg),
            node.word().bits(seg) + 1,
            "one child bit count"
        );
        assert_eq!(
            zero.word().prefix(seg) >> 1,
            node.word().prefix(seg),
            "zero child prefix"
        );
        assert_eq!(
            one.word().prefix(seg) >> 1,
            node.word().prefix(seg),
            "one child prefix"
        );
        assert_eq!(zero.word().prefix(seg) & 1, 0, "zero child last bit");
        assert_eq!(one.word().prefix(seg) & 1, 1, "one child last bit");
        validate_node(zero, cfg, found);
        validate_node(one, cfg, found);
        return;
    }
    *found += node.entry_count();
    if let Some(entries) = node.entries() {
        let splittable = (0..cfg.segments()).any(|s| node.word().can_split(s));
        if splittable {
            assert!(
                entries.len() <= cfg.leaf_capacity(),
                "resident splittable leaf over capacity: {} > {}",
                entries.len(),
                cfg.leaf_capacity()
            );
        }
        for e in entries {
            assert!(
                node.word().contains(&e.word),
                "entry outside its leaf's region"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use crate::entry::LeafEntry;

    fn build(n: u64, cap: usize) -> Index {
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
        idx
    }

    #[test]
    fn stats_count_consistently() {
        let idx = build(400, 4);
        let st = index_stats(&idx);
        assert_eq!(st.entry_count, 400);
        assert_eq!(st.root_subtrees, idx.occupied_roots().len());
        // A binary tree with L leaves has L-1 inner nodes per subtree; in a
        // forest: leaves - inners == subtrees.
        assert_eq!(st.leaf_count - st.inner_count, st.root_subtrees);
        assert!(st.max_leaf_len <= 4 || st.max_depth > 0);
    }

    #[test]
    fn validate_accepts_well_formed_index() {
        validate(&build(500, 7));
        validate(&build(1, 1));
        validate(&build(0, 5));
    }

    #[test]
    fn stats_on_empty_index() {
        let st = index_stats(&build(0, 3));
        assert_eq!(st, IndexStats::default());
    }
}
