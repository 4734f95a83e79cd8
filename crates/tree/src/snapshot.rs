//! Fixed-layout wire codec for the iSAX tree: a [`FlatTree`]'s arrays as
//! little-endian section payloads, and back.
//!
//! This crate owns only the *record layouts*; the surrounding container —
//! magic, format version, fingerprint, per-section checksums — lives in
//! `dsidx-storage::snapshot`, which treats these arrays as opaque section
//! payloads. Keeping the codec here lets it see the private tree internals
//! it round-trips without `dsidx-tree` growing a storage dependency.
//!
//! # Layouts (all integers little-endian)
//!
//! The sections are the flat tree's own arrays, so encoding is a copy and
//! decoding reads them straight into the tree an engine queries:
//!
//! * **nodes** (44 B per node): one [`FlatNode`] —
//!   `prefixes[16]`, `bits[16]` (zero past `segments`), `entry_start: u32`,
//!   `entry_end: u32`, `one_child: u32` (`u32::MAX` for a leaf) — in the
//!   tree's node order: subtrees in ascending root-key order, each
//!   depth-first with an inner node's zero child right after it.
//! * **roots** (6 B per occupied root): `key: u16`, `node: u32`. Keys are
//!   `r`-bit (`r` = the configuration's `root_segments`, which the
//!   container's fingerprint records).
//! * **words** (`segments` B per entry): every leaf entry's iSAX symbols,
//!   leaf-contiguous (the padding words the tree appends are not stored).
//! * **positions** (4 B per entry): raw-data positions, index-aligned with
//!   the words.
//!
//! A leaf's entries are its node's `entry_start..entry_end` in both entry
//! runs, so one positioned read from each reads the leaf back: an on-disk
//! ParIS index does that from its snapshot, whether its build wrote it or
//! it was opened.
//!
//! The decoder trusts nothing: every structural invariant the builders
//! maintain is re-checked against the bytes ([`validate`]), so a corrupt
//! file that slips past the container checksums still yields an error —
//! never a silently wrong index. Only a flipped symbol that stays inside
//! its leaf is left to those checksums.

use crate::config::TreeConfig;
use crate::flat::{FlatNode, FlatTree};
use crate::index::Index;
use dsidx_isax::{NodeWord, Word, MAX_SEGMENTS};

/// Size of one serialized tree node.
pub const NODE_RECORD_LEN: usize = 2 * MAX_SEGMENTS + 12;
/// Size of one root-subtree directory record.
pub const ROOT_RECORD_LEN: usize = 6;

/// A malformed or internally inconsistent serialized tree.
///
/// The storage layer wraps this in its own corruption error; the message
/// always names the offending record kind.
#[derive(Debug)]
pub struct CodecError(String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

/// Returns a [`CodecError`] with the formatted message unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(CodecError(format!($($msg)+)));
        }
    };
}

/// The four flat arrays a serialized tree consists of.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TreeSections {
    /// Node records, tree order (see module docs).
    pub nodes: Vec<u8>,
    /// Root directory records, ascending key order.
    pub roots: Vec<u8>,
    /// Entry words, leaf-contiguous.
    pub words: Vec<u8>,
    /// Entry positions, index-aligned with `words`.
    pub positions: Vec<u8>,
}

/// Serializes a flat tree.
#[must_use]
pub fn encode(tree: &FlatTree) -> TreeSections {
    let count = tree.entry_count();
    let mut out = TreeSections {
        nodes: Vec::with_capacity(tree.nodes.len() * NODE_RECORD_LEN),
        roots: Vec::with_capacity(tree.roots.len() * ROOT_RECORD_LEN),
        words: vec![0; count * tree.config.segments()],
        positions: vec![0; count * 4],
    };
    for node in &tree.nodes {
        out.nodes.extend_from_slice(&node.prefixes);
        out.nodes.extend_from_slice(&node.bits);
        for field in [node.entry_start, node.entry_end, node.one_child] {
            out.nodes.extend_from_slice(&field.to_le_bytes());
        }
    }
    for &(key, node) in &tree.roots {
        out.roots.extend_from_slice(&key.to_le_bytes());
        out.roots.extend_from_slice(&node.to_le_bytes());
    }
    for (record, word) in out
        .words
        .chunks_exact_mut(tree.config.segments())
        .zip(&tree.words)
    {
        record.copy_from_slice(word.symbols());
    }
    for (record, pos) in out.positions.chunks_exact_mut(4).zip(&tree.positions) {
        record.copy_from_slice(&pos.to_le_bytes());
    }
    out
}

/// Flattens a built index and serializes it.
#[must_use]
pub fn encode_tree(index: &Index) -> TreeSections {
    encode(&FlatTree::from_index(index))
}

/// Reads a serialized tree back into the flat tree an engine queries, and
/// [`validate`]s it.
///
/// `count` is the dataset size the index must cover: the decoder verifies
/// the leaf positions form a permutation of `0..count`.
///
/// # Errors
/// A [`CodecError`] naming the first malformed record or broken invariant.
pub fn decode_tree(
    config: TreeConfig,
    count: usize,
    sections: &TreeSections,
) -> Result<FlatTree, CodecError> {
    let segments = config.segments();
    let nodes = records(&sections.nodes, "node", NODE_RECORD_LEN)?.map(|rec| FlatNode {
        prefixes: rec[..16].try_into().expect("slice of 16"),
        bits: rec[16..32].try_into().expect("slice of 16"),
        entry_start: le_u32(&rec[32..36]),
        entry_end: le_u32(&rec[36..40]),
        one_child: le_u32(&rec[40..44]),
    });
    let roots = records(&sections.roots, "root", ROOT_RECORD_LEN)?
        .map(|rec| (u16::from_le_bytes([rec[0], rec[1]]), le_u32(&rec[2..])));
    let words = records(&sections.words, "word", segments)?;
    let positions = records(&sections.positions, "position", 4)?;
    ensure!(
        words.len() == count && positions.len() == count,
        "{} words and {} positions stored for {count} series",
        words.len(),
        positions.len()
    );
    let mut tree = FlatTree {
        nodes: nodes.collect(),
        roots: roots.collect(),
        words: words.map(Word::new).collect(),
        positions: positions.map(le_u32).collect(),
        config,
    };
    tree.pad_words();
    validate(&tree, count)?;
    Ok(tree)
}

/// Checks every structural invariant a built tree keeps, against the
/// configuration it carries and the `count` series it indexes:
///
/// * root keys are strictly ascending, below `2^r`, and each subtree
///   starts where the previous one ended, at its key's root word;
/// * every node word is representable and — below the root — the split
///   of its parent on exactly one segment; an inner node's zero child
///   follows it and its one child starts right after the zero subtree;
/// * entry ranges nest and tile `0..count` in node order;
/// * every entry word lies inside its leaf's word, and a leaf holds more
///   than the leaf capacity only when no segment can be refined further;
/// * the positions are a permutation of `0..count`.
///
/// The snapshot decoder runs it on every open; tests run it on built
/// trees.
///
/// # Errors
/// A [`CodecError`] naming the first violation.
pub fn validate(tree: &FlatTree, count: usize) -> Result<(), CodecError> {
    let config = &tree.config;
    let segments = config.segments();
    // One pass over the nodes in order. `pending` holds, innermost last,
    // the word each node still to come must carry and, for a one child,
    // the inner node that has to name it; `cursor` counts the entries the
    // leaves so far hold.
    let (mut idx, mut cursor) = (0u32, 0u32);
    let mut pending: Vec<(NodeWord, Option<&FlatNode>)> = Vec::new();
    let mut prev_key = None;
    for &(key, root) in &tree.roots {
        ensure!(
            usize::from(key) < config.root_count() && prev_key < Some(key),
            "root key {key} out of range (root count {}) or not ascending",
            config.root_count()
        );
        ensure!(
            root == idx,
            "root {key} starts at node {root}; the previous subtree ended at {idx}"
        );
        prev_key = Some(key);
        pending.push((config.root_word(key), None));
        while let Some((expect, parent)) = pending.pop() {
            let node = tree.nodes.get(idx as usize);
            let Some(node) = node.filter(|node| node.word(segments) == Some(expect)) else {
                return Err(CodecError(format!(
                    "node {idx} is missing or its word is not `{expect}`, its place in the tree"
                )));
            };
            ensure!(
                node.entry_start == cursor
                    && parent.is_none_or(|p| (p.one_child, p.entry_end) == (idx, node.entry_end)),
                "node {idx} does not start, or its parent does not end, where the tree says"
            );
            if node.is_leaf() {
                ensure!(
                    (cursor as usize..=count).contains(&(node.entry_end as usize)),
                    "leaf {idx} entry range {cursor}..{} out of bounds",
                    node.entry_end
                );
                let len = node.subtree_len();
                ensure!(
                    len <= config.leaf_capacity() || (0..segments).all(|s| !expect.can_split(s)),
                    "leaf {idx} holds {len} entries, over capacity, and could still split"
                );
                let matcher = expect.matcher();
                ensure!(
                    tree.words[node.entry_range()]
                        .iter()
                        .all(|w| matcher.contains(w)),
                    "leaf {idx} holds an entry word outside the leaf's region"
                );
                cursor = node.entry_end;
            } else {
                // The zero child follows its parent; the segment it refines
                // is the split, and checking the child against the split's
                // word proves it refines nothing else.
                let zero = tree.nodes.get(idx as usize + 1);
                let seg =
                    zero.and_then(|zero| (0..segments).find(|&s| zero.bits[s] != node.bits[s]));
                let Some(seg) = seg.filter(|&seg| expect.can_split(seg)) else {
                    return Err(CodecError(format!(
                        "inner node {idx} has no zero child splitting it on a valid segment"
                    )));
                };
                let (zero_word, one_word) = expect.split(seg);
                pending.extend([(one_word, Some(node)), (zero_word, None)]);
            }
            idx += 1;
        }
    }
    ensure!(
        (idx as usize, cursor as usize) == (tree.nodes.len(), count),
        "the subtrees cover {idx} of {} nodes and {cursor} of {count} entries",
        tree.nodes.len()
    );
    let mut seen = vec![false; count];
    for &pos in &tree.positions {
        let fresh = seen
            .get_mut(pos as usize)
            .is_some_and(|seen| !std::mem::replace(seen, true));
        ensure!(
            fresh,
            "dataset position {pos} appears twice in the tree or is out of range"
        );
    }
    Ok(())
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("slice of 4"))
}

/// The fixed-size records of one section.
fn records<'a>(
    buf: &'a [u8],
    what: &str,
    record_len: usize,
) -> Result<std::slice::ChunksExact<'a, u8>, CodecError> {
    ensure!(
        buf.len() % record_len == 0,
        "{what} section is {} bytes, not a multiple of the {record_len}-byte record",
        buf.len()
    );
    Ok(buf.chunks_exact(record_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::LeafEntry;

    /// Four segments, two of them in the root key, so every root record
    /// round-trips a word with zero-bit segments.
    fn config() -> TreeConfig {
        let config = TreeConfig::new(32, 4, 8).unwrap().fitted_to(20);
        assert_eq!(config.root_segments(), 2);
        config
    }

    fn series(seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..32)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / 16_777_216.0) * 4.0 - 2.0
            })
            .collect()
    }

    fn build_index(count: usize) -> Index {
        let cfg = config();
        let mut idx = Index::new(cfg.clone());
        for pos in 0..count {
            let w = cfg.quantizer().word(&series(pos as u64));
            idx.insert(LeafEntry::new(w, pos as u32));
        }
        idx
    }

    fn build(count: usize) -> FlatTree {
        FlatTree::from_index(&build_index(count))
    }

    #[test]
    fn tree_round_trips_bit_identically() {
        for count in [0usize, 1, 7, 400] {
            let tree = build(count);
            let sections = encode(&tree);
            assert_eq!(sections.nodes.len(), tree.nodes().len() * NODE_RECORD_LEN);
            assert_eq!(sections.words.len(), count * 4);
            let back = decode_tree(config(), count, &sections).expect("decode");
            assert_eq!(back, tree, "count={count}");
            assert_eq!(encode_tree(&build_index(count)), sections);
        }
    }

    #[test]
    fn decode_rejects_wrong_count() {
        let sections = encode(&build(30));
        assert!(decode_tree(config(), 31, &sections).is_err());
        assert!(decode_tree(config(), 29, &sections).is_err());
    }

    #[test]
    fn decode_rejects_truncated_sections() {
        let good = encode(&build(120));
        for cut in ["nodes", "roots", "words", "positions"] {
            let mut s = good.clone();
            match cut {
                "nodes" => s.nodes.truncate(s.nodes.len() - NODE_RECORD_LEN),
                "roots" => s.roots.truncate(s.roots.len() - ROOT_RECORD_LEN),
                "words" => s.words.truncate(s.words.len() - 4),
                _ => s.positions.truncate(s.positions.len() - 4),
            }
            assert!(decode_tree(config(), 120, &s).is_err(), "cut {cut}");
        }
        // A non-record-multiple truncation fails before any decoding.
        let mut s = good;
        s.nodes.truncate(s.nodes.len() - 1);
        let err = decode_tree(config(), 120, &s).unwrap_err();
        assert!(err.to_string().contains("multiple"), "{err}");
    }

    #[test]
    fn decode_rejects_flipped_structure_bytes() {
        let tree = build(150);
        let good = encode(&tree);
        // Flip one byte at a time through the node, root and position
        // sections: every single flip must be caught (word mismatch, range
        // mismatch, dangling child, duplicate position, ...) — never
        // accepted into a different tree.
        let mut undetected = Vec::new();
        for section in ["nodes", "roots", "positions"] {
            let len = match section {
                "nodes" => good.nodes.len(),
                "roots" => good.roots.len(),
                _ => good.positions.len(),
            };
            for i in 0..len {
                let mut s = good.clone();
                match section {
                    "nodes" => s.nodes[i] ^= 0x40,
                    "roots" => s.roots[i] ^= 0x40,
                    _ => s.positions[i] ^= 0x40,
                }
                if let Ok(back) = decode_tree(config(), 150, &s) {
                    if back != tree {
                        undetected.push((section, i));
                    }
                }
            }
        }
        assert!(
            undetected.is_empty(),
            "byte flips at {undetected:?} produced silently wrong trees"
        );
    }

    #[test]
    fn decode_rejects_duplicate_positions() {
        let cfg = config();
        let mut idx = Index::new(cfg.clone());
        let w = cfg.quantizer().word(&series(3));
        idx.insert(LeafEntry::new(w, 0));
        idx.insert(LeafEntry::new(w, 0)); // same position twice
        let err = decode_tree(cfg, 2, &encode_tree(&idx)).unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");
    }

    #[test]
    fn decode_rejects_out_of_range_root_keys() {
        let mut sections = encode(&build(40));
        let last = sections.roots.len() - ROOT_RECORD_LEN;
        // Four root slots under `r = 2`: key 4 names none of them.
        sections.roots[last..last + 2].copy_from_slice(&4u16.to_le_bytes());
        let err = decode_tree(config(), 40, &sections).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn empty_index_encodes_to_empty_sections() {
        let tree = build(0);
        let s = encode(&tree);
        assert!(s.nodes.is_empty() && s.roots.is_empty());
        assert!(s.words.is_empty() && s.positions.is_empty());
        let back = decode_tree(config(), 0, &s).expect("decode");
        assert_eq!(back, tree);
    }
}
