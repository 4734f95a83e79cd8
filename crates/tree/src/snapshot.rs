//! Fixed-layout wire codec for the iSAX tree: turns an [`Index`] (and its
//! [`SaxArray`]) into flat little-endian record arrays and back.
//!
//! This crate owns only the *record layouts*; the surrounding container —
//! magic, format version, fingerprint, per-section checksums — lives in
//! `dsidx-storage::snapshot`, which treats these arrays as opaque section
//! payloads. Keeping the codec here lets it see the private tree internals
//! it round-trips without `dsidx-tree` growing a storage dependency.
//!
//! # Layouts (all integers little-endian)
//!
//! * **node record** (48 B): `prefixes[16]`, `bits[16]`, `entry_start: u32`
//!   (running entry-record cursor at encode time — redundant, checked on
//!   decode), `entry_count: u32`, `flushed: u32`, `chunk_count: u16`,
//!   `split_seg: u8`, `flags: u8` (bit 0 = leaf). Nodes are written
//!   depth-first, zero child first, subtrees in ascending root-key order —
//!   the same deterministic order every engine builds in — so decode needs
//!   no child pointers: an inner record is always immediately followed by
//!   its zero subtree, then its one subtree.
//! * **root record** (8 B): `key: u16`, `reserved: u16`, `node_count: u32`.
//!   Keys are `r`-bit (`r` = the configuration's `root_segments`, which the
//!   container's fingerprint records): a key at or past `2^r`, or a subtree
//!   whose first node is not the root word of its key under that `r`, is
//!   rejected.
//! * **chunk record** (12 B): `offset: u64`, `count: u32` — one per
//!   [`LeafChunk`], consumed in leaf order.
//! * **entry record** (`segments + 4` B): the entry word's symbols, then
//!   `pos: u32`.
//! * **SAX record** (`segments` B): one full-cardinality word, in position
//!   order.
//!
//! The decoder trusts nothing: every structural invariant the builders
//! maintain (words partition on split, entry words fall under their leaf,
//! positions form a permutation of `0..count`, flush bookkeeping adds up)
//! is re-checked against the bytes, so a corrupt file that slips past the
//! container checksums still yields an error — never a silently wrong
//! index.

use crate::config::TreeConfig;
use crate::entry::LeafEntry;
use crate::index::Index;
use crate::node::{LeafChunk, LeafPayload, Node};
use crate::sax::SaxArray;
use dsidx_isax::{NodeWord, Word, MAX_SEGMENTS};

/// Size of one serialized tree node.
pub const NODE_RECORD_LEN: usize = 48;
/// Size of one root-subtree directory record.
pub const ROOT_RECORD_LEN: usize = 8;
/// Size of one leaf-store chunk record.
pub const CHUNK_RECORD_LEN: usize = 12;

/// Size of one leaf-entry record for a given segment count.
#[must_use]
pub fn entry_record_len(segments: usize) -> usize {
    segments + 4
}

const FLAG_LEAF: u8 = 1;

/// A malformed or internally inconsistent serialized tree.
///
/// The storage layer wraps this in its own corruption error; the message
/// always names the offending record kind.
#[derive(Debug)]
pub struct CodecError(String);

impl CodecError {
    fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }

    /// The human-readable description.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

/// The four flat record arrays a serialized tree consists of.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TreeSections {
    /// Node records, DFS order (see module docs).
    pub nodes: Vec<u8>,
    /// Root directory records, ascending key order.
    pub roots: Vec<u8>,
    /// Leaf-store chunk records, leaf order.
    pub chunks: Vec<u8>,
    /// Leaf entry records, leaf order.
    pub entries: Vec<u8>,
}

/// Serializes an index's full structure into flat record arrays.
#[must_use]
pub fn encode_tree(index: &Index) -> TreeSections {
    let segments = index.config().segments();
    let mut out = TreeSections::default();
    let mut entry_cursor: u32 = 0;
    for &key in index.occupied_roots() {
        let node = index.root(key).expect("occupied root has a node");
        let before = out.nodes.len();
        encode_node(node, segments, &mut out, &mut entry_cursor);
        let node_count = ((out.nodes.len() - before) / NODE_RECORD_LEN) as u32;
        out.roots.extend_from_slice(&key.to_le_bytes());
        out.roots.extend_from_slice(&0u16.to_le_bytes());
        out.roots.extend_from_slice(&node_count.to_le_bytes());
    }
    out
}

fn encode_node(node: &Node, segments: usize, out: &mut TreeSections, entry_cursor: &mut u32) {
    let word = node.word();
    let mut rec = [0u8; NODE_RECORD_LEN];
    for seg in 0..segments {
        rec[seg] = word.prefix(seg);
        rec[MAX_SEGMENTS + seg] = word.bits(seg);
    }
    rec[32..36].copy_from_slice(&entry_cursor.to_le_bytes());
    if let Some(payload) = node.payload() {
        let count = u32::try_from(payload.entries.len()).expect("leaf entry count fits u32");
        let chunk_count = u16::try_from(payload.chunks.len()).expect("leaf chunk count fits u16");
        rec[36..40].copy_from_slice(&count.to_le_bytes());
        rec[40..44].copy_from_slice(&payload.flushed.to_le_bytes());
        rec[44..46].copy_from_slice(&chunk_count.to_le_bytes());
        rec[47] = FLAG_LEAF;
        out.nodes.extend_from_slice(&rec);
        for chunk in &payload.chunks {
            out.chunks.extend_from_slice(&chunk.offset.to_le_bytes());
            out.chunks.extend_from_slice(&chunk.count.to_le_bytes());
        }
        for entry in &payload.entries {
            out.entries.extend_from_slice(entry.word.symbols());
            out.entries.extend_from_slice(&entry.pos.to_le_bytes());
        }
        *entry_cursor += count;
    } else {
        let (split_seg, zero, one) = node.children().expect("non-leaf has children");
        rec[46] = split_seg as u8;
        out.nodes.extend_from_slice(&rec);
        encode_node(zero, segments, out, entry_cursor);
        encode_node(one, segments, out, entry_cursor);
    }
}

/// Serializes a SAX array (position order, `segments` bytes per word).
#[must_use]
pub fn encode_sax(sax: &SaxArray) -> Vec<u8> {
    let mut out = Vec::with_capacity(sax.len() * sax.words().first().map_or(0, Word::segments));
    for word in sax.words() {
        out.extend_from_slice(word.symbols());
    }
    out
}

/// Deserializes a SAX array of exactly `count` words of `segments` symbols.
pub fn decode_sax(bytes: &[u8], segments: usize, count: usize) -> Result<SaxArray, CodecError> {
    if bytes.len() != count * segments {
        return Err(CodecError::new(format!(
            "SAX section is {} bytes; expected {} ({count} words x {segments} segments)",
            bytes.len(),
            count * segments,
        )));
    }
    let words = bytes.chunks_exact(segments).map(Word::new).collect();
    Ok(SaxArray::new(words))
}

/// Rebuilds an [`Index`] from its serialized record arrays.
///
/// `count` is the dataset size the index must cover: the decoder verifies
/// the leaf positions form a permutation of `0..count`.
pub fn decode_tree(
    config: TreeConfig,
    count: usize,
    sections: &TreeSections,
) -> Result<Index, CodecError> {
    let segments = config.segments();
    let mut nodes = Reader::new(&sections.nodes, "node", NODE_RECORD_LEN)?;
    let roots = Reader::new(&sections.roots, "root", ROOT_RECORD_LEN)?;
    let mut chunks = Reader::new(&sections.chunks, "chunk", CHUNK_RECORD_LEN)?;
    let mut entries = Reader::new(&sections.entries, "entry", entry_record_len(segments))?;

    let mut slots: Vec<Option<Box<Node>>> = vec![None; config.root_count()];
    let mut state = DecodeState {
        config: &config,
        entries_read: 0,
        seen: vec![false; count],
    };
    let mut prev_key: Option<u16> = None;
    for rec in roots.buf.chunks_exact(ROOT_RECORD_LEN) {
        let key = u16::from_le_bytes(rec[0..2].try_into().expect("slice of 2"));
        let reserved = u16::from_le_bytes(rec[2..4].try_into().expect("slice of 2"));
        let node_count = u32::from_le_bytes(rec[4..8].try_into().expect("slice of 4"));
        if reserved != 0 {
            return Err(CodecError::new(format!(
                "root record for key {key} has nonzero reserved field {reserved}"
            )));
        }
        if usize::from(key) >= config.root_count() {
            return Err(CodecError::new(format!(
                "root key {key} out of range (root count {})",
                config.root_count()
            )));
        }
        if prev_key.is_some_and(|p| p >= key) {
            return Err(CodecError::new(format!(
                "root keys not strictly ascending at key {key}"
            )));
        }
        prev_key = Some(key);
        let mut budget = node_count as usize;
        let subtree = decode_node(
            config.root_word(key),
            &mut state,
            &mut nodes,
            &mut chunks,
            &mut entries,
            &mut budget,
        )?;
        if budget != 0 {
            return Err(CodecError::new(format!(
                "root {key} declared {node_count} nodes but its subtree used fewer"
            )));
        }
        slots[usize::from(key)] = Some(subtree);
    }
    nodes.finish()?;
    chunks.finish()?;
    entries.finish()?;
    if state.entries_read as usize != count {
        return Err(CodecError::new(format!(
            "tree holds {} entries but the dataset has {count} series",
            state.entries_read
        )));
    }
    Ok(Index::from_roots(config, slots))
}

struct DecodeState<'a> {
    config: &'a TreeConfig,
    entries_read: u32,
    /// Which dataset positions have appeared in a leaf so far — together
    /// with the final count check this proves the positions are a
    /// permutation of `0..count`.
    seen: Vec<bool>,
}

fn decode_node(
    expect: NodeWord,
    state: &mut DecodeState<'_>,
    nodes: &mut Reader<'_>,
    chunks: &mut Reader<'_>,
    entries: &mut Reader<'_>,
    budget: &mut usize,
) -> Result<Box<Node>, CodecError> {
    let Some(rest) = budget.checked_sub(1) else {
        return Err(CodecError::new(
            "subtree holds more nodes than its root record declared",
        ));
    };
    *budget = rest;
    let segments = state.config.segments();
    let rec = nodes.take()?;
    let word = NodeWord::from_parts(
        &rec[..segments],
        &rec[MAX_SEGMENTS..MAX_SEGMENTS + segments],
    )
    .ok_or_else(|| CodecError::new("node record holds an unrepresentable iSAX word"))?;
    if word != expect {
        return Err(CodecError::new(format!(
            "node word `{word}` does not match its tree position (expected `{expect}`)"
        )));
    }
    let entry_start = u32::from_le_bytes(rec[32..36].try_into().expect("slice of 4"));
    if entry_start != state.entries_read {
        return Err(CodecError::new(format!(
            "node entry cursor {entry_start} disagrees with the {} entries decoded so far",
            state.entries_read
        )));
    }
    let entry_count = u32::from_le_bytes(rec[36..40].try_into().expect("slice of 4"));
    let flushed = u32::from_le_bytes(rec[40..44].try_into().expect("slice of 4"));
    let chunk_count = u16::from_le_bytes(rec[44..46].try_into().expect("slice of 2"));
    let split_seg = rec[46];
    match rec[47] {
        FLAG_LEAF => {
            if split_seg != 0 {
                return Err(CodecError::new("leaf record has nonzero split segment"));
            }
            if flushed > entry_count {
                return Err(CodecError::new(format!(
                    "leaf flush bookkeeping corrupt: {flushed} flushed of {entry_count} entries"
                )));
            }
            if entry_count as usize > state.seen.len() - state.entries_read as usize {
                return Err(CodecError::new(format!(
                    "leaf claims {entry_count} entries; only {} remain unaccounted",
                    state.seen.len() - state.entries_read as usize
                )));
            }
            let mut leaf_chunks = Vec::with_capacity(usize::from(chunk_count));
            let mut flushed_sum = 0u64;
            for _ in 0..chunk_count {
                let rec = chunks.take()?;
                let offset = u64::from_le_bytes(rec[0..8].try_into().expect("slice of 8"));
                let count = u32::from_le_bytes(rec[8..12].try_into().expect("slice of 4"));
                if count == 0 {
                    return Err(CodecError::new("leaf chunk record with zero entries"));
                }
                flushed_sum += u64::from(count);
                leaf_chunks.push(LeafChunk { offset, count });
            }
            if flushed_sum != u64::from(flushed) {
                return Err(CodecError::new(format!(
                    "leaf chunk counts sum to {flushed_sum}, flushed prefix is {flushed}"
                )));
            }
            let mut leaf_entries = Vec::with_capacity(entry_count as usize);
            let matcher = word.matcher();
            for _ in 0..entry_count {
                let rec = entries.take()?;
                let entry_word = Word::new(&rec[..segments]);
                if !matcher.contains(&entry_word) {
                    return Err(CodecError::new(
                        "leaf entry word falls outside the leaf's region",
                    ));
                }
                let pos =
                    u32::from_le_bytes(rec[segments..segments + 4].try_into().expect("slice of 4"));
                match state.seen.get_mut(pos as usize) {
                    Some(seen @ false) => *seen = true,
                    Some(true) => {
                        return Err(CodecError::new(format!(
                            "dataset position {pos} appears twice in the tree"
                        )));
                    }
                    None => {
                        return Err(CodecError::new(format!(
                            "entry position {pos} out of range for {} series",
                            state.seen.len()
                        )));
                    }
                }
                leaf_entries.push(LeafEntry::new(entry_word, pos));
            }
            state.entries_read += entry_count;
            Ok(Box::new(Node::from_payload(
                word,
                LeafPayload {
                    entries: leaf_entries,
                    flushed,
                    chunks: leaf_chunks,
                },
            )))
        }
        0 => {
            if entry_count != 0 || flushed != 0 || chunk_count != 0 {
                return Err(CodecError::new(
                    "inner node record carries leaf-only fields",
                ));
            }
            let seg = usize::from(split_seg);
            if seg >= segments || !word.can_split(seg) {
                return Err(CodecError::new(format!(
                    "inner node splits on invalid segment {seg}"
                )));
            }
            let (zero_word, one_word) = word.split(seg);
            let zero = decode_node(zero_word, state, nodes, chunks, entries, budget)?;
            let one = decode_node(one_word, state, nodes, chunks, entries, budget)?;
            Ok(Box::new(Node::from_children(word, split_seg, zero, one)))
        }
        flags => Err(CodecError::new(format!(
            "unknown node flags {flags:#04x} (file from a future format?)"
        ))),
    }
}

/// Sequential record reader over one section's bytes.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
    record_len: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], what: &'static str, record_len: usize) -> Result<Self, CodecError> {
        if buf.len() % record_len != 0 {
            return Err(CodecError::new(format!(
                "{what} section is {} bytes, not a multiple of the {record_len}-byte record",
                buf.len()
            )));
        }
        Ok(Self {
            buf,
            pos: 0,
            what,
            record_len,
        })
    }

    fn take(&mut self) -> Result<&'a [u8], CodecError> {
        let end = self.pos + self.record_len;
        if end > self.buf.len() {
            return Err(CodecError::new(format!(
                "{} section exhausted: tree structure references more records than stored",
                self.what
            )));
        }
        let rec = &self.buf[self.pos..end];
        self.pos = end;
        Ok(rec)
    }

    fn finish(&self) -> Result<(), CodecError> {
        if self.pos != self.buf.len() {
            return Err(CodecError::new(format!(
                "{} section has {} trailing bytes the tree never referenced",
                self.what,
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_isax::Quantizer;

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

    fn build(count: usize) -> (Index, SaxArray) {
        let cfg = config();
        let q: &Quantizer = cfg.quantizer();
        let mut idx = Index::new(cfg.clone());
        let mut words = Vec::with_capacity(count);
        for pos in 0..count {
            let w = q.word(&series(pos as u64));
            idx.insert(LeafEntry::new(w, pos as u32));
            words.push(w);
        }
        (idx, SaxArray::new(words))
    }

    #[test]
    fn tree_round_trips_bit_identically() {
        for count in [0usize, 1, 7, 400] {
            let (idx, _) = build(count);
            let sections = encode_tree(&idx);
            let back = decode_tree(config(), count, &sections).expect("decode");
            assert_eq!(back, idx, "count={count}");
        }
    }

    #[test]
    fn flush_bookkeeping_round_trips() {
        let (mut idx, _) = build(60);
        // Simulate a ParIS materialization pass: flush every leaf.
        let mut offset = 0u64;
        for key in idx.occupied_roots().to_vec() {
            idx.root_mut(key).unwrap().for_each_leaf_mut(&mut |leaf| {
                let count = leaf.unflushed_entries().len() as u32;
                leaf.mark_flushed(LeafChunk { offset, count });
                offset += u64::from(count) * 36;
            });
        }
        let sections = encode_tree(&idx);
        assert!(!sections.chunks.is_empty());
        let back = decode_tree(config(), 60, &sections).expect("decode");
        assert_eq!(back, idx);
    }

    #[test]
    fn sax_round_trips() {
        let (_, sax) = build(50);
        let bytes = encode_sax(&sax);
        assert_eq!(bytes.len(), 50 * 4);
        let back = decode_sax(&bytes, 4, 50).expect("decode");
        assert_eq!(back, sax);
    }

    #[test]
    fn sax_length_mismatch_is_an_error() {
        let err = decode_sax(&[0u8; 41], 4, 10).unwrap_err();
        assert!(err.to_string().contains("SAX section"), "{err}");
    }

    #[test]
    fn decode_rejects_wrong_count() {
        let (idx, _) = build(30);
        let sections = encode_tree(&idx);
        assert!(decode_tree(config(), 31, &sections).is_err());
        assert!(decode_tree(config(), 29, &sections).is_err());
    }

    #[test]
    fn decode_rejects_truncated_sections() {
        let (idx, _) = build(120);
        let good = encode_tree(&idx);
        for cut in ["nodes", "roots", "entries"] {
            let mut s = good.clone();
            match cut {
                "nodes" => s.nodes.truncate(s.nodes.len() - NODE_RECORD_LEN),
                "roots" => s.roots.truncate(s.roots.len() - ROOT_RECORD_LEN),
                _ => s.entries.truncate(s.entries.len() - entry_record_len(4)),
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
        let (idx, _) = build(150);
        let good = encode_tree(&idx);
        // Flip one byte at a time through the node section: every single
        // flip must be caught (word mismatch, cursor mismatch, bad flags,
        // count imbalance, ...) — never accepted into a wrong tree.
        let mut undetected = Vec::new();
        for i in 0..good.nodes.len() {
            let mut s = good.clone();
            s.nodes[i] ^= 0x40;
            match decode_tree(config(), 150, &s) {
                Err(_) => {}
                // A flip that decodes *identically* is impossible (the byte
                // differs); any Ok must therefore be a wrong tree.
                Ok(back) => {
                    if back != idx {
                        undetected.push(i);
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
        let q = cfg.quantizer();
        let mut idx = Index::new(cfg.clone());
        let w = q.word(&series(3));
        idx.insert(LeafEntry::new(w, 0));
        idx.insert(LeafEntry::new(w, 0)); // same position twice
        let sections = encode_tree(&idx);
        let err = decode_tree(cfg, 2, &sections).unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");
    }

    #[test]
    fn empty_index_encodes_to_empty_sections() {
        let idx = Index::new(config());
        let s = encode_tree(&idx);
        assert!(s.nodes.is_empty() && s.roots.is_empty() && s.entries.is_empty());
        let back = decode_tree(config(), 0, &s).expect("decode");
        assert_eq!(back, idx);
    }
}
