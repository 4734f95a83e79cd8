//! MINDIST lower-bound distances between query summaries and iSAX words.
//!
//! Soundness requirement (the index is exact only because of this): for any
//! query `q` and candidate series `c`,
//!
//! ```text
//! mindist_paa_node_sq(PAA(q), node_word(c)) <= ED(q, c)^2
//! ```
//!
//! The per-segment argument: all points of `c` in segment `i` average to a
//! value inside the region `[lo_i, hi_i)` encoded by the word, and
//! `sum_{j in seg}(q_j - c_j)^2 >= len_i * (paa(q)_i - paa(c)_i)^2 >=
//! len_i * d(paa(q)_i, [lo_i, hi_i))^2`.
//!
//! For query scans over every series' word (ParIS stage 4), [`MindistTable`]
//! precomputes the per-(segment, symbol) contribution once per query, so
//! each word costs `w` table lookups and adds — the Rust counterpart
//! of the paper's SIMD lower-bound kernel. Where every word is bounded
//! against a live threshold, [`CoarseTable`] puts a sound 4-bit
//! pre-filter in front of it ([`MindistTable::for_each_below`]): 32 words
//! per shuffle kernel, and only the few it cannot rule out pay the exact
//! lookup.

use crate::breakpoints::breakpoints;
use crate::word::{NodeWord, Word, MAX_BITS, MAX_CARDINALITY, MAX_SEGMENTS};

/// Squared distance from a point to an interval (0 inside).
#[inline]
fn interval_dist_sq(v: f32, lo: f32, hi: f32) -> f32 {
    if v < lo {
        let d = lo - v;
        d * d
    } else if v > hi {
        let d = v - hi;
        d * d
    } else {
        0.0
    }
}

/// Squared distance between two intervals (0 if they overlap).
#[inline]
fn interval_gap_sq(alo: f32, ahi: f32, blo: f32, bhi: f32) -> f32 {
    if alo > bhi {
        let d = alo - bhi;
        d * d
    } else if bhi >= alo && blo <= ahi {
        0.0
    } else {
        let d = blo - ahi;
        d * d
    }
}

/// Fills one table row for a point query: `row[s] = weight *
/// interval_dist_sq(v, edges[s], edges[s + 1])` for every region `s`,
/// without branches.
///
/// `max(lo - v, v - hi, 0)` is the one difference the branchy version
/// picks — `lo - v` below the region, `v - hi` above it, zero inside
/// (both differences are non-positive there) — so for a non-NaN `v` every
/// slot is the same float operations on the same operands, bit for bit.
/// The loop vectorizes.
#[inline]
fn point_row(row: &mut [f32], edges: &[f32], v: f32, weight: f32) {
    let (lo, hi) = (&edges[..row.len()], &edges[1..=row.len()]);
    for ((slot, &lo), &hi) in row.iter_mut().zip(lo).zip(hi) {
        let d = (lo - v).max(v - hi).max(0.0);
        *slot = weight * (d * d);
    }
}

/// [`point_row`] for an interval query `[alo, ahi]` (`alo <= ahi`, neither
/// NaN): `max(alo - hi, lo - ahi, 0)` is the difference
/// [`interval_gap_sq`] picks, zero where the intervals overlap.
#[inline]
fn interval_row(row: &mut [f32], edges: &[f32], alo: f32, ahi: f32, weight: f32) {
    let (lo, hi) = (&edges[..row.len()], &edges[1..=row.len()]);
    for ((slot, &lo), &hi) in row.iter_mut().zip(lo).zip(hi) {
        let d = (alo - hi).max(lo - ahi).max(0.0);
        *slot = weight * (d * d);
    }
}

/// Squared MINDIST between a query PAA and a node's variable-cardinality
/// word.
///
/// `seg_lens[i]` is the number of raw points in segment `i` (from
/// [`crate::Quantizer::segment_lens`]).
#[must_use]
pub fn mindist_paa_node_sq(paa: &[f32], node: &NodeWord, seg_lens: &[u32]) -> f32 {
    debug_assert_eq!(paa.len(), node.segments());
    debug_assert_eq!(paa.len(), seg_lens.len());
    let table = breakpoints();
    let mut sum = 0.0f32;
    for seg in 0..node.segments() {
        let (lo, hi) = table.region(node.prefix(seg), node.bits(seg));
        sum += seg_lens[seg] as f32 * interval_dist_sq(paa[seg], lo, hi);
    }
    sum
}

/// Squared MINDIST between a query PAA and a full-cardinality word (a SAX
/// array entry or leaf entry).
#[must_use]
pub fn mindist_paa_word_sq(paa: &[f32], word: &Word, seg_lens: &[u32]) -> f32 {
    debug_assert_eq!(paa.len(), word.segments());
    debug_assert_eq!(paa.len(), seg_lens.len());
    let table = breakpoints();
    let mut sum = 0.0f32;
    for seg in 0..word.segments() {
        let (lo, hi) = table.region(word.symbol(seg), MAX_BITS);
        sum += seg_lens[seg] as f32 * interval_dist_sq(paa[seg], lo, hi);
    }
    sum
}

/// Squared DTW MINDIST between a query's PAA envelope bounds
/// (see [`crate::paa::envelope_paa_bounds`]) and a node word.
///
/// Lower-bounds `DTW(q, c)` for every `c` under the node, because every
/// warped query point aligned with segment `i` lies within
/// `[env_lo[i], env_hi[i]]`.
#[must_use]
pub fn mindist_envelope_node_sq(
    env_lo: &[f32],
    env_hi: &[f32],
    node: &NodeWord,
    seg_lens: &[u32],
) -> f32 {
    debug_assert_eq!(env_lo.len(), node.segments());
    let table = breakpoints();
    let mut sum = 0.0f32;
    for seg in 0..node.segments() {
        let (lo, hi) = table.region(node.prefix(seg), node.bits(seg));
        sum += seg_lens[seg] as f32 * interval_gap_sq(env_lo[seg], env_hi[seg], lo, hi);
    }
    sum
}

/// A per-query lookup table for full-cardinality MINDIST evaluations.
///
/// `table[seg * 256 + symbol]` holds that segment's weighted squared
/// contribution, so `lookup` is `w` gathers and adds per word.
///
/// Every slot is a non-negative finite value (or `+inf`) for a query
/// without NaN, so `==` between two tables is equality of their bits.
#[derive(Debug, Clone, PartialEq)]
pub struct MindistTable {
    table: Vec<f32>,
    segments: usize,
}

impl MindistTable {
    /// Builds the table for an ED query with PAA `paa`.
    #[must_use]
    pub fn new_point(paa: &[f32], seg_lens: &[u32]) -> Self {
        Self::build(paa.len(), seg_lens, |seg, weight, edges, row| {
            point_row(row, edges, paa[seg], weight);
        })
    }

    /// Builds the table for a DTW query with PAA envelope bounds.
    #[must_use]
    pub fn new_interval(env_lo: &[f32], env_hi: &[f32], seg_lens: &[u32]) -> Self {
        Self::build(env_lo.len(), seg_lens, |seg, weight, edges, row| {
            interval_row(row, edges, env_lo[seg], env_hi[seg], weight);
        })
    }

    /// Fills segment `seg`'s row through `fill_row(seg, weight, edges,
    /// row)`, `edges` being the 8-bit region boundaries.
    fn build(
        segments: usize,
        seg_lens: &[u32],
        fill_row: impl Fn(usize, f32, &[f32], &mut [f32]),
    ) -> Self {
        assert_eq!(segments, seg_lens.len());
        let edges = breakpoints().edges(MAX_BITS);
        let mut table = vec![0.0f32; segments * MAX_CARDINALITY];
        let rows = table.chunks_exact_mut(MAX_CARDINALITY);
        for ((seg, &seg_len), row) in seg_lens.iter().enumerate().zip(rows) {
            fill_row(seg, seg_len as f32, edges, row);
        }
        Self { table, segments }
    }

    /// Squared MINDIST to a full-cardinality word.
    ///
    /// Dispatches to an AVX2 two-gather kernel at the default 16 segments
    /// (unless `DSIDX_NO_SIMD` disables it); the SIMD sum may differ from
    /// [`Self::lookup_scalar`] in the last bits (lane-parallel vs
    /// sequential accumulation) but both are sound lower bounds built from
    /// the same table entries. Good for a pruning test; anything that
    /// *ranks* words by bound goes through [`Self::lookup_many`], whose
    /// sums do not depend on the SIMD mode.
    #[inline]
    #[must_use]
    pub fn lookup(&self, word: &Word) -> f32 {
        debug_assert_eq!(word.segments(), self.segments);
        #[cfg(target_arch = "x86_64")]
        if self.segments == crate::word::MAX_SEGMENTS && dsidx_series::distance::simd_enabled() {
            // SAFETY: `simd_enabled` implies AVX2; segments == 16 means the
            // table holds the full 16 * 256 entries every index lands in.
            return unsafe { crate::simd::word_table_lookup_avx2(&self.table, word.symbols_raw()) };
        }
        self.lookup_scalar(word)
    }

    /// The scalar lookup: sums the per-segment contributions sequentially,
    /// which makes it bit-identical to [`mindist_paa_word_sq`] /
    /// [`mindist_envelope_node_sq`]'s full-cardinality analogue (same
    /// precomputed terms, same order). The reassociation-free reference the
    /// proptests pin against.
    #[inline]
    #[must_use]
    pub fn lookup_scalar(&self, word: &Word) -> f32 {
        debug_assert_eq!(word.segments(), self.segments);
        let mut sum = 0.0f32;
        for seg in 0..self.segments {
            // SAFETY-free indexing: symbol is u8, rows are 256 wide.
            sum += self.table[seg * MAX_CARDINALITY + word.symbol(seg) as usize];
        }
        sum
    }

    /// Lower-bounds a run of words, one result per word — the primitive
    /// behind the SAX-array scans (ParIS's collect phase and sketch scan),
    /// which bound millions of contiguous words per query.
    ///
    /// Dispatches to an AVX2 kernel that transposes eight words in-register
    /// and gathers each segment's entries vertically; its per-lane
    /// accumulation order matches [`Self::lookup_scalar`] exactly, so every
    /// result is **bit-identical** whether SIMD is on or off (unlike the
    /// single-word [`Self::lookup`], whose horizontal sum reassociates).
    ///
    /// Only the first `words.len()` slots of `out` are written; any excess
    /// capacity is left untouched. Words beyond a multiple of eight take the
    /// scalar loop one by one, so a caller bounding many short runs (tree
    /// leaves) should pass runs padded to a multiple of eight and ignore
    /// the extra results — see `FlatTree::leaf_words_padded`.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `words`.
    pub fn lookup_many(&self, words: &[Word], out: &mut [f32]) {
        assert!(out.len() >= words.len(), "output buffer too short");
        // Trim `out` to the words actually bounded: the SIMD path below
        // walks `words` and `out` with separate `chunks_exact` iterators,
        // and their remainders only line up when the lengths match (callers
        // pass fixed-size block buffers longer than the final short block).
        let out = &mut out[..words.len()];
        #[cfg(target_arch = "x86_64")]
        if self.segments == crate::word::MAX_SEGMENTS && dsidx_series::distance::simd_enabled() {
            let mut word_blocks = words.chunks_exact(8);
            let mut out_blocks = out.chunks_exact_mut(8);
            for (wb, ob) in (&mut word_blocks).zip(&mut out_blocks) {
                let wb: &[Word; 8] = wb.try_into().expect("chunk is 8 wide");
                let ob: &mut [f32; 8] = ob.try_into().expect("chunk is 8 wide");
                // SAFETY: `simd_enabled` implies AVX2; segments == 16 means
                // the table holds the full 16 * 256 entries.
                unsafe { crate::simd::word_table_lookup_batch8_avx2(&self.table, wb, ob) };
            }
            for (w, o) in word_blocks
                .remainder()
                .iter()
                .zip(out_blocks.into_remainder())
            {
                *o = self.lookup_scalar(w);
            }
            return;
        }
        for (w, o) in words.iter().zip(out) {
            *o = self.lookup_scalar(w);
        }
    }

    /// Calls `keep(i, bound)`, in word order, for every word `i` of
    /// `words` whose bound is below `limit`, with exactly the bound
    /// [`lookup_many`](Self::lookup_many) gives it — behind `coarse`'s
    /// pre-filter when there is one, which must have been made from this
    /// table.
    ///
    /// Words are taken in blocks of [`COARSE_BLOCK`]. The words a block's
    /// coarse mask lets through get [`lookup_scalar`](Self::lookup_scalar),
    /// which is bit-identical to `lookup_many`'s lanes, unless more than 8
    /// of them do: then the whole block takes `lookup_many`, which is
    /// cheaper than that many one-word lookups (a wide DTW envelope passes
    /// most words). Without a coarse table, or one with no threshold for
    /// `limit` ([`CoarseTable::threshold`]), every block takes
    /// `lookup_many`.
    pub fn for_each_below(
        &self,
        coarse: Option<&CoarseTable>,
        words: &[Word],
        limit: f32,
        mut keep: impl FnMut(usize, f32),
    ) {
        let filter = coarse.and_then(|c| Some((c, c.threshold(limit)?)));
        let mut exact = [0.0f32; COARSE_BLOCK];
        for (b, block) in words.chunks(COARSE_BLOCK).enumerate() {
            let base = b * COARSE_BLOCK;
            let mut mask = match filter {
                Some((coarse, threshold)) => coarse.may_survive(block, threshold),
                None => u32::MAX,
            };
            if mask.count_ones() > COARSE_DENSE {
                self.lookup_many(block, &mut exact);
                for (j, &lb) in exact[..block.len()].iter().enumerate() {
                    if lb < limit {
                        keep(base + j, lb);
                    }
                }
                continue;
            }
            while mask != 0 {
                let j = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let lb = self.lookup_scalar(&block[j]);
                if lb < limit {
                    keep(base + j, lb);
                }
            }
        }
    }
}

/// Words the coarse pre-filter bounds at once: one bit each in its mask.
pub const COARSE_BLOCK: usize = 32;

/// Coarse slots per segment: one per high nibble of a symbol.
const COARSE_ROW: usize = 16;

/// The largest quantised coarse slot. Below 255 so that a slot can never
/// saturate the `u8` sum on its own.
const COARSE_MAX: f64 = 250.0;

/// A slot's quantisation margin, `1 - 2^-10`: far wider than the
/// rounding of the `f32` exact sum and of the `f64` quantisation (see
/// [`CoarseTable`]).
const COARSE_SHRINK: f64 = 1.0 - 1.0 / 1024.0;

/// Most of 32 words that may survive the coarse stage for a block still to
/// take it: past this, [`MindistTable::for_each_below`] bounds the whole
/// block with [`MindistTable::lookup_many`] instead, which is cheaper than
/// that many one-word lookups (a wide DTW envelope passes most words).
const COARSE_DENSE: u32 = 8;

/// A 4-bit, `u8`-quantised companion of a [`MindistTable`]: the cheap
/// first stage of bounding a run of words against a live limit.
///
/// Slot `(seg, h)` holds the smallest of the 16 fine slots whose symbols
/// share the high nibble `h`, `v = min(table[seg][16h..16h + 16])`,
/// quantised as `floor(v * S * (1 - 2^-10))` clamped to `[0, 250]`, where
/// `S = 250 / L_ref` for the reference limit `L_ref` the table was made
/// for. A word's coarse sum is the saturating `u8` sum of its 16 slots
/// (at its symbols' high nibbles); for a live limit `L` the threshold is
/// `T = ceil(L * S) + 1` ([`threshold`](Self::threshold)), and a word
/// **may survive** iff its coarse sum is below `T`.
///
/// **Soundness.** A word ruled out has a [`MindistTable::lookup_many`]
/// bound of at least `L`, so the survivors of the two stages are exactly
/// those of the exact stage alone:
///
/// * each coarse slot is at most `v * S * (1 - 2^-10)` — the floor and the
///   clamp only lower it, and `+inf` fine slots (a query far outside the
///   breakpoints) quantise to 250, the same as any other large value;
///   `v` is at most the fine slot the word's symbol picks, because that
///   slot is one of the 16 it is the minimum of. This holds for point and
///   interval tables alike;
/// * a ruled-out word has a coarse sum `>= T`, so (the sum saturates only
///   at 255 `>= T`) its exact integer sum is at least `ceil(L * S) + 1`,
///   and the sum of its fine slots is above `L * (1 + 2^-11)` once the
///   margin and the `f64` roundings (relative `2^-53` each) are paid;
/// * the `f32` exact bound adds 16 non-negative slots with a relative
///   error below `2^-20`, so it stays above `L`.
///
/// A `T` above 255 cannot be represented, and [`threshold`](Self::threshold)
/// then declines to filter rather than clamp (a clamped `T` would rule out
/// words that saturated below the true threshold).
///
/// Both the AVX2 kernel and the scalar oracle
/// ([`may_survive_scalar`](Self::may_survive_scalar)) do exact integer
/// arithmetic, so their masks are equal bit for bit and the pre-filter
/// never changes with the SIMD mode. The table exists only for the
/// paper's 16 segments.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseTable {
    /// `slots[seg * 16 + h]`, quantised.
    slots: [u8; MAX_SEGMENTS * COARSE_ROW],
    /// `S = 250 / L_ref`.
    scale: f64,
    /// `L_ref`.
    reference: f32,
}

impl CoarseTable {
    /// The coarse companion of `table` for limits near `reference`;
    /// `None` unless `table` has 16 segments and `reference` is finite and
    /// positive.
    #[must_use]
    pub fn new(table: &MindistTable, reference: f32) -> Option<Self> {
        if table.segments != MAX_SEGMENTS || !(reference.is_finite() && reference > 0.0) {
            return None;
        }
        let scale = COARSE_MAX / f64::from(reference);
        let mut slots = [0u8; MAX_SEGMENTS * COARSE_ROW];
        for (slot, fine) in slots.iter_mut().zip(table.table.chunks_exact(COARSE_ROW)) {
            let v = fine.iter().copied().fold(f32::INFINITY, f32::min);
            // A NaN (never built from a NaN-free query) quantises to 0,
            // which only lets words through.
            *slot = (f64::from(v) * scale * COARSE_SHRINK)
                .floor()
                .clamp(0.0, COARSE_MAX) as u8;
        }
        Some(Self {
            slots,
            scale,
            reference,
        })
    }

    /// The reference limit `L_ref` the slots were quantised for.
    #[must_use]
    pub fn reference(&self) -> f32 {
        self.reference
    }

    /// The `u8` threshold for live limit `limit`, `ceil(limit * S) + 1`;
    /// `None` when `limit` is not finite and positive or the threshold
    /// would exceed 255 (the coarse stage then rules nothing out).
    #[must_use]
    pub fn threshold(&self, limit: f32) -> Option<u8> {
        if !(limit.is_finite() && limit > 0.0) {
            return None;
        }
        let t = (f64::from(limit) * self.scale).ceil() + 1.0;
        (t <= 255.0).then_some(t as u8)
    }

    /// Bit `j` set iff word `j` may survive `threshold` (see the type
    /// docs), for up to [`COARSE_BLOCK`] words.
    ///
    /// Dispatches to an AVX2 shuffle kernel unless `DSIDX_NO_SIMD`
    /// disables it; a short block is copied into a full one first. Equal
    /// bit for bit to [`may_survive_scalar`](Self::may_survive_scalar).
    ///
    /// # Panics
    /// Panics if `words` holds more than [`COARSE_BLOCK`] words.
    #[must_use]
    pub fn may_survive(&self, words: &[Word], threshold: u8) -> u32 {
        assert!(words.len() <= COARSE_BLOCK, "coarse blocks are 32 words");
        #[cfg(target_arch = "x86_64")]
        if threshold > 0 && !words.is_empty() && dsidx_series::distance::simd_enabled() {
            let full = |words: &[Word; COARSE_BLOCK]| {
                // SAFETY: `simd_enabled` implies AVX2, and the threshold
                // was just checked to be at least 1.
                unsafe { crate::simd::coarse_mask32_avx2(&self.slots, words, threshold) }
            };
            return match words.try_into() {
                Ok(block) => full(block),
                Err(_) => {
                    let mut block = [words[0]; COARSE_BLOCK];
                    block[..words.len()].copy_from_slice(words);
                    full(&block) & ((1u32 << words.len()) - 1)
                }
            };
        }
        self.may_survive_scalar(words, threshold)
    }

    /// The scalar oracle of [`may_survive`](Self::may_survive): each
    /// word's saturating sum, segment by segment.
    ///
    /// # Panics
    /// Panics if `words` holds more than [`COARSE_BLOCK`] words.
    #[must_use]
    pub fn may_survive_scalar(&self, words: &[Word], threshold: u8) -> u32 {
        assert!(words.len() <= COARSE_BLOCK, "coarse blocks are 32 words");
        let mut mask = 0u32;
        for (j, word) in words.iter().enumerate() {
            let sum = word
                .symbols_raw()
                .iter()
                .zip(self.slots.chunks_exact(COARSE_ROW))
                .fold(0u8, |sum, (&sym, row)| {
                    sum.saturating_add(row[usize::from(sym >> 4)])
                });
            if sum < threshold {
                mask |= 1 << j;
            }
        }
        mask
    }
}

/// Slots per segment of a [`NodeMindistTable`]: `2^b` regions at each of the
/// cardinalities `b = 0..=MAX_BITS` is `2^(MAX_BITS+1) - 1`, rounded up.
pub(crate) const NODE_ROW: usize = 2 * MAX_CARDINALITY;

/// Where segment-local `(bits, prefix)` sits in its [`NODE_ROW`]: the
/// regions of one segment form a binary tree under refinement (a region's
/// two halves are `prefix·0` and `prefix·1`), and this is that tree's heap
/// numbering — the single whole-line region at `0`, then the two 1-bit
/// regions, the four 2-bit ones, and so on.
#[inline]
fn node_slot(bits: u8, prefix: u8) -> usize {
    (1usize << bits) - 1 + prefix as usize
}

/// A per-query lookup table for *node-level* MINDIST evaluations at every
/// cardinality.
///
/// For each segment it holds the weighted squared contribution of every
/// region at every cardinality `2^bits`, `bits = 0..=8`, laid out by
/// `node_slot` — 511 values per segment, 32 KiB at 16 segments. The
/// zero-bit region is the whole line and contributes exactly `0.0`, so a
/// segment a node word leaves unconstrained drops out of the sum. Tree
/// traversal (MESSI) evaluates thousands of node bounds per query; this
/// reduces each to `w` lookups and adds, like [`MindistTable`] does for
/// full-cardinality words.
///
/// [`new_point`](Self::new_point) / [`new_interval`](Self::new_interval)
/// build it for a query. `==` compares slots as [`MindistTable`]'s does.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeMindistTable {
    /// Flat layout: `seg * NODE_ROW + node_slot(bits, prefix)`.
    table: Vec<f32>,
    segments: usize,
}

impl NodeMindistTable {
    /// Builds the table for an ED query with PAA `paa`.
    #[must_use]
    pub fn new_point(paa: &[f32], seg_lens: &[u32]) -> Self {
        Self::filled(paa.len(), seg_lens, |seg, weight, edges, row| {
            point_row(row, edges, paa[seg], weight);
        })
    }

    /// Builds the table for a DTW query with PAA envelope bounds.
    #[must_use]
    pub fn new_interval(env_lo: &[f32], env_hi: &[f32], seg_lens: &[u32]) -> Self {
        Self::filled(env_lo.len(), seg_lens, |seg, weight, edges, row| {
            interval_row(row, edges, env_lo[seg], env_hi[seg], weight);
        })
    }

    /// A table whose slots, for every segment and cardinality, are the
    /// `2^bits` contiguous ones from `node_slot(bits, 0)`, filled through
    /// `fill_row(seg, weight, edges, slots)`, `edges` being that
    /// cardinality's region boundaries.
    fn filled(
        segments: usize,
        seg_lens: &[u32],
        fill_row: impl Fn(usize, f32, &[f32], &mut [f32]),
    ) -> Self {
        assert_eq!(segments, seg_lens.len());
        let bp = breakpoints();
        // Every slot a lookup can reach is written below; the one spare
        // slot per row stays zero.
        let mut table = vec![0.0; segments * NODE_ROW];
        for ((seg, &seg_len), row) in seg_lens
            .iter()
            .enumerate()
            .zip(table.chunks_exact_mut(NODE_ROW))
        {
            for bits in 0..=MAX_BITS {
                let start = node_slot(bits, 0);
                let slots = &mut row[start..start + (1 << bits)];
                fill_row(seg, seg_len as f32, bp.edges(bits), slots);
            }
        }
        Self { table, segments }
    }

    /// The contribution of segment `seg` at one-bit cardinality, for both
    /// prefixes `(bit 0, bit 1)`.
    ///
    /// Root subtrees have one-bit words derived from their key on the
    /// segments the key covers (and nothing on the rest), so the engines
    /// scan root keys with these 2-entry rows instead of touching tree
    /// nodes.
    #[inline]
    #[must_use]
    pub fn root_pair(&self, seg: usize) -> (f32, f32) {
        debug_assert!(seg < self.segments);
        let row = seg * NODE_ROW;
        (
            self.table[row + node_slot(1, 0)],
            self.table[row + node_slot(1, 1)],
        )
    }

    /// Squared MINDIST to a variable-cardinality node word.
    ///
    /// Dispatches to an AVX2 two-gather kernel at the default 16 segments;
    /// see [`MindistTable::lookup`] for the accumulation-order caveat.
    #[inline]
    #[must_use]
    pub fn lookup(&self, node: &NodeWord) -> f32 {
        debug_assert_eq!(node.segments(), self.segments);
        #[cfg(target_arch = "x86_64")]
        if self.segments == crate::word::MAX_SEGMENTS && dsidx_series::distance::simd_enabled() {
            // SAFETY: `simd_enabled` implies AVX2; segments == 16 means the
            // table holds all 16 * NODE_ROW entries, and `NodeWord`
            // maintains every bits entry in 0..=MAX_BITS.
            return unsafe {
                crate::simd::node_table_lookup_avx2(
                    &self.table,
                    node.bits_raw(),
                    node.prefixes_raw(),
                )
            };
        }
        self.lookup_scalar(node)
    }

    /// The scalar node lookup: sequential accumulation, bit-identical to
    /// [`mindist_paa_node_sq`] over the same table entries.
    #[inline]
    #[must_use]
    pub fn lookup_scalar(&self, node: &NodeWord) -> f32 {
        debug_assert_eq!(node.segments(), self.segments);
        let mut sum = 0.0f32;
        for seg in 0..self.segments {
            sum += self.table[seg * NODE_ROW + node_slot(node.bits(seg), node.prefix(seg))];
        }
        sum
    }

    /// Squared MINDIST from raw `(bits, prefix)` arrays (used by the
    /// flattened tree, which stores node words as plain byte arrays).
    ///
    /// Only the first `segments` entries of each slice are read.
    ///
    /// # Panics
    /// Panics if a `bits[seg]` exceeds `MAX_BITS` (never true for bytes
    /// written by the flattened tree): the gather kernel must not be
    /// handed an index it cannot vouch for, and the scalar loop would read
    /// another segment's row.
    #[inline]
    #[must_use]
    pub fn lookup_parts(&self, bits: &[u8], prefixes: &[u8]) -> f32 {
        let (bits, prefixes) = (&bits[..self.segments], &prefixes[..self.segments]);
        assert!(
            bits.iter().all(|&b| b <= MAX_BITS),
            "node cardinality past {MAX_BITS} bits"
        );
        #[cfg(target_arch = "x86_64")]
        if self.segments == crate::word::MAX_SEGMENTS && dsidx_series::distance::simd_enabled() {
            let bits: &[u8; crate::word::MAX_SEGMENTS] = bits.try_into().expect("16 segments");
            let prefixes: &[u8; crate::word::MAX_SEGMENTS] =
                prefixes.try_into().expect("16 segments");
            // SAFETY: `simd_enabled` implies AVX2; segments == 16 means the
            // table holds all 16 * NODE_ROW entries, and every bits lane
            // was just checked to be in 0..=MAX_BITS.
            return unsafe { crate::simd::node_table_lookup_avx2(&self.table, bits, prefixes) };
        }
        let mut sum = 0.0f32;
        for (seg, (&b, &prefix)) in bits.iter().zip(prefixes).enumerate() {
            sum += self.table[seg * NODE_ROW + node_slot(b, prefix)];
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantizer::Quantizer;

    fn series(seed: u64, n: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut v: Vec<f32> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / 16_777_216.0) * 4.0 - 2.0
            })
            .collect();
        // z-normalize so values sit in breakpoint territory
        let mean = v.iter().sum::<f32>() / n as f32;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        let inv = 1.0 / var.sqrt().max(1e-6);
        for x in &mut v {
            *x = (*x - mean) * inv;
        }
        v
    }

    fn euclidean_sq(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    #[test]
    fn interval_dist_behaviour() {
        assert_eq!(interval_dist_sq(0.5, 0.0, 1.0), 0.0);
        assert_eq!(interval_dist_sq(-1.0, 0.0, 1.0), 1.0);
        assert_eq!(interval_dist_sq(3.0, 0.0, 1.0), 4.0);
        assert_eq!(interval_dist_sq(0.0, f32::NEG_INFINITY, 0.5), 0.0);
    }

    #[test]
    fn interval_gap_behaviour() {
        assert_eq!(interval_gap_sq(0.0, 1.0, 0.5, 2.0), 0.0, "overlap");
        assert_eq!(interval_gap_sq(2.0, 3.0, 0.0, 1.0), 1.0, "a above b");
        assert_eq!(interval_gap_sq(0.0, 1.0, 3.0, 4.0), 4.0, "a below b");
        assert_eq!(interval_gap_sq(1.0, 2.0, 2.0, 3.0), 0.0, "touching");
    }

    #[test]
    fn mindist_lower_bounds_euclidean() {
        // The crate's central invariant, exercised over many random pairs.
        let n = 64;
        let q = Quantizer::new(n, 16).unwrap();
        for seed in 0..200u64 {
            let a = series(seed * 2 + 1, n);
            let b = series(seed * 2 + 2, n);
            let word_b = q.word(&b);
            let paa_a = crate::paa::paa(&a, 16);
            let ed = euclidean_sq(&a, &b);
            let md = mindist_paa_word_sq(&paa_a, &word_b, q.segment_lens());
            assert!(
                md <= ed + ed.abs() * 1e-4 + 1e-4,
                "seed={seed}: mindist {md} > ed {ed}"
            );
        }
    }

    #[test]
    fn node_mindist_never_exceeds_word_mindist() {
        // Coarser cardinality -> wider regions -> smaller (or equal) bound.
        let n = 32;
        let q = Quantizer::new(n, 8).unwrap();
        for seed in 0..50u64 {
            let a = series(seed + 1000, n);
            let b = series(seed + 2000, n);
            let word_b = q.word(&b);
            let paa_a = crate::paa::paa(&a, 8);
            let wd = mindist_paa_word_sq(&paa_a, &word_b, q.segment_lens());
            // Build node words of decreasing precision containing b.
            let root = NodeWord::root(word_b.root_key(8), 8, 8);
            let nd = mindist_paa_node_sq(&paa_a, &root, q.segment_lens());
            assert!(
                nd <= wd + wd.abs() * 1e-5 + 1e-6,
                "node bound must be looser"
            );
        }
    }

    #[test]
    fn mindist_of_own_word_is_zero() {
        let n = 64;
        let q = Quantizer::new(n, 16).unwrap();
        let a = series(77, n);
        let w = q.word(&a);
        let paa_a = crate::paa::paa(&a, 16);
        assert_eq!(mindist_paa_word_sq(&paa_a, &w, q.segment_lens()), 0.0);
        for r in 1..=16 {
            let root = NodeWord::root(w.root_key(r), r, 16);
            assert_eq!(mindist_paa_node_sq(&paa_a, &root, q.segment_lens()), 0.0);
        }
    }

    #[test]
    fn table_matches_direct_computation() {
        let n = 128;
        let q = Quantizer::new(n, 16).unwrap();
        let a = series(5, n);
        let paa_a = crate::paa::paa(&a, 16);
        let table = MindistTable::new_point(&paa_a, q.segment_lens());
        for seed in 0..50u64 {
            let b = series(seed + 1, n);
            let w = q.word(&b);
            let direct = mindist_paa_word_sq(&paa_a, &w, q.segment_lens());
            let looked = table.lookup(&w);
            assert!(
                (direct - looked).abs() <= direct.abs() * 1e-5 + 1e-6,
                "direct {direct} vs table {looked}"
            );
        }
    }

    #[test]
    fn envelope_mindist_is_zero_when_regions_overlap() {
        let n = 32;
        let q = Quantizer::new(n, 8).unwrap();
        let a = series(9, n);
        let w = q.word(&a);
        let node = NodeWord::root(w.root_key(8), 8, 8);
        let paa_a = crate::paa::paa(&a, 8);
        // Envelope that covers the PAA exactly: bound must be <= point bound.
        let env_md = mindist_envelope_node_sq(&paa_a, &paa_a, &node, q.segment_lens());
        let pt_md = mindist_paa_node_sq(&paa_a, &node, q.segment_lens());
        assert!(env_md <= pt_md + 1e-6);
        // A wider envelope can only shrink the bound.
        let lo: Vec<f32> = paa_a.iter().map(|v| v - 0.5).collect();
        let hi: Vec<f32> = paa_a.iter().map(|v| v + 0.5).collect();
        let wide = mindist_envelope_node_sq(&lo, &hi, &node, q.segment_lens());
        assert!(wide <= env_md + 1e-6);
    }

    #[test]
    fn node_table_matches_direct_node_mindist() {
        let n = 64;
        let q = Quantizer::new(n, 16).unwrap();
        let a = series(21, n);
        let paa_a = crate::paa::paa(&a, 16);
        let table = NodeMindistTable::new_point(&paa_a, q.segment_lens());
        for seed in 0..40u64 {
            let b = series(seed + 300, n);
            let word_b = q.word(&b);
            // Walk a refinement path from a root of every fan-out (zero-bit
            // segments included), checking the table at every level.
            let r = 1 + seed as usize % 16;
            let mut node = NodeWord::root(word_b.root_key(r), r, 16);
            for k in 0..40 {
                let direct = mindist_paa_node_sq(&paa_a, &node, q.segment_lens());
                let looked = table.lookup(&node);
                assert!(
                    (direct - looked).abs() <= direct.abs() * 1e-5 + 1e-6,
                    "seed={seed} k={k}: direct {direct} vs table {looked}"
                );
                let seg = k % 16;
                if !node.can_split(seg) {
                    continue;
                }
                let (zero, one) = node.split(seg);
                node = if node.split_bit(&word_b, seg) {
                    one
                } else {
                    zero
                };
            }
        }
    }

    /// Values a table row can be filled for: random ones, every 8-bit
    /// breakpoint (so a coarser region's edge too) and values an ulp or
    /// two either side,
    /// zeros, and values past the outer breakpoints up to the infinities.
    fn probe_values() -> Vec<f32> {
        let mut values: Vec<f32> = series(91, 64);
        for &bp in breakpoints().for_bits(MAX_BITS) {
            values.extend([bp, bp * (1.0 - f32::EPSILON), bp * (1.0 + f32::EPSILON)]);
        }
        values.extend([0.0, -0.0, 3.0, -3.0, 1e30, -1e30, f32::MAX, f32::MIN]);
        values.extend([f32::INFINITY, f32::NEG_INFINITY]);
        values
    }

    #[test]
    fn filled_slots_are_bit_identical_to_the_branchy_formulas() {
        let bp = breakpoints();
        let q = Quantizer::new(250, 16).unwrap(); // weights 15 and 16
        let values = probe_values();
        for (i, chunk) in values.chunks(16).enumerate() {
            let mut paa = [0.5f32; 16];
            paa[..chunk.len()].copy_from_slice(chunk);
            // Envelopes around the values, degenerate ones and ones
            // reaching an infinity included (an infinite value is its own
            // envelope: `inf - inf` would be no interval at all).
            let widths = [0.0f32, 0.3, 2.0, f32::INFINITY];
            let around = |v: f32, w: f32| if v.is_infinite() { v } else { v + w };
            let lo: Vec<f32> = paa.iter().map(|&v| around(v, -widths[i % 4])).collect();
            let hi: Vec<f32> = paa
                .iter()
                .map(|&v| around(v, widths[(i + 1) % 4]))
                .collect();
            let lens = q.segment_lens();
            let words = [
                MindistTable::new_point(&paa, lens),
                MindistTable::new_interval(&lo, &hi, lens),
            ];
            for (kind, word) in words.iter().enumerate() {
                let node = if kind == 0 {
                    NodeMindistTable::new_point(&paa, lens)
                } else {
                    NodeMindistTable::new_interval(&lo, &hi, lens)
                };
                let dist = |seg: usize, (rlo, rhi): (f32, f32)| {
                    lens[seg] as f32
                        * if kind == 0 {
                            interval_dist_sq(paa[seg], rlo, rhi)
                        } else {
                            interval_gap_sq(lo[seg], hi[seg], rlo, rhi)
                        }
                };
                for seg in 0..16 {
                    for s in 0..=u8::MAX {
                        let want = dist(seg, bp.region(s, MAX_BITS));
                        let got = word.table[seg * MAX_CARDINALITY + usize::from(s)];
                        assert_eq!(got.to_bits(), want.to_bits(), "word kind={kind} seg={seg}");
                    }
                    for bits in 0..=MAX_BITS {
                        for prefix in 0..=((1u16 << bits) - 1) as u8 {
                            let want = dist(seg, bp.region(prefix, bits));
                            let got = node.table[seg * NODE_ROW + node_slot(bits, prefix)];
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "node kind={kind} seg={seg} bits={bits} prefix={prefix}"
                            );
                        }
                    }
                    assert_eq!(node.table[(seg + 1) * NODE_ROW - 1], 0.0, "spare slot");
                }
            }
        }
    }

    #[test]
    fn node_interval_table_matches_direct() {
        let n = 64;
        let q = Quantizer::new(n, 8).unwrap();
        let a = series(33, n);
        let paa_a = crate::paa::paa(&a, 8);
        let lo: Vec<f32> = paa_a.iter().map(|v| v - 0.4).collect();
        let hi: Vec<f32> = paa_a.iter().map(|v| v + 0.4).collect();
        let table = NodeMindistTable::new_interval(&lo, &hi, q.segment_lens());
        for seed in 0..30u64 {
            let b = series(seed + 900, n);
            let word_b = q.word(&b);
            let node = NodeWord::root(word_b.root_key(8), 8, 8);
            let direct = mindist_envelope_node_sq(&lo, &hi, &node, q.segment_lens());
            assert!((direct - table.lookup(&node)).abs() <= direct.abs() * 1e-5 + 1e-6);
        }
    }

    #[test]
    fn scalar_lookup_is_bit_identical_to_branchy_mindist() {
        // `lookup_scalar` sums the same precomputed terms in the same
        // order as `mindist_paa_word_sq` evaluates them: exact equality.
        let n = 128;
        let q = Quantizer::new(n, 16).unwrap();
        let a = series(51, n);
        let paa_a = crate::paa::paa(&a, 16);
        let table = MindistTable::new_point(&paa_a, q.segment_lens());
        for seed in 0..50u64 {
            let b = series(seed + 700, n);
            let w = q.word(&b);
            let direct = mindist_paa_word_sq(&paa_a, &w, q.segment_lens());
            assert_eq!(direct.to_bits(), table.lookup_scalar(&w).to_bits());
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_word_lookup_matches_scalar() {
        if !dsidx_series::distance::hardware_simd_available() {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        let n = 128;
        let q = Quantizer::new(n, 16).unwrap();
        let a = series(61, n);
        let paa_a = crate::paa::paa(&a, 16);
        for table in [
            MindistTable::new_point(&paa_a, q.segment_lens()),
            MindistTable::new_interval(
                &paa_a.iter().map(|v| v - 0.3).collect::<Vec<_>>(),
                &paa_a.iter().map(|v| v + 0.3).collect::<Vec<_>>(),
                q.segment_lens(),
            ),
        ] {
            for seed in 0..50u64 {
                let w = q.word(&series(seed + 800, n));
                let scalar = table.lookup_scalar(&w);
                // SAFETY: AVX2 checked above; 16-segment table is full-size.
                let simd =
                    unsafe { crate::simd::word_table_lookup_avx2(&table.table, w.symbols_raw()) };
                assert!(
                    (scalar - simd).abs() <= scalar.abs() * 1e-4 + 1e-5,
                    "seed={seed}: scalar {scalar} vs simd {simd}"
                );
            }
        }
    }

    #[test]
    fn lookup_many_is_bit_identical_to_scalar() {
        // Holds with SIMD on or off: the batch kernel's vertical
        // accumulation replays lookup_scalar's add order per lane. Odd
        // lengths exercise the scalar remainder path too.
        let n = 128;
        let q = Quantizer::new(n, 16).unwrap();
        let a = series(81, n);
        let paa_a = crate::paa::paa(&a, 16);
        let table = MindistTable::new_point(&paa_a, q.segment_lens());
        // `pad` oversizes the output buffer relative to `words`: the scan
        // callers reuse a fixed block buffer whose tail must still receive
        // every word's bound (a padded buffer once desynchronized the SIMD
        // path's chunk remainders, leaving the last `count % 8` slots stale).
        for count in [0usize, 1, 7, 8, 9, 13, 16, 61] {
            for pad in [0usize, 1, 3, 8, 11] {
                let words: Vec<Word> = (0..count)
                    .map(|i| q.word(&series(i as u64 + 1100, n)))
                    .collect();
                let mut out = vec![f32::NAN; count + pad];
                table.lookup_many(&words, &mut out);
                for (w, o) in words.iter().zip(&out) {
                    assert_eq!(
                        table.lookup_scalar(w).to_bits(),
                        o.to_bits(),
                        "count={count} pad={pad}"
                    );
                }
                assert!(
                    out[count..].iter().all(|v| v.is_nan()),
                    "count={count} pad={pad}: slots past words.len() must stay untouched"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_node_lookup_matches_scalar() {
        if !dsidx_series::distance::hardware_simd_available() {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        let n = 64;
        let q = Quantizer::new(n, 16).unwrap();
        let a = series(71, n);
        let paa_a = crate::paa::paa(&a, 16);
        let table = NodeMindistTable::new_point(&paa_a, q.segment_lens());
        for seed in 0..40u64 {
            let word_b = q.word(&series(seed + 900, n));
            let r = 1 + seed as usize % 16;
            let mut node = NodeWord::root(word_b.root_key(r), r, 16);
            for k in 0..40 {
                let scalar = table.lookup_scalar(&node);
                // SAFETY: AVX2 checked above; NodeWord keeps bits in 0..=8.
                let simd = unsafe {
                    crate::simd::node_table_lookup_avx2(
                        &table.table,
                        node.bits_raw(),
                        node.prefixes_raw(),
                    )
                };
                assert!(
                    (scalar - simd).abs() <= scalar.abs() * 1e-4 + 1e-5,
                    "seed={seed} k={k}: scalar {scalar} vs simd {simd}"
                );
                // lookup_parts with valid bits routes to the same kernel.
                let parts = table.lookup_parts(node.bits_raw(), node.prefixes_raw());
                assert!((scalar - parts).abs() <= scalar.abs() * 1e-4 + 1e-5);
                let seg = k % 16;
                if !node.can_split(seg) {
                    continue;
                }
                let (zero, one) = node.split(seg);
                node = if node.split_bit(&word_b, seg) {
                    one
                } else {
                    zero
                };
            }
        }
    }

    /// Words with pseudo-random symbols (every nibble pattern shows up).
    fn random_words(seed: u64, count: usize) -> Vec<Word> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..count)
            .map(|_| {
                let mut symbols = [0u8; MAX_SEGMENTS];
                for s in &mut symbols {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    *s = (state >> 56) as u8;
                }
                Word::new(&symbols)
            })
            .collect()
    }

    #[test]
    fn coarse_slots_are_the_quantised_nibble_minima() {
        let q = Quantizer::new(256, 16).unwrap();
        let paa_a = crate::paa::paa(&series(3, 256), 16);
        let table = MindistTable::new_point(&paa_a, q.segment_lens());
        let reference = table.lookup_scalar(&random_words(1, 1)[0]).max(1.0);
        let coarse = CoarseTable::new(&table, reference).unwrap();
        let scale = 250.0 / f64::from(reference);
        for seg in 0..16 {
            for h in 0..16 {
                let fine = &table.table[seg * 256 + h * 16..][..16];
                let v = fine.iter().copied().fold(f32::INFINITY, f32::min);
                let want = (f64::from(v) * scale * (1.0 - 1.0 / 1024.0))
                    .floor()
                    .clamp(0.0, 250.0) as u8;
                assert_eq!(coarse.slots[seg * 16 + h], want, "seg={seg} h={h}");
            }
        }
        // The threshold: ceil(L * S) + 1, refused past 255 or for a limit
        // that is not finite and positive.
        assert_eq!(coarse.threshold(reference), Some(251));
        assert_eq!(coarse.threshold(reference / 2.0), Some(126));
        assert_eq!(coarse.threshold(reference * 1.1), None);
        for bad in [0.0, -1.0, f32::INFINITY, f32::NAN] {
            assert_eq!(coarse.threshold(bad), None);
        }
        for bad in [0.0, -1.0, f32::INFINITY, f32::NAN] {
            assert!(CoarseTable::new(&table, bad).is_none());
        }
        let eight = Quantizer::new(64, 8).unwrap();
        let narrow = MindistTable::new_point(&paa_a[..8], eight.segment_lens());
        assert!(CoarseTable::new(&narrow, 1.0).is_none(), "16 segments only");
    }

    #[test]
    fn a_word_bounded_just_below_the_limit_survives_the_coarse_stage() {
        // The tightest case for the quantisation: the whole bound sits in
        // one segment, whose symbol is the nearest of its nibble to the
        // query (so the coarse slot is the fine one, floored once), every
        // other segment contributes an exact zero, and the limit is one ulp
        // above the bound. The word must survive for every reference at or
        // above the limit, and every SIMD mode.
        let q = Quantizer::new(256, 16).unwrap();
        let table = MindistTable::new_point(&[0.0; 16], q.segment_lens());
        let inside = (0..=u8::MAX)
            .find(|&s| table.table[usize::from(s)] == 0.0)
            .expect("the query's own region");
        for seg in 0..16 {
            for nibble in 0..7u8 {
                let mut symbols = [inside; MAX_SEGMENTS];
                symbols[seg] = nibble * 16 + 15;
                let word = Word::new(&symbols);
                let bound = table.lookup_scalar(&word);
                assert!(bound > 0.0);
                let limit = f32::from_bits(bound.to_bits() + 1);
                for factor in [1.0f32, 1.01, 1.5, 2.0] {
                    let coarse = CoarseTable::new(&table, limit * factor).unwrap();
                    let threshold = coarse.threshold(limit).unwrap();
                    let block = [word; COARSE_BLOCK];
                    assert_eq!(coarse.may_survive(&block, threshold), u32::MAX);
                    assert_eq!(coarse.may_survive_scalar(&block[..1], threshold), 1);
                    let mut kept = Vec::new();
                    table.for_each_below(Some(&coarse), &block[..3], limit, |i, lb| {
                        kept.push((i, lb))
                    });
                    assert_eq!(kept, [(0, bound), (1, bound), (2, bound)]);
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_coarse_mask_matches_scalar() {
        if !dsidx_series::distance::hardware_simd_available() {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        let q = Quantizer::new(256, 16).unwrap();
        let paa_a = crate::paa::paa(&series(17, 256), 16);
        let lo: Vec<f32> = paa_a.iter().map(|v| v - 0.4).collect();
        let hi: Vec<f32> = paa_a.iter().map(|v| v + 0.4).collect();
        let words = random_words(5, 32 * 8);
        for table in [
            MindistTable::new_point(&paa_a, q.segment_lens()),
            MindistTable::new_interval(&lo, &hi, q.segment_lens()),
        ] {
            for reference in [0.5f32, 4.0, 30.0, 400.0] {
                let coarse = CoarseTable::new(&table, reference).unwrap();
                for threshold in [1u8, 2, 64, 127, 200, 251, 254, 255] {
                    for block in words.chunks_exact(COARSE_BLOCK) {
                        let full: &[Word; COARSE_BLOCK] = block.try_into().unwrap();
                        // SAFETY: AVX2 checked above; the threshold is >= 1.
                        let simd = unsafe {
                            crate::simd::coarse_mask32_avx2(&coarse.slots, full, threshold)
                        };
                        assert_eq!(simd, coarse.may_survive_scalar(block, threshold));
                        // Partial blocks go through the dispatcher's copy.
                        for len in [0, 1, 7, 16, 17, 31] {
                            assert_eq!(
                                coarse.may_survive(&block[..len], threshold),
                                coarse.may_survive_scalar(&block[..len], threshold),
                                "len={len} threshold={threshold}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn coarse_masks_pass_everything_at_a_high_threshold_and_nothing_at_zero() {
        let q = Quantizer::new(256, 16).unwrap();
        let paa_a = crate::paa::paa(&series(23, 256), 16);
        let table = MindistTable::new_point(&paa_a, q.segment_lens());
        // A reference far above every bound: every slot quantises to 0.
        let coarse = CoarseTable::new(&table, f32::MAX).unwrap();
        let words = random_words(9, 40);
        assert_eq!(coarse.may_survive(&words[..32], 1), u32::MAX);
        assert_eq!(coarse.may_survive(&words[32..], 1), 0xFF);
        assert_eq!(coarse.may_survive(&words[..32], 0), 0);
        assert_eq!(coarse.may_survive_scalar(&words[..32], 0), 0);
    }

    #[test]
    fn interval_table_matches_direct() {
        let n = 64;
        let q = Quantizer::new(n, 16).unwrap();
        let a = series(13, n);
        let paa_a = crate::paa::paa(&a, 16);
        let lo: Vec<f32> = paa_a.iter().map(|v| v - 0.3).collect();
        let hi: Vec<f32> = paa_a.iter().map(|v| v + 0.3).collect();
        let table = MindistTable::new_interval(&lo, &hi, q.segment_lens());
        for seed in 0..30u64 {
            let b = series(seed + 500, n);
            let w = q.word(&b);
            // Direct: full-cardinality node word equivalent.
            let mut direct = 0.0f32;
            let bp = breakpoints();
            for seg in 0..16 {
                let (rlo, rhi) = bp.region(w.symbol(seg), MAX_BITS);
                direct +=
                    q.segment_lens()[seg] as f32 * interval_gap_sq(lo[seg], hi[seg], rlo, rhi);
            }
            let looked = table.lookup(&w);
            assert!((direct - looked).abs() <= direct.abs() * 1e-5 + 1e-6);
        }
    }
}
