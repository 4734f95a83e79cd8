//! Per-query preparation shared by every engine: PAA summary, iSAX word,
//! and the MINDIST lookup tables — and [`Prepared`], what every kernel
//! loop reads from a prepared query whatever its measure.

use crate::stats::QueryStats;
use dsidx_isax::{MindistTable, NodeMindistTable, Quantizer, Word};
use dsidx_obs::phase::Phase;
use dsidx_series::distance::dtw::DtwScratch;
use dsidx_series::distance::euclidean_sq_bounded;

/// A query prepared under one measure: everything the kernel loops need
/// from it. The seed, leaf and batch loops are written once against this
/// trait, so a measure is a type implementing it —
/// [`PreparedQuery`] (Euclidean) or [`DtwPrepared`](crate::DtwPrepared)
/// (banded DTW) — never a copy of a loop.
pub trait Prepared: Send + Sync {
    /// The phase a tree traversal and the leaf work it feeds are booked
    /// under for this measure.
    const PHASE: Phase;

    /// The query's full-cardinality iSAX word (locates its approximate
    /// leaf).
    fn word(&self) -> &Word;

    /// The word-level MINDIST table: a sound lower bound of this measure
    /// for SAX-array and leaf-entry words.
    fn table(&self) -> &MindistTable;

    /// The node-level MINDIST table (tree traversal).
    fn node_table(&self, quantizer: &Quantizer) -> NodeMindistTable;

    /// The distance from `query` (the series this state was prepared
    /// from) to `series` if it is below `limit`, booked in `stats` the
    /// way the measure books a candidate: an Euclidean distance counts
    /// `real_computed` when it completes; a DTW candidate goes through the
    /// cascade and is booked by [`QueryStats::count_dtw`]. `scratch` holds
    /// the cascade's buffers (unused under Euclidean distance).
    fn distance(
        &self,
        query: &[f32],
        series: &[f32],
        limit: f32,
        scratch: &mut DtwScratch,
        stats: &mut QueryStats,
    ) -> Option<f32>;
}

/// Everything an exact Euclidean query needs before touching index
/// structures.
///
/// Built once per query; engines then consume the pieces their algorithm
/// uses (the word for descent, the word-level table for entry/SAX-array
/// bounds, the node-level table for tree traversal).
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The query's PAA summary (`segments` values).
    pub paa: Vec<f32>,
    /// The query's full-cardinality iSAX word (drives approximate descent).
    pub word: Word,
    /// Word-level MINDIST lookup table (SAX-array scans, leaf entries).
    pub table: MindistTable,
}

impl PreparedQuery {
    /// Summarizes `query` under `quantizer`.
    ///
    /// # Panics
    /// Panics if the query length differs from the quantizer's series
    /// length (engines assert this at their API boundary).
    #[must_use]
    pub fn new(quantizer: &Quantizer, query: &[f32]) -> Self {
        let mut paa = vec![0.0f32; quantizer.segment_lens().len()];
        quantizer.paa_into(query, &mut paa);
        let word = quantizer.word_from_paa(&paa);
        let table = MindistTable::new_point(&paa, quantizer.segment_lens());
        Self { paa, word, table }
    }
}

/// Point tables from the query's PAA, early-abandoned Euclidean distance.
impl Prepared for PreparedQuery {
    const PHASE: Phase = Phase::Traversal;

    #[inline]
    fn word(&self) -> &Word {
        &self.word
    }

    #[inline]
    fn table(&self) -> &MindistTable {
        &self.table
    }

    fn node_table(&self, quantizer: &Quantizer) -> NodeMindistTable {
        NodeMindistTable::new_point(&self.paa, quantizer.segment_lens())
    }

    /// Goes through [`euclidean_sq_bounded`] like every insertion in the
    /// kernel, never the unbounded variant: the two SIMD kernels add in
    /// different orders and can disagree in the last bit, and a reported
    /// distance must not depend on which loop reached the series first.
    #[inline]
    fn distance(
        &self,
        query: &[f32],
        series: &[f32],
        limit: f32,
        _scratch: &mut DtwScratch,
        stats: &mut QueryStats,
    ) -> Option<f32> {
        let d = euclidean_sq_bounded(query, series, limit)?;
        stats.real_computed += 1;
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_isax::mindist::mindist_paa_word_sq;
    use dsidx_series::znorm::znormalize;

    fn series(seed: u64, n: usize) -> Vec<f32> {
        let mut state = seed | 1;
        let mut v: Vec<f32> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / 16_777_216.0) * 4.0 - 2.0
            })
            .collect();
        znormalize(&mut v);
        v
    }

    #[test]
    fn matches_direct_quantizer_calls() {
        let quantizer = Quantizer::new(64, 8).unwrap();
        let q = series(3, 64);
        let prep = PreparedQuery::new(&quantizer, &q);
        assert_eq!(prep.word, quantizer.word(&q));
        // Table lookups equal the direct word-level MINDIST.
        let c = series(9, 64);
        let word_c = quantizer.word(&c);
        let direct = mindist_paa_word_sq(&prep.paa, &word_c, quantizer.segment_lens());
        let looked = prep.table.lookup(&word_c);
        assert!((direct - looked).abs() <= direct.abs() * 1e-5 + 1e-6);
    }

    #[test]
    fn node_table_bounds_word_table() {
        let quantizer = Quantizer::new(64, 8).unwrap();
        let q = series(5, 64);
        let prep = PreparedQuery::new(&quantizer, &q);
        let node_table = prep.node_table(&quantizer);
        let c = series(11, 64);
        let word_c = quantizer.word(&c);
        // Node-level (coarse) bound never exceeds the word-level bound,
        // whatever the root fan-out.
        let fine = prep.table.lookup(&word_c);
        for r in 1..=8 {
            let root = dsidx_isax::NodeWord::root(word_c.root_key(r), r, 8);
            let coarse = node_table.lookup(&root);
            assert!(coarse <= fine + fine.abs() * 1e-5 + 1e-5);
        }
    }
}
