//! Per-query preparation shared by every engine: PAA summary, iSAX word,
//! and the MINDIST lookup tables.

use dsidx_isax::{MindistTable, NodeMindistTable, Quantizer, Word};

/// Everything an exact-NN query needs before touching index structures.
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

    /// Builds the node-level table for tree-traversing engines (MESSI).
    /// Separate from construction because scan-based engines never need it.
    #[must_use]
    pub fn node_table(&self, quantizer: &Quantizer) -> NodeMindistTable {
        NodeMindistTable::new_point(&self.paa, quantizer.segment_lens())
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
