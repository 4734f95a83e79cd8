//! DTW query preparation.
//!
//! A banded-DTW query carries more prepared state than a Euclidean one:
//! the LB_Keogh envelope of the query, the PAA of that envelope (segment
//! means of its lower and upper half), and the *interval* MINDIST tables
//! built from them (a point query lower-bounds candidates from its own
//! PAA; a warped query must lower-bound them from everything the band
//! allows). [`DtwPrepared`] packages all of it with the band, built once
//! per query.
//!
//! As a [`Prepared`] query it runs through the same kernel loops as a
//! Euclidean one: index summaries are bounded through the interval tables,
//! and every raw series that survives goes through the one raw-series
//! cascade, [`dtw_cascade`] — LB_Keogh, reversed LB_Keogh, banded DTW
//! abandoning on the bounds' unpaid remainder — against the live
//! threshold, its verdict booked by [`QueryStats::count_dtw`].

use crate::prepare::Prepared;
use crate::stats::QueryStats;
use dsidx_isax::paa::envelope_paa_bounds;
use dsidx_isax::{MindistTable, NodeMindistTable, Quantizer, Word};
use dsidx_obs::phase::Phase;
use dsidx_series::distance::dtw::{dtw_cascade, envelope, DtwScratch};

/// Everything a banded-DTW query needs before touching index structures:
/// the band, the query envelope (for LB_Keogh), its per-segment PAA
/// bounds, and the interval word-level MINDIST table (for SAX-array and
/// leaf-entry bounds). The DTW counterpart of
/// [`PreparedQuery`](crate::PreparedQuery).
#[derive(Debug, Clone)]
pub struct DtwPrepared {
    /// Sakoe-Chiba half-width in points.
    pub band: usize,
    /// Lower envelope of the query under the band (length = series length).
    pub lo_env: Vec<f32>,
    /// Upper envelope of the query under the band.
    pub hi_env: Vec<f32>,
    /// Segment means of the lower envelope (see [`envelope_paa_bounds`]).
    lo_paa: Vec<f32>,
    /// Segment means of the upper envelope.
    hi_paa: Vec<f32>,
    /// Interval word-level MINDIST table — a sound DTW lower bound.
    pub table: MindistTable,
    /// The query's own full-cardinality iSAX word (locates its seed leaf).
    pub word: Word,
}

impl DtwPrepared {
    /// Builds the DTW prepared state for `query` under a Sakoe-Chiba band
    /// of half-width `band`.
    ///
    /// # Panics
    /// Panics if the query length differs from the quantizer's series
    /// length (engines assert this at their API boundary).
    #[must_use]
    pub fn new(quantizer: &Quantizer, query: &[f32], band: usize) -> Self {
        let mut lo_env = Vec::new();
        let mut hi_env = Vec::new();
        envelope(query, band, &mut lo_env, &mut hi_env);
        let segments = quantizer.segment_lens().len();
        let mut lo_paa = vec![0.0f32; segments];
        let mut hi_paa = vec![0.0f32; segments];
        envelope_paa_bounds(&lo_env, &hi_env, &mut lo_paa, &mut hi_paa);
        let table = MindistTable::new_interval(&lo_paa, &hi_paa, quantizer.segment_lens());
        Self {
            band,
            lo_env,
            hi_env,
            lo_paa,
            hi_paa,
            table,
            word: quantizer.word(query),
        }
    }
}

/// Interval tables from the query's envelope, the raw-series cascade for
/// what survives them, booked under [`Phase::DtwCascade`].
impl Prepared for DtwPrepared {
    const PHASE: Phase = Phase::DtwCascade;

    #[inline]
    fn word(&self) -> &Word {
        &self.word
    }

    #[inline]
    fn table(&self) -> &MindistTable {
        &self.table
    }

    fn node_table(&self, quantizer: &Quantizer) -> NodeMindistTable {
        NodeMindistTable::new_interval(&self.lo_paa, &self.hi_paa, quantizer.segment_lens())
    }

    #[inline]
    fn distance(
        &self,
        query: &[f32],
        series: &[f32],
        limit: f32,
        scratch: &mut DtwScratch,
        stats: &mut QueryStats,
    ) -> Option<f32> {
        let verdict = dtw_cascade(
            query,
            &self.lo_env,
            &self.hi_env,
            series,
            self.band,
            limit,
            scratch,
        );
        stats.count_dtw(verdict, scratch.cells())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::SeriesFetcher;
    use crate::scan::{process_leaf_entries, LeafScratch};
    use dsidx_series::distance::dtw::dtw_sq;
    use dsidx_series::gen::DatasetKind;
    use dsidx_series::Dataset;
    use dsidx_tree::TreeConfig;

    fn fixture(n: usize) -> (Dataset, TreeConfig) {
        let config = TreeConfig::new(64, 8, 16).unwrap();
        let data = DatasetKind::Synthetic.generate(n, 64, 5);
        (data, config)
    }

    /// The whole fixture as one leaf: its words and positions.
    fn leaf_of(data: &Dataset, quantizer: &Quantizer) -> (Vec<Word>, Vec<u32>) {
        let words = data.iter().map(|s| quantizer.word(s)).collect();
        (words, (0..data.len() as u32).collect())
    }

    fn brute_dtw_topk(data: &Dataset, q: &[f32], band: usize, k: usize) -> Vec<(f32, u32)> {
        let mut all: Vec<(f32, u32)> = data
            .iter()
            .enumerate()
            .map(|(pos, s)| (dtw_sq(q, s, band), pos as u32))
            .collect();
        all.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    #[test]
    fn interval_table_lower_bounds_dtw() {
        let (data, config) = fixture(200);
        let quantizer = config.quantizer();
        let qs = DatasetKind::Synthetic.queries(3, 64, 9);
        for band in [0usize, 3, 6] {
            for q in qs.iter() {
                let prep = DtwPrepared::new(quantizer, q, band);
                for s in data.iter() {
                    let word = quantizer.word(s);
                    let lb = prep.table.lookup(&word);
                    let d = dtw_sq(q, s, band);
                    assert!(
                        lb <= d + d.abs() * 1e-4 + 1e-4,
                        "interval bound {lb} exceeds DTW {d} (band {band})"
                    );
                }
            }
        }
    }

    #[test]
    fn envelope_matches_direct_computation() {
        let (_, config) = fixture(1);
        let q = DatasetKind::Sald.queries(1, 64, 3);
        let prep = DtwPrepared::new(config.quantizer(), q.get(0), 4);
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        envelope(q.get(0), 4, &mut lo, &mut hi);
        assert_eq!(prep.lo_env, lo);
        assert_eq!(prep.hi_env, hi);
    }

    #[test]
    fn seeding_visit_dtw_finds_leaf_minimum() {
        let (data, config) = fixture(100);
        let quantizer = config.quantizer();
        let (words, positions) = leaf_of(&data, quantizer);
        // A 20-entry leaf holding series 7, the query itself.
        let (words, positions) = (&words[..20], &positions[..20]);
        let q = data.get(7);
        let prep = DtwPrepared::new(quantizer, q, 3);
        let topk = dsidx_sync::SharedTopK::new(1);
        let mut stats = QueryStats::default();
        let fetched = process_leaf_entries(
            words,
            positions,
            &prep,
            &mut SeriesFetcher::new(&data),
            q,
            &topk,
            &mut LeafScratch::new(),
            &mut stats,
        )
        .unwrap();
        // Series 7 is among the entries, so its DTW distance of 0 wins.
        assert_eq!(topk.matches(), vec![(0.0, 7)]);
        // Its entry bounds to zero and is tried among the first; nothing
        // bounding above zero is tried after it.
        assert!((1..20).contains(&fetched), "{fetched}");
        assert_eq!(stats.lb_entry_computed, 20);
        assert_eq!(stats.lb_keogh_computed, fetched);
        assert!(stats.real_computed >= 1);
    }

    #[test]
    fn single_query_leaf_cascade_equals_brute_force() {
        let (data, config) = fixture(220);
        let quantizer = config.quantizer();
        let (words, positions) = leaf_of(&data, quantizer);
        let qs = DatasetKind::Synthetic.queries(3, 64, 21);
        let band = 4;
        for q in qs.iter() {
            let prep = DtwPrepared::new(quantizer, q, band);
            let topk = dsidx_sync::SharedTopK::new(6);
            let mut fetcher = SeriesFetcher::new(&data);
            let mut stats = QueryStats::default();
            let fetched = process_leaf_entries(
                &words,
                &positions,
                &prep,
                &mut fetcher,
                q,
                &topk,
                &mut LeafScratch::new(),
                &mut stats,
            )
            .unwrap();
            assert_eq!(fetched, stats.lb_keogh_computed);
            let want = brute_dtw_topk(&data, q, band, 6);
            assert_eq!(
                topk.matches().iter().map(|m| m.1).collect::<Vec<_>>(),
                want.iter().map(|w| w.1).collect::<Vec<_>>()
            );
            // Every entry pays the entry bound; survivors resolve to
            // pruned, abandoned, or fully paid DTWs.
            assert_eq!(stats.lb_entry_computed, 220);
            assert_eq!(
                stats.lb_keogh_pruned + stats.dtw_abandoned + stats.real_computed,
                stats.lb_keogh_computed
            );
        }
    }
}
