//! Correctness: an independent brute-force oracle and the answer checker.
//!
//! Nothing here calls a `dsidx` kernel: the distances are the harness's
//! own loops (f64 accumulation), so a kernel bug cannot hide behind itself.

use crate::inputs::SERIES_LEN;
use dsidx::prelude::Match;

/// Two distances agree when they differ by at most this share.
pub const REL_TOLERANCE: f64 = 1e-4;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    Euclidean,
    Dtw { band: usize },
}

/// Squared distance when it is below `limit`, else `None` (abandoned).
pub fn distance_sq(metric: Metric, a: &[f32], b: &[f32], limit: f64) -> Option<f64> {
    match metric {
        Metric::Euclidean => euclidean_sq(a, b, limit),
        Metric::Dtw { band } => dtw_sq(a, b, band, limit),
    }
}

fn euclidean_sq(a: &[f32], b: &[f32], limit: f64) -> Option<f64> {
    let mut sum = 0.0f64;
    for (ca, cb) in a.chunks(32).zip(b.chunks(32)) {
        for (&x, &y) in ca.iter().zip(cb) {
            let d = f64::from(x) - f64::from(y);
            sum += d * d;
        }
        if sum >= limit {
            return None;
        }
    }
    Some(sum)
}

/// Banded DTW over squared point costs, two rolling rows; abandons when a
/// whole row is at or above `limit` (every warping path crosses every row).
fn dtw_sq(a: &[f32], b: &[f32], band: usize, limit: f64) -> Option<f64> {
    let n = a.len();
    let band = band.min(n - 1);
    let mut prev = vec![f64::INFINITY; n];
    let mut curr = vec![f64::INFINITY; n];
    for (i, &ai) in a.iter().enumerate() {
        let lo = i.saturating_sub(band);
        let hi = (i + band).min(n - 1);
        let mut row_min = f64::INFINITY;
        for j in lo..=hi {
            let d = f64::from(ai) - f64::from(b[j]);
            let best = if i == 0 && j == 0 {
                0.0
            } else {
                let up = prev[j];
                let left = if j > lo { curr[j - 1] } else { f64::INFINITY };
                let diag = if j > 0 { prev[j - 1] } else { f64::INFINITY };
                up.min(left).min(diag)
            };
            curr[j] = best + d * d;
            row_min = row_min.min(curr[j]);
        }
        if row_min >= limit {
            return None;
        }
        std::mem::swap(&mut prev, &mut curr);
        // Cells outside the next row's band must not leak in as stale
        // values: the next row reads prev[lo'-1..=hi'] at most.
        curr[lo..=hi].fill(f64::INFINITY);
    }
    Some(prev[n - 1]).filter(|&d| d < limit)
}

/// Brute-force k-NN for a set of queries, fed the collection block by
/// block (so it works the same from memory and from a file).
pub struct Oracle<'q> {
    metric: Metric,
    k: usize,
    queries: Vec<&'q [f32]>,
    /// Per query, ascending by `(distance, position)`, at most `k` long.
    tops: Vec<Vec<(f64, u32)>>,
}

impl<'q> Oracle<'q> {
    pub fn new(metric: Metric, k: usize, queries: Vec<&'q [f32]>) -> Self {
        let tops = vec![Vec::with_capacity(k + 1); queries.len()];
        Self {
            metric,
            k,
            queries,
            tops,
        }
    }

    /// Scans one block of the collection (`first` is its first position)
    /// against every query, the queries split over two threads.
    pub fn feed(&mut self, first: usize, block: &[f32]) {
        let (metric, k) = (self.metric, self.k);
        let half = self.queries.len().div_ceil(2).max(1);
        std::thread::scope(|scope| {
            for (queries, tops) in self.queries.chunks(half).zip(self.tops.chunks_mut(half)) {
                scope.spawn(move || {
                    for (query, top) in queries.iter().zip(tops) {
                        for (i, series) in block.chunks_exact(SERIES_LEN).enumerate() {
                            let limit = if top.len() == k {
                                top[k - 1].0
                            } else {
                                f64::INFINITY
                            };
                            if let Some(d) = distance_sq(metric, query, series, limit) {
                                let pos = (first + i) as u32;
                                let at = top.partition_point(|&(td, tp)| (td, tp) < (d, pos));
                                top.insert(at, (d, pos));
                                top.truncate(k);
                            }
                        }
                    }
                });
            }
        });
    }

    /// The exact answers, index-aligned with the queries given to `new`.
    pub fn into_answers(self) -> Vec<Vec<(f64, u32)>> {
        self.tops
    }
}

/// What became of one `search` call: its per-query match lists, or the
/// error text.
pub type CallResult = Result<Vec<Vec<Match>>, String>;

/// Failure accounting over the operations of one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub oracle_checked: u64,
    /// The first few failure descriptions, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one attempted operation; `problem` marks it failed.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(p);
            }
        }
    }
}

fn rel_close(got: f64, want: f64) -> bool {
    (got - want).abs() <= REL_TOLERANCE * want.abs().max(1e-9)
}

/// Structural checks every answer gets: `expected_len` results with
/// finite non-negative distances, ascending by `(distance, position)`,
/// positions distinct and inside the collection.
pub fn check_structure(
    matches: &[Match],
    expected_len: usize,
    collection_len: usize,
) -> Result<(), String> {
    if matches.len() != expected_len {
        return Err(format!(
            "{} results, expected {expected_len}",
            matches.len()
        ));
    }
    for m in matches {
        if !(m.dist_sq.is_finite() && m.dist_sq >= 0.0) {
            return Err(format!("distance {} at position {}", m.dist_sq, m.pos));
        }
        if m.pos as usize >= collection_len {
            return Err(format!("position {} outside the collection", m.pos));
        }
    }
    for pair in matches.windows(2) {
        if (pair[0].dist_sq, pair[0].pos) >= (pair[1].dist_sq, pair[1].pos) {
            return Err(format!(
                "results out of order or repeated at position {}",
                pair[1].pos
            ));
        }
    }
    let mut positions: Vec<u32> = matches.iter().map(|m| m.pos).collect();
    positions.sort_unstable();
    positions.dedup();
    if positions.len() != matches.len() {
        return Err("a position appears twice".into());
    }
    Ok(())
}

/// The cheap bound every planted query gets: the best answer is no
/// farther than the series the query was planted next to.
pub fn check_planted(best: &Match, source_dist_sq: f64) -> Result<(), String> {
    let got = f64::from(best.dist_sq).sqrt();
    let bound = source_dist_sq.sqrt();
    if got <= bound * (1.0 + REL_TOLERANCE) {
        Ok(())
    } else {
        Err(format!(
            "best distance {got} exceeds planted source's {bound}"
        ))
    }
}

/// The full check for sampled queries: distances equal the oracle's rank
/// by rank (positions may differ on exact ties).
pub fn check_against_oracle(matches: &[Match], truth: &[(f64, u32)]) -> Result<(), String> {
    if matches.len() != truth.len() {
        return Err(format!(
            "{} results, oracle has {}",
            matches.len(),
            truth.len()
        ));
    }
    for (rank, (m, &(want_sq, want_pos))) in matches.iter().zip(truth).enumerate() {
        let (got, want) = (f64::from(m.dist_sq).sqrt(), want_sq.sqrt());
        if !rel_close(got, want) {
            return Err(format!(
                "rank {rank}: distance {got} at position {}, oracle {want} at position {want_pos}",
                m.pos
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    fn brute(
        metric: Metric,
        k: usize,
        data: &dsidx::prelude::Dataset,
        q: &[f32],
    ) -> Vec<(f64, u32)> {
        let mut all: Vec<(f64, u32)> = data
            .iter()
            .enumerate()
            .map(|(i, s)| (distance_sq(metric, q, s, f64::INFINITY).unwrap(), i as u32))
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        all.truncate(k);
        all
    }

    #[test]
    fn abandoning_scan_equals_the_plain_sort() {
        let data = inputs::collection(400, 5);
        let qs = inputs::collection(3, 6);
        for (metric, k) in [(Metric::Euclidean, 10), (Metric::Dtw { band: 12 }, 1)] {
            let mut oracle = Oracle::new(metric, k, qs.iter().collect());
            inputs::for_each_block_of(&data, |first, block| oracle.feed(first, block));
            for (q, got) in qs.iter().zip(oracle.into_answers()) {
                assert_eq!(got, brute(metric, k, &data, q));
            }
        }
    }

    #[test]
    fn dtw_is_euclidean_at_band_zero_and_never_above_it() {
        let data = inputs::collection(6, 9);
        for i in 0..5 {
            let (a, b) = (data.get(i), data.get(i + 1));
            let ed = euclidean_sq(a, b, f64::INFINITY).unwrap();
            assert!((dtw_sq(a, b, 0, f64::INFINITY).unwrap() - ed).abs() < 1e-9);
            let warped = dtw_sq(a, b, 12, f64::INFINITY).unwrap();
            assert!(warped <= ed + 1e-9);
            assert_eq!(dtw_sq(a, b, 12, warped), None, "limit is exclusive");
            assert_eq!(dtw_sq(a, b, 12, warped * 1.001), Some(warped));
        }
    }

    #[test]
    fn corrupted_answers_and_errors_are_counted() {
        let data = inputs::collection(200, 2);
        let q = inputs::collection(1, 3);
        let truth = brute(Metric::Euclidean, 3, &data, q.get(0));
        let good: Vec<Match> = truth
            .iter()
            .map(|&(d, p)| Match::new(p, d as f32))
            .collect();
        assert!(check_structure(&good, 3, 200).is_ok());
        assert!(check_against_oracle(&good, &truth).is_ok());

        let mut wrong_distance = good.clone();
        wrong_distance[1].dist_sq *= 1.01;
        let mut unordered = good.clone();
        unordered.swap(0, 2);
        let mut repeated = good.clone();
        repeated[2] = repeated[1];
        let mut outside = good.clone();
        outside[2].pos = 200;

        let mut tally = Tally::default();
        let calls: Vec<CallResult> = vec![
            Ok(vec![good.clone()]),
            Ok(vec![wrong_distance]),
            Ok(vec![unordered]),
            Ok(vec![repeated]),
            Ok(vec![outside]),
            Ok(vec![good[..2].to_vec()]),
            Err("injected".into()),
        ];
        for call in &calls {
            let problem = match call {
                Err(e) => Some(e.clone()),
                Ok(lists) => check_structure(&lists[0], 3, 200)
                    .and_then(|()| check_against_oracle(&lists[0], &truth))
                    .err(),
            };
            tally.record(problem);
        }
        assert_eq!((tally.attempted, tally.failed), (7, 6));

        // The planted bound: fine at the source's distance, not beyond.
        assert!(check_planted(&good[0], truth[0].0).is_ok());
        assert!(check_planted(&good[1], truth[0].0).is_err());
    }
}
