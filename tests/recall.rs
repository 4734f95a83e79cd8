//! Recall floors for `Fidelity::Approximate`.
//!
//! An approximate answer is a list of real neighbours, but not necessarily
//! the nearest ones; what it is worth is its recall@k — the share of the
//! exact k nearest (by brute force) it contains. This pins a floor under
//! that share for every engine and measure at k = 1 and k = 10, on a
//! seeded random-walk collection queried two ways:
//!
//! * **fresh** queries, drawn from the collection's distribution but not
//!   in it — the hard case, where the query's own leaf may hold nothing
//!   near it;
//! * **planted** queries, collection members plus a little noise — the
//!   case an approximate search exists for, where the nearest neighbour
//!   sits in the query's own leaf.
//!
//! Each floor sits a stated margin ([`MARGIN`]) below the recall measured
//! when it was pinned, so it catches a change that makes approximate
//! answers worse without pinning the exact value.

use dsidx::prelude::*;
use dsidx::ucr::brute_force_knn;
use dsidx::ucr::dtw::brute_force_dtw_knn;
use std::collections::HashSet;

const COUNT: usize = 2000;
const LEN: usize = 64;
const QUERIES: usize = 16;
const SEED: u64 = 2027;
const BAND: usize = 3;
const K: usize = 10;
/// How far below the measured recall each floor sits: at 16 queries one
/// query's k = 1 answer is worth 0.0625, so a floor allows one such loss
/// and no more.
const MARGIN: f64 = 0.1;

/// Recall measured when the floors were pinned, as `(engine, measure,
/// query set, [recall@1, recall@10])`. ADS+ and MESSI answer from the
/// query's own leaf and share it; ParIS probes the best few-times-k
/// positions of its whole SAX array by word-level bound.
const MEASURED: [(&str, &str, &str, [f64; 2]); 12] = [
    ("ADS+", "ED", "fresh", [0.500, 0.419]),
    ("ADS+", "ED", "planted", [0.875, 0.375]),
    ("ADS+", "DTW", "fresh", [0.562, 0.400]),
    ("ADS+", "DTW", "planted", [0.875, 0.369]),
    ("ParIS", "ED", "fresh", [1.000, 1.000]),
    ("ParIS", "ED", "planted", [1.000, 1.000]),
    ("ParIS", "DTW", "fresh", [0.938, 0.963]),
    ("ParIS", "DTW", "planted", [1.000, 0.931]),
    ("MESSI", "ED", "fresh", [0.500, 0.419]),
    ("MESSI", "ED", "planted", [0.875, 0.375]),
    ("MESSI", "DTW", "fresh", [0.562, 0.400]),
    ("MESSI", "DTW", "planted", [0.875, 0.369]),
];

/// Fresh and planted queries for the collection.
fn queries(data: &Dataset) -> [(&'static str, Vec<Vec<f32>>); 2] {
    let fresh = DatasetKind::Synthetic.queries(QUERIES, LEN, SEED);
    let mut state = SEED | 1;
    let mut noise = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 40) as f32 / 16_777_216.0 - 0.5) * 0.2
    };
    let planted = (0..QUERIES)
        .map(|i| {
            let member = data.get(i * COUNT / QUERIES + 7);
            member.iter().map(|&v| v + noise()).collect()
        })
        .collect();
    [
        ("fresh", fresh.iter().map(<[f32]>::to_vec).collect()),
        ("planted", planted),
    ]
}

/// Recall@k of approximate answers against exact ones: the share of
/// each query's exact k nearest (the first k of `exact`) found among its
/// approximate k, averaged over the queries.
fn recall(
    index: &MemoryIndex,
    qs: &[Vec<f32>],
    exact: &[Vec<u32>],
    measure: Measure,
    k: usize,
) -> f64 {
    let spec = QuerySpec::knn(k)
        .measure(measure)
        .fidelity(Fidelity::Approximate);
    let mut hits = 0usize;
    for (q, exact) in qs.iter().zip(exact) {
        let want: HashSet<u32> = exact[..k].iter().copied().collect();
        let got = index.search(&[q.as_slice()], &spec).unwrap();
        hits += got
            .single()
            .iter()
            .filter(|m| want.contains(&m.pos))
            .count();
    }
    hits as f64 / (qs.len() * k) as f64
}

#[test]
fn approximate_recall_stays_above_its_floor() {
    let data = DatasetKind::Synthetic.generate(COUNT, LEN, SEED);
    let sets = queries(&data);
    let measures = [Measure::Euclidean, Measure::Dtw { band: BAND }];
    // Brute force once per measure and query set, k = 10 (k = 1 is its
    // first entry).
    let exact: Vec<Vec<Vec<Vec<u32>>>> = measures
        .iter()
        .map(|&measure| {
            sets.iter()
                .map(|(_, qs)| {
                    qs.iter()
                        .map(|q| {
                            let knn = match measure {
                                Measure::Euclidean => brute_force_knn(&data, q, K),
                                Measure::Dtw { band } => brute_force_dtw_knn(&data, q, band, K),
                            };
                            knn.iter().map(|m| m.pos).collect()
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let options = Options::default().with_threads(2);
    let mut checked = 0;
    for engine in [Engine::Ads, Engine::Paris, Engine::Messi] {
        let index = MemoryIndex::build(data.clone(), engine, &options).unwrap();
        for (m, &measure) in measures.iter().enumerate() {
            let label = ["ED", "DTW"][m];
            for (s, (set, qs)) in sets.iter().enumerate() {
                let &(.., measured) = MEASURED
                    .iter()
                    .find(|row| (row.0, row.1, row.2) == (engine.name(), label, *set))
                    .expect("a measured row per engine, measure and query set");
                for (r_at, k) in measured.into_iter().zip([1, K]) {
                    let r = recall(&index, qs, &exact[m][s], measure, k);
                    assert!(
                        r >= r_at - MARGIN,
                        "{} {label} {set}: recall@{k} {r:.3}, measured {r_at:.3} when pinned",
                        engine.name()
                    );
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 2 * MEASURED.len());
}
