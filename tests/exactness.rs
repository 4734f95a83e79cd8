//! Cross-engine exactness: every engine must return the brute-force
//! nearest neighbor on every dataset family — the index structures are
//! *exact*, pruning only with sound lower bounds.

use dsidx::prelude::*;
use dsidx::ucr::brute_force;

/// One query's exact Euclidean 1-NN, as a batch of one; `None` for an
/// empty collection.
fn nn(idx: &impl Search, q: &[f32]) -> Option<Match> {
    idx.search(&[q], &QuerySpec::nn()).unwrap().into_nn()
}

fn opts(threads: usize, leaf: usize) -> Options {
    Options::default()
        .with_threads(threads)
        .with_leaf_capacity(leaf)
}

#[test]
fn all_engines_agree_with_brute_force_on_all_families() {
    for kind in DatasetKind::ALL {
        let data = kind.generate(800, 96, 1234);
        let queries = kind.queries(6, 96, 1234);
        let indexes: Vec<MemoryIndex> = Engine::ALL
            .iter()
            .map(|&e| MemoryIndex::build(data.clone(), e, &opts(4, 20)).unwrap())
            .collect();
        for q in queries.iter() {
            let want = brute_force(&data, q).unwrap();
            for idx in &indexes {
                let got = nn(idx, q).unwrap();
                assert_eq!(
                    got.pos,
                    want.pos,
                    "{} on {}",
                    idx.engine().name(),
                    kind.name()
                );
                assert!(
                    (got.dist_sq - want.dist_sq).abs() <= want.dist_sq * 1e-4 + 1e-4,
                    "{} distance mismatch",
                    idx.engine().name()
                );
            }
        }
    }
}

#[test]
fn exactness_is_robust_to_leaf_capacity_extremes() {
    let data = DatasetKind::Synthetic.generate(300, 64, 9);
    let queries = DatasetKind::Synthetic.queries(4, 64, 9);
    for leaf in [1usize, 2, 7, 1000] {
        for engine in [Engine::Ads, Engine::Messi] {
            let idx = MemoryIndex::build(data.clone(), engine, &opts(3, leaf)).unwrap();
            for q in queries.iter() {
                let want = brute_force(&data, q).unwrap();
                let got = nn(&idx, q).unwrap();
                assert_eq!(got.pos, want.pos, "{} leaf={leaf}", engine.name());
            }
        }
    }
}

#[test]
fn exactness_across_segment_counts() {
    let data = DatasetKind::Sald.generate(400, 128, 3);
    let queries = DatasetKind::Sald.queries(3, 128, 3);
    for segments in [4usize, 8, 16] {
        let o = opts(4, 25).with_segments(segments);
        let idx = MemoryIndex::build(data.clone(), Engine::Messi, &o).unwrap();
        for q in queries.iter() {
            let want = brute_force(&data, q).unwrap();
            let got = nn(&idx, q).unwrap();
            assert_eq!(got.pos, want.pos, "segments={segments}");
        }
    }
}

#[test]
fn every_indexed_series_is_its_own_nearest_neighbor() {
    let data = DatasetKind::Seismic.generate(500, 64, 77);
    for engine in Engine::ALL {
        let idx = MemoryIndex::build(data.clone(), engine, &opts(4, 30)).unwrap();
        for pos in [0usize, 250, 499] {
            let got = nn(&idx, data.get(pos)).unwrap();
            assert_eq!(got.pos as usize, pos, "{}", engine.name());
            assert_eq!(got.dist_sq, 0.0);
        }
    }
}

#[test]
fn single_series_collection() {
    let data = DatasetKind::Synthetic.generate(1, 64, 5);
    let q = DatasetKind::Synthetic.queries(1, 64, 5);
    for engine in Engine::ALL {
        let idx = MemoryIndex::build(data.clone(), engine, &opts(2, 10)).unwrap();
        let got = nn(&idx, q.get(0)).unwrap();
        assert_eq!(got.pos, 0, "{}", engine.name());
    }
}

#[test]
fn empty_collection_returns_none() {
    let data = Dataset::new(64).unwrap();
    for engine in Engine::ALL {
        let idx = MemoryIndex::build(data.clone(), engine, &opts(2, 10)).unwrap();
        assert!(nn(&idx, &[0.0; 64]).is_none(), "{}", engine.name());
    }
}

#[test]
fn identical_series_tie_break_deterministically() {
    // 50 copies of the same series: the NN must be the lowest position,
    // on every engine, regardless of thread interleaving.
    let mut data = Dataset::new(32).unwrap();
    let proto = DatasetKind::Synthetic.generate(1, 32, 8);
    for _ in 0..50 {
        data.push(proto.get(0)).unwrap();
    }
    for engine in Engine::ALL {
        let idx = MemoryIndex::build(data.clone(), engine, &opts(8, 5)).unwrap();
        for _ in 0..5 {
            let got = nn(&idx, proto.get(0)).unwrap();
            assert_eq!(got.pos, 0, "{}", engine.name());
            assert_eq!(got.dist_sq, 0.0);
        }
    }
}
