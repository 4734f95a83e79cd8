//! The §V extension end to end: one index, two distance measures.

use dsidx::prelude::*;
use dsidx::ucr::dtw::brute_force_dtw;

/// One query's exact 1-NN under banded DTW, as a batch of one.
fn nn_dtw(idx: &impl Search, q: &[f32], band: usize) -> Option<Match> {
    let spec = QuerySpec::nn().measure(Measure::Dtw { band });
    idx.search(&[q], &spec).unwrap().into_nn()
}

fn opts() -> Options {
    Options::default().with_threads(4).with_leaf_capacity(20)
}

#[test]
fn messi_dtw_matches_brute_force_on_all_families() {
    for kind in DatasetKind::ALL {
        let data = kind.generate(350, 64, 4242);
        let queries = kind.queries(4, 64, 4242);
        let idx = MemoryIndex::build(data.clone(), Engine::Messi, &opts()).unwrap();
        for band in [0usize, 3, 8] {
            for q in queries.iter() {
                let want = brute_force_dtw(&data, q, band).unwrap();
                let got = nn_dtw(&idx, q, band).unwrap();
                assert_eq!(got.pos, want.pos, "{} band={band}", kind.name());
                assert!((got.dist_sq - want.dist_sq).abs() <= want.dist_sq * 1e-4 + 1e-4);
            }
        }
    }
}

#[test]
fn non_messi_engines_fall_back_to_exact_parallel_scan() {
    let data = DatasetKind::Sald.generate(200, 64, 99);
    let queries = DatasetKind::Sald.queries(3, 64, 99);
    for engine in [Engine::Ads, Engine::Paris] {
        let idx = MemoryIndex::build(data.clone(), engine, &opts()).unwrap();
        for q in queries.iter() {
            let want = brute_force_dtw(&data, q, 5).unwrap();
            let got = nn_dtw(&idx, q, 5).unwrap();
            assert_eq!(got.pos, want.pos, "{} fallback", engine.name());
        }
    }
}

#[test]
fn dtw_recovers_time_shifted_template_that_ed_misses() {
    let data = DatasetKind::Seismic.generate(400, 128, 11);
    let idx = MemoryIndex::build(data.clone(), Engine::Messi, &opts()).unwrap();
    // A shifted replay of series 200.
    let mut q = data.get(200).to_vec();
    q.rotate_right(6);
    dsidx::series::znorm::znormalize(&mut q);
    let dtw_hit = nn_dtw(&idx, &q, 10).unwrap();
    let ed_hit = idx
        .search(&[&q], &QuerySpec::nn())
        .unwrap()
        .into_nn()
        .unwrap();
    assert_eq!(dtw_hit.pos, 200, "DTW must absorb the shift");
    assert!(
        dtw_hit.dist_sq < ed_hit.dist_sq * 0.5,
        "DTW distance {} should be far below ED {}",
        dtw_hit.dist_sq,
        ed_hit.dist_sq
    );
}

#[test]
fn dtw_band_zero_equals_euclidean_answer() {
    let data = DatasetKind::Synthetic.generate(300, 64, 17);
    let queries = DatasetKind::Synthetic.queries(4, 64, 17);
    let idx = MemoryIndex::build(data, Engine::Messi, &opts()).unwrap();
    for q in queries.iter() {
        let ed = idx
            .search(&[q], &QuerySpec::nn())
            .unwrap()
            .into_nn()
            .unwrap();
        let dtw = nn_dtw(&idx, q, 0).unwrap();
        assert_eq!(ed.pos, dtw.pos);
        assert!((ed.dist_sq - dtw.dist_sq).abs() <= ed.dist_sq * 1e-3 + 1e-3);
    }
}

/// A duplicate-heavy collection under DTW: every series has 19 exact
/// copies scattered through the file, so the k-th distance is always a
/// tie and most candidates arrive exactly one ulp under the pruning
/// threshold — where a lower bound or an abandon test that rounds the
/// wrong way would drop the copy at the lower position. Positions and
/// distance bits must equal brute force on every engine, in memory and on
/// disk, whatever the thread count.
#[test]
fn dtw_ties_at_the_kth_distance_keep_the_lowest_positions_everywhere() {
    use dsidx::ucr::brute_force_dtw_knn;
    use std::sync::Arc;

    let base = DatasetKind::Synthetic.generate(15, 64, 808);
    let mut data = Dataset::new(64).unwrap();
    for _copy in 0..20 {
        for member in base.iter() {
            data.push(member).unwrap();
        }
    }
    let dir = std::env::temp_dir().join(format!("dsidx-dtw-ties-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ties.dsidx");
    dsidx::storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();

    // Two members (ties at distance zero) and two fresh queries (ties at
    // whatever the distance happens to be).
    let fresh = DatasetKind::Synthetic.queries(2, 64, 809);
    let queries: Vec<&[f32]> = vec![base.get(3), base.get(11), fresh.get(0), fresh.get(1)];
    for band in [0usize, 4, 12] {
        for k in [1usize, 7, 20, 33] {
            let spec = QuerySpec::knn(k).measure(Measure::Dtw { band });
            let want: Vec<Vec<Match>> = queries
                .iter()
                .map(|q| brute_force_dtw_knn(&data, q, band, k))
                .collect();
            for threads in [1usize, 2, 4] {
                let o = Options::default()
                    .with_threads(threads)
                    .with_leaf_capacity(10);
                for engine in Engine::ALL {
                    let memory = MemoryIndex::build(data.clone(), engine, &o).unwrap();
                    let disk =
                        DiskIndex::build(&path, &dir, engine, &o, DeviceProfile::UNTHROTTLED)
                            .unwrap();
                    let answers = [
                        ("memory", memory.search(&queries, &spec).unwrap()),
                        ("disk", disk.search(&queries, &spec).unwrap()),
                    ];
                    for (residence, got) in answers {
                        let got = got.into_matches();
                        for (qi, (g, w)) in got.iter().zip(&want).enumerate() {
                            let bits = |ms: &[Match]| -> Vec<(u32, u32)> {
                                ms.iter().map(|m| (m.pos, m.dist_sq.to_bits())).collect()
                            };
                            assert_eq!(
                                bits(g),
                                bits(w),
                                "{} {residence} band={band} k={k} x{threads} q{qi}",
                                engine.name()
                            );
                        }
                    }
                }
            }
        }
    }
}
