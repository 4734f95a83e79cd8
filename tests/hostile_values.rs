//! A collection whose first series carries an infinite or overflowing
//! value: every exact path answers without a panic, and an answer is the
//! oracle's nearest *finite* distances (fewer than k when fewer are
//! finite).

use dsidx::prelude::*;
use dsidx::storage::{write_dataset, DatasetFile};
use dsidx::ucr::{brute_force_dtw_knn, brute_force_knn, scan};
use std::sync::Arc;

const SERIES: usize = 2_000;
const LEN: usize = 64;
const K: usize = 3;
const BAND: usize = 3;

/// The hostile values placed at position 0: the second is finite, but
/// every distance to it overflows `f32`.
const HOSTILE: [f32; 2] = [f32::INFINITY, 3.0e38];

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dsidx-hostile-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Synthetic series with `value` as the first point of position 0.
fn collection(value: f32) -> Dataset {
    let data = DatasetKind::Synthetic.generate(SERIES, LEN, 77);
    let mut flat = data.as_flat().to_vec();
    flat[0] = value;
    Dataset::from_flat(flat, LEN).unwrap()
}

/// The brute-force oracle's `K` nearest with a finite distance.
fn oracle(data: &Dataset, q: &[f32], measure: Measure) -> Vec<Match> {
    let all = match measure {
        Measure::Euclidean => brute_force_knn(data, q, data.len()),
        Measure::Dtw { band } => brute_force_dtw_knn(data, q, band, data.len()),
    };
    all.into_iter()
        .filter(|m| m.dist_sq.is_finite())
        .take(K)
        .collect()
}

fn assert_oracle(got: &[Vec<Match>], data: &Dataset, queries: &Dataset, m: Measure, what: &str) {
    assert_eq!(got.len(), queries.len(), "{what}");
    for (i, (got, q)) in got.iter().zip(queries.iter()).enumerate() {
        let want = oracle(data, q, m);
        let pos = |ms: &[Match]| ms.iter().map(|m| m.pos).collect::<Vec<_>>();
        assert_eq!(pos(got), pos(&want), "{what} query {i}");
        for (g, w) in got.iter().zip(&want) {
            assert!(g.dist_sq.is_finite(), "{what} query {i}: {g:?}");
            assert!(
                (g.dist_sq - w.dist_sq).abs() <= w.dist_sq * 1e-4 + 1e-4,
                "{what} query {i}: {g:?} vs {w:?}"
            );
        }
    }
}

#[test]
fn the_ucr_scan_skips_a_series_at_position_0_whose_distance_is_not_finite() {
    let queries = DatasetKind::Synthetic.queries(4, LEN, 77);
    let qrefs: Vec<&[f32]> = queries.iter().collect();
    for value in HOSTILE {
        let data = collection(value);
        let dir = tmpdir("scan");
        let path = dir.join(format!("{value:e}.dsidx"));
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let file = DatasetFile::open(&path, Arc::new(Device::unthrottled())).unwrap();
        for measure in [Measure::Euclidean, Measure::Dtw { band: BAND }] {
            for threads in [1usize, 2] {
                let what = format!("{value:e} {measure:?} threads={threads}");
                let (mem, _) = scan(&data, &qrefs, measure, K, threads, None).unwrap();
                assert_oracle(&mem, &data, &queries, measure, &format!("memory {what}"));
                let (disk, _) = scan(&file, &qrefs, measure, K, threads, None).unwrap();
                assert_oracle(&disk, &data, &queries, measure, &format!("file {what}"));
            }
        }
    }
}

#[test]
fn exact_dtw_skips_a_series_at_position_0_whose_distance_is_not_finite() {
    let queries = DatasetKind::Synthetic.queries(4, LEN, 77);
    let qrefs: Vec<&[f32]> = queries.iter().collect();
    let measure = Measure::Dtw { band: BAND };
    let spec = QuerySpec::knn(K).measure(measure);
    let opts = Options::default().with_threads(2).with_leaf_capacity(20);
    for value in HOSTILE {
        let data = collection(value);
        for engine in [Engine::Ads, Engine::Paris] {
            let idx = MemoryIndex::build(data.clone(), engine, &opts).unwrap();
            let got = idx.search(&qrefs, &spec).unwrap().into_matches();
            let what = format!("{} memory {value:e}", engine.name());
            assert_oracle(&got, &data, &queries, measure, &what);
        }
        let dir = tmpdir("disk");
        let path = dir.join(format!("{value:e}.dsidx"));
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let idx = DiskIndex::build(
            &path,
            &dir,
            Engine::ParisPlus,
            &opts,
            DeviceProfile::UNTHROTTLED,
        )
        .unwrap();
        let got = idx.search(&qrefs, &spec).unwrap().into_matches();
        let what = format!("ParIS+ disk {value:e}");
        assert_oracle(&got, &data, &queries, measure, &what);
    }
}
