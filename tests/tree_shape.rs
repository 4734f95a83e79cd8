//! Shape guard: the tree is fitted to the collection it indexes.
//!
//! The root key covers only as many segments as the collection can fill
//! (`TreeConfig::fitted_to`), so leaves hold a good share of their
//! capacity instead of a handful of series each. Keyed on all 16 segments,
//! 20k series scatter over ~7,000 root children and ~7,000 leaves at a fill
//! under 0.03 — a hash table node-level pruning cannot use. These tests
//! fail if that shape comes back, on any engine or residence, and pin the
//! degenerate ends (collections smaller than one leaf, empty ones).

use dsidx::prelude::*;
use dsidx::storage::write_dataset;
use dsidx::tree::stats::IndexStats;
use dsidx::ucr::brute_force_knn;
use std::sync::Arc;

const SERIES: usize = 20_000;
const SERIES_LEN: usize = 64;

fn opts() -> Options {
    Options::default().with_threads(2)
}

fn assert_filled(stats: &IndexStats, capacity: usize, label: &str) {
    assert_eq!(stats.entry_count, SERIES, "{label}");
    let fill = stats.entry_count as f64 / (stats.leaf_count * capacity) as f64;
    assert!(
        fill >= 0.3,
        "{label}: {} leaves of {capacity} hold {SERIES} series — fill {fill:.3}",
        stats.leaf_count
    );
    assert!(
        stats.leaf_count as f64 <= SERIES as f64 / (0.3 * capacity as f64),
        "{label}: {} leaves",
        stats.leaf_count
    );
    // 20k / 100 wants 200 leaves: 8 root segments, at most 256 subtrees.
    assert!(stats.root_subtrees <= 256, "{label}: {stats:?}");
}

#[test]
fn every_engine_fills_its_leaves_in_memory() {
    let data = Arc::new(DatasetKind::Synthetic.generate(SERIES, SERIES_LEN, 5));
    let shape = |engine: Engine| {
        let index = MemoryIndex::build(Arc::clone(&data), engine, &opts()).unwrap();
        let stats = index.stats();
        assert_filled(&stats, opts().leaf_capacity, engine.name());
        stats
    };
    // One keying and one tree for every engine: each fills every subtree in
    // position order (ADS+ and MESSI grow it from all of its entries, ParIS
    // inserts each generation's entries sorted by position).
    let ads = shape(Engine::Ads);
    for engine in [Engine::Messi, Engine::Paris, Engine::ParisPlus] {
        assert_eq!(shape(engine), ads, "{}", engine.name());
    }
}

/// ParIS's receiving buffers fill in whatever order concurrent workers take
/// their locks; each is inserted in position order, so ParIS in memory and
/// ParIS and ParIS+ on disk (growers flushing between generations) build
/// the tree MESSI grows at any thread count, also with more workers than
/// cores.
#[test]
fn paris_builds_the_messi_tree_whatever_the_worker_timing() {
    use dsidx::messi::{self, MessiConfig};
    use dsidx::paris::{build_in_memory, build_on_disk, Overlap, ParisConfig};
    use dsidx::storage::DatasetFile;
    let dir = std::env::temp_dir().join(format!("dsidx-shape-paris-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = DatasetKind::Synthetic.generate(SERIES, SERIES_LEN, 23);
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let tree = opts().tree_config(SERIES_LEN).unwrap();
    let (messi, _) = messi::build(&data, &MessiConfig::new(tree.clone(), 2));
    for threads in [1, 2, 4, 8] {
        let cfg = ParisConfig::new(tree.clone(), threads)
            .with_block_series(64)
            .with_generation_series(SERIES / 4);
        let (paris, _) = build_in_memory(&data, &cfg);
        assert!(paris == messi, "ParIS in memory, {threads} threads");
        for mode in [Overlap::Paris, Overlap::ParisPlus] {
            let file = DatasetFile::open(&path, Arc::new(Device::unthrottled())).unwrap();
            let store = dir.join(format!("{}-{threads}.leaf", mode.name()));
            let (built, _) = build_on_disk(&file, &store, &cfg, mode).unwrap();
            assert!(built == messi, "{} on disk, {threads} threads", mode.name());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disk_builds_fill_their_leaves_like_memory_builds() {
    let dir = std::env::temp_dir().join(format!("dsidx-shape-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = DatasetKind::Synthetic.generate(SERIES, SERIES_LEN, 5);
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let memory = MemoryIndex::build(data, Engine::Messi, &opts())
        .unwrap()
        .stats();
    for engine in Engine::ALL {
        let index =
            DiskIndex::build(&path, &dir, engine, &opts(), DeviceProfile::UNTHROTTLED).unwrap();
        let stats = index.stats();
        assert_filled(&stats, opts().leaf_capacity, engine.name());
        assert_eq!(stats, memory, "{}", engine.name());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Fewer series than one leaf holds — one of them, or none — key the root
/// on a single segment (at most two subtrees) and still answer exactly.
#[test]
fn collections_smaller_than_a_leaf_get_the_minimum_fan_out_and_answer() {
    let queries = DatasetKind::Synthetic.queries(3, SERIES_LEN, 9);
    for count in [0usize, 1, 37, 99] {
        let data = Arc::new(DatasetKind::Synthetic.generate(count, SERIES_LEN, 9));
        for engine in Engine::ALL {
            let index = MemoryIndex::build(Arc::clone(&data), engine, &opts()).unwrap();
            let stats = index.stats();
            let label = format!("{} over {count} series", engine.name());
            assert_eq!(stats.entry_count, count, "{label}");
            assert!(stats.root_subtrees <= 2, "{label}: {stats:?}");
            assert!(stats.leaf_count <= 2, "{label}: {stats:?}");
            for q in queries.iter() {
                let want: Vec<u32> = brute_force_knn(&data, q, 3).iter().map(|m| m.pos).collect();
                let exact = index
                    .search(&[q], &QuerySpec::knn(3))
                    .unwrap()
                    .into_single();
                let got: Vec<u32> = exact.iter().map(|m| m.pos).collect();
                assert_eq!(got, want, "{label}");
                for spec in [
                    QuerySpec::knn(3).measure(Measure::Dtw { band: 4 }),
                    QuerySpec::knn(3).fidelity(Fidelity::Approximate),
                ] {
                    let rows = index.search(&[q], &spec).unwrap().into_single();
                    assert_eq!(rows.len(), count.min(3), "{label} {spec:?}");
                }
            }
        }
    }
}
