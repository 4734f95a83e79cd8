//! The query-plane suite: properties of `Search::search` that hold on
//! every engine, in memory, on disk and sharded. A query's answer does not
//! depend on what else is in its batch (**bit-identical** alone and in a
//! batch of four, in every engine × residence × measure × fidelity cell);
//! no cell is unsupported; non-finite queries are rejected everywhere;
//! approximate answers never report a distance below the exact answer at
//! the same rank; exact DTW on disk equals brute force; and batched DTW
//! equals sequential DTW element-wise.

use dsidx::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn opts(threads: usize, leaf: usize) -> Options {
    Options::default()
        .with_threads(threads)
        .with_leaf_capacity(leaf)
}

/// Bit-identical comparison: positions AND distance bit patterns.
fn assert_bit_identical(old: &[Match], new: &[Match], label: &str) {
    assert_eq!(old.len(), new.len(), "{label}: lengths differ");
    for (o, n) in old.iter().zip(new) {
        assert_eq!(o.pos, n.pos, "{label}: positions differ");
        assert_eq!(
            o.dist_sq.to_bits(),
            n.dist_sq.to_bits(),
            "{label}: distance bits differ at pos {}",
            o.pos
        );
    }
}

#[test]
fn a_batch_of_one_is_bit_identical_to_its_row_in_a_batch_of_four() {
    // Batch width decides how the work is shared (MESSI: every worker on
    // the one query alone, whole queries at four; ParIS/ADS+: one pass
    // either way) and which queries share fetches and seeds — never the
    // answer.
    let dir = std::env::temp_dir().join(format!("dsidx-plane-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = DatasetKind::Seismic.generate(300, 64, 4071);
    let path = dir.join("plane.dsidx");
    dsidx::storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let qs = DatasetKind::Seismic.queries(4, 64, 4071);
    let qrefs: Vec<&[f32]> = qs.iter().collect();
    for engine in Engine::ALL {
        let memory = MemoryIndex::build(data.clone(), engine, &opts(3, 16)).unwrap();
        let disk = DiskIndex::build(
            &path,
            &dir,
            engine,
            &opts(3, 16),
            DeviceProfile::UNTHROTTLED,
        )
        .unwrap();
        let sharded = ShardedIndex::build_in_memory(&data, 3, engine, &opts(3, 16)).unwrap();
        let residences: [(&str, &dyn Search); 3] =
            [("memory", &memory), ("disk", &disk), ("sharded", &sharded)];
        for (residence, idx) in residences {
            for fidelity in [Fidelity::Exact, Fidelity::Approximate] {
                for measure in [Measure::Euclidean, Measure::Dtw { band: 4 }] {
                    let spec = QuerySpec::knn(5).measure(measure).fidelity(fidelity);
                    let batch = idx.search(&qrefs, &spec).unwrap();
                    for (qi, q) in qrefs.iter().enumerate() {
                        let alone = idx.search(&[q], &spec).unwrap().into_single();
                        assert!(!alone.is_empty());
                        assert_bit_identical(
                            &alone,
                            &batch.matches()[qi],
                            &format!(
                                "{} {residence} {fidelity:?} {measure:?} q{qi}",
                                engine.name()
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn disk_query_plane_has_no_unsupported_cells() {
    // Every engine x fidelity x measure combination answers on DiskIndex —
    // exact DTW included.
    let dir = std::env::temp_dir().join(format!("dsidx-plane-full-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = DatasetKind::Synthetic.generate(200, 64, 23);
    let path = dir.join("full.dsidx");
    dsidx::storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let qs = DatasetKind::Synthetic.queries(2, 64, 23);
    let qrefs: Vec<&[f32]> = qs.iter().collect();
    for engine in Engine::ALL {
        let idx = DiskIndex::build(
            &path,
            &dir,
            engine,
            &opts(2, 16),
            DeviceProfile::UNTHROTTLED,
        )
        .unwrap();
        for fidelity in [Fidelity::Exact, Fidelity::Approximate] {
            for measure in [Measure::Euclidean, Measure::Dtw { band: 4 }] {
                let spec = QuerySpec::knn(3).measure(measure).fidelity(fidelity);
                let answers = idx
                    .search(&qrefs, &spec)
                    .unwrap_or_else(|e| panic!("{} {fidelity:?} {measure:?}: {e}", engine.name()));
                assert!(
                    answers.matches().iter().all(|m| !m.is_empty()),
                    "{} {fidelity:?} {measure:?}: empty answer on non-empty data",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn non_finite_queries_are_rejected_everywhere() {
    // A NaN or infinite query value used to come back as Ok([]) (exact ED)
    // or panic inside the DTW kernel; the query plane now rejects it on
    // every engine x measure x fidelity x residence, naming the query.
    let dir = std::env::temp_dir().join(format!("dsidx-plane-nonfinite-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = DatasetKind::Synthetic.generate(200, 64, 31);
    let path = dir.join("nonfinite.dsidx");
    dsidx::storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let qs = DatasetKind::Synthetic.queries(2, 64, 31);
    for engine in Engine::ALL {
        let memory = MemoryIndex::build(data.clone(), engine, &opts(2, 16)).unwrap();
        let disk = DiskIndex::build(
            &path,
            &dir,
            engine,
            &opts(2, 16),
            DeviceProfile::UNTHROTTLED,
        )
        .unwrap();
        let sharded = ShardedIndex::build_in_memory(&data, 3, engine, &opts(2, 16)).unwrap();
        let residences: [(&str, &dyn Search); 3] =
            [("memory", &memory), ("disk", &disk), ("sharded", &sharded)];
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut poisoned = qs.get(1).to_vec();
            poisoned[40] = bad;
            let batch: [&[f32]; 2] = [qs.get(0), &poisoned];
            for (residence, idx) in residences {
                for fidelity in [Fidelity::Exact, Fidelity::Approximate] {
                    for measure in [Measure::Euclidean, Measure::Dtw { band: 4 }] {
                        let spec = QuerySpec::knn(3).measure(measure).fidelity(fidelity);
                        let got = idx.search(&batch, &spec);
                        assert!(
                            matches!(
                                got,
                                Err(Error::InvalidSpec(InvalidSpec::NonFiniteQuery { index: 1 }))
                            ),
                            "{} {residence} {fidelity:?} {measure:?} {bad}: {got:?}",
                            engine.name()
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Approximate answers never report a distance below the exact answer
    /// at the same rank — on any engine, any measure, any (small) data.
    #[test]
    fn approximate_is_always_at_least_the_exact_distance(
        flat in prop::collection::vec(-10.0f32..10.0, 40 * 32),
        mut q in prop::collection::vec(-10.0f32..10.0, 32),
        k in 1usize..8,
        band in 0usize..6,
        leaf in 2usize..20,
    ) {
        let mut data = Dataset::from_flat(flat, 32).unwrap();
        data.znormalize_all();
        dsidx::series::znorm::znormalize(&mut q);
        let opts = Options::default()
            .with_threads(2)
            .with_leaf_capacity(leaf)
            .with_segments(8);
        let qs: Vec<&[f32]> = vec![&q];
        for engine in Engine::ALL {
            let idx = MemoryIndex::build(data.clone(), engine, &opts).unwrap();
            for measure in [Measure::Euclidean, Measure::Dtw { band }] {
                let exact = idx
                    .search(&qs, &QuerySpec::knn(k).measure(measure))
                    .unwrap();
                let approx = idx
                    .search(
                        &qs,
                        &QuerySpec::knn(k).measure(measure).fidelity(Fidelity::Approximate),
                    )
                    .unwrap();
                prop_assert!(!approx.matches()[0].is_empty());
                for (a, e) in approx.matches()[0].iter().zip(&exact.matches()[0]) {
                    prop_assert!(
                        a.dist_sq >= e.dist_sq - e.dist_sq * 1e-5 - 1e-6,
                        "{} {measure:?} k={k}: approximate {} below exact {}",
                        engine.name(), a.dist_sq, e.dist_sq
                    );
                }
            }
        }
    }

    /// Exact DTW answered from a `DiskIndex` equals the brute-force DTW
    /// oracle over the same data — the correctness contract of the
    /// newly-closed cell (MESSI's generic cascade on its own tree, the
    /// batched UCR-DTW scan over the file for ADS+/ParIS).
    #[test]
    fn exact_dtw_on_disk_matches_brute_force(
        flat in prop::collection::vec(-10.0f32..10.0, 35 * 32),
        mut q in prop::collection::vec(-10.0f32..10.0, 32),
        k in 1usize..6,
        band in 0usize..6,
        leaf in 2usize..16,
        engine_sel in 0usize..4,
    ) {
        static SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let mut data = Dataset::from_flat(flat, 32).unwrap();
        data.znormalize_all();
        dsidx::series::znorm::znormalize(&mut q);
        let dir = std::env::temp_dir()
            .join(format!("dsidx-plane-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Cases run concurrently across tests in this binary, so the file
        // name must be unique per case, not per process.
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = dir.join(format!("case-{seq}.dsidx"));
        dsidx::storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let engine = Engine::ALL[engine_sel];
        let opts = Options::default()
            .with_threads(2)
            .with_leaf_capacity(leaf)
            .with_segments(8);
        let idx = DiskIndex::build(&path, &dir, engine, &opts, DeviceProfile::UNTHROTTLED)
            .unwrap();
        let qs: Vec<&[f32]> = vec![&q];
        let got = idx
            .search(&qs, &QuerySpec::knn(k).measure(Measure::Dtw { band }))
            .unwrap()
            .into_single();
        let want = dsidx::ucr::brute_force_dtw_knn(&data, &q, band, k);
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.pos, w.pos,
                "{} band={} k={}: disk DTW diverged from oracle", engine.name(), band, k);
            prop_assert!((g.dist_sq - w.dist_sq).abs() <= w.dist_sq * 1e-4 + 1e-4);
        }
    }

    /// Batched DTW equals sequential DTW element-wise — on every memory
    /// engine (MESSI's one-broadcast cascade and the UCR batch fallback).
    #[test]
    fn batched_dtw_equals_sequential_dtw(
        flat in prop::collection::vec(-10.0f32..10.0, 30 * 32),
        more in prop::collection::vec(-10.0f32..10.0, 3 * 32),
        k in 1usize..6,
        band in 0usize..6,
        leaf in 2usize..16,
    ) {
        let mut data = Dataset::from_flat(flat, 32).unwrap();
        data.znormalize_all();
        let mut queries: Vec<Vec<f32>> = more.chunks(32).map(<[f32]>::to_vec).collect();
        for q in &mut queries {
            dsidx::series::znorm::znormalize(q);
        }
        let qrefs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let opts = Options::default()
            .with_threads(3)
            .with_leaf_capacity(leaf)
            .with_segments(8);
        let spec = QuerySpec::knn(k).measure(Measure::Dtw { band }).with_stats();
        for engine in Engine::ALL {
            let idx = MemoryIndex::build(data.clone(), engine, &opts).unwrap();
            let batched = idx.search(&qrefs, &spec).unwrap();
            prop_assert!(batched.stats().unwrap().broadcasts <= 1,
                "{}: more than one broadcast for a DTW batch", engine.name());
            for (qi, q) in qrefs.iter().enumerate() {
                let single = idx.search(&[q], &spec).unwrap().into_single();
                let got: Vec<u32> = batched.matches()[qi].iter().map(|m| m.pos).collect();
                let want: Vec<u32> = single.iter().map(|m| m.pos).collect();
                prop_assert_eq!(&got, &want,
                    "{} q{} band={} k={}: batched DTW diverged", engine.name(), qi, band, k);
            }
        }
    }
}
