//! Cross-engine exact k-NN: for every engine (in-memory and on-disk where
//! supported), an exact k-NN search must equal the brute-force k smallest
//! distances — sorted ascending, with the deterministic lowest-position
//! tie-break — including on datasets salted with exact duplicates, where
//! the k-th boundary routinely falls inside a group of equal distances.

use dsidx::prelude::*;
use dsidx::ucr::brute_force_knn;
use std::sync::Arc;

/// One query's exact Euclidean k-NN, as a batch of one.
fn knn(idx: &impl Search, q: &[f32], k: usize) -> Vec<Match> {
    idx.search(&[q], &QuerySpec::knn(k)).unwrap().into_single()
}

fn opts(threads: usize, leaf: usize) -> Options {
    Options::default()
        .with_threads(threads)
        .with_leaf_capacity(leaf)
}

/// A dataset with planted duplicate groups: the base collection plus
/// several exact copies of a handful of its members. Groups of identical
/// series share one distance to any query, so top-k boundaries cut through
/// ties.
fn mixed_duplicates(kind: DatasetKind, base: usize, len: usize, seed: u64) -> Dataset {
    let mut data = kind.generate(base, len, seed);
    for (member, copies) in [(0usize, 3usize), (base / 2, 4), (base - 1, 2)] {
        let series = data.get(member).to_vec();
        for _ in 0..copies {
            data.push(&series).unwrap();
        }
    }
    data
}

#[test]
fn knn_equals_brute_force_on_mixed_duplicate_datasets() {
    for kind in DatasetKind::ALL {
        let data = mixed_duplicates(kind, 400, 64, 2024);
        let queries = kind.queries(4, 64, 2024);
        let indexes: Vec<MemoryIndex> = Engine::ALL
            .iter()
            .map(|&e| MemoryIndex::build(data.clone(), e, &opts(4, 16)).unwrap())
            .collect();
        for q in queries.iter() {
            for k in [1usize, 5, 23, 100] {
                let want = brute_force_knn(&data, q, k);
                for idx in &indexes {
                    let got = knn(idx, q, k);
                    assert_eq!(
                        got.iter().map(|m| m.pos).collect::<Vec<_>>(),
                        want.iter().map(|m| m.pos).collect::<Vec<_>>(),
                        "{} on {} k={k}",
                        idx.engine().name(),
                        kind.name()
                    );
                    for (g, w) in got.iter().zip(&want) {
                        assert!(
                            (g.dist_sq - w.dist_sq).abs() <= w.dist_sq * 1e-4 + 1e-4,
                            "{} distance mismatch at pos {}",
                            idx.engine().name(),
                            g.pos
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn knn_boundary_inside_a_duplicate_group_keeps_lowest_positions() {
    // 30 base series plus 6 exact copies of member 7: querying with member
    // 7 itself makes positions {7, 30..36} an exact-tie group at distance
    // 0. Any k cutting inside the group must keep its lowest positions —
    // on every engine, whatever the thread interleaving.
    let base = DatasetKind::Synthetic.generate(30, 64, 77);
    let mut data = base.clone();
    for _ in 0..6 {
        data.push(base.get(7)).unwrap();
    }
    let q = base.get(7);
    for engine in Engine::ALL {
        let idx = MemoryIndex::build(data.clone(), engine, &opts(8, 5)).unwrap();
        for k in [1usize, 3, 7] {
            for _ in 0..3 {
                let got = knn(&idx, q, k);
                let want = brute_force_knn(&data, q, k);
                assert_eq!(
                    got.iter().map(|m| m.pos).collect::<Vec<_>>(),
                    want.iter().map(|m| m.pos).collect::<Vec<_>>(),
                    "{} k={k}",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn knn_at_k1_matches_nn_everywhere() {
    for kind in DatasetKind::ALL {
        let data = mixed_duplicates(kind, 300, 64, 9);
        let queries = kind.queries(5, 64, 9);
        for engine in Engine::ALL {
            let idx = MemoryIndex::build(data.clone(), engine, &opts(4, 20)).unwrap();
            for q in queries.iter() {
                let nn = idx
                    .search(&[q], &QuerySpec::nn())
                    .unwrap()
                    .into_nn()
                    .unwrap();
                let got = knn(&idx, q, 1);
                assert_eq!(got.len(), 1);
                assert_eq!(got[0], nn, "{} on {}", engine.name(), kind.name());
            }
        }
    }
}

#[test]
fn knn_larger_than_the_collection_returns_everything_sorted() {
    let data = mixed_duplicates(DatasetKind::Sald, 60, 64, 31);
    let n = data.len();
    let q = DatasetKind::Sald.queries(1, 64, 31);
    for engine in Engine::ALL {
        let idx = MemoryIndex::build(data.clone(), engine, &opts(3, 10)).unwrap();
        let got = knn(&idx, q.get(0), n + 50);
        let want = brute_force_knn(&data, q.get(0), n + 50);
        assert_eq!(got.len(), n, "{}", engine.name());
        assert_eq!(
            got.iter().map(|m| m.pos).collect::<Vec<_>>(),
            want.iter().map(|m| m.pos).collect::<Vec<_>>(),
            "{}",
            engine.name()
        );
        // Sorted ascending by (distance, position).
        for w in got.windows(2) {
            assert!(
                w[0].dist_sq < w[1].dist_sq
                    || (w[0].dist_sq == w[1].dist_sq && w[0].pos < w[1].pos),
                "{} not sorted",
                engine.name()
            );
        }
    }
}

#[test]
fn knn_on_disk_engines_matches_brute_force() {
    let dir = std::env::temp_dir().join(format!("dsidx-knn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = mixed_duplicates(DatasetKind::Seismic, 250, 64, 3);
    let path = dir.join("knn.dsidx");
    dsidx::storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let queries = DatasetKind::Seismic.queries(3, 64, 3);
    for engine in [Engine::Ads, Engine::Paris, Engine::ParisPlus] {
        let idx = DiskIndex::build(
            &path,
            &dir,
            engine,
            &opts(4, 20),
            DeviceProfile::UNTHROTTLED,
        )
        .unwrap();
        for q in queries.iter() {
            for k in [1usize, 9, 40] {
                let want = brute_force_knn(&data, q, k);
                let answers = idx.search(&[q], &QuerySpec::knn(k).with_stats()).unwrap();
                let stats = answers.query_stats(0).expect("spec requested stats");
                let got = answers.into_single();
                assert_eq!(
                    got.iter().map(|m| m.pos).collect::<Vec<_>>(),
                    want.iter().map(|m| m.pos).collect::<Vec<_>>(),
                    "{} k={k}",
                    engine.name()
                );
                assert!(stats.real_computed >= got.len() as u64, "{}", engine.name());
            }
            // And the 1-NN special case agrees with nn on disk too.
            let nn = idx
                .search(&[q], &QuerySpec::nn())
                .unwrap()
                .into_nn()
                .unwrap();
            assert_eq!(knn(&idx, q, 1)[0], nn, "{}", engine.name());
        }
    }
}

/// The ParIS exact schedule picks *which* series to read from live
/// thresholds (ranked seeds, best-bound-first verification), so the reads
/// vary with the thread count and the residence — the answer must not:
/// bit-identical across 1/2/4/8 threads and across memory, disk and a
/// 3-shard index, and equal to brute force, single and batched.
#[test]
fn paris_answers_are_identical_across_threads_residences_and_shards() {
    let dir = std::env::temp_dir().join(format!("dsidx-knn-paris-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = mixed_duplicates(DatasetKind::Synthetic, 450, 64, 57);
    let path = dir.join("paris.dsidx");
    dsidx::storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let queries = DatasetKind::Synthetic.queries(5, 64, 57);
    let qrefs: Vec<&[f32]> = queries.iter().collect();
    for engine in [Engine::Paris, Engine::ParisPlus] {
        for k in [1usize, 6, 30] {
            let spec = QuerySpec::knn(k);
            let want: Vec<Vec<Match>> =
                qrefs.iter().map(|q| brute_force_knn(&data, q, k)).collect();
            let mut reference: Option<Vec<Vec<Match>>> = None;
            for threads in [1usize, 2, 4, 8] {
                let o = opts(threads, 12);
                let memory = MemoryIndex::build(data.clone(), engine, &o).unwrap();
                let disk =
                    DiskIndex::build(&path, &dir, engine, &o, DeviceProfile::UNTHROTTLED).unwrap();
                let sharded = dsidx::ShardedIndex::build_in_memory(&data, 3, engine, &o).unwrap();
                let answers = [
                    (
                        "memory",
                        memory.search(&qrefs, &spec).unwrap().into_matches(),
                    ),
                    ("disk", disk.search(&qrefs, &spec).unwrap().into_matches()),
                    (
                        "3 shards",
                        sharded.search(&qrefs, &spec).unwrap().into_matches(),
                    ),
                ];
                for (residence, got) in answers {
                    let label = format!("{} {residence} k={k} x{threads}", engine.name());
                    for (qi, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            g.iter().map(|m| m.pos).collect::<Vec<_>>(),
                            w.iter().map(|m| m.pos).collect::<Vec<_>>(),
                            "{label} q{qi}"
                        );
                        // One query alone answers like its batch row.
                        let alone = memory.search(&[qrefs[qi]], &spec).unwrap().into_single();
                        assert_eq!(&alone, g, "{label} q{qi}: single vs batch");
                    }
                    // Distances too, bit for bit, against the first cell.
                    let first = reference.get_or_insert_with(|| got.clone());
                    for (f, g) in first.iter().flatten().zip(got.iter().flatten()) {
                        assert_eq!(
                            (f.pos, f.dist_sq.to_bits()),
                            (g.pos, g.dist_sq.to_bits()),
                            "{label}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn a_k_far_above_the_collection_answers_like_k_equal_to_it() {
    // No collector may be sized by such a `k`: `1 << 40` matches would ask
    // for terabytes, and `usize::MAX` overflows a `k + 1`.
    let data = DatasetKind::Synthetic.generate(500, 64, 41);
    let n = data.len();
    let queries = DatasetKind::Synthetic.queries(2, 64, 41);
    let qrefs: Vec<&[f32]> = queries.iter().collect();
    fn check(label: &str, idx: &impl Search, qrefs: &[&[f32]], n: usize) {
        for spec in [
            QuerySpec::knn(n),
            QuerySpec::knn(n).measure(Measure::Dtw { band: 4 }),
            QuerySpec::knn(n).fidelity(Fidelity::Approximate),
        ] {
            let want = idx.search(qrefs, &spec).unwrap().into_matches();
            for k in [1usize << 40, usize::MAX] {
                let huge = QuerySpec::knn(k)
                    .measure(spec.measure_kind())
                    .fidelity(spec.fidelity_kind());
                let got = idx.search(qrefs, &huge).unwrap().into_matches();
                assert_eq!(got, want, "{label} {spec:?} k={k}");
            }
        }
    }
    for engine in Engine::ALL {
        let o = opts(2, 16);
        let memory = MemoryIndex::build(data.clone(), engine, &o).unwrap();
        check(engine.name(), &memory, &qrefs, n);
        let sharded = dsidx::ShardedIndex::build_in_memory(&data, 2, engine, &o).unwrap();
        check(&format!("{} 2 shards", engine.name()), &sharded, &qrefs, n);
    }
}

#[test]
fn knn_on_empty_collection_is_empty() {
    let data = Dataset::new(64).unwrap();
    for engine in Engine::ALL {
        let idx = MemoryIndex::build(data.clone(), engine, &opts(2, 10)).unwrap();
        assert!(knn(&idx, &[0.0; 64], 5).is_empty(), "{}", engine.name());
    }
}
