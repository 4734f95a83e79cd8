//! Cross-engine batched queries: one `search` over a batch must be
//! element-wise identical to searching each query alone — same
//! positions, same (deterministic, lowest-position tie-broken) ordering —
//! on every engine, memory and disk, including datasets salted with exact
//! duplicates where top-k boundaries cut through tie groups. The batch
//! path shares one schedule across all queries, so this is the statement
//! that sharing never changes an answer.

use dsidx::prelude::*;
use std::sync::Arc;

/// One query's exact Euclidean k-NN, as a batch of one.
fn knn(idx: &impl Search, q: &[f32], k: usize) -> Vec<Match> {
    idx.search(&[q], &QuerySpec::knn(k)).unwrap().into_single()
}

/// A batch's exact Euclidean k-NN, one match list per query.
fn knn_batch(idx: &impl Search, queries: &[&[f32]], k: usize) -> Vec<Vec<Match>> {
    idx.search(queries, &QuerySpec::knn(k))
        .unwrap()
        .into_matches()
}

fn opts(threads: usize, leaf: usize) -> Options {
    Options::default()
        .with_threads(threads)
        .with_leaf_capacity(leaf)
}

/// A dataset with planted duplicate groups: the base collection plus
/// several exact copies of a handful of its members (see `tests/knn.rs`).
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

fn assert_batch_equals_sequential(idx: &MemoryIndex, qs: &Dataset, k: usize) {
    let qrefs: Vec<&[f32]> = qs.iter().collect();
    let batched = knn_batch(idx, &qrefs, k);
    assert_eq!(batched.len(), qrefs.len());
    for (qi, q) in qs.iter().enumerate() {
        let single = knn(idx, q, k);
        assert_eq!(
            batched[qi].iter().map(|m| m.pos).collect::<Vec<_>>(),
            single.iter().map(|m| m.pos).collect::<Vec<_>>(),
            "{} q{qi} k={k}",
            idx.engine().name()
        );
        for (b, s) in batched[qi].iter().zip(&single) {
            assert!(
                (b.dist_sq - s.dist_sq).abs() <= s.dist_sq * 1e-4 + 1e-4,
                "{} q{qi} k={k} pos {}",
                idx.engine().name(),
                b.pos
            );
        }
    }
}

#[test]
fn knn_batch_equals_sequential_on_mixed_duplicate_datasets() {
    for kind in DatasetKind::ALL {
        let data = mixed_duplicates(kind, 350, 64, 2025);
        let qs = kind.queries(7, 64, 2025);
        for engine in Engine::ALL {
            let idx = MemoryIndex::build(data.clone(), engine, &opts(4, 16)).unwrap();
            for k in [1usize, 6, 23, 100] {
                assert_batch_equals_sequential(&idx, &qs, k);
            }
        }
    }
}

#[test]
fn knn_batch_equals_sequential_on_disk_engines() {
    let dir = std::env::temp_dir().join(format!("dsidx-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = mixed_duplicates(DatasetKind::Seismic, 220, 64, 7);
    let path = dir.join("batch.dsidx");
    dsidx::storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let qs = DatasetKind::Seismic.queries(5, 64, 7);
    let qrefs: Vec<&[f32]> = qs.iter().collect();
    for engine in [Engine::Ads, Engine::Paris, Engine::ParisPlus] {
        let idx = DiskIndex::build(
            &path,
            &dir,
            engine,
            &opts(4, 20),
            DeviceProfile::UNTHROTTLED,
        )
        .unwrap();
        for k in [1usize, 9, 40] {
            let batched = knn_batch(&idx, &qrefs, k);
            for (qi, q) in qs.iter().enumerate() {
                let single = knn(&idx, q, k);
                assert_eq!(
                    batched[qi].iter().map(|m| m.pos).collect::<Vec<_>>(),
                    single.iter().map(|m| m.pos).collect::<Vec<_>>(),
                    "{} q{qi} k={k}",
                    engine.name()
                );
            }
        }
        // And the batch shares the broadcast budget on disk too.
        let answers = idx.search(&qrefs, &QuerySpec::knn(5).with_stats()).unwrap();
        let stats = answers.stats().unwrap();
        assert!(stats.broadcasts_per_query() < 1.0, "{}", engine.name());
        assert!(stats.series_requests >= stats.series_fetched);
    }
}

#[test]
fn batch_boundary_inside_a_duplicate_group_keeps_lowest_positions() {
    // 30 base series plus 6 exact copies of member 7 (cf. tests/knn.rs):
    // batching queries — including the tie-heavy one — must keep the
    // per-query answers at the group's lowest positions, whatever the
    // thread interleaving of the shared schedule.
    let base = DatasetKind::Synthetic.generate(30, 64, 77);
    let mut data = base.clone();
    for _ in 0..6 {
        data.push(base.get(7)).unwrap();
    }
    let extra = DatasetKind::Synthetic.queries(3, 64, 78);
    let mut qrefs: Vec<&[f32]> = vec![base.get(7)];
    qrefs.extend(extra.iter());
    for engine in Engine::ALL {
        let idx = MemoryIndex::build(data.clone(), engine, &opts(8, 5)).unwrap();
        for k in [1usize, 3, 7] {
            for _ in 0..3 {
                let batched = knn_batch(&idx, &qrefs, k);
                for (qi, q) in qrefs.iter().enumerate() {
                    let want = dsidx::ucr::brute_force_knn(&data, q, k);
                    assert_eq!(
                        batched[qi].iter().map(|m| m.pos).collect::<Vec<_>>(),
                        want.iter().map(|m| m.pos).collect::<Vec<_>>(),
                        "{} q{qi} k={k}",
                        engine.name()
                    );
                }
            }
        }
    }
}

#[test]
fn nn_batch_matches_nn_and_handles_empty_inputs() {
    let data = mixed_duplicates(DatasetKind::Sald, 100, 64, 13);
    let qs = DatasetKind::Sald.queries(4, 64, 13);
    let qrefs: Vec<&[f32]> = qs.iter().collect();
    for engine in Engine::ALL {
        let idx = MemoryIndex::build(data.clone(), engine, &opts(3, 10)).unwrap();
        let nns = idx.search(&qrefs, &QuerySpec::nn()).unwrap();
        for (qi, q) in qs.iter().enumerate() {
            let alone = idx.search(&[q], &QuerySpec::nn()).unwrap().into_nn();
            assert_eq!(nns.best(qi).copied(), alone, "{} q{qi}", engine.name());
        }
        // A batch of zero queries is refused, not answered.
        assert!(matches!(
            idx.search(&[], &QuerySpec::knn(3)),
            Err(Error::InvalidSpec(InvalidSpec::EmptyBatch))
        ));
    }
    // Batches over an empty collection answer every query with nothing.
    let empty = Dataset::new(64).unwrap();
    for engine in Engine::ALL {
        let idx = MemoryIndex::build(empty.clone(), engine, &opts(2, 10)).unwrap();
        let answers = knn_batch(&idx, &qrefs, 5);
        assert_eq!(answers.len(), qrefs.len(), "{}", engine.name());
        assert!(answers.iter().all(Vec::is_empty), "{}", engine.name());
        let nns = idx.search(&qrefs, &QuerySpec::nn()).unwrap();
        assert!(
            (0..qrefs.len()).all(|qi| nns.best(qi).is_none()),
            "{}",
            engine.name()
        );
    }
}

#[test]
fn batch_stats_report_the_amortization() {
    let data = DatasetKind::Synthetic.generate(400, 64, 91);
    let qs = DatasetKind::Synthetic.queries(8, 64, 91);
    let qrefs: Vec<&[f32]> = qs.iter().collect();
    for engine in Engine::ALL {
        let idx = MemoryIndex::build(data.clone(), engine, &opts(4, 16)).unwrap();
        let answers = idx.search(&qrefs, &QuerySpec::knn(5).with_stats()).unwrap();
        let stats = answers.stats().unwrap();
        assert_eq!(stats.per_query.len(), 8, "{}", engine.name());
        // The acceptance bar: under one broadcast per query at B >= 4.
        assert!(
            stats.broadcasts_per_query() < 1.0,
            "{}: {} broadcasts / {} queries",
            engine.name(),
            stats.broadcasts,
            stats.per_query.len()
        );
        // Shared fetches serve at least as many per-query requests.
        assert!(
            stats.series_requests >= stats.series_fetched,
            "{}",
            engine.name()
        );
        // Every query did real work and the totals compose.
        for (qi, q) in stats.per_query.iter().enumerate() {
            assert!(q.real_computed > 0, "{} q{qi}", engine.name());
        }
        assert!(stats.total().real_computed >= stats.per_query.len() as u64);
    }
}

/// Asserts that three identical queries through `idx`, built for
/// `threads` workers, read once per request, answer alike, and (at one
/// worker) read three times what one of them reads alone.
fn assert_three_identical_queries_read_their_own(
    idx: &impl Search,
    q: &[f32],
    threads: usize,
    what: &str,
) {
    let spec = QuerySpec::knn(5).with_stats();
    let three = idx.search(&[q, q, q], &spec).unwrap();
    let stats = three.stats().unwrap();
    assert_eq!(stats.series_fetched, stats.series_requests, "{what}");
    let matches = three.matches();
    assert_eq!(matches[0], matches[1], "{what}");
    assert_eq!(matches[0], matches[2], "{what}");
    if threads == 1 {
        let one = idx.search(&[q], &spec).unwrap();
        let one = one.stats().unwrap();
        assert_eq!(stats.series_fetched, 3 * one.series_fetched, "{what}");
    }
}

#[test]
fn every_exact_call_reads_once_per_request_memory_and_file() {
    // Three identical queries keep the same candidates: each query still
    // reads its own seeds and candidates, so no read is shared and
    // fetches equal requests, for every engine, memory and file, at one
    // worker and at three. At one worker the three also read exactly
    // three times what one reads alone.
    let dir = std::env::temp_dir().join(format!("dsidx-batch-reads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = DatasetKind::Seismic.generate(300, 64, 19);
    let path = dir.join("reads.dsidx");
    dsidx::storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let q = DatasetKind::Seismic.queries(1, 64, 19);
    for engine in Engine::ALL {
        for threads in [1usize, 3] {
            let memory =
                MemoryIndex::build(Arc::new(data.clone()), engine, &opts(threads, 20)).unwrap();
            let what = format!("{} memory x{threads}", engine.name());
            assert_three_identical_queries_read_their_own(&memory, q.get(0), threads, &what);
            let file = DiskIndex::build(
                &path,
                &dir,
                engine,
                &opts(threads, 20),
                DeviceProfile::UNTHROTTLED,
            )
            .unwrap();
            let what = format!("{} file x{threads}", engine.name());
            assert_three_identical_queries_read_their_own(&file, q.get(0), threads, &what);
        }
    }
}

/// `stats` without its wall-clock phase times.
fn counters(mut stats: QueryStats) -> QueryStats {
    stats.phase = Default::default();
    stats
}

/// Asserts that at one worker every query of a 5-query batch through
/// `idx` answers and counts exactly as when it is asked alone, and that
/// the batch reads exactly what the five single queries read.
fn assert_each_query_works_alone_in_a_batch(idx: &impl Search, queries: &[&[f32]], what: &str) {
    for k in [1usize, 10] {
        let spec = QuerySpec::knn(k).with_stats();
        let batch = idx.search(queries, &spec).unwrap();
        let batch_stats = batch.stats().unwrap();
        let mut fetched_alone = 0;
        for (qi, q) in queries.iter().enumerate() {
            let alone = idx.search(&[q], &spec).unwrap();
            let what = format!("{what} q{qi} k={k}");
            assert_eq!(batch.matches()[qi], alone.matches()[0], "{what}");
            assert_eq!(
                counters(batch_stats.per_query[qi]),
                counters(alone.query_stats(0).unwrap()),
                "{what}"
            );
            fetched_alone += alone.stats().unwrap().series_fetched;
        }
        assert_eq!(batch_stats.series_fetched, fetched_alone, "{what} k={k}");
        assert_eq!(batch_stats.series_requests, fetched_alone, "{what} k={k}");
    }
}

#[test]
fn each_paris_query_does_the_same_work_in_a_batch_as_alone() {
    // ParIS, ParIS+ and ADS+ seed, collect and verify each query for
    // itself: at one worker a batch only shares the broadcasts, the entry
    // scan and a seed leaf's read-back, never a read or a threshold.
    let dir = std::env::temp_dir().join(format!("dsidx-batch-alone-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = DatasetKind::Synthetic.generate(800, 64, 43);
    let path = dir.join("alone.dsidx");
    dsidx::storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let qs = DatasetKind::Synthetic.queries(5, 64, 43);
    let queries: Vec<&[f32]> = qs.iter().collect();
    for engine in [Engine::Ads, Engine::Paris, Engine::ParisPlus] {
        let memory = MemoryIndex::build(data.clone(), engine, &opts(1, 20)).unwrap();
        let what = format!("{} memory", engine.name());
        assert_each_query_works_alone_in_a_batch(&memory, &queries, &what);
        let file = DiskIndex::build(
            &path,
            &dir,
            engine,
            &opts(1, 20),
            DeviceProfile::UNTHROTTLED,
        )
        .unwrap();
        let what = format!("{} file", engine.name());
        assert_each_query_works_alone_in_a_batch(&file, &queries, &what);
    }
}
