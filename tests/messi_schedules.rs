//! MESSI schedule differential: MESSI answers exactly with one schedule,
//! claim and help (see `dsidx::messi::query`), over every source, and how
//! its workers share a batch depends on the batch's width against the
//! pool width, so the answer must not depend on either. One matrix pins
//! that: brute-force oracle × k × threads × batch widths around the pool
//! width (a batch of one, t − 1, t, t + 1, 2t, 64) × ED/DTW ×
//! duplicate-heavy data (lowest-position tie-break) × monolith/4 shards,
//! positions **and distance bits** equal throughout. Plus two kernel
//! pieces of the schedule: the two-table root bound and the padded leaf
//! word runs.

use dsidx::isax::paa::paa;
use dsidx::isax::{MindistTable, NodeMindistTable, NodeWord, Quantizer};
use dsidx::messi::traverse::RootBounds;
use dsidx::prelude::*;
use dsidx::series::distance::euclidean_sq;
use dsidx::series::znorm::znormalize;
use dsidx::tree::flat::LEAF_BLOCK;
use dsidx::tree::{FlatTree, Index, LeafEntry, TreeConfig};
use dsidx::ShardedIndex;
use proptest::prelude::*;

const SERIES_LEN: usize = 64;
const BAND: usize = 3;

fn opts(threads: usize) -> Options {
    Options::default()
        .with_threads(threads)
        .with_leaf_capacity(12)
        .with_segments(8)
}

/// 300 distinct series followed by 12 of them 25 times over: most queries
/// near a copied series see a k-th distance shared by many positions.
fn duplicate_heavy() -> Dataset {
    let mut data = DatasetKind::Synthetic.generate(300, SERIES_LEN, 2024);
    for copy in 0..25 * 12 {
        let original = data.get(copy % 12 * 23).to_vec();
        data.push(&original).unwrap();
    }
    data
}

/// 64 queries: fresh ones, and every fourth an indexed (copied) series.
fn queries(data: &Dataset) -> Vec<Vec<f32>> {
    let fresh = DatasetKind::Synthetic.queries(64, SERIES_LEN, 4048);
    (0..64)
        .map(|i| {
            if i % 4 == 3 {
                data.get(i % 12 * 23).to_vec()
            } else {
                fresh.get(i).to_vec()
            }
        })
        .collect()
}

fn bits(rows: &[Vec<Match>]) -> Vec<Vec<(u32, u32)>> {
    rows.iter()
        .map(|row| row.iter().map(|m| (m.pos, m.dist_sq.to_bits())).collect())
        .collect()
}

/// The per-call invariants MESSI's schedule keeps, whatever the width.
fn assert_stats_hold(stats: &BatchStats, width: usize, label: &str) {
    assert_eq!(stats.broadcasts, 1, "{label}: one broadcast per call");
    assert_eq!(stats.per_query.len(), width, "{label}");
    assert!(stats.series_fetched <= stats.series_requests, "{label}");
    for (qi, q) in stats.per_query.iter().enumerate() {
        assert_eq!(
            q.leaves_processed + q.leaves_discarded,
            q.leaves_enqueued,
            "{label} q{qi}: every enqueued leaf is processed or discarded, once"
        );
        assert!(q.real_computed > 0, "{label} q{qi}");
    }
}

#[test]
fn answers_do_not_depend_on_the_schedule() {
    let data = duplicate_heavy();
    let qs = queries(&data);
    let qrefs: Vec<&[f32]> = qs.iter().map(Vec::as_slice).collect();
    for measure in [Measure::Euclidean, Measure::Dtw { band: BAND }] {
        for k in [1usize, 10, 50] {
            let spec = QuerySpec::knn(k).measure(measure).with_stats();
            // Reference: every query alone on one worker — and that one is
            // held to the brute-force oracle (positions; the oracle's
            // distance kernel is allowed its own rounding).
            let alone = MemoryIndex::build(data.clone(), Engine::Messi, &opts(1)).unwrap();
            let want: Vec<Vec<Match>> = qrefs
                .iter()
                .map(|q| alone.search(&[q], &spec).unwrap().into_single())
                .collect();
            for (q, row) in qrefs.iter().zip(&want) {
                let oracle = match measure {
                    Measure::Dtw { band } => dsidx::ucr::brute_force_dtw_knn(&data, q, band, k),
                    _ => dsidx::ucr::brute_force_knn(&data, q, k),
                };
                assert_eq!(
                    row.iter().map(|m| m.pos).collect::<Vec<_>>(),
                    oracle.iter().map(|m| m.pos).collect::<Vec<_>>(),
                    "{measure:?} k={k}"
                );
                for (m, o) in row.iter().zip(&oracle) {
                    assert!((m.dist_sq - o.dist_sq).abs() <= o.dist_sq * 1e-4 + 1e-4);
                }
            }
            let want = bits(&want);

            for threads in [1usize, 2, 3, 8] {
                let monolith =
                    MemoryIndex::build(data.clone(), Engine::Messi, &opts(threads)).unwrap();
                let sharded =
                    ShardedIndex::build_in_memory(&data, 4, Engine::Messi, &opts(threads)).unwrap();
                // `search` rejects an empty batch, so one worker has no
                // `threads - 1` column.
                for width in [1, threads - 1, threads, threads + 1, 2 * threads, 64] {
                    if width == 0 {
                        continue;
                    }
                    let label = format!("{measure:?} k={k} x{threads} width={width}");
                    let batch = &qrefs[..width];
                    let answers = monolith.search(batch, &spec).unwrap();
                    assert_eq!(bits(answers.matches()), want[..width], "{label}");
                    assert_stats_hold(answers.stats().unwrap(), width, &label);
                    let answers = sharded.search(batch, &spec).unwrap();
                    assert_eq!(bits(answers.matches()), want[..width], "{label}, 4 shards");
                }
            }
        }
    }
}

/// A neighbour sitting in the query's seed leaf is inserted while seeding,
/// while later neighbours are inserted from the drain, by whichever worker
/// claimed the query, over memory and over a file alike. Its reported
/// distance must not show which path found it: every insertion goes
/// through the same bounded kernel.
#[test]
fn seed_leaf_neighbours_report_the_same_bits_on_memory_and_disk() {
    let dir = std::env::temp_dir().join(format!("dsidx-schedules-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = DatasetKind::Synthetic.generate(500, SERIES_LEN, 99);
    let path = dir.join("seed.dsidx");
    dsidx::storage::write_dataset(&path, &data, std::sync::Arc::new(Device::unthrottled()))
        .unwrap();
    // Indexed series nudged a little: the nearest neighbours are the
    // original and its leaf-mates, all found while seeding.
    let qs: Vec<Vec<f32>> = (0..16)
        .map(|i| {
            let mut q = data.get(i * 31).to_vec();
            for (j, v) in q.iter_mut().enumerate() {
                *v += 0.01 * ((i + j) % 7) as f32;
            }
            znormalize(&mut q);
            q
        })
        .collect();
    let qrefs: Vec<&[f32]> = qs.iter().map(Vec::as_slice).collect();
    let memory = MemoryIndex::build(data.clone(), Engine::Messi, &opts(2)).unwrap();
    let disk = DiskIndex::build(
        &path,
        &dir,
        Engine::Messi,
        &opts(2),
        DeviceProfile::UNTHROTTLED,
    )
    .unwrap();
    for k in [1usize, 5] {
        let spec = QuerySpec::knn(k);
        // Wide (whole queries per worker in memory) and alone (every worker
        // on the one query).
        let wide = memory.search(&qrefs, &spec).unwrap();
        let on_disk = disk.search(&qrefs, &spec).unwrap();
        assert_eq!(bits(wide.matches()), bits(on_disk.matches()), "k={k}");
        for (qi, q) in qrefs.iter().enumerate() {
            let alone = memory.search(&[q], &spec).unwrap();
            assert_eq!(
                bits(alone.matches())[0],
                bits(on_disk.matches())[qi],
                "k={k} q{qi}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every leaf of a built tree, bounded through its padded word run by the
/// batched kernel, gets exactly the scalar lookup's bits for its own
/// entries (this file runs in the `DSIDX_NO_SIMD=1` lane too, so both the
/// AVX2 kernel and its fallback are held to it).
#[test]
fn padded_leaf_runs_bound_bit_identically_to_the_scalar_lookup() {
    let series_len = 128;
    let config = TreeConfig::new(series_len, 16, 11).unwrap();
    let quantizer = config.quantizer().clone();
    let data = DatasetKind::Synthetic.generate(3_000, series_len, 7);
    let mut index = Index::new(config);
    for (pos, s) in data.iter().enumerate() {
        index.insert(LeafEntry::new(quantizer.word(s), pos as u32));
    }
    let flat = FlatTree::from_index(&index);
    let qs = DatasetKind::Synthetic.queries(3, series_len, 7);
    let mut bounds = Vec::new();
    let mut entries = 0;
    for q in qs.iter() {
        let table = MindistTable::new_point(&paa(q, 16), quantizer.segment_lens());
        for node in flat.nodes().iter().filter(|n| n.is_leaf()) {
            let words = flat.leaf_words(node);
            let padded = flat.leaf_words_padded(node);
            assert_eq!(padded.len() % LEAF_BLOCK, 0);
            assert!(padded.len() >= words.len() && padded.len() < words.len() + LEAF_BLOCK);
            assert_eq!(&padded[..words.len()], words);
            bounds.clear();
            bounds.resize(padded.len(), f32::NAN);
            table.lookup_many(padded, &mut bounds);
            for (w, b) in words.iter().zip(&bounds) {
                assert_eq!(table.lookup_scalar(w).to_bits(), b.to_bits());
            }
            entries += words.len();
        }
    }
    assert_eq!(entries, 3 * 3_000, "every entry sits in exactly one leaf");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The two-table root bound is the root word's per-segment sum up to
    /// the rounding of one reassociated add, for every root fan-out `r` of
    /// every segment count, and — like it — never above the true squared
    /// distance of any series under that root.
    #[test]
    fn root_bounds_match_the_segment_sum_and_stay_below_true_distances(
        segments in 1usize..=16,
        qflat in prop::collection::vec(-5.0f32..5.0, 64),
        cflat in prop::collection::vec(-5.0f32..5.0, 8 * 64),
    ) {
        let quantizer = Quantizer::new(64, segments).unwrap();
        let mut q = qflat;
        znormalize(&mut q);
        let table = NodeMindistTable::new_point(&paa(&q, segments), quantizer.segment_lens());
        for r in 1..=segments {
            let bounds = RootBounds::new(&table, r, segments);
            for c in cflat.chunks(64) {
                let mut c = c.to_vec();
                znormalize(&mut c);
                let key = quantizer.word(&c).root_key(r);
                let got = bounds.lb(key);
                let sum = table.lookup_scalar(&NodeWord::root(key, r, segments));
                prop_assert!((got - sum).abs() <= sum * 1e-6, "r={r}: {got} vs {sum}");
                let ed = euclidean_sq(&q, &c);
                prop_assert!(got <= ed + ed * 1e-4 + 1e-4, "root bound {got} above ED {ed}");
            }
            // And exhaustively over the keys when there are few of them.
            if r <= 10 {
                for key in 0..1u16 << r {
                    let sum = table.lookup_scalar(&NodeWord::root(key, r, segments));
                    prop_assert!((bounds.lb(key) - sum).abs() <= sum * 1e-6, "r={r} key={key}");
                }
            }
        }
    }
}
