//! Sharded scatter-gather equivalence suite: a [`ShardedIndex`] must be a
//! drop-in replacement for a monolithic index over the concatenated
//! dataset. Exact answers are element-wise **bit-identical** on every
//! engine, measure, and shard count — including tie-groups straddling a
//! shard boundary — and a single query equals the matching row of the
//! batch. Plus the two operational regressions: an 8-shard build must not
//! multiply pool workers, and a read fault in one shard must report which
//! shard died and in which phase.

use dsidx::prelude::*;
use dsidx::ShardedIndex;
use proptest::prelude::*;
use std::sync::Arc;

fn opts(threads: usize) -> Options {
    Options::default()
        .with_threads(threads)
        .with_leaf_capacity(12)
        .with_segments(8)
}

/// Bit-identical comparison: positions AND distance bit patterns.
fn assert_bit_identical(want: &[Match], got: &[Match], label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: lengths differ");
    for (w, g) in want.iter().zip(got) {
        assert_eq!(w.pos, g.pos, "{label}: positions differ");
        assert_eq!(
            w.dist_sq.to_bits(),
            g.dist_sq.to_bits(),
            "{label}: distance bits differ at pos {}",
            w.pos
        );
    }
}

/// A tie-group of identical series planted *across* a shard boundary must
/// come back at equal distances, ordered by global position — the
/// tie-break a monolithic index applies, which the shards' rebased
/// `OffsetTopK` views have to reproduce even though the tied candidates
/// live in different shards and race through the shared collector.
#[test]
fn tie_group_straddling_a_shard_boundary_keeps_global_order() {
    let series_len = 64usize;
    let total = 300usize;
    let base = DatasetKind::Synthetic.generate(total, series_len, 77);
    let probe: Vec<f32> = base.get(42).to_vec();
    // 3 shards over 300 series split at 100 and 200; plant the probe at
    // 98..102 so the tie-group straddles the first boundary.
    let mut flat = Vec::with_capacity(total * series_len);
    for pos in 0..total {
        if (98..102).contains(&pos) {
            flat.extend_from_slice(&probe);
        } else {
            flat.extend_from_slice(base.get(pos));
        }
    }
    let data = Dataset::from_flat(flat, series_len).unwrap();
    let qrefs: Vec<&[f32]> = vec![&probe];
    for engine in Engine::ALL {
        let monolith = MemoryIndex::build(data.clone(), engine, &opts(2)).unwrap();
        let sharded = ShardedIndex::build_in_memory(&data, 3, engine, &opts(2)).unwrap();
        for spec in [
            QuerySpec::knn(6),
            QuerySpec::knn(6).measure(Measure::Dtw { band: 3 }),
        ] {
            let want = monolith.search(&qrefs, &spec).unwrap().into_single();
            let got = sharded.search(&qrefs, &spec).unwrap().into_single();
            let label = format!("{} {:?}", engine.name(), spec.measure_kind());
            assert_bit_identical(&want, &got, &label);
            // The planted copies (and the original at 42) are the exact
            // ties; they must lead the list in ascending global position.
            let zero: Vec<u32> = got
                .iter()
                .filter(|m| m.dist_sq == 0.0)
                .map(|m| m.pos)
                .collect();
            assert_eq!(zero, vec![42, 98, 99, 100, 101], "{label}: tie order");
        }
    }
}

/// Every shard fits its own tree to its own slice, so shards of unequal
/// size can key their roots on different numbers of segments — and all of
/// them differently from the monolith. None of that may show in an exact
/// answer.
#[test]
fn shards_with_different_root_fan_outs_match_the_monolith() {
    use dsidx::shard::partition;
    use dsidx::tree::TreeConfig;
    let series_len = 64usize;
    // 193 series in leaves of 12 over 2 shards: 97 series want 9 leaves
    // (4 root segments), 96 want 8 (3 segments), the monolith's 17 want 5.
    let total = 193usize;
    let fan_out = |count: usize| {
        TreeConfig::new(series_len, 8, 12)
            .unwrap()
            .fitted_to(count)
            .root_segments()
    };
    let sizes: Vec<usize> = partition(total, 2).iter().map(|r| r.len()).collect();
    assert_eq!(sizes, [97, 96]);
    assert_eq!([fan_out(97), fan_out(96), fan_out(total)], [4, 3, 5]);
    let data = DatasetKind::Synthetic.generate(total, series_len, 91);
    let queries = DatasetKind::Synthetic.queries(4, series_len, 91);
    let qrefs: Vec<&[f32]> = queries.iter().collect();
    for engine in Engine::ALL {
        let monolith = MemoryIndex::build(data.clone(), engine, &opts(2)).unwrap();
        let sharded = ShardedIndex::build_in_memory(&data, 2, engine, &opts(2)).unwrap();
        for spec in [
            QuerySpec::knn(7),
            QuerySpec::knn(7).measure(Measure::Dtw { band: 3 }),
        ] {
            let want = monolith.search(&qrefs, &spec).unwrap();
            let got = sharded.search(&qrefs, &spec).unwrap();
            for (qi, (w, g)) in want.matches().iter().zip(got.matches()).enumerate() {
                let label = format!("{} {:?} q{qi}", engine.name(), spec.measure_kind());
                assert_bit_identical(w, g, &label);
            }
        }
    }
}

/// Pool-oversubscription regression: building and searching an 8-shard
/// index must reuse the one cached global pool per worker count instead
/// of spawning `8 * threads` workers. This test owns the distinctive
/// worker count 5; the other tests in this binary stick to 1–2 threads,
/// so any growth near `8 * 5` here is the regression.
#[test]
fn eight_shard_search_does_not_multiply_pool_workers() {
    let threads = 5usize;
    dsidx::sync::pool::global(threads).broadcast(&|_| {});
    let before = dsidx::sync::pool::cached_worker_total();

    let data = DatasetKind::Synthetic.generate(640, 64, 5);
    let qs = DatasetKind::Synthetic.queries(2, 64, 5);
    let qrefs: Vec<&[f32]> = qs.iter().collect();
    let sharded = ShardedIndex::build_in_memory(&data, 8, Engine::Messi, &opts(threads)).unwrap();
    sharded.search(&qrefs, &QuerySpec::knn(4)).unwrap();
    sharded
        .search(&qrefs, &QuerySpec::knn(4).measure(Measure::Dtw { band: 3 }))
        .unwrap();

    let growth = dsidx::sync::pool::cached_worker_total().saturating_sub(before);
    assert!(
        growth < threads * 8,
        "8-shard search multiplied pool workers: census grew by {growth}"
    );
    // Stronger: the size-5 pool was warmed above, so the sharded build
    // and searches themselves add nothing; any slack is other tests in
    // this binary warming their own (smaller) pools concurrently.
    assert!(
        growth <= threads,
        "shards must share the cached per-size pool; census grew by {growth}"
    );
}

/// A mid-search read fault on one on-disk shard must name the dying
/// shard and the phase it died in — the `ErrorSlot` →
/// `StorageError::Context` plumbing across the scatter boundary.
#[test]
fn disk_shard_read_fault_reports_shard_and_phase() {
    let dir = std::env::temp_dir().join(format!("dsidx-sharded-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = DatasetKind::Synthetic.generate(240, 64, 13);
    let path = dir.join("fault.dsidx");
    dsidx::storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();

    let mut sharded = ShardedIndex::build_on_disk(
        &path,
        &dir,
        3,
        Engine::Paris,
        &opts(2),
        DeviceProfile::UNTHROTTLED,
    )
    .unwrap();
    assert_eq!(sharded.shard_count(), 3);
    assert_eq!(sharded.len(), 240);

    let qs = DatasetKind::Synthetic.queries(2, 64, 13);
    let qrefs: Vec<&[f32]> = qs.iter().collect();
    // Healthy first: the sharded disk index answers like the monolith.
    let monolith = MemoryIndex::build(data, Engine::Paris, &opts(2)).unwrap();
    let want = monolith.search(&qrefs, &QuerySpec::knn(5)).unwrap();
    let got = sharded.search(&qrefs, &QuerySpec::knn(5)).unwrap();
    assert_eq!(want.matches(), got.matches());

    // Now shard 2's device dies after 4 reads, mid-search.
    sharded.fault_inject_shard(2, 4).unwrap();
    let err = sharded
        .search(&qrefs, &QuerySpec::knn(5))
        .expect_err("shard 2 read budget exhausted");
    let msg = err.to_string();
    assert!(
        msg.contains("during") && msg.contains("(shard 2)"),
        "fault must carry phase and shard: {msg}"
    );
    // Approximate runs per query, so the report adds the query index.
    let err = sharded
        .search(&qrefs, &QuerySpec::knn(5).fidelity(Fidelity::Approximate))
        .expect_err("shard 2 read budget exhausted");
    let msg = err.to_string();
    assert!(
        msg.contains("shard 2, query"),
        "fault must carry shard and query: {msg}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A sharded index built with a *relative* workdir must still save a
/// manifest that names each shard's dataset file absolutely — what its
/// format promises — so `open_on_disk` follows it from any working
/// directory, and answers bit-identically.
#[test]
fn manifest_records_absolute_dataset_paths_for_a_relative_workdir() {
    let cwd = std::env::current_dir().unwrap();
    let workdir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .strip_prefix(&cwd)
        .unwrap_or(std::path::Path::new("target/tmp"))
        .join(format!("dsidx-sharded-relative-{}", std::process::id()));
    assert!(workdir.is_relative());
    std::fs::create_dir_all(&workdir).unwrap();
    let data = DatasetKind::Synthetic.generate(240, 64, 29);
    let path = workdir.join("full.dsidx");
    dsidx::storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let built = ShardedIndex::build_on_disk(
        &path,
        &workdir,
        3,
        Engine::ParisPlus,
        &opts(2),
        DeviceProfile::UNTHROTTLED,
    )
    .unwrap();
    let snapdir = workdir.join("snap");
    built.save(&snapdir).unwrap();

    let manifest = std::fs::read_to_string(snapdir.join("MANIFEST")).unwrap();
    let shard_lines: Vec<&str> = manifest
        .lines()
        .filter(|l| l.starts_with("shard "))
        .collect();
    assert_eq!(shard_lines.len(), 3);
    for line in shard_lines {
        // `shard <i> <kind> <base> <count> <file> <dataset>`
        let dataset = line.splitn(7, ' ').nth(6).unwrap();
        assert!(
            std::path::Path::new(dataset).is_absolute(),
            "manifest records a relative dataset path: {line}"
        );
    }

    let opened =
        ShardedIndex::open_on_disk(&snapdir, &Options::default(), DeviceProfile::UNTHROTTLED)
            .unwrap();
    let qs = DatasetKind::Synthetic.queries(3, 64, 29);
    let qrefs: Vec<&[f32]> = qs.iter().collect();
    let spec = QuerySpec::knn(5);
    let want = built.search(&qrefs, &spec).unwrap();
    let got = opened.search(&qrefs, &spec).unwrap();
    for (qi, (w, g)) in want.matches().iter().zip(got.matches()).enumerate() {
        assert_bit_identical(w, g, &format!("reopened q{qi}"));
    }
    std::fs::remove_dir_all(&workdir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The drop-in contract, property-tested: on arbitrary data, any
    /// engine, either measure, exact answers from a `ShardedIndex` are
    /// element-wise bit-identical to the monolithic `MemoryIndex` — for
    /// the whole batch and for each query searched alone — and
    /// approximate answers keep the fidelity contract (never below the
    /// exact distance at the same rank).
    #[test]
    fn sharded_is_a_drop_in_for_the_monolith(
        flat in prop::collection::vec(-10.0f32..10.0, 45 * 32),
        qflat in prop::collection::vec(-10.0f32..10.0, 2 * 32),
        shards in 2usize..5,
        k in 1usize..6,
        band in 0usize..5,
        engine_sel in 0usize..4,
    ) {
        let mut data = Dataset::from_flat(flat, 32).unwrap();
        data.znormalize_all();
        let (mut q0, mut q1) = {
            let (a, b) = qflat.split_at(32);
            (a.to_vec(), b.to_vec())
        };
        dsidx::series::znorm::znormalize(&mut q0);
        dsidx::series::znorm::znormalize(&mut q1);
        let engine = Engine::ALL[engine_sel];
        let opts = Options::default()
            .with_threads(2)
            .with_leaf_capacity(8)
            .with_segments(8);
        let monolith = MemoryIndex::build(data.clone(), engine, &opts).unwrap();
        let sharded = ShardedIndex::build_in_memory(&data, shards, engine, &opts).unwrap();
        let batch: Vec<&[f32]> = vec![&q0, &q1];
        for measure in [Measure::Euclidean, Measure::Dtw { band }] {
            let spec = QuerySpec::knn(k).measure(measure);
            let want = monolith.search(&batch, &spec).unwrap();
            let got = sharded.search(&batch, &spec).unwrap();
            for (qi, (w, g)) in want.matches().iter().zip(got.matches()).enumerate() {
                prop_assert_eq!(w.len(), g.len());
                for (wm, gm) in w.iter().zip(g) {
                    prop_assert_eq!(wm.pos, gm.pos, "{} {:?} query {}", engine.name(), measure, qi);
                    prop_assert_eq!(wm.dist_sq.to_bits(), gm.dist_sq.to_bits());
                }
                // Single == its batch row: a batch of one takes the same
                // path through the shared collectors.
                let single = sharded.search(&[batch[qi]], &spec).unwrap().into_single();
                prop_assert_eq!(&single, g);
            }
            // Approximate fidelity: per-shard trees differ from the
            // monolith's, so the contract is semantic — never below the
            // exact distance at the same rank.
            let approx = sharded
                .search(&batch, &spec.clone().fidelity(Fidelity::Approximate))
                .unwrap();
            for (a_row, e_row) in approx.matches().iter().zip(want.matches()) {
                prop_assert!(!a_row.is_empty());
                for (a, e) in a_row.iter().zip(e_row) {
                    prop_assert!(
                        a.dist_sq >= e.dist_sq - e.dist_sq * 1e-5 - 1e-6,
                        "{} {:?}: approximate {} below exact {}",
                        engine.name(), measure, a.dist_sq, e.dist_sq
                    );
                }
            }
        }
    }
}
