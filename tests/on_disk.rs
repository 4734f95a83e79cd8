//! End-to-end on-disk behaviour: the facade's `DiskIndex` over real files
//! with modeled devices, failure injection, device accounting.

use dsidx::prelude::*;
use dsidx::storage::write_dataset;
use dsidx::ucr::brute_force;
use std::sync::Arc;

/// One query's exact Euclidean 1-NN, as a batch of one; `None` for an
/// empty collection.
fn nn(idx: &impl Search, q: &[f32]) -> Option<Match> {
    idx.search(&[q], &QuerySpec::nn()).unwrap().into_nn()
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dsidx-it-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts() -> Options {
    Options::default().with_threads(4).with_leaf_capacity(20)
}

#[test]
fn disk_engines_agree_with_brute_force() {
    let dir = tmpdir("agree");
    let data = DatasetKind::Synthetic.generate(600, 64, 42);
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let queries = DatasetKind::Synthetic.queries(4, 64, 42);
    for engine in Engine::ALL {
        let o = Options {
            block_series: 64,
            generation_series: 128,
            ..opts()
        };
        let idx = DiskIndex::build(&path, &dir, engine, &o, DeviceProfile::UNTHROTTLED).unwrap();
        for q in queries.iter() {
            let want = brute_force(&data, q).unwrap();
            let got = nn(&idx, q).unwrap();
            assert_eq!(got.pos, want.pos, "{}", engine.name());
        }
    }
}

/// The disk==memory equivalence the MESSI-on-disk refactor promises:
/// a `DiskIndex` answers **bit-identically** to a `MemoryIndex` built over
/// the same data, on every engine, across every (fidelity, measure) cell —
/// approximate fidelity included, which pins the deterministic tree builds
/// (the approximate answer is the query's own leaf, a shape-dependent
/// notion).
#[test]
fn disk_answers_are_bit_identical_to_memory_on_every_cell() {
    let dir = tmpdir("bitident");
    let data = DatasetKind::Sald.generate(400, 64, 4071);
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let qs = DatasetKind::Sald.queries(3, 64, 4071);
    let qrefs: Vec<&[f32]> = qs.iter().collect();
    let o = Options {
        block_series: 64,
        generation_series: 128,
        ..opts()
    };
    for engine in Engine::ALL {
        let mem = MemoryIndex::build(data.clone(), engine, &o).unwrap();
        let disk = DiskIndex::build(&path, &dir, engine, &o, DeviceProfile::UNTHROTTLED).unwrap();
        for fidelity in [Fidelity::Exact, Fidelity::Approximate] {
            for measure in [Measure::Euclidean, Measure::Dtw { band: 4 }] {
                let spec = QuerySpec::knn(5).measure(measure).fidelity(fidelity);
                let m = mem.search(&qrefs, &spec).unwrap();
                let d = disk.search(&qrefs, &spec).unwrap();
                for qi in 0..qrefs.len() {
                    let (mm, dd) = (&m.matches()[qi], &d.matches()[qi]);
                    assert_eq!(
                        mm.len(),
                        dd.len(),
                        "{} {fidelity:?} {measure:?} q{qi}",
                        engine.name()
                    );
                    for (a, b) in mm.iter().zip(dd.iter()) {
                        assert_eq!(
                            (a.pos, a.dist_sq.to_bits()),
                            (b.pos, b.dist_sq.to_bits()),
                            "{} {fidelity:?} {measure:?} q{qi}",
                            engine.name()
                        );
                    }
                }
            }
        }
    }
}

/// On-disk MESSI keeps the in-memory batching invariant: a whole batch —
/// ED or DTW — is answered by at most one traversal broadcast, while
/// candidate reads are charged to the device.
#[test]
fn messi_on_disk_batches_in_one_broadcast() {
    let dir = tmpdir("mbatch");
    let data = DatasetKind::Seismic.generate(500, 64, 77);
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let idx = DiskIndex::build(
        &path,
        &dir,
        Engine::Messi,
        &opts(),
        DeviceProfile::UNTHROTTLED,
    )
    .unwrap();
    let qs = DatasetKind::Seismic.queries(6, 64, 77);
    let batch: Vec<&[f32]> = qs.iter().collect();
    for measure in [Measure::Euclidean, Measure::Dtw { band: 4 }] {
        idx.file().device().reset_stats();
        let answers = idx
            .search(&batch, &QuerySpec::knn(3).measure(measure).with_stats())
            .unwrap();
        assert_eq!(
            answers.stats().unwrap().broadcasts,
            1,
            "{measure:?}: one broadcast for the whole batch"
        );
        assert!(
            idx.file().device().stats().bytes_read > 0,
            "{measure:?}: candidate reads must be charged to the device"
        );
    }
}

#[test]
fn build_report_reflects_overlap() {
    let dir = tmpdir("report");
    let n = 8000;
    let data = DatasetKind::Synthetic.generate(n, 64, 7);
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let o = Options {
        block_series: 250,
        generation_series: 1000,
        leaf_capacity: 10, // more split work per generation
        ..opts()
    };
    // min-of-2 damps scheduler noise in the tiny per-phase spans.
    let stall_of = |engine: Engine| {
        let mut best: Option<(std::time::Duration, usize, usize)> = None;
        for _ in 0..2 {
            let idx = DiskIndex::build(&path, &dir, engine, &o, DeviceProfile::HDD).unwrap();
            let r = idx.build_report().expect("a built index reports its build");
            assert_eq!(idx.stats().entry_count, n);
            // The coordinator's stage-3 stall: CPU and leaf writes.
            let candidate = (r.grow + r.flush, r.generations, idx.stats().entry_count);
            if best.as_ref().is_none_or(|b| candidate.0 < b.0) {
                best = Some(candidate);
            }
        }
        best.expect("two builds ran")
    };
    let (stall_paris, gens, _) = stall_of(Engine::Paris);
    let (stall_plus, _, _) = stall_of(Engine::ParisPlus);
    assert!(gens >= 5, "want several generations, got {gens}");
    assert!(
        stall_plus < stall_paris,
        "ParIS+ stall ({stall_plus:?}) must be below ParIS stall ({stall_paris:?})"
    );
}

#[test]
fn every_engine_reports_its_build_in_one_build_report() {
    let dir = tmpdir("every-report");
    let data = Arc::new(DatasetKind::Synthetic.generate(3000, 64, 11));
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let o = Options {
        block_series: 250,
        generation_series: 1000,
        ..opts()
    };
    for engine in Engine::ALL {
        let memory = MemoryIndex::build(Arc::clone(&data), engine, &o).unwrap();
        let disk = DiskIndex::build(&path, &dir, engine, &o, DeviceProfile::UNTHROTTLED).unwrap();
        for (residence, report) in [
            ("memory", memory.build_report()),
            ("disk", disk.build_report()),
        ] {
            let tag = format!("{} in {residence}", engine.name());
            let r = report.unwrap_or_else(|| panic!("{tag}: a built index reports its build"));
            // Reads are file reads: none in memory, some from a file.
            assert_eq!(r.read.is_zero(), residence == "memory", "{tag}: {r:?}");
            // Coordinator-visible wall time, no field counted twice.
            let parts = r.read + r.summarize + r.grow + r.flush + r.stitch;
            assert!(parts <= r.total, "{tag}: {r:?}");
            if matches!(engine, Engine::Paris | Engine::ParisPlus) {
                assert!(r.generations >= 2, "{tag}: {r:?}");
            }
        }
        // An opened index was not built: it has nothing to report.
        let snap = dir.join(format!("{}-mem.snap", engine.name()));
        memory.save(&snap).unwrap();
        let opened = MemoryIndex::open(&snap, Arc::clone(&data), &o).unwrap();
        assert!(opened.build_report().is_none(), "{}", engine.name());
        let snap = dir.join(format!("{}-disk.snap", engine.name()));
        disk.save(&snap).unwrap();
        let opened = DiskIndex::open(&snap, &path, &o, DeviceProfile::UNTHROTTLED).unwrap();
        assert!(opened.build_report().is_none(), "{}", engine.name());
    }
}

#[test]
fn queries_charge_the_device() {
    let dir = tmpdir("charge");
    let data = DatasetKind::Seismic.generate(400, 64, 3);
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let idx = DiskIndex::build(
        &path,
        &dir,
        Engine::ParisPlus,
        &opts(),
        DeviceProfile::UNTHROTTLED,
    )
    .unwrap();
    idx.file().device().reset_stats();
    let q = DatasetKind::Seismic.queries(1, 64, 3);
    let _ = nn(&idx, q.get(0)).unwrap();
    let stats = idx.file().device().stats();
    assert!(
        stats.bytes_read > 0,
        "query must read raw values through the device"
    );
}

#[test]
fn corrupt_files_error_cleanly() {
    let dir = tmpdir("corrupt");
    // Not a dataset at all.
    let bogus = dir.join("bogus.dsidx");
    std::fs::write(&bogus, b"this is not a dataset file at all........").unwrap();
    let e = DiskIndex::build(
        &bogus,
        &dir,
        Engine::Paris,
        &opts(),
        DeviceProfile::UNTHROTTLED,
    );
    assert!(e.is_err());
    // Truncated payload.
    let data = DatasetKind::Synthetic.generate(50, 32, 5);
    let path = dir.join("trunc.dsidx");
    write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
    let e = DiskIndex::build(
        &path,
        &dir,
        Engine::Ads,
        &opts(),
        DeviceProfile::UNTHROTTLED,
    );
    assert!(e.is_err(), "truncated file must be rejected");
}

#[test]
fn wrong_length_query_is_a_structured_error() {
    let dir = tmpdir("wrongq");
    let data = DatasetKind::Synthetic.generate(50, 64, 5);
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let idx = DiskIndex::build(
        &path,
        &dir,
        Engine::Ads,
        &opts(),
        DeviceProfile::UNTHROTTLED,
    )
    .unwrap();
    // The query plane validates before any engine runs: a mis-sized query
    // comes back as InvalidSpec::QueryLength (not a panic).
    let short = [0.0f32; 16];
    let e = idx.search(&[&short[..]], &QuerySpec::nn());
    assert!(matches!(
        e,
        Err(Error::InvalidSpec(InvalidSpec::QueryLength {
            expected: 64,
            got: 16,
            index: 0
        }))
    ));
}

/// A built ParIS/ParIS+ index reads its leaves back from the snapshot its
/// build wrote, so it pays the device what the same index saved and
/// reopened pays: at one worker, every query's bytes, seeks and modeled
/// time are the same on both.
#[test]
fn a_built_paris_index_reads_like_its_saved_and_reopened_snapshot() {
    let dir = tmpdir("held");
    let data = DatasetKind::Synthetic.generate(2000, 64, 61);
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let queries = DatasetKind::Synthetic.queries(16, 64, 61);
    let o = opts().with_threads(1);
    let costs = |idx: &DiskIndex| -> Vec<(u64, u64, u64)> {
        let device = idx.file().device();
        let cost = |q: &[f32]| {
            device.reset_stats();
            let _ = nn(idx, q).unwrap();
            let s = device.stats();
            (s.bytes_read, s.seeks, s.charged_nanos)
        };
        queries.iter().map(cost).collect()
    };
    for engine in [Engine::Paris, Engine::ParisPlus] {
        let built = DiskIndex::build(&path, &dir, engine, &o, DeviceProfile::SSD).unwrap();
        let snap = dir.join(format!("{}.snap", engine.name()));
        built.save(&snap).unwrap();
        let opened = DiskIndex::open(&snap, &path, &o, DeviceProfile::SSD).unwrap();
        let paid = costs(&built);
        assert!(paid.iter().all(|&(bytes, seeks, _)| bytes > 0 && seeks > 0));
        assert_eq!(paid, costs(&opened), "{}", engine.name());
    }
}

#[test]
fn hdd_queries_slower_than_ssd_queries() {
    let dir = tmpdir("devices");
    let data = DatasetKind::Synthetic.generate(3000, 64, 21);
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let mut times = Vec::new();
    let queries = DatasetKind::Synthetic.queries(3, 64, 21);
    for profile in [DeviceProfile::HDD, DeviceProfile::SSD] {
        let idx = DiskIndex::build(&path, &dir, Engine::ParisPlus, &opts(), profile).unwrap();
        let t = std::time::Instant::now();
        for q in queries.iter() {
            let _ = nn(&idx, q).unwrap();
        }
        times.push(t.elapsed());
    }
    assert!(
        times[0] > times[1],
        "HDD ({:?}) should be slower than SSD ({:?})",
        times[0],
        times[1]
    );
}
