//! Cold-start: build-from-raw vs snapshot `open`, per engine on a
//! modeled SSD.
//!
//! The snapshot work's headline claim: a built index saved as a snapshot
//! artifact reopens with **no tree construction** — positioned reads
//! reconstruct the tree — so process restart costs milliseconds instead
//! of a full rebuild's raw-data scan plus construction. This experiment
//! pins the claim with two self-assertions:
//!
//! * **speed** — summed across the four engines, `open` is at least 10×
//!   faster than the build it replaces (per-engine ratios are reported as
//!   rows; the on-disk ParIS family, whose builds pay per-flush leaf
//!   writes, is far beyond 10× on its own);
//! * **fidelity** — every opened index answers the full query-plane
//!   matrix (measure × fidelity × single/batch) bit-identically to the
//!   index it was saved from;
//! * **one layout** — every engine's snapshot is as large as MESSI's: all
//!   four save the same flat tree as the same four sections, so a section
//!   only one engine writes fails here.
//!
//! Device bytes make the *why* visible: the build reads every raw series
//! (512 B each at tiny scale) while the open reads only the snapshot
//! (tens of bytes per series).

use crate::{disk_dataset, f, ms, queries_planted, time, Scale, Table};
use dsidx::prelude::*;
use std::time::Duration;

/// Reopens per engine; the row reports the fastest (steady-state) open.
const OPEN_REPS: usize = 5;
/// The speed self-assertion: summed builds vs summed (fastest) opens.
const MIN_SPEEDUP: f64 = 10.0;

/// Every (measure × fidelity) cell, k = 1 and k = 5.
fn plane_specs(band: usize) -> Vec<QuerySpec> {
    let mut specs = Vec::new();
    for k in [1usize, 5] {
        for measure in [Measure::Euclidean, Measure::Dtw { band }] {
            for fidelity in [Fidelity::Exact, Fidelity::Approximate] {
                specs.push(QuerySpec::knn(k).measure(measure).fidelity(fidelity));
            }
        }
    }
    specs
}

/// Runs this experiment at the given scale, printing its table and CSV.
///
/// # Panics
/// Panics (self-assertion) if the summed opens are not at least 10×
/// faster than the summed builds, if any opened index's answers differ
/// from the built index's anywhere in the query-plane matrix, or if any
/// engine's snapshot is not exactly as large as MESSI's.
pub fn run(scale: &Scale) {
    let kind = DatasetKind::Synthetic;
    let len = scale.len_for(kind);
    let path = disk_dataset(kind, scale.disk_series, len);
    let workdir = crate::data_dir();
    let options = Options::default().with_threads(0);
    let qs = queries_planted(kind, scale.disk_queries, scale);
    let batch: Vec<&[f32]> = qs.iter().collect();
    let single: Vec<&[f32]> = vec![qs.get(0)];
    let band = len / 20;

    let mut table = Table::new(
        "coldstart",
        &[
            "engine",
            "build_ms",
            "open_ms",
            "speedup",
            "build_bytes_read",
            "open_bytes_read",
            "snapshot_bytes",
        ],
    );
    let mut build_total = Duration::ZERO;
    let mut open_total = Duration::ZERO;
    let mut sizes = Vec::new();
    for engine in Engine::ALL {
        let (built, build_time) = time(|| {
            DiskIndex::build(&path, &workdir, engine, &options, DeviceProfile::SSD)
                .expect("on-disk build")
        });
        let build_bytes = built.file().device().stats().bytes_read;
        let snap = workdir.join(format!(
            "coldstart-{}.snap",
            engine.name().replace('+', "p")
        ));
        let snapshot_bytes = built.save(&snap).expect("snapshot save");

        let mut best_open = Duration::MAX;
        let mut open_bytes = 0;
        let mut opened = None;
        for _ in 0..OPEN_REPS {
            let (idx, open_time) = time(|| {
                DiskIndex::open(&snap, &path, &Options::default(), DeviceProfile::SSD)
                    .expect("snapshot open")
            });
            if open_time < best_open {
                best_open = open_time;
            }
            open_bytes = idx.file().device().stats().bytes_read;
            opened = Some(idx);
        }
        let opened = opened.expect("at least one open rep");

        // Fidelity self-assertion: the opened index answers the whole
        // query-plane matrix bit-identically to the built one.
        for spec in plane_specs(band) {
            for queries in [&batch, &single] {
                let want = built.search(queries, &spec).expect("built query");
                let got = opened.search(queries, &spec).expect("opened query");
                assert_eq!(
                    got.matches(),
                    want.matches(),
                    "{} answers drifted after reopen for {spec:?}",
                    engine.name()
                );
            }
        }

        build_total += build_time;
        open_total += best_open;
        sizes.push((engine, snapshot_bytes));
        table.row(&[
            engine.name().to_owned(),
            f(ms(build_time)),
            f(ms(best_open)),
            f(ms(build_time) / ms(best_open)),
            build_bytes.to_string(),
            open_bytes.to_string(),
            snapshot_bytes.to_string(),
        ]);
    }
    table.finish();

    let messi = sizes
        .iter()
        .find(|(engine, _)| *engine == Engine::Messi)
        .map(|&(_, bytes)| bytes);
    for &(engine, bytes) in &sizes {
        assert_eq!(
            Some(bytes),
            messi,
            "{} saves a {bytes}-byte snapshot where MESSI saves {messi:?}: every engine's \
             snapshot is its flat tree, in the same four sections",
            engine.name()
        );
    }

    let speedup = ms(build_total) / ms(open_total);
    assert!(
        speedup >= MIN_SPEEDUP,
        "cold-start speedup regressed: opens took {:.2?} vs {:.2?} of builds ({speedup:.1}x < \
         {MIN_SPEEDUP}x)",
        open_total,
        build_total
    );
    println!(
        "cold-start speedup across all engines: {speedup:.1}x (self-asserted >= {MIN_SPEEDUP}x)"
    );
}
