//! On-disk indexing with modeled devices — all four engines on one
//! storage plane.
//!
//! Writes a dataset file, builds ADS+, ParIS, ParIS+ *and* MESSI indexes
//! over it on a simulated HDD, and prints each build's report, the
//! decomposition Fig. 4 of the paper plots — watch ParIS+'s visible CPU
//! shrink to almost nothing under its reads. Then answers queries on both
//! HDD and SSD profiles (Fig. 8's contrast), and finishes with the cell
//! the engine matrix used to lack: exact DTW answered straight from the
//! file through MESSI's generic cascade.
//!
//! Run with: `cargo run --release --example ondisk_indexing`

use dsidx::prelude::*;
use std::time::Instant;

fn main() -> Result<(), Error> {
    let n = 30_000;
    let len = 256;
    let dir = std::env::temp_dir().join("dsidx-ondisk-example");
    std::fs::create_dir_all(&dir).map_err(dsidx::storage::StorageError::from)?;
    let dataset_path = dir.join("archive.dsidx");

    println!(
        "writing {n} x {len} random-walk series to {}",
        dataset_path.display()
    );
    let data = DatasetKind::Synthetic.generate(n, len, 2026);
    dsidx::storage::write_dataset(
        &dataset_path,
        &data,
        std::sync::Arc::new(Device::unthrottled()),
    )?;

    let options = Options::default().with_leaf_capacity(100).with_threads(0);

    // Every engine reports its build the same way: coordinator-visible
    // wall time, none of it counted twice. The CPU column is summarizing,
    // growing and stitching; the write column is leaf flushes.
    println!("\n-- index construction on a modeled HDD --");
    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>9} {:>5}",
        "engine", "total", "read", "cpu", "write", "gens"
    );
    for engine in Engine::ALL {
        let index = DiskIndex::build(&dataset_path, &dir, engine, &options, DeviceProfile::HDD)?;
        let report = index
            .build_report()
            .expect("a built index reports its build");
        println!(
            "{:<8} {:>8.2?} {:>8.2?} {:>8.2?} {:>8.2?} {:>5}",
            engine.name(),
            report.total,
            report.read,
            report.summarize + report.grow + report.stitch,
            report.flush,
            report.generations
        );
    }

    println!("\n-- exact query answering, HDD vs SSD (ParIS+) --");
    let queries = DatasetKind::Synthetic.queries(3, len, 2026);
    let batch: Vec<&[f32]> = queries.iter().collect();
    for profile in [DeviceProfile::HDD, DeviceProfile::SSD] {
        let index = DiskIndex::build(&dataset_path, &dir, Engine::ParisPlus, &options, profile)?;
        index.file().device().reset_stats();
        let t = Instant::now();
        let answers = index.search(&batch, &QuerySpec::nn())?;
        let elapsed = t.elapsed();
        assert!(answers.best(0).is_some(), "non-empty");
        let stats = index.file().device().stats();
        println!(
            "{:<12} {} queries in {:>8.2?}  ({} random reads charged, {:.1} MiB)",
            profile.name,
            answers.len(),
            elapsed,
            stats.seeks,
            stats.bytes_read as f64 / (1024.0 * 1024.0)
        );

        // Approximate fidelity on the same on-disk index: a few probe
        // reads instead of full verification — the interactive mode for
        // slow devices.
        index.file().device().reset_stats();
        let t = Instant::now();
        let approx = index.search(&batch, &QuerySpec::nn().fidelity(Fidelity::Approximate))?;
        let stats = index.file().device().stats();
        println!(
            "{:<12}   approximate: {:>8.2?}  ({} random reads charged); dist {:.4} vs exact {:.4}",
            "",
            t.elapsed(),
            stats.seeks,
            approx.best(0).expect("non-empty").dist(),
            answers.best(0).expect("non-empty").dist(),
        );
    }
    println!("\n(the HDD/SSD gap above is Fig. 8's effect, miniaturized)");

    // The formerly-missing cell: MESSI built over the file, answering
    // exact ED *and* exact DTW with candidate reads charged to the device
    // — the whole batch in one traversal broadcast per measure.
    println!("\n-- MESSI on disk: the closed engine matrix (SSD) --");
    let index = DiskIndex::build(
        &dataset_path,
        &dir,
        Engine::Messi,
        &options,
        DeviceProfile::SSD,
    )?;
    for (label, spec) in [
        ("exact ED", QuerySpec::knn(5).with_stats()),
        (
            "exact DTW",
            QuerySpec::knn(5)
                .measure(Measure::Dtw { band: len / 20 })
                .with_stats(),
        ),
    ] {
        index.file().device().reset_stats();
        let t = Instant::now();
        let answers = index.search(&batch, &spec)?;
        let stats = index.file().device().stats();
        let broadcasts = answers.stats().expect("stats requested").broadcasts;
        assert!(broadcasts <= 1, "one broadcast answers the whole batch");
        println!(
            "{:<10} {} queries in {:>8.2?}  ({broadcasts} broadcast, {} random reads, {:.1} MiB)",
            label,
            answers.len(),
            t.elapsed(),
            stats.seeks,
            stats.bytes_read as f64 / (1024.0 * 1024.0)
        );
    }
    println!("(tree pruning keeps the device mostly idle — the MESSI effect, now on disk)");
    Ok(())
}
