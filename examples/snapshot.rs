//! Persistent index snapshots: build once, open in milliseconds.
//!
//! Builds an on-disk ParIS+ index and an in-memory MESSI index, saves
//! both as versioned snapshot artifacts, then reopens them and shows the
//! cold-start contrast: `open` does no tree construction — it decodes the
//! node records back into the tree in one pass — so it costs milliseconds
//! where the build costs seconds of modeled I/O and CPU.
//!
//! Run with: `cargo run --release --example snapshot`
//!
//! The save and open halves also run as separate processes — which is how
//! CI exercises them, proving the artifact is self-contained rather than
//! an artifact of in-process state:
//!
//! ```text
//! cargo run --release --example snapshot -- save /tmp/snapdir
//! cargo run --release --example snapshot -- open /tmp/snapdir
//! ```

use dsidx::prelude::*;
use std::path::Path;
use std::time::Instant;

const N: usize = 8_000;
const LEN: usize = 128;
const SEED: u64 = 2026;

fn dataset() -> Dataset {
    DatasetKind::Synthetic.generate(N, LEN, SEED)
}

fn options() -> Options {
    Options::default().with_leaf_capacity(100).with_threads(0)
}

fn save(dir: &Path) -> Result<(), Error> {
    std::fs::create_dir_all(dir).map_err(dsidx::storage::StorageError::from)?;
    let dataset_path = dir.join("archive.dsidx");
    println!("writing {N} x {LEN} series to {}", dataset_path.display());
    let data = dataset();
    dsidx::storage::write_dataset(
        &dataset_path,
        &data,
        std::sync::Arc::new(Device::unthrottled()),
    )?;

    let t0 = Instant::now();
    let disk = DiskIndex::build(
        &dataset_path,
        dir,
        Engine::ParisPlus,
        &options(),
        DeviceProfile::SSD,
    )?;
    println!("ParIS+ on-disk build: {:.2?}", t0.elapsed());
    let bytes = disk.save(&dir.join("parisplus.snap"))?;
    println!("  saved parisplus.snap ({bytes} bytes, the same four tree sections as MESSI's)");

    let t0 = Instant::now();
    let mem = MemoryIndex::build(data, Engine::Messi, &options())?;
    println!("MESSI in-memory build: {:.2?}", t0.elapsed());
    let bytes = mem.save(&dir.join("messi.snap"))?;
    println!("  saved messi.snap ({bytes} bytes)");
    Ok(())
}

fn open(dir: &Path) -> Result<(), Error> {
    let data = dataset();
    let query = DatasetKind::Synthetic.queries(1, LEN, SEED + 1);
    let q = query.get(0);
    let want = dsidx::ucr::brute_force(&data, q).expect("non-empty dataset");

    let t0 = Instant::now();
    let disk = DiskIndex::open(
        &dir.join("parisplus.snap"),
        &dir.join("archive.dsidx"),
        &Options::default(),
        DeviceProfile::SSD,
    )?;
    println!(
        "ParIS+ snapshot open: {:.2?} (no tree construction)",
        t0.elapsed()
    );
    let hit = disk
        .search(&[q], &QuerySpec::nn())?
        .into_nn()
        .expect("non-empty");
    assert_eq!(hit.pos, want.pos, "opened index answers exactly");
    println!("  1-NN: series #{} at distance {:.4}", hit.pos, hit.dist());

    let t0 = Instant::now();
    let mem = MemoryIndex::open(&dir.join("messi.snap"), data, &Options::default())?;
    println!("MESSI snapshot open: {:.2?}", t0.elapsed());
    let hit = mem
        .search(&[q], &QuerySpec::nn())?
        .into_nn()
        .expect("non-empty");
    assert_eq!(hit.pos, want.pos, "opened index answers exactly");
    println!("  1-NN: series #{} at distance {:.4}", hit.pos, hit.dist());
    Ok(())
}

fn main() -> Result<(), Error> {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("save") => {
            let dir = args.get(2).expect("usage: snapshot save <dir>");
            save(Path::new(dir))
        }
        Some("open") => {
            let dir = args.get(2).expect("usage: snapshot open <dir>");
            open(Path::new(dir))
        }
        None => {
            // Both halves in one process.
            let dir = std::env::temp_dir().join("dsidx-snapshot-example");
            save(&dir)?;
            println!();
            open(&dir)
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}` (expected `save` or `open`)");
            std::process::exit(2);
        }
    }
}
