//! An index built with SIMD on saves to the same bytes as one built with
//! SIMD off: summarization (the PAA and the quantizer) is bit-identical in
//! both modes, so every word, every tree and every tree section of a
//! snapshot is.
//!
//! The SIMD gate is process-global, so these tests live in their own
//! binary and take turns on it.

use dsidx::prelude::*;
use dsidx::series::distance::set_simd_enabled;
use dsidx::storage::{write_dataset, Device, SnapshotReader};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

static GATE: Mutex<()> = Mutex::new(());

/// Runs `f(mode)` with SIMD off, then on, holding the gate for both.
fn in_both_modes<T>(f: impl Fn(bool) -> T) -> (T, T) {
    let _turn = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let run = |mode| {
        set_simd_enabled(mode);
        f(mode)
    };
    (run(false), run(true))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsidx-simd-snap-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 256 points in 16 segments: the shape the vector PAA covers.
fn data() -> Dataset {
    DatasetKind::Synthetic.generate(3000, 256, 27)
}

#[test]
fn messi_snapshots_are_byte_identical_with_simd_on_and_off() {
    let dir = tmpdir("messi");
    let data = Arc::new(data());
    let options = Options::default().with_threads(2);
    let (scalar, simd) = in_both_modes(|mode| {
        let snap = dir.join(format!("simd-{mode}.snap"));
        let index = MemoryIndex::build(data.clone(), Engine::Messi, &options).unwrap();
        index.save(&snap).unwrap();
        std::fs::read(&snap).unwrap()
    });
    assert!(!scalar.is_empty());
    assert!(
        scalar == simd,
        "MESSI snapshot bytes depend on the SIMD mode"
    );
}

#[test]
fn paris_plus_tree_sections_are_byte_identical_with_simd_on_and_off() {
    let dir = tmpdir("parisplus");
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data(), Arc::new(Device::unthrottled())).unwrap();
    let options = Options::default().with_threads(2);
    let (scalar, simd) = in_both_modes(|mode| {
        let snap = dir.join(format!("simd-{mode}.snap"));
        let profile = DeviceProfile::UNTHROTTLED;
        let index = DiskIndex::build(&path, &dir, Engine::ParisPlus, &options, profile).unwrap();
        index.save(&snap).unwrap();
        let reader = SnapshotReader::open(&snap, Arc::new(Device::unthrottled())).unwrap();
        // The leaf store's layout (and the chunk column pointing into it)
        // follows the order concurrent flushes land in, in either mode;
        // the tree sections are what summarization decides.
        ["NODES", "ROOTS", "WORDS", "POSITION"].map(|id| reader.read_section(id).unwrap())
    });
    assert!(scalar.iter().all(|s| !s.is_empty()));
    assert!(
        scalar == simd,
        "ParIS+ tree sections depend on the SIMD mode"
    );
}
