//! Persistent index snapshots end to end: save → open round-trips answer
//! the full query plane bit-identically to the freshly built index, on
//! every residence (memory, disk, sharded); damaged artifacts fail with
//! structured, actionable errors — never a panic or a silently wrong
//! index.

use dsidx::prelude::*;
use dsidx::storage::{
    write_dataset, Device, SnapshotFingerprint, SnapshotReader, SnapshotWriter, StorageError,
};
use dsidx::tree::TreeConfig;
use dsidx::{Error, ShardedIndex};
use proptest::prelude::*;
use std::sync::Arc;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dsidx-snap-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts() -> Options {
    Options::default().with_threads(3).with_leaf_capacity(16)
}

/// Every (measure × fidelity) cell of the query plane, single and batch.
fn plane_specs() -> Vec<QuerySpec> {
    let mut specs = Vec::new();
    for k in [1usize, 5] {
        for measure in [Measure::Euclidean, Measure::Dtw { band: 4 }] {
            for fidelity in [Fidelity::Exact, Fidelity::Approximate] {
                specs.push(QuerySpec::knn(k).measure(measure).fidelity(fidelity));
            }
        }
    }
    specs
}

/// Asserts two indexes answer the whole query plane identically: batches
/// of several queries and the single-query special case.
fn assert_plane_identical<A: Search, B: Search>(
    built: &A,
    opened: &B,
    queries: &Dataset,
    tag: &str,
) {
    let qrefs: Vec<&[f32]> = queries.iter().collect();
    let single: Vec<&[f32]> = vec![queries.get(0)];
    for spec in plane_specs() {
        for qs in [&qrefs, &single] {
            let want = built.search(qs, &spec).unwrap();
            let got = opened.search(qs, &spec).unwrap();
            assert_eq!(got.matches(), want.matches(), "{tag} spec={spec:?}");
        }
    }
}

#[test]
fn memory_open_is_bit_identical_across_the_query_plane() {
    let dir = tmpdir("mem-plane");
    let data = DatasetKind::Synthetic.generate(400, 64, 7);
    let queries = DatasetKind::Synthetic.queries(3, 64, 7);
    for engine in Engine::ALL {
        let built = MemoryIndex::build(data.clone(), engine, &opts()).unwrap();
        let path = dir.join(format!("{}.snap", engine.name().replace('+', "p")));
        built.save(&path).unwrap();
        // Deliberately different Options defaults: the snapshot's saved
        // geometry must win, or answers would drift.
        let opened = MemoryIndex::open(&path, data.clone(), &Options::default()).unwrap();
        assert_plane_identical(&built, &opened, &queries, engine.name());
    }
}

#[test]
fn disk_open_is_bit_identical_across_the_query_plane() {
    let dir = tmpdir("disk-plane");
    let data = DatasetKind::Seismic.generate(350, 64, 9);
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let queries = DatasetKind::Seismic.queries(3, 64, 9);
    for engine in Engine::ALL {
        let built =
            DiskIndex::build(&path, &dir, engine, &opts(), DeviceProfile::UNTHROTTLED).unwrap();
        let snap = dir.join(format!("{}.snap", engine.name().replace('+', "p")));
        built.save(&snap).unwrap();
        let opened = DiskIndex::open(
            &snap,
            &path,
            &Options::default(),
            DeviceProfile::UNTHROTTLED,
        )
        .unwrap();
        assert_plane_identical(&built, &opened, &queries, engine.name());
    }
}

#[test]
fn opened_disk_index_charges_reads_to_the_modeled_device() {
    // The open is not free I/O: header, table and every tree section are
    // all charged through the device model.
    let dir = tmpdir("disk-charge");
    let data = DatasetKind::Synthetic.generate(300, 64, 11);
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let built = DiskIndex::build(
        &path,
        &dir,
        Engine::Paris,
        &opts(),
        DeviceProfile::UNTHROTTLED,
    )
    .unwrap();
    let snap = dir.join("p.snap");
    let saved_bytes = built.save(&snap).unwrap();
    let opened = DiskIndex::open(
        &snap,
        &path,
        &Options::default(),
        DeviceProfile::UNTHROTTLED,
    )
    .unwrap();
    let read = opened.file().device().stats().bytes_read;
    // Every payload byte is charged; only inter-section alignment padding
    // (< 64 bytes per section, 4 sections) goes unread.
    assert!(
        read + 64 * 4 >= saved_bytes && read > 0,
        "open read {read} bytes but the snapshot holds {saved_bytes}"
    );
}

#[test]
fn sharded_open_is_bit_identical_across_the_query_plane() {
    let dir = tmpdir("shard-plane");
    let data = DatasetKind::Sald.generate(450, 64, 13);
    let queries = DatasetKind::Sald.queries(3, 64, 13);
    let built = ShardedIndex::build_in_memory(&data, 3, Engine::Messi, &opts()).unwrap();
    let snapdir = dir.join("snap");
    built.save(&snapdir).unwrap();
    let opened = ShardedIndex::open_in_memory(&snapdir, &data, &Options::default()).unwrap();
    assert_plane_identical(&built, &opened, &queries, "sharded");
}

#[test]
fn truncated_snapshot_is_a_structured_error() {
    let dir = tmpdir("truncate");
    let data = DatasetKind::Synthetic.generate(200, 64, 17);
    let built = MemoryIndex::build(data.clone(), Engine::Messi, &opts()).unwrap();
    let path = dir.join("full.snap");
    built.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    // Cut at several depths: inside the header, the section table, and a
    // section payload. Every cut must yield Err, never a panic.
    for keep in [0, 7, 40, bytes.len() / 2, bytes.len() - 1] {
        let cut = dir.join(format!("cut-{keep}.snap"));
        std::fs::write(&cut, &bytes[..keep]).unwrap();
        let err = match MemoryIndex::open(&cut, data.clone(), &Options::default()) {
            Err(e) => e,
            Ok(_) => panic!("truncation to {keep} bytes accepted"),
        };
        let msg = err.to_string();
        assert!(!msg.is_empty(), "keep={keep}");
    }
}

#[test]
fn flipped_byte_is_a_checksum_mismatch() {
    let dir = tmpdir("flip");
    let data = DatasetKind::Synthetic.generate(200, 64, 19);
    let built = MemoryIndex::build(data.clone(), Engine::Ads, &opts()).unwrap();
    let path = dir.join("good.snap");
    built.save(&path).unwrap();
    let good = std::fs::read(&path).unwrap();
    // Flip one byte in the middle of the file (a section payload) and
    // near the start (the checksummed header).
    for at in [64usize, good.len() / 2, good.len() - 1] {
        let mut bad = good.clone();
        bad[at] ^= 0x40;
        let flipped = dir.join(format!("flip-{at}.snap"));
        std::fs::write(&flipped, &bad).unwrap();
        let err = match MemoryIndex::open(&flipped, data.clone(), &Options::default()) {
            Err(Error::Storage(e)) => e,
            Err(other) => panic!("non-storage error for flip at {at}: {other}"),
            Ok(_) => panic!("flipped byte at {at} accepted"),
        };
        // Either the corruption is caught by a checksum, or by a decoder
        // invariant (a flipped byte can also turn one valid field into
        // another that a structural check rejects) — but it is always
        // caught, with a Display that says what to do.
        let msg = err.to_string();
        assert!(
            !msg.is_empty(),
            "flip at {at} produced an empty error message"
        );
        if let StorageError::ChecksumMismatch { section, .. } = err.root_cause() {
            assert!(!section.is_empty());
            assert!(msg.contains("rebuild"), "actionable message: {msg}");
        }
    }
}

#[test]
fn future_format_version_is_rejected_by_name() {
    let dir = tmpdir("version");
    let data = DatasetKind::Synthetic.generate(120, 64, 23);
    let built = MemoryIndex::build(data.clone(), Engine::Paris, &opts()).unwrap();
    let path = dir.join("v1.snap");
    built.save(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // The format version is the little-endian u32 right after the magic.
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    let future = dir.join("v99.snap");
    std::fs::write(&future, &bytes).unwrap();
    let err = match MemoryIndex::open(&future, data, &Options::default()) {
        Err(Error::Storage(e)) => e,
        Err(other) => panic!("non-storage error: {other}"),
        Ok(_) => panic!("future version accepted"),
    };
    assert!(
        matches!(err.root_cause(), StorageError::BadVersion(99)),
        "{err}"
    );
}

/// Version 1 keyed every root on all `w` segments and had no zero-bit
/// node words; version 2 stored the boxed tree's 48-byte node records.
/// Their files are refused by number (and rebuilt from raw data), not
/// misread.
#[test]
fn version_one_snapshot_is_rejected_by_number() {
    let dir = tmpdir("v1");
    let data = DatasetKind::Synthetic.generate(120, 64, 29);
    let built = MemoryIndex::build(data.clone(), Engine::Messi, &opts()).unwrap();
    let path = dir.join("v3.snap");
    built.save(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        bytes[8..12],
        3u32.to_le_bytes(),
        "this build writes version 3"
    );
    for version in [2u32, 1] {
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let old = dir.join(format!("v{version}.snap"));
        std::fs::write(&old, &bytes).unwrap();
        let err = match MemoryIndex::open(&old, data.clone(), &Options::default()) {
            Err(Error::Storage(e)) => e,
            Err(other) => panic!("non-storage error: {other}"),
            Ok(_) => panic!("version {version} accepted"),
        };
        assert!(
            matches!(err.root_cause(), StorageError::BadVersion(v) if *v == version),
            "{err}"
        );
    }
}

/// The root fan-out is in the fingerprint, and it has to be the one the
/// tree in the sections was built with: the same sections re-wrapped under
/// any other value (checksums and all) are refused as corrupt, and under
/// the recorded value they open and answer.
#[test]
fn fingerprint_root_segments_must_match_the_tree() {
    let dir = tmpdir("rootseg");
    let data = DatasetKind::Synthetic.generate(300, 64, 31);
    let queries = DatasetKind::Synthetic.queries(2, 64, 31);
    let built = MemoryIndex::build(data.clone(), Engine::Messi, &opts()).unwrap();
    let path = dir.join("good.snap");
    built.save(&path).unwrap();
    let device = Arc::new(Device::unthrottled());
    let reader = SnapshotReader::open(&path, Arc::clone(&device)).unwrap();
    let recorded = *reader.fingerprint();
    // 300 series in leaves of 16 want 19 leaves: 5 of 16 segments.
    let derived = TreeConfig::new(64, 16, 16).unwrap().fitted_to(300);
    assert_eq!(usize::from(recorded.root_segments), derived.root_segments());
    assert_eq!(recorded.root_segments, 5);
    let rewrap = |root_segments: u8, leaf_capacity: u64| {
        let out = dir.join(format!("r{root_segments}-c{leaf_capacity}.snap"));
        let fingerprint = SnapshotFingerprint {
            root_segments,
            leaf_capacity,
            ..recorded
        };
        let mut writer = SnapshotWriter::new(&out, fingerprint, Arc::clone(&device));
        for id in ["NODES", "ROOTS", "WORDS", "POSITION"] {
            writer.section(id, reader.read_section(id).unwrap());
        }
        writer.finish().unwrap();
        out
    };
    // A wrong fan-out under the right capacity; the right fan-out under a
    // capacity that derives another one; a consistent pair the root
    // records do not fit; and a capacity nothing can be derived from.
    for (r, capacity) in [
        (0u8, 16u64),
        (4, 16),
        (6, 16),
        (16, 16),
        (200, 16),
        (5, 4),
        (7, 4),
        (5, 0),
    ] {
        let err = match MemoryIndex::open(&rewrap(r, capacity), data.clone(), &Options::default()) {
            Err(Error::Storage(e)) => e,
            Err(other) => panic!("non-storage error for r={r} capacity={capacity}: {other}"),
            Ok(_) => panic!("r={r} capacity={capacity} accepted for a tree built with 5 and 16"),
        };
        assert!(
            matches!(err.root_cause(), StorageError::Corrupt(_)),
            "r={r} capacity={capacity}: {err}"
        );
    }
    let reopened = MemoryIndex::open(&rewrap(5, 16), data, &Options::default()).unwrap();
    assert_plane_identical(&built, &reopened, &queries, "re-wrapped");
}

/// Saving over the file an opened index is still serving from replaces it
/// whole: the opened index keeps answering from the bytes it opened (a
/// ParIS+ leaf is read back from the entry runs inside its snapshot), can still save
/// itself elsewhere, and the path opens as the new index.
#[test]
fn saving_over_an_open_snapshot_leaves_the_opened_index_intact() {
    let dir = tmpdir("overwrite");
    let data = DatasetKind::Synthetic.generate(300, 64, 37);
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let queries = DatasetKind::Synthetic.queries(3, 64, 37);
    let qrefs: Vec<&[f32]> = queries.iter().collect();
    let spec = QuerySpec::knn(5);
    let open = |snap: &std::path::Path| {
        DiskIndex::open(snap, &path, &opts(), DeviceProfile::UNTHROTTLED).unwrap()
    };
    let shared = dir.join("shared.snap");
    DiskIndex::build(
        &path,
        &dir,
        Engine::ParisPlus,
        &opts(),
        DeviceProfile::UNTHROTTLED,
    )
    .unwrap()
    .save(&shared)
    .unwrap();
    let a = open(&shared);
    let before = a.search(&qrefs, &spec).unwrap();

    let small = DatasetKind::Sald.generate(40, 64, 41);
    MemoryIndex::build(small.clone(), Engine::Messi, &opts())
        .unwrap()
        .save(&shared)
        .unwrap();
    assert_eq!(a.search(&qrefs, &spec).unwrap().matches(), before.matches());
    let copy = dir.join("copy.snap");
    a.save(&copy).unwrap();
    assert_eq!(
        open(&copy).search(&qrefs, &spec).unwrap().matches(),
        before.matches()
    );
    let reopened = MemoryIndex::open(&shared, small, &Options::default()).unwrap();
    assert_eq!(reopened.engine(), Engine::Messi);
    // Each save renamed its temporary file into place; none is left over.
    let names = std::fs::read_dir(&dir).unwrap();
    let names: Vec<String> = names
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(!names.iter().any(|n| n.ends_with(".tmp")), "{names:?}");
}

/// The four sections every snapshot consists of.
const TREE_SECTIONS: [&str; 4] = ["NODES", "ROOTS", "WORDS", "POSITION"];

/// One collection, four engines, one snapshot layout: every engine's index
/// is the same flat tree, saved as the same four sections, so the files
/// differ only in the header's engine id. ParIS+ saves the same bytes
/// whatever the thread count its build ran at.
#[test]
fn every_engine_saves_the_same_four_sections() {
    let dir = tmpdir("one-layout");
    let data = DatasetKind::Synthetic.generate(1500, 64, 43);
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let device = Arc::new(Device::unthrottled());
    let save = |engine: Engine, threads: usize| {
        // Several generations and read blocks, so ParIS flushes leaves
        // between generations and its growers race each other.
        let options = Options {
            block_series: 100,
            generation_series: 400,
            ..opts().with_threads(threads)
        };
        let profile = DeviceProfile::UNTHROTTLED;
        let built = DiskIndex::build(&path, &dir, engine, &options, profile).unwrap();
        let snap = dir.join(format!(
            "{}-{threads}.snap",
            engine.name().replace('+', "p")
        ));
        let size = built.save(&snap).unwrap();
        (snap, size)
    };
    let sections = |snap: &std::path::Path| {
        let reader = SnapshotReader::open(snap, Arc::clone(&device)).unwrap();
        assert!(!reader.has_section("CHUNKS") && !reader.has_section("LEAFSTOR"));
        TREE_SECTIONS.map(|id| reader.read_section(id).unwrap())
    };
    let (messi, messi_size) = save(Engine::Messi, 3);
    let want = sections(&messi);
    assert!(want.iter().all(|s| !s.is_empty()));
    for engine in [Engine::Ads, Engine::Paris, Engine::ParisPlus] {
        let (snap, size) = save(engine, 3);
        assert!(
            sections(&snap) == want,
            "{} saves another tree",
            engine.name()
        );
        assert_eq!(size, messi_size, "{} saves other sections", engine.name());
    }
    let plus: Vec<Vec<u8>> = [1, 2, 4, 8]
        .into_iter()
        .map(|threads| std::fs::read(save(Engine::ParisPlus, threads).0).unwrap())
        .collect();
    for (bytes, threads) in plus.iter().zip([1, 2, 4, 8]) {
        assert!(
            *bytes == plus[0],
            "ParIS+ at {threads} threads saves other bytes"
        );
    }
}

/// A format-3 ParIS+ snapshot from before leaves were read back from the
/// tree's entry runs also carries a leaf-store chunk column (`CHUNKS`) and
/// the leaf store itself (`LEAFSTOR`). It still opens and answers
/// bit-identically: the opener reads the four tree sections and ignores
/// the rest.
#[test]
fn a_snapshot_with_the_old_leaf_store_sections_still_opens() {
    let dir = tmpdir("old-paris");
    let data = DatasetKind::Synthetic.generate(300, 64, 47);
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let queries = DatasetKind::Synthetic.queries(3, 64, 47);
    let profile = DeviceProfile::UNTHROTTLED;
    let built = DiskIndex::build(&path, &dir, Engine::ParisPlus, &opts(), profile).unwrap();
    let snap = dir.join("new.snap");
    built.save(&snap).unwrap();
    let device = Arc::new(Device::unthrottled());
    let reader = SnapshotReader::open(&snap, Arc::clone(&device)).unwrap();
    let fingerprint = *reader.fingerprint();
    let [nodes, roots, words, positions] = TREE_SECTIONS.map(|id| reader.read_section(id).unwrap());
    // The old layouts: one 12-byte chunk (offset u64, count u32) per
    // leaf, in node order, into a store of a 16-byte header and then
    // `segments + 4`-byte (word, position) records.
    let segments = usize::from(fingerprint.segments);
    let record = segments + 4;
    let mut chunks = Vec::new();
    let mut store = b"DSIDXLF1".to_vec();
    store.extend_from_slice(&(segments as u32).to_le_bytes());
    store.resize(16, 0);
    for node in nodes.chunks_exact(44) {
        let field = |at: usize| u32::from_le_bytes(node[at..at + 4].try_into().unwrap());
        let (start, end, one_child) = (field(32), field(36), field(40));
        if one_child != u32::MAX || start == end {
            continue;
        }
        chunks.extend_from_slice(&(store.len() as u64).to_le_bytes());
        chunks.extend_from_slice(&(end - start).to_le_bytes());
        for entry in start as usize..end as usize {
            store.extend_from_slice(&words[entry * segments..(entry + 1) * segments]);
            store.extend_from_slice(&positions[entry * 4..(entry + 1) * 4]);
        }
    }
    assert_eq!(store.len(), 16 + 300 * record);
    let old = dir.join("old.snap");
    let mut writer = SnapshotWriter::new(&old, fingerprint, Arc::clone(&device));
    for (id, bytes) in TREE_SECTIONS
        .into_iter()
        .zip([nodes, roots, words, positions])
    {
        writer.section(id, bytes);
    }
    writer.section("CHUNKS", chunks);
    writer.section("LEAFSTOR", store);
    let old_size = writer.finish().unwrap();
    assert!(old_size > std::fs::metadata(&snap).unwrap().len());
    let opened = DiskIndex::open(&old, &path, &Options::default(), profile).unwrap();
    assert_eq!(opened.engine(), Engine::ParisPlus);
    assert_plane_identical(&built, &opened, &queries, "old layout");
    // Saved again, it is the built index's snapshot.
    let resaved = dir.join("resaved.snap");
    opened.save(&resaved).unwrap();
    assert!(std::fs::read(&resaved).unwrap() == std::fs::read(&snap).unwrap());
}

#[test]
fn not_a_snapshot_is_bad_magic() {
    let dir = tmpdir("magic");
    let data = DatasetKind::Synthetic.generate(60, 64, 27);
    let path = dir.join("notes.txt");
    // Long enough to pass the length precheck, so the magic itself is
    // what gets rejected.
    std::fs::write(&path, vec![b'x'; 256]).unwrap();
    let err = match MemoryIndex::open(&path, data, &Options::default()) {
        Err(Error::Storage(e)) => e,
        Err(other) => panic!("non-storage error: {other}"),
        Ok(_) => panic!("text file accepted"),
    };
    assert!(matches!(err.root_cause(), StorageError::BadMagic), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary small collections, save → open round-trips every
    /// engine and answers 1-NN identically to the index it was saved
    /// from.
    #[test]
    fn snapshot_round_trip_preserves_answers(
        len in 8usize..48,
        count in 1usize..50,
        seed in 0u64..1_000,
        leaf in 1usize..24,
    ) {
        let dir = tmpdir("prop");
        let data = DatasetKind::Synthetic.generate(count, len, seed);
        let queries = DatasetKind::Synthetic.queries(2, len, seed.wrapping_add(1));
        let opts = Options::default()
            .with_threads(2)
            .with_leaf_capacity(leaf)
            .with_segments(8.min(len));
        for engine in Engine::ALL {
            let built = MemoryIndex::build(data.clone(), engine, &opts).unwrap();
            let path = dir.join(format!(
                "prop-{count}-{seed}-{leaf}-{}.snap",
                engine.name().replace('+', "p")
            ));
            built.save(&path).unwrap();
            let opened = MemoryIndex::open(&path, data.clone(), &Options::default()).unwrap();
            for q in queries.iter() {
                let want = built.search(&[q], &QuerySpec::nn()).unwrap().into_nn();
                let got = opened.search(&[q], &QuerySpec::nn()).unwrap().into_nn();
                prop_assert_eq!(got, want, "{}", engine.name());
            }
            std::fs::remove_file(&path).ok();
        }
    }
}
