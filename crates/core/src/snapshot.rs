//! Shared save/open plumbing behind [`MemoryIndex::save`],
//! [`DiskIndex::open`] and friends: engine ids, section naming, fingerprint
//! validation, tree codec invocation, and the snapshot observability
//! hooks.
//!
//! An on-disk ParIS/ParIS+ index reads its leaves back from a snapshot:
//! the one it was opened from, or the one its build wrote and holds
//! unlinked ([`hold_snapshot`]). One writer and one entry-run reader serve
//! both, so either reads a leaf at the same offsets of the same bytes.
//!
//! The division of labor: `dsidx-storage::snapshot` owns the *container*
//! (header, checksums, section table), `dsidx-tree::snapshot` owns the
//! *record layouts* (the flat tree's arrays), and this module is the glue
//! that knows which sections an index turns into and how to validate a
//! snapshot against the dataset it is being opened over. Every engine's
//! index is its flat tree, so every engine saves the same four sections
//! and opens them into the one flat form it queries; only the header's
//! engine id tells the files apart. Sections a snapshot carries beyond
//! those four (older ParIS files held a chunk column and a leaf store) are
//! ignored.
//!
//! [`MemoryIndex::save`]: crate::MemoryIndex::save
//! [`DiskIndex::open`]: crate::DiskIndex::open

use crate::engine::Engine;
use crate::error::Error;
use dsidx_storage::snapshot::SnapshotFingerprint;
use dsidx_storage::{Device, EntryRuns, SnapshotReader, SnapshotWriter, StorageError};
use dsidx_tree::snapshot::{decode_tree, encode, CodecError, TreeSections};
use dsidx_tree::{FlatTree, TreeConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Histogram of wall nanoseconds per snapshot save.
const SNAPSHOT_SAVE_NANOS: &str = "dsidx_snapshot_save_nanos";
/// Histogram of bytes written per snapshot save.
const SNAPSHOT_SAVE_BYTES: &str = "dsidx_snapshot_save_bytes";
/// Histogram of wall nanoseconds per snapshot open (the cold-start cost a
/// snapshot exists to shrink).
const SNAPSHOT_OPEN_NANOS: &str = "dsidx_snapshot_open_nanos";
/// Histogram of bytes read per snapshot open.
const SNAPSHOT_OPEN_BYTES: &str = "dsidx_snapshot_open_bytes";

// Section ids (1..=8 printable ASCII bytes, see the container docs).
// There is deliberately no SAX section: WORDS and POSITION already carry
// every (position, word) pair, and ADS+ and ParIS scan them as they are.
const SEC_NODES: &str = "NODES";
const SEC_ROOTS: &str = "ROOTS";
const SEC_WORDS: &str = "WORDS";
const SEC_POSITIONS: &str = "POSITION";

/// The engine discriminant stored in a snapshot header. Append-only: these
/// values are on disk, so renumbering is a format-version bump.
fn engine_id(engine: Engine) -> u8 {
    match engine {
        Engine::Ads => 0,
        Engine::Paris => 1,
        Engine::ParisPlus => 2,
        Engine::Messi => 3,
    }
}

fn engine_from_id(id: u8) -> Result<Engine, Error> {
    match id {
        0 => Ok(Engine::Ads),
        1 => Ok(Engine::Paris),
        2 => Ok(Engine::ParisPlus),
        3 => Ok(Engine::Messi),
        other => Err(corrupt(format!(
            "snapshot names unknown engine id {other} (file from a newer build?)"
        ))),
    }
}

fn corrupt(msg: String) -> Error {
    Error::Storage(StorageError::Corrupt(msg))
}

fn codec(e: CodecError) -> Error {
    corrupt(e.to_string())
}

/// Writes one engine index — its flat tree, with the configuration it was
/// built under — as a snapshot file, recorded under the
/// `dsidx_snapshot_save_*` metrics. Returns the file size; charging goes to
/// `device` as one sequential append.
pub(crate) fn save_snapshot(
    path: &Path,
    engine: Engine,
    tree: &FlatTree,
    device: &Arc<Device>,
) -> Result<u64, Error> {
    let start = Instant::now();
    let total = write_snapshot(path, engine, tree, device)?;
    record_snapshot_obs(
        SNAPSHOT_SAVE_NANOS,
        "Wall nanoseconds per index snapshot save",
        SNAPSHOT_SAVE_BYTES,
        "Bytes written per index snapshot save",
        start.elapsed(),
        total,
    );
    Ok(total)
}

/// Writes a built ParIS/ParIS+ tree at `path` as the snapshot
/// [`save_snapshot`] writes and returns its entry runs. The file is
/// reopened (header and table only: the sections were just written) and
/// unlinked whether or not that worked, so it lives exactly as long as the
/// runs.
pub(crate) fn hold_snapshot(
    path: &Path,
    engine: Engine,
    tree: &FlatTree,
    device: &Arc<Device>,
) -> Result<EntryRuns, Error> {
    write_snapshot(path, engine, tree, device)?;
    let held = SnapshotReader::open(path, Arc::clone(device));
    std::fs::remove_file(path).map_err(StorageError::from)?;
    Ok(entry_runs(held?, device))
}

/// The snapshot file behind both [`save_snapshot`] and [`hold_snapshot`].
fn write_snapshot(
    path: &Path,
    engine: Engine,
    tree: &FlatTree,
    device: &Arc<Device>,
) -> Result<u64, Error> {
    let config = tree.config();
    let fingerprint = SnapshotFingerprint {
        engine: engine_id(engine),
        segments: config.segments() as u8,
        root_segments: config.root_segments() as u8,
        series_len: u32::try_from(config.series_len()).expect("series_len fits u32"),
        count: tree.entry_count() as u64,
        leaf_capacity: config.leaf_capacity() as u64,
    };
    let mut writer = SnapshotWriter::new(path, fingerprint, Arc::clone(device));
    let sections = encode(tree);
    writer.section(SEC_NODES, sections.nodes);
    writer.section(SEC_ROOTS, sections.roots);
    writer.section(SEC_WORDS, sections.words);
    writer.section(SEC_POSITIONS, sections.positions);
    Ok(writer.finish()?)
}

/// The tree's entry runs in place: the `WORDS` and `POSITION` sections of
/// the snapshot `reader` opened — one this module wrote or decoded — read
/// through its file handle and charged to `device`.
fn entry_runs(reader: SnapshotReader, device: &Arc<Device>) -> EntryRuns {
    let at = |id| reader.section_range(id).expect("a tree snapshot").0;
    let (words_at, positions_at) = (at(SEC_WORDS), at(SEC_POSITIONS));
    let segments = usize::from(reader.fingerprint().segments);
    EntryRuns::new(
        reader.into_file(),
        words_at,
        positions_at,
        segments,
        Arc::clone(device),
    )
}

/// Everything an opened snapshot reconstitutes.
pub(crate) struct SnapshotContents {
    pub engine: Engine,
    /// The decoded tree, under the geometry from the fingerprint — the
    /// opener overrides its [`Options`](crate::Options) with it so
    /// query-time configs match the snapshot, not the caller's (possibly
    /// different) defaults.
    pub tree: FlatTree,
}

/// Opens, validates and decodes a snapshot against the dataset it will
/// answer for. No tree construction happens: the sections *are* the flat
/// tree, read back in one pass each and checked.
///
/// Also returns the tree's entry runs in place — its `WORDS` and
/// `POSITION` sections, already checksum-verified, through the file handle
/// the open read them with — which an on-disk ParIS index reads leaves
/// back from.
///
/// All reads are charged to `device`; the open is recorded under the
/// `dsidx_snapshot_open_*` metrics and a `snapshot_open` trace event.
pub(crate) fn open_snapshot(
    path: &Path,
    device: &Arc<Device>,
    expect_series_len: usize,
    expect_count: usize,
) -> Result<(SnapshotContents, EntryRuns), Error> {
    let start = Instant::now();
    let read_before = device.stats().bytes_read;
    let reader = SnapshotReader::open(path, Arc::clone(device))?;
    let fp = *reader.fingerprint();
    let engine = engine_from_id(fp.engine)?;
    if fp.series_len as usize != expect_series_len || fp.count != expect_count as u64 {
        return Err(corrupt(format!(
            "snapshot fingerprint mismatch: saved over {} series of length {}, opened against \
             {expect_count} of length {expect_series_len} — is this the right dataset?",
            fp.count, fp.series_len,
        )));
    }
    let segments = usize::from(fp.segments);
    let leaf_capacity = usize::try_from(fp.leaf_capacity).expect("leaf capacity fits usize");
    if leaf_capacity == 0 {
        return Err(corrupt("snapshot fingerprint has leaf capacity 0".into()));
    }
    // TreeConfig re-validates the geometry (segment bounds, series_len vs
    // segments), so corrupt fingerprint fields surface as configuration
    // errors here rather than panics later. The root fan-out is derived
    // from the same count and capacity the builder saw, never taken from
    // the file: a recorded value that disagrees names a tree of another
    // shape than the one the sections can hold.
    let config =
        TreeConfig::new(expect_series_len, segments, leaf_capacity)?.fitted_to(expect_count);
    if usize::from(fp.root_segments) != config.root_segments() {
        return Err(corrupt(format!(
            "snapshot fingerprint records a root key over {} segments; {expect_count} series in \
             leaves of {leaf_capacity} key it over {}",
            fp.root_segments,
            config.root_segments(),
        )));
    }
    let sections = TreeSections {
        nodes: reader.read_section(SEC_NODES)?,
        roots: reader.read_section(SEC_ROOTS)?,
        words: reader.read_section(SEC_WORDS)?,
        positions: reader.read_section(SEC_POSITIONS)?,
    };
    let tree = decode_tree(config, expect_count, &sections).map_err(codec)?;
    let runs = entry_runs(reader, device);
    let elapsed = start.elapsed();
    let bytes = device.stats().bytes_read - read_before;
    record_snapshot_obs(
        SNAPSHOT_OPEN_NANOS,
        "Wall nanoseconds per index snapshot open",
        SNAPSHOT_OPEN_BYTES,
        "Bytes read per index snapshot open",
        elapsed,
        bytes,
    );
    if dsidx_obs::trace::enabled() {
        use dsidx_obs::trace::Value;
        dsidx_obs::trace::emit(
            "snapshot_open",
            &[
                ("engine", Value::Str(engine.name())),
                ("bytes", Value::U64(bytes)),
                (
                    "nanos",
                    Value::U64(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)),
                ),
            ],
        );
    }
    Ok((SnapshotContents { engine, tree }, runs))
}

fn record_snapshot_obs(
    nanos_metric: &'static str,
    nanos_help: &'static str,
    bytes_metric: &'static str,
    bytes_help: &'static str,
    elapsed: std::time::Duration,
    bytes: u64,
) {
    if !dsidx_obs::enabled() {
        return;
    }
    // 1us .. ~4s saves/opens; 1KiB .. ~4GiB files.
    let nanos_bounds = dsidx_obs::registry::exponential_bounds(1_000, 4, 12);
    let bytes_bounds = dsidx_obs::registry::exponential_bounds(1_024, 4, 12);
    dsidx_obs::registry::histogram(nanos_metric, nanos_help, &nanos_bounds)
        .observe(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    dsidx_obs::registry::histogram(bytes_metric, bytes_help, &bytes_bounds).observe(bytes);
}
