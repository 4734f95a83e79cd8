//! The persistent index snapshot container: a versioned, checksummed,
//! section-aligned single-file format.
//!
//! A snapshot is how a built index survives the process that built it:
//! `save` writes one, a later process `open`s it in milliseconds instead
//! of re-running a full tree construction. This module owns only the
//! *container* — header, fingerprint, section table, checksums; what goes
//! *in* the sections (the flat tree's arrays) is the caller's business
//! (`dsidx-tree::snapshot` defines those layouts).
//!
//! # File layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "DSIDXSN1"
//! 8       4     format version (currently 3)
//! 12      4     section count
//! 16      1     engine id          \
//! 17      1     segments            |  the fingerprint: enough to refuse
//! 18      1     root segments       |  opening a snapshot against the
//! 19      1     reserved            |  wrong dataset or the wrong engine
//! 20      4     series length       |  before touching any section
//! 24      8     series count        |
//! 32      8     leaf capacity      /
//! 40      16    reserved
//! 56      8     checksum64 of bytes 0..56 ++ the section table
//! 64      32*n  section table: (id [8, ASCII], offset u64, len u64,
//!               checksum64 u64) per section
//! ...           section payloads, each aligned to a 64-byte boundary,
//!               zero-padded between; the file ends at the last payload
//!               byte (no tail padding), and the reader rejects any
//!               other length
//! ```
//!
//! Every byte of the file is covered by exactly one checksum: the header
//! and table by the header checksum, each section payload by its table
//! entry (padding is written as zeros and not covered — it carries no
//! information). `checksum64` is 64-bit FNV-1a folded over four
//! independent 8-byte-word lanes — fast enough to verify every section
//! on the open path. A flipped byte
//! anywhere that matters is therefore a structured
//! [`StorageError::ChecksumMismatch`], never a silently wrong index.
//!
//! # Versioning policy
//!
//! The version is a single gate: a reader refuses anything but its own
//! version ([`StorageError::BadVersion`]). Compatible evolution happens
//! *within* a version by adding sections (readers ignore ids they don't
//! know) and by the reserved header ranges, which writers must zero.
//! Anything else — record layout changes, checksum changes — bumps the
//! version, and old snapshots are rebuilt from raw data (builds are fast;
//! that is this codebase's whole point). Version 2 did exactly that: the
//! tree's root fan-out stopped being implied by `segments` (the
//! fingerprint's `root segments` byte records it, node words may carry
//! zero-bit segments), so a version-1 file is refused by number. Version 3
//! replaced the boxed tree's 48-byte node records with the flat tree's own
//! arrays, so a version-2 file is refused the same way.
//!
//! # Saving over a file
//!
//! [`SnapshotWriter::finish`] writes a temporary sibling of the target and
//! moves it into the target's place only once every byte is written: the
//! old file is unlinked and the new one renamed to its name. An index
//! opened from the old file keeps reading it through its open handle (a
//! ParIS leaf is read back from the entry runs inside its snapshot), and a
//! process that dies while writing leaves the previous snapshot whole; one
//! that dies in the instant between the unlink and the rename leaves the
//! new snapshot, complete, under its temporary name. It is not one rename over
//! the target because ext4 then writes the new file back immediately
//! (`auto_da_alloc`), and replacing that file at the next save costs ~2 ms
//! more per 4 MB than rewriting a file in place. Nothing is
//! fsynced: no promise is made against the loss of power.

use crate::device::Device;
use crate::error::StorageError;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: [u8; 8] = *b"DSIDXSN1";
/// The snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 3;
const HEADER_LEN: u64 = 64;
const TABLE_ENTRY_LEN: u64 = 32;
/// Section payloads start on multiples of this (a typical sector /
/// cache-line friendly boundary, and what a future mmap path would want).
pub const SECTION_ALIGN: u64 = 64;
/// Hard cap on sections — far above any real snapshot, so a corrupt count
/// can't drive a huge allocation before the checksum check.
const MAX_SECTIONS: u32 = 64;

/// The engine/geometry identity baked into a snapshot's header.
///
/// `open` compares this against the dataset and options it is handed and
/// refuses mismatches up front — the alternative is an index that answers
/// queries about the wrong data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotFingerprint {
    /// Engine discriminant (the facade defines the mapping).
    pub engine: u8,
    /// iSAX segments per word.
    pub segments: u8,
    /// How many of them the tree's root key covers (derived from `count`
    /// and `leaf_capacity` at build time; recorded so an opener can tell a
    /// tree of another shape from its own).
    pub root_segments: u8,
    /// Points per series.
    pub series_len: u32,
    /// Number of series the index covers.
    pub count: u64,
    /// Leaf capacity the tree was built with.
    pub leaf_capacity: u64,
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Bytes per checksum block: four independent 8-byte FNV lanes.
const LANES: usize = 4;
const BLOCK: usize = LANES * 8;

#[inline]
fn fold_block(lanes: &mut [u64; LANES], block: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        let word = u64::from_le_bytes(word.try_into().expect("slice of 8"));
        *lane = (*lane ^ word).wrapping_mul(FNV_PRIME);
    }
}

/// 64-bit FNV-1a restructured for the cold-start open path, which hashes
/// every section of a multi-megabyte snapshot: the stream is folded in
/// 32-byte blocks across four independent 8-byte-word FNV lanes (breaking
/// the one-multiply-per-byte dependency chain of textbook FNV-1a, ~20×
/// throughput), then the lanes are chained into one digest and trailing
/// bytes are absorbed byte-at-a-time. The properties that matter here
/// survive: dependency-free, and every fold is an xor followed by an
/// odd-prime multiply — a bijection — so no byte flip can cancel. It is an
/// integrity check, not an adversarial defense; an attacker who can
/// rewrite the file can rewrite the hash.
///
/// The digest depends only on the concatenated byte stream, never on how
/// it is split across `chunks` (partial blocks are carried over).
fn checksum64(chunks: &[&[u8]]) -> u64 {
    // Distinct lane seeds, so blocks with permuted words don't collide.
    let mut lanes = [0u64; LANES];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = FNV_BASIS.wrapping_add(i as u64);
    }
    let mut pending = [0u8; BLOCK];
    let mut pending_len = 0usize;
    for chunk in chunks {
        let mut rest = *chunk;
        if pending_len > 0 {
            let take = (BLOCK - pending_len).min(rest.len());
            pending[pending_len..pending_len + take].copy_from_slice(&rest[..take]);
            pending_len += take;
            rest = &rest[take..];
            if pending_len < BLOCK {
                // The chunk ran out before completing the block; the next
                // chunk (or the final tail pass) picks it up.
                continue;
            }
            fold_block(&mut lanes, &pending);
            // No reset needed: the unconditional tail assignment below
            // overwrites `pending_len` this same iteration.
        }
        let mut blocks = rest.chunks_exact(BLOCK);
        for block in &mut blocks {
            fold_block(&mut lanes, block);
        }
        let tail = blocks.remainder();
        pending[..tail.len()].copy_from_slice(tail);
        pending_len = tail.len();
    }
    let mut hash = FNV_BASIS;
    for lane in lanes {
        hash = (hash ^ lane).wrapping_mul(FNV_PRIME);
    }
    for &byte in &pending[..pending_len] {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A hidden sibling of `path`, unique to this process and save.
fn temp_sibling(path: &Path) -> PathBuf {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    path.with_file_name(format!(".{name}.{}.tmp", crate::unique_stem()))
}

fn align_up(offset: u64) -> u64 {
    offset.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

fn encode_id(id: &str) -> [u8; 8] {
    assert!(
        !id.is_empty() && id.len() <= 8 && id.bytes().all(|b| b.is_ascii_graphic()),
        "section id must be 1..=8 printable ASCII bytes, got {id:?}"
    );
    let mut out = [0u8; 8];
    out[..id.len()].copy_from_slice(id.as_bytes());
    out
}

fn decode_id(bytes: &[u8; 8]) -> Result<String, StorageError> {
    let end = bytes.iter().position(|&b| b == 0).unwrap_or(8);
    if end == 0
        || !bytes[..end].iter().all(u8::is_ascii_graphic)
        || bytes[end..].iter().any(|&b| b != 0)
    {
        return Err(StorageError::Corrupt(format!(
            "malformed section id {bytes:?} in snapshot table"
        )));
    }
    Ok(String::from_utf8(bytes[..end].to_vec()).expect("ASCII is UTF-8"))
}

/// Accumulates sections, then writes the whole snapshot in one sequential
/// pass ([`SnapshotWriter::finish`]).
///
/// Sections are buffered in memory: a snapshot is the same order of size
/// as the index it serializes, which this codebase keeps resident anyway.
/// (Streaming section writes are the scale follow-up, alongside mmap
/// opens.)
#[derive(Debug)]
pub struct SnapshotWriter {
    path: PathBuf,
    device: Arc<Device>,
    fingerprint: SnapshotFingerprint,
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Starts a snapshot for the given identity. Nothing is written until
    /// [`finish`](SnapshotWriter::finish).
    #[must_use]
    pub fn new(path: &Path, fingerprint: SnapshotFingerprint, device: Arc<Device>) -> Self {
        Self {
            path: path.to_path_buf(),
            device,
            fingerprint,
            sections: Vec::new(),
        }
    }

    /// Adds a section.
    ///
    /// # Panics
    /// Panics on a malformed or duplicate id — section sets are static
    /// per engine, so either is a programming error, not a data error.
    pub fn section(&mut self, id: &str, bytes: Vec<u8>) {
        let _ = encode_id(id);
        assert!(
            self.sections.iter().all(|(existing, _)| existing != id),
            "duplicate snapshot section {id:?}"
        );
        assert!(
            self.sections.len() < MAX_SECTIONS as usize,
            "too many snapshot sections"
        );
        self.sections.push((id.to_string(), bytes));
    }

    /// Writes the file: header, section table, aligned payloads — one
    /// sequential pass into a temporary sibling, charged to the device as
    /// appends, then moved into the target's place (see the module docs).
    /// Returns the total file size in bytes.
    ///
    /// # Errors
    /// I/O failures; the temporary file is removed and the target left as
    /// it was.
    pub fn finish(self) -> Result<u64, StorageError> {
        let n = self.sections.len() as u64;
        let table_len = n * TABLE_ENTRY_LEN;
        let mut table = Vec::with_capacity(table_len as usize);
        let mut offset = align_up(HEADER_LEN + table_len);
        for (id, bytes) in &self.sections {
            table.extend_from_slice(&encode_id(id));
            table.extend_from_slice(&offset.to_le_bytes());
            table.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            table.extend_from_slice(&checksum64(&[bytes]).to_le_bytes());
            offset = align_up(offset + bytes.len() as u64);
        }

        let mut header = [0u8; HEADER_LEN as usize];
        header[0..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(n as u32).to_le_bytes());
        let fp = &self.fingerprint;
        header[16] = fp.engine;
        header[17] = fp.segments;
        header[18] = fp.root_segments;
        header[20..24].copy_from_slice(&fp.series_len.to_le_bytes());
        header[24..32].copy_from_slice(&fp.count.to_le_bytes());
        header[32..40].copy_from_slice(&fp.leaf_capacity.to_le_bytes());
        let head_sum = checksum64(&[&header[..56], &table]);
        header[56..64].copy_from_slice(&head_sum.to_le_bytes());

        let temp = temp_sibling(&self.path);
        let unwritten = |e| {
            // Best effort: the create itself may be what failed.
            let _ = std::fs::remove_file(&temp);
            e
        };
        let written = self.write_to(&temp, &header, &table).map_err(unwritten)?;
        match std::fs::remove_file(&self.path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(unwritten(e.into())),
            // Once the old file is gone the new one stays, whatever the
            // rename says (see the module docs).
            _ => std::fs::rename(&temp, &self.path)?,
        }
        self.device.charge_append(written);
        Ok(written)
    }

    /// Writes the whole file at `path`; returns its length.
    fn write_to(&self, path: &Path, header: &[u8], table: &[u8]) -> Result<u64, StorageError> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(header)?;
        out.write_all(table)?;
        let mut written = HEADER_LEN + table.len() as u64;
        for (_, bytes) in &self.sections {
            // Zero-length sections write nothing — padding up to their
            // (aligned) table offset would be uncheckable tail bytes if
            // they come last.
            if bytes.is_empty() {
                continue;
            }
            let aligned = align_up(written);
            out.write_all(&vec![0u8; (aligned - written) as usize])?;
            out.write_all(bytes)?;
            written = aligned + bytes.len() as u64;
        }
        // No padding after the final payload: the file ends on a
        // checksummed byte, so truncating or flipping the tail is always
        // detectable (and the reader enforces the exact length the table
        // implies).
        out.flush()?;
        Ok(written)
    }
}

#[derive(Debug, Clone)]
struct SectionEntry {
    id: String,
    offset: u64,
    len: u64,
    checksum: u64,
}

/// An opened snapshot: validated header + section table, sections read on
/// demand with checksum verification.
#[derive(Debug)]
pub struct SnapshotReader {
    file: File,
    device: Arc<Device>,
    fingerprint: SnapshotFingerprint,
    sections: Vec<SectionEntry>,
    total_len: u64,
    /// End of the last charged read — when the next section starts within
    /// one alignment unit of it, the gap is just padding and the read is
    /// charged as a sequential continuation (padding bytes included),
    /// matching what a physical sequential scan of the file would do. A
    /// cold-start open reads sections in file order, so this keeps the
    /// device model from billing a full seek per 64-byte alignment gap.
    read_cursor: std::sync::atomic::AtomicU64,
}

impl SnapshotReader {
    /// Opens and validates a snapshot: magic, version, header/table
    /// checksum, and section bounds. Section payloads are *not* read yet.
    ///
    /// # Errors
    /// [`StorageError::BadMagic`] for foreign files,
    /// [`StorageError::BadVersion`] for other format versions,
    /// [`StorageError::ChecksumMismatch`]/[`StorageError::Corrupt`] for
    /// damaged files, and I/O failures.
    pub fn open(path: &Path, device: Arc<Device>) -> Result<Self, StorageError> {
        let file = File::open(path)?;
        let total_len = file.metadata()?.len();
        let mut header = [0u8; HEADER_LEN as usize];
        device.charge_read(0, HEADER_LEN);
        file.read_exact_at(&mut header, 0).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StorageError::Corrupt(format!(
                    "snapshot is {total_len} bytes, shorter than its {HEADER_LEN}-byte header"
                ))
            } else {
                StorageError::Io(e)
            }
        })?;
        if header[0..8] != MAGIC {
            return Err(StorageError::BadMagic);
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("slice of 4"));
        if version != SNAPSHOT_VERSION {
            return Err(StorageError::BadVersion(version));
        }
        let n = u32::from_le_bytes(header[12..16].try_into().expect("slice of 4"));
        if n > MAX_SECTIONS {
            return Err(StorageError::Corrupt(format!(
                "snapshot claims {n} sections (limit {MAX_SECTIONS})"
            )));
        }
        let table_len = u64::from(n) * TABLE_ENTRY_LEN;
        let mut table = vec![0u8; table_len as usize];
        device.charge_read(HEADER_LEN, table_len);
        file.read_exact_at(&mut table, HEADER_LEN).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StorageError::Corrupt("snapshot truncated inside its section table".into())
            } else {
                StorageError::Io(e)
            }
        })?;
        let stored = u64::from_le_bytes(header[56..64].try_into().expect("slice of 8"));
        let computed = checksum64(&[&header[..56], &table]);
        if stored != computed {
            return Err(StorageError::ChecksumMismatch {
                section: "header".into(),
                stored,
                computed,
            });
        }
        let fingerprint = SnapshotFingerprint {
            engine: header[16],
            segments: header[17],
            root_segments: header[18],
            series_len: u32::from_le_bytes(header[20..24].try_into().expect("slice of 4")),
            count: u64::from_le_bytes(header[24..32].try_into().expect("slice of 8")),
            leaf_capacity: u64::from_le_bytes(header[32..40].try_into().expect("slice of 8")),
        };
        let mut sections = Vec::with_capacity(n as usize);
        for entry in table.chunks_exact(TABLE_ENTRY_LEN as usize) {
            let id = decode_id(entry[0..8].try_into().expect("slice of 8"))?;
            let offset = u64::from_le_bytes(entry[8..16].try_into().expect("slice of 8"));
            let len = u64::from_le_bytes(entry[16..24].try_into().expect("slice of 8"));
            let checksum = u64::from_le_bytes(entry[24..32].try_into().expect("slice of 8"));
            if offset % SECTION_ALIGN != 0 {
                return Err(StorageError::Corrupt(format!(
                    "section `{id}` at unaligned offset {offset}"
                )));
            }
            // A zero-length section reads nothing, but its (aligned)
            // offset may legitimately sit just past the end of a file
            // whose last payload byte is unaligned — bound it loosely;
            // payload-bearing sections must fit entirely.
            let fits = if len == 0 {
                offset <= align_up(total_len)
            } else {
                offset.checked_add(len).is_some_and(|end| end <= total_len)
            };
            if !fits {
                return Err(StorageError::Corrupt(format!(
                    "section `{id}` spans bytes {offset}..{offset}+{len}, past the \
                     {total_len}-byte file (truncated?)"
                )));
            }
            if sections.iter().any(|s: &SectionEntry| s.id == id) {
                return Err(StorageError::Corrupt(format!("duplicate section `{id}`")));
            }
            sections.push(SectionEntry {
                id,
                offset,
                len,
                checksum,
            });
        }
        // The file must end exactly where the table says the last payload
        // byte is — the table is covered by the header checksum, so this
        // catches tail truncation *and* appended garbage, neither of which
        // any section checksum would see.
        let expected_len = sections
            .iter()
            .filter(|s| s.len > 0)
            .map(|s| s.offset + s.len)
            .max()
            .unwrap_or(HEADER_LEN + table_len);
        if total_len != expected_len {
            return Err(StorageError::Corrupt(format!(
                "snapshot is {total_len} bytes but its section table accounts for \
                 {expected_len} (truncated or trailing garbage?)"
            )));
        }
        Ok(Self {
            file,
            device,
            fingerprint,
            sections,
            total_len,
            read_cursor: std::sync::atomic::AtomicU64::new(HEADER_LEN + table_len),
        })
    }

    /// The identity the snapshot was saved with.
    #[must_use]
    pub fn fingerprint(&self) -> &SnapshotFingerprint {
        &self.fingerprint
    }

    /// Total file size in bytes.
    #[must_use]
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Whether a section is present (sections a reader does not know are
    /// ignored).
    #[must_use]
    pub fn has_section(&self, id: &str) -> bool {
        self.sections.iter().any(|s| s.id == id)
    }

    /// The `(offset, len)` of a section's payload within the file, for
    /// callers that read it in place (a ParIS leaf from the entry runs).
    #[must_use]
    pub fn section_range(&self, id: &str) -> Option<(u64, u64)> {
        self.sections
            .iter()
            .find(|s| s.id == id)
            .map(|s| (s.offset, s.len))
    }

    /// Reads and checksum-verifies a section's payload.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] if the section is absent,
    /// [`StorageError::ChecksumMismatch`] if its bytes changed since they
    /// were written, and I/O failures.
    pub fn read_section(&self, id: &str) -> Result<Vec<u8>, StorageError> {
        let entry = self
            .sections
            .iter()
            .find(|s| s.id == id)
            .ok_or_else(|| StorageError::Corrupt(format!("snapshot has no `{id}` section")))?;
        let mut bytes = vec![0u8; entry.len as usize];
        // ORDERING: the cursor is a bookkeeping aid for the device model,
        // not a synchronization point — Relaxed suffices; sections are
        // read from one thread during open.
        let cursor = self.read_cursor.swap(
            entry.offset + entry.len,
            std::sync::atomic::Ordering::Relaxed,
        );
        if entry.offset >= cursor && entry.offset - cursor < SECTION_ALIGN {
            // The gap is pure alignment padding: a sequential scan reads
            // straight through it, so charge one contiguous read (padding
            // included) rather than a seek per section.
            self.device
                .charge_read(cursor, (entry.offset - cursor) + entry.len);
        } else {
            self.device.charge_read(entry.offset, entry.len);
        }
        self.file.read_exact_at(&mut bytes, entry.offset)?;
        let computed = checksum64(&[&bytes]);
        if computed != entry.checksum {
            return Err(StorageError::ChecksumMismatch {
                section: id.to_string(),
                stored: entry.checksum,
                computed,
            });
        }
        Ok(bytes)
    }

    /// The device snapshot reads are charged to.
    #[must_use]
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// The open snapshot file, for reading sections in place after the
    /// open (see [`section_range`](Self::section_range)). It stays the
    /// file that was opened even if its path is saved over.
    #[must_use]
    pub fn into_file(self) -> File {
        self.file
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dsidx-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn dev() -> Arc<Device> {
        Arc::new(Device::unthrottled())
    }

    fn fp() -> SnapshotFingerprint {
        SnapshotFingerprint {
            engine: 3,
            segments: 16,
            root_segments: 4,
            series_len: 256,
            count: 1000,
            leaf_capacity: 100,
        }
    }

    fn write_sample(path: &Path) -> u64 {
        let mut w = SnapshotWriter::new(path, fp(), dev());
        w.section("NODES", (0u8..200).collect());
        w.section("SAX", vec![7u8; 777]);
        w.section("EMPTY", Vec::new());
        w.finish().unwrap()
    }

    #[test]
    fn checksum64_depends_only_on_the_byte_stream() {
        // Chunk boundaries never matter — full blocks, partial blocks, and
        // blocks spanning three chunks all fold identically.
        let stream: Vec<u8> = (0u8..=255).cycle().take(1001).collect();
        let whole = checksum64(&[&stream]);
        for split in [1usize, 7, 8, 9, 31, 32, 33, 63, 64, 500, 1000] {
            let (a, b) = stream.split_at(split);
            assert_eq!(checksum64(&[a, b]), whole, "split at {split}");
            let (c, d) = b.split_at((b.len() / 3).max(1));
            assert_eq!(checksum64(&[a, c, d]), whole, "three chunks at {split}");
        }
        // Any single byte flip changes the digest, word-aligned or not.
        for at in [0usize, 3, 8, 15, 998, 1000] {
            let mut bad = stream.clone();
            bad[at] ^= 0x01;
            assert_ne!(checksum64(&[&bad]), whole, "flip at {at}");
        }
    }

    #[test]
    fn round_trips_sections_and_fingerprint() {
        let path = tmp("round.snap");
        let total = write_sample(&path);
        assert_eq!(total, std::fs::metadata(&path).unwrap().len());
        let r = SnapshotReader::open(&path, dev()).unwrap();
        assert_eq!(r.fingerprint(), &fp());
        assert_eq!(r.total_len(), total);
        assert_eq!(
            r.read_section("NODES").unwrap(),
            (0u8..200).collect::<Vec<_>>()
        );
        assert_eq!(r.read_section("SAX").unwrap(), vec![7u8; 777]);
        assert!(r.read_section("EMPTY").unwrap().is_empty());
        assert!(r.has_section("SAX") && !r.has_section("LEAF"));
        let (off, len) = r.section_range("SAX").unwrap();
        assert_eq!(off % SECTION_ALIGN, 0);
        assert_eq!(len, 777);
        let missing = r.read_section("LEAF").unwrap_err();
        assert!(missing.to_string().contains("no `LEAF` section"));
    }

    #[test]
    fn reads_are_charged_to_the_device() {
        let path = tmp("charged.snap");
        write_sample(&path);
        // A throttled profile, so sequential-vs-seek accounting is live
        // (the unthrottled device skips it). The payloads are tiny, so the
        // modeled delays stay in the microsecond debt window.
        let device = Arc::new(Device::new(crate::DeviceProfile::SSD));
        let r = SnapshotReader::open(&path, Arc::clone(&device)).unwrap();
        let after_open = device.stats().bytes_read;
        assert_eq!(after_open, HEADER_LEN + 3 * TABLE_ENTRY_LEN);
        // Sections read in file order charge one contiguous stream —
        // alignment padding included, and never a seek: header at 0, table
        // at 64, then each padded section picks up where the last read
        // ended. NODES sits at align_up(160) = 192 (32 padding bytes) and
        // SAX at align_up(192 + 200) = 448 (56 padding bytes).
        r.read_section("NODES").unwrap();
        assert_eq!(device.stats().bytes_read, after_open + 32 + 200);
        r.read_section("SAX").unwrap();
        assert_eq!(device.stats().bytes_read, after_open + 32 + 200 + 56 + 777);
        // One seek total: the initial positioning to offset 0. Everything
        // after is one sequential scan.
        assert_eq!(
            device.stats().seeks,
            1,
            "a cold-start open is one sequential scan"
        );
        // An out-of-order re-read is *not* sequential: it charges exactly
        // the payload, and pays a real seek.
        r.read_section("NODES").unwrap();
        assert_eq!(
            device.stats().bytes_read,
            after_open + 32 + 200 + 56 + 777 + 200
        );
        assert_eq!(device.stats().seeks, 2);
    }

    #[test]
    fn foreign_and_future_files_are_refused() {
        let path = tmp("foreign.snap");
        std::fs::write(&path, vec![0x42u8; 128]).unwrap();
        assert!(matches!(
            SnapshotReader::open(&path, dev()),
            Err(StorageError::BadMagic)
        ));
        // A valid file with a bumped version: BadVersion, not a checksum
        // error — the version gate comes first so the message is clear.
        let path = tmp("future.snap");
        write_sample(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        for version in [9u32, 2, 1] {
            // (1 is the format before root keys were fitted to the
            // collection, 2 the one with boxed-tree node records: both
            // refused by number, rebuilt from raw data.)
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            match SnapshotReader::open(&path, dev()) {
                Err(StorageError::BadVersion(v)) if v == version => {}
                other => panic!("expected BadVersion({version}), got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_is_structured() {
        let path = tmp("trunc.snap");
        write_sample(&path);
        let full = std::fs::read(&path).unwrap();
        // Truncated inside the last section: table validation catches it.
        std::fs::write(&path, &full[..full.len() - 40]).unwrap();
        match SnapshotReader::open(&path, dev()) {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains("truncated"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Truncated inside the header.
        std::fs::write(&path, &full[..30]).unwrap();
        assert!(matches!(
            SnapshotReader::open(&path, dev()),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn every_meaningful_byte_flip_is_caught() {
        let path = tmp("flip.snap");
        write_sample(&path);
        let good = std::fs::read(&path).unwrap();
        for i in 0..good.len() {
            let mut bytes = good.clone();
            bytes[i] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            let outcome = SnapshotReader::open(&path, dev()).and_then(|r| {
                for id in ["NODES", "SAX", "EMPTY"] {
                    let _ = r.read_section(id)?;
                }
                Ok(())
            });
            if outcome.is_ok() {
                // Only inter-section alignment padding is uncovered; it
                // carries no data.
                let original = good[i];
                assert_eq!(original, 0, "undetected flip of data byte at {i}");
            }
        }
        std::fs::write(&path, &good).unwrap();
    }

    #[test]
    fn a_save_that_cannot_create_its_temporary_file_leaves_the_target_alone() {
        // The longest name a file system takes: the target exists, and
        // any longer sibling name cannot be created.
        let path = tmp(&"s".repeat(255));
        std::fs::write(&path, b"the previous snapshot").unwrap();
        let mut w = SnapshotWriter::new(&path, fp(), dev());
        w.section("NODES", vec![1u8; 100]);
        assert!(w.finish().is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"the previous snapshot");
    }

    #[test]
    #[should_panic(expected = "duplicate snapshot section")]
    fn duplicate_section_ids_panic() {
        let mut w = SnapshotWriter::new(&tmp("dup.snap"), fp(), dev());
        w.section("A", vec![]);
        w.section("A", vec![]);
    }

    #[test]
    #[should_panic(expected = "section id")]
    fn overlong_section_ids_panic() {
        let mut w = SnapshotWriter::new(&tmp("longid.snap"), fp(), dev());
        w.section("WAYTOOLONGID", vec![]);
    }
}
