//! The leaf store: where ParIS/ParIS+ materialize subtree leaves.
//!
//! During on-disk index construction, finished subtrees flush their leaf
//! contents — `(iSAX word, raw-series position)` records — to this
//! append-only file "to free space in main memory" (§III). At query time
//! the approximate-answer descent reads one leaf back.
//!
//! File layout: 16-byte header (`magic`, `segments`), then fixed-size
//! records of `segments + 4` bytes (symbols, position u32 LE).

use crate::device::Device;
use crate::error::StorageError;
use dsidx_isax::Word;
use parking_lot::Mutex;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

const MAGIC: [u8; 8] = *b"DSIDXLF1";
const HEADER_LEN: u64 = 16;

/// Locates a flushed leaf inside the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafHandle {
    /// Byte offset of the first record.
    pub offset: u64,
    /// Number of records.
    pub count: u32,
}

/// Append side of the leaf store (used by IndexConstruction workers).
#[derive(Debug)]
pub struct LeafStoreWriter {
    inner: Mutex<WriterInner>,
    device: Arc<Device>,
    segments: usize,
    path: std::path::PathBuf,
}

#[derive(Debug)]
struct WriterInner {
    out: BufWriter<File>,
    next_offset: u64,
}

impl LeafStoreWriter {
    /// Creates/truncates a leaf store for words of `segments` segments.
    ///
    /// # Errors
    /// I/O failures; `segments` must be in `1..=16`.
    pub fn create(path: &Path, segments: usize, device: Arc<Device>) -> Result<Self, StorageError> {
        if segments == 0 || segments > dsidx_isax::MAX_SEGMENTS {
            return Err(StorageError::Corrupt(format!(
                "bad segment count {segments}"
            )));
        }
        let mut out = BufWriter::new(File::create(path)?);
        let mut header = [0u8; HEADER_LEN as usize];
        header[0..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&(segments as u32).to_le_bytes());
        out.write_all(&header)?;
        Ok(Self {
            inner: Mutex::new(WriterInner {
                out,
                next_offset: HEADER_LEN,
            }),
            device,
            segments,
            path: path.to_path_buf(),
        })
    }

    /// Appends one leaf's records; thread-safe. Returns where they landed.
    ///
    /// # Errors
    /// I/O failures.
    pub fn append(&self, entries: &[(Word, u32)]) -> Result<LeafHandle, StorageError> {
        let record = self.segments + 4;
        let mut buf = Vec::with_capacity(entries.len() * record);
        for (word, pos) in entries {
            debug_assert_eq!(word.segments(), self.segments);
            buf.extend_from_slice(word.symbols());
            buf.extend_from_slice(&pos.to_le_bytes());
        }
        let mut inner = self.inner.lock();
        let offset = inner.next_offset;
        inner.out.write_all(&buf)?;
        inner.next_offset += buf.len() as u64;
        drop(inner);
        // The store is append-only, so flushes are sequential writes: charge
        // bandwidth, not a seek per leaf (thousands of leaves per
        // generation would otherwise cost thousands of head movements that
        // a real append-only writer never makes).
        self.device.charge_append(buf.len() as u64);
        Ok(LeafHandle {
            offset,
            count: entries.len() as u32,
        })
    }

    /// Flushes and reopens the store for reading.
    ///
    /// # Errors
    /// I/O failures.
    pub fn finish(self) -> Result<LeafStoreReader, StorageError> {
        let inner = self.inner.into_inner();
        let mut out = inner.out;
        out.flush()?;
        drop(out);
        LeafStoreReader::open(&self.path, self.device)
    }
}

/// Read side of the leaf store (used by query answering).
///
/// The store may live in its own file (`base == 0`) or be embedded inside
/// a larger one — an index snapshot carries the whole store as one section
/// — in which case every stored offset is relative to `base`.
#[derive(Debug)]
pub struct LeafStoreReader {
    file: File,
    device: Arc<Device>,
    segments: usize,
    /// Byte position of the store's header within `file`.
    base: u64,
    /// Bytes of the store, header included.
    len: u64,
}

impl LeafStoreReader {
    /// Opens an existing leaf store file.
    ///
    /// # Errors
    /// Format violations and I/O failures.
    pub fn open(path: &Path, device: Arc<Device>) -> Result<Self, StorageError> {
        Self::open_within(path, 0, device)
    }

    /// Opens a leaf store embedded at byte `base` of a larger file (an
    /// index snapshot). [`LeafHandle`] offsets stay store-relative; reads
    /// add `base`.
    ///
    /// # Errors
    /// Format violations and I/O failures.
    pub fn open_within(path: &Path, base: u64, device: Arc<Device>) -> Result<Self, StorageError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len().saturating_sub(base);
        let mut header = [0u8; HEADER_LEN as usize];
        device.charge_read(base, HEADER_LEN);
        file.read_exact_at(&mut header, base).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StorageError::Corrupt("leaf store shorter than header".into())
            } else {
                StorageError::Io(e)
            }
        })?;
        Self::from_parts(file, &header, base, len, device)
    }

    /// Opens a leaf store embedded at byte `base` of `path` whose bytes
    /// the caller has already read (and checksum-verified) — e.g. a
    /// snapshot section. Parses the header from `bytes` without touching
    /// the file again, so a sequential snapshot open stays sequential:
    /// no re-read, no modeled seek back to `base`. Query-time leaf reads
    /// are still charged through `device` as they happen.
    ///
    /// # Errors
    /// Format violations and I/O failures.
    pub fn from_verified_bytes(
        path: &Path,
        base: u64,
        bytes: &[u8],
        device: Arc<Device>,
    ) -> Result<Self, StorageError> {
        if (bytes.len() as u64) < HEADER_LEN {
            return Err(StorageError::Corrupt(
                "leaf store shorter than header".into(),
            ));
        }
        let file = File::open(path)?;
        let len = bytes.len() as u64;
        Self::from_parts(file, &bytes[..HEADER_LEN as usize], base, len, device)
    }

    fn from_parts(
        file: File,
        header: &[u8],
        base: u64,
        len: u64,
        device: Arc<Device>,
    ) -> Result<Self, StorageError> {
        if header[0..8] != MAGIC {
            return Err(StorageError::BadMagic);
        }
        let segments = u32::from_le_bytes(header[8..12].try_into().expect("slice of 4")) as usize;
        if segments == 0 || segments > dsidx_isax::MAX_SEGMENTS {
            return Err(StorageError::Corrupt(format!(
                "bad segment count {segments}"
            )));
        }
        Ok(Self {
            file,
            device,
            segments,
            base,
            len,
        })
    }

    /// The whole store, header included, through the handle this reader
    /// holds — one sequential read charged to the device. What a snapshot
    /// embeds; the handle keeps reading the same bytes even after the file
    /// it was opened from is replaced.
    ///
    /// # Errors
    /// I/O failures (including a store shorter than it was when opened).
    pub fn read_all(&self) -> Result<Vec<u8>, StorageError> {
        let mut bytes = vec![0u8; usize::try_from(self.len).expect("store fits memory")];
        self.device.charge_read(self.base, self.len);
        self.file.read_exact_at(&mut bytes, self.base)?;
        Ok(bytes)
    }

    /// Number of segments per stored word.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Reads a flushed leaf back into `out` (cleared first); thread-safe.
    ///
    /// # Errors
    /// I/O failures (including truncated stores).
    pub fn read(&self, handle: LeafHandle, out: &mut Vec<(Word, u32)>) -> Result<(), StorageError> {
        let record = self.segments + 4;
        let bytes = handle.count as usize * record;
        let mut buf = vec![0u8; bytes];
        self.device
            .charge_read(self.base + handle.offset, bytes as u64);
        self.file
            .read_exact_at(&mut buf, self.base + handle.offset)?;
        out.clear();
        out.reserve(handle.count as usize);
        for rec in buf.chunks_exact(record) {
            let word = Word::new(&rec[..self.segments]);
            let pos = u32::from_le_bytes(rec[self.segments..].try_into().expect("slice of 4"));
            out.push((word, pos));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dsidx-leaf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn dev() -> Arc<Device> {
        Arc::new(Device::unthrottled())
    }

    fn word(seed: u8, segments: usize) -> Word {
        let symbols: Vec<u8> = (0..segments)
            .map(|i| seed.wrapping_add(i as u8 * 17))
            .collect();
        Word::new(&symbols)
    }

    #[test]
    fn append_and_read_round_trip() {
        let path = tmp("round.leaf");
        let w = LeafStoreWriter::create(&path, 16, dev()).unwrap();
        let leaf_a: Vec<(Word, u32)> = (0..10).map(|i| (word(i as u8, 16), i * 3)).collect();
        let leaf_b: Vec<(Word, u32)> = (0..5).map(|i| (word(i as u8 + 100, 16), i + 777)).collect();
        let ha = w.append(&leaf_a).unwrap();
        let hb = w.append(&leaf_b).unwrap();
        let r = w.finish().unwrap();
        let mut out = Vec::new();
        r.read(hb, &mut out).unwrap();
        assert_eq!(out, leaf_b);
        r.read(ha, &mut out).unwrap();
        assert_eq!(out, leaf_a);
    }

    #[test]
    fn empty_leaf_is_fine() {
        let path = tmp("empty.leaf");
        let w = LeafStoreWriter::create(&path, 4, dev()).unwrap();
        let h = w.append(&[]).unwrap();
        let r = w.finish().unwrap();
        let mut out = vec![(word(0, 4), 0)];
        r.read(h, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn concurrent_appends_do_not_interleave() {
        let path = tmp("conc.leaf");
        let w = LeafStoreWriter::create(&path, 8, dev()).unwrap();
        let handles: Vec<(usize, LeafHandle)> = std::thread::scope(|s| {
            let mut joins = Vec::new();
            for t in 0..8usize {
                let w = &w;
                joins.push(s.spawn(move || {
                    let entries: Vec<(Word, u32)> = (0..50)
                        .map(|i| (word((t * 50 + i) as u8, 8), (t * 50 + i) as u32))
                        .collect();
                    (t, w.append(&entries).unwrap())
                }));
            }
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        let r = w.finish().unwrap();
        let mut out = Vec::new();
        for (t, h) in handles {
            r.read(h, &mut out).unwrap();
            assert_eq!(out.len(), 50);
            for (i, (wd, pos)) in out.iter().enumerate() {
                assert_eq!(*pos, (t * 50 + i) as u32);
                assert_eq!(*wd, word((t * 50 + i) as u8, 8));
            }
        }
    }

    #[test]
    fn reader_rejects_foreign_files() {
        let path = tmp("foreign.leaf");
        std::fs::write(&path, b"WRONGMAGICxxxxxx").unwrap();
        assert!(matches!(
            LeafStoreReader::open(&path, dev()),
            Err(StorageError::BadMagic)
        ));
        let path = tmp("tiny.leaf");
        std::fs::write(&path, b"DS").unwrap();
        assert!(matches!(
            LeafStoreReader::open(&path, dev()),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_store_errors_on_read() {
        let path = tmp("trunc.leaf");
        let w = LeafStoreWriter::create(&path, 8, dev()).unwrap();
        let entries: Vec<(Word, u32)> = (0..20).map(|i| (word(i as u8, 8), i)).collect();
        let h = w.append(&entries).unwrap();
        let _ = w.finish().unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 6]).unwrap();
        let r = LeafStoreReader::open(&path, dev()).unwrap();
        let mut out = Vec::new();
        assert!(r.read(h, &mut out).is_err());
    }

    #[test]
    fn embedded_store_reads_relative_to_base() {
        // Build a normal store, then splice its bytes into the middle of a
        // container file — the snapshot embedding case.
        let path = tmp("embed-src.leaf");
        let w = LeafStoreWriter::create(&path, 8, dev()).unwrap();
        let entries: Vec<(Word, u32)> = (0..15).map(|i| (word(i as u8, 8), i * 7)).collect();
        let h = w.append(&entries).unwrap();
        let _ = w.finish().unwrap();
        let store_bytes = std::fs::read(&path).unwrap();
        let container = tmp("embed-dst.bin");
        let mut bytes = vec![0xABu8; 100];
        bytes.extend_from_slice(&store_bytes);
        bytes.extend_from_slice(&[0xCD; 37]);
        std::fs::write(&container, &bytes).unwrap();
        let device = dev();
        let r = LeafStoreReader::open_within(&container, 100, Arc::clone(&device)).unwrap();
        assert_eq!(r.segments(), 8);
        let mut out = Vec::new();
        r.read(h, &mut out).unwrap();
        assert_eq!(out, entries);
        // Charging sees the absolute position, so seek modeling stays honest.
        assert_eq!(device.stats().bytes_read, 16 + 15 * 12);
        // Read whole from the verified section bytes, it is exactly them.
        let section = &bytes[100..100 + store_bytes.len()];
        let r = LeafStoreReader::from_verified_bytes(&container, 100, section, dev()).unwrap();
        assert_eq!(r.read_all().unwrap(), store_bytes);
        // A wrong base lands on garbage and is rejected, not misread.
        assert!(LeafStoreReader::open_within(&container, 0, dev()).is_err());
    }

    #[test]
    fn writes_are_charged() {
        let path = tmp("charged.leaf");
        let device = dev();
        let w = LeafStoreWriter::create(&path, 8, Arc::clone(&device)).unwrap();
        let entries: Vec<(Word, u32)> = (0..10).map(|i| (word(i as u8, 8), i)).collect();
        w.append(&entries).unwrap();
        assert_eq!(device.stats().bytes_written, 10 * 12);
    }
}
