//! The leaf store: where ParIS/ParIS+ materialize subtree leaves.
//!
//! During on-disk index construction, finished subtrees flush their leaf
//! contents — `(iSAX word, raw-series position)` records of `segments + 4`
//! bytes — to this append-only file "to free space in main memory" (§III).
//! Every leaf also stays resident, so the flushes model that I/O and
//! nothing reads them back: the file is a sink, dropped when the build
//! returns. A query reads a leaf back by its entry range ([`EntryRuns`])
//! from the flat tree's two entry runs — every entry's word, then every
//! entry's position — which are a snapshot's `WORDS` and `POSITION`
//! sections, whether the snapshot was just written by the build or opened
//! from a save.

use crate::device::Device;
use crate::error::StorageError;
use dsidx_isax::Word;
use parking_lot::Mutex;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

/// Append side of the leaf store (used by IndexConstruction workers).
#[derive(Debug)]
pub struct LeafStoreWriter {
    out: Mutex<BufWriter<File>>,
    device: Arc<Device>,
    segments: usize,
}

impl LeafStoreWriter {
    /// Creates/truncates a leaf store at `path` for words of `segments`
    /// segments. Everything after goes through the handle this holds, so
    /// the caller may unlink `path` as soon as this returns.
    ///
    /// # Errors
    /// I/O failures; `segments` must be in `1..=16`.
    pub fn create(path: &Path, segments: usize, device: Arc<Device>) -> Result<Self, StorageError> {
        if segments == 0 || segments > dsidx_isax::MAX_SEGMENTS {
            return Err(StorageError::Corrupt(format!(
                "bad segment count {segments}"
            )));
        }
        Ok(Self {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
            device,
            segments,
        })
    }

    /// Appends one leaf's records; thread-safe.
    ///
    /// # Errors
    /// I/O failures.
    pub fn append(&self, entries: &[(Word, u32)]) -> Result<(), StorageError> {
        let mut buf = Vec::with_capacity(entries.len() * (self.segments + 4));
        for (word, pos) in entries {
            debug_assert_eq!(word.segments(), self.segments);
            buf.extend_from_slice(word.symbols());
            buf.extend_from_slice(&pos.to_le_bytes());
        }
        self.out.lock().write_all(&buf)?;
        // The store is append-only, so flushes are sequential writes: charge
        // bandwidth, not a seek per leaf (thousands of leaves per
        // generation would otherwise cost thousands of head movements that
        // a real append-only writer never makes).
        self.device.charge_append(buf.len() as u64);
        Ok(())
    }
}

/// Reads a leaf back by its entry range from a flat tree's two entry runs
/// in `file`: `segments` bytes of word per entry in the run at
/// `words_at`, a little-endian `u32` position per entry in the run at
/// `positions_at`.
#[derive(Debug)]
pub struct EntryRuns {
    file: File,
    device: Arc<Device>,
    segments: usize,
    words_at: u64,
    positions_at: u64,
}

impl EntryRuns {
    /// The runs at byte `words_at` and `positions_at` of `file`, for words
    /// of `segments` segments. Reads are charged to `device`.
    #[must_use]
    pub fn new(
        file: File,
        words_at: u64,
        positions_at: u64,
        segments: usize,
        device: Arc<Device>,
    ) -> Self {
        Self {
            file,
            device,
            segments,
            words_at,
            positions_at,
        }
    }

    /// Reads entries `range` back into `words` and `positions` (both
    /// cleared first): one positioned read from each run, nothing for an
    /// empty range. Thread-safe.
    ///
    /// # Errors
    /// I/O failures (including runs shorter than `range`).
    pub fn read(
        &self,
        range: Range<usize>,
        words: &mut Vec<Word>,
        positions: &mut Vec<u32>,
    ) -> Result<(), StorageError> {
        words.clear();
        positions.clear();
        if range.is_empty() {
            return Ok(());
        }
        let symbols = self.read_run(self.words_at, range.clone(), self.segments)?;
        let raw = self.read_run(self.positions_at, range, 4)?;
        words.extend(symbols.chunks_exact(self.segments).map(Word::new));
        positions.extend(
            raw.chunks_exact(4)
                .map(|b| u32::from_le_bytes(b.try_into().expect("slice of 4"))),
        );
        Ok(())
    }

    /// The `width`-byte records `range` of the run at byte `at`.
    fn read_run(
        &self,
        at: u64,
        range: Range<usize>,
        width: usize,
    ) -> Result<Vec<u8>, StorageError> {
        let offset = at + (range.start * width) as u64;
        let mut buf = vec![0u8; range.len() * width];
        self.device.charge_read(offset, buf.len() as u64);
        self.file.read_exact_at(&mut buf, offset)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProfile;

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

    /// The two entry runs of `entries`, as a snapshot lays them out.
    fn runs(entries: &[(Word, u32)]) -> (Vec<u8>, Vec<u8>) {
        let words = entries.iter().flat_map(|(w, _)| w.symbols().to_vec());
        let positions = entries.iter().flat_map(|(_, p)| p.to_le_bytes());
        (words.collect(), positions.collect())
    }

    /// `entries`' two runs written back to back to a plain file at `path`,
    /// read through [`EntryRuns`] on `device`.
    fn runs_file(
        path: &std::path::Path,
        entries: &[(Word, u32)],
        device: Arc<Device>,
    ) -> EntryRuns {
        let (words, positions) = runs(entries);
        std::fs::write(path, [&words[..], &positions[..]].concat()).unwrap();
        let segments = entries.first().map_or(4, |(w, _)| w.segments());
        EntryRuns::new(
            File::open(path).unwrap(),
            0,
            words.len() as u64,
            segments,
            device,
        )
    }

    fn read(runs: &EntryRuns, range: Range<usize>) -> Vec<(Word, u32)> {
        let (mut words, mut positions) = (Vec::new(), Vec::new());
        runs.read(range, &mut words, &mut positions).unwrap();
        words.into_iter().zip(positions).collect()
    }

    #[test]
    fn append_and_read_round_trip() {
        // The store keeps records in flush order; the runs hold the same
        // entries in tree order, and read each leaf back by its range.
        let leaf_a: Vec<(Word, u32)> = (0..10).map(|i| (word(i as u8, 16), i * 3)).collect();
        let leaf_b: Vec<(Word, u32)> = (0..5).map(|i| (word(i as u8 + 100, 16), i + 777)).collect();
        let store = tmp("round.leaf");
        let w = LeafStoreWriter::create(&store, 16, dev()).unwrap();
        w.append(&leaf_b).unwrap();
        w.append(&leaf_a).unwrap();
        drop(w);
        assert_eq!(std::fs::read(&store).unwrap().len(), 15 * (16 + 4));
        let all = [&leaf_a[..], &leaf_b[..]].concat();
        let r = runs_file(&tmp("round.runs"), &all, dev());
        assert_eq!(read(&r, 10..15), leaf_b);
        assert_eq!(read(&r, 0..10), leaf_a);
        assert_eq!(read(&r, 3..12), all[3..12]);
    }

    #[test]
    fn empty_leaf_is_fine() {
        let device = dev();
        let r = runs_file(&tmp("empty.runs"), &[], Arc::clone(&device));
        let (mut words, mut positions) = (vec![word(0, 4)], vec![7]);
        r.read(0..0, &mut words, &mut positions).unwrap();
        assert!(words.is_empty() && positions.is_empty());
        assert_eq!(device.stats().bytes_read, 0);
    }

    #[test]
    fn concurrent_appends_do_not_interleave() {
        let path = tmp("conc.leaf");
        let w = LeafStoreWriter::create(&path, 8, dev()).unwrap();
        std::thread::scope(|s| {
            for t in 0..8usize {
                let w = &w;
                s.spawn(move || {
                    let entries: Vec<(Word, u32)> = (0..50)
                        .map(|i| (word((t * 50 + i) as u8, 8), (t * 50 + i) as u32))
                        .collect();
                    w.append(&entries).unwrap();
                });
            }
        });
        drop(w);
        // Each thread's 50 records sit together, in order.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 8 * 50 * 12);
        for leaf in bytes.chunks_exact(50 * 12) {
            let first = u32::from_le_bytes(leaf[8..12].try_into().unwrap()) as usize;
            assert_eq!(first % 50, 0);
            for (i, rec) in leaf.chunks_exact(12).enumerate() {
                let pos = u32::from_le_bytes(rec[8..].try_into().unwrap()) as usize;
                assert_eq!(pos, first + i);
                assert_eq!(Word::new(&rec[..8]), word(pos as u8, 8));
            }
        }
    }

    #[test]
    fn truncated_store_errors_on_read() {
        let path = tmp("trunc.runs");
        let entries: Vec<(Word, u32)> = (0..20).map(|i| (word(i as u8, 8), i)).collect();
        let r = runs_file(&path, &entries, dev());
        let (mut ws, mut ps) = (Vec::new(), Vec::new());
        // The last entry's position runs past the end of the positions run.
        let beyond = EntryRuns::new(File::open(&path).unwrap(), 0, 20 * 8 + 4, 8, dev());
        assert!(beyond.read(19..20, &mut ws, &mut ps).is_err());
        assert!(r.read(19..21, &mut ws, &mut ps).is_err());
        assert_eq!(read(&r, 19..20), entries[19..]);
    }

    #[test]
    fn embedded_store_reads_relative_to_base() {
        // Runs inside a larger file — a snapshot's WORDS and POSITION
        // sections — read at their own offsets, two reads per leaf.
        let entries: Vec<(Word, u32)> = (0..15).map(|i| (word(i as u8, 8), i * 7)).collect();
        let (words, positions) = runs(&entries);
        let mut bytes = vec![0xABu8; 100];
        bytes.extend_from_slice(&words);
        bytes.extend_from_slice(&[0xCD; 37]);
        bytes.extend_from_slice(&positions);
        let container = tmp("embed.bin");
        std::fs::write(&container, &bytes).unwrap();
        let device = Arc::new(Device::new(DeviceProfile::SSD));
        let positions_at = 100 + words.len() as u64 + 37;
        let r = EntryRuns::new(
            File::open(&container).unwrap(),
            100,
            positions_at,
            8,
            Arc::clone(&device),
        );
        assert_eq!(read(&r, 0..15), entries);
        assert_eq!(read(&r, 4..9), entries[4..9]);
        let stats = device.stats();
        assert_eq!(stats.bytes_read, (15 + 5) * 12);
        assert_eq!(stats.seeks, 4);
    }

    #[test]
    fn writes_are_charged() {
        let path = tmp("charged.leaf");
        let device = dev();
        let w = LeafStoreWriter::create(&path, 8, Arc::clone(&device)).unwrap();
        let entries: Vec<(Word, u32)> = (0..10).map(|i| (word(i as u8, 8), i)).collect();
        w.append(&entries).unwrap();
        w.append(&entries[..4]).unwrap();
        assert_eq!(device.stats().bytes_written, 14 * 12);
    }
}
