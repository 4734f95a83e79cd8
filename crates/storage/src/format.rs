//! The raw dataset file format.
//!
//! A dataset file is a 32-byte header followed by `count * series_len`
//! little-endian `f32` values (the same "flat binary of floats" layout the
//! paper's C implementations consume):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"DSIDXSE1"
//! 8       4     format version (u32 LE) = 1
//! 12      4     series_len (u32 LE)
//! 16      8     count (u64 LE)
//! 24      8     reserved (zeros)
//! 32      ...   payload: f32 LE, series-major
//! ```

use crate::device::Device;
use crate::error::StorageError;
use crate::raw::{check_span, RawSource};
use dsidx_series::Dataset;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: [u8; 8] = *b"DSIDXSE1";
const VERSION: u32 = 1;
/// Size of the file header in bytes.
pub const HEADER_LEN: u64 = 32;

fn encode_header(series_len: u32, count: u64) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[0..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&series_len.to_le_bytes());
    h[16..24].copy_from_slice(&count.to_le_bytes());
    h
}

fn decode_header(h: &[u8; HEADER_LEN as usize]) -> Result<(u32, u64), StorageError> {
    if h[0..8] != MAGIC {
        return Err(StorageError::BadMagic);
    }
    let version = u32::from_le_bytes(h[8..12].try_into().expect("slice of 4"));
    if version != VERSION {
        return Err(StorageError::BadVersion(version));
    }
    let series_len = u32::from_le_bytes(h[12..16].try_into().expect("slice of 4"));
    let count = u64::from_le_bytes(h[16..24].try_into().expect("slice of 8"));
    if series_len == 0 {
        return Err(StorageError::Corrupt("series_len is zero".into()));
    }
    Ok((series_len, count))
}

/// Streaming dataset writer (use for datasets too large to build in memory).
#[derive(Debug)]
pub struct DatasetWriter {
    out: BufWriter<File>,
    device: Arc<Device>,
    series_len: u32,
    count: u64,
    byte_buf: Vec<u8>,
}

impl DatasetWriter {
    /// Creates/truncates a dataset file with the given series length.
    ///
    /// # Errors
    /// I/O failures; `series_len` must be non-zero.
    pub fn create(
        path: &Path,
        series_len: usize,
        device: Arc<Device>,
    ) -> Result<Self, StorageError> {
        if series_len == 0 || series_len > u32::MAX as usize {
            return Err(StorageError::Corrupt(format!(
                "bad series_len {series_len}"
            )));
        }
        let mut out = BufWriter::new(File::create(path)?);
        // Placeholder header; `finish` writes the real count.
        out.write_all(&encode_header(series_len as u32, 0))?;
        Ok(Self {
            out,
            device,
            series_len: series_len as u32,
            count: 0,
            byte_buf: Vec::with_capacity(series_len * 4),
        })
    }

    /// Appends one series.
    ///
    /// # Errors
    /// Length mismatches and I/O failures.
    pub fn push(&mut self, series: &[f32]) -> Result<(), StorageError> {
        if series.len() != self.series_len as usize {
            return Err(StorageError::Series(
                dsidx_series::SeriesError::LengthMismatch {
                    expected: self.series_len as usize,
                    actual: series.len(),
                },
            ));
        }
        self.byte_buf.clear();
        for v in series {
            self.byte_buf.extend_from_slice(&v.to_le_bytes());
        }
        self.out.write_all(&self.byte_buf)?;
        self.device.charge_append(self.byte_buf.len() as u64);
        self.count += 1;
        Ok(())
    }

    /// Number of series written so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Finalizes the header and flushes.
    ///
    /// # Errors
    /// I/O failures.
    pub fn finish(mut self) -> Result<(), StorageError> {
        self.out.flush()?;
        let file = self.out.get_mut();
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&encode_header(self.series_len, self.count))?;
        file.flush()?;
        Ok(())
    }
}

/// Writes a whole in-memory dataset to `path`.
///
/// # Errors
/// I/O failures.
pub fn write_dataset(
    path: &Path,
    dataset: &Dataset,
    device: Arc<Device>,
) -> Result<(), StorageError> {
    let mut w = DatasetWriter::create(path, dataset.series_len(), device)?;
    for s in dataset.iter() {
        w.push(s)?;
    }
    w.finish()
}

/// Reads a whole dataset file into memory.
///
/// # Errors
/// Format violations and I/O failures.
pub fn read_dataset(path: &Path, device: Arc<Device>) -> Result<Dataset, StorageError> {
    let file = DatasetFile::open(path, device)?;
    let mut flat = vec![0.0f32; file.count() * file.series_len()];
    let series_len = file.series_len();
    for (pos, chunk) in flat.chunks_exact_mut(series_len).enumerate() {
        file.read_into(pos, chunk)?;
    }
    Dataset::from_flat(flat, series_len).map_err(StorageError::from)
}

/// A dataset file opened for positioned (query-time) and block (build-time)
/// reads. All reads are charged to the device. Shareable across threads.
#[derive(Debug)]
pub struct DatasetFile {
    file: File,
    path: PathBuf,
    device: Arc<Device>,
    series_len: usize,
    count: usize,
}

impl DatasetFile {
    /// Opens and validates a dataset file.
    ///
    /// # Errors
    /// [`StorageError::BadMagic`]/[`StorageError::BadVersion`] for foreign
    /// files, [`StorageError::Corrupt`] if the payload length does not match
    /// the header (e.g. truncation).
    pub fn open(path: &Path, device: Arc<Device>) -> Result<Self, StorageError> {
        let mut file = File::open(path)?;
        let mut h = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut h).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StorageError::Corrupt("file shorter than header".into())
            } else {
                StorageError::Io(e)
            }
        })?;
        let (series_len, count) = decode_header(&h)?;
        let expect = count
            .checked_mul(u64::from(series_len) * 4)
            .and_then(|payload| payload.checked_add(HEADER_LEN))
            .ok_or_else(|| {
                StorageError::Corrupt(format!(
                    "header claims {count} series of length {series_len}: more bytes than a \
                     file can hold"
                ))
            })?;
        let actual = file.metadata()?.len();
        if actual != expect {
            return Err(StorageError::Corrupt(format!(
                "payload length mismatch: header implies {expect} bytes, file has {actual}"
            )));
        }
        Ok(Self {
            file,
            path: path.to_path_buf(),
            device,
            series_len: series_len as usize,
            count: count as usize,
        })
    }

    /// The file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The device reads are charged to.
    #[must_use]
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Number of series.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Length of each series.
    #[must_use]
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    fn series_offset(&self, pos: usize) -> u64 {
        HEADER_LEN + (pos as u64) * (self.series_len as u64) * 4
    }

    /// Reads series `pos` into `out` (positioned read; thread-safe).
    ///
    /// # Errors
    /// Out-of-bounds positions and I/O failures.
    ///
    /// # Panics
    /// Panics if `out.len() != self.series_len()`.
    pub fn read_series_into(&self, pos: usize, out: &mut [f32]) -> Result<(), StorageError> {
        assert_eq!(out.len(), self.series_len, "output buffer length mismatch");
        if pos >= self.count {
            return Err(StorageError::OutOfBounds {
                index: pos as u64,
                len: self.count as u64,
            });
        }
        let block = self.charge(pos, 1);
        with_scratch(|bytes| {
            block.copy_into(bytes)?;
            decode_f32s(bytes, out);
            Ok(())
        })
    }

    /// Books and waits out the device read of the `count` series starting
    /// at `start`, without copying them: the returned block is the only
    /// way to copy those bytes, once. A build's coordinator charges blocks
    /// in file order, and its workers copy them.
    ///
    /// # Errors
    /// [`StorageError::OutOfBounds`] when the range runs past the end (or
    /// its end overflows), before anything is charged.
    pub fn charge_block(
        &self,
        start: usize,
        count: usize,
    ) -> Result<ChargedBlock<'_>, StorageError> {
        check_span(start, count, self.count)?;
        Ok(self.charge(start, count))
    }

    /// Charges the read of an in-bounds range.
    fn charge(&self, start: usize, count: usize) -> ChargedBlock<'_> {
        let len = count * self.series_len * 4;
        let offset = self.series_offset(start);
        self.device.charge_read(offset, len as u64);
        ChargedBlock {
            file: &self.file,
            offset,
            len,
        }
    }

    /// Reads `count` series starting at `start` into `out` (resized) with
    /// one device read: [`charge_block`](Self::charge_block), then the
    /// block's copy into this thread's byte buffer, then the decode. A
    /// query's span of nearby candidates ([`RawSource::read_span`]) and
    /// MESSI's file build read this way.
    ///
    /// # Errors
    /// Out-of-bounds ranges, before anything is charged, and I/O failures.
    pub fn read_block(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), StorageError> {
        let block = self.charge_block(start, count)?;
        with_scratch(|bytes| {
            block.copy_into(bytes)?;
            out.clear();
            out.extend(bytes.chunks_exact(4).map(decode_f32));
            Ok(())
        })
    }
}

/// A block read the device has booked and waited out
/// ([`DatasetFile::charge_block`]), whose bytes are not yet copied.
#[derive(Debug)]
#[must_use = "a charged block's bytes are only read by `copy_into`"]
pub struct ChargedBlock<'a> {
    file: &'a File,
    offset: u64,
    len: usize,
}

impl ChargedBlock<'_> {
    /// Copies the block's bytes into `bytes` (resized to their length;
    /// a buffer kept across blocks allocates only when it grows). Decode
    /// them with [`decode_f32s`].
    ///
    /// # Errors
    /// I/O failures, such as a file cut short after it was opened.
    pub fn copy_into(self, bytes: &mut Vec<u8>) -> Result<(), StorageError> {
        bytes.resize(self.len, 0);
        self.file.read_exact_at(bytes, self.offset)?;
        Ok(())
    }
}

/// Runs `f` with this thread's byte buffer, kept across reads so that a
/// read allocates only when it is longer than every earlier one.
fn with_scratch<R>(f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    thread_local! {
        static BYTES: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    BYTES.with_borrow_mut(f)
}

impl RawSource for DatasetFile {
    fn count(&self) -> usize {
        self.count
    }

    fn series_len(&self) -> usize {
        self.series_len
    }

    fn read_into(&self, pos: usize, out: &mut [f32]) -> Result<(), StorageError> {
        self.read_series_into(pos, out)
    }

    /// The series whose bytes together cost one seek on the device
    /// ([`DeviceProfile::seek_equivalent_bytes`](crate::DeviceProfile::seek_equivalent_bytes)):
    /// 47 on the SSD profile at length 256, 1,392 on the HDD, 0
    /// unthrottled.
    fn span_gap(&self) -> usize {
        let series_bytes = self.series_len as u64 * 4;
        usize::try_from(self.device.profile().seek_equivalent_bytes() / series_bytes)
            .unwrap_or(usize::MAX)
    }

    fn read_span(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), StorageError> {
        self.read_block(start, count, out)
    }
}

/// Decodes a dataset file's little-endian `f32` bytes into `out`
/// (`bytes.len() == 4 * out.len()`).
pub fn decode_f32s(bytes: &[u8], out: &mut [f32]) {
    debug_assert_eq!(bytes.len(), out.len() * 4);
    for (chunk, v) in bytes.chunks_exact(4).zip(out.iter_mut()) {
        *v = decode_f32(chunk);
    }
}

fn decode_f32(chunk: &[u8]) -> f32 {
    f32::from_le_bytes(chunk.try_into().expect("chunk of 4"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{bandwidth_nanos, DeviceProfile};
    use dsidx_series::gen::random_walk;

    fn tmpdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dsidx-fmt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn dev() -> Arc<Device> {
        Arc::new(Device::unthrottled())
    }

    #[test]
    fn round_trip_whole_dataset() {
        let dir = tmpdir();
        let path = dir.join("round.dsidx");
        let ds = random_walk(50, 64, 7);
        write_dataset(&path, &ds, dev()).unwrap();
        let back = read_dataset(&path, dev()).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn positioned_reads_match_memory() {
        let dir = tmpdir();
        let path = dir.join("pos.dsidx");
        let ds = random_walk(20, 32, 9);
        write_dataset(&path, &ds, dev()).unwrap();
        let f = DatasetFile::open(&path, dev()).unwrap();
        assert_eq!(f.count(), 20);
        assert_eq!(f.series_len(), 32);
        let mut buf = vec![0.0f32; 32];
        for pos in [0usize, 7, 19] {
            f.read_series_into(pos, &mut buf).unwrap();
            assert_eq!(&buf[..], ds.get(pos));
        }
        assert!(matches!(
            f.read_series_into(20, &mut buf),
            Err(StorageError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn block_reads_match_memory() {
        let dir = tmpdir();
        let path = dir.join("block.dsidx");
        let ds = random_walk(30, 16, 3);
        write_dataset(&path, &ds, dev()).unwrap();
        let f = DatasetFile::open(&path, dev()).unwrap();
        let mut out = Vec::new();
        f.read_block(5, 10, &mut out).unwrap();
        assert_eq!(out.len(), 160);
        for i in 0..10 {
            assert_eq!(&out[i * 16..(i + 1) * 16], ds.get(5 + i));
        }
        assert!(f.read_block(25, 10, &mut out).is_err());
    }

    #[test]
    fn block_reads_whose_end_overflows_are_out_of_bounds() {
        let dir = tmpdir();
        let path = dir.join("overflow.dsidx");
        write_dataset(&path, &random_walk(4, 8, 2), dev()).unwrap();
        let f = DatasetFile::open(&path, dev()).unwrap();
        let mut out = Vec::new();
        for (start, count) in [(usize::MAX, 2), (2, usize::MAX), (usize::MAX, usize::MAX)] {
            assert!(
                matches!(
                    f.read_block(start, count, &mut out),
                    Err(StorageError::OutOfBounds {
                        index: u64::MAX,
                        len: 4
                    })
                ),
                "start={start} count={count}"
            );
        }
        assert_eq!(f.device().stats().bytes_read, 0, "nothing was read");
    }

    #[test]
    fn a_charged_block_books_what_a_block_read_books_and_copies_its_bytes() {
        let path = tmpdir().join("charge-block.dsidx");
        let ds = random_walk(30, 16, 6);
        write_dataset(&path, &ds, dev()).unwrap();
        let ssd = || DatasetFile::open(&path, Arc::new(Device::new(DeviceProfile::SSD))).unwrap();
        let (charged, read) = (ssd(), ssd());
        let mut bytes = Vec::new();
        let (mut decoded, mut out) = (Vec::new(), Vec::new());
        for (start, count) in [(0usize, 10usize), (10, 10), (25, 5)] {
            let block = charged.charge_block(start, count).unwrap();
            assert_eq!(
                charged.device().stats().bytes_read,
                read.device().stats().bytes_read + (count * 16 * 4) as u64,
                "the charge is booked before the copy"
            );
            block.copy_into(&mut bytes).unwrap();
            decoded.resize(count * 16, 0.0);
            decode_f32s(&bytes, &mut decoded);
            read.read_block(start, count, &mut out).unwrap();
            assert_eq!(decoded, out, "{start}+{count}");
            assert_eq!(charged.device().stats(), read.device().stats());
        }
        // 0..10 and 10..20 run on; 25..30 seeks.
        assert_eq!(charged.device().stats().seeks, 2);
        assert!(matches!(
            charged.charge_block(25, 10),
            Err(StorageError::OutOfBounds { index: 35, len: 30 })
        ));
        assert_eq!(
            charged.device().stats(),
            read.device().stats(),
            "nothing charged"
        );
    }

    #[test]
    fn a_block_charged_before_its_file_is_cut_fails_its_copy() {
        let path = tmpdir().join("charge-cut.dsidx");
        write_dataset(&path, &random_walk(20, 16, 4), dev()).unwrap();
        let f = DatasetFile::open(&path, dev()).unwrap();
        let block = f.charge_block(10, 10).unwrap();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(HEADER_LEN + 15 * 16 * 4)
            .unwrap();
        let mut bytes = Vec::new();
        assert!(matches!(
            block.copy_into(&mut bytes),
            Err(StorageError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof
        ));
        assert_eq!(f.device().stats().bytes_read, 10 * 16 * 4);
    }

    #[test]
    fn span_gaps_follow_the_device_profile() {
        let path = tmpdir().join("gap.dsidx");
        write_dataset(&path, &random_walk(4, 256, 5), dev()).unwrap();
        let gap = |profile| {
            let f = DatasetFile::open(&path, Arc::new(Device::new(profile))).unwrap();
            f.span_gap()
        };
        assert_eq!(gap(DeviceProfile::SSD), 47);
        assert_eq!(gap(DeviceProfile::HDD), 1_392);
        assert_eq!(gap(DeviceProfile::UNTHROTTLED), 0);
        // Through a reference, as the engines hold it.
        let f = DatasetFile::open(&path, Arc::new(Device::new(DeviceProfile::SSD))).unwrap();
        let by_ref: &dyn RawSource = &&f;
        assert_eq!(by_ref.span_gap(), 47);
    }

    #[test]
    fn a_span_reads_like_its_series_for_one_seek_and_their_bytes() {
        let path = tmpdir().join("span.dsidx");
        let ds = random_walk(40, 32, 8);
        write_dataset(&path, &ds, dev()).unwrap();
        let f = DatasetFile::open(&path, Arc::new(Device::new(DeviceProfile::SSD))).unwrap();
        let series_bytes = 32 * 4;
        let mut span = Vec::new();
        let mut one = vec![0.0f32; 32];
        for (start, count) in [(0usize, 1usize), (3, 7), (11, 29), (39, 1)] {
            f.device().reset_stats();
            f.read_span(start, count, &mut span).unwrap();
            let stats = f.device().stats();
            assert_eq!(span.len(), count * 32);
            assert_eq!(stats.bytes_read, (count * series_bytes) as u64);
            assert!(stats.seeks <= 1, "{start}+{count}: {} seeks", stats.seeks);
            let profile = f.device().profile();
            assert_eq!(
                stats.charged_nanos,
                bandwidth_nanos(stats.bytes_read, profile.read_bandwidth)
                    + stats.seeks * profile.seek_latency.as_nanos() as u64
            );
            for (i, got) in span.chunks_exact(32).enumerate() {
                f.read_series_into(start + i, &mut one).unwrap();
                let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(&one), "{start}+{count} series {i}");
            }
        }
    }

    #[test]
    fn a_span_past_the_end_or_overflowing_is_out_of_bounds() {
        let path = tmpdir().join("span-oob.dsidx");
        write_dataset(&path, &random_walk(6, 8, 4), dev()).unwrap();
        let f = DatasetFile::open(&path, dev()).unwrap();
        let src: &dyn RawSource = &f;
        let mut out = Vec::new();
        for (start, count, index) in [
            (5usize, 2usize, 7u64),
            (6, 1, 7),
            (usize::MAX, 2, u64::MAX),
            (2, usize::MAX, u64::MAX),
        ] {
            assert!(
                matches!(
                    src.read_span(start, count, &mut out),
                    Err(StorageError::OutOfBounds { index: i, len: 6 }) if i == index
                ),
                "start={start} count={count}"
            );
        }
        assert_eq!(f.device().stats().bytes_read, 0, "nothing was read");
    }

    #[test]
    fn rejects_foreign_and_truncated_files() {
        let dir = tmpdir();
        // Bad magic.
        let path = dir.join("foreign.bin");
        std::fs::write(&path, b"NOTDSIDXAAAAAAAAAAAAAAAAAAAAAAAAAAAA").unwrap();
        assert!(matches!(
            DatasetFile::open(&path, dev()),
            Err(StorageError::BadMagic)
        ));
        // Too short for a header.
        let path = dir.join("short.bin");
        std::fs::write(&path, b"DS").unwrap();
        assert!(matches!(
            DatasetFile::open(&path, dev()),
            Err(StorageError::Corrupt(_))
        ));
        // Truncated payload.
        let path = dir.join("trunc.dsidx");
        let ds = random_walk(10, 8, 1);
        write_dataset(&path, &ds, dev()).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        assert!(matches!(
            DatasetFile::open(&path, dev()),
            Err(StorageError::Corrupt(_))
        ));
        // Bad version.
        let path = dir.join("vers.dsidx");
        let mut bytes = full.clone();
        bytes[8] = 99;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            DatasetFile::open(&path, dev()),
            Err(StorageError::BadVersion(99))
        ));
    }

    #[test]
    fn a_header_whose_payload_length_overflows_is_corrupt() {
        // 2^62 + 2 series of one point are 2^64 + 8 payload bytes: the
        // product wraps to the 8 bytes this file does carry.
        let path = tmpdir().join("overflow.dsidx");
        let mut bytes = encode_header(1, (1u64 << 62) + 2).to_vec();
        bytes.extend_from_slice(&[0u8; 8]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            DatasetFile::open(&path, dev()),
            Err(StorageError::Corrupt(_))
        ));
        assert!(matches!(
            read_dataset(&path, dev()),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn writer_rejects_wrong_length() {
        let dir = tmpdir();
        let path = dir.join("w.dsidx");
        let mut w = DatasetWriter::create(&path, 8, dev()).unwrap();
        assert!(w.push(&[0.0; 8]).is_ok());
        assert!(w.push(&[0.0; 7]).is_err());
        assert_eq!(w.count(), 1);
        w.finish().unwrap();
        let f = DatasetFile::open(&path, dev()).unwrap();
        assert_eq!(f.count(), 1);
    }

    #[test]
    fn empty_dataset_round_trips() {
        let dir = tmpdir();
        let path = dir.join("empty.dsidx");
        let ds = Dataset::new(16).unwrap();
        write_dataset(&path, &ds, dev()).unwrap();
        let back = read_dataset(&path, dev()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.series_len(), 16);
    }

    #[test]
    fn reads_are_charged_to_device() {
        let dir = tmpdir();
        let path = dir.join("charge.dsidx");
        let ds = random_walk(10, 16, 2);
        write_dataset(&path, &ds, dev()).unwrap();
        let device = dev();
        let f = DatasetFile::open(&path, Arc::clone(&device)).unwrap();
        let mut buf = vec![0.0f32; 16];
        f.read_series_into(3, &mut buf).unwrap();
        assert_eq!(device.stats().bytes_read, 64);
    }
}
