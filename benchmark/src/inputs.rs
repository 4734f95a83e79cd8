//! Seeded input generation: collections, dataset files and query streams.
//!
//! Everything the program under test sees is made here from `--seed`; the
//! same seed gives byte-identical inputs.

use dsidx::prelude::*;
use dsidx::storage::DatasetWriter;
use std::io::{Error, ErrorKind, Read};
use std::path::Path;
use std::sync::Arc;

pub const SERIES_LEN: usize = 256;

/// Collections are generated chunk by chunk so the on-disk workload can
/// stream its file out without ever holding the raw data (its peak RSS is
/// then the index's, not the harness's).
const CHUNK_SERIES: usize = 8192;

/// Every fourth query is planted (25 %); the rest are fresh (75 %), so the
/// median sits inside the fresh population, not on the boundary.
const PLANTED_EVERY: usize = 4;
const PLANTED_NOISE_STD: f64 = 0.05;

/// SplitMix64 — the harness's own generator, independent of the program's.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        (-2.0 * self.unit().ln()).sqrt() * (std::f64::consts::TAU * self.unit()).cos()
    }
}

fn for_each_chunk(count: usize, seed: u64, mut f: impl FnMut(&Dataset)) {
    let mut done = 0;
    let mut chunk_seeds = Rng::new(seed);
    while done < count {
        let n = CHUNK_SERIES.min(count - done);
        f(&DatasetKind::Synthetic.generate(n, SERIES_LEN, chunk_seeds.next_u64()));
        done += n;
    }
}

/// The z-normalised random-walk collection for `seed`, in memory.
pub fn collection(count: usize, seed: u64) -> Dataset {
    let mut data = Dataset::with_capacity(SERIES_LEN, count).expect("non-zero series length");
    for_each_chunk(count, seed, |chunk| {
        for s in chunk.iter() {
            data.push(s)
                .expect("chunk series have the collection's length");
        }
    });
    data
}

/// The same collection streamed into a dataset file.
pub fn write_collection(path: &Path, count: usize, seed: u64) -> Result<(), dsidx::Error> {
    let mut w = DatasetWriter::create(path, SERIES_LEN, Arc::new(Device::unthrottled()))?;
    let mut result = Ok(());
    for_each_chunk(count, seed, |chunk| {
        for s in chunk.iter() {
            if result.is_ok() {
                result = w.push(s);
            }
        }
    });
    result?;
    Ok(w.finish()?)
}

/// The harness's own reader of the dataset file layout (32-byte header,
/// then little-endian `f32`s, series-major): planted queries and the
/// oracle read the collection back without going through the program.
pub struct RawFile {
    file: std::fs::File,
    count: usize,
}

const FILE_HEADER_LEN: u64 = 32;

impl RawFile {
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let mut file = std::fs::File::open(path)?;
        let mut header = [0u8; FILE_HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
        if &header[0..8] != b"DSIDXSE1" || len as usize != SERIES_LEN {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "not the benchmark's dataset file",
            ));
        }
        let count = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes")) as usize;
        Ok(Self { file, count })
    }

    pub fn read_series(&self, pos: usize, out: &mut [f32]) -> std::io::Result<()> {
        use std::os::unix::fs::FileExt;
        let mut bytes = vec![0u8; SERIES_LEN * 4];
        self.file
            .read_exact_at(&mut bytes, FILE_HEADER_LEN + (pos * SERIES_LEN * 4) as u64)?;
        decode(&bytes, out);
        Ok(())
    }

    /// Calls `f(first position, flat values)` for consecutive blocks of
    /// the whole file.
    pub fn for_each_block(&self, mut f: impl FnMut(usize, &[f32])) -> std::io::Result<()> {
        use std::os::unix::fs::FileExt;
        let mut bytes = Vec::new();
        let mut values = Vec::new();
        let mut pos = 0;
        while pos < self.count {
            let n = CHUNK_SERIES.min(self.count - pos);
            bytes.resize(n * SERIES_LEN * 4, 0);
            values.resize(n * SERIES_LEN, 0.0);
            self.file
                .read_exact_at(&mut bytes, FILE_HEADER_LEN + (pos * SERIES_LEN * 4) as u64)?;
            decode(&bytes, &mut values);
            f(pos, &values);
            pos += n;
        }
        Ok(())
    }
}

fn decode(bytes: &[u8], out: &mut [f32]) {
    for (v, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *v = f32::from_le_bytes(b.try_into().expect("4 bytes"));
    }
}

/// Calls `f(first position, flat values)` over an in-memory collection in
/// the same block shape as [`RawFile::for_each_block`].
pub fn for_each_block_of(data: &Dataset, mut f: impl FnMut(usize, &[f32])) {
    for (i, block) in data.as_flat().chunks(CHUNK_SERIES * SERIES_LEN).enumerate() {
        f(i * CHUNK_SERIES, block);
    }
}

/// The deterministic query stream of one workload.
pub struct QueryStream {
    pub queries: Dataset,
    /// For a planted query, the collection position it was derived from.
    pub planted: Vec<Option<u32>>,
}

/// `count` queries for a collection of `collection_len` series: fresh
/// random walks from the program's query generator (hard: pruning must do
/// real work), with every [`PLANTED_EVERY`]th replaced by a collection
/// member plus N(0, 0.05) noise, re-z-normalised (easy: the best-so-far is
/// tight after seeding). `fetch` reads one collection member.
pub fn query_stream(
    count: usize,
    collection_len: usize,
    seed: u64,
    fetch: impl Fn(usize, &mut [f32]) -> std::io::Result<()>,
) -> std::io::Result<QueryStream> {
    let fresh = DatasetKind::Synthetic.queries(count, SERIES_LEN, seed);
    let mut rng = Rng::new(seed ^ 0x51A7_7ED0_0B5E_55ED);
    let mut queries = Dataset::with_capacity(SERIES_LEN, count).expect("non-zero series length");
    let mut planted = Vec::with_capacity(count);
    let mut buf = vec![0.0f32; SERIES_LEN];
    for i in 0..count {
        if i % PLANTED_EVERY == PLANTED_EVERY - 1 {
            let pos = rng.below(collection_len);
            fetch(pos, &mut buf)?;
            for v in &mut buf {
                *v += (PLANTED_NOISE_STD * rng.normal()) as f32;
            }
            znormalize(&mut buf);
            queries
                .push(&buf)
                .expect("query has the collection's length");
            planted.push(Some(pos as u32));
        } else {
            queries
                .push(fresh.get(i))
                .expect("query has the collection's length");
            planted.push(None);
        }
    }
    Ok(QueryStream { queries, planted })
}

fn znormalize(series: &mut [f32]) {
    let n = series.len() as f64;
    let mean = series.iter().map(|&v| f64::from(v)).sum::<f64>() / n;
    let var = series
        .iter()
        .map(|&v| (f64::from(v) - mean).powi(2))
        .sum::<f64>()
        / n;
    let std = var.sqrt().max(1e-12);
    for v in series {
        *v = ((f64::from(*v) - mean) / std) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_for(data: &Dataset, seed: u64) -> QueryStream {
        query_stream(64, data.len(), seed, |pos, out| {
            out.copy_from_slice(data.get(pos));
            Ok(())
        })
        .unwrap()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = collection(300, 7);
        let b = collection(300, 7);
        let c = collection(300, 8);
        assert_eq!(a.as_flat(), b.as_flat());
        assert_ne!(a.as_flat(), c.as_flat());
        let (qa, qb, qc) = (stream_for(&a, 7), stream_for(&b, 7), stream_for(&a, 8));
        assert_eq!(qa.queries.as_flat(), qb.queries.as_flat());
        assert_eq!(qa.planted, qb.planted);
        assert_ne!(qa.queries.as_flat(), qc.queries.as_flat());
    }

    #[test]
    fn file_and_memory_collections_are_identical() {
        let scratch = crate::env::Scratch::create().unwrap();
        let path = scratch.path("c.bin");
        // More than one chunk, and a short last one.
        let n = CHUNK_SERIES + 100;
        write_collection(&path, n, 3).unwrap();
        let mem = collection(n, 3);
        let file = RawFile::open(&path).unwrap();
        assert_eq!(file.count, n);
        let mut seen = 0;
        file.for_each_block(|first, block| {
            assert_eq!(block, &mem.as_flat()[first * SERIES_LEN..][..block.len()]);
            seen += block.len() / SERIES_LEN;
        })
        .unwrap();
        assert_eq!(seen, n);
        let mut one = vec![0.0; SERIES_LEN];
        file.read_series(n - 1, &mut one).unwrap();
        assert_eq!(one, mem.get(n - 1));
    }

    #[test]
    fn a_quarter_of_the_stream_is_planted_near_its_source() {
        let data = collection(300, 11);
        let s = stream_for(&data, 11);
        assert_eq!(s.planted.iter().flatten().count(), 16);
        for (i, src) in s.planted.iter().enumerate() {
            let Some(src) = src else { continue };
            let d: f32 = s
                .queries
                .get(i)
                .iter()
                .zip(data.get(*src as usize))
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            assert!(d < 2.0, "planted query {i} is {d} from its source");
        }
    }
}
