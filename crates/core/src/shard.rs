//! Sharded scatter-gather search: one logical index, N physical shards.
//!
//! A [`ShardedIndex`] partitions a dataset into `N` deterministic
//! contiguous slices (see [`partition`]), builds one ordinary engine index
//! per slice ([`MemoryIndex`] or [`DiskIndex`]), and answers every
//! [`QuerySpec`] cell by scattering the batch to all shards and gathering
//! one global answer — the classic first step from "one index on one
//! machine" toward distributed data-series indexing.
//!
//! Two properties make the gather exact and fast:
//!
//! * **Global positions.** Each shard's kernels record candidate
//!   positions rebased by the shard's first global position (an
//!   [`OffsetTopK`](dsidx_sync::OffsetTopK) view), so the deterministic
//!   `(distance, lowest global position)` tie-break of a monolithic index
//!   is preserved bit-for-bit.
//! * **Mid-flight BSF sharing.** At exact fidelity all shards feed *one*
//!   [`SharedPruners`] collector per query: a tight match found in shard
//!   0 immediately raises the abandon threshold shards `1..N` prune
//!   against, so the total candidates verified shrinks below what `N`
//!   independent searches would pay. Sharing only ever *tightens*
//!   thresholds, so exact answers stay element-wise bit-identical to a
//!   monolithic index over the concatenated dataset. (The `shards` bench
//!   experiment asserts the candidate-count win against one independent
//!   index per [`partition`] slice.)
//!
//! At approximate fidelity each shard's tree is probed independently (the
//! per-shard trees are not the monolith's tree, so there is no shared
//! threshold to maintain) and the coordinator keeps the `k` best
//! `(distance, global position)` pairs — still deterministic, and still
//! subject to the approximate contract (distances never beat exact ones
//! at the same rank).
//!
//! Shards search in parallel on plain scoped threads; the engines' pool
//! broadcasts all go through the per-size cached global
//! [`WorkerPool`](dsidx_sync::WorkerPool), so `N` shards share one pool
//! instead of spawning `N * threads` workers. ADS+ scans on the one-worker
//! pool, so its shards' scans take turns.

use crate::answers::Answers;
use crate::engine::{trace_search, DiskIndex, Engine, Index, MemoryIndex};
use crate::error::{check_series_count, Error};
use crate::options::Options;
use crate::search::Search;
use crate::spec::{Fidelity, QuerySpec};
use dsidx_obs::phase::{Phase, PhaseClock};
use dsidx_query::{BatchStats, QueryStats, SeriesFetcher, ShardView, SharedPruners};
use dsidx_series::{Dataset, Match};
use dsidx_storage::{DatasetFile, Device, DeviceProfile, FlakySource, RawSource, StorageError};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shard-labeled search latency histogram (nanoseconds per shard per
/// `search` call).
const SHARD_SEARCH_NANOS: &str = "dsidx_shard_search_nanos";
/// Shard-labeled count of candidates verified (real distances fully
/// computed) — the number the BSF-sharing win shrinks.
const SHARD_VERIFIED_TOTAL: &str = "dsidx_shard_verified_total";

/// The deterministic contiguous partition rule: `total` series over
/// `shards` slices, slice `i` holding `total / shards` series plus one
/// extra for the first `total % shards` slices, each starting where the
/// previous one ended. Shard `i`'s first global position is
/// `ranges[i].start`.
///
/// # Panics
/// Panics if `shards == 0`.
#[must_use]
pub fn partition(total: usize, shards: usize) -> Vec<Range<usize>> {
    assert!(shards > 0, "at least one shard");
    let (each, extra) = (total / shards, total % shards);
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = each + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Per-shard answer: the shard-local matches plus its merged stats.
type ShardOutput = Result<(Vec<Vec<Match>>, BatchStats), Error>;

/// One shard: an ordinary engine index over a contiguous slice, plus the
/// slice's global offset and an optional fault-injecting source override.
struct Shard<S> {
    index: Index<S>,
    base: u32,
    count: usize,
    flaky: Option<FlakySource>,
}

impl<S> Shard<S> {
    /// Runs the (already validated) spec on this shard, reading raw series
    /// from `own` — the shard's own source — or from its fault-injecting
    /// override, and feeding the cross-shard pruners when `view` is set.
    fn run(
        &self,
        own: &impl RawSource,
        queries: &[&[f32]],
        spec: &QuerySpec,
        view: Option<ShardView<'_>>,
    ) -> ShardOutput {
        match &self.flaky {
            Some(flaky) => self.index.run(flaky, queries, spec, view),
            None => self.index.run(own, queries, spec, view),
        }
    }
}

/// The shards of one index — all of one residence.
enum Shards {
    Memory(Vec<Shard<Arc<Dataset>>>),
    Disk(Vec<Shard<DatasetFile>>),
}

/// Positions `range` of `source` as a dataset of their own.
fn slice_of(source: &impl RawSource, range: Range<usize>) -> Result<Dataset, Error> {
    let series_len = source.series_len();
    let mut flat = Vec::with_capacity(range.len() * series_len);
    let mut fetcher = SeriesFetcher::new(source);
    for pos in range {
        flat.extend_from_slice(fetcher.fetch(pos)?);
    }
    Ok(Dataset::from_flat(flat, series_len)?)
}

/// The per-shard assembly loop behind all four constructors: one index per
/// [`partition`] slice of `total` series, from `index_for(shard, slice)`.
/// A storage failure is labeled with its shard, every index must report
/// `engine` (an opened snapshot names its own), and every index must hold
/// exactly its slice's series — a manifest whose slices were shifted
/// consistently with its `total` still passes [`ManifestShard::check_slice`],
/// but not this.
fn assemble<S>(
    total: usize,
    shards: usize,
    engine: Engine,
    mut index_for: impl FnMut(usize, Range<usize>) -> Result<Index<S>, Error>,
) -> Result<Vec<Shard<S>>, Error> {
    // Positions are global across the shards, so the sum must fit them.
    check_series_count(total)?;
    let mut built = Vec::with_capacity(shards);
    for (s, range) in partition(total, shards).into_iter().enumerate() {
        let index = index_for(s, range.clone()).map_err(|e| for_shard(e, s))?;
        if index.engine() != engine {
            return Err(manifest_corrupt(format!(
                "shard {s} snapshot was saved with engine {}, manifest says {}",
                index.engine().name(),
                engine.name()
            )));
        }
        let held = index.stats().entry_count;
        if held != range.len() {
            return Err(manifest_corrupt(format!(
                "shard {s} holds {held} series but the manifest gives it {} — the manifest was \
                 edited or truncated",
                range.len()
            )));
        }
        built.push(Shard {
            index,
            base: u32::try_from(range.start).expect("dataset positions fit in u32"),
            count: range.len(),
            flaky: None,
        });
    }
    Ok(built)
}

/// Labels a storage failure with the shard it happened in.
fn for_shard(e: Error, shard: usize) -> Error {
    match e {
        Error::Storage(err) => Error::Storage(err.for_shard(shard as u64)),
        other => other,
    }
}

/// One logical index over `N` engine shards, searched scatter-gather with
/// mid-flight BSF sharing (see the [module docs](self)).
///
/// Implements [`Search`], so every `QuerySpec` cell — engine × measure ×
/// fidelity × single/batch — drops in unchanged:
///
/// ```
/// use dsidx::prelude::*;
/// use dsidx::ShardedIndex;
///
/// let data = DatasetKind::Synthetic.generate(1_000, 64, 9);
/// let queries = DatasetKind::Synthetic.queries(2, 64, 9);
/// let sharded =
///     ShardedIndex::build_in_memory(&data, 4, Engine::Messi, &Options::default()).unwrap();
/// let monolith = MemoryIndex::build(data, Engine::Messi, &Options::default()).unwrap();
///
/// let batch: Vec<&[f32]> = queries.iter().collect();
/// let spec = QuerySpec::knn(5);
/// // Exact answers are element-wise bit-identical to the monolith.
/// assert_eq!(
///     sharded.search(&batch, &spec).unwrap().matches(),
///     monolith.search(&batch, &spec).unwrap().matches(),
/// );
/// ```
pub struct ShardedIndex {
    shards: Shards,
    engine: Engine,
    series_len: usize,
    total: usize,
}

impl ShardedIndex {
    /// `shards` as one logical index.
    fn new(shards: Shards, engine: Engine, series_len: usize, total: usize) -> Self {
        Self {
            shards,
            engine,
            series_len,
            total,
        }
    }

    /// Builds `shards` in-memory engine indexes, one per [`partition`]
    /// slice of `data`.
    ///
    /// # Errors
    /// Configuration errors (series length vs segments etc.).
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn build_in_memory(
        data: &Dataset,
        shards: usize,
        engine: Engine,
        options: &Options,
    ) -> Result<Self, Error> {
        let built = assemble(data.len(), shards, engine, |_, range| {
            MemoryIndex::build(slice_of(data, range)?, engine, options)
        })?;
        let shards = Shards::Memory(built);
        Ok(Self::new(shards, engine, data.series_len(), data.len()))
    }

    /// Splits the dataset file at `dataset_path` into `shards` contiguous
    /// shard files inside `workdir` (the split itself is unthrottled
    /// preparation) and builds one on-disk engine index per shard, each
    /// charging its build and query reads to the modeled `profile`.
    ///
    /// # Errors
    /// I/O and configuration failures.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn build_on_disk(
        dataset_path: &Path,
        workdir: &Path,
        shards: usize,
        engine: Engine,
        options: &Options,
        profile: DeviceProfile,
    ) -> Result<Self, Error> {
        let device = Arc::new(Device::unthrottled());
        let file = DatasetFile::open(dataset_path, Arc::clone(&device))?;
        std::fs::create_dir_all(workdir).map_err(StorageError::from)?;
        // The split dataset files of concurrent (or repeated) sharded
        // builds in one process must not collide.
        let stem = dsidx_storage::unique_stem();
        let built = assemble(file.count(), shards, engine, |s, range| {
            let shard_path = workdir.join(format!("dsidx-shard-{stem}-{s}.dsidx"));
            let part = slice_of(&file, range)?;
            dsidx_storage::write_dataset(&shard_path, &part, Arc::clone(&device))?;
            DiskIndex::build(&shard_path, workdir, engine, options, profile)
        })?;
        let shards = Shards::Disk(built);
        Ok(Self::new(shards, engine, file.series_len(), file.count()))
    }

    /// Saves the sharded index as one snapshot artifact per shard inside
    /// `dir` (`shard-<i>.snap`), described by a plain-text `MANIFEST`
    /// file. [`open_in_memory`](Self::open_in_memory) and
    /// [`open_on_disk`](Self::open_on_disk) reopen the whole thing from
    /// the manifest. Returns the total bytes written across all
    /// artifacts.
    ///
    /// The manifest records each shard's residence, slice (`base`,
    /// `count`), snapshot file name, and — for on-disk shards — the
    /// absolute path of its shard dataset file, so a disk reopen needs
    /// only the directory.
    ///
    /// # Errors
    /// I/O failures creating `dir` or writing any artifact.
    pub fn save(&self, dir: &Path) -> Result<u64, Error> {
        std::fs::create_dir_all(dir).map_err(StorageError::from)?;
        let mut manifest = format!(
            "dsidx-snapshot-manifest v1\nengine {}\nseries_len {}\ntotal {}\nshards {}\n",
            self.engine.name(),
            self.series_len,
            self.total,
            self.shard_count()
        );
        let shard_bytes = match &self.shards {
            Shards::Memory(shards) => {
                save_shards(shards, dir, "memory", &mut manifest, |m, path| {
                    Ok((m.save(path)?, "-".to_string()))
                })
            }
            Shards::Disk(shards) => save_shards(shards, dir, "disk", &mut manifest, |d, path| {
                // Absolute, so the manifest can be followed from any
                // working directory, whatever path the file was opened by.
                let dataset = std::fs::canonicalize(d.file().path()).map_err(StorageError::from)?;
                Ok((d.save(path)?, dataset.display().to_string()))
            }),
        }?;
        std::fs::write(dir.join("MANIFEST"), &manifest).map_err(StorageError::from)?;
        Ok(shard_bytes + manifest.len() as u64)
    }

    /// Reopens a saved sharded index over `data` — the same concatenated
    /// dataset it was built from — with every shard answering in memory.
    /// Works for snapshots saved from either residence (the per-shard
    /// trees are identical); the manifest's slices are re-cut from `data`
    /// and each must match the recorded `(base, count)`.
    ///
    /// # Errors
    /// [`Error::Storage`] for a missing/malformed manifest, a manifest
    /// that does not match `data`, or any per-shard snapshot failure.
    pub fn open_in_memory(dir: &Path, data: &Dataset, options: &Options) -> Result<Self, Error> {
        let m = Manifest::read(dir)?;
        if m.series_len != data.series_len() || m.total != data.len() {
            return Err(manifest_corrupt(format!(
                "manifest describes {} series of length {}, dataset has {} of length {} — is \
                 this the right dataset?",
                m.total,
                m.series_len,
                data.len(),
                data.series_len()
            )));
        }
        let built = assemble(m.total, m.shards.len(), m.engine, |s, range| {
            let entry = &m.shards[s];
            entry.check_slice(s, &range)?;
            MemoryIndex::open(&dir.join(&entry.file), slice_of(data, range)?, options)
        })?;
        let shards = Shards::Memory(built);
        Ok(Self::new(shards, m.engine, m.series_len, m.total))
    }

    /// Reopens a saved on-disk sharded index from `dir` alone: each
    /// shard's snapshot is re-paired with the shard dataset file the
    /// manifest recorded, on a fresh device with the given profile.
    ///
    /// # Errors
    /// [`Error::Storage`] for a missing/malformed manifest, manifests
    /// whose shards were not saved from disk, a moved/deleted shard
    /// dataset file, or any per-shard snapshot failure.
    pub fn open_on_disk(
        dir: &Path,
        options: &Options,
        profile: DeviceProfile,
    ) -> Result<Self, Error> {
        let m = Manifest::read(dir)?;
        let built = assemble(m.total, m.shards.len(), m.engine, |s, range| {
            let entry = &m.shards[s];
            entry.check_slice(s, &range)?;
            let (true, Some(dataset)) = (entry.on_disk, &entry.dataset) else {
                return Err(manifest_corrupt(format!(
                    "shard {s} was saved from memory; open_on_disk needs shards saved from disk \
                     (use open_in_memory)"
                )));
            };
            DiskIndex::open(&dir.join(&entry.file), Path::new(dataset), options, profile)
        })?;
        let shards = Shards::Disk(built);
        Ok(Self::new(shards, m.engine, m.series_len, m.total))
    }

    /// The engine every shard was built with.
    #[must_use]
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        match &self.shards {
            Shards::Memory(shards) => shards.len(),
            Shards::Disk(shards) => shards.len(),
        }
    }

    /// Total series indexed across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.total
    }

    /// `true` for an index over zero series.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Test support: wraps shard `shard`'s raw reads in a
    /// [`FlakySource`] allowing `reads_before_failure` successful reads
    /// before every read fails — the shape of one shard's device dying
    /// mid-query. Errors surface as `during <phase> (shard <s>, ...)`.
    ///
    /// # Errors
    /// I/O failures while materializing an on-disk shard.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn fault_inject_shard(
        &mut self,
        shard: usize,
        reads_before_failure: u64,
    ) -> Result<(), Error> {
        let (data, slot) = match &mut self.shards {
            Shards::Memory(shards) => {
                let shard = &mut shards[shard];
                (shard.index.data().clone(), &mut shard.flaky)
            }
            Shards::Disk(shards) => {
                let shard = &mut shards[shard];
                let file = shard.index.file();
                (slice_of(file, 0..file.count())?, &mut shard.flaky)
            }
        };
        *slot = Some(FlakySource::new(data, reads_before_failure));
        Ok(())
    }

    /// The scatter-gather coordinator behind [`Search::search`], over
    /// shards of either residence; `own` names a shard index's raw source.
    /// The spec is validated here, once for all shards.
    fn scatter_gather<S: Sync, R: RawSource>(
        &self,
        shards: &[Shard<S>],
        own: fn(&Index<S>) -> &R,
        queries: &[&[f32]],
        spec: &QuerySpec,
    ) -> ShardOutput {
        let mut clock = PhaseClock::start();
        spec.validate(self.series_len, queries)?;
        let validate_nanos = clock.lap();
        let exact = matches!(spec.fidelity_kind(), Fidelity::Exact);
        // Sized like `Index::run` sizes its collectors: by `k`, clamped to
        // the series held.
        let k = spec.k().min(self.total).max(1);
        let pruners = exact.then(|| SharedPruners::new(queries.len(), k));

        // Scatter: one coordinator thread per shard. These must be plain
        // threads, never pool tasks — the engines broadcast on the shared
        // global pool, and broadcasting from inside a pool task
        // self-deadlocks. Broadcasts from different shards serialize on
        // the pool's run lock; the serial parts overlap.
        let results: Vec<(ShardOutput, Duration)> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .enumerate()
                .map(|(s, shard)| {
                    let pruners = pruners.as_ref();
                    scope.spawn(move || {
                        let start = Instant::now();
                        let view = pruners.map(|p| p.view(shard.base));
                        let out = shard
                            .run(own(&shard.index), queries, spec, view)
                            .map_err(|e| for_shard(e, s));
                        (out, start.elapsed())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard search thread panicked"))
                .collect()
        });

        // Gather: propagate the first failure (in shard order, for a
        // deterministic report), merge the stats, record per-shard obs.
        let mut parts = Vec::with_capacity(results.len());
        for (s, (result, elapsed)) in results.into_iter().enumerate() {
            let (matches, stats) = result?;
            record_shard_obs(s, elapsed, &stats);
            parts.push((matches, stats));
        }

        let matches = match &pruners {
            // BSF sharing: the collectors already hold the global answer
            // (global positions, deduped, `(distance, position)`-ordered).
            Some(p) => p.matches(),
            // Approximate fidelity, each shard probed independently:
            // rebase local positions and keep the k smallest `(distance,
            // global position)` pairs per query.
            None => {
                let mut merged: Vec<Vec<Match>> = vec![Vec::new(); queries.len()];
                for (shard, (shard_matches, _)) in shards.iter().zip(&parts) {
                    for (qi, ms) in shard_matches.iter().enumerate() {
                        merged[qi]
                            .extend(ms.iter().map(|m| Match::new(shard.base + m.pos, m.dist_sq)));
                    }
                }
                for ms in &mut merged {
                    ms.sort_unstable_by(|a, b| {
                        a.dist_sq
                            .partial_cmp(&b.dist_sq)
                            .expect("finite distances")
                            .then(a.pos.cmp(&b.pos))
                    });
                    ms.truncate(spec.k());
                }
                merged
            }
        };

        if pruners.is_some() && dsidx_obs::trace::enabled() {
            trace_bsf_wins(shards, &matches);
        }

        let mut stats = BatchStats {
            per_query: vec![QueryStats::default(); queries.len()],
            ..BatchStats::default()
        };
        stats.shared.phase.record(Phase::Prepare, validate_nanos);
        for (_, p) in &parts {
            stats.broadcasts += p.broadcasts;
            stats.series_fetched += p.series_fetched;
            stats.series_requests += p.series_requests;
            stats.shared = stats.shared.merged(&p.shared);
            for (m, q) in stats.per_query.iter_mut().zip(&p.per_query) {
                *m = m.merged(q);
            }
        }
        Ok((matches, stats))
    }
}

/// Saves every shard's snapshot into `dir` and appends its `shard` line to
/// `manifest`; `save` writes one index and names its dataset file for the
/// line. Returns the bytes written.
fn save_shards<S>(
    shards: &[Shard<S>],
    dir: &Path,
    kind: &str,
    manifest: &mut String,
    save: impl Fn(&Index<S>, &Path) -> Result<(u64, String), Error>,
) -> Result<u64, Error> {
    let mut total_bytes = 0;
    for (s, shard) in shards.iter().enumerate() {
        let file = format!("shard-{s}.snap");
        let (bytes, dataset) = save(&shard.index, &dir.join(&file))?;
        total_bytes += bytes;
        manifest.push_str(&format!(
            "shard {s} {kind} {} {} {file} {dataset}\n",
            shard.base, shard.count
        ));
    }
    Ok(total_bytes)
}

fn manifest_corrupt(msg: String) -> Error {
    Error::Storage(StorageError::Corrupt(msg))
}

/// One `shard ...` line of a sharded-snapshot `MANIFEST`.
struct ManifestShard {
    on_disk: bool,
    base: u32,
    count: usize,
    file: String,
    /// Absolute path of the shard's dataset file (`None` when the shard
    /// was saved from memory — the manifest records `-`).
    dataset: Option<String>,
}

impl ManifestShard {
    /// The recorded slice must be the one [`partition`] re-derives —
    /// otherwise global positions would silently shift.
    fn check_slice(&self, shard: usize, range: &Range<usize>) -> Result<(), Error> {
        if self.base as usize != range.start || self.count != range.len() {
            return Err(manifest_corrupt(format!(
                "shard {shard} records slice ({}, {}) but the partition rule gives ({}, {}) — the \
                 manifest was edited or truncated",
                self.base,
                self.count,
                range.start,
                range.len()
            )));
        }
        Ok(())
    }
}

/// The parsed `MANIFEST` of a sharded snapshot directory.
struct Manifest {
    engine: Engine,
    series_len: usize,
    total: usize,
    shards: Vec<ManifestShard>,
}

impl Manifest {
    fn read(dir: &Path) -> Result<Self, Error> {
        let path = dir.join("MANIFEST");
        let text = std::fs::read_to_string(&path).map_err(StorageError::from)?;
        let mut lines = text.lines();
        if lines.next() != Some("dsidx-snapshot-manifest v1") {
            return Err(manifest_corrupt(format!(
                "{} is not a dsidx sharded-snapshot manifest (bad first line)",
                path.display()
            )));
        }
        let mut engine = None;
        let mut series_len = None;
        let mut total = None;
        let mut declared = None;
        let mut shards: Vec<ManifestShard> = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let bad = |what: &str| {
                manifest_corrupt(format!("manifest line `{line}` has a malformed {what}"))
            };
            match line.split_once(' ') {
                Some(("engine", name)) => {
                    engine = Some(name.parse::<Engine>().map_err(|_| bad("engine name"))?);
                }
                Some(("series_len", v)) => {
                    series_len = Some(v.parse::<usize>().map_err(|_| bad("series length"))?);
                }
                Some(("total", v)) => {
                    total = Some(v.parse::<usize>().map_err(|_| bad("total"))?);
                }
                Some(("shards", v)) => {
                    declared = Some(v.parse::<usize>().map_err(|_| bad("shard count"))?);
                }
                Some(("shard", rest)) => {
                    // `<i> <kind> <base> <count> <file> <dataset>` — the
                    // dataset path comes last and may itself contain
                    // spaces, hence the bounded split.
                    let fields: Vec<&str> = rest.splitn(6, ' ').collect();
                    let [i, kind, base, count, file, dataset] = fields[..] else {
                        return Err(bad("shard record"));
                    };
                    let on_disk = match kind {
                        "disk" => true,
                        "memory" => false,
                        _ => return Err(bad("residence")),
                    };
                    let index = i.parse::<usize>().map_err(|_| bad("shard number"))?;
                    if index != shards.len() {
                        return Err(manifest_corrupt(format!(
                            "manifest shard records are out of order at shard {index}"
                        )));
                    }
                    shards.push(ManifestShard {
                        on_disk,
                        base: base.parse().map_err(|_| bad("base"))?,
                        count: count.parse().map_err(|_| bad("count"))?,
                        file: file.to_string(),
                        dataset: (dataset != "-").then(|| dataset.to_string()),
                    });
                }
                _ => {
                    return Err(manifest_corrupt(format!(
                        "manifest has an unrecognized line `{line}`"
                    )))
                }
            }
        }
        let missing = |what: &str| manifest_corrupt(format!("manifest is missing its {what} line"));
        let engine = engine.ok_or_else(|| missing("engine"))?;
        let series_len = series_len.ok_or_else(|| missing("series_len"))?;
        let total = total.ok_or_else(|| missing("total"))?;
        let declared = declared.ok_or_else(|| missing("shards"))?;
        if declared != shards.len() || shards.is_empty() {
            return Err(manifest_corrupt(format!(
                "manifest declares {declared} shards but records {} (truncated?)",
                shards.len()
            )));
        }
        Ok(Self {
            engine,
            series_len,
            total,
            shards,
        })
    }
}

impl Search for ShardedIndex {
    fn search(&self, queries: &[&[f32]], spec: &QuerySpec) -> Result<Answers, Error> {
        trace_search("sharded", self.engine, queries.len(), spec);
        let (matches, stats) = match &self.shards {
            Shards::Memory(shards) => self.scatter_gather(shards, MemoryIndex::data, queries, spec),
            Shards::Disk(shards) => self.scatter_gather(shards, DiskIndex::file, queries, spec),
        }?;
        Ok(Answers::new(
            matches,
            spec.stats_requested().then_some(stats),
        ))
    }
}

/// Records one shard's contribution to the labeled registry metrics and
/// the trace stream: search latency under `dsidx_shard_search_nanos`,
/// candidates verified under `dsidx_shard_verified_total`, plus a
/// `shard_search` trace event carrying both.
fn record_shard_obs(shard: usize, elapsed: Duration, stats: &BatchStats) {
    let verified =
        stats.shared.real_computed + stats.per_query.iter().map(|q| q.real_computed).sum::<u64>();
    let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    if dsidx_obs::enabled() {
        let label = shard.to_string();
        // 1us .. ~4s per shard search.
        let bounds = dsidx_obs::registry::exponential_bounds(1_000, 4, 12);
        dsidx_obs::registry::labeled_histogram(
            SHARD_SEARCH_NANOS,
            "Nanoseconds one shard spent answering its slice of a search",
            "shard",
            &label,
            &bounds,
        )
        .observe(nanos);
        dsidx_obs::registry::labeled_counter(
            SHARD_VERIFIED_TOTAL,
            "Candidates verified (real distances fully computed) per shard",
            "shard",
            &label,
        )
        .add(verified);
    }
    if dsidx_obs::trace::enabled() {
        use dsidx_obs::trace::Value;
        dsidx_obs::trace::emit(
            "shard_search",
            &[
                ("shard", Value::U64(shard as u64)),
                ("nanos", Value::U64(nanos)),
                ("verified", Value::U64(verified)),
            ],
        );
    }
}

/// Emits one `shard_bsf_win` trace event per (query, shard) whose inserts
/// survived into the final top-k — the shards whose candidates improved
/// the shared BSF and held their rank to the end.
fn trace_bsf_wins<S>(shards: &[Shard<S>], matches: &[Vec<Match>]) {
    use dsidx_obs::trace::Value;
    for (qi, ms) in matches.iter().enumerate() {
        for (s, shard) in shards.iter().enumerate() {
            let hi = shard.base + u32::try_from(shard.count).expect("shard sizes fit in u32");
            let entries = ms
                .iter()
                .filter(|m| m.pos >= shard.base && m.pos < hi)
                .count() as u64;
            if entries > 0 {
                dsidx_obs::trace::emit(
                    "shard_bsf_win",
                    &[
                        ("query", Value::U64(qi as u64)),
                        ("shard", Value::U64(s as u64)),
                        ("entries", Value::U64(entries)),
                    ],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Measure;
    use dsidx_series::gen::DatasetKind;

    #[test]
    fn partition_is_contiguous_and_balanced() {
        for total in [0usize, 1, 7, 100, 101, 103] {
            for shards in [1usize, 2, 3, 8] {
                let ranges = partition(total, shards);
                assert_eq!(ranges.len(), shards);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, total);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous");
                    assert!(
                        w[0].len() == w[1].len() || w[0].len() == w[1].len() + 1,
                        "larger slices come first"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_exact_matches_monolith_bit_for_bit() {
        let data = DatasetKind::Synthetic.generate(600, 64, 17);
        let opts = Options::default().with_threads(3).with_leaf_capacity(16);
        let qs = DatasetKind::Synthetic.queries(3, 64, 17);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        for engine in Engine::ALL {
            let monolith = MemoryIndex::build(data.clone(), engine, &opts).unwrap();
            for shards in [1usize, 3, 4] {
                let sharded = ShardedIndex::build_in_memory(&data, shards, engine, &opts).unwrap();
                assert_eq!(sharded.shard_count(), shards);
                assert_eq!(sharded.len(), 600);
                for spec in [
                    QuerySpec::nn(),
                    QuerySpec::knn(7),
                    QuerySpec::knn(4).measure(Measure::Dtw { band: 4 }),
                ] {
                    let want = monolith.search(&qrefs, &spec).unwrap();
                    let got = sharded.search(&qrefs, &spec).unwrap();
                    assert_eq!(
                        got.matches(),
                        want.matches(),
                        "{} shards={shards}",
                        engine.name()
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_snapshot_round_trips_in_memory() {
        let dir = std::env::temp_dir().join(format!("dsidx-shardsnap-{}", std::process::id()));
        let data = DatasetKind::Synthetic.generate(500, 64, 41);
        let opts = Options::default().with_threads(2).with_leaf_capacity(16);
        let qs = DatasetKind::Synthetic.queries(3, 64, 41);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let built = ShardedIndex::build_in_memory(&data, 3, Engine::Messi, &opts).unwrap();
        built.save(&dir).unwrap();
        let opened = ShardedIndex::open_in_memory(&dir, &data, &Options::default()).unwrap();
        assert_eq!(opened.shard_count(), 3);
        assert_eq!(opened.engine(), Engine::Messi);
        assert_eq!(opened.len(), 500);
        for spec in [QuerySpec::nn(), QuerySpec::knn(7)] {
            assert_eq!(
                opened.search(&qrefs, &spec).unwrap().matches(),
                built.search(&qrefs, &spec).unwrap().matches(),
            );
        }
        // The wrong dataset is refused up front, not answered wrongly.
        let other = DatasetKind::Synthetic.generate(499, 64, 41);
        let err = match ShardedIndex::open_in_memory(&dir, &other, &Options::default()) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("wrong dataset accepted"),
        };
        assert!(err.contains("right dataset"), "{err}");
    }

    #[test]
    fn sharded_snapshot_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("dsidx-shardsnap-d-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("full.dsidx");
        let data = DatasetKind::Synthetic.generate(400, 64, 43);
        dsidx_storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let opts = Options::default().with_threads(2).with_leaf_capacity(16);
        let built = ShardedIndex::build_on_disk(
            &path,
            &dir,
            3,
            Engine::ParisPlus,
            &opts,
            DeviceProfile::UNTHROTTLED,
        )
        .unwrap();
        let snapdir = dir.join("snap");
        built.save(&snapdir).unwrap();
        // Disk reopen: the manifest alone locates every shard artifact
        // and dataset file.
        let opened =
            ShardedIndex::open_on_disk(&snapdir, &Options::default(), DeviceProfile::UNTHROTTLED)
                .unwrap();
        assert_eq!(opened.engine(), Engine::ParisPlus);
        let qs = DatasetKind::Synthetic.queries(2, 64, 43);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let spec = QuerySpec::knn(5);
        assert_eq!(
            opened.search(&qrefs, &spec).unwrap().matches(),
            built.search(&qrefs, &spec).unwrap().matches(),
        );
        // The same artifacts also open in memory over the full dataset.
        let mem = ShardedIndex::open_in_memory(&snapdir, &data, &Options::default()).unwrap();
        assert_eq!(
            mem.search(&qrefs, &spec).unwrap().matches(),
            built.search(&qrefs, &spec).unwrap().matches(),
        );
        // A tampered manifest is a structured error naming the problem.
        let manifest = snapdir.join("MANIFEST");
        let text = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(&manifest, text.replace("shard 2 disk", "shard 2 memory")).unwrap();
        let err = match ShardedIndex::open_on_disk(
            &snapdir,
            &Options::default(),
            DeviceProfile::UNTHROTTLED,
        ) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("tampered manifest accepted"),
        };
        assert!(err.contains("shard 2"), "{err}");
    }

    #[test]
    fn a_manifest_shifted_consistently_with_its_total_is_refused() {
        // Two shards of 200, the manifest edited to 402 series in slices
        // (0, 201) and (201, 201): the partition rule agrees with it, but
        // the shard files still hold 200 each, so every position past the
        // first shard would come back shifted by one.
        let dir = std::env::temp_dir().join(format!("dsidx-shardsnap-s-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("full.dsidx");
        let data = DatasetKind::Synthetic.generate(400, 64, 47);
        dsidx_storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let opts = Options::default().with_threads(2).with_leaf_capacity(16);
        let profile = DeviceProfile::UNTHROTTLED;
        let built =
            ShardedIndex::build_on_disk(&path, &dir, 2, Engine::Messi, &opts, profile).unwrap();
        let snapdir = dir.join("snap");
        built.save(&snapdir).unwrap();
        let manifest = snapdir.join("MANIFEST");
        let text = std::fs::read_to_string(&manifest).unwrap();
        let edited = text
            .replace("total 400\n", "total 402\n")
            .replace("shard 0 disk 0 200 ", "shard 0 disk 0 201 ")
            .replace("shard 1 disk 200 200 ", "shard 1 disk 201 201 ");
        assert_eq!(edited.matches("201").count(), 3, "{edited}");
        std::fs::write(&manifest, edited).unwrap();
        let err = match ShardedIndex::open_on_disk(&snapdir, &Options::default(), profile) {
            Err(e) => e.to_string(),
            Ok(opened) => panic!("shifted manifest accepted: {} series", opened.len()),
        };
        assert!(err.contains("shard 0 holds 200 series"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_injected_shard_reports_shard_and_query_context() {
        let data = DatasetKind::Synthetic.generate(300, 64, 31);
        let opts = Options::default().with_threads(2).with_leaf_capacity(16);
        let qs = DatasetKind::Synthetic.queries(2, 64, 31);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let mut sharded = ShardedIndex::build_in_memory(&data, 3, Engine::Messi, &opts).unwrap();
        sharded.fault_inject_shard(1, 0).unwrap();
        // Exact: the error names the phase, the failing shard and the query
        // whose read failed (whichever a worker claimed first).
        let err = sharded
            .search(&qrefs, &QuerySpec::knn(3))
            .expect_err("shard 1 cannot read anything");
        let msg = err.to_string();
        assert!(
            msg.contains("during") && msg.contains("(shard 1, query "),
            "unexpected message: {msg}"
        );
        // Approximate: the per-query loop adds the query index too.
        let err = sharded
            .search(&qrefs, &QuerySpec::knn(3).fidelity(Fidelity::Approximate))
            .expect_err("shard 1 cannot read anything");
        let msg = err.to_string();
        assert!(
            msg.contains("(shard 1, query 0)"),
            "unexpected message: {msg}"
        );
        // The healthy shards still answer once the faulty one is benched.
        let healthy = ShardedIndex::build_in_memory(&data, 3, Engine::Messi, &opts).unwrap();
        assert!(healthy.search(&qrefs, &QuerySpec::knn(3)).is_ok());
    }
}
