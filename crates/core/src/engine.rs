//! The unified engine API: build once, query many.
//!
//! One index type, [`Index<S>`], holds a built engine beside the raw
//! source `S` it answers from; [`MemoryIndex`] and [`DiskIndex`] are its
//! two instantiations. Building, opening and saving are spelled per
//! residence because their arguments differ; everything else exists once.
//!
//! Querying goes through the **query plane**: describe the request with a
//! [`QuerySpec`] (how many neighbors, which [`Measure`], which
//! [`Fidelity`], stats or not) and execute it with
//! [`Search::search`] — one method, one internal dispatch (`Index::run`)
//! onto one exact entry point per query schedule (ParIS's scan of the
//! tree's entry words, which ADS+ runs at one worker, and MESSI's tree
//! traversal) and one approximate one per answer kind (the best-leaf visit
//! of ADS+ and MESSI, ParIS's sketch-nearest probe), batches as the native
//! shape (a single query is a batch of one). Every engine holds the same
//! thing, the flat tree it built; only the engine picks the schedule.

use crate::answers::Answers;
use crate::error::{check_series_count, Error};
use crate::options::Options;
use crate::search::Search;
use crate::snapshot::{hold_snapshot, open_snapshot, save_snapshot, SnapshotContents};
use crate::spec::{Fidelity, Measure, QuerySpec};
use dsidx_obs::phase::{Phase, PhaseClock};
use dsidx_obs::BuildReport;
use dsidx_query::{BatchStats, DtwPrepared, Prepared, PreparedQuery, ShardView};
use dsidx_series::{Dataset, Match};
use dsidx_storage::{DatasetFile, Device, DeviceProfile, EntryRuns, RawSource, StorageError};
use dsidx_tree::stats::{index_stats, IndexStats};
use dsidx_tree::FlatTree;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Which indexing engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// ADS+-style serial baseline: MESSI's build and ParIS's scan (the
    /// paper's SIMS made parallel), both at one worker whatever
    /// [`Options::threads`] says. Its approximate answer is the best-leaf
    /// visit, and its exact DTW the UCR scan.
    Ads,
    /// ParIS (parallel, stop-the-world stage 3).
    Paris,
    /// ParIS+ (parallel, fully overlapped construction). On-disk only;
    /// in-memory builds fall back to ParIS, which the paper itself uses
    /// for in-memory comparisons.
    ParisPlus,
    /// MESSI (parallel, tree-traversing queries). The paper's in-memory
    /// engine; here it also builds over a dataset file (streaming
    /// summarization) and answers with raw reads charged to the modeled
    /// device, so all four engines compete on one storage plane.
    Messi,
}

impl Engine {
    /// All engines.
    pub const ALL: [Engine; 4] = [Engine::Ads, Engine::Paris, Engine::ParisPlus, Engine::Messi];

    /// Display name matching the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Ads => "ADS+",
            Engine::Paris => "ParIS",
            Engine::ParisPlus => "ParIS+",
            Engine::Messi => "MESSI",
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ads" | "ads+" => Ok(Engine::Ads),
            "paris" => Ok(Engine::Paris),
            "paris+" | "parisplus" => Ok(Engine::ParisPlus),
            "messi" => Ok(Engine::Messi),
            other => Err(format!("unknown engine: {other}")),
        }
    }
}

impl Engine {
    /// The workers this engine builds and scans with: ADS+ is the serial
    /// baseline, every other engine takes [`Options::effective_threads`].
    fn workers(self, options: &Options) -> usize {
        match self {
            Engine::Ads => 1,
            _ => options.effective_threads(),
        }
    }
}

/// Emits one `search` trace event per [`Search::search`] call when the
/// structured trace stream is on (`DSIDX_TRACE`); one relaxed atomic load
/// when it is off.
pub(crate) fn trace_search(
    residence: &'static str,
    engine: Engine,
    queries: usize,
    spec: &QuerySpec,
) {
    if !dsidx_obs::trace::enabled() {
        return;
    }
    use dsidx_obs::trace::Value;
    let measure = match spec.measure_kind() {
        Measure::Euclidean => "euclidean",
        Measure::Dtw { .. } => "dtw",
    };
    let exact = matches!(spec.fidelity_kind(), Fidelity::Exact);
    dsidx_obs::trace::emit(
        "search",
        &[
            ("residence", Value::Str(residence)),
            ("engine", Value::Str(engine.name())),
            ("queries", Value::U64(queries as u64)),
            ("k", Value::U64(spec.k() as u64)),
            ("measure", Value::Str(measure)),
            ("exact", Value::Bool(exact)),
        ],
    );
}

/// A built index beside the raw source `S` it answers from. Use it through
/// its two instantiations: [`MemoryIndex`] (the dataset in memory, owned
/// via `Arc`) and [`DiskIndex`] (a dataset file, raw values fetched from —
/// and charged to — the modeled device at query time).
pub struct Index<S> {
    source: S,
    engine: Engine,
    options: Options,
    /// The flat iSAX tree every engine builds and queries, with the
    /// configuration it was built under.
    tree: FlatTree,
    /// The tree's entry runs on disk, which an on-disk ParIS/ParIS+ index
    /// reads a leaf back from: the `WORDS` and `POSITION` sections of its
    /// snapshot, the one its build wrote and holds unlinked or the one it
    /// was opened from (none for any other index).
    leaves: Option<EntryRuns>,
    /// Build time decomposition (none for an opened index).
    build_report: Option<BuildReport>,
}

/// An index over an in-memory dataset (owned via `Arc`, so clones of the
/// handle share both data and index).
pub type MemoryIndex = Index<Arc<Dataset>>;

/// An index over an on-disk dataset file; raw values are fetched (and
/// charged to the device) at query time.
pub type DiskIndex = Index<DatasetFile>;

impl<S> Index<S> {
    /// The engine this index was built with.
    #[must_use]
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Structural statistics of the underlying tree.
    #[must_use]
    pub fn stats(&self) -> IndexStats {
        index_stats(&self.tree)
    }

    /// Where the build's wall time went (see [`BuildReport`]): `Some` for
    /// every built index, `None` for one opened from a snapshot.
    #[must_use]
    pub fn build_report(&self) -> Option<&BuildReport> {
        self.build_report.as_ref()
    }

    /// Pairs a decoded snapshot with the `source` it was opened over. The
    /// engine and tree geometry come from the snapshot: the corresponding
    /// fields of `options` are overridden, so queries run with the
    /// geometry the tree was actually built with. A ParIS/ParIS+ index
    /// reads its leaves back from `leaves`, the snapshot's own entry runs,
    /// when it answers on disk; the other engines drop them.
    fn from_snapshot(
        source: S,
        SnapshotContents { engine, tree }: SnapshotContents,
        options: &Options,
        leaves: Option<EntryRuns>,
    ) -> Self {
        let config = tree.config();
        Self {
            source,
            engine,
            options: options
                .clone()
                .with_segments(config.segments())
                .with_leaf_capacity(config.leaf_capacity()),
            leaves: leaves.filter(|_| matches!(engine, Engine::Paris | Engine::ParisPlus)),
            tree,
            build_report: None,
        }
    }

    /// The one dispatch behind [`Search::search`]: every (fidelity,
    /// engine, measure) cell maps to one engine entry point, so adding an
    /// axis value is adding a match arm — never a method family. The spec
    /// must already be validated against `queries` (every public `search`
    /// does that once, at its boundary).
    ///
    /// Raw candidate reads go to `source` — the index's own, or a
    /// fault-injecting stand-in under a [`ShardedIndex`](crate::ShardedIndex)
    /// — and, when `shard` is set, the exact cells feed the cross-shard
    /// pruners so a tight match in another shard raises this index's
    /// abandon thresholds mid-flight. The approximate cells ignore `shard`
    /// (per-shard trees probe independently; the coordinator merges
    /// post-hoc).
    pub(crate) fn run<R: RawSource>(
        &self,
        source: &R,
        queries: &[&[f32]],
        spec: &QuerySpec,
        shard: Option<ShardView<'_>>,
    ) -> Result<(Vec<Vec<Match>>, BatchStats), Error> {
        // No answer holds more matches than the index holds series: clamp
        // `k` here, once, so no collector is sized by a larger one.
        let k = spec.k().min(self.tree.entry_count()).max(1);
        let measure = spec.measure_kind();
        let threads = self.options.effective_threads();
        let (tree, quantizer) = (&self.tree, self.tree.config().quantizer());
        Ok(match (spec.fidelity_kind(), self.engine, measure) {
            (Fidelity::Exact, Engine::Messi, _) => {
                dsidx_messi::exact(tree, source, queries, measure, k, threads, shard)
            }
            (
                Fidelity::Exact,
                Engine::Ads | Engine::Paris | Engine::ParisPlus,
                Measure::Euclidean,
            ) => {
                let (leaves, workers) = (self.leaves.as_ref(), self.engine.workers(&self.options));
                dsidx_paris::exact(tree, leaves, source, queries, k, workers, shard)
            }
            // The scan engines have no DTW index path: the one UCR scan
            // over the raw source (still exact, just index-free).
            (
                Fidelity::Exact,
                Engine::Ads | Engine::Paris | Engine::ParisPlus,
                Measure::Dtw { .. },
            ) => dsidx_ucr::scan(source, queries, measure, k, threads, shard),
            (Fidelity::Approximate, _, Measure::Euclidean) => {
                self.approx(source, queries, k, |q| PreparedQuery::new(quantizer, q))
            }
            (Fidelity::Approximate, _, Measure::Dtw { band }) => {
                self.approx(source, queries, k, |q| DtwPrepared::new(quantizer, q, band))
            }
        }?)
    }

    /// The approximate cells, each query prepared by `prepare`: ParIS's
    /// sketch-nearest probe, or one best-leaf visit over the tree ADS+ and
    /// MESSI share. Either pays one pass per query and no broadcast, so
    /// the batch is a plain loop and its counters report per-query work
    /// only.
    fn approx<R: RawSource, Q: Prepared>(
        &self,
        source: &R,
        queries: &[&[f32]],
        k: usize,
        prepare: impl Fn(&[f32]) -> Q,
    ) -> Result<(Vec<Vec<Match>>, BatchStats), StorageError> {
        let mut matches = Vec::with_capacity(queries.len());
        let mut per_query = Vec::with_capacity(queries.len());
        let mut clock = PhaseClock::start();
        for (i, &q) in queries.iter().enumerate() {
            let prep = prepare(q);
            let prepare_nanos = clock.lap();
            let answer = match self.engine {
                Engine::Paris | Engine::ParisPlus => {
                    dsidx_paris::approx(&self.tree, source, q, &prep, k)
                }
                Engine::Ads | Engine::Messi => {
                    dsidx_query::approx_best_leaf(&self.tree, source, q, &prep, k)
                }
            };
            // The approximate visit is one seeding pass; engines that
            // annotated a more precise phase keep it (first wins).
            let (m, mut s) =
                answer.map_err(|e| e.in_phase(Phase::Seed.name()).for_query(i as u64))?;
            // Engines that time their own approximate visit already filled
            // the breakdown; charge the rest to the seeding phase they are.
            let nanos = clock.lap();
            if s.phase.is_zero() {
                s.phase.record(Phase::Seed, nanos);
            }
            s.phase.record(Phase::Prepare, prepare_nanos);
            matches.push(m);
            per_query.push(s);
        }
        Ok((
            matches,
            BatchStats {
                per_query,
                ..BatchStats::default()
            },
        ))
    }

    /// [`Search::search`] for either residence: validate once, dispatch,
    /// package. Validation is booked as the call's preparation phase.
    fn search_on<R: RawSource>(
        &self,
        source: &R,
        residence: &'static str,
        queries: &[&[f32]],
        spec: &QuerySpec,
    ) -> Result<Answers, Error> {
        trace_search(residence, self.engine, queries.len(), spec);
        let mut clock = PhaseClock::start();
        spec.validate(source.series_len(), queries)?;
        let validate_nanos = clock.lap();
        let (matches, mut stats) = self.run(source, queries, spec, None)?;
        stats.shared.phase.record(Phase::Prepare, validate_nanos);
        Ok(Answers::new(
            matches,
            spec.stats_requested().then_some(stats),
        ))
    }
}

impl MemoryIndex {
    /// Builds an index over `data` with the chosen engine.
    ///
    /// `Engine::ParisPlus` builds with the ParIS in-memory path (see
    /// [`Engine::ParisPlus`] docs).
    ///
    /// # Errors
    /// Configuration errors (series length vs segments etc.), and
    /// [`Error::TooManySeries`] past `u32::MAX` series.
    pub fn build(
        data: impl Into<Arc<Dataset>>,
        engine: Engine,
        options: &Options,
    ) -> Result<Self, Error> {
        let data = data.into();
        check_series_count(data.len())?;
        let series_len = data.series_len();
        let (tree, report) = match engine {
            Engine::Paris | Engine::ParisPlus => {
                dsidx_paris::build_in_memory(&data, &options.paris_config(series_len)?)
            }
            Engine::Ads | Engine::Messi => {
                let config = options.messi_config(series_len, engine.workers(options))?;
                dsidx_messi::build(&data, &config)
            }
        };
        Ok(Self {
            source: data,
            engine,
            options: options.clone(),
            tree,
            leaves: None,
            build_report: Some(report),
        })
    }

    /// Saves the built index as a snapshot file at `path`: the flat tree's
    /// arrays in the versioned container format (see the `snapshot` section
    /// of the README). The file is replaced whole, never rewritten in
    /// place. The dataset itself is *not* embedded — [`open`](Self::open) re-pairs the
    /// snapshot with the caller's dataset and cross-checks the
    /// fingerprint. Returns the snapshot size in bytes.
    ///
    /// # Errors
    /// I/O failures writing the file.
    pub fn save(&self, path: &Path) -> Result<u64, Error> {
        let device = Arc::new(Device::unthrottled());
        save_snapshot(path, self.engine, &self.tree, &device)
    }

    /// Opens a snapshot saved by [`save`](Self::save) over `data` — the
    /// same dataset the snapshot was built from. No tree construction
    /// happens: the sections are read straight into the flat tree and
    /// checked, so opening costs milliseconds where building costs seconds.
    ///
    /// The engine and tree geometry (segments, leaf capacity) come from
    /// the snapshot; the corresponding fields of `options` are
    /// overridden so queries run with the geometry the tree was actually
    /// built with. The opened index answers [`Search::search`]
    /// bit-identically to the index that was saved.
    ///
    /// # Errors
    /// [`Error::Storage`] for missing/truncated/corrupt snapshots and for
    /// a fingerprint that does not match `data` (wrong dataset), and
    /// [`Error::TooManySeries`] past `u32::MAX` series.
    pub fn open(
        path: &Path,
        data: impl Into<Arc<Dataset>>,
        options: &Options,
    ) -> Result<Self, Error> {
        let data = data.into();
        check_series_count(data.len())?;
        let device = Arc::new(Device::unthrottled());
        let (contents, _) = open_snapshot(path, &device, data.series_len(), data.len())?;
        Ok(Self::from_snapshot(data, contents, options, None))
    }

    /// The indexed dataset.
    #[must_use]
    pub fn data(&self) -> &Dataset {
        &self.source
    }
}

impl Search for MemoryIndex {
    fn search(&self, queries: &[&[f32]], spec: &QuerySpec) -> Result<Answers, Error> {
        self.search_on(self.data(), "memory", queries, spec)
    }
}

impl DiskIndex {
    /// Builds an index over the dataset file at `dataset_path`, modeling
    /// the given device profile. `workdir` is created if absent and
    /// briefly holds any engine scratch file; each is unlinked as soon as
    /// the build holds it open, so nothing is left behind.
    ///
    /// Every engine builds on disk: ADS+ and MESSI stream the file block
    /// by block (reads charged to the device), ParIS/ParIS+ run the
    /// paper's pipelined construction with a materialized leaf store, then
    /// write the snapshot [`save`](Self::save) would write and read leaves
    /// back from it as an [`open`](Self::open)ed index does (the write is
    /// charged to the device and booked in the report's `flush`).
    ///
    /// # Errors
    /// I/O and configuration failures, and [`Error::TooManySeries`] for a
    /// file of more than `u32::MAX` series (refused from its header,
    /// before any series is read).
    pub fn build(
        dataset_path: &Path,
        workdir: &Path,
        engine: Engine,
        options: &Options,
        profile: DeviceProfile,
    ) -> Result<Self, Error> {
        let device = Arc::new(Device::new(profile));
        let file = DatasetFile::open(dataset_path, device)?;
        check_series_count(file.count())?;
        let series_len = file.series_len();
        // One workdir setup for every engine (scratch files land here).
        std::fs::create_dir_all(workdir).map_err(StorageError::from)?;
        let (tree, leaves, report) = match engine {
            Engine::Paris | Engine::ParisPlus => {
                let mode = if engine == Engine::Paris {
                    dsidx_paris::Overlap::Paris
                } else {
                    dsidx_paris::Overlap::ParisPlus
                };
                // A leaf store and a snapshot per build, named apart from
                // any other build's in the same workdir (each file is
                // unlinked once its build holds it open).
                let stem = workdir.join(format!("dsidx-{}", dsidx_storage::unique_stem()));
                let (tree, mut report) = dsidx_paris::build_on_disk(
                    &file,
                    &stem.with_extension("leaves"),
                    &options.paris_config(series_len)?,
                    mode,
                )?;
                let written = Instant::now();
                let leaves =
                    hold_snapshot(&stem.with_extension("snap"), engine, &tree, file.device())?;
                let wrote = written.elapsed();
                report.flush += wrote;
                report.total += wrote;
                (tree, Some(leaves), report)
            }
            Engine::Ads | Engine::Messi => {
                let (tree, report) = dsidx_messi::build_from_file(
                    &file,
                    &options.messi_config(series_len, engine.workers(options))?,
                    options.block_series,
                )?;
                (tree, None, report)
            }
        };
        Ok(Self {
            source: file,
            engine,
            options: options.clone(),
            tree,
            leaves,
            build_report: Some(report),
        })
    }

    /// Saves the built index as a snapshot file at `path`: the flat tree's
    /// arrays, the same four sections for every engine (a ParIS leaf is
    /// read back from the tree's own entry runs, so there is no leaf store
    /// to embed), encoded afresh even where a built ParIS index holds such
    /// a file already. The file is replaced whole, never rewritten in
    /// place, so saving over the file an index was opened from is safe.
    /// The dataset file is *not* embedded; [`open`](Self::open) re-pairs
    /// the snapshot with it and cross-checks the fingerprint. The write is
    /// charged to this index's modeled device. Returns the snapshot size in
    /// bytes.
    ///
    /// # Errors
    /// I/O failures writing the snapshot.
    pub fn save(&self, path: &Path) -> Result<u64, Error> {
        save_snapshot(path, self.engine, &self.tree, self.source.device())
    }

    /// Opens a snapshot saved by [`save`](Self::save), re-pairing it with
    /// the dataset file at `dataset_path` on a device with the given
    /// profile. No tree construction happens — decode is one positioned
    /// read per section, all charged to the device — so opening costs
    /// milliseconds where building costs seconds of modeled I/O.
    ///
    /// ParIS/ParIS+ leaf reads are served straight from the `WORDS` and
    /// `POSITION` sections *inside* the snapshot file, through the handle
    /// the open read them with; no scratch files are written.
    /// The engine and tree geometry come from the snapshot (the
    /// corresponding `options` fields are overridden), and the opened
    /// index answers [`Search::search`] bit-identically to the one that
    /// was saved.
    ///
    /// # Errors
    /// [`Error::Storage`] for missing/truncated/corrupt snapshots and for
    /// a fingerprint that does not match the dataset file, and
    /// [`Error::TooManySeries`] for a dataset file of more than `u32::MAX`
    /// series.
    pub fn open(
        snapshot_path: &Path,
        dataset_path: &Path,
        options: &Options,
        profile: DeviceProfile,
    ) -> Result<Self, Error> {
        let device = Arc::new(Device::new(profile));
        let file = DatasetFile::open(dataset_path, Arc::clone(&device))?;
        check_series_count(file.count())?;
        let (contents, runs) =
            open_snapshot(snapshot_path, &device, file.series_len(), file.count())?;
        Ok(Self::from_snapshot(file, contents, options, Some(runs)))
    }

    /// The dataset file the index answers from.
    #[must_use]
    pub fn file(&self) -> &DatasetFile {
        &self.source
    }
}

impl Search for DiskIndex {
    fn search(&self, queries: &[&[f32]], spec: &QuerySpec) -> Result<Answers, Error> {
        self.search_on(self.file(), "disk", queries, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{InvalidOptions, InvalidSpec};
    use dsidx_query::QueryStats;
    use dsidx_series::gen::DatasetKind;

    /// One query's exact Euclidean k-NN, as a batch of one.
    fn knn(idx: &impl Search, q: &[f32], k: usize) -> Vec<Match> {
        idx.search(&[q], &QuerySpec::knn(k)).unwrap().into_single()
    }

    /// The `k = 1` case of [`knn`]; `None` for an empty collection.
    fn nn(idx: &impl Search, q: &[f32]) -> Option<Match> {
        idx.search(&[q], &QuerySpec::nn()).unwrap().into_nn()
    }

    /// One query's exact k-NN under banded DTW, with its work counters.
    fn knn_dtw(idx: &impl Search, q: &[f32], band: usize, k: usize) -> (Vec<Match>, QueryStats) {
        let spec = QuerySpec::knn(k)
            .measure(Measure::Dtw { band })
            .with_stats();
        let answers = idx.search(&[q], &spec).unwrap();
        let stats = answers.query_stats(0).expect("spec requested stats");
        (answers.into_single(), stats)
    }

    /// A dataset file whose header claims 2^32 series of length 1: sparse
    /// (`set_len` writes no data), so only the header is ever real.
    fn file_of_too_many_series(dir: &Path) -> std::path::PathBuf {
        use std::os::unix::fs::FileExt as _;
        let path = dir.join("too-many.dsidx");
        let writer =
            dsidx_storage::DatasetWriter::create(&path, 1, Arc::new(Device::unthrottled()))
                .unwrap();
        writer.finish().unwrap();
        let count = u64::from(u32::MAX) + 1;
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all_at(&count.to_le_bytes(), 16).unwrap();
        file.set_len(32 + count * 4).unwrap();
        path
    }

    #[test]
    fn collections_past_32_bit_positions_are_refused_before_any_read() {
        let dir = std::env::temp_dir().join(format!("dsidx-core-u32-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = file_of_too_many_series(&dir);
        let file = DatasetFile::open(&path, Arc::new(Device::unthrottled())).unwrap();
        assert_eq!(file.count() as u64, u64::from(u32::MAX) + 1);
        fn too_many<T>(r: Result<T, Error>) -> bool {
            matches!(r, Err(Error::TooManySeries { count }) if count == u64::from(u32::MAX) + 1)
        }
        for engine in Engine::ALL {
            let options = Options::default().with_threads(1);
            let built = DiskIndex::build(&path, &dir, engine, &options, DeviceProfile::SSD);
            assert!(too_many(built), "{} built", engine.name());
        }
        let missing = dir.join("no-such.snap");
        let opened = DiskIndex::open(&missing, &path, &Options::default(), DeviceProfile::SSD);
        assert!(too_many(opened), "refused before the snapshot is looked at");
        let sharded = crate::ShardedIndex::build_on_disk(
            &path,
            &dir,
            4,
            Engine::Messi,
            &Options::default(),
            DeviceProfile::SSD,
        );
        assert!(
            too_many(sharded),
            "the shards' sum is refused before any split"
        );
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(left.len(), 1, "nothing but the input was written");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_parsing_and_names() {
        assert_eq!("messi".parse::<Engine>().unwrap(), Engine::Messi);
        assert_eq!("ParIS+".parse::<Engine>().unwrap(), Engine::ParisPlus);
        assert_eq!("ads+".parse::<Engine>().unwrap(), Engine::Ads);
        assert!("foo".parse::<Engine>().is_err());
        assert_eq!(Engine::Messi.name(), "MESSI");
    }

    #[test]
    fn all_memory_engines_agree() {
        let data = DatasetKind::Synthetic.generate(400, 64, 77);
        let opts = Options::default().with_threads(4).with_leaf_capacity(16);
        let queries = DatasetKind::Synthetic.queries(5, 64, 77);
        let indexes: Vec<MemoryIndex> = Engine::ALL
            .iter()
            .map(|&e| MemoryIndex::build(data.clone(), e, &opts).unwrap())
            .collect();
        for q in queries.iter() {
            let want = dsidx_ucr::brute_force(&data, q).unwrap();
            for idx in &indexes {
                let got = nn(idx, q).unwrap();
                assert_eq!(got.pos, want.pos, "{}", idx.engine().name());
            }
        }
    }

    #[test]
    fn knn_agrees_with_brute_force_on_all_memory_engines() {
        let data = DatasetKind::Synthetic.generate(350, 64, 91);
        let opts = Options::default().with_threads(4).with_leaf_capacity(16);
        let queries = DatasetKind::Synthetic.queries(3, 64, 91);
        for engine in Engine::ALL {
            let idx = MemoryIndex::build(data.clone(), engine, &opts).unwrap();
            for q in queries.iter() {
                for k in [1usize, 7, 50] {
                    let want = dsidx_ucr::brute_force_knn(&data, q, k);
                    let got = knn(&idx, q, k);
                    assert_eq!(
                        got.iter().map(|m| m.pos).collect::<Vec<_>>(),
                        want.iter().map(|m| m.pos).collect::<Vec<_>>(),
                        "{} k={k}",
                        engine.name()
                    );
                }
                // nn is the k = 1 special case.
                let nearest = nn(&idx, q).unwrap();
                assert_eq!(knn(&idx, q, 1)[0], nearest, "{}", engine.name());
            }
        }
    }

    #[test]
    fn knn_batch_agrees_with_sequential_knn_on_all_memory_engines() {
        let data = DatasetKind::Synthetic.generate(300, 64, 37);
        let opts = Options::default().with_threads(4).with_leaf_capacity(16);
        let qs = DatasetKind::Synthetic.queries(6, 64, 37);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        for engine in Engine::ALL {
            let idx = MemoryIndex::build(data.clone(), engine, &opts).unwrap();
            let answers = idx.search(&qrefs, &QuerySpec::knn(5).with_stats()).unwrap();
            let stats = answers.stats().expect("spec requested stats");
            let batched = answers.matches();
            // The whole batch costs at most the single-query broadcast
            // budget once — not once per query.
            assert!(
                stats.broadcasts_per_query() < 1.0,
                "{}: {} broadcasts for {} queries",
                engine.name(),
                stats.broadcasts,
                qrefs.len()
            );
            for (qi, q) in qs.iter().enumerate() {
                let single = knn(&idx, q, 5);
                assert_eq!(
                    batched[qi].iter().map(|m| m.pos).collect::<Vec<_>>(),
                    single.iter().map(|m| m.pos).collect::<Vec<_>>(),
                    "{} q{qi}",
                    engine.name()
                );
            }
            // A 1-NN batch is the k = 1 column of the same surface.
            let nns = idx.search(&qrefs, &QuerySpec::nn()).unwrap();
            for (qi, q) in qs.iter().enumerate() {
                assert_eq!(
                    nns.best(qi).copied(),
                    nn(&idx, q),
                    "{} q{qi}",
                    engine.name()
                );
            }
        }
    }

    #[test]
    fn knn_dtw_equals_brute_force_on_all_memory_engines() {
        let data = DatasetKind::Sald.generate(150, 64, 49);
        let opts = Options::default().with_threads(3).with_leaf_capacity(16);
        let qs = DatasetKind::Sald.queries(2, 64, 49);
        for engine in Engine::ALL {
            let idx = MemoryIndex::build(data.clone(), engine, &opts).unwrap();
            for q in qs.iter() {
                for k in [1usize, 6, 25] {
                    let want = dsidx_ucr::brute_force_dtw_knn(&data, q, 4, k);
                    let (got, stats) = knn_dtw(&idx, q, 4, k);
                    assert_eq!(
                        got.iter().map(|m| m.pos).collect::<Vec<_>>(),
                        want.iter().map(|m| m.pos).collect::<Vec<_>>(),
                        "{} k={k}",
                        engine.name()
                    );
                    assert!(stats.lb_keogh_computed > 0, "{}", engine.name());
                }
                // 1-NN is the k = 1 special case.
                let spec = QuerySpec::nn().measure(Measure::Dtw { band: 4 });
                let nearest = idx.search(&[q], &spec).unwrap().into_nn().unwrap();
                assert_eq!(knn_dtw(&idx, q, 4, 1).0[0].pos, nearest.pos);
            }
        }
    }

    #[test]
    fn batched_dtw_search_is_one_broadcast_on_messi() {
        let data = DatasetKind::Sald.generate(200, 64, 53);
        let opts = Options::default().with_threads(3).with_leaf_capacity(16);
        let qs = DatasetKind::Sald.queries(4, 64, 53);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let idx = MemoryIndex::build(data.clone(), Engine::Messi, &opts).unwrap();
        let spec = QuerySpec::knn(3)
            .measure(Measure::Dtw { band: 4 })
            .with_stats();
        let answers = idx.search(&qrefs, &spec).unwrap();
        let stats = answers.stats().unwrap();
        assert_eq!(stats.broadcasts, 1, "one broadcast for the whole DTW batch");
        for (qi, q) in qs.iter().enumerate() {
            let want = dsidx_ucr::brute_force_dtw_knn(&data, q, 4, 3);
            assert_eq!(
                answers.matches()[qi]
                    .iter()
                    .map(|m| m.pos)
                    .collect::<Vec<_>>(),
                want.iter().map(|m| m.pos).collect::<Vec<_>>(),
                "q{qi}"
            );
        }
    }

    #[test]
    fn approximate_search_never_beats_exact_on_any_engine() {
        let data = DatasetKind::Synthetic.generate(500, 64, 29);
        let opts = Options::default().with_threads(3).with_leaf_capacity(16);
        let qs = DatasetKind::Synthetic.queries(3, 64, 29);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        for engine in Engine::ALL {
            let idx = MemoryIndex::build(data.clone(), engine, &opts).unwrap();
            for measure in [Measure::Euclidean, Measure::Dtw { band: 4 }] {
                let exact = idx
                    .search(&qrefs, &QuerySpec::knn(5).measure(measure))
                    .unwrap();
                let approx = idx
                    .search(
                        &qrefs,
                        &QuerySpec::knn(5)
                            .measure(measure)
                            .fidelity(Fidelity::Approximate)
                            .with_stats(),
                    )
                    .unwrap();
                assert_eq!(approx.stats().unwrap().broadcasts, 0);
                for qi in 0..qrefs.len() {
                    for (a, e) in approx.matches()[qi].iter().zip(&exact.matches()[qi]) {
                        assert!(
                            a.dist_sq >= e.dist_sq - e.dist_sq * 1e-6,
                            "{} {measure:?} q{qi}",
                            engine.name()
                        );
                    }
                }
            }
            // A collection member finds itself approximately (its own
            // leaf holds it; its sketch distance is 0), and an empty
            // collection answers with nothing.
            let spec = QuerySpec::nn().fidelity(Fidelity::Approximate);
            for pos in [0usize, 77, 499] {
                let got = idx.search(&[data.get(pos)], &spec).unwrap().into_single();
                assert_eq!((got[0].pos as usize, got[0].dist_sq), (pos, 0.0));
            }
            let empty = MemoryIndex::build(Dataset::new(64).unwrap(), engine, &opts).unwrap();
            let got = empty
                .search(&[&[0.0; 64]], &spec.clone().with_stats())
                .unwrap();
            assert!(got.matches()[0].is_empty(), "{}", engine.name());
            assert_eq!(got.query_stats(0).unwrap().real_computed, 0);
        }
    }

    #[test]
    fn ads_answers_and_work_do_not_depend_on_the_thread_count() {
        // ADS+ is ParIS's scan at one worker whatever `Options::threads`
        // says, so its answers *and* its work counters are the same at
        // every setting, where ParIS's vary with the pool.
        let dir = std::env::temp_dir().join(format!("dsidx-core-ads-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serial.dsidx");
        let data = DatasetKind::Sald.generate(600, 64, 57);
        dsidx_storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let qs = DatasetKind::Sald.queries(6, 64, 57);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let spec = QuerySpec::knn(5).with_stats();
        let work = |idx: &dyn Search| {
            let answers = idx.search(&qrefs, &spec).unwrap();
            let stats = answers.stats().unwrap();
            let per_query: Vec<(u64, u64)> = stats
                .per_query
                .iter()
                .map(|s| (s.real_computed, s.candidates))
                .collect();
            let bits: Vec<Vec<(u32, u32)>> = answers
                .matches()
                .iter()
                .map(|row| row.iter().map(|m| (m.pos, m.dist_sq.to_bits())).collect())
                .collect();
            (bits, per_query, stats.series_fetched)
        };
        let mut seen = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let opts = Options::default()
                .with_threads(threads)
                .with_leaf_capacity(16);
            let memory = MemoryIndex::build(data.clone(), Engine::Ads, &opts).unwrap();
            let disk =
                DiskIndex::build(&path, &dir, Engine::Ads, &opts, DeviceProfile::UNTHROTTLED)
                    .unwrap();
            seen.push((threads, "memory", work(&memory)));
            seen.push((threads, "disk", work(&disk)));
        }
        for (threads, residence, got) in &seen {
            assert_eq!(*got, seen[0].2, "{residence} at {threads} threads");
        }
    }

    #[test]
    fn ads_and_messi_answer_approximately_bit_for_bit_alike() {
        // Both build the same tree (position-ordered inserts; see MESSI's
        // `matches_serial_baseline_structure`) and answer approximately
        // with the one best-leaf visit over it.
        let dir = std::env::temp_dir().join(format!("dsidx-core-approx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.dsidx");
        let data = DatasetKind::Sald.generate(500, 64, 43);
        dsidx_storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let opts = Options::default().with_threads(2).with_leaf_capacity(16);
        let qs = DatasetKind::Sald.queries(6, 64, 43);
        let qrefs: Vec<&[f32]> = qs.iter().collect();
        let bits = |idx: &dyn Search, spec: &QuerySpec| -> Vec<Vec<(u32, u32)>> {
            let answers = idx.search(&qrefs, spec).unwrap();
            let rows = answers.matches().iter();
            rows.map(|row| row.iter().map(|m| (m.pos, m.dist_sq.to_bits())).collect())
                .collect()
        };
        for measure in [Measure::Euclidean, Measure::Dtw { band: 4 }] {
            let spec = QuerySpec::knn(4)
                .measure(measure)
                .fidelity(Fidelity::Approximate);
            let mut answers = Vec::new();
            for engine in [Engine::Ads, Engine::Messi] {
                let memory = MemoryIndex::build(data.clone(), engine, &opts).unwrap();
                let disk = DiskIndex::build(&path, &dir, engine, &opts, DeviceProfile::UNTHROTTLED)
                    .unwrap();
                answers.push(bits(&memory, &spec));
                answers.push(bits(&disk, &spec));
            }
            assert!(answers.iter().all(|a| *a == answers[0]), "{measure:?}");
        }
    }

    #[test]
    fn invalid_specs_are_rejected_with_structured_errors() {
        let data = DatasetKind::Synthetic.generate(50, 64, 3);
        let idx = MemoryIndex::build(data, Engine::Ads, &Options::default()).unwrap();
        let q = vec![0.0f32; 64];
        let qs: Vec<&[f32]> = vec![&q];
        assert!(matches!(
            idx.search(&qs, &QuerySpec::knn(0)),
            Err(Error::InvalidSpec(InvalidSpec::ZeroK))
        ));
        assert!(matches!(
            idx.search(&[], &QuerySpec::nn()),
            Err(Error::InvalidSpec(InvalidSpec::EmptyBatch))
        ));
        assert!(matches!(
            idx.search(&qs, &QuerySpec::nn().measure(Measure::Dtw { band: 64 })),
            Err(Error::InvalidSpec(InvalidSpec::BandTooWide { .. }))
        ));
        let short = vec![0.0f32; 8];
        let bad: Vec<&[f32]> = vec![&q, &short];
        assert!(matches!(
            idx.search(&bad, &QuerySpec::nn()),
            Err(Error::InvalidSpec(InvalidSpec::QueryLength {
                index: 1,
                ..
            }))
        ));
    }

    #[test]
    fn dtw_stats_are_reported_for_all_engines() {
        let data = DatasetKind::Sald.generate(200, 64, 15);
        let opts = Options::default().with_threads(2).with_leaf_capacity(16);
        let q = DatasetKind::Sald.queries(1, 64, 15);
        for engine in [Engine::Messi, Engine::Paris] {
            let idx = MemoryIndex::build(data.clone(), engine, &opts).unwrap();
            let (m, stats) = knn_dtw(&idx, q.get(0), 4, 1);
            let spec = QuerySpec::nn().measure(Measure::Dtw { band: 4 });
            assert_eq!(
                m[0],
                idx.search(&[q.get(0)], &spec).unwrap().into_nn().unwrap()
            );
            // Both the index path and the scan fallback report the DTW
            // cascade through the same counters.
            assert!(stats.lb_keogh_computed > 0, "{}", engine.name());
            assert!(stats.real_computed > 0, "{}", engine.name());
        }
    }

    #[test]
    fn messi_builds_and_answers_on_disk() {
        let dir = std::env::temp_dir().join(format!("dsidx-core-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.dsidx");
        let data = DatasetKind::Synthetic.generate(300, 64, 1);
        dsidx_storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let idx = DiskIndex::build(
            &path,
            &dir,
            Engine::Messi,
            &Options::default().with_threads(3).with_leaf_capacity(16),
            DeviceProfile::UNTHROTTLED,
        )
        .unwrap();
        assert_eq!(idx.stats().entry_count, 300);
        let q = DatasetKind::Synthetic.queries(2, 64, 1);
        let qs: Vec<&[f32]> = q.iter().collect();
        let got = idx.search(&qs, &QuerySpec::knn(5).with_stats()).unwrap();
        for (qi, query) in q.iter().enumerate() {
            let want = dsidx_ucr::brute_force_knn(&data, query, 5);
            assert_eq!(
                got.matches()[qi].iter().map(|m| m.pos).collect::<Vec<_>>(),
                want.iter().map(|m| m.pos).collect::<Vec<_>>(),
                "q{qi}"
            );
        }
        // The in-memory invariant survives the move to disk: one
        // broadcast answers the whole batch.
        assert_eq!(got.stats().unwrap().broadcasts, 1);
    }

    #[test]
    fn disk_search_answers_every_fidelity_measure_cell() {
        // No unsupported cells in the on-disk query plane: every
        // engine answers exact/approximate x ED/DTW over the file.
        let dir = std::env::temp_dir().join(format!("dsidx-core-dtw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.dsidx");
        let data = DatasetKind::Seismic.generate(200, 64, 5);
        dsidx_storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let q = DatasetKind::Seismic.queries(1, 64, 5);
        let qs: Vec<&[f32]> = vec![q.get(0)];
        for engine in Engine::ALL {
            let idx = DiskIndex::build(
                &path,
                &dir,
                engine,
                &Options::default().with_threads(2),
                DeviceProfile::UNTHROTTLED,
            )
            .unwrap();
            for measure in [Measure::Euclidean, Measure::Dtw { band: 4 }] {
                let exact = idx
                    .search(&qs, &QuerySpec::knn(3).measure(measure))
                    .unwrap();
                let want = match measure {
                    Measure::Dtw { band } => {
                        dsidx_ucr::brute_force_dtw_knn(&data, q.get(0), band, 3)
                    }
                    _ => dsidx_ucr::brute_force_knn(&data, q.get(0), 3),
                };
                assert_eq!(
                    exact.matches()[0].iter().map(|m| m.pos).collect::<Vec<_>>(),
                    want.iter().map(|m| m.pos).collect::<Vec<_>>(),
                    "{} {measure:?}",
                    engine.name()
                );
                let spec = QuerySpec::knn(3)
                    .measure(measure)
                    .fidelity(Fidelity::Approximate);
                let approx = idx.search(&qs, &spec).unwrap();
                assert!(!approx.matches()[0].is_empty());
                for (a, e) in approx.matches()[0].iter().zip(&want) {
                    assert!(
                        a.dist_sq >= e.dist_sq - e.dist_sq * 1e-6,
                        "{} {measure:?}",
                        engine.name()
                    );
                }
            }
        }
    }

    #[test]
    fn repeated_disk_builds_in_one_process_do_not_collide() {
        // The pid-named scratch files are sequence-suffixed: two live
        // ParIS indexes from one process must not share (and clobber) one
        // leaf store or one snapshot.
        let dir = std::env::temp_dir().join(format!("dsidx-core-seq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.dsidx");
        let data = DatasetKind::Synthetic.generate(150, 64, 3);
        dsidx_storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let opts = Options::default().with_threads(2);
        let a = DiskIndex::build(
            &path,
            &dir,
            Engine::ParisPlus,
            &opts,
            DeviceProfile::UNTHROTTLED,
        )
        .unwrap();
        let b = DiskIndex::build(
            &path,
            &dir,
            Engine::ParisPlus,
            &opts,
            DeviceProfile::UNTHROTTLED,
        )
        .unwrap();
        // Each build unlinked its scratch files once it held them open:
        // the workdir holds only the dataset, while both indexes are alive.
        let files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .collect();
        assert_eq!(files, ["s.dsidx"], "scratch files left behind");
        let q = DatasetKind::Synthetic.queries(1, 64, 3);
        // Both indexes still answer (neither's snapshot was replaced by the
        // other's build).
        let qa = a.search(&[q.get(0)], &QuerySpec::nn()).unwrap().into_nn();
        let qb = b.search(&[q.get(0)], &QuerySpec::nn()).unwrap().into_nn();
        assert_eq!(qa.map(|m| m.pos), qb.map(|m| m.pos));
    }

    /// Every leaf of a ParIS+ index read back from its entry runs, with
    /// what each read-back cost on `device`: `(len, bytes, seeks)`.
    fn leaf_read_backs(index: &DiskIndex) -> Vec<(usize, u64, u64)> {
        let runs = index.leaves.as_ref().expect("a ParIS index on disk");
        let (tree, device) = (&index.tree, index.file().device());
        let (mut words, mut positions) = (Vec::new(), Vec::new());
        let mut costs = Vec::new();
        for leaf in tree.nodes().iter().filter(|n| n.is_leaf()) {
            let before = device.stats();
            runs.read(leaf.entry_range(), &mut words, &mut positions)
                .unwrap();
            let after = device.stats();
            assert_eq!(words, tree.leaf_words(leaf));
            assert_eq!(positions, tree.leaf_positions(leaf));
            costs.push((
                leaf.subtree_len(),
                after.bytes_read - before.bytes_read,
                after.seeks - before.seeks,
            ));
        }
        costs
    }

    #[test]
    fn flushed_leaves_read_back_correctly() {
        // A ParIS+ build over several generations flushes leaves between
        // them; the built index still reads every leaf's words and
        // positions back from its snapshot.
        let dir = std::env::temp_dir().join(format!("dsidx-core-flush-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.dsidx");
        let data = DatasetKind::Synthetic.generate(300, 64, 9);
        dsidx_storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let opts = Options {
            block_series: 64,
            generation_series: 128,
            ..Options::default().with_threads(2).with_leaf_capacity(16)
        };
        let built = DiskIndex::build(
            &path,
            &dir,
            Engine::ParisPlus,
            &opts,
            DeviceProfile::UNTHROTTLED,
        )
        .unwrap();
        assert_eq!(built.build_report().unwrap().generations, 3);
        let costs = leaf_read_backs(&built);
        assert!(costs.len() > 1);
        assert_eq!(costs.iter().map(|c| c.0).sum::<usize>(), 300);
    }

    #[test]
    fn a_paris_leaf_reads_back_in_two_reads_of_its_entry_range() {
        // The SSD profile counts seeks (the unthrottled one does not). A
        // leaf read back from the snapshot the built index holds, or from
        // the one it was saved to, is its entry range in the two runs:
        // len x (segments + 4) bytes, at most two seeks, and the very
        // entries the tree holds.
        let dir = std::env::temp_dir().join(format!("dsidx-core-runs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.dsidx");
        let data = DatasetKind::Synthetic.generate(400, 64, 19);
        dsidx_storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let opts = Options::default().with_threads(2).with_leaf_capacity(16);
        let built =
            DiskIndex::build(&path, &dir, Engine::ParisPlus, &opts, DeviceProfile::SSD).unwrap();
        let snap = dir.join("r.snap");
        built.save(&snap).unwrap();
        let opened = DiskIndex::open(&snap, &path, &opts, DeviceProfile::SSD).unwrap();
        let record = (opts.segments + 4) as u64;
        for index in [&built, &opened] {
            let costs = leaf_read_backs(index);
            assert!(costs.len() > 1);
            assert_eq!(costs.iter().map(|c| c.0).sum::<usize>(), 400);
            for (len, bytes, seeks) in costs {
                assert_eq!(bytes, len as u64 * record);
                assert!(seeks <= 2, "{seeks} seeks for one leaf");
            }
        }
    }

    #[test]
    fn unified_query_stats_across_engines() {
        let data = DatasetKind::Synthetic.generate(300, 64, 21);
        let opts = Options::default().with_threads(2).with_leaf_capacity(16);
        let q = DatasetKind::Synthetic.queries(1, 64, 21);
        for engine in Engine::ALL {
            let idx = MemoryIndex::build(data.clone(), engine, &opts).unwrap();
            let stats = idx
                .search(&[q.get(0)], &QuerySpec::nn().with_stats())
                .unwrap()
                .query_stats(0)
                .expect("spec requested stats");
            // Every engine pays real distances (at least the seeding pass)
            // and reports lower-bound work through the same accessor.
            assert!(stats.real_computed > 0, "{}", engine.name());
            assert!(stats.lb_total() > 0, "{}", engine.name());
        }
    }

    #[test]
    fn memory_snapshot_round_trips_structurally_identical_trees() {
        let dir = std::env::temp_dir().join(format!("dsidx-snap-mem-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = DatasetKind::Synthetic.generate(300, 64, 11);
        let opts = Options::default().with_threads(3).with_leaf_capacity(16);
        for engine in Engine::ALL {
            let built = MemoryIndex::build(data.clone(), engine, &opts).unwrap();
            let path = dir.join(format!("m-{}.snap", engine.name().replace('+', "p")));
            let bytes = built.save(&path).unwrap();
            assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
            // Opening with *different* defaults must still reproduce the
            // saved geometry — the snapshot's fingerprint wins.
            let opened = MemoryIndex::open(&path, data.clone(), &Options::default()).unwrap();
            assert_eq!(opened.engine(), engine);
            // The decoded tree is structurally *equal* to the built one,
            // node for node (Index derives PartialEq) — the strongest
            // form of "no reconstruction drift".
            assert_eq!(built.tree, opened.tree, "{}", engine.name());
        }
    }

    #[test]
    fn disk_snapshot_round_trips_structurally_identical_trees() {
        let dir = std::env::temp_dir().join(format!("dsidx-snap-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.dsidx");
        let data = DatasetKind::Synthetic.generate(250, 64, 13);
        dsidx_storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let opts = Options::default().with_threads(3).with_leaf_capacity(16);
        let q = DatasetKind::Synthetic.queries(2, 64, 13);
        let qs: Vec<&[f32]> = q.iter().collect();
        for engine in Engine::ALL {
            let built =
                DiskIndex::build(&path, &dir, engine, &opts, DeviceProfile::UNTHROTTLED).unwrap();
            let snap = dir.join(format!("d-{}.snap", engine.name().replace('+', "p")));
            built.save(&snap).unwrap();
            let opened = DiskIndex::open(
                &snap,
                &path,
                &Options::default(),
                DeviceProfile::UNTHROTTLED,
            )
            .unwrap();
            assert_eq!(opened.engine(), engine);
            assert_eq!(built.tree, opened.tree, "{}", engine.name());
            // ParIS reads its leaves back from the saved snapshot's entry
            // runs — same answers as from the one the built index holds.
            let a = built.search(&qs, &QuerySpec::knn(5)).unwrap();
            let b = opened.search(&qs, &QuerySpec::knn(5)).unwrap();
            assert_eq!(a.matches(), b.matches(), "{}", engine.name());
        }
    }

    #[test]
    fn snapshot_open_rejects_the_wrong_dataset() {
        let dir = std::env::temp_dir().join(format!("dsidx-snap-wrong-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = DatasetKind::Synthetic.generate(120, 64, 17);
        let idx = MemoryIndex::build(data, Engine::Ads, &Options::default()).unwrap();
        let path = dir.join("a.snap");
        idx.save(&path).unwrap();
        // Wrong count.
        let other = DatasetKind::Synthetic.generate(121, 64, 17);
        let Err(err) = MemoryIndex::open(&path, other, &Options::default()) else {
            panic!("wrong count accepted");
        };
        assert!(err.to_string().contains("fingerprint"), "{err}");
        // Wrong series length.
        let other = DatasetKind::Synthetic.generate(120, 32, 17);
        let Err(err) = MemoryIndex::open(&path, other, &Options::default()) else {
            panic!("wrong series length accepted");
        };
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    #[test]
    fn stats_are_available() {
        let data = DatasetKind::Sald.generate(200, 64, 5);
        let opts = Options::default().with_threads(2).with_leaf_capacity(10);
        let idx = MemoryIndex::build(data, Engine::Messi, &opts).unwrap();
        let st = idx.stats();
        assert_eq!(st.entry_count, 200);
        assert!(st.leaf_count > 0);
    }

    #[test]
    fn out_of_range_options_are_errors_not_panics() {
        // Every engine x residence, and a sharded build, rejects a zero
        // leaf capacity or block size with a structured error before any
        // engine code runs (these used to panic inside the engines).
        let dir = std::env::temp_dir().join(format!("dsidx-core-opts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = DatasetKind::Synthetic.generate(120, 64, 19);
        let path = dir.join("data.dsidx");
        dsidx_storage::write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let base = Options::default().with_threads(2);
        let cases = [
            (
                base.clone().with_leaf_capacity(0),
                InvalidOptions::ZeroLeafCapacity,
            ),
            (
                Options {
                    block_series: 0,
                    ..base.clone()
                },
                InvalidOptions::ZeroBlockSeries,
            ),
        ];
        for (options, want) in cases {
            for engine in Engine::ALL {
                let errors = [
                    (
                        "memory",
                        MemoryIndex::build(data.clone(), engine, &options).err(),
                    ),
                    (
                        "disk",
                        DiskIndex::build(&path, &dir, engine, &options, DeviceProfile::UNTHROTTLED)
                            .err(),
                    ),
                    (
                        "sharded",
                        crate::ShardedIndex::build_in_memory(&data, 2, engine, &options).err(),
                    ),
                ];
                for (residence, got) in errors {
                    let label = format!("{} {residence} {want:?}", engine.name());
                    match got {
                        Some(Error::InvalidOptions(got)) => assert_eq!(got, want, "{label}"),
                        Some(other) => panic!("{label}: wrong error {other}"),
                        None => panic!("{label}: accepted"),
                    }
                }
            }
        }
    }
}
