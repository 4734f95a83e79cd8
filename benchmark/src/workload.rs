//! One workload, one process: set-up samples, the timed rounds, the traced
//! pass, the checks, and the metrics they add up to.
//!
//! The program is driven only through the facade (`MemoryIndex` /
//! `DiskIndex` build, save, open; `Search::search` with a `QuerySpec`),
//! closed loop: one client, one call in flight, the engine's pool pinned
//! to [`THREADS`] workers.

use crate::env::{self, Scratch};
use crate::inputs::{self, QueryStream, RawFile, Rng, SERIES_LEN};
use crate::json::Json;
use crate::oracle::{self, CallResult, Metric, Oracle, Tally};
use crate::probes::{self, DTW_BAND};
use crate::stats::{median, percentile};
use dsidx::obs::phase::Phase;
use dsidx::prelude::*;
use dsidx::storage::device::DeviceStats;
use dsidx::tree::stats::IndexStats;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine worker threads, matching the two cores of the reference box.
pub const THREADS: usize = 2;
/// The timed section is this many rounds of equal length; set-up
/// repetitions are spread before each, so a slow spell on a shared machine
/// cannot land on all of them.
pub const ROUNDS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub name: &'static str,
    pub mem_series: usize,
    pub disk_series: usize,
    /// build + save + open repetitions before each round.
    pub setup_reps: usize,
    /// Distinct queries generated; the stream wraps if a run outlasts it.
    pub query_pool: usize,
    pub probe_series: usize,
    pub probe_budget: Duration,
}

impl Scale {
    pub const FULL: Scale = Scale {
        name: "full",
        mem_series: 200_000,
        disk_series: 100_000,
        setup_reps: 3,
        query_pool: 16_384,
        probe_series: 16_384,
        probe_budget: Duration::from_millis(50),
    };

    /// Seconds, for `cargo test`.
    pub const SMOKE: Scale = Scale {
        name: "smoke",
        mem_series: 2_000,
        disk_series: 2_000,
        setup_reps: 1,
        query_pool: 1_024,
        probe_series: 2_048,
        probe_budget: Duration::from_millis(2),
    };
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MemSingle,
    MemBatch,
    MemDtw,
    DiskSsd,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MemSingle,
        Workload::MemBatch,
        Workload::MemDtw,
        Workload::DiskSsd,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MemSingle => "mem-single",
            Workload::MemBatch => "mem-batch",
            Workload::MemDtw => "mem-dtw",
            Workload::DiskSsd => "disk-ssd",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (also the `why` in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::MemSingle => "MESSI in memory, exact 1-NN, one query per call: per-query fixed costs (tables, one broadcast, queues, traversal, lower bounds) dominate and the distance kernel is almost idle",
            Workload::MemBatch => "same index, exact 10-NN, 64 queries per call: fixed costs amortise 64x, so shared fetches, batch traversal and top-k contention dominate instead",
            Workload::MemDtw => "same index, exact 1-NN under banded DTW: the LB_Keogh and DTW kernels do most of the work, traversal little - the opposite split of mem-single",
            Workload::DiskSsd => "ParIS+ on the modeled SSD, exact 1-NN: wall time is modeled device waits, so it moves with candidates fetched and I/O-CPU overlap, not kernel speed; build and save write beside the reads",
        }
    }

    fn on_disk(self) -> bool {
        self == Workload::DiskSsd
    }

    fn collection_len(self, scale: &Scale) -> usize {
        if self.on_disk() {
            scale.disk_series
        } else {
            scale.mem_series
        }
    }

    /// Queries per `search` call.
    fn batch(self) -> usize {
        if self == Workload::MemBatch {
            64
        } else {
            1
        }
    }

    fn k(self) -> usize {
        if self == Workload::MemBatch {
            10
        } else {
            1
        }
    }

    fn metric(self) -> Metric {
        if self == Workload::MemDtw {
            Metric::Dtw { band: DTW_BAND }
        } else {
            Metric::Euclidean
        }
    }

    fn spec(self) -> QuerySpec {
        let spec = QuerySpec::knn(self.k());
        match self.metric() {
            Metric::Euclidean => spec,
            Metric::Dtw { band } => spec.measure(Measure::Dtw { band }),
        }
    }

    /// The oracle's seeded sample: `(calls, queries of each call)`. Sized
    /// so the brute-force scans stay a small part of a run.
    fn oracle_sample(self) -> (usize, usize) {
        match self {
            Workload::MemSingle => (64, 1),
            Workload::MemBatch => (16, 4),
            Workload::MemDtw => (12, 1),
            Workload::DiskSsd => (32, 1),
        }
    }
}

/// Where the collection lives, and how to get an index over it.
enum Source {
    Memory(Arc<Dataset>),
    Disk { file: PathBuf, workdir: PathBuf },
}

/// Reads collection member `pos` into the buffer.
type SeriesReader<'a> = Box<dyn Fn(usize, &mut [f32]) -> std::io::Result<()> + 'a>;

enum Built {
    Memory(MemoryIndex),
    Disk(DiskIndex),
}

impl Source {
    fn options() -> Options {
        Options::default().with_threads(THREADS)
    }

    fn build(&self) -> Result<Built, dsidx::Error> {
        Ok(match self {
            Source::Memory(data) => Built::Memory(MemoryIndex::build(
                Arc::clone(data),
                Engine::Messi,
                &Self::options(),
            )?),
            Source::Disk { file, workdir } => Built::Disk(DiskIndex::build(
                file,
                workdir,
                Engine::ParisPlus,
                &Self::options(),
                DeviceProfile::SSD,
            )?),
        })
    }

    fn open(&self, snapshot: &Path) -> Result<Built, dsidx::Error> {
        Ok(match self {
            Source::Memory(data) => Built::Memory(MemoryIndex::open(
                snapshot,
                Arc::clone(data),
                &Self::options(),
            )?),
            Source::Disk { file, .. } => Built::Disk(DiskIndex::open(
                snapshot,
                file,
                &Self::options(),
                DeviceProfile::SSD,
            )?),
        })
    }

    /// A reader of single collection members, through the harness's own
    /// code.
    fn series_reader(&self) -> std::io::Result<SeriesReader<'_>> {
        Ok(match self {
            Source::Memory(data) => Box::new(move |pos, out| {
                out.copy_from_slice(data.get(pos));
                Ok(())
            }),
            Source::Disk { file, .. } => {
                let raw = RawFile::open(file)?;
                Box::new(move |pos, out| raw.read_series(pos, out))
            }
        })
    }

    /// Feeds the whole collection to `f`, block by block, through the
    /// harness's own readers.
    fn for_each_block(&self, f: impl FnMut(usize, &[f32])) -> std::io::Result<()> {
        match self {
            Source::Memory(data) => {
                inputs::for_each_block_of(data, f);
                Ok(())
            }
            Source::Disk { file, .. } => RawFile::open(file)?.for_each_block(f),
        }
    }
}

impl Built {
    fn search(&self, queries: &[&[f32]], spec: &QuerySpec) -> Result<Answers, dsidx::Error> {
        match self {
            Built::Memory(index) => index.search(queries, spec),
            Built::Disk(index) => index.search(queries, spec),
        }
    }

    fn save(&self, path: &Path) -> Result<u64, dsidx::Error> {
        match self {
            Built::Memory(index) => index.save(path),
            Built::Disk(index) => index.save(path),
        }
    }

    fn tree_stats(&self) -> IndexStats {
        match self {
            Built::Memory(index) => index.stats(),
            Built::Disk(index) => index.stats(),
        }
    }

    /// The modeled device's counters; all zero in memory.
    fn device_stats(&self) -> DeviceStats {
        match self {
            Built::Memory(_) => DeviceStats::default(),
            Built::Disk(index) => index.file().device().stats(),
        }
    }
}

fn device_delta(after: DeviceStats, before: DeviceStats) -> DeviceStats {
    DeviceStats {
        bytes_read: after.bytes_read - before.bytes_read,
        bytes_written: after.bytes_written - before.bytes_written,
        seeks: after.seeks - before.seeks,
        charged_nanos: after.charged_nanos - before.charged_nanos,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Harness-side spans, kept in memory and written out at exit. A span's
/// self time is its duration minus what its children cover.
struct Spans {
    origin: Instant,
    enabled: bool,
    rows: Vec<Span>,
}

struct Span {
    name: &'static str,
    parent: usize,
    op: Option<usize>,
    start_us: f64,
    end_us: f64,
    attrs: Vec<(String, Json)>,
}

impl Spans {
    fn new(enabled: bool) -> Self {
        Spans {
            origin: Instant::now(),
            enabled,
            rows: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under `parent` (0 = none); returns its id (0 when
    /// spans are off).
    fn open(&mut self, name: &'static str, parent: usize, op: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_us = self.now_us();
        self.rows.push(Span {
            name,
            parent,
            op,
            start_us,
            end_us: start_us,
            attrs: Vec::new(),
        });
        self.rows.len()
    }

    fn close(&mut self, id: usize, attrs: Vec<(String, Json)>) {
        if id == 0 {
            return;
        }
        let end_us = self.now_us();
        let span = &mut self.rows[id - 1];
        span.end_us = end_us;
        span.attrs = attrs;
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.rows.iter().enumerate() {
            let mut row = vec![
                ("id".to_string(), Json::Num((i + 1) as f64)),
                ("parent".to_string(), Json::Num(s.parent as f64)),
                ("name".to_string(), Json::str(s.name)),
                (
                    "op".to_string(),
                    s.op.map_or(Json::Null, |op| Json::Num(op as f64)),
                ),
                ("start_us".to_string(), Json::Num(s.start_us)),
                ("end_us".to_string(), Json::Num(s.end_us)),
            ];
            row.extend(s.attrs.iter().cloned());
            writeln!(out, "{}", Json::Obj(row).render())?;
        }
        out.flush()
    }
}

/// Samples from the build / save / open repetitions.
#[derive(Default)]
struct SetupSamples {
    build_s: Vec<f64>,
    save_ms: Vec<f64>,
    open_ms: Vec<f64>,
    snapshot_bytes: u64,
    /// Per build: the device's counters (a fresh device per build, so
    /// these are the build's own) and the build's wall time.
    build_io: Vec<(DeviceStats, f64)>,
    open_read_bytes: Vec<f64>,
}

/// `save` and `open` take ~10 ms where a build takes ~100: each build is
/// followed by this many save + open pairs, so their medians rest on as
/// much measured time as the build's.
const SNAPSHOT_REPS: usize = 3;

/// One repetition: build an index from the raw data, then save it and
/// open the snapshot [`SNAPSHOT_REPS`] times. Returns the built index (the
/// one the next round queries).
fn setup_rep(
    source: &Source,
    snapshot: &Path,
    samples: &mut SetupSamples,
    spans: &mut Spans,
    parent: usize,
) -> Result<Built, dsidx::Error> {
    let span = spans.open("build", parent, None);
    let t = Instant::now();
    let index = source.build()?;
    let wall = t.elapsed();
    spans.close(span, Vec::new());
    samples.build_s.push(wall.as_secs_f64());
    samples
        .build_io
        .push((index.device_stats(), wall.as_secs_f64()));

    for _ in 0..SNAPSHOT_REPS {
        let span = spans.open("save", parent, None);
        let t = Instant::now();
        samples.snapshot_bytes = index.save(snapshot)?;
        samples.save_ms.push(ms(t.elapsed()));
        spans.close(span, Vec::new());

        let span = spans.open("open", parent, None);
        let t = Instant::now();
        let opened = source.open(snapshot)?;
        samples.open_ms.push(ms(t.elapsed()));
        spans.close(span, Vec::new());
        samples
            .open_read_bytes
            .push(opened.device_stats().bytes_read as f64);
    }
    Ok(index)
}

/// The query stream cut into calls: call `i` is `batch` consecutive
/// queries, wrapping at the end of the pool.
struct Calls<'a> {
    stream: &'a QueryStream,
    refs: Vec<&'a [f32]>,
    batch: usize,
}

impl<'a> Calls<'a> {
    fn new(stream: &'a QueryStream, batch: usize) -> Self {
        let refs: Vec<&[f32]> = stream.queries.iter().collect();
        assert!(
            refs.len() >= batch && refs.len().is_multiple_of(batch),
            "pool holds whole calls"
        );
        Calls {
            stream,
            refs,
            batch,
        }
    }

    /// Index into the pool of call `i`'s first query.
    fn first_query(&self, i: usize) -> usize {
        (i % (self.refs.len() / self.batch)) * self.batch
    }

    fn queries(&self, i: usize) -> &[&'a [f32]] {
        &self.refs[self.first_query(i)..][..self.batch]
    }
}

/// Busy and parked nanoseconds of the engine's pool, summed over its
/// workers. A worker books an interval when it ends, so a park that began
/// before the window (while the harness checked or saved) would be booked
/// inside it: an empty broadcast first makes every worker close its
/// current interval.
fn pool_totals() -> (u64, u64) {
    let pool = dsidx::sync::pool::global(THREADS);
    pool.broadcast(&|_| {});
    pool.worker_stats()
        .iter()
        .fold((0, 0), |(busy, parked), w| {
            (busy + w.busy_nanos, parked + w.parked_nanos)
        })
}

/// What the stats-off, no-span rounds produced. Every call of every round
/// is a distinct piece of the query stream.
#[derive(Default)]
struct Timed {
    latency_ms: Vec<f64>,
    round_qps: Vec<f64>,
    round_wall_s: Vec<f64>,
    results: Vec<CallResult>,
    busy_nanos: u64,
    parked_nanos: u64,
}

impl Timed {
    /// One round: calls until `budget` is spent (at least one).
    fn round(&mut self, index: &Built, calls: &Calls, spec: &QuerySpec, budget: Duration) {
        let (busy0, parked0) = pool_totals();
        let before = self.results.len();
        let start = Instant::now();
        loop {
            let queries = calls.queries(self.results.len());
            let t = Instant::now();
            let result = index.search(queries, spec);
            self.latency_ms.push(ms(t.elapsed()));
            self.results
                .push(result.map(Answers::into_matches).map_err(|e| e.to_string()));
            if start.elapsed() >= budget {
                break;
            }
        }
        let wall = start.elapsed().as_secs_f64();
        let (busy1, parked1) = pool_totals();
        self.round_qps
            .push(((self.results.len() - before) * calls.batch) as f64 / wall);
        self.round_wall_s.push(wall);
        self.busy_nanos += busy1 - busy0;
        self.parked_nanos += parked1 - parked0;
    }

    fn wall_s(&self) -> f64 {
        self.round_wall_s.iter().sum()
    }
}

/// Counter and phase totals over the traced pass.
#[derive(Default)]
struct Traced {
    calls: usize,
    wall_s: f64,
    call_wall_ns: f64,
    phase_ns: [f64; Phase::COUNT],
    totals: QueryStats,
    broadcasts: u64,
    series_fetched: u64,
    series_requests: u64,
    device: Option<DeviceStats>,
}

/// The traced pass: every call of the timed rounds again, with stats on
/// and a span around each facade call. A traced answer that differs from
/// the untraced one is a failure (exact answers are deterministic).
fn traced_pass(
    index: &Built,
    calls: &Calls,
    spec: &QuerySpec,
    untraced: &[CallResult],
    spans: &mut Spans,
    parent: usize,
    tally: &mut Tally,
) -> Traced {
    let spec = spec.clone().with_stats();
    let mut traced = Traced::default();
    let device0 = index.device_stats();
    let pass = Instant::now();
    for (op, expected) in untraced.iter().enumerate() {
        let span = spans.open("search", parent, Some(op));
        let t = Instant::now();
        let result = index.search(calls.queries(op), &spec);
        let wall_ns = t.elapsed().as_nanos() as f64;
        let mut attrs = Vec::new();
        let problem = match &result {
            Err(e) => Some(format!("traced call {op}: {e}")),
            Ok(answers) => {
                traced.call_wall_ns += wall_ns;
                let mut phases_us = Vec::new();
                if let Some(breakdown) = answers.phase_breakdown() {
                    for (phase, nanos) in breakdown.iter() {
                        traced.phase_ns[phase as usize] += nanos as f64;
                        phases_us.push((phase.name(), Json::Num(nanos as f64 / 1e3)));
                    }
                }
                attrs.push(("phases_us".to_string(), Json::obj(phases_us)));
                if let Some(stats) = answers.stats() {
                    traced.totals = traced.totals.merged(&stats.total());
                    traced.broadcasts += stats.broadcasts;
                    traced.series_fetched += stats.series_fetched;
                    traced.series_requests += stats.series_requests;
                    attrs.push((
                        "real_computed".to_string(),
                        Json::Num(stats.total().real_computed as f64),
                    ));
                }
                (expected.as_deref().ok() != Some(answers.matches()))
                    .then(|| format!("traced call {op}: answer differs from the untraced call"))
            }
        };
        spans.close(span, attrs);
        tally.record(problem);
        traced.calls += 1;
    }
    traced.wall_s = pass.elapsed().as_secs_f64();
    traced.device = Some(device_delta(index.device_stats(), device0));
    traced
}

/// Checks every retained answer outside the timed windows: structure for
/// all, the planted bound where it applies, the brute-force oracle on a
/// seeded sample of calls.
fn check_answers(
    workload: Workload,
    source: &Source,
    calls: &Calls,
    results: &[CallResult],
    collection_len: usize,
    seed: u64,
    tally: &mut Tally,
) -> std::io::Result<()> {
    let (metric, k, batch) = (workload.metric(), workload.k(), workload.batch());
    let mut problems: Vec<Option<String>> = vec![None; results.len()];
    let fail = |problems: &mut Vec<Option<String>>, op: usize, query: usize, why: String| {
        problems[op].get_or_insert_with(|| format!("call {op}, query {query}: {why}"));
    };

    let read_series = source.series_reader()?;
    let mut source_series = vec![0.0f32; SERIES_LEN];
    for (op, result) in results.iter().enumerate() {
        let lists = match result {
            Err(e) => {
                problems[op] = Some(format!("call {op}: {e}"));
                continue;
            }
            Ok(lists) if lists.len() != batch => {
                problems[op] = Some(format!(
                    "call {op}: {} answers for {batch} queries",
                    lists.len()
                ));
                continue;
            }
            Ok(lists) => lists,
        };
        for (j, matches) in lists.iter().enumerate() {
            let q = calls.first_query(op) + j;
            if let Err(why) =
                oracle::check_structure(matches, k.min(collection_len), collection_len)
            {
                fail(&mut problems, op, q, why);
                continue;
            }
            let Some(planted_at) = calls.stream.planted[q] else {
                continue;
            };
            read_series(planted_at as usize, &mut source_series)?;
            let to_source = oracle::distance_sq(
                metric,
                calls.stream.queries.get(q),
                &source_series,
                f64::INFINITY,
            )
            .expect("no limit");
            if let Err(why) = oracle::check_planted(&matches[0], to_source) {
                fail(&mut problems, op, q, why);
            }
        }
    }

    // The seeded sample: distinct calls, and within a batch a stride that
    // is odd, so fresh and planted queries are both drawn.
    let (sample_calls, per_call) = workload.oracle_sample();
    let mut rng = Rng::new(seed ^ 0x0AC1_E5A3);
    let mut ops: Vec<usize> = (0..results.len())
        .filter(|&op| problems[op].is_none())
        .collect();
    let take = sample_calls.min(ops.len());
    for i in 0..take {
        let j = i + rng.below(ops.len() - i);
        ops.swap(i, j);
    }
    ops.truncate(take);
    let mut sampled: Vec<(usize, usize)> = Vec::new();
    for &op in &ops {
        let start = rng.below(batch);
        sampled.extend((0..per_call.min(batch)).map(|t| (op, (start + 17 * t) % batch)));
    }
    let queries = sampled
        .iter()
        .map(|&(op, j)| calls.stream.queries.get(calls.first_query(op) + j))
        .collect();
    let mut oracle = Oracle::new(metric, k.min(collection_len), queries);
    source.for_each_block(|first, block| oracle.feed(first, block))?;
    for (&(op, j), truth) in sampled.iter().zip(oracle.into_answers()) {
        let lists = results[op]
            .as_ref()
            .expect("only passing calls are sampled");
        tally.oracle_checked += 1;
        if let Err(why) = oracle::check_against_oracle(&lists[j], &truth) {
            fail(&mut problems, op, calls.first_query(op) + j, why);
        }
    }

    for problem in problems {
        tally.record(problem);
    }
    Ok(())
}

/// The result of one run of one workload.
pub struct RunOutput {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub fingerprint: Json,
}

fn section(ops: usize, wall: Duration) -> Json {
    Json::obj([
        ("ops", Json::Num(ops as f64)),
        ("wall_s", Json::Num(wall.as_secs_f64())),
    ])
}

/// Runs `workload` for about `seconds` of timed rounds. With `trace`, half
/// of that goes to the untraced rounds and the traced pass repeats their
/// calls; the per-layer metrics are returned instead of the end-to-end
/// ones.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &Scale,
) -> Result<RunOutput, Box<dyn std::error::Error>> {
    let run_start = Instant::now();
    let scratch = Scratch::create()?;
    let mut spans = Spans::new(trace);
    let root = spans.open("run", 0, None);
    let mut tally = Tally::default();
    let collection_len = workload.collection_len(scale);

    // Inputs. The on-disk workload never holds the raw collection: it is
    // streamed to the file, and planted queries read their sources back.
    let t = Instant::now();
    let source = if workload.on_disk() {
        let file = scratch.path("collection.bin");
        inputs::write_collection(&file, collection_len, seed)?;
        let workdir = scratch.path("workdir");
        Source::Disk { file, workdir }
    } else {
        Source::Memory(Arc::new(inputs::collection(collection_len, seed)))
    };
    let stream = inputs::query_stream(
        scale.query_pool,
        collection_len,
        seed,
        source.series_reader()?,
    )?;
    let inputs_wall = t.elapsed();
    let calls = Calls::new(&stream, workload.batch());
    let spec = workload.spec();
    let snapshot = scratch.path("index.snapshot");

    // One untimed warm-up build, then the rounds with the set-up
    // repetitions spread before each.
    let mut index = source.build()?;
    let mut samples = SetupSamples::default();
    let mut timed = Timed::default();
    let timed_seconds = if trace { seconds / 2.0 } else { seconds };
    let budget = Duration::from_secs_f64(timed_seconds / ROUNDS as f64);
    let mut setup_wall = Duration::ZERO;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let span = spans.open("setup", root, None);
        for _ in 0..scale.setup_reps {
            drop(index);
            index = setup_rep(&source, &snapshot, &mut samples, &mut spans, span)?;
        }
        spans.close(span, Vec::new());
        setup_wall += t.elapsed();
        timed.round(&index, &calls, &spec, budget);
    }
    let peak_rss_mib = env::peak_rss_mib();

    let t = Instant::now();
    let traced = if trace {
        let span = spans.open("traced_pass", root, None);
        let traced = traced_pass(
            &index,
            &calls,
            &spec,
            &timed.results,
            &mut spans,
            span,
            &mut tally,
        );
        spans.close(span, Vec::new());
        Some(traced)
    } else {
        None
    };
    let traced_wall = t.elapsed();

    let t = Instant::now();
    check_answers(
        workload,
        &source,
        &calls,
        &timed.results,
        collection_len,
        seed,
        &mut tally,
    )?;
    let checks_wall = t.elapsed();

    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let t = Instant::now();
    if let Some(traced) = &traced {
        let span = spans.open("probes", root, None);
        metrics.extend(probes::run(
            seed,
            scale.probe_series,
            scale.probe_budget,
            &scratch.path("probe.bin"),
        )?);
        spans.close(span, Vec::new());
        metrics.extend(layer_metrics(
            workload,
            collection_len,
            &index,
            &samples,
            &timed,
            traced,
            &tally,
        ));
    } else {
        metrics.extend([
            ("setup_s", median(&samples.build_s)),
            ("open_ms", median(&samples.open_ms)),
            ("save_ms", median(&samples.save_ms)),
            ("query_ms_p50", median(&timed.latency_ms)),
            ("query_ms_p95", percentile(&timed.latency_ms, 0.95)),
            ("queries_per_s", median(&timed.round_qps)),
            (
                "index_bytes_per_series",
                samples.snapshot_bytes as f64 / collection_len as f64,
            ),
            ("peak_rss_mib", peak_rss_mib),
        ]);
    }
    let probes_wall = t.elapsed();

    spans.close(root, Vec::new());
    if trace {
        spans.write(
            &env::results_dir()?.join(format!("trace-{}-seed{seed}.jsonl", workload.name())),
        )?;
    }

    let mut fingerprint = env::machine_fingerprint(THREADS);
    fingerprint.extend([
        ("workload".to_string(), Json::str(workload.name())),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("scale".to_string(), Json::str(scale.name)),
        (
            "collection".to_string(),
            Json::str(format!("{collection_len} x {SERIES_LEN}")),
        ),
        ("trace".to_string(), Json::Bool(trace)),
        (
            "sections".to_string(),
            Json::obj([
                (
                    "inputs",
                    section(collection_len + scale.query_pool, inputs_wall),
                ),
                (
                    "setup",
                    section(
                        samples.build_s.len() + samples.save_ms.len() + samples.open_ms.len(),
                        setup_wall,
                    ),
                ),
                (
                    "timed",
                    section(timed.results.len(), Duration::from_secs_f64(timed.wall_s())),
                ),
                (
                    "traced",
                    section(traced.as_ref().map_or(0, |t| t.calls), traced_wall),
                ),
                ("checks", section(tally.attempted as usize, checks_wall)),
                ("probes", section(if trace { 1 } else { 0 }, probes_wall)),
                ("run", section(1, run_start.elapsed())),
            ]),
        ),
    ]);
    Ok(RunOutput {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        notes: tally.notes,
        fingerprint: Json::Obj(fingerprint),
    })
}

/// The per-layer metrics that come from the workload itself (the kernel
/// probes are already in `metrics`).
fn layer_metrics(
    workload: Workload,
    collection_len: usize,
    index: &Built,
    samples: &SetupSamples,
    timed: &Timed,
    traced: &Traced,
    tally: &Tally,
) -> Vec<(&'static str, f64)> {
    let mut metrics = Vec::new();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mib = (1u64 << 20) as f64;

    let tree = index.tree_stats();
    let leaf_capacity = Source::options().leaf_capacity;
    metrics.extend([
        ("tree.leaves", tree.leaf_count as f64),
        ("tree.max_depth", tree.max_depth as f64),
        (
            "tree.leaf_fill_share",
            ratio(
                tree.entry_count as f64,
                (tree.leaf_count * leaf_capacity) as f64,
            ),
        ),
    ]);

    let worker_nanos = THREADS as f64 * timed.wall_s() * 1e9;
    metrics.extend([
        (
            "sync.worker_busy_share",
            ratio(timed.busy_nanos as f64, worker_nanos),
        ),
        (
            "sync.worker_parked_share",
            ratio(timed.parked_nanos as f64, worker_nanos),
        ),
    ]);

    let queries = (traced.calls * workload.batch()) as f64;
    let device = traced.device.unwrap_or_default();
    let build_read: Vec<f64> = samples
        .build_io
        .iter()
        .map(|(d, _)| d.bytes_read as f64 / mib)
        .collect();
    let build_write: Vec<f64> = samples
        .build_io
        .iter()
        .map(|(d, _)| d.bytes_written as f64 / mib)
        .collect();
    let build_io_share: Vec<f64> = samples
        .build_io
        .iter()
        .map(|(d, wall_s)| ratio(d.charged_nanos as f64 / 1e9, *wall_s))
        .collect();
    let dataset_mib = (collection_len * SERIES_LEN * 4) as f64 / mib;
    metrics.extend([
        (
            "storage.seeks_per_query",
            ratio(device.seeks as f64, queries),
        ),
        (
            "storage.read_kib_per_query",
            ratio(device.bytes_read as f64 / 1024.0, queries),
        ),
        (
            "storage.charged_ms_per_query",
            ratio(device.charged_nanos as f64 / 1e6, queries),
        ),
        ("storage.build_read_mib", median(&build_read)),
        ("storage.build_write_mib", median(&build_write)),
        ("storage.write_amp", median(&build_write) / dataset_mib),
        (
            "storage.open_read_kib",
            median(&samples.open_read_bytes) / 1024.0,
        ),
        ("paris.build_io_share", median(&build_io_share)),
    ]);

    let t = &traced.totals;
    let dtw = matches!(workload.metric(), Metric::Dtw { .. });
    metrics.extend([
        ("query.lb_per_query", ratio(t.lb_total() as f64, queries)),
        (
            "query.real_per_query",
            ratio(t.real_computed as f64, queries),
        ),
        (
            "query.candidates_per_query",
            ratio(t.candidates as f64, queries),
        ),
        (
            "query.leaves_processed_per_query",
            ratio(t.leaves_processed as f64, queries),
        ),
        (
            "query.nodes_pruned_per_query",
            ratio(t.nodes_pruned as f64, queries),
        ),
        (
            "query.broadcasts_per_query",
            ratio(traced.broadcasts as f64, queries),
        ),
        (
            "query.pruned_share",
            1.0 - ratio(t.real_computed as f64, queries * collection_len as f64),
        ),
        (
            "query.lb_keogh_pruned_share",
            ratio(t.lb_keogh_pruned as f64, t.lb_keogh_computed as f64),
        ),
        (
            "query.dtw_abandoned_share",
            if dtw {
                ratio(
                    t.dtw_abandoned as f64,
                    (t.dtw_abandoned + t.real_computed) as f64,
                )
            } else {
                0.0
            },
        ),
        (
            "query.fetch_share",
            ratio(traced.series_fetched as f64, traced.series_requests as f64),
        ),
    ]);

    let per_call_ms = |nanos: f64| ratio(nanos / 1e6, traced.calls as f64);
    for (name, phase) in [
        ("query.phase.prepare_ms", Phase::Prepare),
        ("query.phase.seed_ms", Phase::Seed),
        ("query.phase.sax_scan_ms", Phase::SaxScan),
        ("query.phase.collect_ms", Phase::Collect),
        ("query.phase.verify_ms", Phase::Verify),
        ("query.phase.traversal_ms", Phase::Traversal),
        ("query.phase.dtw_cascade_ms", Phase::DtwCascade),
    ] {
        metrics.push((name, per_call_ms(traced.phase_ns[phase as usize])));
    }
    let phase_total: f64 = traced.phase_ns.iter().sum();
    metrics.extend([
        (
            "query.phase_coverage",
            ratio(phase_total, traced.call_wall_ns),
        ),
        (
            "core.dispatch_us",
            ratio(
                (traced.call_wall_ns - phase_total) / 1e3,
                traced.calls as f64,
            ),
        ),
        (
            "bench.trace_overhead_share",
            ratio(traced.wall_s, timed.wall_s()) - 1.0,
        ),
        ("bench.ops", tally.attempted as f64),
        ("bench.oracle_checked", tally.oracle_checked as f64),
        (
            "failed_share",
            ratio(tally.failed as f64, tally.attempted as f64),
        ),
    ]);
    metrics
}
