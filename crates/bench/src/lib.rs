//! Shared infrastructure for the `repro` harness: scales, dataset caching,
//! table/CSV output, timing helpers.
//!
//! Every experiment regenerates one of the paper's figures at a chosen
//! [`Scale`]; [`experiments::ALL`] is the experiment ↔ figure map
//! (`repro --list` prints it).

pub mod experiments;

use dsidx::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dataset sizes for one harness run.
///
/// The paper uses 100M-series (100 GB) collections; these presets keep the
/// *shape* of every figure while fitting a laptop. `paper` documents the
/// original sizes — runnable if you have the disk, the RAM and the time.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Preset name.
    pub name: &'static str,
    /// Series count for on-disk experiments (Figs. 4, 6, 8, 10, 11).
    pub disk_series: usize,
    /// Series count for in-memory experiments (Figs. 5, 7, 9, 12).
    pub mem_series: usize,
    /// Series length (SALD uses 128, like the paper's EEG data).
    pub series_len: usize,
    /// Queries per on-disk measurement.
    pub disk_queries: usize,
    /// Queries per in-memory measurement.
    pub mem_queries: usize,
}

impl Scale {
    /// CI-sized: seconds per experiment.
    pub const TINY: Scale = Scale {
        name: "tiny",
        disk_series: 5_000,
        mem_series: 20_000,
        series_len: 128,
        disk_queries: 2,
        mem_queries: 5,
    };

    /// Quick laptop runs. The on-disk collection sits just above the
    /// scan-vs-seek crossover of the modeled HDD (~55K series), so the
    /// query figures already show the paper's ordering.
    pub const SMALL: Scale = Scale {
        name: "small",
        disk_series: 60_000,
        mem_series: 100_000,
        series_len: 256,
        disk_queries: 3,
        mem_queries: 10,
    };

    /// The default: minutes for the full suite, shapes clearly visible.
    pub const DEFAULT: Scale = Scale {
        name: "default",
        disk_series: 200_000,
        mem_series: 500_000,
        series_len: 256,
        disk_queries: 3,
        mem_queries: 10,
    };

    /// The committed benchmark's sizes (`benchmark/`): 200,000 series in
    /// memory, 100,000 on disk, length 256.
    pub const BENCH: Scale = Scale {
        name: "bench",
        disk_series: 100_000,
        mem_series: 200_000,
        series_len: 256,
        disk_queries: 3,
        mem_queries: 10,
    };

    /// The paper's sizes (documented; expect hours and ~100 GB of disk).
    pub const PAPER: Scale = Scale {
        name: "paper",
        disk_series: 100_000_000,
        mem_series: 100_000_000,
        series_len: 256,
        disk_queries: 100,
        mem_queries: 100,
    };

    /// Parses a preset name.
    ///
    /// # Errors
    /// Returns the unknown name.
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "tiny" => Ok(Scale::TINY),
            "small" => Ok(Scale::SMALL),
            "default" => Ok(Scale::DEFAULT),
            "bench" => Ok(Scale::BENCH),
            "paper" => Ok(Scale::PAPER),
            other => Err(format!(
                "unknown scale: {other} (tiny|small|default|bench|paper)"
            )),
        }
    }

    /// Series length for a dataset family (SALD is 128-point like the
    /// paper's collection, unless the scale's length is already shorter).
    #[must_use]
    pub fn len_for(&self, kind: DatasetKind) -> usize {
        match kind {
            DatasetKind::Sald => self.series_len.min(128),
            _ => self.series_len,
        }
    }
}

/// Core counts to sweep: the paper's ladder, capped at this machine.
#[must_use]
pub fn core_ladder(points: &[usize]) -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut v: Vec<usize> = points.iter().copied().filter(|&c| c <= max).collect();
    if v.is_empty() {
        v.push(max);
    }
    v
}

/// Directory for cached dataset files.
#[must_use]
pub fn data_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("dsidx-bench-data");
    std::fs::create_dir_all(&dir).expect("create bench data dir");
    dir
}

/// Directory for result CSVs (workspace `results/`).
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Returns (writing if missing) the cached dataset file for a family/size.
#[must_use]
pub fn disk_dataset(kind: DatasetKind, count: usize, len: usize) -> PathBuf {
    let path = data_dir().join(format!(
        "{}-{count}x{len}.dsidx",
        kind.name().to_lowercase()
    ));
    if !path.exists() {
        eprintln!(
            "  [gen] writing {} ({count} x {len}) to {}",
            kind.name(),
            path.display()
        );
        let data = kind.generate(count, len, dataset_seed(kind));
        dsidx::storage::write_dataset(&path, &data, Arc::new(Device::unthrottled()))
            .expect("write cached dataset");
    }
    path
}

/// Fixed per-family seeds, so every experiment sees the same collections.
#[must_use]
pub fn dataset_seed(kind: DatasetKind) -> u64 {
    match kind {
        DatasetKind::Synthetic => 0x5EED_0001,
        DatasetKind::Sald => 0x5EED_0002,
        DatasetKind::Seismic => 0x5EED_0003,
    }
}

/// Path to a real raw-binary-f32 collection for a family, if the operator
/// pointed `DSIDX_DATA_DIR` at a directory containing `<family>.f32` files
/// (the standard headerless little-endian format the paper's collections
/// are distributed in — e.g. `synthetic.f32`, `sald.f32`, `seismic.f32`).
#[must_use]
pub fn real_dataset_path(kind: DatasetKind) -> Option<PathBuf> {
    let dir = std::env::var_os("DSIDX_DATA_DIR")?;
    let path = PathBuf::from(dir).join(format!("{}.f32", kind.name().to_lowercase()));
    path.exists().then_some(path)
}

/// The in-memory dataset for a family at a scale: the real collection
/// (first `mem_series` records of `$DSIDX_DATA_DIR/<family>.f32`, see
/// [`real_dataset_path`]) when available, the in-repo generator otherwise.
///
/// # Panics
/// Panics when a provided real file cannot be read at the scale's series
/// length — a misconfiguration worth failing loudly on, not silently
/// substituting synthetic data for.
#[must_use]
pub fn mem_dataset(kind: DatasetKind, scale: &Scale) -> Dataset {
    let len = scale.len_for(kind);
    if let Some(path) = real_dataset_path(kind) {
        eprintln!(
            "  [load] {} from {} (<= {} x {len})",
            kind.name(),
            path.display(),
            scale.mem_series,
        );
        let mut data = dsidx::series::load::load_raw_f32_range(&path, len, 0, scale.mem_series)
            .unwrap_or_else(|e| panic!("loading {}: {e}", path.display()));
        data.znormalize_all();
        return data;
    }
    eprintln!(
        "  [gen] {} in memory ({} x {len})",
        kind.name(),
        scale.mem_series,
    );
    kind.generate(scale.mem_series, len, dataset_seed(kind))
}

/// Query workload for a family: fresh draws from the same generative
/// process (the paper's setup for the in-memory figures).
#[must_use]
pub fn queries(kind: DatasetKind, count: usize, len: usize) -> Dataset {
    kind.queries(count, len, dataset_seed(kind))
}

/// Planted query workload: perturbed copies of collection members
/// (template-matching queries — "have we seen this before?").
///
/// Used for the on-disk figures: their shape depends on the index pruning
/// away almost all random accesses, which at the paper's 100M-series scale
/// happens even for distribution-drawn queries (the space is densely
/// sampled, so some member is always close). A 1000x smaller collection
/// loses that density; planted queries restore the same candidate-set
/// proportions. See EXPERIMENTS.md.
#[must_use]
pub fn queries_planted(kind: DatasetKind, count: usize, scale: &Scale) -> Dataset {
    use dsidx_series::gen::rng::NormalGen;
    let len = scale.len_for(kind);
    let data = kind.generate(scale.disk_series, len, dataset_seed(kind));
    let mut normal = NormalGen::new(dataset_seed(kind) ^ 0x9E37_79B9);
    let mut out = Dataset::with_capacity(len, count).expect("valid len");
    for i in 0..count {
        // i+1 so no twin sits at position 0 (a position-ordered scan would
        // find it on its first read, flattering the serial baselines).
        let pos = ((i + 1) * 2_654_435_761) % data.len().max(1);
        let mut q: Vec<f32> = data.get(pos).to_vec();
        for v in &mut q {
            *v += 0.05 * normal.next_f32();
        }
        dsidx::series::znorm::znormalize(&mut q);
        out.push(&q).expect("same length");
    }
    out
}

/// Milliseconds as a float (for tables and CSV).
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times one closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Mean wall time of running `f` once per query in `qs`.
pub fn time_queries(qs: &Dataset, mut f: impl FnMut(&[f32])) -> Duration {
    let t = Instant::now();
    for q in qs.iter() {
        f(q);
    }
    t.elapsed() / qs.len().max(1) as u32
}

/// Prints how many of a figure's datasets show the ordering the paper
/// reports at scale. Small collections need not show it (a sequential scan
/// of a few thousand series beats an index's seeks), so this reports and
/// never asserts.
pub fn print_ordering(ordering: &str, metric: &str, held: usize, datasets: usize) {
    println!("shape check: {ordering} in {metric} holds on {held}/{datasets} datasets.");
}

/// A simple aligned table that also lands in `results/<name>.csv`.
pub struct Table {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given CSV name and column headers.
    #[must_use]
    pub fn new(name: &str, headers: &[&str]) -> Self {
        Self {
            name: name.to_owned(),
            headers: headers.iter().map(|&s| s.to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Prints the table and writes the CSV plus a machine-readable
    /// `BENCH_<name>.json` next to it; returns the CSV path.
    ///
    /// The JSON carries one object per row keyed by header, with cells
    /// that parse as finite floats emitted as numbers — so the perf
    /// trajectory can be tracked across PRs by tooling instead of living
    /// in commit messages.
    pub fn finish(&self) -> PathBuf {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", line(&self.headers));
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            println!("{}", line(row));
        }
        // Unit tests write to a scratch dir so `results/` holds only
        // real experiment output.
        let out_dir = if cfg!(test) {
            std::env::temp_dir()
        } else {
            results_dir()
        };
        let csv_path = out_dir.join(format!("{}.csv", self.name));
        let mut csv = String::new();
        csv.push_str(&self.headers.join(","));
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        std::fs::write(&csv_path, csv).expect("write csv");
        println!("  -> {}", csv_path.display());
        let json_path = out_dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&json_path, self.to_json()).expect("write json");
        println!("  -> {}", json_path.display());
        csv_path
    }

    fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"experiment\": {},\n", json_string(&self.name)));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {");
            for (j, (header, cell)) in self.headers.iter().zip(row).enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_string(header));
                out.push_str(": ");
                out.push_str(&json_cell(cell));
            }
            out.push('}');
            if i + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// A JSON string literal (escapes quotes, backslashes, control bytes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A cell as a JSON value: a number when it parses as a finite float,
/// a string otherwise.
fn json_cell(cell: &str) -> String {
    match cell.parse::<f64>() {
        Ok(v) if v.is_finite() => cell.to_owned(),
        _ => json_string(cell),
    }
}

/// Formats a float cell.
#[must_use]
pub fn f(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse() {
        assert_eq!(Scale::parse("tiny").unwrap().name, "tiny");
        assert_eq!(Scale::parse("default").unwrap().name, "default");
        assert!(Scale::parse("nope").is_err());
    }

    #[test]
    fn core_ladder_caps_at_machine() {
        let v = core_ladder(&[1, 2, 4, 100_000]);
        assert!(v.contains(&1));
        assert!(!v.is_empty());
        assert!(v.iter().all(|&c| c <= 100_000));
    }

    #[test]
    fn sald_length_is_capped() {
        assert_eq!(Scale::DEFAULT.len_for(DatasetKind::Sald), 128);
        assert_eq!(Scale::DEFAULT.len_for(DatasetKind::Synthetic), 256);
        assert_eq!(Scale::TINY.len_for(DatasetKind::Sald), 128);
    }

    #[test]
    fn table_formats_and_writes() {
        let mut t = Table::new("test-table", &["a", "bee"]);
        t.row(&["1".into(), "2.5".into()]);
        let path = t.finish();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("a,bee"));
        assert!(content.contains("1,2.5"));
        let json_path = path.with_file_name("BENCH_test-table.json");
        let json = std::fs::read_to_string(json_path).unwrap();
        assert!(json.contains("\"experiment\": \"test-table\""));
        assert!(json.contains("\"a\": 1, \"bee\": 2.5"));
    }

    #[test]
    fn json_cells_distinguish_numbers_from_strings() {
        assert_eq!(json_cell("3.25"), "3.25");
        assert_eq!(json_cell("-7"), "-7");
        assert_eq!(json_cell("NaN"), "\"NaN\"");
        assert_eq!(json_cell("messi"), "\"messi\"");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1234.6), "1235");
        assert_eq!(f(12.345), "12.35");
        assert_eq!(f(0.1234), "0.1234");
    }
}
