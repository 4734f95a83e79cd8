//! The work ledger: exact per-query work on the benchmark's query shape,
//! committed as `BENCH_work.json` and diffed exactly.
//!
//! At one worker every counter a query books is a pure function of the
//! collection, the query and the code: which entries get a lower bound,
//! which leaves are processed, which series pay a real distance, and, on
//! the modeled device, which reads seek and what they are charged. So
//! these numbers need no repeats and no noise estimate. A change that is
//! meant to make the same work cheaper leaves the file byte-identical; a
//! change to the work shows up as a diff.
//!
//! One exact 1-NN Euclidean query per call, with `.with_stats()`, over a
//! fixed stream shaped like the benchmark's: Synthetic random walks of
//! length 256, three fresh queries to one planted (a collection member
//! plus N(0, 0.05) noise, re-z-normalised). The stream runs through a
//! MESSI `MemoryIndex` and a ParIS+ `DiskIndex` on the SSD profile, and
//! once more through the same `MemoryIndex` as exact 1-NN under banded DTW
//! at the benchmark's band. Each per-query quantity is reported as p50,
//! p95, max and sum; the DTW section follows a series through the cascade
//! (fetched for LB_Keogh, DTW started, DTW finished, DP cells evaluated);
//! the disk section adds the candidates ParIS+'s collect phase keeps, the
//! device's seek, byte and charged-time deltas per query and the build's
//! charged bytes.
//!
//! `repro work --scale S` rewrites section `S` of the file at the root of
//! the workspace and leaves the others as they are; `repro work --scale S
//! --check FILE` regenerates section `S` and fails on any difference.

use crate::{dataset_seed, disk_dataset, Scale, Table};
use dsidx::prelude::*;
use dsidx_series::gen::rng::NormalGen;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Series length of the stream and both collections (the benchmark's).
const SERIES_LEN: usize = 256;
/// Queries per index.
const QUERIES: usize = 200;
/// Every fourth query is planted.
const PLANTED_EVERY: usize = 4;
/// Standard deviation of a planted query's noise.
const PLANTED_NOISE: f32 = 0.05;
/// Sakoe-Chiba radius of the DTW section (the benchmark's `mem-dtw` band).
const DTW_BAND: usize = 12;

/// What the file says about itself, kept at its top.
const NOTE: &str =
    "Exact work per query at threads = 1 (see crates/bench/src/experiments/work.rs). \
`cargo run --release -p dsidx-bench --bin repro -- work --scale <section>` regenerates a section; \
add `--check BENCH_work.json` to compare instead. CI checks `tiny` in both SIMD lanes and `bench` \
in the default one; a change that alters the work of a query regenerates `tiny` and `bench` and says why.";

/// Runs the ledger at `scale` and rewrites its section of the committed
/// file.
pub fn run(scale: &Scale) {
    let section = measure(scale);
    let path = ledger_path();
    let mut sections = match std::fs::read_to_string(&path) {
        Ok(text) => parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
        Err(_) => BTreeMap::new(),
    };
    sections.insert(scale.name.to_owned(), section);
    std::fs::write(&path, render(&sections)).expect("write the work ledger");
    println!("  -> {}", path.display());
}

/// Regenerates `scale`'s section and compares it with the one in `file`.
///
/// # Errors
/// Describes the first difference, or why the file could not be read.
pub fn check(scale: &Scale, file: &Path) -> Result<(), String> {
    let text =
        std::fs::read_to_string(file).map_err(|e| format!("reading {}: {e}", file.display()))?;
    let committed = parse(&text)?;
    let Some(want) = committed.get(scale.name) else {
        return Err(format!(
            "{} has no `{}` section",
            file.display(),
            scale.name
        ));
    };
    let got = measure(scale);
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            return Err(format!(
                "section `{}` line {}: committed `{}`, regenerated `{}`",
                scale.name,
                i + 1,
                w.trim(),
                g.trim()
            ));
        }
    }
    if want.lines().count() != got.lines().count() {
        return Err(format!("section `{}` changed length", scale.name));
    }
    println!("{}: section `{}` is unchanged", file.display(), scale.name);
    Ok(())
}

/// `BENCH_work.json` at the workspace root.
fn ledger_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_work.json")
}

/// One section's JSON body (two-space indented, as it sits in the file).
fn measure(scale: &Scale) -> String {
    let options = Options::default().with_threads(1);
    let spec = QuerySpec::nn().with_stats();
    let mut table = Table::new(
        &format!("work-{}", scale.name),
        &["index", "quantity", "p50", "p95", "max", "sum"],
    );

    let data = DatasetKind::Synthetic.generate(
        scale.mem_series,
        SERIES_LEN,
        dataset_seed(DatasetKind::Synthetic),
    );
    let mem_stream = stream(&data);
    let memory = MemoryIndex::build(data, Engine::Messi, &options).expect("memory build");
    let mut mem_rows: [Vec<u64>; 3] = Default::default();
    for q in mem_stream.iter() {
        let stats = query(&memory, q, &spec);
        mem_rows[0].push(stats.lb_computed + stats.lb_entry_computed);
        mem_rows[1].push(stats.leaves_processed);
        mem_rows[2].push(stats.real_computed);
    }
    let dtw_spec = QuerySpec::nn()
        .measure(Measure::Dtw { band: DTW_BAND })
        .with_stats();
    let mut dtw_rows: [Vec<u64>; 6] = Default::default();
    for q in mem_stream.iter() {
        let stats = query(&memory, q, &dtw_spec);
        dtw_rows[0].push(stats.lb_computed + stats.lb_entry_computed);
        dtw_rows[1].push(stats.leaves_processed);
        dtw_rows[2].push(stats.lb_keogh_computed);
        dtw_rows[3].push(stats.dtw_abandoned + stats.real_computed);
        dtw_rows[4].push(stats.real_computed);
        dtw_rows[5].push(stats.dtw_cells);
    }
    drop(memory);

    let path = disk_dataset(DatasetKind::Synthetic, scale.disk_series, SERIES_LEN);
    let on_disk = dsidx::storage::read_dataset(&path, Arc::new(Device::unthrottled()))
        .expect("read the disk collection back");
    let disk_stream = stream(&on_disk);
    drop(on_disk);
    let disk = DiskIndex::build(
        &path,
        &crate::data_dir(),
        Engine::ParisPlus,
        &options,
        DeviceProfile::SSD,
    )
    .expect("disk build");
    let device = disk.file().device();
    let build = device.stats();
    let mut disk_rows: [Vec<u64>; 7] = Default::default();
    for q in disk_stream.iter() {
        let before = device.stats();
        let stats = query(&disk, q, &spec);
        let after = device.stats();
        disk_rows[0].push(stats.lb_computed + stats.lb_entry_computed);
        disk_rows[1].push(stats.leaves_processed);
        disk_rows[2].push(stats.candidates);
        disk_rows[3].push(stats.real_computed);
        disk_rows[4].push(after.seeks - before.seeks);
        disk_rows[5].push(after.bytes_read - before.bytes_read);
        disk_rows[6].push(after.charged_nanos - before.charged_nanos);
    }

    let mem_names = ["entries_bounded", "leaves_processed", "real_distances"];
    let dtw_names = [
        "entries_bounded",
        "leaves_processed",
        "keogh_fetched",
        "dtw_started",
        "dtw_finished",
        "dtw_cells",
    ];
    let disk_names = [
        "entries_bounded",
        "leaves_processed",
        "candidates",
        "real_distances",
        "seeks",
        "bytes_read",
        "charged_nanos",
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "    \"stream\": {{\"kind\": \"Synthetic\", \"series_len\": {SERIES_LEN}, \
         \"queries\": {QUERIES}, \"planted_every\": {PLANTED_EVERY}, \"k\": 1, \"threads\": 1}},"
    );
    let _ = writeln!(
        out,
        "    \"memory\": {{\"engine\": \"MESSI\", \"series\": {},",
        scale.mem_series
    );
    push_rows(&mut out, &mut table, "memory", &mem_names, &mem_rows);
    out.push_str("    },\n");
    let _ = writeln!(
        out,
        "    \"memory_dtw\": {{\"engine\": \"MESSI\", \"series\": {}, \"band\": {DTW_BAND},",
        scale.mem_series
    );
    push_rows(&mut out, &mut table, "memory_dtw", &dtw_names, &dtw_rows);
    out.push_str("    },\n");
    let _ = writeln!(
        out,
        "    \"disk\": {{\"engine\": \"ParIS+\", \"device\": \"SSD\", \"series\": {},",
        scale.disk_series
    );
    let _ = writeln!(
        out,
        "      \"build\": {{\"bytes_read\": {}, \"bytes_written\": {}}},",
        build.bytes_read, build.bytes_written
    );
    push_rows(&mut out, &mut table, "disk", &disk_names, &disk_rows);
    out.push_str("    }\n");
    table.finish();
    out
}

/// Appends one `"name": {p50, p95, max, sum}` line per quantity.
fn push_rows(out: &mut String, table: &mut Table, index: &str, names: &[&str], rows: &[Vec<u64>]) {
    for (i, (name, values)) in names.iter().zip(rows).enumerate() {
        let [p50, p95, max, sum] = summary(values);
        let comma = if i + 1 < names.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      \"{name}\": {{\"p50\": {p50}, \"p95\": {p95}, \"max\": {max}, \"sum\": {sum}}}{comma}"
        );
        table.row(&[
            index.into(),
            (*name).into(),
            p50.to_string(),
            p95.to_string(),
            max.to_string(),
            sum.to_string(),
        ]);
    }
}

/// Nearest-rank p50 and p95, max and sum of one quantity.
fn summary(values: &[u64]) -> [u64; 4] {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = |p: usize| sorted[(sorted.len() * p).div_ceil(100).max(1) - 1];
    [
        rank(50),
        rank(95),
        *sorted.last().expect("queries"),
        sorted.iter().sum(),
    ]
}

/// One query's work counters.
fn query(index: &impl Search, q: &[f32], spec: &QuerySpec) -> QueryStats {
    let answers = index.search(&[q], spec).expect("exact query");
    answers.query_stats(0).expect("stats requested")
}

/// The query stream for a collection: fresh draws from the generator,
/// every [`PLANTED_EVERY`]th replaced by a noisy collection member.
fn stream(data: &Dataset) -> Dataset {
    let seed = dataset_seed(DatasetKind::Synthetic);
    let fresh = DatasetKind::Synthetic.queries(QUERIES, SERIES_LEN, seed);
    let mut noise = NormalGen::new(seed ^ 0x51A7_7ED0);
    let mut out = Dataset::with_capacity(SERIES_LEN, QUERIES).expect("valid length");
    for (i, q) in fresh.iter().enumerate() {
        if i % PLANTED_EVERY == PLANTED_EVERY - 1 {
            let pos = (i + 1) * 2_654_435_761 % data.len();
            let mut planted = data.get(pos).to_vec();
            for v in &mut planted {
                *v += PLANTED_NOISE * noise.next_f32();
            }
            dsidx::series::znorm::znormalize(&mut planted);
            out.push(&planted).expect("same length");
        } else {
            out.push(q).expect("same length");
        }
    }
    out
}

/// The file with `sections` in name order under the note.
fn render(sections: &BTreeMap<String, String>) -> String {
    let mut out = format!("{{\n  \"note\": \"{NOTE}\",\n");
    for (i, (name, body)) in sections.iter().enumerate() {
        let comma = if i + 1 < sections.len() { "," } else { "" };
        let _ = write!(out, "  \"{name}\": {{\n{body}  }}{comma}\n");
    }
    out.push_str("}\n");
    out
}

/// The sections of a file [`render`] wrote: each opens on a line
/// `  "<name>": {` and closes on the next line that is `  }` or `  },`.
fn parse(text: &str) -> Result<BTreeMap<String, String>, String> {
    let mut sections = BTreeMap::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let Some(name) = line
            .strip_prefix("  \"")
            .and_then(|rest| rest.strip_suffix("\": {"))
        else {
            continue;
        };
        let mut body = String::new();
        loop {
            match lines.next() {
                Some("  }" | "  },") => break,
                Some(l) => {
                    body.push_str(l);
                    body.push('\n');
                }
                None => return Err(format!("section `{name}` is not closed")),
            }
        }
        sections.insert(name.to_owned(), body);
    }
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_round_trip_through_the_file() {
        let mut sections = BTreeMap::new();
        sections.insert("tiny".to_owned(), "    \"a\": 1\n".to_owned());
        sections.insert("bench".to_owned(), "    \"b\": {\"c\": 2}\n".to_owned());
        let text = render(&sections);
        assert_eq!(parse(&text).unwrap(), sections);
        assert!(parse("{\n  \"tiny\": {\n    \"a\": 1\n").is_err());
    }

    #[test]
    fn summaries_use_nearest_rank() {
        let values: Vec<u64> = (1..=20).collect();
        assert_eq!(summary(&values), [10, 19, 20, 210]);
        assert_eq!(summary(&[7]), [7, 7, 7, 7]);
    }
}
