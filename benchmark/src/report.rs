//! Result files, and the two tools that read them: the repeat check and
//! the comparison of two result sets.
//!
//! A *result* is what one run of one workload produced (metrics by name
//! with units, failure counts, fingerprint). A *result set* is
//! `{"results": [...]}` — what `run` (all workloads) and `repeat` write.

use crate::catalog::{self, Better, MetricDef};
use crate::json::Json;
use crate::stats::{median, spread};
use crate::workload::{RunOutput, Workload};
use std::path::Path;

/// The `metrics` object of the contract: `{name: {"value", "unit"}}`.
fn metrics_json(metrics: &[(&'static str, f64)]) -> Json {
    Json::obj(metrics.iter().map(|&(name, value)| {
        let unit = catalog::find(name).unit;
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }))
}

/// The last line a run prints: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn contract_line(out: &RunOutput) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(&out.metrics)),
    ])
}

/// The result file's content: the contract line's keys plus what tells
/// two files apart.
pub fn result_json(workload: Workload, seed: u64, trace: bool, out: &RunOutput) -> Json {
    let mut pairs = vec![
        ("workload".to_string(), Json::str(workload.name())),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("trace".to_string(), Json::Num(f64::from(u8::from(trace)))),
    ];
    pairs.extend(contract_line(out).entries().iter().cloned());
    pairs.push((
        "notes".to_string(),
        Json::Arr(out.notes.iter().map(Json::str).collect()),
    ));
    pairs.push(("fingerprint".to_string(), out.fingerprint.clone()));
    Json::Obj(pairs)
}

pub fn result_file_name(workload: Workload, seed: u64, trace: bool) -> String {
    format!(
        "{}-seed{seed}-trace{}.json",
        workload.name(),
        u8::from(trace)
    )
}

pub fn print_metrics(metrics: &[(&'static str, f64)]) {
    for &(name, value) in metrics {
        let def = catalog::find(name);
        println!(
            "{name} = {value} {}  ({} is better)",
            def.unit,
            def.better.as_str()
        );
    }
}

pub fn load_set(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let results = json
        .get("results")
        .ok_or_else(|| format!("{}: not a result set (no \"results\")", path.display()))?;
    Ok(results.as_array().to_vec())
}

pub fn write_set(path: &Path, results: &[Json]) -> std::io::Result<()> {
    let set = Json::obj([("results", Json::Arr(results.to_vec()))]);
    std::fs::write(path, set.render() + "\n")
}

/// Every value a result set holds for `(workload, metric)`, in file order.
fn values(results: &[Json], workload: Workload, metric: &str) -> Vec<f64> {
    results
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload.name()))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn total_failed(results: &[Json]) -> f64 {
    results
        .iter()
        .filter_map(|r| r.get("failed").and_then(Json::as_f64))
        .sum()
}

fn all_metrics() -> impl Iterator<Item = &'static MetricDef> {
    catalog::END_TO_END.iter().chain(catalog::PER_LAYER)
}

fn percent(share: f64) -> String {
    format!("{:.2}%", share * 100.0)
}

/// The repeat check: per (metric, workload) min / median / max, the
/// relative range, and the inter-quartile spread against the metric's
/// bound. Returns `false` on a breach (a bounded metric whose spread
/// exceeds its bound, or any failed operation).
pub fn print_repeat_summary(results: &[Json]) -> bool {
    let mut ok = true;
    println!(
        "{:<11} {:<34} {:>3} {:>14} {:>14} {:>14} {:>9} {:>9} {:>7}",
        "workload", "metric", "n", "min", "median", "max", "range", "spread", "bound"
    );
    for workload in Workload::ALL {
        for def in all_metrics() {
            let v = values(results, workload, def.name);
            if v.len() < 2 {
                continue;
            }
            let (min, max) = v
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                    (lo.min(x), hi.max(x))
                });
            let m = median(&v);
            let range = if m == 0.0 { 0.0 } else { (max - min) / m.abs() };
            let s = spread(&v);
            let breach = def.bound.is_some_and(|b| s > b);
            ok &= !breach;
            println!(
                "{:<11} {:<34} {:>3} {:>14.6} {:>14.6} {:>14.6} {:>9} {:>9} {:>7}{}",
                workload.name(),
                def.name,
                v.len(),
                min,
                m,
                max,
                percent(range),
                percent(s),
                def.bound.map_or_else(|| "-".to_string(), percent),
                if breach { "  BREACH" } else { "" },
            );
        }
    }
    let failed = total_failed(results);
    if failed > 0.0 {
        println!("{failed} operations failed");
        ok = false;
    }
    ok
}

/// Compares two result sets: `reference` (a) against `candidate` (b).
/// Returns `false` when a bounded metric's median is worse in `b` by more
/// than its bound, or `b` holds a failed operation.
pub fn print_comparison(reference: &[Json], candidate: &[Json]) -> bool {
    let mut ok = true;
    for (label, set) in [("a", reference), ("b", candidate)] {
        let commit = set
            .iter()
            .find_map(|r| r.get("fingerprint")?.get("commit")?.as_str())
            .unwrap_or("unknown");
        let mut seeds: Vec<f64> = set.iter().filter_map(|r| r.get("seed")?.as_f64()).collect();
        seeds.dedup();
        println!(
            "{label}: {} results, commit {commit}, seeds {seeds:?}",
            set.len()
        );
    }
    println!(
        "{:<11} {:<34} {:>14} {:>14} {:>9} {:>9} {:>7}",
        "workload", "metric", "median a", "median b", "worse by", "spread a", "bound"
    );
    for workload in Workload::ALL {
        for def in all_metrics() {
            let (a, b) = (
                values(reference, workload, def.name),
                values(candidate, workload, def.name),
            );
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&a), median(&b));
            let worse = match def.better {
                _ if ma == 0.0 => 0.0,
                Better::Lower => (mb - ma) / ma.abs(),
                Better::Higher => (ma - mb) / ma.abs(),
            };
            let spread_a = if a.len() >= 2 {
                percent(spread(&a))
            } else {
                "-".to_string()
            };
            let regression = def.bound.is_some_and(|bound| worse > bound);
            ok &= !regression;
            println!(
                "{:<11} {:<34} {:>14.6} {:>14.6} {:>9} {:>9} {:>7}{}",
                workload.name(),
                def.name,
                ma,
                mb,
                percent(worse),
                spread_a,
                def.bound.map_or_else(|| "-".to_string(), percent),
                if regression { "  REGRESSION" } else { "" },
            );
        }
    }
    let failed = total_failed(candidate);
    if failed > 0.0 {
        println!("b: {failed} operations failed");
        ok = false;
    }
    ok
}
