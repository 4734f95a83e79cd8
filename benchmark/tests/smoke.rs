//! Runs the benchmark binary at smoke scale the way the driver runs it and
//! holds its output to `BENCHMARK.json`.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    list.as_array()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs one workload as the driver does and returns (stdout, last line).
fn drive(workload: &str, seed: u64, trace: u8) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_dsidx-benchmark"))
        .args(["run", "--smoke", "--workload", workload])
        .args(["--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
    (stdout, last)
}

#[test]
fn every_benchmark_json_name_is_printed_by_a_smoke_run() {
    let spec = benchmark_json();
    let end_to_end = names(spec.get("end_to_end").expect("end_to_end"));
    let per_layer = names(spec.get("per_layer").expect("per_layer"));
    let workloads = names(spec.get("workloads").expect("workloads"));
    assert_eq!(
        workloads,
        ["mem-single", "mem-batch", "mem-dtw", "disk-ssd"]
    );
    for name in end_to_end.iter().chain(&per_layer).chain(&workloads) {
        assert!(valid_name(name), "bad name {name:?}");
    }

    for workload in &workloads {
        for (trace, expected) in [(0, &end_to_end), (1, &per_layer)] {
            let (stdout, last) = drive(workload, 5, trace);
            let keys: Vec<&str> = last.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(last.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(last.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(
                last.get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            let metrics = last.get("metrics").expect("metrics");
            let printed: Vec<&str> = metrics.entries().iter().map(|(k, _)| k.as_str()).collect();
            let mut want: Vec<&str> = expected.iter().map(String::as_str).collect();
            let mut got = printed.clone();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(
                got, want,
                "{workload} trace {trace}: exactly the declared metrics"
            );
            for (name, metric) in metrics.entries() {
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
                let unit = metric.get("unit").and_then(Json::as_str).expect("unit");
                assert!(
                    stdout.contains(&format!("{name} = ")),
                    "{name} printed by name"
                );
                assert!(!unit.is_empty());
            }
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero_and_layers_discriminate() {
    let value = |last: &Json, name: &str| {
        last.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name} reported"))
    };
    let (_, e2e) = drive("mem-dtw", 6, 0);
    for (name, _) in e2e.get("metrics").expect("metrics").entries() {
        assert!(value(&e2e, name) > 0.0, "{name} is zero");
    }
    let (_, dtw) = drive("mem-dtw", 6, 1);
    let (_, disk) = drive("disk-ssd", 6, 1);
    assert!(value(&dtw, "query.phase.dtw_cascade_ms") > value(&dtw, "query.phase.traversal_ms"));
    assert_eq!(value(&dtw, "storage.charged_ms_per_query"), 0.0);
    assert!(value(&disk, "storage.charged_ms_per_query") > 0.0);
    assert_eq!(value(&disk, "query.phase.dtw_cascade_ms"), 0.0);

    // The traced run leaves one span per line, each a JSON object whose
    // parent is an earlier span.
    let trace = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/trace-disk-ssd-seed6.jsonl"
    );
    let text = std::fs::read_to_string(trace).expect("span file written");
    let mut searches = 0;
    for (i, line) in text.lines().enumerate() {
        let span = Json::parse(line).expect("span line is JSON");
        assert_eq!(span.get("id").and_then(Json::as_f64), Some((i + 1) as f64));
        assert!(span.get("parent").and_then(Json::as_f64).expect("parent") <= i as f64);
        assert!(
            span.get("end_us").and_then(Json::as_f64)
                >= span.get("start_us").and_then(Json::as_f64)
        );
        searches += usize::from(span.get("name").and_then(Json::as_str) == Some("search"));
    }
    assert!(searches > 0);
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["frobnicate"],
        &["run", "--trace", "2"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dsidx-benchmark"))
            .args(args)
            .output()
            .expect("benchmark binary starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "no result printed for {args:?}");
    }
}
