//! The `repro` harness: regenerates every figure of the paper's evaluation
//! at a configurable scale.
//!
//! ```text
//! cargo run --release -p dsidx-bench --bin repro -- all --scale small
//! cargo run --release -p dsidx-bench --bin repro -- fig9 fig12
//! cargo run --release -p dsidx-bench --bin repro -- --list
//! cargo run --release -p dsidx-bench --bin repro -- work --scale tiny --check BENCH_work.json
//! ```
//!
//! Results print as tables and land as CSVs in `results/`. `--check FILE`
//! applies to the `work` ledger alone: it regenerates the scale's section
//! and exits 1 on any difference from `FILE`.

use dsidx_bench::{experiments, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::SMALL;
    let mut selected: Vec<String> = Vec::new();
    let mut check: Option<std::path::PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter
                    .next()
                    .unwrap_or_else(|| usage("missing value for --scale"));
                scale = Scale::parse(value).unwrap_or_else(|e| usage(&e));
            }
            "--check" => {
                let value = iter
                    .next()
                    .unwrap_or_else(|| usage("missing value for --check"));
                check = Some(value.into());
            }
            "--list" => {
                for (id, figure, _) in experiments::ALL {
                    println!("{id:<12} {figure}");
                }
                return;
            }
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            other => selected.push(other.to_owned()),
        }
    }
    if selected.is_empty() {
        usage("no experiment selected");
    }
    if let Some(file) = check {
        if selected != ["work"] {
            usage("--check applies to the `work` experiment alone");
        }
        if let Err(diff) = experiments::work::check(&scale, &file) {
            eprintln!("error: the work ledger changed: {diff}");
            std::process::exit(1);
        }
        return;
    }
    if selected.iter().any(|s| s == "all") {
        selected = experiments::ALL
            .iter()
            .map(|(id, _, _)| (*id).to_owned())
            .collect();
    }

    println!(
        "== dsidx repro: scale `{}` (disk {} / mem {} series, len {}), {} cores ==",
        scale.name,
        scale.disk_series,
        scale.mem_series,
        scale.series_len,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    let t0 = std::time::Instant::now();
    for id in &selected {
        let Some((name, figure, runner)) = experiments::find(id) else {
            usage(&format!("unknown experiment {id}"));
        };
        println!("\n==== {name}: {figure} ====");
        let t = std::time::Instant::now();
        runner(&scale);
        println!("  [{name} took {:.1?}]", t.elapsed());
    }
    println!("\nall selected experiments done in {:.1?}", t0.elapsed());
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro [--scale tiny|small|default|bench|paper] [--list] <experiment...|all>\n       \
         repro [--scale ...] work --check BENCH_work.json\n\
         experiments:"
    );
    for (id, figure, _) in experiments::ALL {
        eprintln!("  {id:<12} {figure}");
    }
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
