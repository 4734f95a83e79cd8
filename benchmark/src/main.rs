//! The repository's benchmark: four workloads through the `dsidx` facade,
//! end-to-end metrics with tracing off, a layer ledger on a traced run,
//! every answer checked. See `README.md` beside this package.
//!
//! ```text
//! dsidx-benchmark run [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//! dsidx-benchmark repeat <n> [--seed S] [--seconds T] [--smoke]
//! dsidx-benchmark compare <a.json> <b.json>
//! ```
//!
//! `run --workload W` runs one workload in this process and prints, as its
//! last line, the JSON object the driver reads. Without `--workload` it
//! runs all four, untraced and traced, each in a fresh child process (so
//! peak RSS and allocator state are per workload), and writes one result
//! set.

mod catalog;
mod env;
mod inputs;
mod json;
mod oracle;
mod probes;
mod report;
mod stats;
mod workload;

use json::Json;
use std::path::Path;
use std::process::ExitCode;
use workload::{Scale, Workload};

/// `run_seconds` of `BENCHMARK.json`: what a run measures for when
/// `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 1.0;

const USAGE: &str = "usage:
  dsidx-benchmark run [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--smoke]
  dsidx-benchmark repeat <n> [--seed S] [--seconds T] [--smoke]
  dsidx-benchmark compare <a.json> <b.json>
workloads: mem-single mem-batch mem-dtw disk-ssd";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: None,
            trace: false,
            smoke: false,
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
            match arg.as_str() {
                "--workload" => {
                    let name = value("--workload")?;
                    args.workload =
                        Some(Workload::parse(name).ok_or(format!("unknown workload: {name}"))?);
                }
                "--seed" => {
                    args.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?;
                }
                "--seconds" => {
                    let s: f64 = value("--seconds")?
                        .parse()
                        .map_err(|_| "--seconds takes a number")?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    args.seconds = Some(s);
                }
                "--trace" => {
                    args.trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    };
                }
                "--smoke" => args.smoke = true,
                flag if flag.starts_with("--") => return Err(format!("unknown flag: {flag}")),
                other => args.positional.push(other.to_string()),
            }
        }
        Ok(args)
    }

    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        }
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

/// One workload in this process. Prints every metric by name with its
/// unit, the fingerprint, and last the contract line; writes the result
/// file. Fails (non-zero exit) when any operation failed.
fn run_one(workload: Workload, args: &Args) -> Result<bool, Box<dyn std::error::Error>> {
    let scale = args.scale();
    println!(
        "workload {}  seed {}  seconds {}  trace {}  scale {}",
        workload.name(),
        args.seed,
        args.seconds(),
        u8::from(args.trace),
        scale.name
    );
    println!("why: {}", workload.why());
    let out = workload::run(workload, args.seed, args.seconds(), args.trace, &scale)?;
    report::print_metrics(&out.metrics);
    println!("attempted = {} count", out.attempted);
    println!("failed = {} count", out.failed);
    for note in &out.notes {
        println!("failure: {note}");
    }
    println!("fingerprint {}", out.fingerprint.render());
    let path = env::results_dir()?.join(report::result_file_name(workload, args.seed, args.trace));
    std::fs::write(
        &path,
        report::result_json(workload, args.seed, args.trace, &out).render() + "\n",
    )?;
    println!("result file {}", path.display());
    println!("{}", report::contract_line(&out).render());
    Ok(out.failed == 0)
}

/// All four workloads for one seed, untraced then traced, each in a child
/// process; returns their results (read back from the result files).
fn run_all(seed: u64, args: &Args) -> Result<(Vec<Json>, bool), Box<dyn std::error::Error>> {
    let exe = std::env::current_exe()?;
    let mut results = Vec::new();
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let file = env::results_dir()?.join(report::result_file_name(workload, seed, trace));
            // A result left by an earlier run must not stand in for this one.
            let _ = std::fs::remove_file(&file);
            let mut child = std::process::Command::new(&exe);
            child
                .args(["run", "--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds().to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                child.arg("--smoke");
            }
            let status = child.status()?;
            ok &= status.success();
            match std::fs::read_to_string(&file)
                .map_err(|e| e.to_string())
                .and_then(|t| Json::parse(&t))
            {
                Ok(result) => results.push(result),
                Err(_) => eprintln!(
                    "{} (trace {}): no result ({status})",
                    workload.name(),
                    u8::from(trace)
                ),
            }
            println!();
        }
    }
    Ok((results, ok))
}

/// The full benchmark for seeds `S .. S+n`, written as one result set
/// named `file`.
fn run_set(
    args: &Args,
    n: u64,
    file: String,
) -> Result<(Vec<Json>, bool), Box<dyn std::error::Error>> {
    let mut results = Vec::new();
    let mut ok = true;
    for seed in args.seed..args.seed + n {
        let (r, run_ok) = run_all(seed, args)?;
        results.extend(r);
        ok &= run_ok;
    }
    let path = env::results_dir()?.join(file);
    report::write_set(&path, &results)?;
    println!("result set {}", path.display());
    Ok((results, ok))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = match Args::parse(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed;
    let outcome: Result<bool, Box<dyn std::error::Error>> =
        match (command.as_str(), &args.positional[..]) {
            ("run", []) => match args.workload {
                Some(workload) => run_one(workload, &args),
                None => run_set(&args, 1, format!("result-seed{seed}.json")).map(|(_, ok)| ok),
            },
            ("repeat", [n]) => match n.parse::<u64>() {
                Ok(n) => run_set(&args, n, format!("repeat-seed{seed}-n{n}.json"))
                    .map(|(results, ok)| report::print_repeat_summary(&results) && ok),
                Err(_) => Err("repeat takes a count".into()),
            },
            ("compare", [a, b]) => report::load_set(Path::new(a))
                .and_then(|a| Ok((a, report::load_set(Path::new(b))?)))
                .map(|(a, b)| report::print_comparison(&a, &b))
                .map_err(Into::into),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
