//! Where the benchmark lives on disk, and what machine it ran on.

use crate::json::Json;
use std::path::{Path, PathBuf};

/// The `benchmark/` directory. `cargo run` exports the manifest directory
/// at run time; the compile-time value covers a directly started binary.
pub fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// `benchmark/results/`: result files, traces and scratch all land here
/// (gitignored), never in the repository's own `results/`.
pub fn results_dir() -> std::io::Result<PathBuf> {
    let dir = benchmark_dir().join("results");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// One directory for everything a run writes and does not keep (dataset
/// file, ParIS+ workdir, snapshots), removed when dropped — so also when a
/// run fails or panics.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> std::io::Result<Self> {
        let dir = results_dir()?.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The commit of the enclosing git checkout, read straight from `.git`
/// (no process spawned); `"unknown"` outside a checkout.
fn git_commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// What tells two result files apart before they are compared: the
/// machine and build half. The run half (seed, sizes, sections) is added
/// by the workload.
pub fn machine_fingerprint(threads: usize) -> Vec<(String, Json)> {
    use dsidx::series::distance::{hardware_simd_available, simd_enabled};
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let repo = benchmark_dir().join("..");
    vec![
        ("commit".into(), Json::str(git_commit(&repo))),
        ("rustc".into(), Json::str(rustc_version())),
        ("cpu".into(), Json::str(cpu_model())),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("threads".into(), Json::Num(threads as f64)),
        ("simd_enabled".into(), Json::Bool(simd_enabled())),
        (
            "hardware_simd_available".into(),
            Json::Bool(hardware_simd_available()),
        ),
        ("obs_enabled".into(), Json::Bool(dsidx::obs::enabled())),
        (
            "trace_stream".into(),
            Json::Bool(dsidx::obs::trace::enabled()),
        ),
    ]
}
