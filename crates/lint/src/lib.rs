//! `dsidx-lint` — a dependency-free workspace invariant checker.
//!
//! The engines in this repository (ADS+, ParIS+, MESSI) are built on
//! hand-rolled concurrency and AVX2 kernels behind a runtime-dispatch
//! contract. Several invariants established by earlier PRs are not
//! expressible to rustc or clippy, so this crate machine-checks them at the
//! source level:
//!
//! | rule id | invariant |
//! |---|---|
//! | `unsafe-safety` | every unsafe site carries a `// SAFETY:` (or `# Safety`) justification; unsafe crates deny `unsafe_op_in_unsafe_fn` |
//! | `simd-dispatch` | `#[target_feature]` kernels are unsafe fns, reachable only via gated dispatcher modules |
//! | `atomics-ordering` | every `Ordering::Relaxed` publish point carries an `// ORDERING:` rationale or an allowlist entry |
//! | `error-context` | no `.unwrap()`/`.expect()` on fallible storage reads in engine/query crates |
//! | `obs-catalog` | README metric/trace catalogs match the names defined in code, both directions |
//!
//! Run `cargo run -p dsidx-lint --release` from the workspace; see
//! `--explain <rule-id>` for the full rationale behind any rule, and
//! `lint.allow` at the repository root for the documented exceptions.

pub mod allow;
pub mod report;
pub mod rules;
pub mod scan;

use std::fs;
use std::path::{Path, PathBuf};

use allow::Allowlist;
use report::Report;
use scan::SourceFile;

/// The scanned workspace: sources, README, and allowlist.
pub struct Workspace {
    /// Workspace root.
    pub root: PathBuf,
    /// Scanned `.rs` files, sorted by path.
    pub files: Vec<SourceFile>,
    /// `(path, contents)` of README.md when present.
    pub readme: Option<(String, String)>,
    /// Parsed `lint.allow` (empty when the file is absent).
    pub allow: Allowlist,
}

impl Workspace {
    /// Scans the workspace rooted at `root`.
    #[must_use]
    pub fn load(root: &Path) -> Self {
        let files = scan::discover(root);
        let readme = fs::read_to_string(root.join("README.md"))
            .ok()
            .map(|s| ("README.md".to_owned(), s));
        let allow = fs::read_to_string(root.join("lint.allow"))
            .map(|s| Allowlist::parse(&s))
            .unwrap_or_default();
        Self {
            root: root.to_owned(),
            files,
            readme,
            allow,
        }
    }

    /// Adds (or replaces) an in-memory file — used by the self-check tests
    /// to inject deliberate violations into an otherwise-clean workspace.
    pub fn add_file(&mut self, path: &str, contents: &str) {
        self.files.retain(|f| f.path != path);
        self.files.push(SourceFile::parse(path, contents));
        self.files.sort_by(|a, b| a.path.cmp(&b.path));
    }

    /// Runs every rule and applies the allowlist.
    #[must_use]
    pub fn check(&self) -> Report {
        let mut raw = Vec::new();
        for rule in rules::RULES {
            raw.extend((rule.check)(self));
        }
        report::assemble(self, raw)
    }
}

/// Builds a [`Workspace`] directly from in-memory sources — the fixture
/// tests use this to exercise rules without touching the real tree.
#[must_use]
pub fn workspace_from_sources(
    files: &[(&str, &str)],
    readme: Option<&str>,
    allow: &str,
) -> Workspace {
    let mut fs: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
    fs.sort_by(|a, b| a.path.cmp(&b.path));
    Workspace {
        root: PathBuf::new(),
        files: fs,
        readme: readme.map(|s| ("README.md".to_owned(), s.to_owned())),
        allow: Allowlist::parse(allow),
    }
}
