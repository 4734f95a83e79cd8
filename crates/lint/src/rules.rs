//! The rule passes.
//!
//! Each rule is a pure function from the scanned [`Workspace`] to a list of
//! [`Violation`]s; allowlist filtering and reporting happen in
//! [`crate::report::assemble`]. Rules operate on the stripped code/comment/string
//! channels from [`crate::scan`], so comments and string literals can never
//! masquerade as code.

use crate::scan::SourceFile;
use crate::Workspace;

/// One finding, addressed so CI logs are clickable.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id.
    pub rule: &'static str,
    /// What is wrong and what would fix it.
    pub message: String,
}

impl Violation {
    fn new(file: &str, line0: usize, rule: &'static str, message: String) -> Self {
        Self {
            file: file.to_owned(),
            line: line0 + 1,
            rule,
            message,
        }
    }
}

/// Static description of a rule, driving `--explain` and the JSON report.
pub struct Rule {
    /// Stable kebab-case id used in diagnostics and the allowlist.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Long-form `--explain` text.
    pub explain: &'static str,
    /// The pass itself.
    pub check: fn(&Workspace) -> Vec<Violation>,
}

/// Every rule, in report order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "unsafe-safety",
        summary: "every unsafe block/fn/impl carries a SAFETY justification; \
                  unsafe crates deny unsafe_op_in_unsafe_fn",
        explain: "\
Every `unsafe` block or `unsafe impl` must be immediately preceded by a
`// SAFETY:` comment stating why the operation is sound (the comment may sit
up to three lines above to allow multi-line statements). An `unsafe fn` may
alternatively document its contract with a `# Safety` rustdoc section in the
doc block directly above the declaration. In addition, every crate that
contains any unsafe code must carry `#![deny(unsafe_op_in_unsafe_fn)]` in
its lib.rs, so unsafe operations inside unsafe fns still need their own
`unsafe { }` block — and therefore their own SAFETY comment.

Why: the paper's engines lean on hand-rolled concurrency (pool job erasure)
and AVX2 kernels; an undocumented unsafe site is a soundness review nobody
can perform. CI's clippy command rejects most such sites on its own
(`undocumented_unsafe_blocks` covers blocks and `unsafe impl`,
`unsafe_op_in_unsafe_fn` bare operations, `missing_safety_doc` public
fns), but a private `unsafe fn` with no `# Safety` section gets through
it: only this rule asks that contract of every unsafe fn.

Fix: write the justification, or — for generated/vendored code only — add a
`lint.allow` entry with a reason.",
        check: check_unsafe_safety,
    },
    Rule {
        id: "simd-dispatch",
        summary: "#[target_feature] kernels are unsafe fns reachable only \
                  through gated dispatcher modules",
        explain: "\
Functions annotated `#[target_feature(enable = ...)]` compile to code that
faults on CPUs without the feature, so they must (a) be declared `unsafe fn`
and (b) only be called from their dispatcher modules — the files that gate
on `simd_enabled()` (which itself implies `is_x86_feature_detected!`) — or
from `#[cfg(test)]` code that performs its own gating. The dispatcher set is
crates/series/src/distance/{mod,dtw,simd}.rs and
crates/isax/src/{mindist,paa,simd}.rs; a `lint.allow` entry for this rule adds a
file to the set. Any dispatcher that calls a kernel defined elsewhere must
itself mention `simd_enabled` so the runtime gate is visibly present.

Why: one ungated call site makes every answer wrong (or SIGILLs) on a
non-AVX2 host, and the DSIDX_NO_SIMD kill-switch stops being authoritative.

Fix: route the call through the dispatching wrapper, or register the file
as a dispatcher via lint.allow and add the gate.",
        check: check_simd_dispatch,
    },
    Rule {
        id: "error-context",
        summary: "no .unwrap()/.expect() on fallible storage reads in the \
                  engine/query crates",
        explain: "\
In crates paris/messi/query/ucr/core, a call to a StorageError-returning
read (`.fetch(`, `.read_into(`, `.read(`) must not be followed by
`.unwrap()` or `.expect(` on the same statement: mid-query I/O failures must
propagate through `?` into ErrorSlot so they surface with phase/shard/query
context (`during <phase> (shard <s>, query <i>): ...`), never as a worker
panic that poisons the pool.

Why: PR 5 made every MESSI path fallible end-to-end and PR 8 added per-shard
context; one .expect() on a read reintroduces the panic path that machinery
exists to prevent.

Fix: propagate with `?` (annotating via ErrorSlot::for_phase where in a
parallel region), or allowlist a genuinely infallible site with a reason.",
        check: check_error_context,
    },
    Rule {
        id: "atomics-ordering",
        summary: "every Ordering::Relaxed on a cross-thread publish point \
                  carries an // ORDERING: rationale",
        explain: "\
Every `Ordering::Relaxed` in non-test library code must be justified by an
`// ORDERING:` comment — inline, or in the contiguous comment block directly
above the statement (one comment covers an unbroken run of Relaxed lines,
e.g. a group of stat-counter loads). Alternatively a `lint.allow` entry can
blanket-allow a file or crate; the shipped allowlist covers the obs counter
plane, where Relaxed monotonic counters are the documented design.

Why: the engines publish across threads through atomics — the SharedTopK
BSF threshold, ErrorSlot poison flag, pool generation counter, WorkQueue
head. A Relaxed that should be Release/Acquire is a silent correctness bug
that only a reviewer reading the rationale can catch; this rule forces the
rationale to exist.

Fix: write the `// ORDERING:` comment explaining why relaxed suffices (or
why the fence/stronger op elsewhere provides the edge), upgrade the
ordering if it does not, or allowlist counter-only files with a reason.",
        check: check_atomics_ordering,
    },
    Rule {
        id: "obs-catalog",
        summary: "README metric/trace catalogs and the code stay in sync",
        explain: "\
Every `dsidx_*` metric name defined as a string literal in library code must
appear in the README metric catalog (the table between
`<!-- lint:metric-catalog -->` and `<!-- lint:end-catalog -->`), and every
trace event name passed to `trace::emit(...)` must appear in the README
trace catalog (between `<!-- lint:trace-catalog -->` and
`<!-- lint:end-catalog -->`) — and vice versa: a catalog row whose name no
longer exists in code is drift too. Bench/test/example code is excluded
(experiment-local names are not the production catalog).

Why: the observability plane is only trustworthy if operators can look up
every name they see in a scrape or a trace; PR 7 wrote the catalog, this
rule keeps it from rotting.

Fix: add the catalog row (name in backticks in the first table column), or
delete the stale row/constant.",
        check: check_obs_catalog,
    },
];

/// Looks up a rule by id.
#[must_use]
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

fn has_word(code: &str, word: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut start = 0usize;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || {
            let c = bytes[at - 1] as char;
            !c.is_alphanumeric() && c != '_'
        };
        let end = at + word.len();
        let after_ok = end >= bytes.len() || {
            let c = bytes[end] as char;
            !c.is_alphanumeric() && c != '_'
        };
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + word.len();
    }
    None
}

// ---------------------------------------------------------------- rule 1

/// `true` when the unsafe site at `idx` has a `SAFETY:` comment inline or
/// anywhere in the contiguous comment block directly above it (multi-line
/// justifications put the `SAFETY:` token several lines up).
fn safety_above(f: &SourceFile, idx: usize) -> bool {
    if f.lines[idx].comment.contains("SAFETY:") {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &f.lines[j];
        let code = l.code.trim_end();
        let comment_only = code.trim().is_empty() && !l.comment.is_empty();
        // A line ending mid-statement (`let x =`, an open call, a trailing
        // operator) keeps the unsafe site attached to the lines above it.
        let continuation = ["=", "(", ","].iter().any(|s| code.ends_with(s));
        if !comment_only && !continuation {
            return false;
        }
        if l.comment.contains("SAFETY:") {
            return true;
        }
    }
    false
}

/// Walks the contiguous doc/attribute block above `idx` and returns its
/// accumulated comment text (for `# Safety` sections on unsafe fns).
fn doc_block_above(f: &SourceFile, idx: usize) -> String {
    let mut text = String::new();
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let code = f.lines[j].code.trim();
        let comment = &f.lines[j].comment;
        let is_attr = code.starts_with("#[") || code.starts_with("#!");
        let is_doc = code.is_empty() && !comment.is_empty();
        if is_attr || is_doc {
            text.push_str(comment);
            text.push('\n');
        } else {
            break;
        }
    }
    text
}

fn check_unsafe_safety(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut crates_with_unsafe: Vec<String> = Vec::new();
    for f in &ws.files {
        for (idx, line) in f.lines.iter().enumerate() {
            let Some(_) = has_word(&line.code, "unsafe") else {
                continue;
            };
            if let Some(krate) = crate_prefix(&f.path) {
                if !crates_with_unsafe.contains(&krate) {
                    crates_with_unsafe.push(krate);
                }
            }
            let code = &line.code;
            let is_impl = code.contains("unsafe impl");
            let is_fn = !is_impl && code.contains("unsafe fn");
            let ok = if is_fn {
                safety_above(f, idx) || doc_block_above(f, idx).contains("# Safety")
            } else {
                safety_above(f, idx)
            };
            if !ok {
                let kind = if is_impl {
                    "unsafe impl"
                } else if is_fn {
                    "unsafe fn"
                } else {
                    "unsafe block"
                };
                out.push(Violation::new(
                    &f.path,
                    idx,
                    "unsafe-safety",
                    format!(
                        "{kind} without an immediately preceding `// SAFETY:` comment{}",
                        if is_fn {
                            " or a `# Safety` doc section"
                        } else {
                            ""
                        }
                    ),
                ));
            }
        }
    }
    // Crate-level gate: unsafe code requires deny(unsafe_op_in_unsafe_fn).
    for krate in crates_with_unsafe {
        let lib = format!("{krate}/src/lib.rs");
        let denies = ws.files.iter().any(|f| {
            f.path == lib
                && f.lines
                    .iter()
                    .any(|l| l.code.contains("#![deny(unsafe_op_in_unsafe_fn)]"))
        });
        if !denies {
            out.push(Violation::new(
                &lib,
                0,
                "unsafe-safety",
                "crate contains unsafe code but lib.rs lacks \
                 `#![deny(unsafe_op_in_unsafe_fn)]`"
                    .to_owned(),
            ));
        }
    }
    out
}

/// `crates/foo/src/...` / `shims/foo/src/...` -> `crates/foo`.
fn crate_prefix(path: &str) -> Option<String> {
    let mut parts = path.split('/');
    let top = parts.next()?;
    if top != "crates" && top != "shims" {
        return None;
    }
    let name = parts.next()?;
    if parts.next()? != "src" {
        return None;
    }
    Some(format!("{top}/{name}"))
}

// ---------------------------------------------------------------- rule 2

/// Files allowed to call `#[target_feature]` kernels directly: they hold
/// the runtime dispatch (`simd_enabled()` + feature detection).
const DISPATCHERS: &[&str] = &[
    "crates/series/src/distance/mod.rs",
    "crates/series/src/distance/dtw.rs",
    "crates/series/src/distance/simd.rs",
    "crates/isax/src/mindist.rs",
    "crates/isax/src/paa.rs",
    "crates/isax/src/simd.rs",
];

fn check_simd_dispatch(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    // Pass 1: collect kernels (fn name, defining file) and check unsafety.
    let mut kernels: Vec<(String, String)> = Vec::new();
    for f in &ws.files {
        for (idx, line) in f.lines.iter().enumerate() {
            if !line.code.contains("#[target_feature") {
                continue;
            }
            // The fn declaration follows within a few lines (other
            // attributes may intervene).
            let mut decl = None;
            for j in idx..(idx + 6).min(f.lines.len()) {
                if let Some(pos) = f.lines[j].code.find("fn ") {
                    decl = Some((j, pos));
                    break;
                }
            }
            let Some((j, pos)) = decl else {
                out.push(Violation::new(
                    &f.path,
                    idx,
                    "simd-dispatch",
                    "#[target_feature] attribute with no fn declaration in reach".to_owned(),
                ));
                continue;
            };
            let code = &f.lines[j].code;
            let name: String = code[pos + 3..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !code[..pos].contains("unsafe") {
                out.push(Violation::new(
                    &f.path,
                    j,
                    "simd-dispatch",
                    format!("#[target_feature] fn `{name}` must be declared `unsafe fn`"),
                ));
            }
            if !name.is_empty() {
                kernels.push((name, f.path.clone()));
            }
        }
    }
    // Pass 2: audit call sites.
    let extra_dispatchers: Vec<&str> = ws
        .allow
        .entries
        .iter()
        .filter(|e| e.rule == "simd-dispatch")
        .map(|e| e.glob.as_str())
        .collect();
    let is_dispatcher = |path: &str| {
        DISPATCHERS.contains(&path)
            || extra_dispatchers
                .iter()
                .any(|g| crate::allow::glob_match(g, path))
    };
    let mut gated_dispatchers: Vec<(&str, usize)> = Vec::new();
    for f in &ws.files {
        for (idx, line) in f.lines.iter().enumerate() {
            if f.is_test_line(idx) {
                continue;
            }
            for (name, def_file) in &kernels {
                let Some(at) = has_word(&line.code, name) else {
                    continue;
                };
                let after = &line.code[at + name.len()..];
                let is_call = after.trim_start().starts_with('(')
                    || after.trim_start().is_empty() && {
                        // call split across lines: `foo(\n args)` never
                        // splits between name and paren in rustfmt'd code,
                        // so treat bare trailing names as non-calls.
                        false
                    };
                let is_decl = line.code[..at].trim_end().ends_with("fn");
                if !is_call || is_decl {
                    continue;
                }
                // A same-named kernel defined in this very file makes the
                // call local (matching is name-based; `hsum256` exists in
                // both simd modules).
                if &f.path == def_file || kernels.iter().any(|(n, d)| n == name && d == &f.path) {
                    continue;
                }
                if is_dispatcher(&f.path) {
                    if !gated_dispatchers.iter().any(|(p, _)| *p == f.path) {
                        gated_dispatchers.push((&f.path, idx));
                    }
                } else {
                    out.push(Violation::new(
                        &f.path,
                        idx,
                        "simd-dispatch",
                        format!(
                            "call to #[target_feature] kernel `{name}` outside its \
                             dispatcher modules — AVX2 code reachable without the \
                             simd_enabled() gate"
                        ),
                    ));
                }
            }
        }
    }
    // Pass 3: dispatchers that call foreign kernels must carry the gate.
    for (path, first_call) in gated_dispatchers {
        let gated = ws
            .files
            .iter()
            .any(|f| f.path == path && f.lines.iter().any(|l| l.code.contains("simd_enabled")));
        if !gated {
            out.push(Violation::new(
                path,
                first_call,
                "simd-dispatch",
                "dispatcher calls a #[target_feature] kernel but never checks \
                 `simd_enabled()`"
                    .to_owned(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------- rule 3

/// Crates whose query paths must propagate storage errors.
const ENGINE_CRATES: &[&str] = &[
    "crates/paris/",
    "crates/messi/",
    "crates/query/",
    "crates/ucr/",
    "crates/core/",
];

/// Method calls returning `Result<_, StorageError>`.
const FALLIBLE_READS: &[&str] = &[".fetch(", ".read_into(", ".read("];

fn check_error_context(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in &ws.files {
        if !ENGINE_CRATES.iter().any(|c| f.path.starts_with(c)) {
            continue;
        }
        for (idx, line) in f.lines.iter().enumerate() {
            if f.is_test_line(idx) {
                continue;
            }
            let Some(read) = FALLIBLE_READS.iter().find(|t| line.code.contains(**t)) else {
                continue;
            };
            // The panic may sit on the same line or on a chained next line.
            let mut stmt = line.code.clone();
            if let Some(next) = f.lines.get(idx + 1) {
                if next.code.trim_start().starts_with('.') {
                    stmt.push_str(next.code.trim_start());
                }
            }
            if stmt.contains(".unwrap()") || stmt.contains(".expect(") {
                out.push(Violation::new(
                    &f.path,
                    idx,
                    "error-context",
                    format!(
                        "`{}` result unwrapped — storage failures must propagate \
                         with `?` (via ErrorSlot in parallel phases) so they carry \
                         phase/shard/query context",
                        read.trim_start_matches('.').trim_end_matches('(')
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------- rule 3b

/// How far above a `Relaxed` site the `ORDERING:` comment may sit. The
/// window is bounded by blank lines: a comment only covers the contiguous
/// statement run beneath it.
const ORDERING_WINDOW: usize = 12;

fn check_atomics_ordering(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in &ws.files {
        for (idx, line) in f.lines.iter().enumerate() {
            if f.is_test_line(idx) || !line.code.contains("Ordering::Relaxed") {
                continue;
            }
            // Walk upward through the contiguous block (no fully blank
            // line) looking for the rationale.
            let mut ok = line.comment.contains("ORDERING:");
            let lo = idx.saturating_sub(ORDERING_WINDOW);
            let mut j = idx;
            while !ok && j > lo {
                j -= 1;
                let l = &f.lines[j];
                if l.code.trim().is_empty() && l.comment.is_empty() {
                    break; // blank line ends the covered run
                }
                if l.comment.contains("ORDERING:") {
                    ok = true;
                }
            }
            if !ok {
                out.push(Violation::new(
                    &f.path,
                    idx,
                    "atomics-ordering",
                    "Ordering::Relaxed without an `// ORDERING:` rationale in the \
                     statement's comment block"
                        .to_owned(),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------- rule 4

/// Paths excluded from catalog collection: experiment/test-local names are
/// not part of the production observability surface.
const CATALOG_EXCLUDED: &[&str] = &["crates/bench/", "tests/", "examples/", "crates/lint/"];

fn metric_name_ok(s: &str) -> bool {
    s.starts_with("dsidx_")
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

fn event_name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Extracts backticked names from the first column of table rows between
/// `marker` and the following `<!-- lint:end-catalog -->`.
fn readme_catalog(readme: &str, marker: &str) -> Option<Vec<(usize, String)>> {
    let mut names = Vec::new();
    let mut inside = false;
    let mut found = false;
    for (idx, line) in readme.lines().enumerate() {
        if line.contains(marker) {
            inside = true;
            found = true;
            continue;
        }
        if inside && line.contains("<!-- lint:end-catalog -->") {
            inside = false;
            continue;
        }
        if !inside || !line.trim_start().starts_with('|') {
            continue;
        }
        let first_cell = line.trim_start().trim_start_matches('|');
        let first_cell = first_cell.split('|').next().unwrap_or("");
        let mut rest = first_cell;
        while let Some(start) = rest.find('`') {
            let tail = &rest[start + 1..];
            let Some(end) = tail.find('`') else { break };
            names.push((idx, tail[..end].to_owned()));
            rest = &tail[end + 1..];
        }
    }
    found.then_some(names)
}

fn check_obs_catalog(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some((readme_path, readme)) = &ws.readme else {
        return vec![Violation::new(
            "README.md",
            0,
            "obs-catalog",
            "README.md not found".to_owned(),
        )];
    };
    // Code side.
    let mut code_metrics: Vec<(String, String, usize)> = Vec::new();
    let mut code_events: Vec<(String, String, usize)> = Vec::new();
    for f in &ws.files {
        if CATALOG_EXCLUDED.iter().any(|p| f.path.starts_with(p)) {
            continue;
        }
        for (idx, line) in f.lines.iter().enumerate() {
            if f.is_test_line(idx) {
                continue;
            }
            for s in &line.strings {
                if metric_name_ok(s) && !code_metrics.iter().any(|(n, _, _)| n == s) {
                    code_metrics.push((s.clone(), f.path.clone(), idx));
                }
            }
            if line.code.contains("emit(") && !line.code.contains("fn ") {
                // First string literal on this or the next two lines is the
                // event name.
                let name = (idx..(idx + 3).min(f.lines.len()))
                    .flat_map(|j| f.lines[j].strings.first())
                    .next();
                if let Some(name) = name {
                    if event_name_ok(name) && !code_events.iter().any(|(n, _, _)| n == name) {
                        code_events.push((name.clone(), f.path.clone(), idx));
                    }
                }
            }
        }
    }
    // README side.
    let metric_rows = readme_catalog(readme, "<!-- lint:metric-catalog -->");
    let trace_rows = readme_catalog(readme, "<!-- lint:trace-catalog -->");
    let Some(metric_rows) = metric_rows else {
        out.push(Violation::new(
            readme_path,
            0,
            "obs-catalog",
            "README has no `<!-- lint:metric-catalog -->` marker".to_owned(),
        ));
        return out;
    };
    let Some(trace_rows) = trace_rows else {
        out.push(Violation::new(
            readme_path,
            0,
            "obs-catalog",
            "README has no `<!-- lint:trace-catalog -->` marker".to_owned(),
        ));
        return out;
    };
    let readme_metrics: Vec<&(usize, String)> = metric_rows
        .iter()
        .filter(|(_, n)| metric_name_ok(n))
        .collect();
    let readme_events: Vec<&(usize, String)> = trace_rows
        .iter()
        .filter(|(_, n)| event_name_ok(n))
        .collect();
    for (name, file, idx) in &code_metrics {
        if !readme_metrics.iter().any(|(_, n)| n == name) {
            out.push(Violation::new(
                file,
                *idx,
                "obs-catalog",
                format!("metric `{name}` is not in the README metric catalog"),
            ));
        }
    }
    for (idx, name) in &readme_metrics {
        if !code_metrics.iter().any(|(n, _, _)| n == name) {
            out.push(Violation::new(
                readme_path,
                *idx,
                "obs-catalog",
                format!("README catalogs metric `{name}` but no code defines it"),
            ));
        }
    }
    for (name, file, idx) in &code_events {
        if !readme_events.iter().any(|(_, n)| n == name) {
            out.push(Violation::new(
                file,
                *idx,
                "obs-catalog",
                format!("trace event `{name}` is not in the README trace catalog"),
            ));
        }
    }
    for (idx, name) in &readme_events {
        if !code_events.iter().any(|(n, _, _)| n == name) {
            out.push(Violation::new(
                readme_path,
                *idx,
                "obs-catalog",
                format!("README catalogs trace event `{name}` but no code emits it"),
            ));
        }
    }
    out
}
