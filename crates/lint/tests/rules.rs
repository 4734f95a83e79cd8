//! Fixture-based positive/negative tests, one pair per rule. Fixtures live
//! in `fixtures/` (excluded from workspace discovery) and are mounted at
//! synthetic paths so crate-scoped rules see the layout they expect.

use dsidx_lint::report::Report;
use dsidx_lint::workspace_from_sources;

const UNSAFE_GOOD: &str = include_str!("../fixtures/unsafe_safety_good.rs");
const UNSAFE_BAD: &str = include_str!("../fixtures/unsafe_safety_bad.rs");
const SIMD_KERNEL_BAD: &str = include_str!("../fixtures/simd_dispatch_bad.rs");
const SIMD_CALLER_BAD: &str = include_str!("../fixtures/simd_dispatch_caller_bad.rs");
const SIMD_KERNEL_GOOD: &str = include_str!("../fixtures/simd_dispatch_good_kernel.rs");
const SIMD_DISPATCHER_GOOD: &str = include_str!("../fixtures/simd_dispatch_good_dispatcher.rs");
const ATOMICS_GOOD: &str = include_str!("../fixtures/atomics_good.rs");
const ATOMICS_BAD: &str = include_str!("../fixtures/atomics_bad.rs");
const ERRCTX_GOOD: &str = include_str!("../fixtures/error_context_good.rs");
const ERRCTX_BAD: &str = include_str!("../fixtures/error_context_bad.rs");
const OBS_CODE: &str = include_str!("../fixtures/obs_metrics.rs");
const OBS_README: &str = include_str!("../fixtures/obs_readme.md");

fn findings<'r>(report: &'r Report, rule: &str) -> Vec<(&'r str, usize)> {
    report
        .violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| (v.file.as_str(), v.line))
        .collect()
}

#[test]
fn unsafe_safety_negative() {
    let ws = workspace_from_sources(&[("crates/demo/src/lib.rs", UNSAFE_BAD)], None, "");
    let r = ws.check();
    let f = findings(&r, "unsafe-safety");
    assert!(
        f.contains(&("crates/demo/src/lib.rs", 6)),
        "missing block finding: {f:?}"
    );
    assert!(
        f.contains(&("crates/demo/src/lib.rs", 1)),
        "missing deny(unsafe_op_in_unsafe_fn) finding: {f:?}"
    );
}

#[test]
fn unsafe_safety_positive() {
    let ws = workspace_from_sources(&[("crates/demo/src/lib.rs", UNSAFE_GOOD)], None, "");
    assert_eq!(findings(&ws.check(), "unsafe-safety"), vec![]);
}

#[test]
fn simd_dispatch_negative() {
    let ws = workspace_from_sources(
        &[
            ("crates/demo/src/kern.rs", SIMD_KERNEL_BAD),
            ("crates/demo/src/caller.rs", SIMD_CALLER_BAD),
        ],
        None,
        "",
    );
    let r = ws.check();
    let f = findings(&r, "simd-dispatch");
    assert!(
        f.contains(&("crates/demo/src/kern.rs", 6)),
        "missing not-unsafe kernel finding: {f:?}"
    );
    assert!(
        f.contains(&("crates/demo/src/caller.rs", 6)),
        "missing ungated-call finding: {f:?}"
    );
}

#[test]
fn simd_dispatch_positive() {
    // The dispatcher path is in the built-in set and mentions the gate.
    let ws = workspace_from_sources(
        &[
            ("crates/demo/src/kern.rs", SIMD_KERNEL_GOOD),
            ("crates/series/src/distance/simd.rs", SIMD_DISPATCHER_GOOD),
        ],
        None,
        "",
    );
    assert_eq!(findings(&ws.check(), "simd-dispatch"), vec![]);
}

#[test]
fn simd_dispatch_allowlist_registers_dispatchers() {
    // The same gated dispatcher at a non-default path passes only when a
    // simd-dispatch allow entry registers it.
    let files = [
        ("crates/demo/src/kern.rs", SIMD_KERNEL_GOOD),
        ("crates/demo/src/fast.rs", SIMD_DISPATCHER_GOOD),
    ];
    let denied = workspace_from_sources(&files, None, "");
    assert_eq!(findings(&denied.check(), "simd-dispatch").len(), 1);
    let allowed = workspace_from_sources(
        &files,
        None,
        "simd-dispatch crates/demo/src/fast.rs -- fixture dispatcher\n",
    );
    assert_eq!(findings(&allowed.check(), "simd-dispatch"), vec![]);
}

#[test]
fn atomics_ordering_negative() {
    let ws = workspace_from_sources(&[("crates/demo/src/a.rs", ATOMICS_BAD)], None, "");
    assert_eq!(
        findings(&ws.check(), "atomics-ordering"),
        vec![("crates/demo/src/a.rs", 9)]
    );
}

#[test]
fn atomics_ordering_positive_one_comment_covers_a_run() {
    let ws = workspace_from_sources(&[("crates/demo/src/a.rs", ATOMICS_GOOD)], None, "");
    assert_eq!(findings(&ws.check(), "atomics-ordering"), vec![]);
}

#[test]
fn atomics_ordering_allowlist_suppresses_and_counts() {
    let ws = workspace_from_sources(
        &[("crates/demo/src/a.rs", ATOMICS_BAD)],
        None,
        "atomics-ordering crates/demo/** -- fixture counters\n",
    );
    let r = ws.check();
    assert_eq!(findings(&r, "atomics-ordering"), vec![]);
    assert_eq!(r.allowed.len(), 1);
    assert!(r.stale_allows.is_empty());
}

#[test]
fn error_context_negative() {
    let ws = workspace_from_sources(&[("crates/query/src/fx.rs", ERRCTX_BAD)], None, "");
    assert_eq!(
        findings(&ws.check(), "error-context"),
        vec![("crates/query/src/fx.rs", 6), ("crates/query/src/fx.rs", 8)]
    );
}

#[test]
fn error_context_positive_and_scoped_to_engine_crates() {
    let clean = workspace_from_sources(&[("crates/query/src/fx.rs", ERRCTX_GOOD)], None, "");
    assert_eq!(findings(&clean.check(), "error-context"), vec![]);
    // The same unwraps in a non-engine crate are out of scope: storage's
    // own tests/tools may unwrap its readers.
    let out_of_scope =
        workspace_from_sources(&[("crates/storage/src/fx.rs", ERRCTX_BAD)], None, "");
    assert_eq!(findings(&out_of_scope.check(), "error-context"), vec![]);
}

#[test]
fn obs_catalog_bidirectional_drift() {
    let ws = workspace_from_sources(&[("crates/obs/src/fx.rs", OBS_CODE)], Some(OBS_README), "");
    let r = ws.check();
    let f = findings(&r, "obs-catalog");
    assert!(
        f.contains(&("crates/obs/src/fx.rs", 7)),
        "rogue metric not flagged: {f:?}"
    );
    assert!(
        f.contains(&("README.md", 7)),
        "stale README metric row not flagged: {f:?}"
    );
    assert!(
        f.iter().any(|(p, _)| *p == "crates/obs/src/fx.rs")
            && r.violations
                .iter()
                .any(|v| v.message.contains("rogue_event")),
        "rogue trace event not flagged: {f:?}"
    );
    assert_eq!(f.len(), 3, "exactly the three drift findings: {f:?}");
}

#[test]
fn obs_catalog_requires_markers() {
    let ws = workspace_from_sources(
        &[("crates/obs/src/fx.rs", OBS_CODE)],
        Some("# README without markers\n"),
        "",
    );
    let r = ws.check();
    assert_eq!(findings(&r, "obs-catalog"), vec![("README.md", 1)]);
}

#[test]
fn diagnostics_are_clickable_and_exit_is_nonzero_shaped() {
    let ws = workspace_from_sources(&[("crates/demo/src/lib.rs", UNSAFE_BAD)], None, "");
    let r = ws.check();
    assert!(!r.clean());
    let diag = r.diagnostics();
    assert!(
        diag.contains("crates/demo/src/lib.rs:6: unsafe-safety: "),
        "diagnostic format drifted: {diag}"
    );
}

#[test]
fn stale_allowlist_entries_are_reported() {
    let ws = workspace_from_sources(
        &[("crates/demo/src/a.rs", ATOMICS_GOOD)],
        None,
        "atomics-ordering crates/nowhere/** -- excuses nothing\n",
    );
    let r = ws.check();
    assert_eq!(r.stale_allows, vec![1]);
}

#[test]
fn malformed_allowlist_lines_fail_the_run() {
    let ws = workspace_from_sources(
        &[("crates/demo/src/a.rs", ATOMICS_GOOD)],
        None,
        "atomics-ordering crates/demo/**\n",
    );
    let r = ws.check();
    assert!(!r.clean(), "an entry without a reason must fail the run");
    assert!(r.diagnostics().contains("lint.allow:1"));
}
