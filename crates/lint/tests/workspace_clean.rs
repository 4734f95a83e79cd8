//! Self-check: the live workspace is lint-clean, and a deliberately
//! injected violation of each rule is caught. This is the test that keeps
//! `cargo test -q` and the CI `lint-invariants` lane honest about each
//! other.

use std::path::{Path, PathBuf};

use dsidx_lint::Workspace;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root")
        .to_owned()
}

#[test]
fn live_workspace_is_lint_clean() {
    let ws = Workspace::load(&root());
    assert!(
        ws.files.len() > 50,
        "workspace scan found only {} files — discovery is broken",
        ws.files.len()
    );
    let report = ws.check();
    assert!(
        report.clean(),
        "workspace has lint violations:\n{}",
        report.diagnostics()
    );
    assert!(
        report.stale_allows.is_empty(),
        "stale lint.allow entries at lines {:?}",
        report.stale_allows
    );
}

/// Asserts that injecting `files` into the clean workspace produces at
/// least one `rule` violation in `expect_file`.
fn assert_injected_caught(files: &[(&str, &str)], rule: &str, expect_file: &str) {
    let mut ws = Workspace::load(&root());
    for (path, contents) in files {
        ws.add_file(path, contents);
    }
    let report = ws.check();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == rule && v.file == expect_file),
        "injected {rule} violation in {expect_file} was not caught; got:\n{}",
        report.diagnostics()
    );
}

#[test]
fn injected_unsafe_without_safety_is_caught() {
    assert_injected_caught(
        &[(
            "crates/series/src/zz_lint_inject.rs",
            include_str!("../fixtures/unsafe_safety_bad.rs"),
        )],
        "unsafe-safety",
        "crates/series/src/zz_lint_inject.rs",
    );
}

#[test]
fn injected_ungated_kernel_call_is_caught() {
    // A fresh kernel plus an ungated call site, both outside the
    // dispatcher set — self-contained, independent of real kernel names.
    assert_injected_caught(
        &[
            (
                "crates/tree/src/zz_kern.rs",
                include_str!("../fixtures/simd_dispatch_good_kernel.rs"),
            ),
            (
                "crates/paris/src/zz_caller.rs",
                include_str!("../fixtures/simd_dispatch_caller_bad.rs"),
            ),
        ],
        "simd-dispatch",
        "crates/paris/src/zz_caller.rs",
    );
}

#[test]
fn injected_unannotated_relaxed_is_caught() {
    assert_injected_caught(
        &[(
            "crates/sync/src/zz_lint_inject.rs",
            include_str!("../fixtures/atomics_bad.rs"),
        )],
        "atomics-ordering",
        "crates/sync/src/zz_lint_inject.rs",
    );
}

#[test]
fn injected_unwrapped_storage_read_is_caught() {
    assert_injected_caught(
        &[(
            "crates/query/src/zz_lint_inject.rs",
            include_str!("../fixtures/error_context_bad.rs"),
        )],
        "error-context",
        "crates/query/src/zz_lint_inject.rs",
    );
}

#[test]
fn injected_uncataloged_metric_is_caught() {
    assert_injected_caught(
        &[(
            "crates/obs/src/zz_lint_inject.rs",
            "//! Injected.\n/// Rogue metric.\npub const ZZ: &str = \"dsidx_zz_injected_total\";\n",
        )],
        "obs-catalog",
        "crates/obs/src/zz_lint_inject.rs",
    );
}
