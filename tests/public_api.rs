//! Facade-surface snapshot: the public API of the `dsidx` facade crate
//! (`crates/core`) is extracted from its sources and compared against a
//! hand-maintained surface list, so growth of the facade is a deliberate,
//! reviewed act — the regression guard for the one-query-plane redesign
//! (the pre-plane facade had grown a ~22-method matrix nobody signed off
//! on).
//!
//! On mismatch the test prints the freshly extracted surface; if the
//! change is intentional, copy it into `tests/public_api_surface.txt`.

use std::fmt::Write as _;
use std::path::Path;

/// Extracts `pub fn` / `pub struct` / `pub enum` / `pub trait` /
/// `pub type` / `pub const` / `pub use` items from one source file, skipping comments and `#[cfg(test)]` items. The
/// skip tracks brace depth, so it ends where the test module ends — a
/// `pub` item *after* a test module still lands in the snapshot.
fn extract(source: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut in_tests = false;
    let mut depth = 0i64;
    let mut entered = false;
    for line in source.lines() {
        let t = line.trim_start();
        if !in_tests && t.starts_with("#[cfg(test)]") {
            in_tests = true;
            depth = 0;
            entered = false;
        }
        if in_tests {
            // Net brace count per line is a good-enough tracker here:
            // braces inside string literals come in balanced pairs in
            // this codebase's test code.
            for c in line.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if entered && depth <= 0 {
                in_tests = false;
            }
            continue;
        }
        if t.starts_with("//") {
            continue;
        }
        for (prefix, kind) in [
            ("pub fn ", "fn"),
            ("pub struct ", "struct"),
            ("pub enum ", "enum"),
            ("pub trait ", "trait"),
            ("pub type ", "type"),
            ("pub use ", "use"),
            ("pub const ", "const"),
        ] {
            if let Some(rest) = t.strip_prefix(prefix) {
                // A re-export is named by what it exports, not by where
                // it comes from.
                let rest = match kind {
                    "use" => rest.rsplit("::").next().unwrap_or(rest),
                    _ => rest,
                };
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    items.push(format!("{kind} {name}"));
                }
            }
        }
    }
    items
}

#[test]
fn facade_public_surface_matches_snapshot() {
    let core = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src");
    let mut surface = String::new();
    for file in [
        "answers.rs",
        "engine.rs",
        "error.rs",
        "options.rs",
        "search.rs",
        "shard.rs",
        "spec.rs",
    ] {
        let source = std::fs::read_to_string(core.join(file))
            .unwrap_or_else(|e| panic!("reading {file}: {e}"));
        let mut items = extract(&source);
        items.sort();
        for item in items {
            writeln!(surface, "{file}: {item}").unwrap();
        }
    }
    let snapshot_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/public_api_surface.txt");
    let snapshot = std::fs::read_to_string(&snapshot_path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", snapshot_path.display()));
    assert_eq!(
        snapshot.trim(),
        surface.trim(),
        "\n\nThe dsidx facade's public surface changed. If this is deliberate,\n\
         update tests/public_api_surface.txt to:\n\n{surface}\n"
    );
}
