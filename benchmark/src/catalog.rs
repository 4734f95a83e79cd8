//! The metric and workload names, units and bounds — the one list that
//! `BENCHMARK.json`, the README glossary and every printed result agree on
//! (`tests/smoke.rs` holds the first and the last to it).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen before
    /// it counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the index sees. Measured with stats off and no spans.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("open_ms", "ms", Lower, 0.25),
    e2e("save_ms", "ms", Lower, 0.25),
    e2e("query_ms_p50", "ms", Lower, 0.25),
    e2e("query_ms_p95", "ms", Lower, 0.25),
    e2e("queries_per_s", "1/s", Higher, 0.25),
    e2e("index_bytes_per_series", "B", Lower, 0.02),
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
];

/// What single layers do, read from outside on the traced run. The layer
/// is the prefix (this repository's crates, plus `bench` for the harness).
pub const PER_LAYER: &[MetricDef] = &[
    layer("series.ed_ns", "ns", Lower),
    layer("series.ed_bounded_ns", "ns", Lower),
    layer("series.lb_keogh_ns", "ns", Lower),
    layer("series.dtw_ns", "ns", Lower),
    layer("series.dtw_abandon_ns", "ns", Lower),
    layer("isax.summarize_ns", "ns", Lower),
    layer("isax.table_build_ns", "ns", Lower),
    layer("isax.node_mindist_ns", "ns", Lower),
    layer("isax.mindist_mwords_per_s", "Mwords/s", Higher),
    layer("tree.insert_ns", "ns", Lower),
    layer("tree.flatten_ms", "ms", Lower),
    layer("tree.encode_ms", "ms", Lower),
    layer("tree.decode_ms", "ms", Lower),
    layer("tree.leaves", "count", Lower),
    layer("tree.max_depth", "count", Lower),
    layer("tree.leaf_fill_share", "ratio", Higher),
    layer("sync.broadcast_us", "us", Lower),
    layer("sync.topk_insert_ns", "ns", Lower),
    layer("sync.queue_claim_ns", "ns", Lower),
    layer("sync.worker_busy_share", "ratio", Higher),
    layer("sync.worker_parked_share", "ratio", Lower),
    layer("storage.read_series_us", "us", Lower),
    layer("storage.read_block_mib_per_s", "MiB/s", Higher),
    layer("storage.seeks_per_query", "count", Lower),
    layer("storage.read_kib_per_query", "KiB", Lower),
    layer("storage.charged_ms_per_query", "ms", Lower),
    layer("storage.build_read_mib", "MiB", Lower),
    layer("storage.build_write_mib", "MiB", Lower),
    layer("storage.write_amp", "ratio", Lower),
    layer("storage.open_read_kib", "KiB", Lower),
    layer("paris.build_io_share", "ratio", Higher),
    layer("query.lb_per_query", "count", Lower),
    layer("query.real_per_query", "count", Lower),
    layer("query.candidates_per_query", "count", Lower),
    layer("query.leaves_processed_per_query", "count", Lower),
    layer("query.nodes_pruned_per_query", "count", Higher),
    layer("query.broadcasts_per_query", "count", Lower),
    layer("query.pruned_share", "ratio", Higher),
    layer("query.lb_keogh_pruned_share", "ratio", Higher),
    layer("query.dtw_abandoned_share", "ratio", Higher),
    layer("query.fetch_share", "ratio", Lower),
    layer("query.phase.prepare_ms", "ms", Lower),
    layer("query.phase.seed_ms", "ms", Lower),
    layer("query.phase.sax_scan_ms", "ms", Lower),
    layer("query.phase.collect_ms", "ms", Lower),
    layer("query.phase.verify_ms", "ms", Lower),
    layer("query.phase.traversal_ms", "ms", Lower),
    layer("query.phase.dtw_cascade_ms", "ms", Lower),
    layer("query.phase_coverage", "ratio", Higher),
    layer("core.dispatch_us", "us", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.ops", "count", Higher),
    layer("bench.oracle_checked", "count", Higher),
    layer("failed_share", "ratio", Lower),
];

/// The definition of a metric this benchmark reports.
///
/// # Panics
/// Panics on a name that is not in the catalog: results are only ever
/// built from catalog names, so that is a bug here.
pub fn find(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::Workload;

    /// `BENCHMARK.json` is written by hand; this holds it to the catalog.
    #[test]
    fn benchmark_json_states_exactly_this_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = spec.get(key).unwrap().as_array();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(def.better.as_str())
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        let listed = spec.get("workloads").unwrap().as_array();
        assert_eq!(listed.len(), Workload::ALL.len());
        for (entry, workload) in listed.iter().zip(Workload::ALL) {
            assert_eq!(
                entry.get("name").and_then(Json::as_str),
                Some(workload.name())
            );
            assert_eq!(
                entry.get("why").and_then(Json::as_str),
                Some(workload.why())
            );
            assert!(workload.why().len() <= 200);
        }
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(def.name) && unit_ok(def.unit), "{}", def.name);
            assert!(seen.insert(def.name), "{} used twice", def.name);
            assert!(def.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }
}
