//! The process-wide metrics registry.
//!
//! Metrics are registered once — by name, optionally with a single
//! `key="value"` label — and come back as `&'static` handles backed by
//! plain atomics. Registration takes a mutex; every update after that is
//! a relaxed `fetch_add`, so instrumented hot paths never contend on
//! registry state. Registering the same `(name, label)` again returns the
//! existing handle, which is how per-instance call sites (one `Device` per
//! index, say) share one series per profile.
//!
//! Two exporters walk the registry: [`prometheus_text`] renders the
//! Prometheus text exposition format, [`json_snapshot`] a JSON document
//! with the same information (per-bucket counts non-cumulative). Both are
//! point-in-time reads of live atomics — counters may advance between two
//! reads of the same export, never backwards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of `u64` observations.
///
/// Bucket upper bounds are set at registration and never change; an
/// observation lands in the first bucket whose bound is `>= value`, or in
/// the implicit overflow bucket past the last bound. `sum`/`count` track
/// the running total and number of observations.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last one is the `+Inf` overflow.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The configured bucket upper bounds (exclusive of the `+Inf`
    /// overflow bucket).
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts; one longer than
    /// [`Histogram::bounds`], the final entry being the overflow bucket.
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// Strictly increasing bounds `first, first*factor, ...` (`count` of
/// them) — the usual shape for latency/bytes histograms.
///
/// # Panics
/// Panics if `first == 0`, `factor < 2`, or the sequence overflows `u64`.
#[must_use]
pub fn exponential_bounds(first: u64, factor: u64, count: usize) -> Vec<u64> {
    assert!(first > 0 && factor >= 2, "bounds must strictly increase");
    let mut bounds = Vec::with_capacity(count);
    let mut b = first;
    for _ in 0..count {
        bounds.push(b);
        b = b.checked_mul(factor).expect("histogram bound overflow");
    }
    bounds
}

/// A registered metric: a copyable `&'static` handle to the leaked
/// atomics (stable addresses — the registry Vec may reallocate, the
/// metrics never move).
#[derive(Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Histogram(&'static Histogram),
}

struct Entry {
    name: &'static str,
    help: &'static str,
    /// At most one `key="value"` label pair.
    label: Option<(&'static str, String)>,
    metric: Metric,
}

fn registry() -> &'static Mutex<Vec<Entry>> {
    static REGISTRY: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn register(
    name: &'static str,
    help: &'static str,
    label: Option<(&'static str, &str)>,
    make: impl FnOnce() -> Metric,
) -> Metric {
    let mut entries = registry().lock().expect("metrics registry poisoned");
    let found = entries
        .iter()
        .find(|e| e.name == name && e.label.as_ref().map(|(k, v)| (*k, v.as_str())) == label);
    if let Some(e) = found {
        return e.metric;
    }
    let metric = make();
    entries.push(Entry {
        name,
        help,
        label: label.map(|(k, v)| (k, v.to_owned())),
        metric,
    });
    metric
}

/// Registers (or finds) the counter `name` and returns its handle.
///
/// `help` is the Prometheus HELP line; the first registration's help text
/// wins. Counter names should end in `_total` per Prometheus convention.
pub fn counter(name: &'static str, help: &'static str) -> &'static Counter {
    counter_entry(name, help, None)
}

/// Registers (or finds) the counter `name{key="value"}`.
pub fn labeled_counter(
    name: &'static str,
    help: &'static str,
    key: &'static str,
    value: &str,
) -> &'static Counter {
    counter_entry(name, help, Some((key, value)))
}

fn counter_entry(
    name: &'static str,
    help: &'static str,
    label: Option<(&'static str, &str)>,
) -> &'static Counter {
    let metric = register(name, help, label, || {
        Metric::Counter(Box::leak(Box::new(Counter::default())))
    });
    match metric {
        Metric::Counter(c) => c,
        Metric::Histogram(_) => panic!("metric `{name}` already registered as a histogram"),
    }
}

/// Registers (or finds) the histogram `name` with the given bucket upper
/// bounds (strictly increasing; an `+Inf` overflow bucket is implicit).
///
/// A second registration under the same name returns the existing
/// histogram; its original bounds win.
pub fn histogram(name: &'static str, help: &'static str, bounds: &[u64]) -> &'static Histogram {
    histogram_entry(name, help, None, bounds)
}

/// Registers (or finds) the histogram `name{key="value"}`.
pub fn labeled_histogram(
    name: &'static str,
    help: &'static str,
    key: &'static str,
    value: &str,
    bounds: &[u64],
) -> &'static Histogram {
    histogram_entry(name, help, Some((key, value)), bounds)
}

fn histogram_entry(
    name: &'static str,
    help: &'static str,
    label: Option<(&'static str, &str)>,
    bounds: &[u64],
) -> &'static Histogram {
    let metric = register(name, help, label, || {
        Metric::Histogram(Box::leak(Box::new(Histogram::new(bounds))))
    });
    match metric {
        Metric::Histogram(h) => h,
        Metric::Counter(_) => panic!("metric `{name}` already registered as a counter"),
    }
}

fn escape_label(value: &str, out: &mut String) {
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn label_block(label: &Option<(&'static str, String)>, extra: Option<(&str, &str)>) -> String {
    let mut parts = Vec::new();
    if let Some((k, v)) = label {
        let mut escaped = String::new();
        escape_label(v, &mut escaped);
        parts.push(format!("{k}=\"{escaped}\""));
    }
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Renders every registered metric in the Prometheus text exposition
/// format (HELP/TYPE headers once per metric name, histograms as
/// cumulative `_bucket{le=...}` series plus `_sum`/`_count`).
#[must_use]
pub fn prometheus_text() -> String {
    let entries = registry().lock().expect("metrics registry poisoned");
    let mut out = String::new();
    let mut seen: Vec<&str> = Vec::new();
    for e in entries.iter() {
        if !seen.contains(&e.name) {
            seen.push(e.name);
            let mut help = String::new();
            for ch in e.help.chars() {
                match ch {
                    '\\' => help.push_str("\\\\"),
                    '\n' => help.push_str("\\n"),
                    c => help.push(c),
                }
            }
            let kind = match e.metric {
                Metric::Counter(_) => "counter",
                Metric::Histogram(_) => "histogram",
            };
            out.push_str(&format!(
                "# HELP {} {}\n# TYPE {} {}\n",
                e.name, help, e.name, kind
            ));
            // Emit every same-named entry (one per label value) under one
            // header block.
            for series in entries.iter().filter(|s| s.name == e.name) {
                render_series(series, &mut out);
            }
        }
    }
    out
}

fn render_series(e: &Entry, out: &mut String) {
    match e.metric {
        Metric::Counter(c) => {
            let labels = label_block(&e.label, None);
            out.push_str(&format!("{}{} {}\n", e.name, labels, c.get()));
        }
        Metric::Histogram(h) => {
            let counts = h.bucket_counts();
            let mut cumulative = 0u64;
            for (i, n) in counts.iter().enumerate() {
                cumulative += n;
                let le = h
                    .bounds()
                    .get(i)
                    .map_or_else(|| "+Inf".to_owned(), ToString::to_string);
                let labels = label_block(&e.label, Some(("le", &le)));
                out.push_str(&format!("{}_bucket{} {}\n", e.name, labels, cumulative));
            }
            let labels = label_block(&e.label, None);
            out.push_str(&format!("{}_sum{} {}\n", e.name, labels, h.sum()));
            out.push_str(&format!("{}_count{} {}\n", e.name, labels, h.count()));
        }
    }
}

fn json_labels(label: &Option<(&'static str, String)>) -> String {
    match label {
        None => "{}".to_owned(),
        Some((k, v)) => {
            let mut out = format!("{{\"{k}\":");
            crate::trace::push_json_str(v, &mut out);
            out.push('}');
            out
        }
    }
}

/// Renders every registered metric as one JSON document:
/// `{"counters":[...],"histograms":[...]}` with non-cumulative per-bucket
/// counts (the final bucket is the `+Inf` overflow).
#[must_use]
pub fn json_snapshot() -> String {
    let entries = registry().lock().expect("metrics registry poisoned");
    let mut counters = Vec::new();
    let mut histograms = Vec::new();
    for e in entries.iter() {
        let labels = json_labels(&e.label);
        match e.metric {
            Metric::Counter(c) => counters.push(format!(
                "{{\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
                e.name,
                labels,
                c.get()
            )),
            Metric::Histogram(h) => {
                let bounds: Vec<String> = h.bounds().iter().map(ToString::to_string).collect();
                let counts: Vec<String> =
                    h.bucket_counts().iter().map(ToString::to_string).collect();
                histograms.push(format!(
                    "{{\"name\":\"{}\",\"labels\":{},\"bounds\":[{}],\"buckets\":[{}],\"sum\":{},\"count\":{}}}",
                    e.name,
                    labels,
                    bounds.join(","),
                    counts.join(","),
                    h.sum(),
                    h.count()
                ));
            }
        }
    }
    format!(
        "{{\"counters\":[{}],\"histograms\":[{}]}}",
        counters.join(","),
        histograms.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_registration_dedups_by_name_and_label() {
        let a = counter("obs_test_dedup_total", "dedup test");
        let b = counter("obs_test_dedup_total", "dedup test");
        assert!(std::ptr::eq(a, b));
        let ssd = labeled_counter("obs_test_labeled_total", "labeled", "profile", "ssd");
        let hdd = labeled_counter("obs_test_labeled_total", "labeled", "profile", "hdd");
        let ssd2 = labeled_counter("obs_test_labeled_total", "labeled", "profile", "ssd");
        assert!(std::ptr::eq(ssd, ssd2));
        assert!(!std::ptr::eq(ssd, hdd));
    }

    #[test]
    fn histogram_buckets_place_observations_at_bounds_inclusively() {
        let h = histogram("obs_test_hist_bounds", "bucket placement", &[10, 100]);
        h.observe(10); // lands in le=10
        h.observe(11); // lands in le=100
        h.observe(1000); // overflow
        assert_eq!(h.bucket_counts(), vec![1, 1, 1]);
        assert_eq!(h.sum(), 1021);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn exponential_bounds_are_strictly_increasing() {
        assert_eq!(
            exponential_bounds(100, 10, 4),
            vec![100, 1000, 10_000, 100_000]
        );
    }

    #[test]
    fn prometheus_text_pins_the_exposition_format() {
        let c = counter("obs_test_prom_total", "a pinned counter");
        c.add(7);
        let h = labeled_histogram(
            "obs_test_prom_nanos",
            "a pinned histogram",
            "profile",
            "ssd",
            &[5, 50],
        );
        h.observe(3);
        h.observe(60);
        let text = prometheus_text();
        let own: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("obs_test_prom"))
            .collect();
        assert_eq!(
            own,
            vec![
                "# HELP obs_test_prom_total a pinned counter",
                "# TYPE obs_test_prom_total counter",
                "obs_test_prom_total 7",
                "# HELP obs_test_prom_nanos a pinned histogram",
                "# TYPE obs_test_prom_nanos histogram",
                "obs_test_prom_nanos_bucket{profile=\"ssd\",le=\"5\"} 1",
                "obs_test_prom_nanos_bucket{profile=\"ssd\",le=\"50\"} 1",
                "obs_test_prom_nanos_bucket{profile=\"ssd\",le=\"+Inf\"} 2",
                "obs_test_prom_nanos_sum{profile=\"ssd\"} 63",
                "obs_test_prom_nanos_count{profile=\"ssd\"} 2",
            ]
        );
    }

    #[test]
    fn json_snapshot_round_trips_handle_values() {
        let c = counter("obs_test_json_total", "json counter");
        c.add(42);
        let h = histogram("obs_test_json_nanos", "json histogram", &[8]);
        h.observe(6);
        h.observe(9);
        let json = json_snapshot();
        assert!(json.starts_with("{\"counters\":["));
        assert!(json.contains("{\"name\":\"obs_test_json_total\",\"labels\":{},\"value\":42}"));
        assert!(json.contains(
            "{\"name\":\"obs_test_json_nanos\",\"labels\":{},\"bounds\":[8],\"buckets\":[1,1],\"sum\":15,\"count\":2}"
        ));
    }

    #[test]
    fn mismatched_kind_reregistration_panics() {
        counter("obs_test_kind_total", "a counter");
        let r = std::panic::catch_unwind(|| {
            histogram("obs_test_kind_total", "not a counter", &[1]);
        });
        assert!(r.is_err());
    }
}
