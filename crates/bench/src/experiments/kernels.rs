//! Kernel microbenchmarks — scalar vs SIMD ns/call for every distance
//! kernel the lower-bound pipeline dispatches on, for summarization and
//! the per-query table fills, plus an end-to-end k-NN before/after
//! comparison.
//!
//! The harness times each kernel through its *public dispatcher* with the
//! process-wide SIMD gate forced off, then on
//! ([`dsidx::series::distance::set_simd_enabled`]), so what is measured is
//! exactly what the engines execute. Decision-equivalence between the two
//! modes (the Some/None outcome of every bounded kernel at limits away from
//! the float boundary), and the bit-identity of every PAA value, word and
//! MINDIST table slot, is asserted unconditionally — on hosts without AVX2
//! both modes are the scalar path and the assertion is trivial, on AVX2
//! hosts it pins the dispatch contract. Speedups are only *reported* when
//! AVX2 is present.

use crate::{f, mem_dataset, ms, queries, time, Scale, Table};
use dsidx::isax::paa::envelope_paa_bounds;
use dsidx::isax::{MindistTable, NodeMindistTable, Quantizer, Word};
use dsidx::prelude::*;
use dsidx::series::distance::{
    dtw, euclidean_sq, euclidean_sq_bounded, hardware_simd_available, set_simd_enabled,
    simd_enabled, simd_kill_switch_active,
};
use std::hint::black_box;
use std::sync::Arc;

/// Swept series lengths.
const LENS: [usize; 3] = [64, 256, 1024];
/// Sakoe-Chiba band as a fraction of length (the common 5%).
const BAND_FRAC: f64 = 0.05;
/// Distinct random pairs per kernel measurement (cycled through).
const PAIRS: usize = 32;
/// Word count for the SAX-array scan measurement (a streaming pass, like
/// the engines' stage-4 scans — not a hot 32-word loop).
const SCAN_WORDS: usize = 16_384;

fn series(seed: u64, n: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut v: Vec<f32> = (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / 16_777_216.0) * 4.0 - 2.0
        })
        .collect();
    // z-normalize so SAX symbols spread across the alphabet.
    let mean = v.iter().sum::<f32>() / n as f32;
    let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
    let inv = 1.0 / var.sqrt().max(1e-6);
    for x in &mut v {
        *x = (*x - mean) * inv;
    }
    v
}

/// ns/call of `f`, calibrated to run long enough to time reliably.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    // Warm up and pick an iteration count aiming at ~10ms of work.
    let (_, probe) = time(|| {
        for _ in 0..64 {
            f()
        }
    });
    let per = (probe.as_secs_f64() / 64.0).max(1e-9);
    let iters = ((0.01 / per) as usize).clamp(64, 4_000_000);
    let (_, total) = time(|| {
        for _ in 0..iters {
            f()
        }
    });
    total.as_secs_f64() * 1e9 / iters as f64
}

struct Workload {
    a: Vec<Vec<f32>>,
    b: Vec<Vec<f32>>,
    lo: Vec<Vec<f32>>,
    up: Vec<Vec<f32>>,
    band: usize,
    words: Vec<Word>,
    nodes: Vec<dsidx::isax::NodeWord>,
    /// A large contiguous word array (the SAX-array scan shape).
    scan_words: Vec<Word>,
    quantizer: Quantizer,
    table: MindistTable,
    node_table: NodeMindistTable,
    /// Early-abandon limits comfortably away from each pair's exact
    /// distance, so scalar/SIMD rounding cannot flip the Some/None outcome.
    ed_limits: Vec<f32>,
    lb_limits: Vec<f32>,
    dtw_limits: Vec<f32>,
}

fn workload(len: usize) -> Workload {
    let band = ((len as f64 * BAND_FRAC) as usize).max(1);
    let a: Vec<Vec<f32>> = (0..PAIRS).map(|i| series(i as u64 * 2 + 1, len)).collect();
    let b: Vec<Vec<f32>> = (0..PAIRS).map(|i| series(i as u64 * 2 + 2, len)).collect();
    let (mut lo, mut up) = (Vec::new(), Vec::new());
    for q in &a {
        let (mut l, mut u) = (Vec::new(), Vec::new());
        dtw::envelope(q, band, &mut l, &mut u);
        lo.push(l);
        up.push(u);
    }
    let quantizer = Quantizer::new(len, 16).expect("16 segments fit every swept length");
    let words: Vec<Word> = b.iter().map(|s| quantizer.word(s)).collect();
    // Root words as a tree fitted to ~200k series has them: 11 keyed
    // segments, 5 carrying no bits.
    let nodes: Vec<dsidx::isax::NodeWord> = words
        .iter()
        .map(|w| dsidx::isax::NodeWord::root(w.root_key(11), 11, 16))
        .collect();
    let scan_words: Vec<Word> = (0..SCAN_WORDS)
        .map(|i| quantizer.word(&series(i as u64 + 10_000, len)))
        .collect();
    let paa = dsidx::isax::paa::paa(&a[0], 16);
    let table = MindistTable::new_point(&paa, quantizer.segment_lens());
    let node_table = NodeMindistTable::new_point(&paa, quantizer.segment_lens());
    // Limits at half the true value: robustly on the abandon side at 1x,
    // on the keep side at the 4x used by the equivalence checks.
    let ed_limits: Vec<f32> = a
        .iter()
        .zip(&b)
        .map(|(x, y)| euclidean_sq(x, y) * 0.5)
        .collect();
    let lb_limits: Vec<f32> = b
        .iter()
        .enumerate()
        .map(|(i, y)| dtw::lb_keogh_sq(y, &lo[i], &up[i]) * 0.5)
        .collect();
    let dtw_limits: Vec<f32> = a
        .iter()
        .zip(&b)
        .map(|(x, y)| dtw::dtw_sq(x, y, band) * 0.5)
        .collect();
    Workload {
        a,
        b,
        lo,
        up,
        band,
        words,
        nodes,
        scan_words,
        quantizer,
        table,
        node_table,
        ed_limits,
        lb_limits,
        dtw_limits,
    }
}

/// PAA bits, words, and the point, interval and node tables built from
/// the PAAs.
type Summaries = (
    Vec<u32>,
    Vec<Word>,
    Vec<MindistTable>,
    Vec<NodeMindistTable>,
);

/// The summaries of every workload series under the current SIMD mode —
/// what must not depend on the mode.
fn summaries(w: &Workload) -> Summaries {
    let q = &w.quantizer;
    let lens = q.segment_lens();
    let (mut paa_bits, mut words, mut tables, mut node_tables) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut paa = vec![0.0f32; q.segments()];
    for s in w.a.iter().chain(&w.b) {
        words.push(q.word_into(s, &mut paa));
        paa_bits.extend(paa.iter().map(|v| v.to_bits()));
        tables.push(MindistTable::new_point(&paa, lens));
        node_tables.push(NodeMindistTable::new_point(&paa, lens));
    }
    let mut up_paa = paa.clone();
    for (lo, up) in w.lo.iter().zip(&w.up) {
        envelope_paa_bounds(lo, up, &mut paa, &mut up_paa);
        paa_bits.extend(paa.iter().chain(&up_paa).map(|v| v.to_bits()));
        tables.push(MindistTable::new_interval(&paa, &up_paa, lens));
        node_tables.push(NodeMindistTable::new_interval(&paa, &up_paa, lens));
    }
    (paa_bits, words, tables, node_tables)
}

/// Asserts that scalar and SIMD dispatch agree on every bounded kernel's
/// Some/None outcome at limits away from the boundary — and to the bit for
/// the kernels that are bit-identical by construction: DTW alone, DTW
/// through the whole cascade (which adds the `rest` abandon test), the
/// envelope, and summarization (every PAA value, word and table slot).
/// Runs in both modes regardless of hardware: without AVX2 this is
/// trivially true and still exercises every dispatcher.
fn assert_decision_equivalence(w: &Workload) {
    let mut scalar_decisions = Vec::new();
    let mut scalar_exact = Vec::new();
    let mut scalar_summaries = None;
    let mut scratch = dtw::DtwScratch::new();
    for mode in [false, true] {
        set_simd_enabled(mode);
        let summaries = summaries(w);
        let mut decisions = Vec::new();
        let mut exact_vals = Vec::new();
        for i in 0..w.a.len() {
            let (x, y) = (&w.a[i], &w.b[i]);
            let (mut lo, mut up) = (Vec::new(), Vec::new());
            dtw::envelope(y, w.band, &mut lo, &mut up);
            exact_vals.extend(lo.into_iter().chain(up).map(Some));
            for scale in [1.0f32, 4.0] {
                let limit = w.dtw_limits[i] * scale;
                let verdict =
                    dtw::dtw_cascade(x, &w.lo[i], &w.up[i], y, w.band, limit, &mut scratch);
                exact_vals.push(match verdict {
                    dtw::DtwVerdict::Full(d) => Some(d),
                    _ => None,
                });
                decisions.push(euclidean_sq_bounded(x, y, w.ed_limits[i] * scale).is_some());
                decisions.push(
                    dtw::lb_keogh_sq_bounded(y, &w.lo[i], &w.up[i], w.lb_limits[i] * scale)
                        .is_some(),
                );
                exact_vals.push(dtw::dtw_sq_bounded(x, y, w.band, w.dtw_limits[i] * scale));
            }
        }
        if mode {
            assert_eq!(
                scalar_decisions, decisions,
                "scalar/SIMD bounded kernels disagree on an abandon decision"
            );
            let same_bits =
                scalar_exact
                    .iter()
                    .zip(&exact_vals)
                    .all(|(s, v): (&Option<f32>, &Option<f32>)| {
                        s.map(f32::to_bits) == v.map(f32::to_bits)
                    });
            assert!(
                same_bits,
                "a DTW, cascade or envelope SIMD kernel is not bit-identical to scalar"
            );
            assert!(
                scalar_summaries.as_ref() == Some(&summaries),
                "a PAA value, word or MINDIST table slot depends on the SIMD mode"
            );
        } else {
            scalar_decisions = decisions;
            scalar_exact = exact_vals;
            scalar_summaries = Some(summaries);
        }
    }
}

/// Runs this experiment at the given scale, printing its tables and CSVs.
pub fn run(scale: &Scale) {
    let initial = simd_enabled();
    // The DSIDX_NO_SIMD kill-switch overrides set_simd_enabled too, so with
    // it active both columns time the scalar path and a "speedup" would be
    // noise — report n/a exactly as on hardware without AVX2.
    let simd_possible = hardware_simd_available() && !simd_kill_switch_active();
    println!(
        "AVX2/FMA: {} (speedups {})",
        match (hardware_simd_available(), simd_kill_switch_active()) {
            (false, _) => "absent",
            (true, true) => "present but disabled by DSIDX_NO_SIMD",
            (true, false) => "present",
        },
        if simd_possible {
            "measured"
        } else {
            "not applicable — both columns are the scalar path"
        },
    );

    let mut table = Table::new(
        "kernels",
        &["kernel", "len", "scalar_ns", "simd_ns", "speedup"],
    );
    for len in LENS {
        let w = workload(len);
        assert_decision_equivalence(&w);
        println!("  decision-equivalence ok at len {len}");
        let mut scan_out = vec![0.0f32; w.scan_words.len()];
        let (mut env_lo, mut env_up) = (Vec::new(), Vec::new());
        let mut paa = vec![0.0f32; w.quantizer.segments()];
        let paas: Vec<Vec<f32>> =
            w.a.iter()
                .map(|s| dsidx::isax::paa::paa(s, w.quantizer.segments()))
                .collect();
        let mut node_table = NodeMindistTable::default();
        // (name, units of work per call, body). ns/call is per unit.
        type Kernel<'a> = (&'a str, usize, Box<dyn FnMut() + 'a>);
        let kernels: Vec<Kernel> = vec![
            (
                "euclidean_sq",
                PAIRS,
                Box::new(|| {
                    for i in 0..PAIRS {
                        black_box(euclidean_sq(&w.a[i], &w.b[i]));
                    }
                }),
            ),
            (
                "lb_keogh_sq",
                PAIRS,
                Box::new(|| {
                    for i in 0..PAIRS {
                        black_box(dtw::lb_keogh_sq(&w.b[i], &w.lo[i], &w.up[i]));
                    }
                }),
            ),
            (
                "envelope",
                PAIRS,
                Box::new(|| {
                    for y in &w.b {
                        dtw::envelope(y, w.band, &mut env_lo, &mut env_up);
                        black_box(env_lo[0]);
                    }
                }),
            ),
            (
                "dtw_sq_bounded",
                PAIRS,
                Box::new(|| {
                    for i in 0..PAIRS {
                        black_box(dtw::dtw_sq_bounded(
                            &w.a[i],
                            &w.b[i],
                            w.band,
                            w.dtw_limits[i] * 4.0,
                        ));
                    }
                }),
            ),
            (
                "summarize",
                PAIRS,
                Box::new(|| {
                    // PAA + quantizer: what every build pays per series.
                    for y in &w.b {
                        black_box(w.quantizer.word_into(y, &mut paa));
                    }
                }),
            ),
            (
                "table_fill",
                PAIRS,
                Box::new(|| {
                    // A point query's two tables (no SIMD dispatch of its
                    // own: the fill is a plain loop the compiler
                    // vectorizes, so both columns run the same code).
                    for p in &paas {
                        black_box(MindistTable::new_point(p, w.quantizer.segment_lens()));
                        node_table.fill_point(p, w.quantizer.segment_lens());
                        black_box(&node_table);
                    }
                }),
            ),
            (
                "mindist_word",
                PAIRS,
                Box::new(|| {
                    for word in &w.words {
                        black_box(w.table.lookup(word));
                    }
                }),
            ),
            (
                "mindist_scan",
                SCAN_WORDS,
                Box::new(|| {
                    // The SAX-array scan shape: one streaming pass bounding
                    // every word (lookup_many batches 8 words per gather
                    // step when SIMD is on).
                    w.table.lookup_many(&w.scan_words, &mut scan_out);
                    black_box(scan_out[SCAN_WORDS / 2]);
                }),
            ),
            (
                "mindist_node",
                PAIRS,
                Box::new(|| {
                    for node in &w.nodes {
                        black_box(w.node_table.lookup(node));
                    }
                }),
            ),
        ];
        for (name, per_call, mut kernel) in kernels {
            set_simd_enabled(false);
            let scalar_ns = ns_per_call(&mut kernel) / per_call as f64;
            set_simd_enabled(true);
            let simd_ns = ns_per_call(&mut kernel) / per_call as f64;
            let speedup = scalar_ns / simd_ns.max(1e-9);
            table.row(&[
                name.into(),
                len.to_string(),
                f(scalar_ns),
                f(simd_ns),
                if simd_possible {
                    f(speedup)
                } else {
                    "n/a".into()
                },
            ]);
            if simd_possible
                && len == 256
                && matches!(name, "lb_keogh_sq" | "mindist_scan" | "mindist_node")
            {
                let status = if speedup >= 2.0 {
                    "ok"
                } else {
                    "below target — gather-weak microarchitecture?"
                };
                println!("  {name}@256: {speedup:.2}x ({status}; target >= 2x)");
            }
        }
    }
    table.finish();

    // End-to-end: the same k-NN workload with the gate off, then on.
    let kind = DatasetKind::Synthetic;
    let data = Arc::new(mem_dataset(kind, scale));
    let len = data.series_len();
    let options = Options::default();
    let qs = queries(kind, scale.mem_queries, len);
    let qrefs: Vec<&[f32]> = qs.iter().collect();
    let spec = QuerySpec::knn(10);
    let mut knn_table = Table::new(
        "kernels-knn",
        &["engine", "scalar_ms", "simd_ms", "speedup"],
    );
    for engine in [Engine::Ads, Engine::Paris, Engine::Messi] {
        let idx = MemoryIndex::build(data.clone(), engine, &options).expect("valid config");
        let _ = idx.search(&qrefs[..1], &spec).expect("warm");
        set_simd_enabled(false);
        let (_, scalar_t) = time(|| {
            for q in &qrefs {
                black_box(idx.search(&[q], &spec).expect("query"));
            }
        });
        set_simd_enabled(true);
        let (_, simd_t) = time(|| {
            for q in &qrefs {
                black_box(idx.search(&[q], &spec).expect("query"));
            }
        });
        let nq = qrefs.len() as f64;
        knn_table.row(&[
            engine.name().into(),
            f(ms(scalar_t) / nq),
            f(ms(simd_t) / nq),
            if simd_possible {
                f(scalar_t.as_secs_f64() / simd_t.as_secs_f64().max(1e-9))
            } else {
                "n/a".into()
            },
        ]);
    }
    knn_table.finish();
    println!(
        "shape check: the bound kernels (LB_Keogh, mindist) gain the most from\n\
         SIMD — branch-free lane math and table gathers — while dtw_sq_bounded\n\
         gains less (its recurrence keeps a serial dependency by design, to stay\n\
         bit-identical to scalar)."
    );

    set_simd_enabled(initial);
}
