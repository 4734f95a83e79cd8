//! Kernel probes: each leaf kernel timed in isolation on seeded inputs.
//!
//! These are the bottom rows of the layer ledger. They are the same on
//! every workload (they do not touch the workload's index) and exist so a
//! change to one kernel shows up under its own name before anyone argues
//! about which end-to-end number it should have moved.

use crate::inputs::{self, Rng, SERIES_LEN};
use crate::stats::median;
use dsidx::isax::{MindistTable, NodeMindistTable, NodeWord, Word};
use dsidx::prelude::*;
use dsidx::series::distance::dtw::{dtw_sq_bounded, envelope, lb_keogh_sq};
use dsidx::series::distance::{euclidean_sq, euclidean_sq_bounded};
use dsidx::storage::DatasetFile;
use dsidx::sync::{Pruner, SharedTopK, WorkQueue, WorkerPool};
use dsidx::tree::snapshot::{decode_tree, encode_tree};
use dsidx::tree::{FlatTree, Index, LeafEntry};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Input pairs a per-call probe rotates through, so one pair's cache lines
/// and branch history do not stand in for the kernel.
const PAIRS: usize = 32;
/// The DTW band of the `mem-dtw` workload (≈5 % of 256).
pub const DTW_BAND: usize = 12;

/// Median nanoseconds per call of `f(i)` over batches that fill `budget`.
fn ns_per_call(budget: Duration, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f(i);
            i += 1;
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
        if start.elapsed() >= budget {
            return median(&samples);
        }
    }
}

/// Median milliseconds of `f()` over repetitions that fill `budget`.
fn ms_per_run<T>(budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    ns_per_call(budget, 1, |_| {
        black_box(f());
    }) / 1e6
}

/// Wall nanoseconds per operation when two threads each run `per_thread`
/// operations of `f(thread, i)` against shared state.
fn contended_ns(per_thread: usize, f: impl Fn(usize, usize) + Sync) -> f64 {
    let t = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..2 {
            let f = &f;
            scope.spawn(move || {
                for i in 0..per_thread {
                    f(thread, i);
                }
            });
        }
    });
    t.elapsed().as_nanos() as f64 / per_thread as f64
}

/// Runs every probe; `probe_series` sizes the probe collection (words,
/// tree, file) and `budget` is the time each probe may take. The probe
/// file is written to `file_path`.
pub fn run(
    seed: u64,
    probe_series: usize,
    budget: Duration,
    file_path: &Path,
) -> Result<Vec<(&'static str, f64)>, dsidx::Error> {
    let mut out = Vec::new();
    let data = inputs::collection(probe_series, seed ^ 0x0B5E_55ED);
    let a = |i: usize| data.get(i % PAIRS);
    let b = |i: usize| data.get(PAIRS + i % PAIRS);

    // series: the distance kernels.
    let ed: Vec<f32> = (0..PAIRS).map(|i| euclidean_sq(a(i), b(i))).collect();
    out.push((
        "series.ed_ns",
        ns_per_call(budget, 256, |i| {
            black_box(euclidean_sq(black_box(a(i)), black_box(b(i))));
        }),
    ));
    out.push((
        "series.ed_bounded_ns",
        ns_per_call(budget, 256, |i| {
            black_box(euclidean_sq_bounded(
                black_box(a(i)),
                black_box(b(i)),
                ed[i % PAIRS] / 2.0,
            ));
        }),
    ));
    let envelopes: Vec<(Vec<f32>, Vec<f32>)> = (0..PAIRS)
        .map(|i| {
            let (mut lo, mut up) = (Vec::new(), Vec::new());
            envelope(a(i), DTW_BAND, &mut lo, &mut up);
            (lo, up)
        })
        .collect();
    out.push((
        "series.lb_keogh_ns",
        ns_per_call(budget, 256, |i| {
            let (lo, up) = &envelopes[i % PAIRS];
            black_box(lb_keogh_sq(black_box(b(i)), lo, up));
        }),
    ));
    let dtw: Vec<f32> = (0..PAIRS)
        .map(|i| dtw_sq_bounded(a(i), b(i), DTW_BAND, f32::INFINITY).expect("no limit"))
        .collect();
    out.push((
        "series.dtw_ns",
        ns_per_call(budget, 16, |i| {
            black_box(dtw_sq_bounded(
                black_box(a(i)),
                black_box(b(i)),
                DTW_BAND,
                f32::INFINITY,
            ));
        }),
    ));
    out.push((
        "series.dtw_abandon_ns",
        ns_per_call(budget, 16, |i| {
            black_box(dtw_sq_bounded(
                black_box(a(i)),
                black_box(b(i)),
                DTW_BAND,
                dtw[i % PAIRS] / 2.0,
            ));
        }),
    ));

    // isax: summarisation and the lower-bound tables.
    let options = Options::default();
    let config = options.tree_config(SERIES_LEN)?;
    let quantizer = config.quantizer();
    out.push((
        "isax.summarize_ns",
        ns_per_call(budget, 256, |i| {
            black_box(quantizer.word(black_box(data.get(i % probe_series))));
        }),
    ));
    let words: Vec<Word> = data.iter().map(|s| quantizer.word(s)).collect();
    let paas: Vec<Vec<f32>> = (0..PAIRS)
        .map(|i| {
            let mut paa = vec![0.0; quantizer.segments()];
            quantizer.paa_into(a(i), &mut paa);
            paa
        })
        .collect();
    let seg_lens = quantizer.segment_lens();
    out.push((
        "isax.table_build_ns",
        ns_per_call(budget, 8, |i| {
            let paa = black_box(&paas[i % PAIRS]);
            black_box(MindistTable::new_point(paa, seg_lens));
            black_box(NodeMindistTable::new_point(paa, seg_lens));
        }),
    ));
    let table = MindistTable::new_point(&paas[0], seg_lens);
    let mut bounds = vec![0.0f32; words.len()];
    let scan_ns = ns_per_call(budget, 1, |_| {
        table.lookup_many(black_box(&words), &mut bounds);
        black_box(&mut bounds);
    });
    out.push((
        "isax.mindist_mwords_per_s",
        words.len() as f64 / scan_ns * 1e3,
    ));

    // tree: insert, flatten, snapshot codec — on a probe tree of
    // `probe_series` entries.
    let entries: Vec<LeafEntry> = words
        .iter()
        .enumerate()
        .map(|(pos, w)| LeafEntry::new(*w, pos as u32))
        .collect();
    let build_tree = || {
        let mut index = Index::new(config.clone());
        for e in &entries {
            index.insert(*e);
        }
        index
    };
    out.push((
        "tree.insert_ns",
        ms_per_run(budget, build_tree) * 1e6 / entries.len() as f64,
    ));
    let index = build_tree();
    out.push((
        "tree.flatten_ms",
        ms_per_run(budget, || FlatTree::from_index(&index)),
    ));
    out.push(("tree.encode_ms", ms_per_run(budget, || encode_tree(&index))));
    let sections = encode_tree(&index);
    out.push((
        "tree.decode_ms",
        ms_per_run(budget, || {
            decode_tree(config.clone(), entries.len(), &sections).expect("own encoding decodes")
        }),
    ));
    let mut node_words: Vec<NodeWord> = Vec::new();
    index.for_each_leaf(&mut |leaf| node_words.push(*leaf.word()));
    let node_table = NodeMindistTable::new_point(&paas[0], seg_lens);
    out.push((
        "isax.node_mindist_ns",
        ns_per_call(budget, 256, |i| {
            black_box(node_table.lookup(black_box(&node_words[i % node_words.len()])));
        }),
    ));

    // sync: the primitives a query's workers meet on.
    let pool = WorkerPool::new(2);
    out.push((
        "sync.broadcast_us",
        ns_per_call(budget, 16, |_| {
            pool.broadcast(&|worker| {
                black_box(worker);
            })
        }) / 1e3,
    ));
    drop(pool);
    let mut rng = Rng::new(seed);
    let per_thread = 50_000;
    let dists: Vec<f32> = (0..2 * per_thread)
        .map(|_| (rng.below(1 << 20) + 1) as f32)
        .collect();
    let mut topk_samples = Vec::new();
    let mut claim_samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || topk_samples.is_empty() {
        let topk = SharedTopK::new(10);
        topk_samples.push(contended_ns(per_thread, |thread, i| {
            let at = thread * per_thread + i;
            black_box(topk.insert(dists[at], at as u32));
        }));
        let queue = WorkQueue::new(2 * per_thread);
        claim_samples.push(contended_ns(per_thread, |_, _| {
            black_box(queue.claim());
        }));
    }
    out.push(("sync.topk_insert_ns", median(&topk_samples)));
    out.push(("sync.queue_claim_ns", median(&claim_samples)));

    // storage: what a raw read costs the real machine, the device model
    // switched off.
    inputs::write_collection(file_path, probe_series, seed ^ 0x0B5E_55ED)?;
    let file = DatasetFile::open(file_path, Arc::new(Device::unthrottled()))?;
    let mut series = vec![0.0f32; SERIES_LEN];
    let mut read_error = None;
    out.push((
        "storage.read_series_us",
        ns_per_call(budget, 64, |_| {
            if let Err(e) = file.read_series_into(rng.below(probe_series), &mut series) {
                read_error.get_or_insert(e);
            }
        }) / 1e3,
    ));
    let block_series = options.block_series.min(probe_series);
    let mut block = Vec::new();
    let mut next = 0;
    let block_ns = ns_per_call(budget, 1, |_| {
        if next + block_series > probe_series {
            next = 0;
        }
        if let Err(e) = file.read_block(next, block_series, &mut block) {
            read_error.get_or_insert(e);
        }
        next += block_series;
    });
    if let Some(e) = read_error {
        return Err(e.into());
    }
    let block_mib = (block_series * SERIES_LEN * 4) as f64 / (1 << 20) as f64;
    out.push(("storage.read_block_mib_per_s", block_mib / (block_ns / 1e9)));

    Ok(out)
}
