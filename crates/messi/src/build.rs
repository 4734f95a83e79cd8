//! MESSI index construction (stages 1–2 of Fig. 3).
//!
//! Two build paths share stage 2 (parallel subtree construction):
//! [`build`] summarizes an in-memory dataset with the paper's Fetch&Inc
//! chunk claiming, [`build_from_file`] streams sequential blocks of a
//! [`DatasetFile`] (reads charged to the modeled device) — the on-disk
//! ingestion that lets `DiskIndex` host a MESSI tree. Both know the
//! collection size up front and refit the tree configuration to it
//! ([`TreeConfig::fitted_to`]): the root key — and with it the number of
//! stage-1 buffers each worker owns, `2^r`, 2,048 at 200k series rather
//! than the paper's 65,536 — covers only as many segments as the collection
//! can fill. Both produce
//! **identical trees for identical raw data**: stage 2 grows each subtree
//! from its entries in position order, so the split decisions (which
//! depend on the entries present at overflow time) never depend on worker
//! timing or on which path summarized the data. That determinism is what
//! makes on-disk answers bit-identical to in-memory answers, approximate
//! fidelity included (the approximate answer is "the query's own leaf" —
//! a tree-shape-dependent notion).
//!
//! Stage 2 builds no boxed node and has no serial tail beyond one copy.
//! Each worker claims a run of subtrees; for each it merges the stage-1
//! parts into position order, grows the subtree by stable partition
//! straight into the run's [`FlatFragment`] ([`FlatFragment::grow`]: the
//! tree position-ordered inserts would build) and drops the parts. The
//! coordinator then only stitches the fragments together in key order
//! ([`FlatTree::stitch`]); [`BuildReport::stitch`] reports how long that
//! takes.

use crate::config::MessiConfig;
use dsidx_obs::BuildReport;
use dsidx_series::Dataset;
use dsidx_storage::{DatasetFile, StorageError};
use dsidx_sync::WorkQueue;
use dsidx_tree::{FlatFragment, FlatTree, LeafEntry, TreeConfig};
use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// Builds a MESSI index over an in-memory dataset. The report times
/// stage 1 as `summarize`, stage 2 as `grow` and its serial end as
/// `stitch`.
///
/// # Panics
/// Panics on configuration mismatches (series length, zero threads).
#[must_use]
pub fn build(data: &Dataset, cfg: &MessiConfig) -> (FlatTree, BuildReport) {
    cfg.validate();
    assert_eq!(
        data.series_len(),
        cfg.tree.series_len(),
        "series length mismatch"
    );
    let t0 = Instant::now();
    let config = cfg.tree.fitted_to(data.len());
    let parts = summarize_per_thread(data, cfg, &config);
    let summarize = t0.elapsed();
    let (tree, report) = build_tree(cfg.threads, config, parts, t0);
    (
        tree,
        BuildReport {
            summarize,
            ..report
        },
    )
}

/// Builds a MESSI index by *streaming* an on-disk dataset file: stage 1
/// reads sequential blocks of `block_series` series (each read charged to
/// the file's device) and summarizes them into per-subtree buffers, then
/// stage 2 builds the subtrees with the same parallel schedule as the
/// in-memory path (at one worker, this is ADS+'s serial build). The
/// report times the block reads as `read` and the rest of stage 1 as
/// `summarize`.
///
/// The resulting tree is **identical** to what [`build`] produces over the
/// same raw data (see the module docs), so queries — exact and
/// approximate — answer bit-identically on either.
///
/// # Errors
/// Propagates I/O failures.
///
/// # Panics
/// Panics on configuration mismatches (series length, zero threads) or
/// `block_series == 0`.
pub fn build_from_file(
    file: &DatasetFile,
    cfg: &MessiConfig,
    block_series: usize,
) -> Result<(FlatTree, BuildReport), StorageError> {
    cfg.validate();
    assert_eq!(
        file.series_len(),
        cfg.tree.series_len(),
        "series length mismatch"
    );
    assert!(block_series > 0, "block size must be non-zero");
    let t0 = Instant::now();
    let config = cfg.tree.fitted_to(file.count());
    let quantizer = config.quantizer();
    let series_len = config.series_len();
    let mut paa = vec![0.0f32; config.segments()];
    let mut buffers: Buffers = Vec::new();
    buffers.resize_with(config.root_count(), Vec::new);
    let mut block = Vec::new();
    let mut read = Duration::ZERO;
    let mut start = 0;
    while start < file.count() {
        let count = block_series.min(file.count() - start);
        let tr = Instant::now();
        file.read_block(start, count, &mut block)?;
        read += tr.elapsed();
        for (i, series) in block.chunks_exact(series_len).enumerate() {
            let pos = start + i;
            let word = quantizer.word_into(series, &mut paa);
            let parts = &mut buffers[usize::from(config.root_key(&word))];
            if parts.is_empty() {
                parts.push(Vec::new());
            }
            parts[0].push(LeafEntry::new(word, pos as u32));
        }
        start += count;
    }
    let summarize = t0.elapsed().saturating_sub(read);
    let (tree, report) = build_tree(cfg.threads, config, buffers, t0);
    Ok((
        tree,
        BuildReport {
            read,
            summarize,
            ..report
        },
    ))
}

/// Per-subtree buffers: `buffers[key]` holds one or more parts, each the
/// private output of one worker (one part in all for a file build).
type Buffers = Vec<Vec<Vec<LeafEntry>>>;

/// Stage 1: every worker owns a full array of buffer parts, so appending a
/// summary takes no lock (MESSI's layout).
fn summarize_per_thread(data: &Dataset, cfg: &MessiConfig, tree: &TreeConfig) -> Buffers {
    let segments = tree.segments();
    let root_count = tree.root_count();
    let quantizer = tree.quantizer();
    let queue = WorkQueue::new(data.len());

    let pool = dsidx_sync::pool::global(cfg.threads);
    let mut slots: Vec<Mutex<Vec<Vec<LeafEntry>>>> = Vec::new();
    slots.resize_with(cfg.threads, || Mutex::new(Vec::new()));
    pool.broadcast(&|worker| {
        let mut paa = vec![0.0f32; segments];
        let mut parts: Vec<Vec<LeafEntry>> = Vec::new();
        parts.resize_with(root_count, Vec::new);
        while let Some(range) = queue.claim_chunk(CHUNK_SERIES) {
            for pos in range {
                let word = quantizer.word_into(data.get(pos), &mut paa);
                parts[usize::from(tree.root_key(&word))].push(LeafEntry::new(word, pos as u32));
            }
        }
        *slots[worker].lock() = parts;
    });
    let per_worker: Vec<Vec<Vec<LeafEntry>>> = slots
        .into_iter()
        .map(parking_lot::Mutex::into_inner)
        .collect();

    // Regroup: buffers[key] = the workers' parts for that subtree.
    let mut buffers: Buffers = Vec::new();
    buffers.resize_with(root_count, Vec::new);
    for worker_parts in per_worker {
        for (key, part) in worker_parts.into_iter().enumerate() {
            if !part.is_empty() {
                buffers[key].push(part);
            }
        }
    }
    buffers
}

/// Series a stage-1 worker claims at once by Fetch&Inc: 1,024 summaries
/// amortise the claim and still leave a collection of a few thousand
/// series split across workers.
const CHUNK_SERIES: usize = 1024;

/// Root subtrees a stage-2 worker claims at once, and grows into one
/// fragment: few enough fragments (128 at 200k series) that the stitch
/// copies and frees a handful of arrays, enough claims to keep the workers
/// balanced.
const SUBTREES_PER_CLAIM: usize = 16;

/// Stage 2: workers claim runs of subtrees by Fetch&Inc and build them
/// independently ("all index workers process distinct subtrees of the
/// index ... with no need for synchronization"), then the coordinator
/// stitches them into the flat tree.
///
/// A worker grows each subtree of its run from its entries in position
/// order ([`in_position_order`]) straight into the run's [`FlatFragment`]
/// ([`FlatFragment::grow`]) and drops its stage-1 parts, so growing,
/// laying out and freeing all run in parallel. All that is left after the
/// broadcast is [`FlatTree::stitch`]: copying the fragments together in
/// key order with rebased offsets. Returns the tree and a report of the
/// two steps' wall time (`grow`, `stitch`) and the build's `total` since
/// `t0`.
fn build_tree(
    threads: usize,
    config: TreeConfig,
    buffers: Buffers,
    t0: Instant,
) -> (FlatTree, BuildReport) {
    let t1 = Instant::now();
    let occupied: Vec<u16> = buffers
        .iter()
        .enumerate()
        .filter(|(_, parts)| !parts.is_empty())
        .map(|(key, _)| key as u16)
        .collect();
    let counts: Vec<usize> = occupied
        .iter()
        .map(|&key| buffers[usize::from(key)].iter().map(Vec::len).sum())
        .collect();
    // One lock per subtree and one per run, each taken once by the worker
    // that claims it.
    let buffers: Vec<Mutex<Vec<Vec<LeafEntry>>>> = buffers.into_iter().map(Mutex::new).collect();
    let runs = occupied.len().div_ceil(SUBTREES_PER_CLAIM);
    let fragments: Vec<Mutex<Option<FlatFragment>>> = (0..runs).map(|_| Mutex::new(None)).collect();
    let queue = WorkQueue::new(occupied.len());
    let pool = dsidx_sync::pool::global(threads);
    pool.broadcast(&|_worker| {
        while let Some(run) = queue.claim_chunk(SUBTREES_PER_CLAIM) {
            let mut fragment = FlatFragment::with_capacity(counts[run.clone()].iter().sum());
            for &key in &occupied[run.clone()] {
                let parts = std::mem::take(&mut *buffers[usize::from(key)].lock());
                fragment.grow(key, &mut in_position_order(parts), &config);
            }
            *fragments[run.start / SUBTREES_PER_CLAIM].lock() = Some(fragment);
        }
    });
    let t2 = Instant::now();
    let fragments = fragments
        .into_iter()
        .map(|f| f.into_inner().expect("every run of subtrees was claimed"))
        .collect();
    let tree = FlatTree::stitch(config, fragments);
    let stitch = t2.elapsed();
    let report = BuildReport {
        grow: t2 - t1,
        stitch,
        total: t0.elapsed(),
        ..BuildReport::default()
    };
    (tree, report)
}

/// The entries of one subtree's stage-1 parts (one per worker, or one in
/// all) in **position order**, whatever order the parts arrived in.
///
/// Leaf-split decisions depend on the entries present at overflow time, so
/// the order a subtree grows in shapes it — and the tree's shape is
/// observable (the approximate answer is the query's own leaf). Position
/// order makes both build paths (per-worker parts, streaming-from-file)
/// produce the same tree for the same raw data, deterministic across runs
/// and thread counts.
///
/// Every part arrives in position order already (a worker claims
/// ascending chunks; a file is read front to back), so the sort is one
/// pass that only guards that invariant. The sorted parts are then merged
/// by a scan over their heads (one per worker).
fn in_position_order(mut parts: Vec<Vec<LeafEntry>>) -> Vec<LeafEntry> {
    for part in &mut parts {
        part.sort_unstable_by_key(|e| e.pos);
    }
    if parts.len() == 1 {
        return parts.swap_remove(0);
    }
    let mut merged = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    let mut heads: Vec<&[LeafEntry]> = parts.iter().map(Vec::as_slice).collect();
    while let Some(head) = heads
        .iter_mut()
        .filter(|h| !h.is_empty())
        .min_by_key(|h| h[0].pos)
    {
        merged.push(head[0]);
        *head = &head[1..];
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_series::gen::DatasetKind;
    use dsidx_tree::snapshot::validate;
    use dsidx_tree::stats::index_stats;
    use dsidx_tree::Index;

    fn cfg(threads: usize) -> MessiConfig {
        MessiConfig::new(TreeConfig::new(64, 8, 16).unwrap(), threads)
    }

    #[test]
    fn build_indexes_every_series() {
        let data = DatasetKind::Synthetic.generate(700, 64, 2);
        let (tree, phases) = build(&data, &cfg(4));
        assert_eq!(tree.entry_count(), 700);
        validate(&tree, 700).unwrap();
        assert!(phases.total >= phases.summarize);
        // Every series sits in the tree under its own word.
        let quantizer = tree.config().quantizer();
        for (word, &pos) in tree.words().iter().zip(tree.positions()) {
            assert_eq!(word, &quantizer.word(data.get(pos as usize)));
        }
    }

    #[test]
    fn parallel_build_is_deterministic_across_runs_and_threads() {
        // Several summarization chunks, so the collection is split across
        // workers.
        let data = DatasetKind::Synthetic.generate(5 * CHUNK_SERIES + 300, 64, 17);
        let (first, _) = build(&data, &cfg(1));
        for threads in [2usize, 4, 8] {
            for _ in 0..2 {
                let (again, _) = build(&data, &cfg(threads));
                assert_eq!(
                    first, again,
                    "tree shape must not depend on worker timing (x{threads})"
                );
            }
        }
    }

    #[test]
    fn file_build_matches_memory_build_exactly() {
        use dsidx_storage::{write_dataset, Device};
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("dsidx-messi-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("build.dsidx");
        let data = DatasetKind::Sald.generate(400, 64, 9);
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let device = Arc::new(Device::unthrottled());
        let file = DatasetFile::open(&path, Arc::clone(&device)).unwrap();
        let (mem, _) = build(&data, &cfg(4));
        let (disk, phases) = build_from_file(&file, &cfg(4), 77).unwrap();
        // Identical words AND an identical tree: the determinism the
        // disk==memory query equivalence rests on.
        assert_eq!(mem, disk);
        assert!(phases.total >= phases.summarize);
        // Streaming reads were charged to the device.
        assert_eq!(device.stats().bytes_read, 400 * 64 * 4);
        validate(&disk, 400).unwrap();
    }

    #[test]
    fn file_build_of_empty_dataset_is_empty() {
        use dsidx_storage::{write_dataset, Device};
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("dsidx-messi-e{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.dsidx");
        write_dataset(
            &path,
            &Dataset::new(64).unwrap(),
            Arc::new(Device::unthrottled()),
        )
        .unwrap();
        let file = DatasetFile::open(&path, Arc::new(Device::unthrottled())).unwrap();
        let (tree, _) = build_from_file(&file, &cfg(2), 64).unwrap();
        assert_eq!(tree.entry_count(), 0);
    }

    #[test]
    fn matches_serial_baseline_structure() {
        let data = DatasetKind::Seismic.generate(400, 64, 21);
        let (tree, _) = build(&data, &cfg(6));
        // 400 series in leaves of 16 want 25 leaves: 5 of the 8 segments
        // key the root, whatever fan-out the caller's config carried.
        let fitted = cfg(1).tree.fitted_to(400);
        assert_eq!(fitted.root_segments(), 5);
        assert_eq!(tree.config(), &fitted);
        let stats = index_stats(&tree);
        assert!(stats.root_subtrees <= 32);
        // One entry at a time, in position order, into a tree of that shape.
        let mut serial = Index::new(fitted.clone());
        for (pos, series) in data.iter().enumerate() {
            serial.insert(LeafEntry::new(fitted.quantizer().word(series), pos as u32));
        }
        assert_eq!(tree, FlatTree::from_index(&serial));
    }

    #[test]
    fn single_thread_build_works() {
        let data = DatasetKind::Synthetic.generate(100, 64, 4);
        let (tree, _) = build(&data, &cfg(1));
        assert_eq!(tree.entry_count(), 100);
        validate(&tree, 100).unwrap();
    }

    #[test]
    fn empty_dataset() {
        let data = Dataset::new(64).unwrap();
        let (tree, _) = build(&data, &cfg(4));
        assert_eq!(tree.entry_count(), 0);
    }

    #[test]
    #[should_panic(expected = "series length mismatch")]
    fn wrong_series_length_panics() {
        let data = DatasetKind::Synthetic.generate(10, 32, 1);
        let _ = build(&data, &cfg(2));
    }
}
