//! The ParIS/ParIS+ index-construction pipeline (stages 1–3 of Fig. 2).
//!
//! Thread roles and synchronization, mirroring the paper:
//!
//! * the **coordinator** (caller thread) only waits on the device: it
//!   charges sequential blocks in file order ([`DatasetFile::charge_block`])
//!   and feeds each charge to a bounded channel that all workers receive
//!   from, so one thread reads one sequential stream and the device ledger
//!   is that of a plain sequential read. It copies and decodes nothing; in
//!   memory it sends position ranges only;
//! * `threads` **workers** each copy a charged block into their own byte
//!   buffer (in memory they take the resident series where they lie),
//!   decode each series as they summarize it into per-subtree RecBufs; at
//!   each generation boundary the coordinator enqueues one `EndGen` marker
//!   per worker, and the boundary runs between two barriers: B1 (every
//!   worker has taken its marker), then each worker takes dirty RecBufs,
//!   grows their subtrees and, when there is a leaf store, flushes each
//!   subtree it grew, until none is left, then B2;
//! * in **ParIS** mode the coordinator blocks until B2 (the visible
//!   stage-3 stall of Fig. 4); in **ParIS+** mode it keeps charging the
//!   next generation into the channel meanwhile.
//!
//! One set of RecBufs serves every generation because the channel is FIFO:
//! a generation's blocks, then exactly `threads` markers, then the next
//! generation's blocks. A worker holding a marker waits at B1, so no worker
//! takes a block of generation `g+1` before every block of `g` has been
//! pushed; and none returns to the channel before B2, which every worker
//! reaches only once no buffer is listed, so `g+1`'s pushes start with
//! every buffer empty and every subtree of `g` grown and flushed.
//!
//! A worker whose copy fails (a file cut short after it was opened) records
//! the error and keeps taking feeds, so every barrier is still reached; the
//! coordinator charges no block once an error is recorded.
//!
//! ParIS grows its subtrees by [`Node::insert`], not by partition as MESSI
//! and ADS+ do: a subtree's entries arrive over several generations and
//! its leaves are flushed between them, so each generation lands in a tree
//! that already exists. Each drained buffer is inserted in position order,
//! so ParIS, ParIS+, ADS+ and MESSI build one tree for one collection.
//!
//! The flushes are the I/O by which ParIS and ParIS+ differ; where they
//! land is not recorded, and the leaf store they go to is dropped when the
//! build returns. A build returns the flat tree and its report, whatever
//! the residence: an on-disk index reads a leaf back from the snapshot of
//! that tree (`dsidx::DiskIndex::build` writes it), by its entry range in
//! the `WORDS` and `POSITION` sections.

use crate::config::{Overlap, ParisConfig};
use crate::recbuf::RecBufs;
use dsidx_isax::Word;
use dsidx_obs::BuildReport;
use dsidx_query::ErrorSlot;
use dsidx_series::Dataset;
use dsidx_storage::{decode_f32s, ChargedBlock, DatasetFile, LeafStoreWriter, StorageError};
use dsidx_tree::{FlatTree, Index, LeafEntry, Node};
use parking_lot::Mutex;
use std::ops::Range;
use std::path::Path;
use std::sync::mpsc::{self, Receiver};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Where a build's series are.
#[derive(Clone, Copy)]
enum Input<'a> {
    Memory(&'a Dataset),
    File(&'a DatasetFile),
}

enum Feed<'a> {
    /// Series `positions`, with the charged read of their bytes when the
    /// build is on disk.
    Block {
        positions: Range<usize>,
        charged: Option<ChargedBlock<'a>>,
    },
    EndGen,
}

/// Receives from a channel that several threads consume: `std::sync::mpsc`
/// has one consumer, so they take turns through a lock. The guard drops
/// when this returns, before the caller handles the message.
pub(crate) fn recv_shared<T>(rx: &Mutex<Receiver<T>>) -> Option<T> {
    rx.lock().recv().ok()
}

fn flush_subtree(node: &mut Node, store: &LeafStoreWriter, errors: &ErrorSlot) {
    node.for_each_leaf_mut(&mut |leaf| {
        let unflushed = leaf.unflushed_entries();
        if unflushed.is_empty() {
            return;
        }
        let records: Vec<(Word, u32)> = unflushed.iter().map(|e| (e.word, e.pos)).collect();
        match store.append(&records) {
            Ok(()) => leaf.mark_flushed(),
            Err(e) => errors.record(e),
        }
    });
}

/// Hands each series of block `positions` to `summarize` with its
/// position: a resident series where it lies, or, on disk, each series of
/// the charged block as it is decoded from the worker's copy (`bytes`)
/// into its `series` buffer.
fn summarize_block(
    input: Input<'_>,
    positions: Range<usize>,
    charged: Option<ChargedBlock<'_>>,
    bytes: &mut Vec<u8>,
    series: &mut [f32],
    summarize: &mut impl FnMut(usize, &[f32]),
) -> Result<(), StorageError> {
    match (input, charged) {
        (Input::Memory(data), _) => {
            for pos in positions {
                summarize(pos, data.get(pos));
            }
        }
        (Input::File(_), Some(block)) => {
            block.copy_into(bytes)?;
            for (pos, raw) in positions.zip(bytes.chunks_exact(4 * series.len())) {
                decode_f32s(raw, series);
                summarize(pos, series);
            }
        }
        (Input::File(_), None) => unreachable!("the coordinator charges every block of a file"),
    }
    Ok(())
}

/// Builds a ParIS or ParIS+ index from an on-disk dataset, materializing
/// leaves into a leaf store created at `store_path`. The path is unlinked
/// as soon as the store is open, and the store is dropped when the build
/// returns: nothing reads the flushes back.
///
/// # Errors
/// Propagates I/O failures from the dataset file and the leaf store.
///
/// # Panics
/// Panics on configuration mismatches (series length, zero threads).
pub fn build_on_disk(
    file: &DatasetFile,
    store_path: &Path,
    cfg: &ParisConfig,
    mode: Overlap,
) -> Result<(FlatTree, BuildReport), StorageError> {
    cfg.validate();
    assert_eq!(
        file.series_len(),
        cfg.tree.series_len(),
        "series length mismatch"
    );
    let store = LeafStoreWriter::create(store_path, cfg.tree.segments(), file.device().clone())?;
    std::fs::remove_file(store_path)?;
    run_pipeline(cfg, mode, Input::File(file), Some(&store))
}

/// Builds an in-memory ParIS index (the paper's "in-memory implementation
/// of ParIS" used in Figs. 7, 9 and 12): same locked RecBufs and stage-3
/// structure, no disk at all — so the report's `read` is zero, and the
/// workers summarize the resident series where they lie.
///
/// # Panics
/// Panics on configuration mismatches.
#[must_use]
pub fn build_in_memory(data: &Dataset, cfg: &ParisConfig) -> (FlatTree, BuildReport) {
    cfg.validate();
    assert_eq!(
        data.series_len(),
        cfg.tree.series_len(),
        "series length mismatch"
    );
    run_pipeline(cfg, Overlap::Paris, Input::Memory(data), None)
        .expect("in-memory build performs no I/O")
}

/// The pipeline behind both builds, flushing leaves to `store` when one is
/// given: the flat tree and the build's report.
fn run_pipeline(
    cfg: &ParisConfig,
    mode: Overlap,
    input: Input<'_>,
    store: Option<&LeafStoreWriter>,
) -> Result<(FlatTree, BuildReport), StorageError> {
    let total = match input {
        Input::Memory(data) => data.len(),
        Input::File(file) => file.count(),
    };
    // `total` is known before the first read: fit the root fan-out (and
    // with it the number of receiving buffers) to it.
    let tree_cfg = &cfg.tree.fitted_to(total);
    let quantizer = tree_cfg.quantizer().clone();
    let segments = tree_cfg.segments();
    let series_len = tree_cfg.series_len();
    let threads = cfg.threads;

    let recbufs = RecBufs::new(tree_cfg.root_count());
    // One slot per root key. `take_dirty` gives each key to one grower per
    // generation, so no slot's lock is ever contended.
    let roots: Vec<Mutex<Option<Box<Node>>>> = (0..tree_cfg.root_count())
        .map(|_| Mutex::new(None))
        .collect();
    let errors = ErrorSlot::new();

    // Channel capacity: two generations of charged blocks plus markers,
    // which bounds how far the coordinator charges ahead of the copies.
    let blocks_per_gen = cfg.generation_series.div_ceil(cfg.block_series);
    let (block_tx, block_rx) = mpsc::sync_channel::<Feed>(2 * blocks_per_gen + threads + 1);
    let block_rx = Mutex::new(block_rx);
    let (gen_done_tx, gen_done_rx) = mpsc::channel::<()>();
    let barrier = Barrier::new(threads);
    // Summed from what each build thread returns through its join.
    let (mut grow_time, mut flush_time) = (Duration::ZERO, Duration::ZERO);

    let t0 = Instant::now();
    let mut read_time = Duration::ZERO;
    let mut stall_waits = Duration::ZERO;
    let mut generations = 0usize;
    let mut t_read_done = t0;

    let coordinator_error: Option<StorageError> = std::thread::scope(|s| {
        // IndexBulkLoading workers (who also construct and flush subtrees
        // at generation boundaries; in ParIS+ that is exactly the paper's
        // redesign, in ParIS it is equivalent to a distinct construction
        // pool because the coordinator is stopped anyway). Each returns the
        // time it spent growing and flushing.
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let block_rx = &block_rx;
            let quantizer = quantizer.clone();
            let recbufs = &recbufs;
            let roots = &roots;
            let errors = &errors;
            let barrier = &barrier;
            let gen_done_tx = gen_done_tx.clone();
            workers.push(s.spawn(move || {
                let (mut grow, mut flush) = (Duration::ZERO, Duration::ZERO);
                let mut paa = vec![0.0f32; segments];
                let mut bytes = Vec::new();
                let mut series = vec![0.0f32; series_len];
                let mut summarize = |pos: usize, series: &[f32]| {
                    let word = quantizer.word_into(series, &mut paa);
                    recbufs.push(tree_cfg.root_key(&word), LeafEntry::new(word, pos as u32));
                };
                while let Some(feed) = recv_shared(block_rx) {
                    match feed {
                        Feed::Block { positions, charged } => {
                            let summarized = summarize_block(
                                input,
                                positions,
                                charged,
                                &mut bytes,
                                &mut series,
                                &mut summarize,
                            );
                            if let Err(e) = summarized {
                                errors.record(e);
                            }
                        }
                        Feed::EndGen => {
                            // B1: every worker finished summarizing this
                            // generation (each consumes exactly one marker).
                            barrier.wait();
                            let tg = Instant::now();
                            let mut flush_local = Duration::ZERO;
                            while let Some((key, mut entries)) = recbufs.take_dirty() {
                                // Workers push in whatever order they take
                                // the buffer's lock, and split decisions
                                // depend on insertion order. Generations
                                // ascend by position, so inserting each
                                // buffer in position order fills every
                                // subtree in position order: the tree
                                // MESSI and ADS+ build, whatever the timing.
                                entries.sort_unstable_by_key(|e| e.pos);
                                let mut slot = roots[usize::from(key)].lock();
                                let node = slot.get_or_insert_with(|| {
                                    Box::new(Node::new_leaf(tree_cfg.root_word(key)))
                                });
                                for e in entries {
                                    node.insert(e, tree_cfg);
                                }
                                if let Some(store) = store {
                                    let tf = Instant::now();
                                    flush_subtree(node, store, errors);
                                    flush_local += tf.elapsed();
                                }
                            }
                            grow += tg.elapsed().saturating_sub(flush_local);
                            flush += flush_local;
                            // B2: every buffer is empty and every subtree
                            // grown and flushed; signal the coordinator
                            // (ParIS waits on this).
                            if barrier.wait().is_leader() {
                                let _ = gen_done_tx.send(());
                            }
                        }
                    }
                }
                (grow, flush)
            }));
        }
        drop(gen_done_tx);

        // Coordinator (stage 1): charges, and sends.
        let result = (|| -> Result<(), StorageError> {
            let mut pos = 0usize;
            let mut in_gen = 0usize;
            while pos < total && !errors.is_set() {
                let gen_left = cfg.generation_series - in_gen;
                let count = cfg.block_series.min(total - pos).min(gen_left);
                let charged = match input {
                    Input::Memory(_) => None,
                    Input::File(file) => {
                        let tr = Instant::now();
                        let block = file.charge_block(pos, count)?;
                        read_time += tr.elapsed();
                        Some(block)
                    }
                };
                block_tx
                    .send(Feed::Block {
                        positions: pos..pos + count,
                        charged,
                    })
                    .expect("workers outlive the coordinator");
                pos += count;
                in_gen += count;
                if in_gen >= cfg.generation_series || pos == total {
                    for _ in 0..threads {
                        block_tx
                            .send(Feed::EndGen)
                            .expect("workers outlive the coordinator");
                    }
                    generations += 1;
                    if mode == Overlap::Paris {
                        let tw = Instant::now();
                        gen_done_rx.recv().expect("workers signal every generation");
                        stall_waits += tw.elapsed();
                    }
                    in_gen = 0;
                }
            }
            Ok(())
        })();
        t_read_done = Instant::now();
        drop(block_tx); // workers drain and exit
        for handle in workers {
            let (grow, flush) = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            grow_time += grow;
            flush_time += flush;
        }
        result.err()
    });

    if let Some(e) = coordinator_error {
        return Err(e);
    }
    errors.take()?;

    // The coordinator stalled on stage 3 at every ParIS generation
    // boundary and, in either mode, from its last read until the workers
    // were done: split by the work they measured.
    let stalled = Instant::now();
    let mut report = BuildReport {
        read: read_time,
        generations,
        ..BuildReport::default()
    };
    report.split_stall(stall_waits + (stalled - t_read_done), grow_time, flush_time);
    let roots = roots.into_iter().map(Mutex::into_inner).collect();
    let tree = FlatTree::from_index(&Index::from_roots(tree_cfg.clone(), roots));
    report.stitch = stalled.elapsed();
    report.total = t0.elapsed();
    Ok((tree, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_messi::MessiConfig;
    use dsidx_series::gen::DatasetKind;
    use dsidx_storage::{write_dataset, Device, DeviceProfile};
    use dsidx_tree::snapshot::validate;
    use dsidx_tree::stats::index_stats;
    use dsidx_tree::TreeConfig;
    use std::sync::Arc;

    /// The occupied root keys, ascending.
    fn root_keys(tree: &FlatTree) -> Vec<u16> {
        tree.roots().iter().map(|&(key, _)| key).collect()
    }

    /// Every `(word, position)` pair of `tree`'s entries is series
    /// `position`'s word in `data`, and each position appears once.
    fn assert_words_summarize(tree: &FlatTree, data: &Dataset) {
        let q = tree.config().quantizer();
        assert_eq!(tree.positions().len(), data.len());
        for (word, &pos) in tree.words().iter().zip(tree.positions()) {
            assert_eq!(word, &q.word(data.get(pos as usize)), "pos {pos}");
        }
    }

    fn tree_cfg() -> TreeConfig {
        TreeConfig::new(64, 8, 16).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dsidx-paris-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn on_disk_fixture(n: usize, seed: u64, name: &str) -> DatasetFile {
        let data = DatasetKind::Synthetic.generate(n, 64, seed);
        let path = tmp(name);
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        DatasetFile::open(&path, Arc::new(Device::unthrottled())).unwrap()
    }

    #[test]
    fn in_memory_build_matches_serial_reference() {
        let data = DatasetKind::Synthetic.generate(600, 64, 42);
        let cfg = ParisConfig::new(tree_cfg(), 4)
            .with_block_series(64)
            .with_generation_series(256);
        let (tree, report) = build_in_memory(&data, &cfg);
        assert_eq!(tree.entry_count(), 600);
        validate(&tree, 600).unwrap();
        assert!(report.generations >= 2, "600/256 needs >= 3 generations");
        // Entry words match direct computation.
        assert_words_summarize(&tree, &data);
        // Same leaf structure as the serial baseline build: MESSI's at one
        // worker.
        let (serial, _) = dsidx_messi::build(&data, &MessiConfig::new(cfg.tree.clone(), 1));
        assert_eq!(
            index_stats(&tree).entry_count,
            index_stats(&serial).entry_count
        );
        assert_eq!(root_keys(&tree), root_keys(&serial));
    }

    #[test]
    fn file_build_matches_memory_build() {
        // The tree ADS+ scans (MESSI's at one worker) holds every series'
        // word once, beside its position, whichever residence built it.
        let data = DatasetKind::Sald.generate(300, 64, 9);
        let path = tmp("serial.dsidx");
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let file = DatasetFile::open(&path, Arc::new(Device::unthrottled())).unwrap();
        let serial = MessiConfig::new(tree_cfg(), 1);
        let (mem, _) = dsidx_messi::build(&data, &serial);
        let (disk, _) = dsidx_messi::build_from_file(&file, &serial, 77).unwrap();
        assert_words_summarize(&mem, &data);
        assert_eq!(mem, disk);
        validate(&disk, 300).unwrap();
    }

    #[test]
    fn on_disk_paris_and_plus_build_identical_indexes() {
        let file = on_disk_fixture(500, 7, "build.dsidx");
        let cfg = ParisConfig::new(tree_cfg(), 3)
            .with_block_series(50)
            .with_generation_series(150);
        let (paris, rep_a) = build_on_disk(&file, &tmp("a.leaf"), &cfg, Overlap::Paris).unwrap();
        let (plus, rep_b) = build_on_disk(&file, &tmp("b.leaf"), &cfg, Overlap::ParisPlus).unwrap();
        for built in [&paris, &plus] {
            assert_eq!(built.entry_count(), 500);
            validate(built, 500).unwrap();
        }
        assert_eq!(paris, plus);
        assert!(rep_a.generations >= 3);
        assert_eq!(rep_a.generations, rep_b.generations);
        // Both stores were unlinked once open, and closed when the build
        // returned.
        assert!(!tmp("a.leaf").exists() && !tmp("b.leaf").exists());
    }

    #[test]
    fn single_generation_and_single_thread_work() {
        let file = on_disk_fixture(100, 3, "small.dsidx");
        let cfg = ParisConfig::new(tree_cfg(), 1)
            .with_block_series(100)
            .with_generation_series(1000);
        let (tree, report) =
            build_on_disk(&file, &tmp("small.leaf"), &cfg, Overlap::Paris).unwrap();
        assert_eq!(tree.entry_count(), 100);
        assert_eq!(report.generations, 1);
        validate(&tree, 100).unwrap();
    }

    #[test]
    fn empty_dataset_builds_empty_index() {
        let data = dsidx_series::Dataset::new(64).unwrap();
        let cfg = ParisConfig::new(tree_cfg(), 4);
        let (tree, report) = build_in_memory(&data, &cfg);
        assert_eq!(tree.entry_count(), 0);
        assert!(tree.words().is_empty());
        assert_eq!(report.generations, 0);
    }

    /// Runs `f` on a thread of its own and fails unless it returns within a
    /// minute: a worker left at a barrier fails the test instead of hanging
    /// it. A panic inside `f` fails it too.
    fn under_watchdog<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let call = std::thread::spawn(move || tx.send(f()).expect("the watchdog waits"));
        let got = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("{label}: the build hung or panicked ({e})"));
        call.join()
            .expect("the build answered, then its thread ends");
        got
    }

    #[test]
    fn a_dataset_file_cut_after_open_fails_the_build_in_a_worker_copy() {
        // 40 blocks of 100 series, 3 to a generation; another handle cuts
        // the payload inside the second block under the open file. The
        // coordinator's charges still succeed, so the failure is a copy.
        let data = DatasetKind::Synthetic.generate(4000, 64, 13);
        let payload = (4000 * 64 * 4) as u64;
        for mode in [Overlap::Paris, Overlap::ParisPlus] {
            for threads in [1usize, 2, 4] {
                let label = format!("{} threads={threads}", mode.name());
                let path = tmp(&format!("cut-{}-{threads}.dsidx", mode.name()));
                write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
                let device = Arc::new(Device::unthrottled());
                let file = DatasetFile::open(&path, device.clone()).unwrap();
                let cut = dsidx_storage::format::HEADER_LEN + 150 * 64 * 4;
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .unwrap()
                    .set_len(cut)
                    .unwrap();
                let cfg = ParisConfig::new(tree_cfg(), threads)
                    .with_block_series(100)
                    .with_generation_series(300);
                let store = tmp(&format!("cut-{}-{threads}.leaf", mode.name()));
                let got = under_watchdog(&label, move || {
                    build_on_disk(&file, &store, &cfg, mode).map(|_| ())
                });
                let err = got.expect_err(&label);
                assert!(
                    matches!(err.root_cause(), StorageError::Io(_)),
                    "{label}: {err}"
                );
                // The coordinator stops charging once a copy has failed, at
                // most a channel's worth of blocks later.
                let read = device.stats().bytes_read;
                assert!(read < payload, "{label}: charged {read} of {payload} bytes");
            }
        }
    }

    #[test]
    fn a_build_charges_one_sequential_pass_whatever_the_mode_and_width() {
        // One thread charges the file once, front to back, so the device
        // sees one seek and the payload's bytes; the flushes land at the
        // same boundaries, so the whole ledger is the same everywhere.
        let data = DatasetKind::Synthetic.generate(3000, 64, 21);
        let path = tmp("pass.dsidx");
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let mut ledgers = Vec::new();
        for mode in [Overlap::Paris, Overlap::ParisPlus] {
            for threads in [1usize, 2, 4] {
                let device = Arc::new(Device::new(DeviceProfile::SSD));
                let file = DatasetFile::open(&path, device.clone()).unwrap();
                let cfg = ParisConfig::new(tree_cfg(), threads)
                    .with_block_series(250)
                    .with_generation_series(750);
                let store = tmp(&format!("pass-{}-{threads}.leaf", mode.name()));
                let (tree, _) = build_on_disk(&file, &store, &cfg, mode).unwrap();
                validate(&tree, 3000).unwrap();
                let stats = device.stats();
                assert_eq!(
                    (stats.bytes_read, stats.seeks),
                    (3000 * 64 * 4, 1),
                    "{} threads={threads}",
                    mode.name()
                );
                ledgers.push(stats);
            }
        }
        assert!(ledgers.windows(2).all(|w| w[0] == w[1]), "{ledgers:?}");
    }

    #[test]
    fn paris_plus_hides_cpu_under_reads_on_hdd() {
        // ParIS+ hides stage 3 under reading; it skips none of it. Without
        // a clock, what a test can hold it to is the device's own ledger:
        // ParIS+ is charged exactly what ParIS is, reads and writes alike
        // (each drained buffer is inserted in position order, so both grow
        // the same leaves and flush them at the same boundaries), every
        // entry reaches the leaf store before the build returns, and the
        // charge covers at least the seeks' modeled latency. Whatever wall
        // time ParIS+ saves is therefore overlap, not work left undone;
        // that the overlap shows on the wall clock — a smaller visible
        // stall share — is `repro fig4`'s self-check, where the build runs
        // alone, not beside a test suite.
        let data = DatasetKind::Synthetic.generate(3000, 64, 5);
        let path = tmp("hdd.dsidx");
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let cfg = ParisConfig::new(TreeConfig::new(64, 8, 20).unwrap(), 4)
            .with_block_series(250)
            .with_generation_series(750);
        let build = |mode: Overlap| {
            let device = Arc::new(Device::new(DeviceProfile::HDD));
            let file = DatasetFile::open(&path, device.clone()).unwrap();
            let store = tmp(&format!("hdd_{}.leaf", mode.name()));
            let (tree, report) = build_on_disk(&file, &store, &cfg, mode).unwrap();
            validate(&tree, 3000).unwrap();
            assert_eq!((tree.entry_count(), report.generations), (3000, 4));
            device.stats()
        };
        let paris = build(Overlap::Paris);
        let plus = build(Overlap::ParisPlus);
        assert_eq!(plus, paris);
        let record = (cfg.tree.segments() + 4) as u64;
        let seek_nanos = DeviceProfile::HDD.seek_latency.as_nanos() as u64;
        for paid in [paris, plus] {
            assert!(paid.bytes_written >= 3000 * record, "{paid:?}");
            assert!(paid.charged_nanos >= paid.seeks * seek_nanos, "{paid:?}");
        }
    }
}
