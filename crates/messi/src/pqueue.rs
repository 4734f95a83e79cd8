//! Sorted leaf runs: MESSI's traversal → processing hand-off.
//!
//! The paper hands leaves over through locked minimum priority queues. But
//! each queue is only *filled, then drained*: a heap under a lock buys
//! nothing a sort cannot, and costs a contended lock and a sift per push
//! and per pop. So here:
//!
//! * **Fill** — each traversal worker appends to its own [`RunBuilder`]:
//!   no lock, no atomic. A leaf is one `u64` (bound bits above the leaf
//!   index), so sorting a run is sorting integers.
//! * **Publish** — when its share of the traversal ends, the worker sorts
//!   its run and hands it to the shared [`LeafRuns`]. No barrier: peers
//!   may be draining the runs published before it.
//! * **Drain** — a published run is claimed best-bound-first through one
//!   Fetch&Inc cursor; a worker drains its own run, then the published
//!   others'. A popped bound that proves the rest prunable *closes* the
//!   run (its cursor swapped to the end), which also counts the leaves
//!   never claimed. A publisher drains its own run until it is exhausted
//!   or closed, so no run waits on a peer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Histogram: leaves one worker popped in one [`drain_best_first`] call —
/// the per-worker share of a MESSI run drain.
pub const DRAIN_POPS: &str = "dsidx_messi_drain_pops";

fn drain_pops_histogram() -> &'static dsidx_obs::registry::Histogram {
    static HIST: OnceLock<&'static dsidx_obs::registry::Histogram> = OnceLock::new();
    HIST.get_or_init(|| {
        dsidx_obs::registry::histogram(
            DRAIN_POPS,
            "Leaves popped by one worker in one best-bound-first drain",
            // 1 .. ~2M pops in 4x steps.
            &dsidx_obs::registry::exponential_bounds(1, 4, 11),
        )
    })
}

/// One queued leaf as an integer that orders like `(bound, leaf)`: the
/// bound's bit pattern above the leaf index (valid because non-negative
/// IEEE-754 floats order like their bits). Leaves are unique within a run,
/// so a run's order is deterministic.
#[inline]
fn pack(key: f32, leaf: u32) -> u64 {
    (u64::from(key.to_bits()) << 32) | u64::from(leaf)
}

#[inline]
fn unpack(item: u64) -> (f32, u32) {
    (f32::from_bits((item >> 32) as u32), item as u32)
}

/// One worker's private run under construction (traversal phase).
#[derive(Debug, Default)]
pub struct RunBuilder {
    items: Vec<u64>,
}

impl RunBuilder {
    /// An empty run.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Leaves pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` while nothing was pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Appends leaf `leaf` under ordering key `key`, its lower bound.
    ///
    /// # Panics
    /// Panics if `key` is negative or NaN (lower bounds are non-negative,
    /// and the bit-pattern ordering depends on it).
    #[inline]
    pub fn push(&mut self, key: f32, leaf: u32) {
        assert!(key >= 0.0, "run keys are non-negative lower bounds");
        self.items.push(pack(key, leaf));
    }
}

/// A published run and its claim cursor. Aligned to a cache line so
/// draining one run never bounces the line another run's cursor lives on.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Run {
    cursor: AtomicUsize,
    /// The run's leaves, sorted for the shared drain.
    sorted: OnceLock<Vec<u64>>,
}

impl Run {
    /// Closes this run (of `len` leaves) wholesale; returns how many of its
    /// leaves were never claimed (0 when already closed or exhausted).
    fn close(&self, len: usize) -> u64 {
        // ORDERING: acq-rel swap — the cursor carries no payload (items
        // were published through the `OnceLock`); the RMW's total order on
        // this one atomic is what makes every index either claimed by
        // exactly one `fetch_add` or skipped by exactly one `swap`, so the
        // never-claimed count is exact.
        let claimed = self.cursor.swap(len, Ordering::AcqRel);
        len.saturating_sub(claimed) as u64
    }
}

/// The per-query set of leaf runs, one slot per worker.
#[derive(Debug)]
pub struct LeafRuns {
    runs: Box<[Run]>,
}

impl LeafRuns {
    /// `workers` unpublished runs.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one run");
        Self {
            runs: (0..workers).map(|_| Run::default()).collect(),
        }
    }

    /// Sorts `run` best-bound-first and publishes it as `worker`'s. A
    /// worker publishes at most once (an empty run is fine), whenever its
    /// traversal ends; peers may be draining the other slots meanwhile.
    ///
    /// # Panics
    /// Panics on a second publish for the same worker.
    pub fn publish(&self, worker: usize, run: RunBuilder) {
        let mut items = run.items;
        items.sort_unstable();
        assert!(
            self.runs[worker].sorted.set(items).is_ok(),
            "worker {worker} published its run twice"
        );
    }

    /// `true` once `worker` published its run.
    #[must_use]
    pub fn is_published(&self, worker: usize) -> bool {
        self.runs[worker].sorted.get().is_some()
    }

    /// `true` while some published run has leaves nobody claimed — a hint:
    /// acting on a stale answer costs at most an empty drain.
    #[must_use]
    pub fn has_unclaimed(&self) -> bool {
        self.runs.iter().any(|run| {
            run.sorted.get().is_some_and(|sorted| {
                // ORDERING: relaxed — a hint; the drain that acts on it
                // claims through its own `fetch_add`.
                run.cursor.load(Ordering::Relaxed) < sorted.len()
            })
        })
    }
}

/// What a processing worker decided about one popped leaf.
pub enum Drain {
    /// The leaf was handled (processed or discarded): keep draining.
    Processed,
    /// Everything left in this run is prunable: close it and move on.
    Abandon,
}

/// A popped leaf's run from that leaf on, for prefetching: whoever claims
/// the leaves behind it, their memory is wanted soon.
#[derive(Clone, Copy)]
pub struct Ahead<'a>(&'a [u64]);

impl Ahead<'_> {
    /// The leaf `steps` places behind the popped one, if the run is that
    /// long.
    #[inline]
    #[must_use]
    pub fn leaf(self, steps: usize) -> Option<u32> {
        self.0.get(steps).map(|&item| unpack(item).1)
    }
}

/// MESSI's best-bound-first processing: from the worker's own run on, claim
/// leaves in ascending bound order and hand `(bound, leaf, what comes
/// next)` to `on_pop`; leave a run when it is exhausted or `on_pop`
/// abandons it (closing it for everyone). Unpublished slots are skipped —
/// their publishers drain them. Returns the leaves this
/// worker's abandons left unclaimed, each counted by exactly one worker:
/// once every run is exhausted or closed, `popped + returned == published`.
pub fn drain_best_first(
    runs: &LeafRuns,
    worker: usize,
    mut on_pop: impl FnMut(f32, u32, Ahead<'_>) -> Drain,
) -> u64 {
    let n = runs.runs.len();
    let mut pops = 0u64;
    let mut unclaimed = 0u64;
    for r in (worker..n).chain(0..worker) {
        let run = &runs.runs[r];
        let Some(sorted) = run.sorted.get() else {
            continue;
        };
        let len = sorted.len();
        loop {
            // ORDERING: relaxed — Fetch&Inc claim: the index is the whole
            // payload; the items it indexes were published through the
            // `OnceLock` (acquired by `get` above).
            let i = run.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&item) = sorted.get(i) else {
                break;
            };
            pops += 1;
            let (key, leaf) = unpack(item);
            if matches!(on_pop(key, leaf, Ahead(&sorted[i..])), Drain::Abandon) {
                unclaimed += run.close(len);
                break;
            }
        }
    }
    if dsidx_obs::enabled() {
        drain_pops_histogram().observe(pops);
    }
    unclaimed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    fn run_of(keys: &[(f32, u32)]) -> RunBuilder {
        let mut run = RunBuilder::new();
        for &(k, v) in keys {
            run.push(k, v);
        }
        run
    }

    fn drain_all(runs: &LeafRuns, worker: usize) -> Vec<(f32, u32)> {
        let mut out = Vec::new();
        let unclaimed = drain_best_first(runs, worker, |k, v, _| {
            out.push((k, v));
            Drain::Processed
        });
        assert_eq!(unclaimed, 0);
        out
    }

    #[test]
    fn pops_in_ascending_key_order() {
        let runs = LeafRuns::new(1);
        runs.publish(
            0,
            run_of(&[(3.0, 30), (1.0, 10), (2.0, 20), (0.5, 5), (1.0, 7)]),
        );
        // Ascending by bound, ties by leaf index.
        assert_eq!(
            drain_all(&runs, 0),
            vec![(0.5, 5), (1.0, 7), (1.0, 10), (2.0, 20), (3.0, 30)]
        );
    }

    #[test]
    fn zero_key_allowed() {
        let runs = LeafRuns::new(1);
        runs.publish(0, run_of(&[(0.0, 1)]));
        assert_eq!(drain_all(&runs, 0), vec![(0.0, 1)]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_key_panics() {
        RunBuilder::new().push(-1.0, 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_key_panics() {
        RunBuilder::new().push(f32::NAN, 0);
    }

    #[test]
    #[should_panic(expected = "published its run twice")]
    fn double_publish_panics() {
        let runs = LeafRuns::new(1);
        runs.publish(0, RunBuilder::new());
        runs.publish(0, RunBuilder::new());
    }

    #[test]
    fn drain_best_first_visits_everything_and_honors_abandon() {
        // No abandoning: every item of every run is handed out exactly
        // once, own run first; empty runs are fine.
        let runs = LeafRuns::new(3);
        runs.publish(0, run_of(&[(4.0, 4), (0.0, 0), (2.0, 2)]));
        runs.publish(1, RunBuilder::new());
        runs.publish(2, run_of(&[(3.0, 3), (1.0, 1)]));
        assert_eq!(
            drain_all(&runs, 2),
            vec![(1.0, 1), (3.0, 3), (0.0, 0), (2.0, 2), (4.0, 4)]
        );
        // Everything is claimed now: a second drain pops nothing.
        assert!(drain_all(&runs, 0).is_empty());

        // Abandoning at a key closes the run wholesale: later items of
        // that run are never handed out, and are counted as unclaimed.
        let runs = LeafRuns::new(1);
        runs.publish(
            0,
            run_of(&(0..10).map(|i| (i as f32, i)).collect::<Vec<_>>()),
        );
        let mut popped = Vec::new();
        let unclaimed = drain_best_first(&runs, 0, |k, v, _| {
            popped.push(v);
            if k >= 4.0 {
                Drain::Abandon
            } else {
                Drain::Processed
            }
        });
        assert_eq!(popped, vec![0, 1, 2, 3, 4]);
        assert_eq!(unclaimed, 5);
    }

    #[test]
    fn close_is_idempotent_and_counted() {
        let runs = LeafRuns::new(2);
        runs.publish(0, run_of(&[(1.0, 1), (2.0, 2), (3.0, 3)]));
        runs.publish(1, run_of(&[(1.5, 15), (2.5, 25)]));
        // Abandon run 0 at its first pop; run 1 stays open and is drained
        // in full — an abandon closes only its own run.
        let mut popped = Vec::new();
        let unclaimed = drain_best_first(&runs, 0, |_, v, _| {
            popped.push(v);
            if v == 1 {
                Drain::Abandon
            } else {
                Drain::Processed
            }
        });
        assert_eq!(popped, vec![1, 15, 25]);
        assert_eq!(unclaimed, 2, "leaves 2 and 3 were never claimed");
        // The never-claimed leaves are counted exactly once: closing again
        // (or draining again) finds nothing.
        assert_eq!(runs.runs[0].close(3), 0);
        let unclaimed = drain_best_first(&runs, 1, |_, _, _| panic!("nothing left to pop"));
        assert_eq!(unclaimed, 0);
    }

    #[test]
    fn concurrent_push_pop_preserves_items() {
        const PER_WORKER: usize = 500;
        for threads in [1usize, 2, 3, 8] {
            // Fill, publish, barrier, drain — the shape of a query. Worker
            // `t` leaves its run empty when `t % 4 == 3`.
            let runs = LeafRuns::new(threads);
            let barrier = Barrier::new(threads);
            let total: usize = (0..threads).filter(|t| t % 4 != 3).count() * PER_WORKER;
            let seen: Vec<AtomicU64> = (0..threads * PER_WORKER)
                .map(|_| AtomicU64::new(0))
                .collect();
            let popped = AtomicU64::new(0);
            std::thread::scope(|s| {
                for t in 0..threads {
                    let (runs, barrier, seen, popped) = (&runs, &barrier, &seen, &popped);
                    s.spawn(move || {
                        let mut run = RunBuilder::new();
                        if t % 4 != 3 {
                            for i in 0..PER_WORKER {
                                // Descending keys: the sort has work to do.
                                let id = t * PER_WORKER + i;
                                let key = (PER_WORKER - i) as f32;
                                run.push(key, id as u32);
                            }
                        }
                        runs.publish(t, run);
                        barrier.wait();
                        // Each run must come out ascending: track the last
                        // key seen per source run.
                        let mut last = vec![0.0f32; threads];
                        let mut mine = 0u64;
                        let unclaimed = drain_best_first(runs, t, |k, leaf, _| {
                            let from = leaf as usize / PER_WORKER;
                            assert!(k >= last[from], "run {from} out of order");
                            last[from] = k;
                            // ORDERING: relaxed — test tally read after the
                            // scope joins.
                            seen[leaf as usize].fetch_add(1, Ordering::Relaxed);
                            mine += 1;
                            Drain::Processed
                        });
                        assert_eq!(unclaimed, 0);
                        // ORDERING: relaxed — test tally read after the
                        // scope joins.
                        popped.fetch_add(mine, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(popped.into_inner(), total as u64, "threads={threads}");
            for (id, n) in seen.into_iter().enumerate() {
                let want = u64::from((id / PER_WORKER) % 4 != 3);
                assert_eq!(n.into_inner(), want, "leaf {id} threads={threads}");
            }
        }
    }

    #[test]
    fn concurrent_abandons_account_for_every_leaf_exactly_once() {
        const PER_WORKER: usize = 400;
        for threads in [2usize, 3, 8] {
            let runs = LeafRuns::new(threads);
            let barrier = Barrier::new(threads);
            let popped = AtomicU64::new(0);
            let unclaimed = AtomicU64::new(0);
            std::thread::scope(|s| {
                for t in 0..threads {
                    let (runs, barrier, popped, unclaimed) = (&runs, &barrier, &popped, &unclaimed);
                    s.spawn(move || {
                        let mut run = RunBuilder::new();
                        for i in 0..PER_WORKER {
                            run.push(i as f32, (t * PER_WORKER + i) as u32);
                        }
                        runs.publish(t, run);
                        barrier.wait();
                        // Everyone abandons at the same bound, so several
                        // workers race to close the same run.
                        let mut mine = 0u64;
                        let left = drain_best_first(runs, t, |k, _, _| {
                            mine += 1;
                            if k >= 100.0 {
                                Drain::Abandon
                            } else {
                                Drain::Processed
                            }
                        });
                        // ORDERING: relaxed — test tallies read after the
                        // scope joins.
                        popped.fetch_add(mine, Ordering::Relaxed);
                        unclaimed.fetch_add(left, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(
                popped.into_inner() + unclaimed.into_inner(),
                (threads * PER_WORKER) as u64,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn unpublished_slots_are_skipped_until_their_publisher_arrives() {
        let runs = LeafRuns::new(3);
        assert!(!runs.has_unclaimed());
        runs.publish(1, run_of(&[(2.0, 20), (1.0, 10)]));
        assert!(runs.is_published(1) && !runs.is_published(0));
        assert!(runs.has_unclaimed());
        // Worker 0 has not published: its own slot and slot 2 are skipped.
        assert_eq!(drain_all(&runs, 0), vec![(1.0, 10), (2.0, 20)]);
        assert!(!runs.has_unclaimed());
        // A late publisher drains its own run; nothing is popped twice.
        runs.publish(0, run_of(&[(0.5, 5), (3.0, 30), (4.0, 40)]));
        let mut ahead = Vec::new();
        let unclaimed = drain_best_first(&runs, 0, |_, leaf, next| {
            ahead.push((leaf, next.leaf(1), next.leaf(2)));
            Drain::Processed
        });
        assert_eq!(unclaimed, 0);
        assert_eq!(
            ahead,
            vec![
                (5, Some(30), Some(40)),
                (30, Some(40), None),
                (40, None, None)
            ]
        );
        assert!(!runs.has_unclaimed());
    }

    #[test]
    fn staggered_publishes_while_peers_drain_account_for_every_leaf_once() {
        const PER_WORKER: usize = 300;
        for threads in [2usize, 3, 8] {
            // No barrier: worker `t` publishes only once every earlier
            // worker has published and made one drain pass — which skipped
            // slot `t` and the later ones — so each late run arrives while
            // its peers are draining. Worker `t` leaves its run empty when
            // `t % 4 == 3`; odd runs are closed at a bound, the others
            // drained to exhaustion.
            let runs = LeafRuns::new(threads);
            let published = AtomicUsize::new(0);
            let first_passes = AtomicUsize::new(0);
            let total = (0..threads).filter(|t| t % 4 != 3).count() * PER_WORKER;
            let seen: Vec<AtomicU64> = (0..threads * PER_WORKER)
                .map(|_| AtomicU64::new(0))
                .collect();
            let unclaimed = AtomicU64::new(0);
            std::thread::scope(|s| {
                for t in 0..threads {
                    let (runs, published, first_passes, seen, unclaimed) =
                        (&runs, &published, &first_passes, &seen, &unclaimed);
                    s.spawn(move || {
                        // ORDERING: acquire — pairs with the release
                        // increments below: the earlier runs are visible.
                        while published.load(Ordering::Acquire) < t
                            || first_passes.load(Ordering::Acquire) < t
                        {
                            std::thread::yield_now();
                        }
                        let mut run = RunBuilder::new();
                        if t % 4 != 3 {
                            for i in 0..PER_WORKER {
                                run.push(i as f32, (t * PER_WORKER + i) as u32);
                            }
                        }
                        runs.publish(t, run);
                        // ORDERING: release — see the acquire above.
                        published.fetch_add(1, Ordering::Release);
                        // Keep draining while runs are still to come or
                        // hold unclaimed leaves, as an idle MESSI
                        // worker does.
                        let mut left = 0;
                        for pass in 0.. {
                            // ORDERING: acquire — see the release above.
                            let all_published = published.load(Ordering::Acquire) == threads;
                            left += drain_best_first(runs, t, |k, leaf, _| {
                                // ORDERING: relaxed — test tally read after
                                // the scope joins.
                                seen[leaf as usize].fetch_add(1, Ordering::Relaxed);
                                let from = leaf as usize / PER_WORKER;
                                if from % 2 == 1 && k >= 200.0 {
                                    Drain::Abandon
                                } else {
                                    Drain::Processed
                                }
                            });
                            if pass == 0 {
                                // ORDERING: release — see the acquire above.
                                first_passes.fetch_add(1, Ordering::Release);
                            }
                            if all_published && !runs.has_unclaimed() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                        // ORDERING: relaxed — test tally read after the
                        // scope joins.
                        unclaimed.fetch_add(left, Ordering::Relaxed);
                    });
                }
            });
            let mut popped = 0;
            for (id, n) in seen.into_iter().enumerate() {
                let n = n.into_inner();
                assert!(n <= 1, "leaf {id} popped {n} times, threads={threads}");
                let from = id / PER_WORKER;
                if from % 4 != 3 && (from % 2 == 0 || id % PER_WORKER <= 200) {
                    assert_eq!(n, 1, "leaf {id} never popped, threads={threads}");
                }
                popped += n;
            }
            assert_eq!(
                popped + unclaimed.into_inner(),
                total as u64,
                "threads={threads}"
            );
        }
    }
}
