//! A persistent worker pool with scoped broadcasts.
//!
//! The paper's engines create their worker threads once and reuse them for
//! every query; spawning OS threads per query would dominate millisecond
//! query times (on some sandboxed kernels a single spawn costs ~0.5 ms).
//! [`WorkerPool::broadcast`] runs one closure on every worker and returns
//! when all of them finish — the moral equivalent of `std::thread::scope`,
//! but against long-lived threads.
//!
//! Jobs are published through one shared slot guarded by a generation
//! counter, and parked workers are woken by a **single** `notify_all` —
//! not one wake syscall per worker. Waking a parked thread costs tens of
//! microseconds here, so per-worker wakes would stagger the start of every
//! broadcast by `workers × wake`; with one shared condition variable the
//! whole pool starts on one notification, and the batched query schedules
//! (`dsidx-query::batch`) amortize even that single wake over B queries.

use dsidx_obs::registry::{Counter, Histogram};
use dsidx_obs::trace;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Process-wide pool metrics, registered once in the obs registry.
struct PoolMetrics {
    broadcasts: &'static Counter,
    broadcast_nanos: &'static Histogram,
    busy: &'static Counter,
    idle: &'static Counter,
    parked: &'static Counter,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        use dsidx_obs::registry::{counter, exponential_bounds, histogram};
        PoolMetrics {
            broadcasts: counter(
                crate::metrics::POOL_BROADCASTS_TOTAL,
                "Pool broadcasts issued across all pools",
            ),
            broadcast_nanos: histogram(
                crate::metrics::POOL_BROADCAST_NANOS,
                "Wall nanoseconds per pool broadcast, publish to join",
                // 1us .. ~4s in 4x steps.
                &exponential_bounds(1_000, 4, 12),
            ),
            busy: counter(
                crate::metrics::POOL_WORKER_BUSY_NANOS_TOTAL,
                "Nanoseconds workers spent executing broadcast tasks",
            ),
            idle: counter(
                crate::metrics::POOL_WORKER_IDLE_NANOS_TOTAL,
                "Nanoseconds workers spent spinning for the next broadcast",
            ),
            parked: counter(
                crate::metrics::POOL_WORKER_PARKED_NANOS_TOTAL,
                "Nanoseconds workers spent parked on the pool condvar",
            ),
        }
    })
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Per-worker running utilization totals, written by the worker itself at
/// each state transition (spin → park → run). Whole nanosecond intervals,
/// disjoint by construction, so `busy + idle + parked` tracks the
/// worker's lifetime.
#[derive(Debug, Default)]
struct WorkerAccounting {
    busy: AtomicU64,
    idle: AtomicU64,
    parked: AtomicU64,
    broadcasts: AtomicU64,
}

/// A point-in-time snapshot of one worker's utilization counters (see
/// [`WorkerPool::worker_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Nanoseconds spent executing broadcast tasks.
    pub busy_nanos: u64,
    /// Nanoseconds spent in the post-job spin window (polling, not
    /// parked).
    pub idle_nanos: u64,
    /// Nanoseconds spent parked on the pool condvar.
    pub parked_nanos: u64,
    /// Broadcast tasks this worker has completed.
    pub broadcasts_served: u64,
}

/// A lifetime-erased `Fn(usize worker_id)` pointer plus completion state.
struct Job {
    /// Type- and lifetime-erased pointer to the caller's closure. Valid for
    /// the duration of the broadcast because `broadcast` blocks until
    /// `remaining == 0`.
    task: *const (dyn Fn(usize) + Sync),
    remaining: AtomicUsize,
    panicked: AtomicBool,
    done: Mutex<bool>,
    cv: Condvar,
}

// SAFETY: the raw pointer is only dereferenced while the owning `broadcast`
// call is blocked, and the pointee is `Sync`.
unsafe impl Send for Job {}
// SAFETY: as above — all shared access to the pointee is `&`-only and the
// pointee is `Sync`; every other field is itself `Sync`.
unsafe impl Sync for Job {}

/// The published-job slot every worker watches.
struct Slot {
    /// Generation of the job currently in `job` (0 = none yet). A worker
    /// runs a job exactly once by comparing against the last generation it
    /// executed.
    seq: u64,
    /// The current job; cleared by the broadcaster once complete, so the
    /// erased closure pointer never outlives its broadcast.
    job: Option<Arc<Job>>,
}

/// State shared between the broadcaster and every worker.
struct PoolShared {
    /// Mirror of `slot.seq`, readable without the lock — what the workers'
    /// spin fast-path polls between jobs.
    seq: AtomicU64,
    slot: Mutex<Slot>,
    /// Workers park here; one `notify_all` per broadcast wakes all of them.
    cv: Condvar,
    shutdown: AtomicBool,
    /// One accounting slot per worker, index-aligned with worker ids.
    workers: Vec<WorkerAccounting>,
}

/// A fixed-size pool of persistent worker threads.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    created: Instant,
    /// Serializes broadcasts: a task may wait for its peers (a barrier, or
    /// a worker waiting on a run a peer has yet to publish), and two
    /// interleaved broadcasts would then each hold some workers waiting on
    /// peers stuck in the other — a deadlock. One broadcast at a time makes
    /// every worker run the same task to completion.
    run_lock: Mutex<()>,
}

impl WorkerPool {
    /// Spawns `threads` workers (`threads >= 1`).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "pool needs at least one worker");
        let shared = Arc::new(PoolShared {
            seq: AtomicU64::new(0),
            slot: Mutex::new(Slot { seq: 0, job: None }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers: (0..threads).map(|_| WorkerAccounting::default()).collect(),
        });
        let mut handles = Vec::with_capacity(threads);
        for worker_id in 0..threads {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                let mut last_seq = 0u64;
                let me = &shared.workers[worker_id];
                loop {
                    // Fast path: after finishing a job, poll the published
                    // generation briefly before parking. Re-waking a parked
                    // thread costs tens of microseconds, which would
                    // dominate back-to-back sub-millisecond queries.
                    // Utilization accounting: the spin window is *idle*
                    // time, the condvar wait below is *parked* time, the
                    // task run is *busy* time — disjoint intervals flushed
                    // at each transition, so their sum tracks the worker's
                    // wall-clock lifetime.
                    let spin_start = Instant::now();
                    for spin in 0..4096u32 {
                        if shared.seq.load(Ordering::Acquire) != last_seq
                            || shared.shutdown.load(Ordering::Acquire)
                        {
                            break;
                        }
                        if spin % 64 == 63 {
                            std::thread::yield_now();
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                    let idle = nanos(spin_start.elapsed());
                    // ORDERING: relaxed — per-worker stat cell written only
                    // by its owner thread; readers accept lag (see
                    // `worker_stats`).
                    me.idle.fetch_add(idle, Ordering::Relaxed);
                    // Slow path: park on the shared condvar until a new
                    // generation is published (or shutdown).
                    let park_start = Instant::now();
                    let job = {
                        let mut slot = shared.slot.lock();
                        while slot.seq == last_seq && !shared.shutdown.load(Ordering::Acquire) {
                            shared.cv.wait(&mut slot);
                        }
                        if slot.seq == last_seq {
                            return; // shutdown with no new job
                        }
                        last_seq = slot.seq;
                        Arc::clone(slot.job.as_ref().expect("published generation has a job"))
                    };
                    let parked = nanos(park_start.elapsed());
                    // ORDERING: relaxed — owner-thread stat cell, as above.
                    me.parked.fetch_add(parked, Ordering::Relaxed);
                    // SAFETY: see `Job.task` — the broadcaster keeps the
                    // closure alive until every worker is done.
                    let task = unsafe { &*job.task };
                    let busy_start = Instant::now();
                    let result =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(worker_id)));
                    let busy = nanos(busy_start.elapsed());
                    // ORDERING: relaxed — owner-thread stat cells, as above.
                    me.busy.fetch_add(busy, Ordering::Relaxed);
                    me.broadcasts.fetch_add(1, Ordering::Relaxed);
                    if dsidx_obs::enabled() {
                        let m = pool_metrics();
                        m.busy.add(busy);
                        m.idle.add(idle);
                        m.parked.add(parked);
                    }
                    if result.is_err() {
                        job.panicked.store(true, Ordering::Release);
                    }
                    if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        *job.done.lock() = true;
                        job.cv.notify_all();
                    }
                }
            }));
        }
        Self {
            shared,
            handles,
            created: Instant::now(),
            run_lock: Mutex::new(()),
        }
    }

    /// Number of workers.
    #[must_use]
    pub fn size(&self) -> usize {
        self.handles.len()
    }

    /// Nanoseconds since the pool's threads were spawned.
    #[must_use]
    pub fn uptime_nanos(&self) -> u64 {
        nanos(self.created.elapsed())
    }

    /// Per-worker utilization snapshots, index-aligned with worker ids.
    ///
    /// Each worker's `busy + idle + parked` covers its completed
    /// state intervals; immediately after a broadcast joins, that sum
    /// approximates the pool's [`uptime_nanos`](Self::uptime_nanos) (the
    /// in-progress interval — the spin window or condvar wait the worker
    /// is currently inside — is not yet flushed).
    #[must_use]
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.shared
            .workers
            .iter()
            .map(|w| WorkerStats {
                // ORDERING: relaxed — monotone stat reads; the docs above
                // already promise snapshots may trail in-progress work.
                busy_nanos: w.busy.load(Ordering::Relaxed),
                idle_nanos: w.idle.load(Ordering::Relaxed),
                parked_nanos: w.parked.load(Ordering::Relaxed),
                broadcasts_served: w.broadcasts.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Runs `task(worker_id)` on every worker and returns when all have
    /// finished. `task` may borrow from the caller's stack.
    ///
    /// Broadcasts serialize: concurrent callers queue behind each other.
    /// Never call `broadcast` from inside a task running on the same pool —
    /// that self-deadlocks (the task would wait for its own pool).
    ///
    /// # Panics
    /// Panics if any worker's task panicked (after all workers finished).
    pub fn broadcast(&self, task: &(dyn Fn(usize) + Sync)) {
        let _serial = self.run_lock.lock();
        let t0 = dsidx_obs::enabled().then(Instant::now);
        let n = self.handles.len();
        // SAFETY: lifetime erasure is sound because this call blocks below
        // until every worker has dropped its use of the pointer.
        let erased: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        let job = Arc::new(Job {
            task: erased,
            remaining: AtomicUsize::new(n),
            panicked: AtomicBool::new(false),
            done: Mutex::new(false),
            cv: Condvar::new(),
        });
        {
            let mut slot = self.shared.slot.lock();
            slot.seq += 1;
            slot.job = Some(Arc::clone(&job));
            // Publish under the lock so a worker checking the predicate
            // before parking cannot miss the generation bump.
            self.shared.seq.store(slot.seq, Ordering::Release);
        }
        // One wake for the whole pool (spinning workers never reach the
        // condvar and pick the job up from the atomic generation alone).
        self.shared.cv.notify_all();
        let mut done = job.done.lock();
        while !*done {
            job.cv.wait(&mut done);
        }
        drop(done);
        // Drop the slot's reference so the erased closure pointer does not
        // outlive this call.
        self.shared.slot.lock().job = None;
        if let Some(t0) = t0 {
            let elapsed = nanos(t0.elapsed());
            let m = pool_metrics();
            m.broadcasts.inc();
            m.broadcast_nanos.observe(elapsed);
            if trace::enabled() {
                trace::emit(
                    "broadcast",
                    &[
                        ("workers", trace::Value::U64(n as u64)),
                        ("nanos", trace::Value::U64(elapsed)),
                    ],
                );
            }
        }
        assert!(
            !job.panicked.load(Ordering::Acquire),
            "a worker task panicked during broadcast"
        );
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let _slot = self.shared.slot.lock();
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Returns the process-wide pool with exactly `threads` workers, creating
/// it on first use. Pools are cached per size (queries sweeping core
/// counts, as in the paper's figures, reuse them).
#[must_use]
pub fn global(threads: usize) -> Arc<WorkerPool> {
    let mut pools = pool_cache().lock();
    if let Some((_, pool)) = pools.iter().find(|(n, _)| *n == threads) {
        return Arc::clone(pool);
    }
    let pool = Arc::new(WorkerPool::new(threads));
    pools.push((threads, Arc::clone(&pool)));
    pool
}

type PoolCache = Mutex<Vec<(usize, Arc<WorkerPool>)>>;

fn pool_cache() -> &'static PoolCache {
    static POOLS: OnceLock<PoolCache> = OnceLock::new();
    POOLS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Total worker threads alive across every cached [`global`] pool.
///
/// The oversubscription guard for sharded indexes: N shards built or
/// searched at the same thread count must route through *one* cached pool,
/// so this total stays flat as shards multiply (rather than growing by
/// `N × available_parallelism()`).
#[must_use]
pub fn cached_worker_total() -> usize {
    pool_cache().lock().iter().map(|(n, _)| *n).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn broadcast_runs_every_worker_once() {
        let pool = WorkerPool::new(8);
        let seen = [const { AtomicU64::new(0) }; 8];
        pool.broadcast(&|id| {
            seen[id].fetch_add(1, Ordering::Relaxed);
        });
        for s in &seen {
            assert_eq!(s.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn broadcast_can_borrow_stack_data() {
        let pool = WorkerPool::new(4);
        let data: Vec<u64> = (0..1000).collect();
        let total = AtomicU64::new(0);
        pool.broadcast(&|id| {
            let part: u64 = data.iter().skip(id).step_by(4).sum();
            total.fetch_add(part, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 1000 * 999 / 2);
    }

    #[test]
    fn sequential_broadcasts_reuse_workers() {
        let pool = WorkerPool::new(6);
        let counter = AtomicU64::new(0);
        for _ in 0..50 {
            pool.broadcast(&|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn sequential_broadcasts_reuse_parked_workers() {
        // The micro-test behind the single-wake design: let the spin
        // window expire so every worker actually parks on the condvar,
        // then broadcast again — the same OS threads (no respawn, no lost
        // worker) must all pick the job up from one notify_all.
        let pool = WorkerPool::new(4);
        let ids: Mutex<std::collections::HashSet<std::thread::ThreadId>> =
            Mutex::new(std::collections::HashSet::new());
        pool.broadcast(&|_| {
            ids.lock().insert(std::thread::current().id());
        });
        let first: std::collections::HashSet<_> = ids.lock().clone();
        assert_eq!(first.len(), 4);
        for _ in 0..3 {
            // Far longer than the 4096-iteration spin window at any clock.
            std::thread::sleep(std::time::Duration::from_millis(50));
            let hits = AtomicU64::new(0);
            pool.broadcast(&|_| {
                let id = std::thread::current().id();
                assert!(ids.lock().contains(&id), "job ran on a non-pool thread");
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 4, "a parked worker was lost");
        }
    }

    #[test]
    fn single_worker_pool_works() {
        let pool = WorkerPool::new(1);
        let hit = AtomicU64::new(0);
        pool.broadcast(&|id| {
            assert_eq!(id, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_broadcasts_with_internal_barriers_do_not_deadlock() {
        // Regression test: interleaved broadcasts once deadlocked tasks
        // that synchronize across workers (each broadcast held a subset of
        // workers at its own barrier). Broadcast serialization fixes it.
        let pool = WorkerPool::new(4);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let pool = &pool;
                s.spawn(move || {
                    for _ in 0..20 {
                        let barrier = std::sync::Barrier::new(4);
                        let after = AtomicU64::new(0);
                        pool.broadcast(&|_| {
                            barrier.wait();
                            after.fetch_add(1, Ordering::Relaxed);
                        });
                        assert_eq!(after.load(Ordering::Relaxed), 4);
                    }
                });
            }
        });
    }

    #[test]
    fn global_pools_are_cached_per_size() {
        let a = global(3);
        let b = global(3);
        assert!(Arc::ptr_eq(&a, &b));
        let c = global(5);
        assert_eq!(c.size(), 5);
        assert!(!Arc::ptr_eq(&a, &c));
        // Repeated lookups at cached sizes never grow the worker census.
        let before = cached_worker_total();
        assert!(before >= 8, "3- and 5-worker pools are cached: {before}");
        for _ in 0..16 {
            let _ = global(3);
            let _ = global(5);
        }
        assert_eq!(cached_worker_total(), before);
    }

    #[test]
    #[should_panic(expected = "worker task panicked")]
    fn worker_panic_propagates() {
        let pool = WorkerPool::new(4);
        pool.broadcast(&|id| {
            assert!(id != 2, "boom");
        });
    }

    #[test]
    fn pool_survives_a_panicked_broadcast() {
        let pool = WorkerPool::new(4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.broadcast(&|_| panic!("first broadcast fails"));
        }));
        assert!(r.is_err());
        // Workers are still alive and usable.
        let counter = AtomicU64::new(0);
        pool.broadcast(&|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn worker_time_accounting_covers_pool_lifetime() {
        let pool = WorkerPool::new(4);
        // A few broadcasts with measurable busy time...
        for _ in 0..3 {
            pool.broadcast(&|_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        }
        // ...then let every worker fall past the spin window and park...
        std::thread::sleep(std::time::Duration::from_millis(60));
        // ...and flush the parked intervals with one final broadcast.
        pool.broadcast(&|_| {});
        let uptime = pool.uptime_nanos();
        let stats = pool.worker_stats();
        assert_eq!(stats.len(), 4);
        for (id, w) in stats.iter().enumerate() {
            assert_eq!(w.broadcasts_served, 4, "worker {id} missed a broadcast");
            // 3 broadcasts slept 5 ms each; allow for coarse clocks.
            assert!(
                w.busy_nanos >= 10_000_000,
                "worker {id} busy time implausibly low: {} ns",
                w.busy_nanos
            );
            assert!(
                w.parked_nanos >= 30_000_000,
                "worker {id} never parked through the 60 ms gap: {} ns",
                w.parked_nanos
            );
            // The three states are disjoint intervals of the worker's
            // lifetime; right after a broadcast joins, their sum must
            // approximate the pool's wall-clock uptime. Slack covers the
            // unflushed in-progress spin window and spawn stagger.
            let sum = w.busy_nanos + w.idle_nanos + w.parked_nanos;
            assert!(
                sum <= uptime + uptime / 4,
                "worker {id} accounted more time than the pool lived: {sum} > {uptime} ns"
            );
            assert!(
                sum >= uptime * 7 / 10,
                "worker {id} accounting leaks time: {sum} < 70% of {uptime} ns"
            );
        }
    }

    #[test]
    fn drop_joins_parked_workers() {
        let pool = WorkerPool::new(3);
        pool.broadcast(&|_| {});
        // Give workers time to fall past the spin window and park, then
        // drop: shutdown must wake and join all of them promptly.
        std::thread::sleep(std::time::Duration::from_millis(30));
        drop(pool);
    }
}
