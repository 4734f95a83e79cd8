//! The concurrent bounded top-k collector and the [`Pruner`] abstraction.
//!
//! Exact k-NN generalizes 1-NN in exactly one place: the pruning threshold
//! is the *k-th* best distance instead of the single best. [`Pruner`]
//! captures that contract — a cheap threshold read for the hot
//! early-abandon checks plus a candidate insert — so every query kernel
//! loop is written once and answers both query shapes. [`SharedTopK`]
//! implements it for every k, 1-NN being k = 1; [`OffsetTopK`] is the view
//! every engine schedule holds.

use parking_lot::Mutex;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Packs `f32::to_bits(dist)` into the high 32 bits and the series position
/// into the low 32 bits. Distances are non-negative, and for non-negative
/// IEEE-754 floats the bit pattern order equals numeric order, so the
/// integer order of packed words is the `(distance, position)` order —
/// lowest position first among exact ties.
#[inline]
fn pack(dist_sq: f32, pos: u32) -> u64 {
    debug_assert!(dist_sq >= 0.0, "distances are non-negative");
    (u64::from(dist_sq.to_bits()) << 32) | u64::from(pos)
}

/// A shared, concurrently updatable pruning target for exact NN queries.
///
/// Workers read [`threshold_sq`](Pruner::threshold_sq) to skip candidates
/// whose lower bound cannot improve the result set, and feed survivors'
/// real distances through [`insert`](Pruner::insert). Implementations
/// guarantee a *deterministic* final result: whatever the insertion order
/// or thread interleaving, equal inputs produce equal outputs (distance
/// ties prefer the lowest position).
pub trait Pruner: Sync {
    /// Current pruning threshold: a candidate whose (lower-bound or real)
    /// squared distance is `>= threshold_sq()` cannot improve the result
    /// set, so scans skip it and real-distance kernels abandon at it. The
    /// threshold only decreases over a query's lifetime, so a stale read
    /// is always sound (it merely prunes less).
    fn threshold_sq(&self) -> f32;

    /// Records a candidate's fully computed squared distance. Returns
    /// `true` iff the result set improved.
    fn insert(&self, dist_sq: f32, pos: u32) -> bool;
}

/// A thread-safe bounded collector of the k smallest `(squared distance,
/// position)` pairs.
///
/// Internally a mutex'd max-heap of packed `(dist bits, position)` words
/// (ordered by distance, then lowest position), plus a lock-free mirror of
/// the current k-th distance in an `AtomicU32` of `f32` bits. The hot
/// early-abandon read ([`Pruner::threshold_sq`]) is a single atomic load;
/// the mutex is only touched by inserts that might change the set, which
/// become rare as the threshold tightens.
///
/// # Determinism
///
/// The exposed threshold is one ulp *above* the k-th distance once k
/// candidates are held. A candidate tying the k-th distance therefore
/// still reaches [`insert`](Pruner::insert), where the packed comparison
/// lets a lower position replace the incumbent — so concurrent executions
/// converge to the brute-force answer (k smallest by `(dist, pos)`),
/// independent of processing order; at k = 1, the best-so-far with the
/// lowest position winning exact ties.
///
/// Positions are unique: re-inserting a position already in the set is a
/// no-op (the first recorded distance wins), so callers may freely
/// re-verify positions already paid for during BSF seeding.
#[derive(Debug)]
pub struct SharedTopK {
    k: usize,
    /// Max-heap over packed words: the root is the *worst* held pair.
    heap: Mutex<BinaryHeap<u64>>,
    /// Bits of the k-th smallest distance; `+inf` until k pairs are held.
    threshold_bits: AtomicU32,
}

impl SharedTopK {
    /// Creates a collector for the `k` nearest candidates.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be non-zero");
        Self {
            k,
            heap: Mutex::new(BinaryHeap::with_capacity(k + 1)),
            threshold_bits: AtomicU32::new(f32::INFINITY.to_bits()),
        }
    }

    /// The `k` this collector was created with.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of pairs currently held (at most `k`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.lock().len()
    }

    /// `true` while no pair has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current k-th smallest squared distance; `+inf` until `k` pairs
    /// are held. This is the exact boundary value — the pruning threshold
    /// exposed through [`Pruner::threshold_sq`] sits one ulp above it so
    /// boundary ties stay reachable (see the type docs).
    #[must_use]
    pub fn kth_dist_sq(&self) -> f32 {
        f32::from_bits(self.threshold_bits.load(Ordering::Acquire))
    }

    /// The held pairs as `(squared distance, position)`, sorted ascending
    /// by `(dist, pos)` — the final k-NN answer once the query finishes.
    #[must_use]
    pub fn matches(&self) -> Vec<(f32, u32)> {
        let mut packed: Vec<u64> = self.heap.lock().iter().copied().collect();
        packed.sort_unstable();
        packed
            .into_iter()
            .map(|w| (f32::from_bits((w >> 32) as u32), w as u32))
            .collect()
    }
}

impl Pruner for SharedTopK {
    #[inline]
    fn threshold_sq(&self) -> f32 {
        let bits = self.threshold_bits.load(Ordering::Acquire);
        if bits == f32::INFINITY.to_bits() {
            f32::INFINITY
        } else {
            // One ulp above the k-th distance: distances are non-negative,
            // so bit-incrementing is `next_up` (cheap, branch-free).
            f32::from_bits(bits + 1)
        }
    }

    fn insert(&self, dist_sq: f32, pos: u32) -> bool {
        debug_assert!(
            dist_sq >= 0.0 && dist_sq.is_finite(),
            "distances are finite and non-negative"
        );
        // Lock-free reject: distances are finite, so a finite threshold
        // means the heap is full; strictly worse candidates cannot improve
        // the set. Ties fall through — a lower position may still win.
        if dist_sq.to_bits() > self.threshold_bits.load(Ordering::Acquire) {
            return false;
        }
        let new = pack(dist_sq, pos);
        let mut heap = self.heap.lock();
        // Positions are unique; the first recorded distance wins (seeding
        // and scanning may compute the same series with different
        // accumulation orders, differing in the last ulp).
        if heap.iter().any(|&w| w as u32 == pos) {
            return false;
        }
        if heap.len() < self.k {
            heap.push(new);
            if heap.len() == self.k {
                let worst = *heap.peek().expect("non-empty");
                self.threshold_bits
                    .store((worst >> 32) as u32, Ordering::Release);
            }
            return true;
        }
        let worst = *heap.peek().expect("k > 0");
        if new >= worst {
            return false;
        }
        heap.pop();
        heap.push(new);
        let worst = *heap.peek().expect("non-empty");
        self.threshold_bits
            .store((worst >> 32) as u32, Ordering::Release);
        true
    }
}

/// A position-offsetting view over a shared [`SharedTopK`].
///
/// Scatter-gather search partitions one dataset across shards, each of
/// which runs the ordinary query kernels over *local* positions
/// `0..shard_len`. To share one best-so-far across shards mid-flight, every
/// shard's kernel must feed the *same* collector — but with **global**
/// positions, or the collector's position-dedup and lowest-position
/// tie-break would conflate series from different shards. `OffsetTopK`
/// wraps an `Arc<SharedTopK>` plus the shard's global base offset: inserts
/// rebase `pos → base + pos` on the way in, threshold reads pass straight
/// through. A standalone (non-sharded) query uses [`OffsetTopK::fresh`],
/// which is a plain `SharedTopK` at base 0.
#[derive(Debug, Clone)]
pub struct OffsetTopK {
    inner: Arc<SharedTopK>,
    base: u32,
}

impl OffsetTopK {
    /// A fresh, unshared collector at base 0 — behaviorally identical to
    /// `SharedTopK::new(k)`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn fresh(k: usize) -> Self {
        Self::shared(Arc::new(SharedTopK::new(k)), 0)
    }

    /// A view over `inner` that rebases inserted positions by `base`
    /// (the owning shard's first global position).
    #[must_use]
    pub fn shared(inner: Arc<SharedTopK>, base: u32) -> Self {
        Self { inner, base }
    }

    /// The underlying shared collector (positions in it are global).
    #[must_use]
    pub fn inner(&self) -> &SharedTopK {
        &self.inner
    }

    /// The global position this view's local position 0 maps to.
    #[must_use]
    pub fn base(&self) -> u32 {
        self.base
    }

    /// See [`Pruner::threshold_sq`].
    #[inline]
    #[must_use]
    pub fn threshold_sq(&self) -> f32 {
        Pruner::threshold_sq(self.inner.as_ref())
    }

    /// Records a candidate at *local* position `pos`; see
    /// [`Pruner::insert`].
    #[inline]
    pub fn insert(&self, dist_sq: f32, pos: u32) -> bool {
        Pruner::insert(self.inner.as_ref(), dist_sq, self.base + pos)
    }

    /// See [`SharedTopK::k`].
    #[must_use]
    pub fn k(&self) -> usize {
        self.inner.k()
    }

    /// See [`SharedTopK::len`].
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// See [`SharedTopK::is_empty`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// See [`SharedTopK::kth_dist_sq`].
    #[must_use]
    pub fn kth_dist_sq(&self) -> f32 {
        self.inner.kth_dist_sq()
    }

    /// The held pairs with **global** positions; see
    /// [`SharedTopK::matches`].
    #[must_use]
    pub fn matches(&self) -> Vec<(f32, u32)> {
        self.inner.matches()
    }
}

impl Pruner for OffsetTopK {
    #[inline]
    fn threshold_sq(&self) -> f32 {
        OffsetTopK::threshold_sq(self)
    }

    #[inline]
    fn insert(&self, dist_sq: f32, pos: u32) -> bool {
        OffsetTopK::insert(self, dist_sq, pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(t: &SharedTopK) -> Vec<(f32, u32)> {
        t.matches()
    }

    #[test]
    fn below_k_everything_is_kept_and_threshold_stays_infinite() {
        let t = SharedTopK::new(3);
        assert!(t.is_empty());
        assert!(t.insert(5.0, 1));
        assert!(t.insert(2.0, 2));
        assert_eq!(t.kth_dist_sq(), f32::INFINITY);
        assert_eq!(t.threshold_sq(), f32::INFINITY);
        assert_eq!(collect(&t), vec![(2.0, 2), (5.0, 1)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.k(), 3);
    }

    #[test]
    fn threshold_tracks_the_kth_distance() {
        let t = SharedTopK::new(2);
        t.insert(5.0, 1);
        t.insert(2.0, 2);
        assert_eq!(t.kth_dist_sq(), 5.0);
        // Threshold is one ulp above the boundary.
        assert!(t.threshold_sq() > 5.0);
        assert_eq!(t.threshold_sq(), f32::from_bits(5.0f32.to_bits() + 1));
        // An improvement evicts the worst and tightens the threshold.
        assert!(t.insert(3.0, 7));
        assert_eq!(t.kth_dist_sq(), 3.0);
        assert_eq!(collect(&t), vec![(2.0, 2), (3.0, 7)]);
        // Strictly worse candidates are rejected without effect.
        assert!(!t.insert(4.0, 9));
        assert_eq!(collect(&t), vec![(2.0, 2), (3.0, 7)]);
    }

    #[test]
    fn boundary_tie_prefers_lower_position() {
        let t = SharedTopK::new(2);
        t.insert(1.0, 5);
        t.insert(3.0, 9);
        // Same distance as the current worst, lower position: replaces.
        assert!(t.insert(3.0, 4));
        assert_eq!(collect(&t), vec![(1.0, 5), (3.0, 4)]);
        // Same distance, higher position: rejected.
        assert!(!t.insert(3.0, 6));
        assert_eq!(collect(&t), vec![(1.0, 5), (3.0, 4)]);
    }

    #[test]
    fn duplicate_positions_are_not_double_counted() {
        let t = SharedTopK::new(3);
        assert!(t.insert(2.0, 1));
        assert!(!t.insert(2.0, 1), "same position is a no-op");
        // Even with a (rounding-) different distance, first record wins.
        assert!(!t.insert(1.9999999, 1));
        assert_eq!(collect(&t), vec![(2.0, 1)]);
    }

    #[test]
    fn k1_keeps_the_lowest_position_minimum_including_ties() {
        let topk = SharedTopK::new(1);
        let updates = [(4.0f32, 9u32), (4.0, 3), (2.0, 8), (2.0, 1), (7.0, 0)];
        let improved: Vec<bool> = updates.iter().map(|&(d, p)| topk.insert(d, p)).collect();
        assert_eq!(improved, [true, true, true, true, false]);
        assert_eq!(collect(&topk), vec![(2.0, 1)]);
        assert_eq!(topk.kth_dist_sq(), 2.0);
    }

    #[test]
    fn k_larger_than_inserts_returns_everything_sorted() {
        let t = SharedTopK::new(100);
        t.insert(3.0, 3);
        t.insert(1.0, 1);
        t.insert(2.0, 2);
        assert_eq!(collect(&t), vec![(1.0, 1), (2.0, 2), (3.0, 3)]);
        assert_eq!(t.kth_dist_sq(), f32::INFINITY);
    }

    #[test]
    #[should_panic(expected = "k must be non-zero")]
    fn zero_k_panics() {
        let _ = SharedTopK::new(0);
    }

    #[test]
    fn concurrent_inserts_equal_sequential_sort_truncate() {
        let k = 10;
        let threads = 8;
        let per_thread = 5_000u32;
        let t = SharedTopK::new(k);
        let dist_of = |pos: u32| -> f32 {
            // Deterministic, tie-heavy (many positions share a distance).
            ((pos.wrapping_mul(2_654_435_761) >> 24) % 64) as f32 * 0.25
        };
        std::thread::scope(|s| {
            for w in 0..threads {
                let t = &t;
                s.spawn(move || {
                    for i in 0..per_thread {
                        let pos = w as u32 * per_thread + i;
                        t.insert(dist_of(pos), pos);
                    }
                });
            }
        });
        let mut reference: Vec<(f32, u32)> = (0..threads as u32 * per_thread)
            .map(|pos| (dist_of(pos), pos))
            .collect();
        reference.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        reference.truncate(k);
        assert_eq!(collect(&t), reference);
    }

    #[test]
    fn offset_views_rebase_positions_into_one_collector() {
        // Two "shards" of 10 series each share one collector; local
        // position 3 in the second shard is global 13.
        let shared = Arc::new(SharedTopK::new(2));
        let s0 = OffsetTopK::shared(Arc::clone(&shared), 0);
        let s1 = OffsetTopK::shared(Arc::clone(&shared), 10);
        assert!(s0.insert(4.0, 3));
        assert!(s1.insert(1.0, 3));
        assert_eq!(shared.matches(), vec![(1.0, 13), (4.0, 3)]);
        assert_eq!(s0.matches(), s1.matches());
        // A find in one shard tightens the threshold the other reads.
        assert!(s1.insert(2.0, 0));
        assert!(s0.threshold_sq() < 4.0);
        assert_eq!(s0.kth_dist_sq(), 2.0);
        assert_eq!(s1.base(), 10);
        assert_eq!(s0.k(), 2);
        assert_eq!(s0.len(), 2);
        assert!(!s0.is_empty());
    }

    #[test]
    fn offset_dedup_is_global_not_local() {
        // The same *local* position in two different shards is two
        // different series — both must be admissible.
        let shared = Arc::new(SharedTopK::new(3));
        let s0 = OffsetTopK::shared(Arc::clone(&shared), 0);
        let s1 = OffsetTopK::shared(Arc::clone(&shared), 100);
        assert!(s0.insert(1.0, 7));
        assert!(s1.insert(2.0, 7));
        assert_eq!(shared.matches(), vec![(1.0, 7), (2.0, 107)]);
        // Re-inserting the same global series is still a no-op.
        assert!(!s1.insert(2.5, 7));
        assert_eq!(shared.len(), 2);
    }

    #[test]
    fn fresh_offset_topk_matches_plain_shared_topk() {
        let plain = SharedTopK::new(2);
        let fresh = OffsetTopK::fresh(2);
        for &(d, p) in &[(4.0f32, 9u32), (4.0, 3), (2.0, 8), (2.0, 1)] {
            assert_eq!(plain.insert(d, p), fresh.insert(d, p));
        }
        assert_eq!(plain.matches(), fresh.matches());
        assert_eq!(
            Pruner::threshold_sq(&plain),
            Pruner::threshold_sq(&fresh.clone())
        );
        assert_eq!(fresh.inner().matches(), plain.matches());
    }
}
