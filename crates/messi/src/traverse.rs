//! Index traversal (phase A of query answering).
//!
//! Work units are root subtrees, claimed by Fetch&Inc as in the paper. The
//! paper keeps subtree granularity because *construction* inside a subtree
//! would need synchronization; query-time traversal is read-only, so a
//! worker whose depth-first stack grows large **donates** half of it to a
//! shared overflow stack that idle workers drain. Without this, one giant
//! root subtree (random-walk data clusters heavily on first bits) sets the
//! whole phase's critical path.
//!
//! [`Traversal`] walks the tree for one query, with as many workers as
//! join it: the worker that opened the query and any peer that ran out of
//! queries of its own while the walk was still running (see
//! [`crate::query`]). Each runs its share into its own run; a worker alone
//! on a query runs the same code, its claims just never contend.
//!
//! The root level — the widest single level, though on a tree
//! fitted to its collection (`2^r` roots of about a leaf's worth each) no
//! longer most of the tree — is scanned from the root keys alone through
//! [`RootBounds`], without touching node memory.

use crate::pqueue::RunBuilder;
use dsidx_isax::{root_key_segments, NodeMindistTable};
use dsidx_sync::{Pruner, WorkQueue};
use dsidx_tree::FlatTree;
use parking_lot::Mutex;

/// Tuning: local stack size beyond which half is donated.
const DONATE_ABOVE: usize = 32;
/// Tuning: how often (in node visits) the donation check runs.
const DONATE_CHECK_MASK: u64 = 0x3F;

/// Key bits resolved by one [`RootBounds`] table.
const ROOT_TABLE_BITS: usize = 8;

/// One query's lower bound for every possible root subtree, as two table
/// reads.
///
/// A root's word has one bit on each of the tree's `r` keyed segments —
/// its key — and none on the rest, so its bound is a sum of `r` per-segment
/// terms that each depend on one key bit
/// ([`NodeMindistTable::root_pair`]); the unkeyed segments contribute
/// exactly zero. Summing them bit by bit costs an `r`-step dependent chain
/// per root, thousands of times per query. Instead the key is split into
/// its low (up to) eight bits and the rest, and each part's partial sum
/// is tabulated once per query (`2^min(r,8) + 2^(r-8)` entries — 264 at
/// `r = 11`): `lb(key) = hi[key >> 8] + lo[key & 0xFF]`. Each entry adds
/// its segments in index order, so the result differs from the sequential
/// sum only by the association of the final add.
#[derive(Debug, Clone)]
pub struct RootBounds {
    /// Partial sums over the keyed segments above the low byte of the key
    /// (`[0] == 0.0` alone when there are at most eight of them).
    hi: [f32; 1 << ROOT_TABLE_BITS],
    /// Partial sums over the last (up to) eight keyed segments.
    lo: [f32; 1 << ROOT_TABLE_BITS],
    lo_bits: usize,
}

impl RootBounds {
    /// Tabulates the root-level terms of `node_table` for a tree whose
    /// root keys cover `root_segments` of its `segments` segments
    /// (a [`FlatTree::config`]'s `root_segments()` and `segments()`).
    ///
    /// # Panics
    /// Panics if `root_segments` exceeds 16 (two tables of eight key bits).
    #[must_use]
    pub fn new(node_table: &NodeMindistTable, root_segments: usize, segments: usize) -> Self {
        assert!(
            root_segments <= 2 * ROOT_TABLE_BITS,
            "root key wider than 16 bits"
        );
        let lo_bits = root_segments.min(ROOT_TABLE_BITS);
        let hi_bits = root_segments - lo_bits;
        // Doubling: after segment `s` the first `2^(s+1)` entries hold the
        // sums for every setting of the key bits seen so far, the most
        // significant (earliest segment) first — exactly the key's layout.
        let mut keyed = root_key_segments(root_segments, segments);
        let mut tabulate = |bits: usize| {
            let mut sums = [0.0f32; 1 << ROOT_TABLE_BITS];
            for (done, seg) in keyed.by_ref().take(bits).enumerate() {
                let (zero, one) = node_table.root_pair(seg);
                for i in (0..1usize << done).rev() {
                    let so_far = sums[i];
                    sums[2 * i] = so_far + zero;
                    sums[2 * i + 1] = so_far + one;
                }
            }
            sums
        };
        Self {
            hi: tabulate(hi_bits),
            lo: tabulate(lo_bits),
            lo_bits,
        }
    }

    /// The lower bound of the root subtree with key `key`.
    #[inline]
    #[must_use]
    pub fn lb(&self, key: u16) -> f32 {
        let key = usize::from(key);
        self.hi[key >> self.lo_bits] + self.lo[key & ((1 << self.lo_bits) - 1)]
    }
}

/// Shared state for one query's traversal, owning the query's node-level
/// table. Generic over [`Pruner`], so the same traversal prunes against
/// the single best (1-NN) or the k-th best distance (k-NN).
pub struct Traversal<'a, P: Pruner> {
    flat: &'a FlatTree,
    node_table: NodeMindistTable,
    root_bounds: RootBounds,
    best: &'a P,
    root_queue: WorkQueue,
    /// Overflow work: node indices donated by overloaded workers.
    shared: Mutex<Vec<u32>>,
}

impl<'a, P: Pruner> Traversal<'a, P> {
    /// Prepares a traversal over `flat`'s occupied roots.
    #[must_use]
    pub fn new(flat: &'a FlatTree, node_table: NodeMindistTable, best: &'a P) -> Self {
        Self {
            flat,
            root_bounds: RootBounds::new(
                &node_table,
                flat.config().root_segments(),
                flat.config().segments(),
            ),
            node_table,
            best,
            root_queue: WorkQueue::new(flat.roots().len()),
            shared: Mutex::new(Vec::new()),
        }
    }

    /// Runs one worker's share of the traversal, appending surviving
    /// leaves to the worker's private `run`. Returns when every root has
    /// been claimed and every donated item drained (see module docs for
    /// why that is sound: the holder of remaining work drains the shared
    /// stack before returning) with the number of nodes (roots included)
    /// this worker pruned by their lower bound.
    pub fn run_worker(&self, run: &mut RunBuilder) -> u64 {
        let mut pruned = 0u64;
        let mut stack: Vec<u32> = Vec::new();
        let mut visits = 0u64;
        // Claim root chunks first.
        while let Some(range) = self.root_queue.claim_chunk(64) {
            for i in range {
                let (key, root_idx) = self.flat.roots()[i];
                if self.root_bounds.lb(key) >= self.best.threshold_sq() {
                    pruned += 1;
                    continue;
                }
                stack.push(root_idx);
                self.drain_stack(&mut stack, &mut visits, &mut pruned, run);
            }
        }
        // Help with donated work until none remains anywhere.
        loop {
            let item = self.shared.lock().pop();
            match item {
                Some(idx) => {
                    stack.push(idx);
                    self.drain_stack(&mut stack, &mut visits, &mut pruned, run);
                }
                None => return pruned,
            }
        }
    }

    fn drain_stack(
        &self,
        stack: &mut Vec<u32>,
        visits: &mut u64,
        pruned: &mut u64,
        run: &mut RunBuilder,
    ) {
        while let Some(idx) = stack.pop() {
            *visits += 1;
            if *visits & DONATE_CHECK_MASK == 0 && stack.len() > DONATE_ABOVE {
                // Donate the shallow half (closer to the root => bigger
                // subtrees) to whoever is idle.
                let keep = stack.len() / 2;
                let mut shared = self.shared.lock();
                shared.extend(stack.drain(..keep));
            }
            let node = self.flat.node(idx);
            let lb = node.mindist_sq(&self.node_table);
            if lb >= self.best.threshold_sq() {
                *pruned += 1;
                continue;
            }
            if node.is_leaf() {
                if !node.entry_range().is_empty() {
                    run.push(lb, idx);
                }
            } else {
                let (zero, one) = node.children(idx);
                stack.push(one);
                stack.push(zero);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use crate::config::MessiConfig;
    use crate::pqueue::{drain_best_first, Drain, LeafRuns};
    use dsidx_isax::paa::paa;
    use dsidx_series::gen::DatasetKind;
    use dsidx_sync::SharedTopK;
    use dsidx_tree::TreeConfig;

    #[test]
    fn cooperative_traversal_enqueues_same_leaves_as_serial() {
        let data = DatasetKind::Synthetic.generate(2000, 64, 3);
        let cfg = MessiConfig::new(TreeConfig::new(64, 8, 16).unwrap(), 4);
        let (messi, _) = build(&data, &cfg);
        let q = DatasetKind::Synthetic.queries(1, 64, 3);
        let paa_q = paa(q.get(0), 8);
        let node_table = NodeMindistTable::new_point(&paa_q, cfg.tree.quantizer().segment_lens());

        // With an infinite BSF nothing is pruned, so every non-empty leaf
        // must be enqueued exactly once no matter how many workers help.
        let total_leaves = messi
            .nodes()
            .iter()
            .filter(|n| n.is_leaf() && !n.entry_range().is_empty())
            .count() as u64;
        for threads in [1usize, 4, 8] {
            let best = SharedTopK::new(1);
            let runs = LeafRuns::new(threads);
            let traversal = Traversal::new(&messi, node_table.clone(), &best);
            let enqueued = std::sync::atomic::AtomicU64::new(0);
            std::thread::scope(|s| {
                for worker in 0..threads {
                    let (traversal, runs, enqueued) = (&traversal, &runs, &enqueued);
                    s.spawn(move || {
                        let mut run = RunBuilder::new();
                        let pruned = traversal.run_worker(&mut run);
                        assert_eq!(pruned, 0, "infinite BSF prunes nothing");
                        enqueued.fetch_add(run.len() as u64, std::sync::atomic::Ordering::Relaxed);
                        runs.publish(worker, run);
                    });
                }
            });
            assert_eq!(
                enqueued.load(std::sync::atomic::Ordering::Relaxed),
                total_leaves,
                "threads={threads}"
            );
            // And every queued index is a distinct leaf.
            let mut seen = std::collections::HashSet::new();
            drain_best_first(&runs, 0, |_, idx, _| {
                assert!(seen.insert(idx), "leaf {idx} enqueued twice");
                Drain::Processed
            });
            assert_eq!(seen.len() as u64, total_leaves);
        }
    }

    /// A best-so-far nothing can beat: a match at distance 0 is in hand.
    struct Perfect;

    impl Pruner for Perfect {
        fn threshold_sq(&self) -> f32 {
            0.0
        }

        fn insert(&self, _: f32, _: u32) -> bool {
            false
        }
    }

    #[test]
    fn tight_bsf_prunes_everything() {
        let data = DatasetKind::Synthetic.generate(500, 64, 9);
        let cfg = MessiConfig::new(TreeConfig::new(64, 8, 16).unwrap(), 2);
        let (messi, _) = build(&data, &cfg);
        let q = DatasetKind::Synthetic.queries(1, 64, 9);
        let paa_q = paa(q.get(0), 8);
        let node_table = NodeMindistTable::new_point(&paa_q, cfg.tree.quantizer().segment_lens());
        let traversal = Traversal::new(&messi, node_table, &Perfect);
        let mut run = RunBuilder::new();
        let pruned = traversal.run_worker(&mut run);
        assert!(run.is_empty(), "zero BSF must prune every subtree");
        assert!(pruned > 0);
    }
}
