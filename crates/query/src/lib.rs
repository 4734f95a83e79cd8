//! The shared exact-NN query kernel.
//!
//! ADS+, ParIS/ParIS+ and MESSI answer exact k-NN queries with the same
//! scaffolding in different parallel shapes (§III–§IV of the paper):
//!
//! 1. **prepare** — summarize the query (PAA), derive its iSAX word, build
//!    the per-query MINDIST lookup tables ([`PreparedQuery`], or
//!    [`DtwPrepared`] under banded DTW);
//! 2. **seed** — descend to the query's own leaf and visit it like any
//!    other leaf, so pruning starts from a tight best-so-far ([`seed`]);
//! 3. **scan** — lower-bound candidates (SAX-array entries or leaf
//!    entries), early-abandon real distances for survivors, and fold
//!    improvements into the shared threshold ([`scan`]).
//!
//! The engines differ only in *scheduling*: ParIS splits step 3 into
//! parallel collect/verify phases over Fetch&Inc chunks (ADS+ runs the same
//! schedule at one worker), MESSI replaces the scan with a tree traversal
//! feeding best-bound-first leaf runs but pays the same per-entry loop at
//! the leaves. Those loops live here once; engines keep only their scheduling. One
//! [`QueryStats`] reports all of them uniformly.
//!
//! The measure is a parameter of the loops, not a copy of them: a prepared
//! query implements [`Prepared`] — its word, its word-level table, its
//! node-table fill, the phase its traversal is booked under and its
//! distance — and the seed and leaf loops are generic over it (ParIS's
//! batch seed, collect and verify steps are Euclidean only).
//! Every loop is also generic over [`Pruner`] — the abstraction of
//! "threshold read + candidate insert". Every schedule, the UCR scan's
//! included, runs on an [`OffsetTopK`] (a k-NN collector whose threshold is
//! the k-th best distance so far, optionally a view into a cross-shard
//! [`SharedTopK`]; 1-NN is k = 1).
//!
//! The [`batch`] module generalizes all of it to query *batches*: a
//! [`QueryBatch`] holds per-query prepared state, pruners and stats, and
//! ParIS's collect loop bounds each SAX word against every query in one
//! data pass, so an engine answers B queries inside a single schedule (and
//! a single pool broadcast set). The single-query loops here are the lean
//! B = 1 specializations.
//!
//! Work counters are plain values everywhere: the loops count into a
//! `&mut QueryStats` the calling worker owns, and a worker merges its
//! tallies into the batch once per phase, under a lock nobody else holds
//! for longer than that merge. The only atomics a query shares are the
//! ones that carry its answer and its progress: the pruners' thresholds,
//! the work queues and the [`ErrorSlot`].

pub mod batch;
pub mod dtw;
pub mod errslot;
pub mod fetch;
pub mod knn;
pub mod measure;
pub mod prepare;
pub mod scan;
pub mod seed;
pub mod stats;

pub use batch::{
    batch_collect_candidates, batch_seed_positions, batch_seed_prefix, batch_verify_candidates,
    order_best_bound_first, BatchCandidate, BatchSlot, BatchStats, QueryBatch, ShardView,
    SharedPruners,
};
pub use dtw::DtwPrepared;
pub use errslot::ErrorSlot;
pub use fetch::SeriesFetcher;
pub use knn::finish_knn;
pub use measure::Measure;
pub use prepare::{Prepared, PreparedQuery};
pub use scan::{process_leaf_entries, LeafScratch};
pub use seed::{approx_best_leaf, approx_leaf_flat, best_bound_positions};
pub use stats::QueryStats;

pub use dsidx_sync::{OffsetTopK, Pruner, SharedTopK};
