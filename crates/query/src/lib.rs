//! The shared exact-NN query kernel: what more than one engine calls.
//!
//! ADS+, ParIS/ParIS+ and MESSI answer exact k-NN queries with the same
//! scaffolding in different parallel shapes (§III–§IV of the paper):
//!
//! 1. **prepare** — summarize the query (PAA), derive its iSAX word, build
//!    the per-query MINDIST lookup tables ([`PreparedQuery`], or
//!    [`DtwPrepared`] under banded DTW);
//! 2. **seed** — descend to the query's most promising leaf
//!    ([`approx_leaf_flat`]), so pruning starts from a tight best-so-far;
//! 3. **scan** — lower-bound candidates, early-abandon real distances for
//!    survivors, and fold improvements into the query's threshold.
//!
//! The engines differ in how they schedule and loop over steps 2 and 3.
//! MESSI visits every leaf, its own leaf's seed included, with
//! [`process_leaf_entries`], and that visit is also ADS+'s and MESSI's
//! approximate answer ([`approx_best_leaf`]). ParIS's seed, collect and
//! verify loops are its own (`dsidx_paris`), which ADS+ runs at one worker.
//! This crate holds what they share: the [`QueryBatch`] with its pruners
//! and [`BatchStats`], the [`SeriesFetcher`], the leaf visit and the
//! descent, and one [`QueryStats`] that reports every engine uniformly.
//!
//! The measure is a parameter of the loops, not a copy of them: a prepared
//! query implements [`Prepared`] — its word, its word-level table, its
//! node-table fill, the phase its traversal is booked under and its
//! distance — and the leaf loops are generic over it.
//! Every loop is also generic over [`Pruner`] — the abstraction of
//! "threshold read + candidate insert". Every schedule, the UCR scan's
//! included, runs on an [`OffsetTopK`] (a k-NN collector whose threshold is
//! the k-th best distance so far, optionally a view into a cross-shard
//! [`SharedTopK`]; 1-NN is k = 1). A [`QueryBatch`] holds per-query
//! prepared state, pruners and stats, so an engine answers B queries inside
//! a single schedule (and a single pool broadcast set).
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

pub use batch::{BatchSlot, BatchStats, QueryBatch, ShardView, SharedPruners};
pub use dtw::DtwPrepared;
pub use errslot::ErrorSlot;
pub use fetch::SeriesFetcher;
pub use knn::finish_knn;
pub use measure::Measure;
pub use prepare::{Prepared, PreparedQuery};
pub use scan::{process_leaf_entries, LeafScratch};
pub use seed::{approx_best_leaf, approx_leaf_flat};
pub use stats::QueryStats;

pub use dsidx_sync::{OffsetTopK, Pruner, SharedTopK};
