//! # dsidx — parallel data series indexing
//!
//! A from-scratch Rust implementation of the systems in *“Data Series
//! Indexing Gone Parallel”* (Peng, ICDE 2020 PhD Symposium): the **ParIS**
//! and **ParIS+** on-disk parallel iSAX indices, the **MESSI** in-memory
//! parallel index, and their evaluation baselines (**ADS+**-style serial
//! index, **UCR Suite** serial/parallel scans), over a storage substrate
//! with simulated HDD/SSD device profiles.
//!
//! ## Quickstart
//!
//! Every query is one [`Search::search`] call shaped by a [`QuerySpec`]:
//! how many neighbors, which [`Measure`], which [`Fidelity`], stats or
//! not. Batches are the native shape — a single query is a batch of one.
//!
//! ```
//! use dsidx::prelude::*;
//!
//! // 100K random-walk series of length 256 at paper scale; small here.
//! let data = DatasetKind::Synthetic.generate(2_000, 128, 42);
//! let query = DatasetKind::Synthetic.queries(1, 128, 42);
//!
//! // Build an in-memory MESSI index and answer an exact 1-NN query.
//! let index = MemoryIndex::build(data, Engine::Messi, &Options::default()).unwrap();
//! let hit = index
//!     .search(&[query.get(0)], &QuerySpec::nn())
//!     .unwrap()
//!     .into_nn()
//!     .expect("non-empty");
//! println!("nearest series: #{} at distance {}", hit.pos, hit.dist());
//!
//! // Exact k-NN from the same index: the 10 nearest, sorted ascending by
//! // (distance, position); `QuerySpec::nn()` is the k = 1 special case.
//! let top10 = index
//!     .search(&[query.get(0)], &QuerySpec::knn(10))
//!     .unwrap()
//!     .into_single();
//! assert_eq!(top10.len(), 10);
//! assert_eq!(top10[0], hit);
//!
//! // The same index answers DTW queries (Sakoe-Chiba band of 5%) — a
//! // measure is one builder call, not another method family.
//! let spec = QuerySpec::nn().measure(Measure::Dtw { band: 128 / 20 });
//! let warped = index
//!     .search(&[query.get(0)], &spec)
//!     .unwrap()
//!     .into_nn()
//!     .expect("non-empty");
//! assert!(warped.dist_sq <= hit.dist_sq + 1e-3);
//! ```
//!
//! ## Crate map
//!
//! The facade re-exports the underlying crates as modules:
//!
//! * [`series`] — datasets, z-normalization, distances (SIMD ED, DTW),
//!   generators for the paper's dataset families;
//! * [`isax`] — PAA, breakpoints, iSAX words, MINDIST lower bounds;
//! * [`tree`] — the shared iSAX tree: grown straight into flat arrays
//!   (ParIS: as a boxed graph by inserts, then flattened), held and
//!   persisted as those arrays. A [`tree::FlatTree`] carries the
//!   [`tree::TreeConfig`] it was built under, and it is all any engine
//!   builds, holds and queries;
//! * [`storage`] — dataset files, device throttling profiles, leaf store;
//! * [`query`] — the shared exact-NN query kernel (preparation, BSF
//!   seeding, early-abandoned candidate scans, unified [`QueryStats`]) and
//!   the best-leaf visit that is ADS+'s and MESSI's approximate answer;
//! * [`ucr`], [`paris`], [`messi`] — the engines, each with one exact
//!   entry point (`exact`; ParIS also its sketch-nearest `approx`) taking
//!   a flat tree and batches (and, for MESSI, the [`Measure`]) as values;
//!   ParIS's scans the tree's own entry words. The ADS+
//!   baseline is no crate of its own: it is MESSI's build and ParIS's
//!   `exact`, both at one worker ([`Engine::Ads`]);
//! * [`sync`] — the concurrency substrate (shared top-k BSF, Fetch&Inc
//!   claims, the worker pool).
//!
//! The facade itself is small: [`engine`] holds the one index type
//! ([`engine::Index`], of which [`MemoryIndex`] and [`DiskIndex`] are the
//! two instantiations: a flat tree, beside the source it answers from) and
//! the one dispatch from a [`QuerySpec`] and the [`Engine`] onto those
//! entry points; [`shard`] scatters the same dispatch over slices of
//! a collection. Use the facade types for application code and the engine
//! crates directly for experiments that need full control (the
//! `dsidx-bench` harness does the latter).

pub mod answers;
pub mod engine;
pub mod error;
pub mod options;
pub mod prelude;
pub mod search;
pub mod shard;
mod snapshot;
pub mod spec;

pub use answers::Answers;
pub use engine::{DiskIndex, Engine, MemoryIndex};
pub use error::{Error, InvalidOptions, InvalidSpec};
pub use options::Options;
pub use search::Search;
pub use shard::ShardedIndex;
pub use spec::{Fidelity, Measure, QuerySpec};

pub use dsidx_isax as isax;
pub use dsidx_messi as messi;
pub use dsidx_obs as obs;
pub use dsidx_paris as paris;
pub use dsidx_query as query;
pub use dsidx_series as series;
pub use dsidx_storage as storage;
pub use dsidx_sync as sync;
pub use dsidx_tree as tree;
pub use dsidx_ucr as ucr;

pub use dsidx_obs::BuildReport;
pub use dsidx_query::{BatchStats, QueryStats};
