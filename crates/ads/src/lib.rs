//! The ADS+-style serial baseline.
//!
//! ADS+ is "the current state-of-the-art index" the paper measures ParIS,
//! ParIS+ and MESSI against (§IV). This crate implements its serial
//! behaviour over the shared tree structure: the tree is MESSI's, built
//! at one worker (see [`build`]), and queries are answered SIMS-style
//! (approximate descent for an initial best-so-far, then a serial scan of
//! the SAX array with lower-bound pruning and early-abandoned real
//! distances).
//!
//! One deliberate substitution: real ADS+ is *adaptive* (leaves are
//! materialized lazily, during queries). We build the full index up
//! front, which upper-bounds ADS+ build time and matches its steady-state
//! query path — the comparisons the paper's figures make (build-time
//! ratios, exact-query latency) keep their direction.

pub mod build;
pub mod query;

pub use build::{build_from_dataset, build_from_file, AdsIndex};
pub use dsidx_query::{BatchStats, QueryStats};
pub use query::exact;
