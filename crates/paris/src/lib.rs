//! ParIS and ParIS+: the paper's parallel on-disk data series indices.
//!
//! Both engines run the four-stage pipeline of Fig. 2:
//!
//! 1. a **Coordinator** thread reads raw series from disk into main-memory
//!    blocks;
//! 2. **IndexBulkLoading** workers summarize each series to its iSAX word,
//!    append it to the receiving buffer (RecBuf) of its root subtree, and
//!    record it in the SAX array;
//! 3. when a *generation* (the memory budget) has been read,
//!    **IndexConstruction** work drains each RecBuf into its subtree and
//!    materializes leaves to the leaf store;
//! 4. query answering: an approximate descent seeds the best-so-far, then
//!    workers prune over the SAX array with lower-bound distances and
//!    compute real distances for the surviving candidates in parallel.
//!
//! **ParIS** stops the Coordinator while stage 3 runs. **ParIS+** is the
//! same pipeline re-plumbed for full overlap: the bulk-loading workers
//! themselves grow the subtrees at generation boundaries while the
//! Coordinator already reads the next generation, and dedicated flusher
//! threads materialize leaves concurrently — "completely masking out CPU
//! cost" (§I). The visible difference is exactly what Fig. 4 plots, and
//! [`BuildReport`] captures it.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod build;
pub mod config;
pub mod query;
pub mod recbuf;
pub mod report;

pub use build::{build_in_memory, build_on_disk, ParisIndex};
pub use config::{Overlap, ParisConfig};
pub use dsidx_query::{BatchStats, QueryStats};
pub use query::{approx, exact};
pub use report::BuildReport;
