//! The iSAX tree index structure shared by ADS+, ParIS, ParIS+ and MESSI.
//!
//! The structure follows §II of the paper, with the root fan-out fitted to
//! the collection (see [`config`]):
//!
//! * the **root** fans out to up to `2^r` subtrees, one per combination of
//!   the first bit of each of `r <= w` evenly spread segments (the *root key*;
//!   the paper fixes `r = w`, which suits its 100 M-series collections and
//!   starves the leaves of anything smaller);
//! * **inner nodes** carry a variable-cardinality [`NodeWord`] and exactly
//!   two children, distinguished by one extra bit on one segment;
//! * **leaf nodes** hold `(iSAX word, raw-series position)` entries up to a
//!   capacity; an overflowing leaf splits on the segment that yields the
//!   most balanced partition of its contents.
//!
//! The engines differ only in *how* they fill this structure (serially,
//! via receiving buffers, via per-thread buffer parts) and *how* they walk
//! it at query time — which is the paper's point, and why they share this
//! crate.
//!
//! After construction a tree is one [`FlatTree`] — dense node, word and
//! position arrays that every engine queries, a snapshot ([`snapshot`])
//! persists as they are and an open reads straight back — assembled from
//! [`FlatFragment`]s of root subtrees. A builder that holds all of a
//! subtree's entries in position order (MESSI, ADS+) grows the subtree
//! straight into its fragment by stable partition
//! ([`FlatFragment::grow`]). One whose entries arrive in generations with
//! leaf flushes in between (ParIS/ParIS+) grows a boxed [`Node`] graph
//! under an [`Index`] by inserts, then flattens it and drops it. Both ways
//! build the same tree from the same entries in the same order.
//!
//! A flat tree carries the [`TreeConfig`] it was built under, so it is the
//! whole index: MESSI traverses it, ParIS and ADS+ scan its entry runs
//! ([`FlatTree::words`], [`FlatTree::positions`]) — every series' word
//! once, beside its position, which is the paper's SAX array in leaf
//! order.

pub mod config;
pub mod entry;
pub mod flat;
pub mod index;
pub mod node;
pub mod snapshot;
pub mod stats;

pub use config::TreeConfig;
pub use entry::LeafEntry;
pub use flat::{FlatFragment, FlatNode, FlatTree};
pub use index::Index;
pub use node::{LeafPayload, Node};

pub use dsidx_isax::{NodeWord, Quantizer, Word};
