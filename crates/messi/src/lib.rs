//! MESSI: the paper's in-memory parallel data series index.
//!
//! MESSI differs from ParIS/ParIS+ in both phases (§III):
//!
//! * **Construction** — raw data lives in an in-memory array split into
//!   chunks claimed by Fetch&Inc; workers store iSAX summaries in *their
//!   own parts* of the per-subtree buffers ("to reduce synchronization
//!   cost, each iSAX buffer is split into parts and each worker works on
//!   its own part"), then build distinct subtrees in parallel with no
//!   synchronization. Per-worker parts are the only layout: the one
//!   locked buffer per subtree that the paper rejected in footnote 2 is
//!   not implemented.
//! * **Query answering** — tree-based, not scan-based: workers traverse
//!   subtrees pruning with node-level lower bounds against a shared BSF,
//!   collect surviving leaves best-bound-first, then repeatedly pop the
//!   most promising leaves; a popped bound above the BSF abandons
//!   everything queued behind it. This ordering is why MESSI computes far
//!   fewer real distances than ParIS — the effect Fig. 12 quantifies.
//!   The paper collects the leaves in locked minimum priority queues
//!   filled round-robin; since they are only ever filled, then drained,
//!   this reproduction uses per-worker sorted runs claimed by Fetch&Inc
//!   instead (see [`pqueue`]) — same order, no lock per leaf. A batch is
//!   answered by workers that claim whole queries and, once none is left,
//!   join the unfinished ones through the same root claims and run cursors
//!   ([`query`] has the schedule), whatever source holds the raw series.
//!
//! The paper positions MESSI as in-memory; this reproduction additionally
//! makes every query path generic over `dsidx_storage::RawSource` and adds
//! a streaming build path ([`build_from_file`]), so the same schedule
//! answers from an on-disk dataset file with candidate reads charged to the
//! modeled device — the storage blend the paper's successor systems
//! (Hercules, SING) explore. Raw-read failures mid-query surface as
//! `Err(StorageError)`, never a worker panic.

pub mod build;
pub mod config;
pub mod dtw;
pub mod pqueue;
pub mod query;
pub mod traverse;

pub use build::{build, build_from_file};
pub use config::MessiConfig;
pub use dsidx_query::{BatchStats, QueryStats};
pub use query::exact;
