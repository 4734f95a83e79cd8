//! Storage substrate: the raw dataset file format, positioned and block
//! readers, the leaf store ParIS flushes subtree leaves into, the reader of
//! a flat tree's entry runs inside a snapshot ([`EntryRuns`]), the snapshot
//! container, and the *device model* that stands in for the paper's HDD
//! and SSD testbeds.
//!
//! # The device model
//!
//! The paper's on-disk results (Figs. 4, 8, 10, 11) hinge on device
//! characteristics: ParIS/ParIS+ exist to overlap CPU work with disk I/O,
//! and the HDD→SSD switch shifts query answering by an order of magnitude.
//! Re-running on arbitrary hardware (often with the dataset in page cache)
//! would erase exactly those effects, so all file I/O in this workspace is
//! charged to a [`device::Device`] with a configurable
//! [`device::DeviceProfile`]: a seek latency, read/write bandwidths, and
//! whether concurrent I/O serializes (HDD) or proceeds in parallel (SSD).
//! `DeviceProfile::UNTHROTTLED` turns the model off.

pub mod device;
pub mod error;
pub mod format;
pub mod leafstore;
pub mod metrics;
pub mod raw;
pub mod snapshot;

pub use device::{Device, DeviceProfile};
pub use error::StorageError;
pub use format::{
    decode_f32s, read_dataset, write_dataset, ChargedBlock, DatasetFile, DatasetWriter,
};
pub use leafstore::{EntryRuns, LeafStoreWriter};
pub use raw::{FlakySource, RawSource};
pub use snapshot::{SnapshotFingerprint, SnapshotReader, SnapshotWriter};

/// A name no other call in this process is given: `"<pid>-<seq>"`, the
/// process id and a sequence number. Scratch files that concurrent saves,
/// builds or sharded builds create side by side in one directory are named
/// from it.
#[must_use]
pub fn unique_stem() -> String {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    // ORDERING: relaxed — the counter only mints unique names; nothing is
    // published through it.
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    format!("{}-{seq}", std::process::id())
}
