//! Convenience re-exports for application code.

pub use crate::answers::Answers;
pub use crate::engine::{DiskIndex, Engine, MemoryIndex};
pub use crate::error::{Error, InvalidOptions, InvalidSpec};
pub use crate::options::Options;
pub use crate::search::Search;
pub use crate::shard::ShardedIndex;
pub use crate::spec::{Fidelity, Measure, QuerySpec};
pub use dsidx_query::{BatchStats, QueryStats};
pub use dsidx_series::gen::DatasetKind;
pub use dsidx_series::{Dataset, Match};
pub use dsidx_storage::{Device, DeviceProfile};
