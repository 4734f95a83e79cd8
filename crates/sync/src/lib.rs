//! Concurrency substrate for the parallel engines.
//!
//! The paper's algorithms rest on two tiny synchronization devices, both
//! implemented (and stress-tested) here:
//!
//! * the shared BSF ("best-so-far"), updated by every worker that finds a
//!   closer candidate. [`SharedTopK`] generalizes it to exact k-NN: the
//!   [`Pruner`] trait abstracts "threshold read + candidate insert", so the
//!   query kernels answer 1-NN (k = 1) and k-NN with the same code;
//! * [`WorkQueue`] — Fetch&Inc work claiming: "chunks are assigned to index
//!   workers one after the other (using Fetch&Inc)" (§III).
//!
//! The engines' workers are the persistent threads of a [`WorkerPool`],
//! one task per broadcast.
//!
//! There is no barrier here: no schedule stops every worker between two
//! phases. A MESSI worker hands its traversal to its peers by publishing
//! a sorted run they drain without waiting for the rest, and ParIS's
//! phases are separate broadcasts.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod metrics;
pub mod pool;
pub mod queue;
pub mod topk;

pub use pool::WorkerPool;
pub use queue::WorkQueue;
pub use topk::{OffsetTopK, Pruner, SharedTopK};
