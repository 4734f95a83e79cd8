//! Data series primitives for the `dsidx` workspace.
//!
//! A *data series* is a fixed-length ordered sequence of real values
//! (`&[f32]`). This crate provides the substrate every other `dsidx` crate
//! builds on:
//!
//! * [`Dataset`] — a flat, cache-friendly collection of equal-length series,
//! * [`znorm`] — z-normalization (the similarity-search convention),
//! * [`distance`] — Euclidean distance kernels (scalar and runtime-detected
//!   AVX2/FMA), early-abandoning variants, and banded DTW with LB_Keogh,
//! * [`gen`] — deterministic dataset generators standing in for the paper's
//!   Synthetic (random walk), SALD (EEG) and Seismic collections,
//! * [`load`] — the standard raw binary f32 dataset format (headerless
//!   little-endian records), for ingesting the real collections.
//!
//! All distances in hot paths are *squared* Euclidean distances; take a
//! square root only at API boundaries.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod dataset;
pub mod distance;
pub mod error;
pub mod gen;
pub mod load;
pub mod nn;
pub mod prefetch;
pub mod znorm;

pub use dataset::Dataset;
pub use error::SeriesError;
pub use load::{load_raw_f32, load_raw_f32_range, raw_f32_record_count, write_raw_f32};
pub use nn::Match;
