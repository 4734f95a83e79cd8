//! Deterministic dataset generators.
//!
//! The paper evaluates on three collections: *Synthetic* (random walk,
//! 100M × 256), *SALD* (electroencephalography, 200M × 128) and *Seismic*
//! (seismic activity, 100M × 256). The real SALD and Seismic collections are
//! not redistributable, so this module provides generators whose outputs
//! reproduce the property that drives the paper's cross-dataset figures:
//! **prunability** (random walk prunes best, EEG-like data worst, seismic
//! in between).
//!
//! Everything is seeded and reproducible: the RNG is an in-repo SplitMix64
//! (no dependence on `rand`'s cross-version stream stability).

pub mod rng;
mod sources;

pub use sources::{eeg_like, random_walk, seismic_like, sines, white_noise};

use crate::dataset::Dataset;

/// The three dataset families of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Random-walk series — the paper's "Synthetic" collection.
    Synthetic,
    /// EEG-like series — surrogate for the paper's "SALD" collection.
    Sald,
    /// Burst-over-noise series — surrogate for the paper's "Seismic" collection.
    Seismic,
}

impl DatasetKind {
    /// All three families, in the order the paper's figures list them.
    pub const ALL: [DatasetKind; 3] = [
        DatasetKind::Synthetic,
        DatasetKind::Sald,
        DatasetKind::Seismic,
    ];

    /// Human-readable name matching the paper's figure labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Synthetic => "Synthetic",
            DatasetKind::Sald => "SALD",
            DatasetKind::Seismic => "Seismic",
        }
    }

    /// Generates a z-normalized dataset of `count` series of length `len`.
    #[must_use]
    pub fn generate(self, count: usize, len: usize, seed: u64) -> Dataset {
        match self {
            DatasetKind::Synthetic => random_walk(count, len, seed),
            DatasetKind::Sald => eeg_like(count, len, seed),
            DatasetKind::Seismic => seismic_like(count, len, seed),
        }
    }

    /// Generates a query workload for a dataset of this family.
    ///
    /// Queries come from the same generative process but a disjoint seed
    /// stream, matching the paper's setup (queries drawn from the same
    /// distribution as the data).
    #[must_use]
    pub fn queries(self, count: usize, len: usize, seed: u64) -> Dataset {
        // Offset the seed stream so queries never collide with data series.
        self.generate(count, len, seed ^ 0xC0FF_EE00_5EED_517E)
    }
}

impl std::str::FromStr for DatasetKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "synthetic" | "rw" | "randomwalk" => Ok(DatasetKind::Synthetic),
            "sald" | "eeg" => Ok(DatasetKind::Sald),
            "seismic" => Ok(DatasetKind::Seismic),
            other => Err(format!("unknown dataset kind: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::znorm::is_znormalized;

    #[test]
    fn all_kinds_generate_znormalized_data() {
        for kind in DatasetKind::ALL {
            let ds = kind.generate(10, 64, 42);
            assert_eq!(ds.len(), 10);
            assert_eq!(ds.series_len(), 64);
            for s in ds.iter() {
                assert!(is_znormalized(s, 1e-2), "{} not z-normalized", kind.name());
                assert!(s.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for kind in DatasetKind::ALL {
            let a = kind.generate(5, 32, 7);
            let b = kind.generate(5, 32, 7);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatasetKind::Synthetic.generate(3, 32, 1);
        let b = DatasetKind::Synthetic.generate(3, 32, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn queries_differ_from_data() {
        let data = DatasetKind::Sald.generate(3, 32, 9);
        let queries = DatasetKind::Sald.queries(3, 32, 9);
        assert_ne!(data, queries);
    }

    #[test]
    fn kind_parses_from_str() {
        assert_eq!(
            "synthetic".parse::<DatasetKind>().unwrap(),
            DatasetKind::Synthetic
        );
        assert_eq!("EEG".parse::<DatasetKind>().unwrap(), DatasetKind::Sald);
        assert_eq!(
            "seismic".parse::<DatasetKind>().unwrap(),
            DatasetKind::Seismic
        );
        assert!("nope".parse::<DatasetKind>().is_err());
    }
}
