//! Build configuration for ParIS/ParIS+.

use dsidx_tree::TreeConfig;

/// Which pipeline variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overlap {
    /// ParIS: index construction (stage 3) stops the coordinator.
    Paris,
    /// ParIS+: construction and leaf flushing overlap with reading.
    ParisPlus,
}

impl Overlap {
    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Overlap::Paris => "ParIS",
            Overlap::ParisPlus => "ParIS+",
        }
    }
}

/// Configuration for a ParIS/ParIS+ build.
#[derive(Debug, Clone)]
pub struct ParisConfig {
    /// Tree shape (series length, segments, leaf capacity).
    pub tree: TreeConfig,
    /// Worker thread count (the coordinator is one extra thread, but it is
    /// I/O-bound; the paper's "number of cores" sweeps map to this value).
    pub threads: usize,
    /// Series per sequential read block (stage 1 granularity).
    pub block_series: usize,
    /// Series per generation — the modeled "available main memory" that
    /// triggers stage 3 when full.
    pub generation_series: usize,
}

impl ParisConfig {
    /// A configuration with sensible laptop-scale defaults.
    #[must_use]
    pub fn new(tree: TreeConfig, threads: usize) -> Self {
        Self {
            tree,
            threads,
            block_series: 1024,
            generation_series: 16 * 1024,
        }
    }

    /// Sets the read block size.
    #[must_use]
    pub fn with_block_series(mut self, block_series: usize) -> Self {
        assert!(block_series > 0, "block size must be non-zero");
        self.block_series = block_series;
        self
    }

    /// Sets the generation (memory budget) size.
    #[must_use]
    pub fn with_generation_series(mut self, generation_series: usize) -> Self {
        assert!(generation_series > 0, "generation size must be non-zero");
        self.generation_series = generation_series;
        self
    }

    pub(crate) fn validate(&self) {
        assert!(self.threads > 0, "thread count must be non-zero");
        assert!(self.block_series > 0, "block size must be non-zero");
        assert!(
            self.generation_series >= self.block_series,
            "generation must hold at least one block"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods() {
        let tree = TreeConfig::new(64, 8, 10).unwrap();
        let cfg = ParisConfig::new(tree, 4)
            .with_block_series(128)
            .with_generation_series(512);
        assert_eq!(cfg.block_series, 128);
        assert_eq!(cfg.generation_series, 512);
        cfg.validate();
    }

    #[test]
    fn names() {
        assert_eq!(Overlap::Paris.name(), "ParIS");
        assert_eq!(Overlap::ParisPlus.name(), "ParIS+");
    }

    #[test]
    #[should_panic(expected = "generation must hold")]
    fn generation_smaller_than_block_panics() {
        let tree = TreeConfig::new(64, 8, 10).unwrap();
        let cfg = ParisConfig::new(tree, 4)
            .with_block_series(1024)
            .with_generation_series(1023);
        let _ = cfg.generation_series; // silence unused warnings pre-panic
        cfg.validate();
    }
}
