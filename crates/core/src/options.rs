//! Tuning knobs shared by every engine.

use crate::error::{Error, InvalidOptions};
use dsidx_tree::TreeConfig;

/// Index/build/query options. `Default` reproduces the paper's settings at
/// laptop scale: 16 segments, leaf capacity 100, all cores.
#[derive(Debug, Clone)]
pub struct Options {
    /// iSAX segments (`w`); the paper fixes 16.
    pub segments: usize,
    /// Maximum leaf size before splitting.
    pub leaf_capacity: usize,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Series per sequential read block (on-disk engines).
    pub block_series: usize,
    /// Series per generation — the modeled memory budget (on-disk engines).
    pub generation_series: usize,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            segments: dsidx_isax::DEFAULT_SEGMENTS,
            leaf_capacity: 100,
            threads: 0,
            block_series: 1024,
            generation_series: 16 * 1024,
        }
    }
}

impl Options {
    /// Resolved thread count.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }

    /// Sets the thread count (builder style).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the leaf capacity (builder style).
    #[must_use]
    pub fn with_leaf_capacity(mut self, leaf_capacity: usize) -> Self {
        self.leaf_capacity = leaf_capacity;
        self
    }

    /// Sets the segment count (builder style).
    #[must_use]
    pub fn with_segments(mut self, segments: usize) -> Self {
        self.segments = segments;
        self
    }

    /// Builds the tree configuration for a given series length. Every
    /// engine configuration is built from this one, so it is where the
    /// options are validated, once, for every engine and residence.
    ///
    /// # Errors
    /// [`Error::InvalidOptions`] for a zero `leaf_capacity` or
    /// `block_series`; propagates configuration validation errors.
    pub fn tree_config(&self, series_len: usize) -> Result<TreeConfig, Error> {
        if self.leaf_capacity == 0 {
            return Err(InvalidOptions::ZeroLeafCapacity.into());
        }
        if self.block_series == 0 {
            return Err(InvalidOptions::ZeroBlockSeries.into());
        }
        Ok(TreeConfig::new(
            series_len,
            self.segments,
            self.leaf_capacity,
        )?)
    }

    pub(crate) fn paris_config(
        &self,
        series_len: usize,
    ) -> Result<dsidx_paris::ParisConfig, Error> {
        Ok(
            dsidx_paris::ParisConfig::new(self.tree_config(series_len)?, self.effective_threads())
                .with_block_series(self.block_series)
                .with_generation_series(self.generation_series.max(self.block_series)),
        )
    }

    pub(crate) fn messi_config(
        &self,
        series_len: usize,
        threads: usize,
    ) -> Result<dsidx_messi::MessiConfig, Error> {
        Ok(dsidx_messi::MessiConfig::new(
            self.tree_config(series_len)?,
            threads,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_papers() {
        let o = Options::default();
        assert_eq!(o.segments, 16);
        assert!(o.effective_threads() >= 1);
    }

    #[test]
    fn builders_apply() {
        let o = Options::default()
            .with_threads(3)
            .with_leaf_capacity(7)
            .with_segments(8);
        assert_eq!(o.effective_threads(), 3);
        assert_eq!(o.leaf_capacity, 7);
        let tc = o.tree_config(64).unwrap();
        assert_eq!(tc.segments(), 8);
        assert_eq!(tc.leaf_capacity(), 7);
    }

    #[test]
    fn invalid_config_errors() {
        let o = Options::default().with_segments(99);
        assert!(o.tree_config(256).is_err());
        let o = Options::default();
        assert!(o.tree_config(4).is_err(), "series shorter than segments");
        let o = Options::default().with_leaf_capacity(0);
        assert!(matches!(
            o.tree_config(64),
            Err(Error::InvalidOptions(InvalidOptions::ZeroLeafCapacity))
        ));
        let o = Options {
            block_series: 0,
            ..Options::default()
        };
        assert!(matches!(
            o.tree_config(64),
            Err(Error::InvalidOptions(InvalidOptions::ZeroBlockSeries))
        ));
    }
}
