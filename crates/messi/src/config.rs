//! MESSI configuration.

use dsidx_tree::TreeConfig;

/// Configuration for MESSI builds and queries.
#[derive(Debug, Clone)]
pub struct MessiConfig {
    /// Tree shape (series length, segments, leaf capacity).
    pub tree: TreeConfig,
    /// Worker thread count.
    pub threads: usize,
}

impl MessiConfig {
    /// A configuration with the paper's defaults.
    #[must_use]
    pub fn new(tree: TreeConfig, threads: usize) -> Self {
        Self { tree, threads }
    }

    pub(crate) fn validate(&self) {
        assert!(self.threads > 0, "thread count must be non-zero");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_defaults() {
        let tree = TreeConfig::new(64, 8, 10).unwrap();
        let cfg = MessiConfig::new(tree, 8);
        assert_eq!(cfg.threads, 8);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn zero_threads_rejected() {
        let tree = TreeConfig::new(64, 8, 10).unwrap();
        MessiConfig::new(tree, 0).validate();
    }
}
