//! MESSI configuration.

use dsidx_tree::TreeConfig;

/// How summarization workers store iSAX summaries before tree construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferMode {
    /// Each worker appends to its own part of every subtree's buffer — no
    /// synchronization (MESSI's design).
    PerThreadParts,
    /// One locked buffer per subtree shared by all workers — the
    /// alternative the paper measured and rejected (footnote 2); kept for
    /// the `abl-buffers` ablation.
    LockedShared,
}

/// Configuration for MESSI builds and queries.
#[derive(Debug, Clone)]
pub struct MessiConfig {
    /// Tree shape (series length, segments, leaf capacity).
    pub tree: TreeConfig,
    /// Worker thread count.
    pub threads: usize,
    /// Series per Fetch&Inc chunk during summarization.
    pub chunk_series: usize,
    /// Buffer layout during construction.
    pub buffer_mode: BufferMode,
}

impl MessiConfig {
    /// A configuration with the paper's defaults.
    #[must_use]
    pub fn new(tree: TreeConfig, threads: usize) -> Self {
        Self {
            tree,
            threads,
            chunk_series: 1024,
            buffer_mode: BufferMode::PerThreadParts,
        }
    }

    /// Sets the summarization chunk size.
    #[must_use]
    pub fn with_chunk_series(mut self, chunk_series: usize) -> Self {
        assert!(chunk_series > 0, "chunk size must be non-zero");
        self.chunk_series = chunk_series;
        self
    }

    /// Sets the buffer layout.
    #[must_use]
    pub fn with_buffer_mode(mut self, buffer_mode: BufferMode) -> Self {
        self.buffer_mode = buffer_mode;
        self
    }

    pub(crate) fn validate(&self) {
        assert!(self.threads > 0, "thread count must be non-zero");
        assert!(self.chunk_series > 0, "chunk size must be non-zero");
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
        assert_eq!(cfg.buffer_mode, BufferMode::PerThreadParts);
        let cfg = cfg
            .with_chunk_series(64)
            .with_buffer_mode(BufferMode::LockedShared);
        assert_eq!(cfg.chunk_series, 64);
        assert_eq!(cfg.buffer_mode, BufferMode::LockedShared);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn zero_threads_rejected() {
        let tree = TreeConfig::new(64, 8, 10).unwrap();
        MessiConfig::new(tree, 0).validate();
    }
}
