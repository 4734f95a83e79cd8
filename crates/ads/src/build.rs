//! Serial index construction: MESSI's build at one worker.
//!
//! ADS+ is the serial baseline whose tree MESSI builds in parallel, so it
//! builds through [`dsidx_messi::build()`] and
//! [`dsidx_messi::build_from_file`] with one worker: one summarization
//! pass into per-subtree buffers, then each subtree grown from its whole
//! buffer straight into the flat form (the buffered bulk load the
//! receiving-buffer design generalizes). The SAX array SIMS scans is the
//! tree's entry words in position order ([`FlatTree::sax_array`]), as for
//! an opened snapshot.

use dsidx_messi::{MessiConfig, MessiIndex};
use dsidx_obs::BuildReport;
use dsidx_storage::{DatasetFile, StorageError};
use dsidx_tree::{FlatTree, SaxArray, TreeConfig};

/// A built ADS+-style index: the flat tree (what the approximate descent
/// seeds from) plus the SAX array (what SIMS scans).
#[derive(Debug)]
pub struct AdsIndex {
    /// The iSAX tree, flattened once its bulk load ended.
    pub tree: FlatTree,
    /// The configuration the tree was built under (fitted to the
    /// collection).
    pub config: TreeConfig,
    /// Position-ordered iSAX words (scanned by SIMS at query time).
    pub sax: SaxArray,
}

impl From<MessiIndex> for AdsIndex {
    /// Adds the SAX array to a MESSI tree (built or opened).
    fn from(MessiIndex { tree, config }: MessiIndex) -> Self {
        Self {
            sax: tree.sax_array(),
            tree,
            config,
        }
    }
}

/// Builds serially from an in-memory dataset.
///
/// # Panics
/// Panics if the dataset's series length differs from the configuration's.
#[must_use]
pub fn build_from_dataset(
    data: &dsidx_series::Dataset,
    config: &TreeConfig,
) -> (AdsIndex, BuildReport) {
    let (messi, report) = dsidx_messi::build(data, &serial(config));
    (messi.into(), report)
}

/// Builds serially from an on-disk dataset file, reading sequential blocks
/// of `block_series` series (reads charged to the file's device).
///
/// # Errors
/// Propagates I/O failures.
///
/// # Panics
/// Panics on series-length mismatch or `block_series == 0`.
pub fn build_from_file(
    file: &DatasetFile,
    config: &TreeConfig,
    block_series: usize,
) -> Result<(AdsIndex, BuildReport), StorageError> {
    let (messi, report) = dsidx_messi::build_from_file(file, &serial(config), block_series)?;
    Ok((messi.into(), report))
}

/// MESSI's configuration at one worker.
fn serial(config: &TreeConfig) -> MessiConfig {
    MessiConfig::new(config.clone(), 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_series::gen::DatasetKind;
    use dsidx_storage::{write_dataset, Device};
    use dsidx_tree::snapshot::validate;
    use dsidx_tree::stats::index_stats;
    use std::sync::Arc;

    fn config() -> TreeConfig {
        TreeConfig::new(64, 8, 16).unwrap()
    }

    #[test]
    fn build_indexes_every_series() {
        let data = DatasetKind::Synthetic.generate(400, 64, 5);
        let (ads, report) = build_from_dataset(&data, &config());
        assert_eq!(ads.tree.entry_count(), 400);
        assert_eq!(ads.sax.len(), 400);
        validate(&ads.tree, &ads.config, 400).unwrap();
        assert_eq!(report.read, std::time::Duration::ZERO);
        // SAX array is position-aligned.
        let q = config();
        for (pos, series) in data.iter().enumerate() {
            assert_eq!(ads.sax.word(pos), &q.quantizer().word(series));
        }
    }

    #[test]
    fn file_build_matches_memory_build() {
        let dir = std::env::temp_dir().join(format!("dsidx-ads-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("build.dsidx");
        let data = DatasetKind::Sald.generate(300, 64, 9);
        write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
        let file = DatasetFile::open(&path, Arc::new(Device::unthrottled())).unwrap();
        let (mem, _) = build_from_dataset(&data, &config());
        let (disk, _) = build_from_file(&file, &config(), 77).unwrap();
        assert_eq!(mem.tree.entry_count(), disk.tree.entry_count());
        assert_eq!(mem.sax.words(), disk.sax.words());
        assert_eq!(
            index_stats(&mem.tree).leaf_count,
            index_stats(&disk.tree).leaf_count
        );
        validate(&disk.tree, &disk.config, 300).unwrap();
    }

    #[test]
    fn empty_dataset_builds_empty_index() {
        let data = dsidx_series::Dataset::new(64).unwrap();
        let (ads, _) = build_from_dataset(&data, &config());
        assert_eq!(ads.tree.entry_count(), 0);
        assert!(ads.sax.is_empty());
    }

    #[test]
    #[should_panic(expected = "series length mismatch")]
    fn wrong_series_length_panics() {
        let data = DatasetKind::Synthetic.generate(5, 32, 1);
        let _ = build_from_dataset(&data, &config());
    }
}
