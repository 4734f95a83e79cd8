//! Serial buffered index construction.

use dsidx_isax::Word;
use dsidx_storage::{DatasetFile, StorageError};
use dsidx_tree::{FlatTree, Index, LeafEntry, SaxArray, TreeConfig};
use std::time::{Duration, Instant};

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

/// Wall-clock breakdown of a serial build (Fig. 4's ADS+ bar).
#[derive(Debug, Clone, Copy, Default)]
pub struct AdsBuildReport {
    /// Time spent reading raw data.
    pub read: Duration,
    /// Time spent summarizing and growing the tree.
    pub cpu: Duration,
    /// Total wall time.
    pub total: Duration,
}

/// Builds serially from an in-memory dataset.
///
/// # Panics
/// Panics if the dataset's series length differs from the configuration's.
#[must_use]
pub fn build_from_dataset(
    data: &dsidx_series::Dataset,
    config: &TreeConfig,
) -> (AdsIndex, AdsBuildReport) {
    assert_eq!(
        data.series_len(),
        config.series_len(),
        "series length mismatch"
    );
    let t0 = Instant::now();
    let quantizer = config.quantizer();
    let mut paa = vec![0.0f32; config.segments()];
    let mut words: Vec<Word> = Vec::with_capacity(data.len());
    for series in data.iter() {
        words.push(quantizer.word_into(series, &mut paa));
    }
    let ads = bulk_load(words, config);
    let report = AdsBuildReport {
        read: Duration::ZERO,
        cpu: t0.elapsed(),
        total: t0.elapsed(),
    };
    (ads, report)
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
) -> Result<(AdsIndex, AdsBuildReport), StorageError> {
    assert_eq!(
        file.series_len(),
        config.series_len(),
        "series length mismatch"
    );
    assert!(block_series > 0, "block size must be non-zero");
    let t0 = Instant::now();
    let mut read = Duration::ZERO;
    let mut cpu = Duration::ZERO;
    let quantizer = config.quantizer();
    let series_len = config.series_len();
    let mut paa = vec![0.0f32; config.segments()];
    let mut words: Vec<Word> = Vec::with_capacity(file.count());
    let mut block = Vec::new();
    let mut start = 0;
    while start < file.count() {
        let count = block_series.min(file.count() - start);
        let tr = Instant::now();
        file.read_block(start, count, &mut block)?;
        read += tr.elapsed();
        let tc = Instant::now();
        for series in block.chunks_exact(series_len) {
            words.push(quantizer.word_into(series, &mut paa));
        }
        cpu += tc.elapsed();
        start += count;
    }
    let tc = Instant::now();
    let ads = bulk_load(words, config);
    cpu += tc.elapsed();
    let report = AdsBuildReport {
        read,
        cpu,
        total: t0.elapsed(),
    };
    Ok((ads, report))
}

/// ADS+-style buffered bulk load: group entries per root subtree first,
/// then build each subtree in one pass (better locality than interleaved
/// inserts — this is what the receiving-buffer design generalizes), and
/// flatten the result. The root fan-out is fitted to the number of words,
/// whatever `config` carried (see [`TreeConfig::fitted_to`]).
fn bulk_load(words: Vec<Word>, config: &TreeConfig) -> AdsIndex {
    let config = config.fitted_to(words.len());
    let mut buffers: Vec<Vec<LeafEntry>> = Vec::new();
    buffers.resize_with(config.root_count(), Vec::new);
    for (pos, word) in words.iter().enumerate() {
        buffers[usize::from(config.root_key(word))].push(LeafEntry::new(*word, pos as u32));
    }
    let mut index = Index::new(config.clone());
    for buffer in buffers {
        for entry in buffer {
            index.insert(entry);
        }
    }
    AdsIndex {
        tree: FlatTree::from_index(&index),
        config,
        sax: SaxArray::new(words),
    }
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
        assert!(report.total >= report.cpu);
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
        let (disk, report) = build_from_file(&file, &config(), 77).unwrap();
        assert_eq!(mem.tree.entry_count(), disk.tree.entry_count());
        assert_eq!(mem.sax.words(), disk.sax.words());
        assert_eq!(
            index_stats(&mem.tree).leaf_count,
            index_stats(&disk.tree).leaf_count
        );
        assert!(report.read > Duration::ZERO || report.total >= report.cpu);
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
