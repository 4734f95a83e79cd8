//! Fig. 8 — ParIS+ exact query answering vs cores, on HDD and on SSD.
//!
//! Expected shape: both curves fall with more cores; the SSD curve sits
//! roughly an order of magnitude below the HDD curve (random reads for
//! non-pruned candidates dominate, and the modeled SSD seek is ~95x
//! cheaper).

use crate::{core_ladder, disk_dataset, f, ms, time_queries, Scale, Table};
use dsidx::paris::{build_on_disk, exact, Overlap, ParisConfig};
use dsidx::prelude::*;
use dsidx::storage::DatasetFile;
use std::sync::Arc;

/// Runs this experiment at the given scale, printing its table and CSV.
pub fn run(scale: &Scale) {
    let kind = DatasetKind::Synthetic;
    let len = scale.len_for(kind);
    let path = disk_dataset(kind, scale.disk_series, len);
    let tree = Options::default()
        .with_leaf_capacity(20)
        .tree_config(len)
        .expect("valid config");
    let qs = crate::queries_planted(kind, scale.disk_queries, scale);

    let mut table = Table::new("fig8", &["device", "cores", "avg_query_ms"]);
    for profile in [DeviceProfile::HDD, DeviceProfile::SSD] {
        let device = Arc::new(Device::new(profile));
        let file = DatasetFile::open(&path, device).expect("open dataset");
        let cfg = ParisConfig::new(tree.clone(), 8.min(core_ladder(&[8])[0]))
            .with_block_series(1024.min(scale.disk_series))
            .with_generation_series((scale.disk_series / 4).max(1024));
        let store = crate::data_dir().join(format!("fig8-{}.leaf", profile.name));
        let (paris, leaves, _) =
            build_on_disk(&file, &store, &cfg, Overlap::ParisPlus).expect("paris build");
        for &cores in &core_ladder(&[2, 4, 6, 12, 24]) {
            dsidx::sync::pool::global(cores).broadcast(&|_| {});
            let avg = time_queries(&qs, |q| {
                let _ = exact(&paris, Some(&leaves), &file, &[q], 1, cores, None).expect("query");
            });
            table.row(&[profile.name.into(), cores.to_string(), f(ms(avg))]);
        }
    }
    table.finish();
    println!(
        "shape check: SSD rows sit far below HDD rows (the paper\x27s order-of-magnitude gap).\n         The modeled HDD serializes its single actuator, so HDD times stay flat\n         with cores; SSD benefits from parallel random reads."
    );
}
