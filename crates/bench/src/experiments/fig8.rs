//! Fig. 8 — ParIS+ exact query answering vs cores, on HDD and on SSD.
//!
//! Expected shape: both curves fall with more cores; the SSD curve sits
//! roughly an order of magnitude below the HDD curve (random reads for
//! non-pruned candidates dominate, and the modeled SSD seek is ~95x
//! cheaper).
//!
//! The index is built and saved once per profile; each core count opens
//! that snapshot, so every query reads its seed leaf back from the
//! snapshot on the profile's device, as a built index would.

use crate::{core_ladder, data_dir, disk_dataset, f, ms, time_queries, Scale, Table};
use dsidx::prelude::*;

/// Runs this experiment at the given scale, printing its table and CSV.
pub fn run(scale: &Scale) {
    let kind = DatasetKind::Synthetic;
    let len = scale.len_for(kind);
    let path = disk_dataset(kind, scale.disk_series, len);
    let options = Options {
        block_series: 1024.min(scale.disk_series),
        generation_series: (scale.disk_series / 4).max(1024),
        ..Options::default()
            .with_leaf_capacity(20)
            .with_threads(8.min(core_ladder(&[8])[0]))
    };
    let qs = crate::queries_planted(kind, scale.disk_queries, scale);

    let mut table = Table::new("fig8", &["device", "cores", "avg_query_ms"]);
    for profile in [DeviceProfile::HDD, DeviceProfile::SSD] {
        let snapshot = data_dir().join(format!("fig8-{}.snap", profile.name));
        DiskIndex::build(&path, &data_dir(), Engine::ParisPlus, &options, profile)
            .and_then(|index| index.save(&snapshot))
            .expect("paris build");
        for &cores in &core_ladder(&[2, 4, 6, 12, 24]) {
            dsidx::sync::pool::global(cores).broadcast(&|_| {});
            let opened = options.clone().with_threads(cores);
            let index = DiskIndex::open(&snapshot, &path, &opened, profile).expect("open snapshot");
            let avg = time_queries(&qs, |q| {
                let _ = index.search(&[q], &QuerySpec::nn()).expect("query");
            });
            table.row(&[profile.name.into(), cores.to_string(), f(ms(avg))]);
        }
    }
    table.finish();
    println!(
        "shape check: SSD rows sit far below HDD rows (the paper\x27s order-of-magnitude gap).\n         The modeled HDD serializes its single actuator, so HDD times stay flat\n         with cores; SSD benefits from parallel random reads."
    );
}
