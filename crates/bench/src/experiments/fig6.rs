//! Fig. 6 — on-disk index creation time across datasets: ADS+ vs ParIS vs
//! ParIS+ (all at full cores, HDD profile).
//!
//! Expected shape: ParIS+ fastest on every dataset (the paper reports
//! 2.3x-3.2x over ADS+), ParIS between the two. The run prints on how many
//! datasets it sees that ordering; ADS+ builds as MESSI does at one worker.

use crate::{core_ladder, disk_dataset, f, ms, print_ordering, Scale, Table};
use dsidx::messi::{build_from_file, MessiConfig};
use dsidx::paris::{build_on_disk, Overlap, ParisConfig};
use dsidx::prelude::*;
use dsidx::storage::DatasetFile;
use std::sync::Arc;

/// Runs this experiment at the given scale, printing its table and CSV.
pub fn run(scale: &Scale) {
    let cores = *core_ladder(&[24]).last().expect("non-empty ladder");
    let mut table = Table::new("fig6", &["dataset", "engine", "cores", "total_ms"]);
    let mut held = 0;
    for kind in DatasetKind::ALL {
        let len = scale.len_for(kind);
        let path = disk_dataset(kind, scale.disk_series, len);
        let tree = Options::default()
            .with_leaf_capacity(20)
            .tree_config(len)
            .expect("valid config");
        let generation = (scale.disk_series / 8).max(1024);

        // ADS+: MESSI's build at one worker.
        let device = Arc::new(Device::new(DeviceProfile::HDD));
        let file = DatasetFile::open(&path, device).expect("open dataset");
        let serial = MessiConfig::new(tree.clone(), 1);
        let (_, rep) = build_from_file(&file, &serial, 1024).expect("ads build");
        let mut totals = vec![rep.total];
        table.row(&[
            kind.name().into(),
            "ADS+".into(),
            "1".into(),
            f(ms(rep.total)),
        ]);

        for mode in [Overlap::Paris, Overlap::ParisPlus] {
            let device = Arc::new(Device::new(DeviceProfile::HDD));
            let file = DatasetFile::open(&path, device).expect("open dataset");
            let cfg = ParisConfig::new(tree.clone(), cores)
                .with_block_series(1024.min(scale.disk_series))
                .with_generation_series(generation);
            let store =
                crate::data_dir().join(format!("fig6-{}-{}.leaf", kind.name(), mode.name()));
            let (_, rep) = build_on_disk(&file, &store, &cfg, mode).expect("paris build");
            totals.push(rep.total);
            table.row(&[
                kind.name().into(),
                mode.name().into(),
                cores.to_string(),
                f(ms(rep.total)),
            ]);
        }
        // totals: ADS+, ParIS, ParIS+.
        held += usize::from(totals[2] < totals[1] && totals[1] < totals[0]);
    }
    table.finish();
    print_ordering(
        "ParIS+ < ParIS < ADS+",
        "total_ms",
        held,
        DatasetKind::ALL.len(),
    );
}
