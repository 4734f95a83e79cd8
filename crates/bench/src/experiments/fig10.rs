//! Fig. 10 — exact query answering on HDD across datasets: UCR Suite
//! (serial scan) vs ADS+ vs ParIS+.
//!
//! Expected shape: ParIS+ fastest on every dataset; ADS+ between; the
//! serial scan slowest (the paper reports ParIS+ up to an order of
//! magnitude over ADS+ and >2 orders over UCR Suite at 100 GB). The run
//! prints on how many datasets it sees that ordering: a small collection
//! scans faster than an index seeks.
//!
//! ADS+ answers with ParIS's exact scan at one worker (the SIMS scan ParIS
//! parallelizes) over MESSI's tree built at one worker.

use crate::{disk_dataset, f, ms, print_ordering, time_queries, Scale, Table};
use dsidx::messi::{build_from_file, MessiConfig};
use dsidx::paris::{build_on_disk, exact, Overlap, ParisConfig};
use dsidx::prelude::*;
use dsidx::storage::DatasetFile;
use std::sync::Arc;

/// Runs this experiment at the given scale, printing its table and CSV.
pub fn run(scale: &Scale) {
    run_profile(scale, DeviceProfile::HDD, "fig10");
}

pub(crate) fn run_profile(scale: &Scale, profile: DeviceProfile, table_name: &str) {
    let cores = *crate::core_ladder(&[24]).last().expect("non-empty");
    dsidx::sync::pool::global(cores).broadcast(&|_| {});
    let mut table = Table::new(
        table_name,
        &["dataset", "engine", "avg_query_ms", "vs_parisplus"],
    );
    let mut held = 0;
    for kind in DatasetKind::ALL {
        let len = scale.len_for(kind);
        let path = disk_dataset(kind, scale.disk_series, len);
        let tree = Options::default()
            .with_leaf_capacity(20)
            .tree_config(len)
            .expect("valid config");
        let qs = crate::queries_planted(kind, scale.disk_queries, scale);

        // UCR Suite: the scan at one worker, sequential over the file.
        let device = Arc::new(Device::new(profile));
        let file = DatasetFile::open(&path, device).expect("open dataset");
        let ucr = time_queries(&qs, |q| {
            let _ = dsidx::ucr::scan(&file, &[q], Measure::Euclidean, 1, 1, None).expect("scan");
        });

        // ADS+: ParIS's scan at one worker over MESSI's tree built at one
        // worker (index built unthrottled; Fig. 10 measures query
        // answering).
        let device = Arc::new(Device::new(profile));
        let file = DatasetFile::open(&path, device).expect("open dataset");
        let ads = {
            let unthrottled =
                DatasetFile::open(&path, Arc::new(Device::unthrottled())).expect("open");
            let serial = MessiConfig::new(tree.clone(), 1);
            build_from_file(&unthrottled, &serial, 4096)
                .expect("ads build")
                .0
        };
        let ads_t = time_queries(&qs, |q| {
            let _ = exact(&ads, None, &file, &[q], 1, 1, None).expect("query");
        });

        // ParIS+: parallel index query.
        let device = Arc::new(Device::new(profile));
        let file = DatasetFile::open(&path, device).expect("open dataset");
        let cfg = ParisConfig::new(tree.clone(), cores)
            .with_block_series(1024.min(scale.disk_series))
            .with_generation_series((scale.disk_series / 4).max(1024));
        let store = crate::data_dir().join(format!("{table_name}-{}.leaf", kind.name()));
        // Built unthrottled like ADS+'s: a leaf read back from the
        // build's files would not be charged to `profile`, so the query
        // seeds from the resident tree alone.
        let (paris, _) = {
            let unthrottled =
                DatasetFile::open(&path, Arc::new(Device::unthrottled())).expect("open");
            build_on_disk(&unthrottled, &store, &cfg, Overlap::ParisPlus).expect("build")
        };
        let paris_t = time_queries(&qs, |q| {
            let _ = exact(&paris, None, &file, &[q], 1, cores, None).expect("query");
        });

        let ratio = |d: std::time::Duration| d.as_secs_f64() / paris_t.as_secs_f64();
        table.row(&[
            kind.name().into(),
            "UCR Suite".into(),
            f(ms(ucr)),
            f(ratio(ucr)),
        ]);
        table.row(&[
            kind.name().into(),
            "ADS+".into(),
            f(ms(ads_t)),
            f(ratio(ads_t)),
        ]);
        table.row(&[
            kind.name().into(),
            "ParIS+".into(),
            f(ms(paris_t)),
            "1.00".into(),
        ]);
        held += usize::from(paris_t < ads_t && ads_t < ucr);
    }
    table.finish();
    print_ordering(
        "ParIS+ < ADS+ < UCR Suite",
        "avg_query_ms",
        held,
        DatasetKind::ALL.len(),
    );
}
