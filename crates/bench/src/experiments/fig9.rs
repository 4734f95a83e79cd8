//! Fig. 9 — in-memory exact query answering vs cores: parallel UCR Suite
//! vs (in-memory) ParIS vs MESSI.
//!
//! Expected shape: MESSI below ParIS below UCR Suite-p at every core
//! count, all three improving with cores (log-scale y-axis in the paper).

use crate::{core_ladder, f, mem_dataset, ms, queries, time_queries, Scale, Table};
use dsidx::messi::MessiConfig;
use dsidx::paris::ParisConfig;
use dsidx::prelude::*;

/// Runs this experiment at the given scale, printing its table and CSV.
pub fn run(scale: &Scale) {
    let kind = DatasetKind::Synthetic;
    let data = mem_dataset(kind, scale);
    let len = data.series_len();
    let tree = Options::default().tree_config(len).expect("valid config");
    let qs = queries(kind, scale.mem_queries, len);

    let build_cores = *core_ladder(&[24]).last().expect("non-empty");
    let (paris, _) =
        dsidx::paris::build_in_memory(&data, &ParisConfig::new(tree.clone(), build_cores));
    let (messi, _) = dsidx::messi::build(&data, &MessiConfig::new(tree.clone(), build_cores));

    let mut table = Table::new("fig9", &["cores", "ucr_p_ms", "paris_ms", "messi_ms"]);
    for &cores in &core_ladder(&[2, 4, 6, 8, 12, 18, 24]) {
        dsidx::sync::pool::global(cores).broadcast(&|_| {});
        let ucr = time_queries(&qs, |q| {
            let _ = dsidx::ucr::scan(&data, &[q], Measure::Euclidean, 1, cores, None);
        });
        let paris_t = time_queries(&qs, |q| {
            let _ = dsidx::paris::exact(&paris, None, &data, &[q], 1, cores, None).expect("query");
        });
        let messi_t = time_queries(&qs, |q| {
            let _ = dsidx::messi::exact(&messi, &data, &[q], Measure::Euclidean, 1, cores, None);
        });
        table.row(&[
            cores.to_string(),
            f(ms(ucr)),
            f(ms(paris_t)),
            f(ms(messi_t)),
        ]);
    }
    table.finish();
    println!("shape check: per row, messi_ms < paris_ms < ucr_p_ms.");
}
