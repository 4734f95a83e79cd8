//! Fig. 5 — MESSI index creation time vs cores, split into its two phases
//! ("Calculate iSAX Representations" and "Tree Index Construction"), with
//! the serial stitch that ends the second reported on its own.
//!
//! Expected shape: total time drops ~linearly with the core count.

use crate::{core_ladder, f, mem_dataset, ms, Scale, Table};
use dsidx::messi::{build, MessiConfig};
use dsidx::prelude::*;

/// Runs this experiment at the given scale, printing its table and CSV.
pub fn run(scale: &Scale) {
    let kind = DatasetKind::Synthetic;
    let data = mem_dataset(kind, scale);
    let tree = Options::default()
        .tree_config(data.series_len())
        .expect("valid config");

    let mut table = Table::new(
        "fig5",
        &[
            "cores",
            "total_ms",
            "summarize_ms",
            "tree_ms",
            "stitch_ms",
            "speedup",
        ],
    );
    let mut base = None;
    for &cores in &core_ladder(&[1, 2, 4, 6, 12, 24]) {
        let cfg = MessiConfig::new(tree.clone(), cores);
        // Warm the pool so the first build is not charged thread spawns.
        dsidx::sync::pool::global(cores).broadcast(&|_| {});
        let (_, rep) = build(&data, &cfg);
        let total = ms(rep.total);
        let base_total = *base.get_or_insert(total);
        table.row(&[
            cores.to_string(),
            f(total),
            f(ms(rep.summarize)),
            // Stage 2 whole: the parallel growth and its serial stitch.
            f(ms(rep.grow + rep.stitch)),
            f(ms(rep.stitch)),
            f(base_total / total),
        ]);
    }
    table.finish();
    println!("shape check: total_ms should fall near-linearly with cores (speedup ~ cores).");
}
