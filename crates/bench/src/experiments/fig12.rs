//! Fig. 12 — in-memory exact query answering across datasets: UCR Suite-p
//! vs (in-memory) ParIS vs MESSI.
//!
//! Besides wall time, this table reports the *computation counters* behind
//! the paper's explanation of MESSI's win: "MESSI applies pruning when
//! performing the lower bound distance calculations ... as a side effect,
//! MESSI also performs less real distance calculations" (§IV). At
//! miniature scale, fixed per-query costs (thread wake-ups, queue
//! machinery) compress the wall-clock gap between the two indexes — the
//! lb counters show the asymptotic behaviour directly. The
//! `real_computed` column shows that gap *closed*: this workspace's ParIS
//! seeds from its leaf's best-bound entries and verifies each query's
//! best-bound candidates first (see `dsidx_paris::query`), and MESSI
//! visits every leaf, its seed leaf included, best bound first, so both
//! pay full distances for a handful of series where the paper's
//! position-order engines paid for a whole approximate leaf; what MESSI
//! keeps is the `lb_computed` advantage of pruning whole subtrees.
//!
//! UCR Suite-p's row is the scan's own work, averaged like the others:
//! under Euclidean distance it computes no lower bound and completes
//! about a dozen distances per query, abandoning every other one early.

use crate::{core_ladder, f, mem_dataset, ms, queries, time_queries, Scale, Table};
use dsidx::messi::MessiConfig;
use dsidx::obs::phase::Phase;
use dsidx::paris::ParisConfig;
use dsidx::prelude::*;

/// Runs this experiment at the given scale, printing its table and CSV.
pub fn run(scale: &Scale) {
    let cores = *core_ladder(&[24]).last().expect("non-empty");
    dsidx::sync::pool::global(cores).broadcast(&|_| {});
    let mut table = Table::new(
        "fig12",
        &[
            "dataset",
            "engine",
            "avg_query_ms",
            "lb_computed",
            "real_computed",
            "seed_ms",
            "search_ms",
        ],
    );
    for kind in DatasetKind::ALL {
        let data = mem_dataset(kind, scale);
        let len = data.series_len();
        let tree = Options::default().tree_config(len).expect("valid config");
        let qs = queries(kind, scale.mem_queries, len);

        let (paris, _) =
            dsidx::paris::build_in_memory(&data, &ParisConfig::new(tree.clone(), cores));
        let (messi, _) = dsidx::messi::build(&data, &MessiConfig::new(tree.clone(), cores));

        // Warm up all engines once (pool wake + caches).
        let w = qs.get(0);
        let ucr_nn = |q: &[f32]| dsidx::ucr::scan(&data, &[q], Measure::Euclidean, 1, cores, None);
        let _ = ucr_nn(w);
        let paris_nn = |q: &[f32]| dsidx::paris::exact(&paris, None, &data, &[q], 1, cores, None);
        let messi_nn = |q: &[f32]| {
            dsidx::messi::exact(&messi, &data, &[q], Measure::Euclidean, 1, cores, None)
        };
        let _ = paris_nn(w).expect("warm");
        let _ = messi_nn(w);

        let ucr = time_queries(&qs, |q| {
            let _ = ucr_nn(q);
        });
        let paris_t = time_queries(&qs, |q| {
            let _ = paris_nn(q).expect("query");
        });
        let messi_t = time_queries(&qs, |q| {
            let _ = messi_nn(q);
        });

        // Work counters, averaged over the workload — the scan and both
        // engines report through the unified `QueryStats`, so aggregation
        // is uniform.
        let mut ucr_stats = dsidx::query::QueryStats::default();
        let mut paris_stats = dsidx::query::QueryStats::default();
        let mut messi_stats = dsidx::query::QueryStats::default();
        for q in qs.iter() {
            let (_, us) = ucr_nn(q).expect("in-memory scan");
            ucr_stats = ucr_stats.merged(&us.into_single());
            let (_, ps) = paris_nn(q).expect("query");
            paris_stats = paris_stats.merged(&ps.into_single());
            let (_, ms_) = messi_nn(q).expect("in-memory query");
            messi_stats = messi_stats.merged(&ms_.into_single());
        }
        let nq = qs.len() as u64;
        // Average per-query phase times: the seeding pass vs everything
        // after it (collect+verify for ParIS, traversal for MESSI).
        #[allow(clippy::cast_precision_loss)] // display-only averages
        let phase_cols = |st: &dsidx::query::QueryStats| {
            let seed = st.phase.nanos(Phase::Seed);
            let rest = st.phase.total_nanos() - seed - st.phase.nanos(Phase::Prepare);
            [
                f(seed as f64 / nq as f64 / 1e6),
                f(rest as f64 / nq as f64 / 1e6),
            ]
        };
        let [p_seed, p_search] = phase_cols(&paris_stats);
        let [m_seed, m_search] = phase_cols(&messi_stats);
        table.row(&[
            kind.name().into(),
            "UCR Suite-p".into(),
            f(ms(ucr)),
            (ucr_stats.lb_total() / nq).to_string(),
            (ucr_stats.real_computed / nq).to_string(),
            "-".into(),
            "-".into(),
        ]);
        table.row(&[
            kind.name().into(),
            "ParIS".into(),
            f(ms(paris_t)),
            (paris_stats.lb_total() / nq).to_string(),
            (paris_stats.real_computed / nq).to_string(),
            p_seed,
            p_search,
        ]);
        table.row(&[
            kind.name().into(),
            "MESSI".into(),
            f(ms(messi_t)),
            (messi_stats.lb_total() / nq).to_string(),
            (messi_stats.real_computed / nq).to_string(),
            m_seed,
            m_search,
        ]);
    }
    table.finish();
    println!(
        "shape check: UCR Suite-p bounds nothing under ED and completes about a dozen\n\
         distances per query; MESSI's lb_computed column is a fraction of ParIS's where the\n\
         tree prunes (the paper's stated mechanism); real_computed is a handful per query for\n\
         both indexes and neither stays above the other on every dataset (bound-ranked ParIS\n\
         seeds, best-bound-first leaf visits in MESSI, its seed included)."
    );
}
