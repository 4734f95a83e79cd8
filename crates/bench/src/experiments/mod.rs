//! One module per regenerated figure/ablation; [`ALL`] maps each
//! experiment id to the paper figure it regenerates.

pub mod coldstart;
pub mod ext_dtw;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod knn;
pub mod obs;
pub mod ondisk;
pub mod shards;
pub mod throughput;
pub mod work;

use crate::Scale;

/// One registry entry: `(id, paper figure, runner)`.
pub type Experiment = (&'static str, &'static str, fn(&Scale));

/// Experiment registry.
pub const ALL: &[Experiment] = &[
    (
        "fig4",
        "Fig. 4: ParIS/ParIS+ index creation vs cores (HDD), read/write/CPU breakdown",
        fig4::run,
    ),
    (
        "fig5",
        "Fig. 5: MESSI index creation vs cores, phase breakdown",
        fig5::run,
    ),
    (
        "fig6",
        "Fig. 6: on-disk index creation across datasets (ADS+/ParIS/ParIS+)",
        fig6::run,
    ),
    (
        "fig7",
        "Fig. 7: in-memory index creation across datasets (ParIS/MESSI)",
        fig7::run,
    ),
    (
        "fig8",
        "Fig. 8: ParIS+ query answering vs cores on HDD & SSD",
        fig8::run,
    ),
    (
        "fig9",
        "Fig. 9: in-memory query answering vs cores (UCR-p/ParIS/MESSI)",
        fig9::run,
    ),
    (
        "fig10",
        "Fig. 10: on-disk query answering per dataset, HDD (UCR/ADS+/ParIS+)",
        fig10::run,
    ),
    (
        "fig11",
        "Fig. 11: on-disk query answering per dataset, SSD (UCR/ADS+/ParIS+)",
        fig11::run,
    ),
    (
        "fig12",
        "Fig. 12: in-memory query answering per dataset (UCR-p/ParIS/MESSI)",
        fig12::run,
    ),
    (
        "ext-dtw",
        "§V extension: DTW query answering on the ED-built index",
        ext_dtw::run,
    ),
    (
        "knn",
        "Extension: exact k-NN sweep (k in {1,5,10,50,100}) per engine",
        knn::run,
    ),
    (
        "throughput",
        "Extension: batched query throughput (B in {1,t-1,t,t+1,2t,64}) per engine",
        throughput::run,
    ),
    (
        "ondisk",
        "Extension: the closed engine matrix on DiskIndex (broadcasts + device bytes)",
        ondisk::run,
    ),
    (
        "obs",
        "Extension: observability self-measurement (phase coverage, plane overhead, trace)",
        obs::run,
    ),
    (
        "coldstart",
        "Extension: build-from-raw vs snapshot open (wall time + device bytes, >=10x asserted)",
        coldstart::run,
    ),
    (
        "shards",
        "Extension: scatter-gather sharding sweep (N in {1,2,4,8}) with BSF sharing A/B",
        shards::run,
    ),
    (
        "work",
        "Ledger: exact per-query work at one worker (BENCH_work.json, diffed with --check)",
        work::run,
    ),
];

/// Looks up an experiment by id.
#[must_use]
pub fn find(id: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|(name, _, _)| *name == id)
}
