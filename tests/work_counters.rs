//! The work every query path does, pinned call by call.
//!
//! At one worker every schedule is deterministic, so the counters a call
//! reports — lower bounds, candidates, leaves, cascade verdicts, real
//! distances, fetches — are a fixed function of the index and the
//! queries. This test runs each exact and approximate entry point of the
//! engine crates, and the UCR scan, over fixed Synthetic and SALD
//! collections, at k = 1 and k = 10, and compares what they report with
//! [`TABLE`]: every
//! [`QueryStats`] counter summed over the queries, the batch's
//! broadcasts, series fetched and series requested, a digest of the
//! per-query counters (so two queries trading work cannot hide), and a
//! digest of the answers' positions. (Distance bits stay out of it: the
//! Euclidean kernels decide alike with SIMD on and off but may round the
//! last bit differently; the answer tests pin the values per mode.)
//!
//! A change to a kernel loop that is meant to be a pure refactor must
//! leave this table as it is. Every kernel decides the same with SIMD on
//! and off (`tests/simd_snapshots.rs`), so the table also holds under
//! `DSIDX_NO_SIMD=1`.
//!
//! To regenerate after a deliberate change of work, run
//! `cargo test --test work_counters -- --nocapture` and copy the printed
//! rows.

use dsidx::messi::MessiConfig;
use dsidx::paris::ParisConfig;
use dsidx::prelude::*;
use dsidx::query::{approx_best_leaf, DtwPrepared, PreparedQuery};
use dsidx::storage::{write_dataset, DatasetFile, RawSource};
use dsidx::tree::{FlatTree, TreeConfig};
use std::fmt::Write as _;
use std::sync::Arc;

const SERIES: usize = 1500;
const LEN: usize = 128;
const QUERIES: usize = 5;
const BAND: usize = 6;
const SEED: u64 = 0x5eed_3400;

/// One call's row: the label, then `lb_computed`, `candidates`,
/// `nodes_pruned`, `leaves_enqueued`, `leaves_processed`,
/// `leaves_discarded`, `lb_entry_computed`, `lb_keogh_computed`,
/// `lb_keogh_pruned`, `lb_keogh_rev_pruned`, `dtw_abandoned`, `dtw_cells`,
/// `real_computed` (each summed over the batch's queries and its shared
/// counters), `broadcasts`, `series_fetched`, `series_requests`, the
/// per-query counter digest and the answer-position digest.
type Row = (&'static str, [u64; 18]);

#[rustfmt::skip]
const TABLE: &[Row] = &[
    ("synthetic/messi-resident/ed/k1", [0, 0, 130, 321, 295, 26, 4237, 0, 0, 0, 0, 0, 23, 1, 105, 105, 13916813575823942273, 10409978560314616613]),
    ("synthetic/best-leaf/ed/k1", [0, 0, 0, 0, 0, 0, 88, 0, 0, 0, 0, 0, 9, 0, 0, 0, 5760026750300538056, 11491680351945625473]),
    ("synthetic/paris-approx/ed/k1", [7500, 80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 19, 0, 0, 0, 7542202593339497711, 10409978560314616613]),
    ("synthetic/ucr-scan/ed/k1", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 46, 1, 1501, 7505, 10941667694762238725, 10409978560314616613]),
    ("synthetic/messi-resident/dtw/k1", [0, 0, 148, 294, 283, 11, 4067, 496, 347, 131, 131, 113855, 18, 1, 496, 496, 15053999489634281208, 5411154571359882617]),
    ("synthetic/best-leaf/dtw/k1", [0, 0, 0, 0, 0, 0, 88, 35, 14, 1, 13, 21588, 8, 0, 0, 0, 2844139972965321552, 3549676448302995044]),
    ("synthetic/paris-approx/dtw/k1", [7500, 80, 0, 0, 0, 0, 0, 80, 12, 10, 49, 79161, 19, 0, 0, 0, 753827474551625399, 5411154571359882617]),
    ("synthetic/ucr-scan/dtw/k1", [0, 0, 0, 0, 0, 0, 0, 7500, 7285, 144, 175, 184629, 45, 1, 1501, 7505, 72921222068202915, 5411154571359882617]),
    ("synthetic/paris-exact-memory/ed/k1", [7500, 249, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 21, 2, 138, 138, 3712617195496845460, 10409978560314616613]),
    ("synthetic/paris-exact-file/ed/k1", [7500, 249, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 21, 2, 138, 138, 3712617195496845460, 10409978560314616613]),
    ("synthetic/messi-resident/ed/k10", [0, 0, 29, 474, 349, 125, 4817, 0, 0, 0, 0, 0, 186, 1, 367, 367, 5540738873868254814, 15048725421936891803]),
    ("synthetic/best-leaf/ed/k10", [0, 0, 0, 0, 0, 0, 88, 0, 0, 0, 0, 0, 47, 0, 0, 0, 14157823544930231406, 14865141623892052239]),
    ("synthetic/paris-approx/ed/k10", [7500, 200, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 113, 0, 0, 0, 7563668283987659017, 15048725421936891803]),
    ("synthetic/ucr-scan/ed/k10", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 298, 1, 1501, 7505, 14333931563641753541, 15048725421936891803]),
    ("synthetic/messi-resident/dtw/k10", [0, 0, 23, 492, 341, 151, 4710, 884, 463, 168, 258, 433536, 163, 1, 884, 884, 2027000369239443334, 8734562397311197402]),
    ("synthetic/best-leaf/dtw/k10", [0, 0, 0, 0, 0, 0, 88, 72, 13, 3, 10, 87794, 49, 0, 0, 0, 2984701970224774167, 10861073893479150730]),
    ("synthetic/paris-approx/dtw/k10", [7500, 200, 0, 0, 0, 0, 0, 200, 7, 7, 75, 252057, 118, 0, 0, 0, 12757423871656543381, 8734562397311197402]),
    ("synthetic/ucr-scan/dtw/k10", [0, 0, 0, 0, 0, 0, 0, 7500, 6885, 187, 321, 683366, 299, 1, 1501, 7505, 9301408799841879233, 8734562397311197402]),
    ("synthetic/paris-exact-memory/ed/k10", [7500, 1014, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 141, 2, 476, 476, 17155737191056972834, 15048725421936891803]),
    ("synthetic/paris-exact-file/ed/k10", [7500, 1014, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 141, 2, 476, 476, 17155737191056972834, 15048725421936891803]),
    ("sald/messi-resident/ed/k1", [0, 0, 0, 485, 485, 0, 7581, 0, 0, 0, 0, 0, 19, 1, 1894, 1894, 4880223347156973542, 11697843258206417230]),
    ("sald/best-leaf/ed/k1", [0, 0, 0, 0, 0, 0, 81, 0, 0, 0, 0, 0, 8, 0, 0, 0, 6522052200590742058, 8752279132793138057]),
    ("sald/paris-approx/ed/k1", [7500, 80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 0, 0, 0, 16706770628547922992, 1224061397101839300]),
    ("sald/ucr-scan/ed/k1", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 48, 1, 1501, 7505, 3272108249434677415, 11697843258206417230]),
    ("sald/messi-resident/dtw/k1", [0, 0, 0, 485, 485, 0, 7581, 7581, 2137, 1384, 5421, 1653914, 23, 1, 7581, 7581, 8352065887969627629, 16093031190061165185]),
    ("sald/best-leaf/dtw/k1", [0, 0, 0, 0, 0, 0, 81, 81, 1, 1, 65, 63485, 15, 0, 0, 0, 16729600827535371682, 4193896489055772607]),
    ("sald/paris-approx/dtw/k1", [7500, 80, 0, 0, 0, 0, 0, 80, 0, 0, 61, 89735, 19, 0, 0, 0, 1338454021053804134, 16150743130427686176]),
    ("sald/ucr-scan/dtw/k1", [0, 0, 0, 0, 0, 0, 0, 7500, 2002, 1245, 5450, 1875605, 53, 1, 1501, 7505, 8168415876970787111, 16093031190061165185]),
    ("sald/paris-exact-memory/ed/k1", [7500, 2722, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 24, 2, 1854, 1854, 5422507575241551801, 11697843258206417230]),
    ("sald/paris-exact-file/ed/k1", [7500, 2722, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 24, 2, 1854, 1854, 5422507575241551801, 11697843258206417230]),
    ("sald/messi-resident/ed/k10", [0, 0, 0, 485, 485, 0, 7581, 0, 0, 0, 0, 0, 207, 1, 4119, 4119, 13136088501766813266, 3913637135210837008]),
    ("sald/best-leaf/ed/k10", [0, 0, 0, 0, 0, 0, 81, 0, 0, 0, 0, 0, 67, 0, 0, 0, 7046184210547083583, 9276736344420196590]),
    ("sald/paris-approx/ed/k10", [7500, 200, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 116, 0, 0, 0, 12895433400095029978, 18100470175822207612]),
    ("sald/ucr-scan/ed/k10", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 308, 1, 1501, 7505, 17998730288244201923, 3913637135210837008]),
    ("sald/messi-resident/dtw/k10", [0, 0, 0, 485, 485, 0, 7581, 7581, 519, 460, 6831, 4161136, 231, 1, 7581, 7581, 7264198689672046298, 2111524857458372949]),
    ("sald/best-leaf/dtw/k10", [0, 0, 0, 0, 0, 0, 81, 81, 0, 0, 14, 128190, 67, 0, 0, 0, 981021447638141443, 2326980406789511990]),
    ("sald/paris-approx/dtw/k10", [7500, 200, 0, 0, 0, 0, 0, 200, 0, 0, 81, 294345, 119, 0, 0, 0, 1632088243979725464, 15576453189270096050]),
    ("sald/ucr-scan/dtw/k10", [0, 0, 0, 0, 0, 0, 0, 7500, 548, 461, 6659, 4162825, 298, 1, 1501, 7505, 16253503496807537225, 2111524857458372949]),
    ("sald/paris-exact-memory/ed/k10", [7500, 7198, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 201, 2, 4341, 4341, 4205811825686133947, 3913637135210837008]),
    ("sald/paris-exact-file/ed/k10", [7500, 7198, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 201, 2, 4341, 4341, 4205811825686133947, 3913637135210837008]),
];

fn tree_config() -> TreeConfig {
    TreeConfig::new(LEN, 16, 24).unwrap()
}

/// FNV-1a over a stream of words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn counters(s: &QueryStats) -> [u64; 13] {
    [
        s.lb_computed,
        s.candidates,
        s.nodes_pruned,
        s.leaves_enqueued,
        s.leaves_processed,
        s.leaves_discarded,
        s.lb_entry_computed,
        s.lb_keogh_computed,
        s.lb_keogh_pruned,
        s.lb_keogh_rev_pruned,
        s.dtw_abandoned,
        s.dtw_cells,
        s.real_computed,
    ]
}

fn row(matches: &[Vec<Match>], stats: &BatchStats) -> [u64; 18] {
    let mut out = [0u64; 18];
    out[..13].copy_from_slice(&counters(&stats.total()));
    out[13] = stats.broadcasts;
    out[14] = stats.series_fetched;
    out[15] = stats.series_requests;
    out[16] = digest(
        std::iter::once(&stats.shared)
            .chain(&stats.per_query)
            .flat_map(counters),
    );
    out[17] = digest(matches.iter().flat_map(|answer| {
        std::iter::once(answer.len() as u64).chain(answer.iter().map(|m| u64::from(m.pos)))
    }));
    out
}

/// Approximate answers, one query at a time, folded into one batch row.
fn approx_row(
    queries: &[&[f32]],
    mut one: impl FnMut(&[f32]) -> (Vec<Match>, QueryStats),
) -> [u64; 18] {
    let (matches, per_query): (Vec<_>, Vec<_>) = queries.iter().map(|q| one(q)).unzip();
    row(
        &matches,
        &BatchStats {
            per_query,
            ..BatchStats::default()
        },
    )
}

fn measures() -> [(&'static str, Measure); 2] {
    [
        ("ed", Measure::Euclidean),
        ("dtw", Measure::Dtw { band: BAND }),
    ]
}

/// Every pinned call over one collection, labelled
/// `<collection>/<call>/<measure>/k<k>`.
fn rows_for(kind: DatasetKind, name: &str) -> Vec<(String, [u64; 18])> {
    let data = kind.generate(SERIES, LEN, SEED);
    let qs = kind.queries(QUERIES, LEN, SEED + 1);
    let queries: Vec<&[f32]> = qs.iter().collect();
    let dir = std::env::temp_dir().join(format!("dsidx-work-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data, Arc::new(Device::unthrottled())).unwrap();
    let file = DatasetFile::open(&path, Arc::new(Device::unthrottled())).unwrap();

    let messi_cfg = MessiConfig::new(tree_config(), 1);
    let (messi, _) = dsidx::messi::build(&data, &messi_cfg);
    let (paris, _) = dsidx::paris::build_in_memory(
        &data,
        &ParisConfig::new(tree_config(), 1)
            .with_block_series(64)
            .with_generation_series(512),
    );

    let mut rows = Vec::new();
    for k in [1usize, 10] {
        for (mname, measure) in measures() {
            let (matches, stats) =
                dsidx::messi::exact(&messi, &data, &queries, measure, k, 1, None).unwrap();
            rows.push((
                format!("{name}/messi-resident/{mname}/k{k}"),
                row(&matches, &stats),
            ));
            // Over the dataset file MESSI runs the same schedule, and at one
            // worker does the same work, counter for counter.
            let (matches, stats) =
                dsidx::messi::exact(&messi, &file, &queries, measure, k, 1, None).unwrap();
            let (label, resident) = rows.last().unwrap();
            assert_eq!(&row(&matches, &stats), resident, "{label} over the file");
            rows.push((
                format!("{name}/best-leaf/{mname}/k{k}"),
                approx_row(&queries, |q| best_leaf(&messi, &data, q, measure, k)),
            ));
            rows.push((
                format!("{name}/paris-approx/{mname}/k{k}"),
                approx_row(&queries, |q| sketch_nearest(&paris, &data, q, measure, k)),
            ));
            let (matches, stats) = dsidx::ucr::scan(&data, &queries, measure, k, 1, None).unwrap();
            rows.push((
                format!("{name}/ucr-scan/{mname}/k{k}"),
                row(&matches, &stats),
            ));
            // Over the dataset file the scan reads the same series in the
            // same order, so it does the same work.
            let (matches, stats) = dsidx::ucr::scan(&file, &queries, measure, k, 1, None).unwrap();
            let (label, resident) = rows.last().unwrap();
            assert_eq!(&row(&matches, &stats), resident, "{label} over the file");
        }
        let (matches, stats) =
            dsidx::paris::exact(&paris, None, &data, &queries, k, 1, None).unwrap();
        rows.push((
            format!("{name}/paris-exact-memory/ed/k{k}"),
            row(&matches, &stats),
        ));
        let (matches, stats) =
            dsidx::paris::exact(&paris, None, &file, &queries, k, 1, None).unwrap();
        rows.push((
            format!("{name}/paris-exact-file/ed/k{k}"),
            row(&matches, &stats),
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
    rows
}

/// MESSI's (and ADS+'s) approximate answer: the best-leaf visit.
fn best_leaf(
    messi: &FlatTree,
    source: &impl RawSource,
    query: &[f32],
    measure: Measure,
    k: usize,
) -> (Vec<Match>, QueryStats) {
    let quantizer = messi.config().quantizer();
    match measure {
        Measure::Euclidean => {
            let prep = PreparedQuery::new(quantizer, query);
            approx_best_leaf(messi, source, query, &prep, k)
        }
        Measure::Dtw { band } => {
            let prep = DtwPrepared::new(quantizer, query, band);
            approx_best_leaf(messi, source, query, &prep, k)
        }
    }
    .unwrap()
}

/// ParIS's approximate answer: the sketch-nearest probe.
fn sketch_nearest(
    paris: &FlatTree,
    source: &impl RawSource,
    query: &[f32],
    measure: Measure,
    k: usize,
) -> (Vec<Match>, QueryStats) {
    let quantizer = paris.config().quantizer();
    match measure {
        Measure::Euclidean => {
            let prep = PreparedQuery::new(quantizer, query);
            dsidx::paris::approx(paris, source, query, &prep, k)
        }
        Measure::Dtw { band } => {
            let prep = DtwPrepared::new(quantizer, query, band);
            dsidx::paris::approx(paris, source, query, &prep, k)
        }
    }
    .unwrap()
}

#[test]
fn every_call_does_the_pinned_work() {
    let mut got = rows_for(DatasetKind::Synthetic, "synthetic");
    got.extend(rows_for(DatasetKind::Sald, "sald"));
    let mut printed = String::new();
    for (label, values) in &got {
        let cells: Vec<String> = values.iter().map(u64::to_string).collect();
        writeln!(printed, "    (\"{label}\", [{}]),", cells.join(", ")).unwrap();
    }
    println!("{printed}");
    assert_eq!(
        got.len(),
        TABLE.len(),
        "one pinned row per call:\n{printed}"
    );
    for ((label, values), (want_label, want)) in got.iter().zip(TABLE) {
        assert_eq!(label, want_label, "rows out of order:\n{printed}");
        assert_eq!(values, want, "{label}: the work done changed:\n{printed}");
    }
}
