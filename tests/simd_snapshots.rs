//! An index built with SIMD on saves to the same bytes as one built with
//! SIMD off: summarization (the PAA and the quantizer) is bit-identical in
//! both modes, so every word, every tree and every tree section of a
//! snapshot is. Underneath, every distance kernel decides the same way in
//! both modes.
//!
//! The SIMD gate is process-global, so these tests live in their own
//! binary and take turns on it. Without AVX2, or under `DSIDX_NO_SIMD=1`,
//! both modes are the scalar path and every check here holds trivially.

use dsidx::isax::paa::envelope_paa_bounds;
use dsidx::isax::{MindistTable, NodeMindistTable, Quantizer, Word};
use dsidx::prelude::*;
use dsidx::series::distance::dtw::{self, DtwScratch, DtwVerdict};
use dsidx::series::distance::{euclidean_sq, euclidean_sq_bounded, set_simd_enabled};
use dsidx::storage::{write_dataset, Device};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

static GATE: Mutex<()> = Mutex::new(());

/// Runs `f(mode)` with SIMD off, then on, holding the gate for both.
fn in_both_modes<T>(f: impl Fn(bool) -> T) -> (T, T) {
    let _turn = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let run = |mode| {
        set_simd_enabled(mode);
        f(mode)
    };
    (run(false), run(true))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsidx-simd-snap-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 256 points in 16 segments: the shape the vector PAA covers.
fn data() -> Dataset {
    DatasetKind::Synthetic.generate(3000, 256, 27)
}

#[test]
fn messi_snapshots_are_byte_identical_with_simd_on_and_off() {
    let dir = tmpdir("messi");
    let data = Arc::new(data());
    let options = Options::default().with_threads(2);
    let (scalar, simd) = in_both_modes(|mode| {
        let snap = dir.join(format!("simd-{mode}.snap"));
        let index = MemoryIndex::build(data.clone(), Engine::Messi, &options).unwrap();
        index.save(&snap).unwrap();
        std::fs::read(&snap).unwrap()
    });
    assert!(!scalar.is_empty());
    assert!(
        scalar == simd,
        "MESSI snapshot bytes depend on the SIMD mode"
    );
}

#[test]
fn paris_plus_tree_sections_are_byte_identical_with_simd_on_and_off() {
    let dir = tmpdir("parisplus");
    let path = dir.join("data.dsidx");
    write_dataset(&path, &data(), Arc::new(Device::unthrottled())).unwrap();
    let options = Options::default().with_threads(2);
    let (scalar, simd) = in_both_modes(|mode| {
        let snap = dir.join(format!("simd-{mode}.snap"));
        let profile = DeviceProfile::UNTHROTTLED;
        let index = DiskIndex::build(&path, &dir, Engine::ParisPlus, &options, profile).unwrap();
        index.save(&snap).unwrap();
        std::fs::read(&snap).unwrap()
    });
    assert!(!scalar.is_empty());
    assert!(
        scalar == simd,
        "ParIS+ snapshot bytes depend on the SIMD mode"
    );
}

/// Series pairs per length in the kernel check.
const PAIRS: usize = 32;

/// What the distance and summarization kernels produce at one series
/// length under the current SIMD mode — none of it may depend on the mode.
#[derive(Debug, Default, PartialEq)]
struct KernelOutputs {
    /// Some/None of the early-abandoning Euclidean and LB_Keogh kernels.
    decisions: Vec<bool>,
    /// Bits of the kernels that are bit-identical by construction: banded
    /// DTW alone and the envelope.
    exact: Vec<Option<u32>>,
    /// Per cascade call: which stage decided (the `DtwVerdict` variant),
    /// the bits of a completed DTW, and the DP cells evaluated — so the
    /// DTW stops at the same row in both modes, not only at the same value.
    cascade: Vec<(&'static str, Option<u32>, u64)>,
    /// Bits of every PAA value (series and envelope bounds).
    paa: Vec<u32>,
    words: Vec<Word>,
    tables: Vec<MindistTable>,
    node_tables: Vec<NodeMindistTable>,
}

fn kernel_outputs(len: usize) -> KernelOutputs {
    let data = DatasetKind::Synthetic.generate(2 * PAIRS, len, len as u64);
    let (a, b) = data.as_flat().split_at(PAIRS * len);
    let band = len / 20;
    let quantizer = Quantizer::new(len, 16).unwrap();
    let lens = quantizer.segment_lens();
    let mut out = KernelOutputs::default();
    let mut scratch = DtwScratch::new();
    let (mut lo, mut up) = (Vec::new(), Vec::new());
    let (mut y_lo, mut y_up) = (Vec::new(), Vec::new());
    let (mut paa, mut up_paa) = (vec![0.0f32; 16], vec![0.0f32; 16]);
    for (x, y) in a.chunks_exact(len).zip(b.chunks_exact(len)) {
        dtw::envelope(x, band, &mut lo, &mut up);
        dtw::envelope(y, band, &mut y_lo, &mut y_up);
        out.exact
            .extend(y_lo.iter().chain(&y_up).map(|v| Some(v.to_bits())));
        // Limits at half and twice each true value: far on the abandon
        // side, then far on the keep side, so rounding cannot flip them.
        let ed = euclidean_sq(x, y);
        let keogh = dtw::lb_keogh_sq(y, &lo, &up);
        let full = dtw::dtw_sq(x, y, band);
        for scale in [0.5f32, 2.0] {
            out.decisions
                .push(euclidean_sq_bounded(x, y, ed * scale).is_some());
            out.decisions
                .push(dtw::lb_keogh_sq_bounded(y, &lo, &up, keogh * scale).is_some());
            let bounded = dtw::dtw_sq_bounded(x, y, band, full * scale);
            out.exact.push(bounded.map(f32::to_bits));
            let verdict = dtw::dtw_cascade(x, &lo, &up, y, band, full * scale, &mut scratch);
            let (stage, bits) = match verdict {
                DtwVerdict::KeoghPruned => ("keogh", None),
                DtwVerdict::ReversedPruned => ("reversed", None),
                DtwVerdict::Abandoned => ("abandoned", None),
                DtwVerdict::Full(d) => ("full", Some(d.to_bits())),
            };
            out.cascade.push((stage, bits, scratch.cells()));
        }
        for s in [x, y] {
            out.words.push(quantizer.word_into(s, &mut paa));
            out.paa.extend(paa.iter().map(|v| v.to_bits()));
            out.tables.push(MindistTable::new_point(&paa, lens));
            out.node_tables
                .push(NodeMindistTable::new_point(&paa, lens));
        }
        envelope_paa_bounds(&lo, &up, &mut paa, &mut up_paa);
        out.paa
            .extend(paa.iter().chain(&up_paa).map(|v| v.to_bits()));
        out.tables
            .push(MindistTable::new_interval(&paa, &up_paa, lens));
        out.node_tables
            .push(NodeMindistTable::new_interval(&paa, &up_paa, lens));
    }
    out
}

#[test]
fn every_kernel_decides_the_same_with_simd_on_and_off() {
    for len in [64, 256, 1024] {
        let (scalar, simd) = in_both_modes(|_| kernel_outputs(len));
        // Both sides of every limit were reached, so both verdicts count.
        assert!(scalar.decisions.contains(&true) && scalar.decisions.contains(&false));
        assert_eq!(
            scalar.decisions, simd.decisions,
            "len {len}: a bounded kernel's abandon decision depends on the SIMD mode"
        );
        assert_eq!(
            scalar.exact, simd.exact,
            "len {len}: a DTW or envelope value depends on the SIMD mode"
        );
        // Both the completed and the abandoned DTW were reached.
        let reached = |stage| scalar.cascade.iter().any(|c| c.0 == stage);
        assert!(reached("full") && reached("abandoned"), "len {len}");
        assert_eq!(
            scalar.cascade, simd.cascade,
            "len {len}: a cascade verdict, value or cell count depends on the SIMD mode"
        );
        assert!(
            scalar.paa == simd.paa && scalar.words == simd.words,
            "len {len}: a PAA value or word depends on the SIMD mode"
        );
        assert!(
            scalar.tables == simd.tables && scalar.node_tables == simd.node_tables,
            "len {len}: a MINDIST table slot depends on the SIMD mode"
        );
    }
}
