//! Rankings by lower bound do not depend on the SIMD mode.
//!
//! Two selections sort words by their MINDIST to the query: ParIS/ParIS+
//! seeding ([`best_bound_positions`]) and ParIS's approximate probes. The
//! fixture makes those bounds differ only in how their terms are added: a
//! constant query has sixteen identical table rows, and words that permute
//! one another's symbols then sum the same sixteen terms in different
//! orders. A ranking that summed in a mode-dependent order would pick
//! different positions with SIMD on and off; both must pick the same.
//!
//! The SIMD gate is process-global, so these tests live in their own
//! binary and take turns on it.

use dsidx::isax::{MindistTable, Quantizer, Word};
use dsidx::paris::best_bound_positions;
use dsidx::prelude::*;
use dsidx::series::distance::set_simd_enabled;
use std::sync::Mutex;

const LEN: usize = 256;
const SEGMENTS: usize = 16;
/// Segment values, one per symbol of the shared multiset: spread over the
/// line, each in the middle of its 8-bit region, so small per-series noise
/// never changes a symbol.
const LEVELS: [f32; SEGMENTS] = [
    -2.31, -1.62, -1.13, -0.81, -0.52, -0.27, -0.07, 0.11, 0.33, 0.58, 0.86, 1.21, 1.55, 1.93,
    2.27, 2.71,
];
/// The constant the query sits at.
const QUERY_LEVEL: f32 = 0.04;

static GATE: Mutex<()> = Mutex::new(());

/// Runs `f` with SIMD off, then on, holding the gate for both.
fn in_both_modes<T>(f: impl Fn() -> T) -> (T, T) {
    let _turn = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    set_simd_enabled(false);
    let scalar = f();
    set_simd_enabled(true);
    let simd = f();
    (scalar, simd)
}

/// A deterministic permutation of `0..SEGMENTS` per seed.
fn permutation(seed: u64) -> [usize; SEGMENTS] {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut perm: [usize; SEGMENTS] = std::array::from_fn(|i| i);
    for i in (1..SEGMENTS).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        perm.swap(i, (state % (i as u64 + 1)) as usize);
    }
    perm
}

/// Series `p`: segment `i` holds `LEVELS[perm(p)[i]]`, its points
/// alternately raised and lowered by a per-series amount — the word is a
/// permutation of every other series' word, the real distances are not
/// tied.
fn series(p: u64) -> Vec<f32> {
    let perm = permutation(p);
    let wobble = 0.002 * (1 + p % 97) as f32;
    (0..LEN)
        .map(|j| {
            let level = LEVELS[perm[j * SEGMENTS / LEN]];
            if j % 2 == 0 {
                level + wobble
            } else {
                level - wobble
            }
        })
        .collect()
}

#[test]
fn bound_ranked_seeds_are_the_same_with_simd_on_and_off() {
    let quantizer = Quantizer::new(LEN, SEGMENTS).unwrap();
    let words: Vec<Word> = (0..200).map(|p| quantizer.word(&series(p))).collect();
    let sorted = |w: &Word| {
        let mut s: Vec<u8> = (0..SEGMENTS).map(|i| w.symbol(i)).collect();
        s.sort_unstable();
        s
    };
    let shared = sorted(&words[0]);
    assert!(
        words.iter().all(|w| sorted(w) == shared),
        "fixture words must permute one another"
    );
    let positions: Vec<u32> = (0..words.len() as u32).collect();
    let (scalar, simd) = in_both_modes(|| {
        let table = MindistTable::new_point(&[QUERY_LEVEL; SEGMENTS], quantizer.segment_lens());
        let mut out = Vec::new();
        for n in [1, 8, 40] {
            best_bound_positions(&words, &positions, &table, n, &mut out);
        }
        out
    });
    assert_eq!(scalar, simd);
}

#[test]
fn paris_approximate_answers_are_the_same_with_simd_on_and_off() {
    let mut data = Dataset::new(LEN).unwrap();
    for p in 0..3000 {
        data.push(&series(p)).unwrap();
    }
    let index = MemoryIndex::build(data, Engine::Paris, &Options::default()).unwrap();
    let query = vec![QUERY_LEVEL; LEN];
    for measure in [Measure::Euclidean, Measure::Dtw { band: 8 }] {
        let spec = QuerySpec::knn(10)
            .measure(measure)
            .fidelity(Fidelity::Approximate);
        let (scalar, simd) = in_both_modes(|| {
            let answers = index.search(&[query.as_slice()], &spec).unwrap();
            answers.single().iter().map(|m| m.pos).collect::<Vec<_>>()
        });
        assert_eq!(scalar.len(), 10);
        assert_eq!(scalar, simd, "{measure:?}");
    }
}
