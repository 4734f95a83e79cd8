//! Cross-crate property tests: for arbitrary (small) collections and
//! queries, every engine's answer equals brute force — the system-level
//! statement of the lower-bound soundness invariant.

use dsidx::prelude::*;
use dsidx::ucr::{brute_force, dtw::brute_force_dtw};
use proptest::prelude::*;

/// A z-normalized collection plus one query, as flat data.
fn collection() -> impl Strategy<Value = (usize, Vec<f32>, Vec<f32>)> {
    (8usize..64).prop_flat_map(|len| {
        (1usize..60).prop_flat_map(move |count| {
            (
                Just(len),
                prop::collection::vec(-10.0f32..10.0, count * len),
                prop::collection::vec(-10.0f32..10.0, len),
            )
        })
    })
}

fn normalize(len: usize, flat: Vec<f32>) -> Dataset {
    let mut ds = Dataset::from_flat(flat, len).unwrap();
    ds.znormalize_all();
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_equal_brute_force((len, flat, mut q) in collection(), leaf in 1usize..40) {
        let data = normalize(len, flat);
        dsidx::series::znorm::znormalize(&mut q);
        let want = brute_force(&data, &q).unwrap();
        let opts = Options::default()
            .with_threads(3)
            .with_leaf_capacity(leaf)
            .with_segments(8.min(len));
        for engine in Engine::ALL {
            let idx = MemoryIndex::build(data.clone(), engine, &opts).unwrap();
            let got = idx.search(&[&q], &QuerySpec::nn()).unwrap().into_nn().unwrap();
            // Positions may differ only on exact distance ties.
            if got.pos != want.pos {
                prop_assert!((got.dist_sq - want.dist_sq).abs() <= want.dist_sq * 1e-4 + 1e-4,
                    "{}: pos {} vs {} with dists {} vs {}",
                    engine.name(), got.pos, want.pos, got.dist_sq, want.dist_sq);
            } else {
                prop_assert!((got.dist_sq - want.dist_sq).abs() <= want.dist_sq * 1e-4 + 1e-4);
            }
        }
    }

    #[test]
    fn messi_dtw_equals_brute_force((len, flat, mut q) in collection(), band in 0usize..8) {
        let data = normalize(len, flat);
        dsidx::series::znorm::znormalize(&mut q);
        let want = brute_force_dtw(&data, &q, band).unwrap();
        let opts = Options::default()
            .with_threads(2)
            .with_leaf_capacity(10)
            .with_segments(8.min(len));
        let idx = MemoryIndex::build(data, Engine::Messi, &opts).unwrap();
        let spec = QuerySpec::nn().measure(Measure::Dtw { band });
        let got = idx.search(&[&q], &spec).unwrap().into_nn().unwrap();
        prop_assert!((got.dist_sq - want.dist_sq).abs() <= want.dist_sq * 1e-4 + 1e-4,
            "dtw dist mismatch: {} vs {}", got.dist_sq, want.dist_sq);
    }

    #[test]
    fn batch_results_are_independent_of_batch_order(
        (len, flat, q0) in collection(),
        more in prop::collection::vec(-10.0f32..10.0, 3 * 64),
        k in 1usize..6,
        leaf in 1usize..20,
    ) {
        // Four queries, answered as a batch in two different orders: each
        // query's answer must depend only on the query, never on its
        // batch-mates or its position in the batch.
        let data = normalize(len, flat);
        let mut queries: Vec<Vec<f32>> = vec![q0];
        for i in 0..3 {
            queries.push(more[i * len..(i + 1) * len].to_vec());
        }
        for q in &mut queries {
            dsidx::series::znorm::znormalize(q);
        }
        let opts = Options::default()
            .with_threads(3)
            .with_leaf_capacity(leaf)
            .with_segments(8.min(len));
        let forward: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let reversed: Vec<&[f32]> = queries.iter().rev().map(Vec::as_slice).collect();
        for engine in Engine::ALL {
            let idx = MemoryIndex::build(data.clone(), engine, &opts).unwrap();
            let spec = QuerySpec::knn(k);
            let got_fwd = idx.search(&forward, &spec).unwrap().into_matches();
            let got_rev = idx.search(&reversed, &spec).unwrap().into_matches();
            let solo: Vec<_> = forward
                .iter()
                .map(|q| idx.search(&[q], &spec).unwrap().into_single())
                .collect();
            for qi in 0..forward.len() {
                let fwd_pos: Vec<u32> = got_fwd[qi].iter().map(|m| m.pos).collect();
                let rev_pos: Vec<u32> =
                    got_rev[forward.len() - 1 - qi].iter().map(|m| m.pos).collect();
                let solo_pos: Vec<u32> = solo[qi].iter().map(|m| m.pos).collect();
                prop_assert_eq!(&fwd_pos, &rev_pos,
                    "{} q{} k={}: batch order changed the answer", engine.name(), qi, k);
                prop_assert_eq!(&fwd_pos, &solo_pos,
                    "{} q{} k={}: batching changed the answer", engine.name(), qi, k);
            }
        }
    }

    #[test]
    fn index_structure_is_valid_for_any_input((len, flat, _q) in collection(), leaf in 1usize..20) {
        let data = normalize(len, flat);
        let opts = Options::default()
            .with_threads(2)
            .with_leaf_capacity(leaf)
            .with_segments(8.min(len));
        let tree = opts.tree_config(len).unwrap();
        let serial = dsidx::messi::MessiConfig::new(tree, 1);
        let (built, _) = dsidx::messi::build(&data, &serial);
        prop_assert!(dsidx::tree::snapshot::validate(&built, data.len()).is_ok());
        let stats = dsidx::tree::stats::index_stats(&built);
        prop_assert_eq!(stats.entry_count, data.len());
    }
}
