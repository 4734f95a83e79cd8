//! Concurrent use of shared indexes: many client threads querying one
//! index must all get exact answers, and answers must not depend on the
//! degree of concurrency.

use dsidx::prelude::*;
use dsidx::ucr::brute_force;
use std::sync::Arc;

/// One query's exact Euclidean 1-NN, as a batch of one; `None` for an
/// empty collection.
fn nn(idx: &impl Search, q: &[f32]) -> Option<Match> {
    idx.search(&[q], &QuerySpec::nn()).unwrap().into_nn()
}

#[test]
fn concurrent_clients_get_exact_answers() {
    let data = DatasetKind::Synthetic.generate(1000, 64, 31);
    let opts = Options::default().with_threads(4).with_leaf_capacity(25);
    // Engines whose query paths involve worker pools and shared state.
    for engine in [Engine::Paris, Engine::Messi] {
        let idx = Arc::new(MemoryIndex::build(data.clone(), engine, &opts).unwrap());
        let queries = Arc::new(DatasetKind::Synthetic.queries(12, 64, 31));
        let expected: Vec<Match> = queries
            .iter()
            .map(|q| brute_force(idx.data(), q).unwrap())
            .collect();
        std::thread::scope(|s| {
            for client in 0..6usize {
                let idx = Arc::clone(&idx);
                let queries = Arc::clone(&queries);
                let expected = expected.clone();
                s.spawn(move || {
                    // Each client starts at a different query and loops.
                    for k in 0..queries.len() {
                        let i = (client + k) % queries.len();
                        let got = nn(&*idx, queries.get(i)).unwrap();
                        assert_eq!(
                            got.pos,
                            expected[i].pos,
                            "{} client {client}",
                            engine.name()
                        );
                    }
                });
            }
        });
    }
}

#[test]
fn answers_are_identical_across_thread_counts() {
    let data = DatasetKind::Sald.generate(800, 96, 5);
    let queries = DatasetKind::Sald.queries(6, 96, 5);
    let mut reference: Option<Vec<Match>> = None;
    for threads in [1usize, 2, 8, 16] {
        let opts = Options::default()
            .with_threads(threads)
            .with_leaf_capacity(25);
        let idx = MemoryIndex::build(data.clone(), Engine::Messi, &opts).unwrap();
        let answers: Vec<Match> = queries.iter().map(|q| nn(&idx, q).unwrap()).collect();
        match &reference {
            None => reference = Some(answers),
            Some(r) => assert_eq!(&answers, r, "threads={threads}"),
        }
    }
}

#[test]
fn interleaved_ed_and_dtw_queries_share_one_index() {
    let data = DatasetKind::Seismic.generate(500, 64, 23);
    let opts = Options::default().with_threads(4).with_leaf_capacity(20);
    let idx = Arc::new(MemoryIndex::build(data, Engine::Messi, &opts).unwrap());
    let queries = Arc::new(DatasetKind::Seismic.queries(8, 64, 23));
    std::thread::scope(|s| {
        for client in 0..4usize {
            let idx = Arc::clone(&idx);
            let queries = Arc::clone(&queries);
            s.spawn(move || {
                for i in 0..queries.len() {
                    let q = queries.get(i);
                    if (client + i) % 2 == 0 {
                        let _ = nn(&*idx, q).unwrap();
                    } else {
                        let spec = QuerySpec::nn().measure(Measure::Dtw { band: 4 });
                        let _ = idx.search(&[q], &spec).unwrap().into_nn().unwrap();
                    }
                }
            });
        }
    });
}
