//! Microbenchmarks for summarization and lower-bound kernels — the per-
//! series work of index construction (stage 1/2) and the per-word work of
//! query pruning.

use criterion::{criterion_group, criterion_main, Criterion};
use dsidx::isax::{paa::paa, MindistTable, NodeMindistTable, Quantizer};
use dsidx::series::gen::random_walk;
use std::hint::black_box;
use std::time::Duration;

fn bench_isax(c: &mut Criterion) {
    let mut group = c.benchmark_group("isax");
    group
        .sample_size(20)
        .measurement_time(Duration::from_millis(600))
        .warm_up_time(Duration::from_millis(150));
    let len = 256;
    let quantizer = Quantizer::new(len, 16).unwrap();
    let data = random_walk(1024, len, 5);
    let series = data.get(0);

    group.bench_function("paa_256_into_16", |b| {
        let mut out = vec![0.0f32; 16];
        b.iter(|| quantizer.paa_into(black_box(series), &mut out));
    });
    group.bench_function("word_from_series", |b| {
        let mut scratch = vec![0.0f32; 16];
        b.iter(|| quantizer.word_into(black_box(series), &mut scratch));
    });

    let query = random_walk(1, len, 99);
    let qpaa = paa(query.get(0), 16);
    let words: Vec<_> = data.iter().map(|s| quantizer.word(s)).collect();
    let table = MindistTable::new_point(&qpaa, quantizer.segment_lens());
    group.bench_function("mindist_table_build", |b| {
        b.iter(|| MindistTable::new_point(black_box(&qpaa), quantizer.segment_lens()));
    });
    group.bench_function("mindist_lookup_1024_words", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for w in &words {
                acc += table.lookup(black_box(w));
            }
            acc
        });
    });
    let node_table = NodeMindistTable::new_point(&qpaa, quantizer.segment_lens());
    group.bench_function("node_mindist_table_build", |b| {
        b.iter(|| NodeMindistTable::new_point(black_box(&qpaa), quantizer.segment_lens()));
    });
    // A root word as a tree fitted to ~200k series has it: 11 keyed
    // segments, 5 carrying no bits.
    let root = dsidx::isax::NodeWord::root(words[0].root_key(11), 11, 16);
    group.bench_function("node_mindist_lookup", |b| {
        b.iter(|| node_table.lookup(black_box(&root)));
    });
    group.finish();
}

criterion_group!(benches, bench_isax);
criterion_main!(benches);
