//! Query answering benchmarks: every engine on one in-memory collection
//! (laptop-scale slice of Figs. 9 and 12).

use criterion::{criterion_group, criterion_main, Criterion};
use dsidx::messi::MessiConfig;
use dsidx::paris::ParisConfig;
use dsidx::prelude::*;
use std::hint::black_box;
use std::time::Duration;

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("query");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let data = DatasetKind::Synthetic.generate(50_000, 128, 11);
    let queries = DatasetKind::Synthetic.queries(8, 128, 11);
    let tree = Options::default().tree_config(128).expect("valid");
    let threads = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    dsidx::sync::pool::global(threads).broadcast(&|_| {});

    let (ads, _) = dsidx::ads::build_from_dataset(&data, &tree);
    let (paris, _) = dsidx::paris::build_in_memory(&data, &ParisConfig::new(tree.clone(), threads));
    let (messi, _) = dsidx::messi::build(&data, &MessiConfig::new(tree.clone(), threads));

    let mut qi = 0usize;
    let next = move || {
        qi += 1;
        queries.get(qi % 8).to_vec()
    };

    let mut nq = next.clone();
    group.bench_function("ucr_serial", |b| {
        b.iter(|| dsidx::ucr::scan_ed(&data, black_box(&nq())));
    });
    let mut nq = next.clone();
    group.bench_function("ucr_parallel", |b| {
        b.iter(|| dsidx::ucr::scan_ed_parallel(&data, black_box(&nq()), threads));
    });
    let mut nq = next.clone();
    group.bench_function("ads_serial", |b| {
        b.iter(|| dsidx::ads::exact(&ads, &data, &[black_box(&nq())], 1, None).unwrap());
    });
    let mut nq = next.clone();
    group.bench_function("paris", |b| {
        b.iter(|| {
            dsidx::paris::exact(&paris, &data, &[black_box(&nq())], 1, threads, None).unwrap()
        });
    });
    let messi_nn =
        |q: &[f32], measure| dsidx::messi::exact(&messi, &data, &[q], measure, 1, threads, None);
    let mut nq = next.clone();
    group.bench_function("messi", |b| {
        b.iter(|| messi_nn(black_box(&nq()), Measure::Euclidean));
    });
    let mut nq = next;
    group.bench_function("messi_dtw_band5pct", |b| {
        b.iter(|| messi_nn(black_box(&nq()), Measure::Dtw { band: 6 }));
    });
    group.finish();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
