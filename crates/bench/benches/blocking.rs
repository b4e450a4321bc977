//! Criterion bench for the 4-gram overlap blocker (§5.1's candidate
//! generation): full-dataset blocking and the cross-group pass used by the
//! WDC expansion.

use criterion::{criterion_group, criterion_main, Criterion};
use flexer_bench::DatasetKind;
use flexer_block::NGramBlocker;
use flexer_types::Scale;

fn bench_blocking(c: &mut Criterion) {
    let bench = DatasetKind::AmazonMi.generate(Scale::Tiny, 3);
    let blocker = NGramBlocker::default();
    let half = bench.dataset.len() / 2;
    let left: Vec<usize> = (0..half).collect();
    let right: Vec<usize> = (half..bench.dataset.len()).collect();

    let mut group = c.benchmark_group("blocking");
    group.sample_size(10);
    group.bench_function("block_dataset", |b| {
        b.iter(|| blocker.block(&bench.dataset).candidates.len())
    });
    group.bench_function("block_across_groups", |b| {
        b.iter(|| blocker.block_across(&bench.dataset, &left, &right).len())
    });
    group.bench_function("gram_set", |b| {
        b.iter(|| bench.dataset.iter().map(|r| blocker.gram_set(r.title()).len()).sum::<usize>())
    });
    group.finish();
}

criterion_group!(benches, bench_blocking);
criterion_main!(benches);
