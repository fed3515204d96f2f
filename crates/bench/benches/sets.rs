//! ListSet vs ArraySet vs DequeSet micro-costs (criterion): the paper's
//! representation trade-off behind the "(array)" curves (§4, §4.5.1),
//! plus the sorted deque that `Zmsq` uses by default.

use bench::harness as criterion;
use bench::harness::{BenchmarkGroup, BenchmarkId, Criterion};
use bench::{criterion_group, criterion_main};
use std::hint::black_box;

use zmsq::{ArraySet, DequeSet, ListSet, NodeSet};

fn fill<S: NodeSet<u64>>(n: u64) -> S {
    let mut s = S::default();
    let mut x = 0x1234_5678_9ABC_DEF0u64;
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.insert(x % 10_000, x);
    }
    s
}

fn insert_remove_arm<S: NodeSet<u64>>(group: &mut BenchmarkGroup<'_>, size: u64) {
    group.bench_with_input(BenchmarkId::new(S::KIND, size), &size, |b, &n| {
        let mut s: S = fill(n);
        let mut x = 7u64;
        b.iter(|| {
            x = x.wrapping_mul(48271) % 10_000;
            s.insert(black_box(x), x);
            black_box(s.remove_max());
        });
    });
}

fn drain_top_arm<S: NodeSet<u64>>(group: &mut BenchmarkGroup<'_>) {
    group.bench_function(S::KIND, |b| {
        b.iter_batched(
            || fill::<S>(144),
            |mut s| {
                let mut out = Vec::with_capacity(48);
                s.drain_top(48, &mut out);
                black_box(out)
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

fn split_arm<S: NodeSet<u64>>(group: &mut BenchmarkGroup<'_>) {
    group.bench_function(S::KIND, |b| {
        b.iter_batched(
            || fill::<S>(144),
            |mut s| black_box(s.split_lower_half()),
            criterion::BatchSize::SmallInput,
        );
    });
}

fn bench_insert_remove(c: &mut Criterion) {
    let mut group = c.benchmark_group("set_insert_remove_max");
    for size in [16u64, 72, 144] {
        insert_remove_arm::<ListSet<u64>>(&mut group, size);
        insert_remove_arm::<ArraySet<u64>>(&mut group, size);
        insert_remove_arm::<DequeSet<u64>>(&mut group, size);
    }
    group.finish();
}

fn bench_drain_top(c: &mut Criterion) {
    // The pool-refill primitive: take the `batch` largest (§3.3).
    let mut group = c.benchmark_group("set_drain_top_48");
    drain_top_arm::<ListSet<u64>>(&mut group);
    drain_top_arm::<ArraySet<u64>>(&mut group);
    drain_top_arm::<DequeSet<u64>>(&mut group);
    group.finish();
}

fn bench_split(c: &mut Criterion) {
    let mut group = c.benchmark_group("set_split_lower_half_144");
    split_arm::<ListSet<u64>>(&mut group);
    split_arm::<ArraySet<u64>>(&mut group);
    split_arm::<DequeSet<u64>>(&mut group);
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = bench_insert_remove, bench_drain_top, bench_split
}
criterion_main!(benches);
