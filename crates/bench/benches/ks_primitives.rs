//! Microbenchmarks of the KS-test primitives MOCHE is built from:
//! statistic computation, base-vector construction, and the Theorem-1/2
//! existence checks (each `O(n + m)` by design — these benches verify the
//! constants are small).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moche_core::base_vector::BaseVector;
use moche_core::bounds::{BoundsContext, BoundsWorkspace};
use moche_core::{ks_statistic, KsConfig};
use moche_data::kifer_pair;
use std::hint::black_box;

fn bench_primitives(c: &mut Criterion) {
    let cfg = KsConfig::new(0.05).unwrap();
    let mut group = c.benchmark_group("ks_primitives");
    for &w in &[1_000usize, 10_000] {
        let pair = kifer_pair(w, 0.03, 42);

        group.bench_with_input(BenchmarkId::new("ks_statistic", w), &w, |b, _| {
            b.iter(|| ks_statistic(black_box(&pair.reference), black_box(&pair.test)).unwrap())
        });

        group.bench_with_input(BenchmarkId::new("base_vector_build", w), &w, |b, _| {
            b.iter(|| BaseVector::build(black_box(&pair.reference), black_box(&pair.test)).unwrap())
        });

        let base = BaseVector::build(&pair.reference, &pair.test).unwrap();
        group.bench_with_input(BenchmarkId::new("statistic_from_counts", w), &w, |b, _| {
            b.iter(|| black_box(&base).statistic())
        });

        let ctx = BoundsContext::new(&base, &cfg);
        let h = w / 20;
        group.bench_with_input(BenchmarkId::new("theorem1_exists_qualified", w), &w, |b, _| {
            b.iter(|| ctx.exists_qualified(black_box(h)))
        });
        group.bench_with_input(BenchmarkId::new("theorem2_necessary", w), &w, |b, _| {
            b.iter(|| ctx.necessary_condition(black_box(h)))
        });

        // Full bound vectors: the seed's allocating HBounds path against the
        // interleaved, allocation-free workspace path.
        group.bench_with_input(BenchmarkId::new("bounds_compute_alloc", w), &w, |b, _| {
            b.iter(|| ctx.compute(black_box(h)))
        });
        let mut ws = BoundsWorkspace::new();
        ctx.compute_into(h, &mut ws); // warm the buffers
        group.bench_with_input(BenchmarkId::new("bounds_compute_workspace", w), &w, |b, _| {
            b.iter(|| ctx.compute_into(black_box(h), &mut ws))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
