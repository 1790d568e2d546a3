//! Throughput of the parallel batch engine on the shared-reference
//! workload: one reference distribution (`w` points), many failed test
//! windows, an explanation per window. This is the deployment shape the
//! ROADMAP's monitoring north star implies — the number reported is
//! explanations per second at each thread count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moche_core::{
    BatchExplainer, KsConfig, ReferenceIndex, SortedReference, StreamingBatchExplainer,
};
use moche_data::failing_kifer_pair;
use std::hint::black_box;

/// Builds `count` failed windows against one reference by rotating a
/// known-failing window, so every job has distinct content with the same
/// distributional shift.
fn failing_windows(w: usize, count: usize, cfg: &KsConfig) -> (Vec<f64>, Vec<Vec<f64>>) {
    let pair = failing_kifer_pair(w, 0.03, cfg, 7, 100).expect("p = 3% fails at this size");
    let windows = (0..count)
        .map(|i| {
            let mut t = pair.test.clone();
            let shift = i % t.len().max(1);
            t.rotate_left(shift);
            t
        })
        .collect();
    (pair.reference, windows)
}

fn bench_batch_throughput(c: &mut Criterion) {
    let cfg = KsConfig::new(0.05).unwrap();
    let w = 10_000usize;
    let jobs = 64usize;
    let (reference, windows) = failing_windows(w, jobs, &cfg);
    let shared = SortedReference::new(&reference).unwrap();

    let mut group = c.benchmark_group("batch_shared_reference");
    group.sample_size(10);
    for &threads in &[1usize, 2, 4, 8] {
        let explainer = BatchExplainer::with_config(cfg).threads(threads);
        group.bench_with_input(
            BenchmarkId::new(&format!("explain_{jobs}_windows_w{w}"), threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    let results = explainer.explain_windows(black_box(&shared), &windows, None);
                    assert!(results.iter().all(Result::is_ok));
                    results
                })
            },
        );
    }
    group.finish();
}

/// Streaming throughput: the bounded-memory engine against the eager
/// batch, plus the Phase-1-only `size_only` mode.
fn bench_streaming(c: &mut Criterion) {
    let cfg = KsConfig::new(0.05).unwrap();
    let (r, windows) = failing_windows(10_000, 32, &cfg);
    let index = ReferenceIndex::new(&r).unwrap();

    let mut group = c.benchmark_group("streaming_batch");
    group.sample_size(10);
    for &threads in &[1usize, 4] {
        let streamer = StreamingBatchExplainer::with_config(cfg).threads(threads).buffer(8);
        group.bench_with_input(
            BenchmarkId::new("explain_32_windows_w10000", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    let summary = streamer.explain_stream(
                        black_box(&index),
                        windows.iter().cloned(),
                        None,
                        |r| assert!(r.result.is_ok()),
                    );
                    assert_eq!(summary.windows, windows.len());
                    summary
                })
            },
        );
        let sized = streamer.mode(moche_core::StreamMode::SizeOnly);
        group.bench_with_input(
            BenchmarkId::new("size_only_32_windows_w10000", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    let summary = sized.explain_stream(
                        black_box(&index),
                        windows.iter().cloned(),
                        None,
                        |r| assert!(r.result.is_ok()),
                    );
                    assert_eq!(summary.windows, windows.len());
                    summary
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batch_throughput, bench_streaming);
criterion_main!(benches);
