//! End-to-end explanation benchmarks in the shape of the paper's
//! Figure 5a: MOCHE against the always-reversing baselines (GRD, D3, STMP,
//! S2G) on TWT-like failed sliding-window tests as the window size grows.
//! (CS and GRC are benchmarked by the `fig5a_runtime_twt` binary — their
//! budgets make them orders of magnitude slower, which drowns Criterion's
//! sampling.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moche_baselines::{
    ExplainRequest, Greedy, KsExplainer, MocheExplainer, Series2GraphExplainer, Stomp, D3,
};
use moche_bench::runner::spectral_residual_preference;
use moche_core::{
    ConstructionStrategy, ExplainEngine, ExplanationArena, KsConfig, Moche, ReferenceIndex,
};
use moche_data::failing_kifer_pair;
use moche_data::nab::generate_family;
use moche_data::sliding::{failed_windows, sample_failed};
use moche_data::FailedTest;
use moche_data::NabFamily;
use std::hint::black_box;

fn one_failed_test(window: usize) -> Option<FailedTest> {
    let cfg = KsConfig::new(0.05).unwrap();
    for series in generate_family(NabFamily::Twt, 2021) {
        if series.values.len() < 2 * window {
            continue;
        }
        let failed = failed_windows(&series, window, &cfg, (window / 2).max(1));
        if let Some(t) = sample_failed(failed, 1, 5).into_iter().next() {
            return Some(t);
        }
    }
    None
}

fn bench_end_to_end(c: &mut Criterion) {
    let cfg = KsConfig::new(0.05).unwrap();
    let methods: Vec<Box<dyn KsExplainer>> = vec![
        Box::new(MocheExplainer::default()),
        Box::new(Greedy),
        Box::new(D3::default()),
        Box::new(Stomp::default()),
        Box::new(Series2GraphExplainer::default()),
    ];
    let mut group = c.benchmark_group("end_to_end_twt");
    group.sample_size(10);
    for &w in &[200usize, 500, 1_000] {
        let Some(case) = one_failed_test(w) else {
            continue;
        };
        let pref = spectral_residual_preference(&case.test);
        for method in &methods {
            group.bench_with_input(BenchmarkId::new(method.name(), w), &w, |b, _| {
                b.iter(|| {
                    let req = ExplainRequest {
                        reference: &case.reference,
                        test: &case.test,
                        cfg: &cfg,
                        preference: Some(&pref),
                        seed: 1,
                    };
                    black_box(method.explain(&req))
                })
            });
        }
    }
    group.finish();
}

/// The allocating one-shot paths against the scratch-reusing engine at the
/// scale the ROADMAP's monitoring workload runs at (`w = 10_000`). All three
/// produce byte-identical explanations; only the allocation behaviour and
/// the base-vector build (merge vs indexed splice) differ.
fn bench_engine_vs_oneshot(c: &mut Criterion) {
    let cfg = KsConfig::new(0.05).unwrap();
    let mut group = c.benchmark_group("end_to_end_engine");
    group.sample_size(10);
    for &w in &[1_000usize, 10_000] {
        let Some(pair) = failing_kifer_pair(w, 0.03, &cfg, 7, 100) else {
            continue;
        };
        let pref = spectral_residual_preference(&pair.test);
        let reference_strategy =
            Moche::with_config(cfg).construction(ConstructionStrategy::Reference);
        let oneshot = Moche::with_config(cfg);
        let mut engine = ExplainEngine::with_config(cfg);

        group.bench_with_input(BenchmarkId::new("moche_reference_alloc", w), &w, |b, _| {
            b.iter(|| {
                reference_strategy.explain(black_box(&pair.reference), &pair.test, &pref).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("moche_oneshot", w), &w, |b, _| {
            b.iter(|| oneshot.explain(black_box(&pair.reference), &pair.test, &pref).unwrap())
        });
        // The fully recycled steady state: indexed reference + output
        // arena. Zero heap allocations per iteration once warm.
        let index = ReferenceIndex::new(&pair.reference).unwrap();
        let mut arena = ExplanationArena::new();
        group.bench_with_input(BenchmarkId::new("engine_indexed_arena", w), &w, |b, _| {
            b.iter(|| {
                let e = engine
                    .explain_with_index_in(black_box(&index), &pair.test, &pref, &mut arena)
                    .unwrap();
                let k = e.size();
                arena.recycle(e);
                k
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_end_to_end, bench_engine_vs_oneshot);
criterion_main!(benches);
