//! Failpoint-driven fault scenarios for the 2-D streaming path.
//!
//! Compiles only under `--features fault-injection`. Mirrors the 1-D suite
//! in `crates/core/tests/fault_injection.rs`: the registry is
//! process-global, so every scenario runs as a sequential phase of one
//! `#[test]`.

#![cfg(feature = "fault-injection")]

use moche_core::fault::{self, Fault};
use moche_core::MocheError;
use moche_multidim::{Explanation2d, Ks2dConfig, Point2, RankIndex2d, Stream2dExplainer};

fn grid(n: usize, ox: f64, oy: f64) -> Vec<Point2> {
    (0..n)
        .map(|i| Point2::new(((i * 7) % 13) as f64 * 0.31 + ox, ((i * 11) % 17) as f64 * 0.23 + oy))
        .collect()
}

fn setup(count: usize) -> (Vec<Point2>, Vec<Vec<Point2>>) {
    let reference = grid(120, 0.0, 0.0);
    let windows: Vec<Vec<Point2>> = (0..count)
        .map(|w| {
            let mut t = grid(60, 0.01 * (w as f64 + 1.0), 0.02);
            t.extend(grid(18 + (w % 5), 50.0, 50.0));
            t
        })
        .collect();
    (reference, windows)
}

fn vec_source(windows: Vec<Vec<Point2>>) -> impl FnMut(&mut Vec<Point2>) -> bool {
    let mut queue = windows.into_iter();
    move |out: &mut Vec<Point2>| match queue.next() {
        Some(points) => {
            out.extend(points);
            true
        }
        None => false,
    }
}

/// Every window's result, in delivery order, from a stream at `threads`.
fn collect(
    cfg: Ks2dConfig,
    threads: usize,
    index: &RankIndex2d,
    windows: &[Vec<Point2>],
) -> Vec<Result<Explanation2d, MocheError>> {
    let mut results = Vec::new();
    Stream2dExplainer::with_config(cfg).threads(threads).explain_source(
        index,
        vec_source(windows.to_vec()),
        None,
        |delivered| results.push(delivered.result.clone()),
    );
    results
}

#[test]
fn injected_2d_faults_are_contained() {
    let (reference, windows) = setup(10);
    let index = RankIndex2d::new(&reference).unwrap();
    let cfg = Ks2dConfig::new(0.05).unwrap();

    // Clean baseline to diff every faulted run against.
    let clean = collect(cfg, 1, &index, &windows);
    assert!(clean.iter().all(Result::is_ok));

    worker_panic_hits_only_window_k(cfg, &index, &windows, &clean);
    parallel_worker_panic_hits_exactly_one_window(cfg, &index, &windows, &clean);
    stream2d_worker_panic_is_isolated_and_tallied(cfg, &index, &windows, &clean);
    stream2d_feeder_error_ends_the_stream_in_order(cfg, &index, &windows, &clean);
}

/// A panic injected at window `k` of a sequential 2-D run yields
/// `WorkerPanicked` for window `k` and *only* window `k`, and the worker's
/// rebuilt engine keeps producing baseline-identical output afterwards.
fn worker_panic_hits_only_window_k(
    cfg: Ks2dConfig,
    index: &RankIndex2d,
    windows: &[Vec<Point2>],
    clean: &[Result<Explanation2d, MocheError>],
) {
    let k = 4;
    fault::arm("pipeline.worker", Fault::Panic, k, 1);
    let results = collect(cfg, 1, index, windows);
    fault::disarm("pipeline.worker");

    for (i, (got, want)) in results.iter().zip(clean).enumerate() {
        if i == k {
            match got {
                Err(MocheError::WorkerPanicked { window, message }) => {
                    assert_eq!(*window, k);
                    assert!(message.contains("pipeline.worker"), "message: {message}");
                }
                other => panic!("window {k}: expected WorkerPanicked, got {other:?}"),
            }
        } else {
            assert_eq!(
                got.as_ref().unwrap().indices,
                want.as_ref().unwrap().indices,
                "window {i} diverged from the clean baseline"
            );
        }
    }
}

/// Under parallel workers the panic still costs exactly one window (which
/// one depends on scheduling), and every other window matches the baseline.
fn parallel_worker_panic_hits_exactly_one_window(
    cfg: Ks2dConfig,
    index: &RankIndex2d,
    windows: &[Vec<Point2>],
    clean: &[Result<Explanation2d, MocheError>],
) {
    fault::arm("pipeline.worker", Fault::Panic, 3, 1);
    let results = collect(cfg, 4, index, windows);
    fault::disarm("pipeline.worker");

    let mut panicked = 0usize;
    for (i, got) in results.iter().enumerate() {
        match got {
            Err(MocheError::WorkerPanicked { window, .. }) => {
                assert_eq!(*window, i);
                panicked += 1;
            }
            Ok(e) => assert_eq!(e.indices, clean[i].as_ref().unwrap().indices),
            other => panic!("window {i}: unexpected {other:?}"),
        }
    }
    assert_eq!(panicked, 1, "exactly one window pays for the panic");
}

/// A streaming worker panic is delivered in order as that window's error,
/// counted in `summary.panics`, and no other window is disturbed.
fn stream2d_worker_panic_is_isolated_and_tallied(
    cfg: Ks2dConfig,
    index: &RankIndex2d,
    windows: &[Vec<Point2>],
    clean: &[Result<Explanation2d, MocheError>],
) {
    let k = 6;
    fault::arm("pipeline.worker", Fault::Panic, k, 1);
    let mut seen: Vec<(usize, bool)> = Vec::new();
    let summary = Stream2dExplainer::with_config(cfg).threads(1).explain_source(
        index,
        vec_source(windows.to_vec()),
        None,
        |delivered| {
            if let Err(MocheError::WorkerPanicked { window, message }) = &delivered.result {
                assert_eq!(*window, k);
                assert!(message.contains("pipeline.worker"), "message: {message}");
            } else {
                let want = clean[delivered.window].as_ref().unwrap();
                assert_eq!(delivered.result.as_ref().unwrap().indices, want.indices);
            }
            seen.push((delivered.window, delivered.result.is_ok()));
        },
    );
    fault::disarm("pipeline.worker");

    assert_eq!(summary.windows, windows.len());
    assert_eq!(summary.panics, 1);
    assert_eq!(summary.errors, 1);
    assert_eq!(summary.explained, windows.len() - 1);
    let order: Vec<usize> = seen.iter().map(|&(w, _)| w).collect();
    assert_eq!(order, (0..windows.len()).collect::<Vec<_>>(), "in-order delivery");
    assert!(seen.iter().all(|&(w, ok)| ok == (w != k)));
}

/// A feeder error stops the stream after the windows already fed, which are
/// still delivered in order with baseline-identical results.
fn stream2d_feeder_error_ends_the_stream_in_order(
    cfg: Ks2dConfig,
    index: &RankIndex2d,
    windows: &[Vec<Point2>],
    clean: &[Result<Explanation2d, MocheError>],
) {
    let fed = 5;
    fault::arm("pipeline.feeder", Fault::Error, fed, 1);
    let mut delivered: Vec<usize> = Vec::new();
    let summary = Stream2dExplainer::with_config(cfg).threads(2).explain_source(
        index,
        vec_source(windows.to_vec()),
        None,
        |result| {
            let want = clean[result.window].as_ref().unwrap();
            assert_eq!(result.result.as_ref().unwrap().indices, want.indices);
            delivered.push(result.window);
        },
    );
    fault::disarm("pipeline.feeder");

    assert_eq!(summary.windows, fed, "only the windows fed before the fault");
    assert_eq!(summary.explained, fed);
    assert_eq!(delivered, (0..fed).collect::<Vec<_>>());
}
