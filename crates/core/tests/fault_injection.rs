//! Failpoint-driven fault scenarios for the batch and streaming pipelines.
//!
//! These tests compile only under `--features fault-injection`; they drive
//! the in-tree registry (`moche_core::fault`) to provoke the exact failures
//! the robustness layer claims to survive:
//!
//! * a worker panic at window `k` is isolated to window `k`;
//! * a feeder fault (error or panic) ends the stream in order, without
//!   losing windows that were already fed;
//! * a delivery-side panic shuts the pipeline down cleanly and resurfaces
//!   to the caller;
//! * dropped output reclaims degrade to extra allocations, never to wrong
//!   output.
//!
//! The registry is process-global, so every scenario runs as a sequential
//! phase of one `#[test]` — parallel test threads would race on the armed
//! failpoint names.

#![cfg(feature = "fault-injection")]

use moche_core::fault::{self, Fault};
use moche_core::{
    BatchExplainer, MocheError, ReferenceIndex, SortedReference, StreamResult,
    StreamingBatchExplainer, WindowReport,
};

fn setup(count: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let reference: Vec<f64> = (0..200u32).map(|i| f64::from(i % 10)).collect();
    let windows: Vec<Vec<f64>> = (0..count)
        .map(|w| (0..50).map(|i| f64::from(((i + w) % 7) as u32) + 5.0).collect())
        .collect();
    (reference, windows)
}

fn collect_stream(
    streamer: &StreamingBatchExplainer,
    index: &ReferenceIndex,
    windows: &[Vec<f64>],
) -> Vec<StreamResult> {
    let mut out = Vec::new();
    streamer.explain_stream(index, windows.to_vec(), None, |r| out.push(r));
    out
}

#[test]
fn injected_faults_are_contained() {
    let (reference, windows) = setup(12);
    let shared = SortedReference::new(&reference).unwrap();
    let index = ReferenceIndex::new(&reference).unwrap();

    // Clean baselines to diff every faulted run against.
    let batch_clean =
        BatchExplainer::new(0.05).unwrap().threads(1).explain_windows(&shared, &windows, None);
    let stream_clean = collect_stream(
        &StreamingBatchExplainer::new(0.05).unwrap().threads(1).buffer(2),
        &index,
        &windows,
    );

    batch_worker_panic_hits_only_window_k(&shared, &windows, &batch_clean);
    batch_parallel_worker_panic_hits_exactly_one_window(&shared, &windows, &batch_clean);
    stream_worker_panic_hits_only_window_k(&index, &windows, &stream_clean);
    feeder_error_ends_the_stream_in_order(&index, &windows, &stream_clean);
    feeder_panic_is_contained_as_end_of_stream(&index, &windows, &stream_clean);
    feeder_failpoint_fires_once_per_pull(&index, &windows);
    delivery_panic_resurfaces_after_clean_shutdown(&index, &windows);
    dropped_reclaims_degrade_without_changing_output(&index, &windows, &stream_clean);
}

/// Acceptance criterion: a panic injected at window `k` of a batch run
/// yields `WorkerPanicked` for window `k` and *only* window `k`.
fn batch_worker_panic_hits_only_window_k(
    shared: &SortedReference,
    windows: &[Vec<f64>],
    clean: &[Result<moche_core::Explanation, MocheError>],
) {
    let k = 5;
    // Sequential execution visits windows in order, so skipping `k` hits
    // targets exactly window `k`.
    fault::arm("pipeline.worker", Fault::Panic, k, 1);
    let results =
        BatchExplainer::new(0.05).unwrap().threads(1).explain_windows(shared, windows, None);
    fault::disarm("pipeline.worker");

    for (i, (got, want)) in results.iter().zip(clean).enumerate() {
        if i == k {
            match got {
                Err(MocheError::WorkerPanicked { window, message }) => {
                    assert_eq!(*window, k);
                    assert!(message.contains("pipeline.worker"), "message: {message}");
                }
                other => panic!("window {k} must report the injected panic, got {other:?}"),
            }
        } else {
            assert_eq!(got, want, "window {i} must be untouched by the fault");
        }
    }
}

/// On the multi-worker path the hit order races across threads, so the
/// fault targets "some one window": exactly one slot reports the panic
/// (naming its own index) and every other slot matches the clean run.
fn batch_parallel_worker_panic_hits_exactly_one_window(
    shared: &SortedReference,
    windows: &[Vec<f64>],
    clean: &[Result<moche_core::Explanation, MocheError>],
) {
    fault::arm("pipeline.worker", Fault::Panic, 0, 1);
    let results =
        BatchExplainer::new(0.05).unwrap().threads(4).explain_windows(shared, windows, None);
    fault::disarm("pipeline.worker");

    let mut panicked = 0usize;
    for (i, (got, want)) in results.iter().zip(clean).enumerate() {
        match got {
            Err(MocheError::WorkerPanicked { window, .. }) => {
                assert_eq!(*window, i, "the error must name its own window");
                panicked += 1;
            }
            other => assert_eq!(other, want, "window {i} must be untouched by the fault"),
        }
    }
    assert_eq!(panicked, 1, "one injected panic must cost exactly one window");
}

fn stream_worker_panic_hits_only_window_k(
    index: &ReferenceIndex,
    windows: &[Vec<f64>],
    clean: &[StreamResult],
) {
    let k = 7;
    fault::arm("pipeline.worker", Fault::Panic, k, 1);
    let streamer = StreamingBatchExplainer::new(0.05).unwrap().threads(1).buffer(2);
    let mut results = Vec::new();
    let summary = streamer.explain_stream(index, windows.to_vec(), None, |r| results.push(r));
    fault::disarm("pipeline.worker");

    assert_eq!(summary.windows, windows.len());
    assert_eq!(summary.panics, 1);
    assert_eq!(summary.errors, 1);
    for (i, (got, want)) in results.iter().zip(clean).enumerate() {
        assert_eq!(got.window, i, "delivery must stay in window order");
        if i == k {
            match &got.result {
                Err(MocheError::WorkerPanicked { window, message }) => {
                    assert_eq!(*window, k);
                    assert!(message.contains("pipeline.worker"), "message: {message}");
                }
                other => panic!("window {k} must report the injected panic, got {other:?}"),
            }
        } else {
            assert_eq!(got, want, "window {i} must be untouched by the fault");
        }
    }
}

/// `Fault::Error` at the feeder failpoint models an upstream source that
/// dies mid-stream: the run ends after the windows already fed, delivered
/// in order, on both the sequential and the parallel path.
fn feeder_error_ends_the_stream_in_order(
    index: &ReferenceIndex,
    windows: &[Vec<f64>],
    clean: &[StreamResult],
) {
    let fed = 4;
    for threads in [1usize, 3] {
        fault::arm("pipeline.feeder", Fault::Error, fed, usize::MAX);
        let streamer = StreamingBatchExplainer::new(0.05).unwrap().threads(threads).buffer(2);
        let mut results = Vec::new();
        let summary = streamer.explain_stream(index, windows.to_vec(), None, |r| results.push(r));
        fault::disarm("pipeline.feeder");

        assert_eq!(summary.windows, fed, "threads = {threads}");
        assert_eq!(results.len(), fed);
        assert_eq!(results, clean[..fed], "threads = {threads}");
    }
}

/// A *panicking* feeder (the source closure is caller code) is contained
/// as end-of-stream rather than tearing down the run, on the sequential and
/// the parallel path alike: every window fed before the panic is still
/// delivered in order.
fn feeder_panic_is_contained_as_end_of_stream(
    index: &ReferenceIndex,
    windows: &[Vec<f64>],
    clean: &[StreamResult],
) {
    let fed = 6;
    for threads in [1usize, 3] {
        fault::arm("pipeline.feeder", Fault::Panic, fed, 1);
        let streamer = StreamingBatchExplainer::new(0.05).unwrap().threads(threads).buffer(2);
        let mut results = Vec::new();
        let summary = streamer.explain_stream(index, windows.to_vec(), None, |r| results.push(r));
        fault::disarm("pipeline.feeder");

        assert_eq!(summary.windows, fed, "threads = {threads}");
        assert_eq!(results, clean[..fed], "threads = {threads}");
    }
}

/// Every pull of the source passes the feeder failpoint exactly once:
/// with `skip` hits let through, the source is called `skip` times and
/// never again. That holds for the pulls that decide the run's shape too,
/// so `skip = 1` on a parallel stream is a one-window run.
fn feeder_failpoint_fires_once_per_pull(index: &ReferenceIndex, windows: &[Vec<f64>]) {
    for threads in [1usize, 4] {
        for skip in [0, 1, 2, 7] {
            fault::arm("pipeline.feeder", Fault::Error, skip, 1);
            let mut pulls = 0usize;
            let source = |buf: &mut Vec<f64>| {
                buf.clear();
                buf.extend_from_slice(&windows[pulls % windows.len()]);
                pulls += 1;
                true
            };
            let streamer = StreamingBatchExplainer::new(0.05).unwrap().threads(threads).buffer(2);
            let summary = streamer.explain_source(index, source, None, |_| {});
            fault::disarm("pipeline.feeder");

            assert_eq!(pulls, skip, "threads = {threads}, skip = {skip}");
            assert_eq!(summary.windows, skip);
            assert_eq!(summary.threads, skip.min(threads), "threads = {threads}, skip = {skip}");
        }
    }
}

/// A panic on the delivery side (reorder ring / caller's sink) cannot be
/// swallowed — it is the caller's own bug — but it must not strand the
/// feeder or the workers either: the pipeline winds down every thread,
/// then re-raises the payload.
fn delivery_panic_resurfaces_after_clean_shutdown(index: &ReferenceIndex, windows: &[Vec<f64>]) {
    fault::arm("pipeline.reorder", Fault::Panic, 3, 1);
    let streamer = StreamingBatchExplainer::new(0.05).unwrap().threads(3).buffer(2);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        streamer.explain_stream(index, windows.to_vec(), None, |_| {});
    }));
    fault::disarm("pipeline.reorder");

    let payload = outcome.expect_err("the delivery panic must reach the caller");
    let message = fault::panic_message(payload.as_ref());
    assert!(message.contains("pipeline.reorder"), "message: {message}");
    // Reaching this line at all is the liveness half of the assertion:
    // the thread scope joined instead of deadlocking on full channels.
}

/// Dropping every consumed output instead of handing it back to the
/// workers' arenas costs allocations, not correctness: output must be
/// bit-identical.
fn dropped_reclaims_degrade_without_changing_output(
    index: &ReferenceIndex,
    windows: &[Vec<f64>],
    clean: &[StreamResult],
) {
    fault::arm("pipeline.reclaim", Fault::Error, 0, usize::MAX);
    let streamer = StreamingBatchExplainer::new(0.05).unwrap().threads(3).buffer(2);
    let mut results = Vec::new();
    let summary = streamer.explain_source(
        index,
        {
            let mut i = 0usize;
            move |buf: &mut Vec<f64>| {
                let Some(w) = windows.get(i) else { return false };
                buf.clear();
                buf.extend_from_slice(w);
                i += 1;
                true
            }
        },
        None,
        |r| results.push(r.clone()),
    );
    fault::disarm("pipeline.reclaim");

    assert_eq!(summary.windows, windows.len());
    assert_eq!(results, clean);
    assert!(results.iter().all(|r| matches!(r.result, Ok(WindowReport::Explained(_)))));
}
