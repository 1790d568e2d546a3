//! Bounded-memory streaming batch explanation: explain windows as they
//! arrive instead of buffering them all up front — the streaming front end
//! of [`crate::pipeline`].
//!
//! [`StreamingBatchExplainer`] takes windows from an iterator or a
//! fill-style [`WindowSource`] (a lazily-parsed file, a socket, a
//! generator), explains them against a shared [`ReferenceIndex`] with the
//! batch's 1-D kernel, and delivers results in arrival order with
//! `O((buffer + threads) · m)` residency. The [`explain_source`] entry
//! points recycle every per-window buffer — windows are refilled into
//! drained `Vec<f64>`s and consumed outputs return to the workers' arenas —
//! so a warm single-threaded run performs **zero heap allocations per
//! window** (gated by `BENCH_core.json` and the `alloc_count.rs` tests).
//! [`StreamMode::SizeOnly`] runs Phase 1 only and reports just `k`.
//!
//! [`explain_source`]: StreamingBatchExplainer::explain_source

use crate::batch::{ExplainKernel, WindowPreferences};
pub use crate::batch::{ScoreFn, ScoreIntoFn};
use crate::error::MocheError;
use crate::ks::KsConfig;
use crate::moche::Explanation;
use crate::phase1::SizeSearch;
pub use crate::pipeline::StreamSummary;
use crate::pipeline::{refill, Pipeline, WindowKernel};
use crate::ref_index::ReferenceIndex;

/// What the streaming engine computes per window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamMode {
    /// Full MOCHE: Phase 1 + Phase 2, yielding an [`Explanation`].
    #[default]
    Explain,
    /// Phase 1 only, yielding the explanation size ([`SizeSearch`]) —
    /// Phase 2 is skipped entirely.
    SizeOnly,
}

/// A producer of test windows that fills caller-recycled buffers.
///
/// Where an `Iterator<Item = Vec<f64>>` must allocate every window it
/// yields, a `WindowSource` is handed a recycled buffer to overwrite — the
/// producer side of the constant-memory streaming loop (see
/// [`StreamingBatchExplainer::explain_source`]). Any
/// `FnMut(&mut Vec<f64>) -> bool` closure is a `WindowSource`.
pub trait WindowSource {
    /// Overwrites `window` with the next window and returns `true`, or
    /// returns `false` at the end of the stream (leaving `window` in an
    /// unspecified state).
    fn fill(&mut self, window: &mut Vec<f64>) -> bool;
}

impl<F: FnMut(&mut Vec<f64>) -> bool> WindowSource for F {
    fn fill(&mut self, window: &mut Vec<f64>) -> bool {
        self(window)
    }
}

/// The successful payload of one streamed window.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // Explained carries the full Explanation by design
pub enum WindowReport {
    /// The full explanation ([`StreamMode::Explain`]).
    Explained(Explanation),
    /// Phase-1 size only ([`StreamMode::SizeOnly`]).
    Size(SizeSearch),
}

/// One delivered window outcome. Results arrive in window (arrival) order.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResult {
    /// 0-based arrival index of the window.
    pub window: usize,
    /// The window's outcome; windows that pass the KS test report
    /// [`MocheError::TestAlreadyPasses`], like the batch API.
    pub result: Result<WindowReport, MocheError>,
}

/// The streaming kernel: the batch's 1-D kernel plus the size-only mode.
struct StreamKernel<'a> {
    kernel: ExplainKernel<'a>,
    mode: StreamMode,
}

impl WindowKernel for StreamKernel<'_> {
    type Point = f64;
    type Output = WindowReport;

    fn process(&mut self, window_id: usize, window: &[f64]) -> Result<WindowReport, MocheError> {
        match self.mode {
            StreamMode::SizeOnly => self
                .kernel
                .engine
                .size_with_index(self.kernel.index, window)
                .map(WindowReport::Size),
            StreamMode::Explain => {
                self.kernel.process(window_id, window).map(WindowReport::Explained)
            }
        }
    }

    fn reclaim(&mut self, report: WindowReport) {
        if let WindowReport::Explained(explanation) = report {
            self.kernel.reclaim(explanation);
        }
    }
}

/// A bounded-memory streaming explainer over an indexed reference.
///
/// # Examples
///
/// ```
/// use moche_core::{ReferenceIndex, StreamingBatchExplainer, WindowReport};
///
/// let reference: Vec<f64> = (0..64).map(|i| f64::from(i % 8)).collect();
/// let index = ReferenceIndex::new(&reference).unwrap();
/// let windows = (0..100u32).map(|w| {
///     (0..32).map(|i| f64::from((i + w) % 8) + 4.0).collect::<Vec<f64>>()
/// });
///
/// let streamer = StreamingBatchExplainer::new(0.05).unwrap().buffer(4);
/// let mut sizes = Vec::new();
/// let summary = streamer.explain_stream(&index, windows, None, |r| {
///     if let Ok(WindowReport::Explained(e)) = r.result {
///         sizes.push(e.size());
///     }
/// });
/// assert_eq!(summary.windows, 100);
/// assert_eq!(summary.explained, sizes.len());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StreamingBatchExplainer {
    cfg: KsConfig,
    pipeline: Pipeline,
    mode: StreamMode,
}

impl StreamingBatchExplainer {
    /// Creates a streaming explainer for significance level `alpha`, using
    /// all available cores and an automatic buffer bound.
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::InvalidAlpha`] unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> Result<Self, MocheError> {
        Ok(Self::with_config(KsConfig::new(alpha)?))
    }

    /// Creates a streaming explainer from an existing [`KsConfig`].
    pub fn with_config(cfg: KsConfig) -> Self {
        Self { cfg, pipeline: Pipeline::default(), mode: StreamMode::default() }
    }

    /// Caps the worker-thread count. `0` (the default) means "one per
    /// available core".
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.pipeline.threads = threads;
        self
    }

    /// Bounds the number of windows buffered ahead of the workers. `0`
    /// (the default) picks `2 × threads`, minimum 4. Total memory held by a
    /// run is `O((buffer + threads) · window size)`.
    #[must_use]
    pub fn buffer(mut self, buffer: usize) -> Self {
        self.pipeline.buffer = buffer;
        self
    }

    /// Selects what to compute per window (full explanations vs Phase-1
    /// sizes only).
    #[must_use]
    pub fn mode(mut self, mode: StreamMode) -> Self {
        self.mode = mode;
        self
    }

    /// The KS configuration in use.
    #[inline]
    pub fn config(&self) -> &KsConfig {
        &self.cfg
    }

    /// The number of worker threads a run would actually use (the
    /// configured cap, or the core count for `0`). `1` means runs will be
    /// sequential.
    pub fn effective_threads(&self) -> usize {
        self.pipeline.workers(None)
    }

    /// Streams every window through the worker pool, calling `on_result`
    /// once per window **in arrival order**. `score`, when given, derives
    /// each window's preference inside the workers
    /// ([`StreamMode::SizeOnly`] ignores it — Phase 1 needs no
    /// preference); `None` uses the identity order.
    ///
    /// The callback takes ownership of each result. For the fully recycled
    /// constant-memory loop (windows filled into reused buffers, outputs
    /// borrowed and reclaimed), see
    /// [`explain_source`](Self::explain_source).
    ///
    /// Results are byte-identical to [`crate::batch::BatchExplainer`] over
    /// the same windows (enforced by `tests/proptest_indexed.rs`).
    pub fn explain_stream<I, F>(
        &self,
        reference: &ReferenceIndex,
        windows: I,
        score: Option<ScoreFn<'_>>,
        mut on_result: F,
    ) -> StreamSummary
    where
        I: IntoIterator<Item = Vec<f64>>,
        F: FnMut(StreamResult),
    {
        let mut windows = windows.into_iter();
        let preferences = score.map_or(WindowPreferences::Identity, WindowPreferences::Scored);
        self.run(
            reference,
            preferences,
            |_| windows.next(),
            |window, result| {
                on_result(StreamResult { window, result });
                None
            },
        )
    }

    /// [`explain_stream`](Self::explain_stream) over a fill-style
    /// [`WindowSource`], with every per-window buffer recycled:
    ///
    /// * the source overwrites reused `Vec<f64>` buffers instead of
    ///   allocating windows — drained buffers are returned to the feed;
    /// * results are lent to `on_result` by reference, and consumed
    ///   explanation outputs are reclaimed into the workers' arenas.
    ///
    /// After warm-up a single-threaded run performs zero heap allocations
    /// per window; output is identical to
    /// [`explain_stream`](Self::explain_stream) over the same windows.
    pub fn explain_source<S, F>(
        &self,
        reference: &ReferenceIndex,
        mut source: S,
        score: Option<ScoreFn<'_>>,
        on_result: F,
    ) -> StreamSummary
    where
        S: WindowSource,
        F: FnMut(&StreamResult),
    {
        let preferences = score.map_or(WindowPreferences::Identity, WindowPreferences::Scored);
        self.run(reference, preferences, refill(move |w| source.fill(w)), lend(on_result))
    }

    /// [`explain_source`](Self::explain_source) with an in-place score
    /// callback: each window's preference is written into a worker-recycled
    /// [`PreferenceList`](crate::PreferenceList) ([`ScoreIntoFn`], e.g. via
    /// [`PreferenceList::fill_from_scores_desc`](crate::PreferenceList::fill_from_scores_desc))
    /// instead of being allocated per window. With this entry point
    /// *scored* streams join the zero-allocation steady state of
    /// identity-preference streams (gated by the
    /// `scored_stream_allocates_nothing_when_warm` test); results are
    /// identical to [`explain_source`](Self::explain_source) with the
    /// equivalent owning callback.
    pub fn explain_source_scored<S, F>(
        &self,
        reference: &ReferenceIndex,
        mut source: S,
        score: ScoreIntoFn<'_>,
        on_result: F,
    ) -> StreamSummary
    where
        S: WindowSource,
        F: FnMut(&StreamResult),
    {
        let preferences = WindowPreferences::ScoredInto(score);
        self.run(reference, preferences, refill(move |w| source.fill(w)), lend(on_result))
    }

    /// Shared driver behind the public entry points: one [`StreamKernel`]
    /// per worker over the pipeline.
    fn run<H: AsRef<[f64]> + Send>(
        &self,
        reference: &ReferenceIndex,
        preferences: WindowPreferences<'_>,
        feed: impl FnMut(Option<H>) -> Option<H>,
        sink: impl FnMut(usize, Result<WindowReport, MocheError>) -> Option<WindowReport>,
    ) -> StreamSummary {
        let kernel = || StreamKernel {
            kernel: ExplainKernel::new(self.cfg, reference, preferences),
            mode: self.mode,
        };
        self.pipeline.run(None, kernel, feed, sink)
    }
}

/// A sink that lends each result to `on_result`, then hands the output
/// back for reclaiming.
fn lend(
    mut on_result: impl FnMut(&StreamResult),
) -> impl FnMut(usize, Result<WindowReport, MocheError>) -> Option<WindowReport> {
    move |window, result| {
        let delivered = StreamResult { window, result };
        on_result(&delivered);
        delivered.result.ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_vector::SortedReference;
    use crate::batch::BatchExplainer;
    use crate::preference::PreferenceList;

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
    ) -> (Vec<StreamResult>, StreamSummary) {
        let mut out = Vec::new();
        let summary = streamer.explain_stream(index, windows.to_vec(), None, |r| out.push(r));
        (out, summary)
    }

    /// A slice-backed [`WindowSource`] that copies each window into the
    /// recycled buffer — the zero-allocation producer shape.
    fn slice_source(windows: &[Vec<f64>]) -> impl WindowSource + '_ {
        let mut i = 0usize;
        move |buf: &mut Vec<f64>| {
            let Some(w) = windows.get(i) else { return false };
            buf.clear();
            buf.extend_from_slice(w);
            i += 1;
            true
        }
    }

    #[test]
    fn stream_matches_batch_and_arrives_in_order() {
        let (r, windows) = setup(24);
        let index = ReferenceIndex::new(&r).unwrap();
        let shared = SortedReference::new(&r).unwrap();
        let batch = BatchExplainer::new(0.05).unwrap().threads(4);
        let expected = batch.explain_windows(&shared, &windows, None);
        for threads in [1, 4] {
            let streamer = StreamingBatchExplainer::new(0.05).unwrap().threads(threads).buffer(3);
            let (results, summary) = collect_stream(&streamer, &index, &windows);
            assert_eq!(summary.windows, windows.len());
            assert_eq!(summary.threads, threads);
            assert_eq!(results.len(), windows.len());
            for (i, (res, exp)) in results.iter().zip(&expected).enumerate() {
                assert_eq!(res.window, i, "results must arrive in window order");
                match (&res.result, exp) {
                    (Ok(WindowReport::Explained(a)), Ok(b)) => assert_eq!(a, b),
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    other => panic!("divergence at window {i}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn recycled_source_matches_owned_stream() {
        let (r, windows) = setup(20);
        let index = ReferenceIndex::new(&r).unwrap();
        for threads in [1, 4] {
            let streamer = StreamingBatchExplainer::new(0.05).unwrap().threads(threads).buffer(2);
            let (expected, _) = collect_stream(&streamer, &index, &windows);
            let mut got = Vec::new();
            let summary = streamer.explain_source(&index, slice_source(&windows), None, |r| {
                got.push(r.clone());
            });
            assert_eq!(summary.windows, windows.len());
            assert_eq!(summary.explained, windows.len());
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn size_only_matches_full_phase1() {
        let (r, windows) = setup(10);
        let index = ReferenceIndex::new(&r).unwrap();
        let full = StreamingBatchExplainer::new(0.05).unwrap().threads(2).buffer(2);
        let sized = full.mode(StreamMode::SizeOnly);
        let (full_results, _) = collect_stream(&full, &index, &windows);
        let (size_results, summary) = collect_stream(&sized, &index, &windows);
        assert_eq!(summary.explained, windows.len());
        for (f, s) in full_results.iter().zip(&size_results) {
            match (&f.result, &s.result) {
                (Ok(WindowReport::Explained(e)), Ok(WindowReport::Size(k))) => {
                    assert_eq!(&e.phase1, k);
                }
                other => panic!("divergence: {other:?}"),
            }
        }
    }

    #[test]
    fn passing_and_erroring_windows_are_tallied() {
        let (r, mut windows) = setup(4);
        windows.push(r.clone()); // passes the KS test
        windows.push(vec![]); // EmptyTest error
        let index = ReferenceIndex::new(&r).unwrap();
        let streamer = StreamingBatchExplainer::new(0.05).unwrap().threads(2).buffer(2);
        let (results, summary) = collect_stream(&streamer, &index, &windows);
        assert_eq!(summary.windows, 6);
        assert_eq!(summary.explained, 4);
        assert_eq!(summary.passing, 1);
        assert_eq!(summary.errors, 1);
        assert!(matches!(results[4].result, Err(MocheError::TestAlreadyPasses { .. })));
        assert!(matches!(results[5].result, Err(MocheError::EmptyTest)));
    }

    /// The satellite coverage for the recycling paths: a stream mixing
    /// explainable windows, NaN windows (hard errors), passing windows and
    /// empty windows must deliver in order with correct summary counts —
    /// and identically at every thread count.
    #[test]
    fn mixed_stream_delivers_in_order_with_correct_counts() {
        let (r, good) = setup(6);
        let index = ReferenceIndex::new(&r).unwrap();
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for (i, w) in good.into_iter().enumerate() {
            windows.push(w); // explainable
            match i % 3 {
                0 => windows.push(vec![f64::NAN, 1.0, 2.0, 3.0]), // NonFiniteValue
                1 => windows.push(r.clone()),                     // passes
                _ => windows.push(vec![]),                        // EmptyTest
            }
        }
        let mut reference_run: Option<Vec<StreamResult>> = None;
        for threads in [1, 3] {
            let streamer = StreamingBatchExplainer::new(0.05).unwrap().threads(threads).buffer(2);
            let mut got: Vec<StreamResult> = Vec::new();
            let summary = streamer.explain_source(&index, slice_source(&windows), None, |r| {
                got.push(r.clone());
            });
            assert_eq!(summary.windows, 12);
            assert_eq!(summary.explained, 6);
            assert_eq!(summary.passing, 2);
            assert_eq!(summary.errors, 4, "2 NaN windows + 2 empty windows");
            assert_eq!(summary.explained + summary.passing + summary.errors, summary.windows);
            for (i, res) in got.iter().enumerate() {
                assert_eq!(res.window, i, "in-order delivery (threads = {threads})");
            }
            assert!(matches!(got[1].result, Err(MocheError::NonFiniteValue { .. })));
            assert!(matches!(got[3].result, Err(MocheError::TestAlreadyPasses { .. })));
            assert!(matches!(got[5].result, Err(MocheError::EmptyTest)));
            match &reference_run {
                None => reference_run = Some(got),
                Some(expected) => {
                    // NaN payloads never compare equal, so NonFiniteValue
                    // errors are matched structurally.
                    for (x, y) in got.iter().zip(expected) {
                        assert_eq!(x.window, y.window);
                        match (&x.result, &y.result) {
                            (
                                Err(MocheError::NonFiniteValue { which: w1, index: i1, .. }),
                                Err(MocheError::NonFiniteValue { which: w2, index: i2, .. }),
                            ) => assert!(w1 == w2 && i1 == i2),
                            (a, b) => assert_eq!(a, b, "threads must not change results"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn score_callback_runs_in_workers() {
        let (r, windows) = setup(8);
        let index = ReferenceIndex::new(&r).unwrap();
        let shared = SortedReference::new(&r).unwrap();
        let prefs: Vec<PreferenceList> =
            windows.iter().map(|w| PreferenceList::reversed(w.len())).collect();
        let expected =
            BatchExplainer::new(0.05).unwrap().explain_windows(&shared, &windows, Some(&prefs));
        let streamer = StreamingBatchExplainer::new(0.05).unwrap().threads(3).buffer(2);
        let mut results = Vec::new();
        let score: ScoreFn<'_> = &|_, w| Ok(PreferenceList::reversed(w.len()));
        streamer.explain_stream(&index, windows.clone(), Some(score), |r| results.push(r));
        for (res, exp) in results.iter().zip(&expected) {
            match (&res.result, exp) {
                (Ok(WindowReport::Explained(a)), Ok(b)) => assert_eq!(a, b),
                other => panic!("divergence: {other:?}"),
            }
        }
    }

    #[test]
    fn scored_into_matches_owning_score_callback() {
        let (r, windows) = setup(10);
        let index = ReferenceIndex::new(&r).unwrap();
        for threads in [1, 3] {
            let streamer = StreamingBatchExplainer::new(0.05).unwrap().threads(threads).buffer(2);
            let mut expected = Vec::new();
            let owning: ScoreFn<'_> = &|_, w| {
                let mut scores: Vec<f64> = w.to_vec();
                scores.iter_mut().for_each(|s| *s = -*s);
                PreferenceList::from_scores_desc(&scores)
            };
            streamer.explain_source(&index, slice_source(&windows), Some(owning), |r| {
                expected.push(r.clone());
            });
            let mut got = Vec::new();
            let recycled: ScoreIntoFn<'_> = &|_, w, pref| {
                let scores: Vec<f64> = w.iter().map(|&v| -v).collect();
                pref.fill_from_scores_desc(&scores)
            };
            let summary =
                streamer.explain_source_scored(&index, slice_source(&windows), recycled, |r| {
                    got.push(r.clone());
                });
            assert_eq!(summary.windows, windows.len());
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn scored_into_errors_land_in_the_window_slot() {
        let (r, windows) = setup(3);
        let index = ReferenceIndex::new(&r).unwrap();
        let streamer = StreamingBatchExplainer::new(0.05).unwrap().threads(1);
        let score: ScoreIntoFn<'_> = &|i, w, pref| {
            if i == 1 {
                pref.fill_from_scores_desc(&[f64::NAN])
            } else {
                pref.fill_identity(w.len());
                Ok(())
            }
        };
        let mut got = Vec::new();
        streamer.explain_source_scored(&index, slice_source(&windows), score, |r| {
            got.push(r.result.is_ok());
        });
        assert_eq!(got, vec![true, false, true]);
    }

    #[test]
    fn panicking_score_is_isolated_to_its_window() {
        let (r, windows) = setup(8);
        let index = ReferenceIndex::new(&r).unwrap();
        let score: ScoreFn<'_> = &|i, w| {
            if i == 3 {
                panic!("score bug at window {i}");
            }
            Ok(PreferenceList::identity(w.len()))
        };
        for threads in [1, 3] {
            let streamer = StreamingBatchExplainer::new(0.05).unwrap().threads(threads).buffer(2);
            let mut got = Vec::new();
            let summary = streamer.explain_stream(&index, windows.clone(), Some(score), |r| {
                got.push(r);
            });
            assert_eq!(summary.windows, windows.len(), "threads = {threads}");
            assert_eq!(summary.panics, 1);
            assert_eq!(summary.errors, 1);
            assert_eq!(summary.explained, windows.len() - 1);
            for (i, res) in got.iter().enumerate() {
                assert_eq!(res.window, i, "in-order delivery survives the panic");
                if i == 3 {
                    match &res.result {
                        Err(MocheError::WorkerPanicked { window, message }) => {
                            assert_eq!(*window, 3);
                            assert!(message.contains("score bug"), "{message}");
                        }
                        other => panic!("expected WorkerPanicked, got {other:?}"),
                    }
                } else {
                    assert!(res.result.is_ok(), "window {i} must be unaffected");
                }
            }
        }
    }

    #[test]
    fn sink_panic_shuts_the_pipeline_down_and_resurfaces() {
        // A panicking result callback must neither strand the workers nor
        // be swallowed: the run winds down and the panic reaches the
        // caller.
        let (r, windows) = setup(40);
        let index = ReferenceIndex::new(&r).unwrap();
        for threads in [1, 3] {
            let streamer = StreamingBatchExplainer::new(0.05).unwrap().threads(threads).buffer(2);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                streamer.explain_stream(&index, windows.clone(), None, |r| {
                    if r.window == 5 {
                        panic!("sink bug");
                    }
                });
            }));
            let payload = caught.expect_err("the sink panic must reach the caller");
            let message = crate::fault::panic_message(payload.as_ref());
            assert!(message.contains("sink bug"), "{message} (threads = {threads})");
        }
    }

    #[test]
    fn panicking_source_ends_a_parallel_stream_early() {
        // The source is caller code; a panic there is contained as
        // end-of-stream at every thread count, so the windows already fed
        // are still explained and delivered in order.
        let (r, windows) = setup(6);
        let index = ReferenceIndex::new(&r).unwrap();
        for threads in [1, 3] {
            let mut fed = 0usize;
            let source = |buf: &mut Vec<f64>| {
                if fed == 3 {
                    panic!("source bug after 3 windows");
                }
                buf.clear();
                buf.extend_from_slice(&windows[fed]);
                fed += 1;
                true
            };
            let streamer = StreamingBatchExplainer::new(0.05).unwrap().threads(threads).buffer(2);
            let mut got = Vec::new();
            let summary = streamer.explain_source(&index, source, None, |r| {
                got.push(r.window);
            });
            assert_eq!(summary.windows, 3, "exactly the windows fed before the panic");
            assert_eq!(summary.explained, 3);
            assert_eq!(got, vec![0, 1, 2], "threads = {threads}");
        }
    }

    #[test]
    fn empty_stream_is_fine() {
        let index = ReferenceIndex::new(&[1.0, 2.0]).unwrap();
        let streamer = StreamingBatchExplainer::new(0.05).unwrap();
        let summary = streamer.explain_stream(&index, Vec::<Vec<f64>>::new(), None, |_| {
            panic!("no results expected")
        });
        assert_eq!(summary.windows, 0);
        let summary = streamer.explain_source(
            &index,
            |_: &mut Vec<f64>| false,
            None,
            |_: &StreamResult| panic!("no results expected"),
        );
        assert_eq!(summary.windows, 0);
    }
}
