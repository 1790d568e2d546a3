//! Streaming 2-D explanation — the bounded-memory front end of
//! `moche_core::pipeline` beside `moche_core::StreamingBatchExplainer`.
//! Windows are refilled into recycled buffers from a [`Window2dSource`],
//! consumed explanations return to the workers' arenas, results arrive in
//! window order, and the run is summarized in core's [`StreamSummary`].
//!
//! ```
//! use moche_multidim::{Point2, RankIndex2d, Stream2dExplainer};
//!
//! let reference: Vec<Point2> =
//!     (0..80).map(|i| Point2::new(f64::from(i % 9), f64::from(i % 7))).collect();
//! let index = RankIndex2d::new(&reference).unwrap();
//! let mut remaining = 3usize;
//! let source = |window: &mut Vec<Point2>| {
//!     if remaining == 0 {
//!         return false;
//!     }
//!     remaining -= 1;
//!     window.extend(reference.iter().take(40));
//!     window.extend((0..25).map(|i| Point2::new(f64::from(i) + 60.0, 60.0)));
//!     true
//! };
//! let streamer = Stream2dExplainer::new(0.05).unwrap().threads(1);
//! let summary = streamer.explain_source(&index, source, None, |r| assert!(r.result.is_ok()));
//! assert_eq!((summary.windows, summary.explained), (3, 3));
//! ```

use crate::engine2d::{Explain2dEngine, Explanation2dArena};
use crate::explain2d::Explanation2d;
use crate::ks2d::Ks2dConfig;
use crate::point2::Point2;
use crate::rank_index::RankIndex2d;
use moche_core::pipeline::{refill, Pipeline, WindowKernel};
use moche_core::{MocheError, PreferenceList, StreamSummary};

/// A pull source of 2-D windows: fill the (cleared) buffer and return
/// `true`, or return `false` to end the stream.
pub trait Window2dSource {
    /// Fills `window` with the next window's points. The buffer arrives
    /// empty (possibly with recycled capacity).
    fn fill(&mut self, window: &mut Vec<Point2>) -> bool;
}

impl<F: FnMut(&mut Vec<Point2>) -> bool> Window2dSource for F {
    fn fill(&mut self, window: &mut Vec<Point2>) -> bool {
        self(window)
    }
}

/// A per-window preference scorer for the streaming path: window ordinal
/// and points in, preference out.
pub type Score2dFn<'a> =
    &'a (dyn Fn(usize, &[Point2]) -> Result<PreferenceList, MocheError> + Sync);

/// The 2-D [`WindowKernel`]: a warm engine and an output arena per worker
/// over the shared index, with each window's preference from the score
/// callback (identity without one).
struct Kernel2d<'a> {
    engine: Explain2dEngine,
    arena: Explanation2dArena,
    index: &'a RankIndex2d,
    score: Option<Score2dFn<'a>>,
}

impl WindowKernel for Kernel2d<'_> {
    type Point = Point2;
    type Output = Explanation2d;

    fn process(
        &mut self,
        window_id: usize,
        window: &[Point2],
    ) -> Result<Explanation2d, MocheError> {
        let preference = self.score.map(|score| score(window_id, window)).transpose()?;
        self.engine.explain_in(self.index, window, preference.as_ref(), &mut self.arena)
    }

    fn reclaim(&mut self, explanation: Explanation2d) {
        self.arena.recycle(explanation);
    }
}

/// One delivered streaming result.
#[derive(Debug)]
pub struct Stream2dResult {
    /// The window's ordinal in the stream (0-based).
    pub window: usize,
    /// The window's explanation or per-window failure.
    pub result: Result<Explanation2d, MocheError>,
}

/// A streaming explainer for unbounded sequences of 2-D windows against one
/// shared reference index.
#[derive(Debug, Clone)]
pub struct Stream2dExplainer {
    cfg: Ks2dConfig,
    pipeline: Pipeline,
}

impl Stream2dExplainer {
    /// Creates a streaming explainer at significance level `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::InvalidAlpha`] unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> Result<Self, MocheError> {
        Ok(Self::with_config(Ks2dConfig::new(alpha)?))
    }

    /// Creates a streaming explainer from an existing configuration.
    pub fn with_config(cfg: Ks2dConfig) -> Self {
        Self { cfg, pipeline: Pipeline::default() }
    }

    /// Caps the worker count (0 = use all available cores).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.pipeline.threads = threads;
        self
    }

    /// Bounds the windows queued ahead of the workers (0 =
    /// `max(2 × workers, 4)`).
    #[must_use]
    pub fn buffer(mut self, buffer: usize) -> Self {
        self.pipeline.buffer = buffer;
        self
    }

    /// Drains `source`, delivering every window's result to `sink` in
    /// window order, and returns the aggregate summary. A panicking source
    /// ends the stream early (windows already dispatched still complete and
    /// are delivered); a panicking sink propagates after the pool shuts
    /// down cleanly.
    pub fn explain_source<S: Window2dSource>(
        &self,
        index: &RankIndex2d,
        mut source: S,
        preferences: Option<Score2dFn<'_>>,
        mut sink: impl FnMut(&Stream2dResult),
    ) -> StreamSummary {
        let kernel = || Kernel2d {
            engine: Explain2dEngine::with_config(self.cfg),
            arena: Explanation2dArena::new(),
            index,
            score: preferences,
        };
        let feed = refill(|window: &mut Vec<Point2>| {
            window.clear();
            source.fill(window)
        });
        self.pipeline.run(None, kernel, feed, |window, result| {
            let delivered = Stream2dResult { window, result };
            sink(&delivered);
            delivered.result.ok()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain2d::GreedyImpact2d;

    fn grid(n: usize, ox: f64, oy: f64) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                Point2::new(((i * 7) % 13) as f64 * 0.31 + ox, ((i * 11) % 17) as f64 * 0.23 + oy)
            })
            .collect()
    }

    fn windows(count: usize) -> Vec<Vec<Point2>> {
        (0..count)
            .map(|w| {
                let mut t = grid(60, 0.01 * (w as f64 + 1.0), 0.02);
                t.extend(grid(18 + (w % 5), 50.0, 50.0));
                t
            })
            .collect()
    }

    fn vec_source(mut queue: std::vec::IntoIter<Vec<Point2>>) -> impl Window2dSource {
        move |out: &mut Vec<Point2>| match queue.next() {
            Some(points) => {
                out.extend(points);
                true
            }
            None => false,
        }
    }

    #[test]
    fn stream_delivers_in_order_and_matches_naive() {
        let r = grid(120, 0.0, 0.0);
        let cfg = Ks2dConfig::new(0.05).unwrap();
        let index = RankIndex2d::new(&r).unwrap();
        let all = windows(8);
        for threads in [1usize, 4] {
            let mut seen: Vec<usize> = Vec::new();
            let mut outputs: Vec<Vec<usize>> = Vec::new();
            let summary = Stream2dExplainer::with_config(cfg)
                .threads(threads)
                .buffer(3)
                .explain_source(&index, vec_source(all.clone().into_iter()), None, |delivered| {
                    seen.push(delivered.window);
                    outputs.push(delivered.result.as_ref().unwrap().indices.clone());
                });
            assert_eq!(summary.windows, all.len(), "threads={threads}");
            assert_eq!(summary.explained, all.len());
            assert_eq!(summary.threads, threads);
            assert_eq!(seen, (0..all.len()).collect::<Vec<_>>(), "in-order delivery");
            for (w, indices) in outputs.iter().enumerate() {
                let naive = GreedyImpact2d.explain(&r, &all[w], &cfg, None).unwrap();
                assert_eq!(indices, &naive.indices, "window {w}");
            }
        }
    }

    #[test]
    fn per_window_failures_are_tallied_not_fatal() {
        let r = grid(120, 0.0, 0.0);
        let cfg = Ks2dConfig::new(0.05).unwrap();
        let index = RankIndex2d::new(&r).unwrap();
        let mut all = windows(5);
        all[1] = r.clone(); // passes
        all[3] = vec![Point2::new(f64::NAN, 0.0)];
        for threads in [1usize, 3] {
            let mut failed: Vec<usize> = Vec::new();
            let summary = Stream2dExplainer::with_config(cfg).threads(threads).explain_source(
                &index,
                vec_source(all.clone().into_iter()),
                None,
                |delivered| {
                    if delivered.result.is_err() {
                        failed.push(delivered.window);
                    }
                },
            );
            assert_eq!(summary.windows, 5);
            assert_eq!(summary.explained, 3);
            assert_eq!(summary.passing, 1);
            assert_eq!(summary.errors, 1);
            assert_eq!(summary.panics, 0);
            assert_eq!(failed, vec![1, 3]);
        }
    }

    #[test]
    fn scored_preferences_flow_into_the_engine() {
        let r = grid(120, 0.0, 0.0);
        let cfg = Ks2dConfig::new(0.05).unwrap();
        let index = RankIndex2d::new(&r).unwrap();
        let all = windows(3);
        let score: Score2dFn<'_> = &|_, points| {
            let scores: Vec<f64> = points.iter().map(|p| p.x + p.y).collect();
            PreferenceList::from_scores_desc(&scores)
        };
        let mut outputs: Vec<Vec<usize>> = Vec::new();
        let summary = Stream2dExplainer::with_config(cfg).threads(2).explain_source(
            &index,
            vec_source(all.clone().into_iter()),
            Some(score),
            |delivered| outputs.push(delivered.result.as_ref().unwrap().indices.clone()),
        );
        assert_eq!(summary.explained, 3);
        for (w, indices) in outputs.iter().enumerate() {
            let scores: Vec<f64> = all[w].iter().map(|p| p.x + p.y).collect();
            let pref = PreferenceList::from_scores_desc(&scores).unwrap();
            let naive = GreedyImpact2d.explain(&r, &all[w], &cfg, Some(&pref)).unwrap();
            assert_eq!(indices, &naive.indices, "window {w}");
        }
    }

    #[test]
    fn empty_stream_is_a_clean_summary() {
        let r = grid(40, 0.0, 0.0);
        let index = RankIndex2d::new(&r).unwrap();
        let summary = Stream2dExplainer::new(0.05).unwrap().threads(2).explain_source(
            &index,
            |_: &mut Vec<Point2>| false,
            None,
            |_| panic!("no windows, no deliveries"),
        );
        // No windows start no workers.
        assert_eq!(summary, StreamSummary::default());
    }

    #[test]
    fn panicking_source_ends_the_stream_early() {
        let r = grid(120, 0.0, 0.0);
        let index = RankIndex2d::new(&r).unwrap();
        for threads in [1usize, 2] {
            let mut queue = windows(4).into_iter();
            let mut fed = 0usize;
            let source = move |out: &mut Vec<Point2>| {
                if fed == 2 {
                    panic!("source failed mid-stream");
                }
                fed += 1;
                out.extend(queue.next().unwrap());
                true
            };
            let mut delivered = 0usize;
            let summary = Stream2dExplainer::new(0.05).unwrap().threads(threads).explain_source(
                &index,
                source,
                None,
                |_| delivered += 1,
            );
            assert_eq!(summary.windows, 2, "the two windows fed before the panic");
            assert_eq!(delivered, 2, "threads = {threads}");
        }
    }

    #[test]
    fn sink_panic_shuts_the_pipeline_down_and_resurfaces() {
        // A panicking sink must neither deadlock the workers nor be
        // swallowed: the run winds down and the panic reaches the caller.
        let r = grid(120, 0.0, 0.0);
        let index = RankIndex2d::new(&r).unwrap();
        let all = windows(12);
        for threads in [1usize, 3] {
            let streamer = Stream2dExplainer::new(0.05).unwrap().threads(threads).buffer(2);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                streamer.explain_source(&index, vec_source(all.clone().into_iter()), None, |d| {
                    if d.window == 5 {
                        panic!("sink bug");
                    }
                });
            }));
            let payload = caught.expect_err("the sink panic must reach the caller");
            let message = moche_core::fault::panic_message(payload.as_ref());
            assert!(message.contains("sink bug"), "{message} (threads = {threads})");
        }
    }
}
