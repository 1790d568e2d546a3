//! Parallel batch explanation of 2-D windows — the front end of
//! `moche_core::pipeline` beside `moche_core::BatchExplainer`. Every worker
//! owns a 2-D kernel (a warm [`Explain2dEngine`] and an output arena)
//! over one shared [`RankIndex2d`]; per-window failures, panics included,
//! stay in their own result slot.
//!
//! ```
//! use moche_multidim::{Batch2dExplainer, Point2, RankIndex2d};
//!
//! let reference: Vec<Point2> =
//!     (0..80).map(|i| Point2::new(f64::from(i % 9), f64::from(i % 7))).collect();
//! let mut window = reference.clone();
//! window.truncate(40);
//! window.extend((0..25).map(|i| Point2::new(f64::from(i) + 60.0, 60.0)));
//! let windows = vec![window.clone(), window];
//!
//! let index = RankIndex2d::new(&reference).unwrap();
//! let explainer = Batch2dExplainer::new(0.05).unwrap();
//! let results = explainer.explain_windows(&index, &windows, None);
//! assert!(results.iter().all(|r| r.is_ok()));
//! ```

use crate::engine2d::{Explain2dEngine, Explanation2dArena};
use crate::explain2d::Explanation2d;
use crate::ks2d::Ks2dConfig;
use crate::point2::Point2;
use crate::rank_index::RankIndex2d;
use crate::stream2d::Score2dFn;
use moche_core::pipeline::{Pipeline, WindowKernel};
use moche_core::{MocheError, PreferenceList};

/// The 2-D [`WindowKernel`]: a warm engine and an output arena per worker,
/// with the window's preference taken from a per-window list or a score
/// callback (identity when neither is given).
pub(crate) struct Kernel2d<'a> {
    engine: Explain2dEngine,
    arena: Explanation2dArena,
    index: &'a RankIndex2d,
    per_window: Option<&'a [PreferenceList]>,
    score: Option<Score2dFn<'a>>,
}

impl<'a> Kernel2d<'a> {
    pub(crate) fn new(
        cfg: Ks2dConfig,
        index: &'a RankIndex2d,
        per_window: Option<&'a [PreferenceList]>,
        score: Option<Score2dFn<'a>>,
    ) -> Self {
        let (engine, arena) = (Explain2dEngine::with_config(cfg), Explanation2dArena::new());
        Self { engine, arena, index, per_window, score }
    }
}

impl WindowKernel for Kernel2d<'_> {
    type Point = Point2;
    type Output = Explanation2d;

    fn process(
        &mut self,
        window_id: usize,
        window: &[Point2],
    ) -> Result<Explanation2d, MocheError> {
        let owned;
        let preference = match (self.per_window, self.score) {
            (Some(lists), _) => Some(&lists[window_id]),
            (None, Some(score)) => {
                owned = score(window_id, window)?;
                Some(&owned)
            }
            (None, None) => None,
        };
        self.engine.explain_in(self.index, window, preference, &mut self.arena)
    }

    fn reclaim(&mut self, explanation: Explanation2d) {
        self.arena.recycle(explanation);
    }
}

/// A thread-pooled explainer for batches of 2-D windows against one shared
/// reference index.
#[derive(Debug, Clone)]
pub struct Batch2dExplainer {
    cfg: Ks2dConfig,
    pipeline: Pipeline,
}

impl Batch2dExplainer {
    /// Creates a batch explainer at significance level `alpha`, using all
    /// available cores.
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::InvalidAlpha`] unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> Result<Self, MocheError> {
        Ok(Self::with_config(Ks2dConfig::new(alpha)?))
    }

    /// Creates a batch explainer from an existing configuration.
    pub fn with_config(cfg: Ks2dConfig) -> Self {
        Self { cfg, pipeline: Pipeline::default() }
    }

    /// Caps the worker count (0 = use all available cores).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.pipeline.threads = threads;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &Ks2dConfig {
        &self.cfg
    }

    /// The number of worker threads a batch of `jobs` windows would use.
    pub fn effective_threads(&self, jobs: usize) -> usize {
        self.pipeline.workers(Some(jobs))
    }

    /// Explains every window against the shared index. Results keep the
    /// input order; each window fails or succeeds independently.
    ///
    /// `preferences`, when given, must provide one [`PreferenceList`] per
    /// window; a count mismatch fails every slot with
    /// [`MocheError::PreferenceCountMismatch`] rather than guessing an
    /// alignment.
    pub fn explain_windows<W: AsRef<[Point2]> + Sync>(
        &self,
        index: &RankIndex2d,
        windows: &[W],
        preferences: Option<&[PreferenceList]>,
    ) -> Vec<Result<Explanation2d, MocheError>> {
        let count = preferences.map(<[PreferenceList]>::len);
        self.pipeline.collect(windows, count, || Kernel2d::new(self.cfg, index, preferences, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain2d::GreedyImpact2d;

    fn fixture() -> (Vec<Point2>, Vec<Vec<Point2>>, Ks2dConfig) {
        let grid = |n: usize, ox: f64, oy: f64| -> Vec<Point2> {
            (0..n)
                .map(|i| {
                    Point2::new(
                        ((i * 7) % 13) as f64 * 0.31 + ox,
                        ((i * 11) % 17) as f64 * 0.23 + oy,
                    )
                })
                .collect()
        };
        let r = grid(120, 0.0, 0.0);
        let windows: Vec<Vec<Point2>> = (0..6)
            .map(|w| {
                let mut t = grid(60, 0.01 * (w as f64 + 1.0), 0.02);
                t.extend(grid(20 + w, 50.0, 50.0));
                t
            })
            .collect();
        (r, windows, Ks2dConfig::new(0.05).unwrap())
    }

    #[test]
    fn batch_matches_the_naive_explainer_per_window() {
        let (r, windows, cfg) = fixture();
        let index = RankIndex2d::new(&r).unwrap();
        let results = Batch2dExplainer::with_config(cfg).explain_windows(&index, &windows, None);
        assert_eq!(results.len(), windows.len());
        for (w, result) in results.iter().enumerate() {
            let naive = GreedyImpact2d.explain(&r, &windows[w], &cfg, None).unwrap();
            let fast = result.as_ref().unwrap();
            assert_eq!(fast.indices, naive.indices, "window {w}");
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let (r, windows, cfg) = fixture();
        let index = RankIndex2d::new(&r).unwrap();
        let seq =
            Batch2dExplainer::with_config(cfg).threads(1).explain_windows(&index, &windows, None);
        let par =
            Batch2dExplainer::with_config(cfg).threads(4).explain_windows(&index, &windows, None);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.as_ref().unwrap().indices, b.as_ref().unwrap().indices);
        }
    }

    #[test]
    fn per_window_errors_are_isolated() {
        let (r, mut windows, cfg) = fixture();
        windows[2] = r.clone(); // passes: nothing to explain
        windows[4] = vec![Point2::new(f64::NAN, 0.0)];
        let index = RankIndex2d::new(&r).unwrap();
        let results = Batch2dExplainer::with_config(cfg).explain_windows(&index, &windows, None);
        assert!(results[0].is_ok());
        assert!(matches!(results[2], Err(MocheError::TestAlreadyPasses { .. })));
        assert!(matches!(results[4], Err(MocheError::NonFiniteValue { .. })));
        assert!(results[5].is_ok());
    }

    #[test]
    fn preference_count_mismatch_fails_every_slot() {
        let (r, windows, cfg) = fixture();
        let index = RankIndex2d::new(&r).unwrap();
        let prefs = vec![PreferenceList::identity(windows[0].len())];
        let results =
            Batch2dExplainer::with_config(cfg).explain_windows(&index, &windows, Some(&prefs));
        assert_eq!(results.len(), windows.len());
        for r in &results {
            assert!(matches!(
                r,
                Err(MocheError::PreferenceCountMismatch { windows: 6, preferences: 1 })
            ));
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let (r, _, cfg) = fixture();
        let index = RankIndex2d::new(&r).unwrap();
        let windows: Vec<Vec<Point2>> = Vec::new();
        assert!(Batch2dExplainer::with_config(cfg)
            .explain_windows(&index, &windows, None)
            .is_empty());
    }

    #[test]
    fn effective_threads_is_bounded_by_jobs() {
        let explainer = Batch2dExplainer::new(0.05).unwrap().threads(8);
        assert_eq!(explainer.effective_threads(3), 3);
        assert_eq!(explainer.effective_threads(0), 1);
        assert_eq!(Batch2dExplainer::new(0.05).unwrap().threads(2).effective_threads(100), 2);
    }
}
