//! Parallel batch explanation: many failed KS tests against one shared
//! reference, explained at once — the eager front end of
//! [`crate::pipeline`]. [`BatchExplainer`] lends each window of a slice to
//! the pipeline's workers (no copies) and collects the results in window
//! order. What it owns itself:
//!
//! * **the shared reference**, validated and sorted once
//!   ([`SortedReference`]) and indexed once per call ([`ReferenceIndex`]),
//!   so each window is spliced into it in `O(m + q_T log(q_R / q_T))` plus
//!   chunk copies instead of a `O((n + m) log(n + m))` merge;
//! * **the preference vocabulary** ([`WindowPreferences`]), with score
//!   callbacks evaluated inside the workers;
//! * **the 1-D kernel** it shares with [`crate::streaming`]: an
//!   [`ExplainEngine`], a recycled preference list and an output arena per
//!   worker.
//!
//! Results are byte-identical to sequential [`crate::Moche::explain`] calls
//! (enforced by `tests/proptest_engine.rs`): failed tests yield
//! `Ok(Explanation)`, passing windows and invalid inputs the same `Err` the
//! sequential API produces.
//!
//! ```
//! use moche_core::batch::BatchExplainer;
//! use moche_core::SortedReference;
//!
//! let reference: Vec<f64> = (0..64).map(|i| f64::from(i % 8)).collect();
//! let windows: Vec<Vec<f64>> = (0..16)
//!     .map(|w| (0..32).map(|i| f64::from((i + w) % 8) + 4.0).collect())
//!     .collect();
//!
//! let shared = SortedReference::new(&reference).unwrap();
//! let results = BatchExplainer::new(0.05).unwrap().explain_windows(&shared, &windows, None);
//! assert!(results.iter().all(|r| r.as_ref().unwrap().outcome_after.passes()));
//! ```

use crate::arena::ExplanationArena;
use crate::base_vector::SortedReference;
use crate::engine::ExplainEngine;
use crate::error::MocheError;
use crate::ks::KsConfig;
use crate::moche::Explanation;
use crate::pipeline::{Pipeline, WindowKernel};
use crate::preference::PreferenceList;
use crate::ref_index::ReferenceIndex;

/// How the shared reference is prepared for per-window base-vector builds.
///
/// Every window is spliced into a [`ReferenceIndex`] built once per call,
/// so there is nothing left to select: the enum and
/// [`BatchExplainer::reference_mode`] are kept only because the end-to-end
/// benchmark under `perfbench/` names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReferenceMode {
    /// Splice each window into a precomputed [`ReferenceIndex`]
    /// ([`crate::BaseVector::build_with_index_into_using`]).
    #[default]
    Indexed,
}

/// A per-window preference scorer `(window index, window) -> preference`,
/// evaluated inside worker threads (see [`WindowPreferences::Scored`] and
/// [`crate::streaming`]).
pub type ScoreFn<'a> = &'a (dyn Fn(usize, &[f64]) -> Result<PreferenceList, MocheError> + Sync);

/// The recycled-output scorer shape: `(window index, window, preference
/// slot)`, overwriting a worker-owned [`PreferenceList`] in place (see
/// [`PreferenceList::fill_from_scores_desc`]) instead of allocating a fresh
/// list per window. This is what extends the zero-allocation guarantee to
/// scored streams ([`WindowPreferences::ScoredInto`] and
/// [`crate::streaming::StreamingBatchExplainer::explain_source_scored`]).
pub type ScoreIntoFn<'a> =
    &'a (dyn Fn(usize, &[f64], &mut PreferenceList) -> Result<(), MocheError> + Sync);

/// How per-window preference lists are supplied to the worker threads.
#[derive(Clone, Copy)]
pub enum WindowPreferences<'a> {
    /// Every window is explained under the identity order.
    Identity,
    /// One precomputed list per window, in window order.
    PerWindow(&'a [PreferenceList]),
    /// Derive each window's preference *inside the worker thread* from the
    /// window index and contents — this parallelizes expensive scoring
    /// (e.g. Spectral Residual) along with the explanation itself. A
    /// returned error is reported in that window's result slot.
    Scored(ScoreFn<'a>),
    /// [`Scored`](Self::Scored) with the preference written into a
    /// worker-recycled list instead of allocated per window — the
    /// steady-state zero-allocation form.
    ScoredInto(ScoreIntoFn<'a>),
}

impl std::fmt::Debug for WindowPreferences<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowPreferences::Identity => f.write_str("Identity"),
            WindowPreferences::PerWindow(lists) => {
                f.debug_tuple("PerWindow").field(&lists.len()).finish()
            }
            WindowPreferences::Scored(_) => f.write_str("Scored(..)"),
            WindowPreferences::ScoredInto(_) => f.write_str("ScoredInto(..)"),
        }
    }
}

/// The 1-D [`WindowKernel`]: per-worker engine (which owns every internal
/// scratch buffer), a preference list reused by the identity and
/// scored-into paths, and the output arena — so a warm worker allocates
/// nothing per window once the sink hands its outputs back.
pub(crate) struct ExplainKernel<'a> {
    pub(crate) index: &'a ReferenceIndex,
    preferences: WindowPreferences<'a>,
    pub(crate) engine: ExplainEngine,
    pref: PreferenceList,
    arena: ExplanationArena,
}

impl<'a> ExplainKernel<'a> {
    pub(crate) fn new(
        cfg: KsConfig,
        index: &'a ReferenceIndex,
        preferences: WindowPreferences<'a>,
    ) -> Self {
        Self {
            index,
            preferences,
            engine: ExplainEngine::with_config(cfg),
            pref: PreferenceList::identity(0),
            arena: ExplanationArena::new(),
        }
    }
}

impl WindowKernel for ExplainKernel<'_> {
    type Point = f64;
    type Output = Explanation;

    fn process(&mut self, window_id: usize, window: &[f64]) -> Result<Explanation, MocheError> {
        let owned;
        let pref = match self.preferences {
            WindowPreferences::Identity => {
                if self.pref.len() != window.len() {
                    self.pref.fill_identity(window.len());
                }
                &self.pref
            }
            WindowPreferences::PerWindow(lists) => &lists[window_id],
            WindowPreferences::Scored(score) => {
                owned = score(window_id, window)?;
                &owned
            }
            WindowPreferences::ScoredInto(score) => {
                score(window_id, window, &mut self.pref)?;
                &self.pref
            }
        };
        self.engine.explain_with_index_in(self.index, window, pref, &mut self.arena)
    }

    fn reclaim(&mut self, explanation: Explanation) {
        self.arena.recycle(explanation);
    }
}

/// A parallel explainer over many failed KS tests.
///
/// Cheap to construct (a few scalars); holds no buffers itself — per-worker
/// kernels are created inside each call.
#[derive(Debug, Clone, Copy)]
pub struct BatchExplainer {
    cfg: KsConfig,
    pipeline: Pipeline,
}

impl BatchExplainer {
    /// Creates a batch explainer for significance level `alpha`, using all
    /// available cores.
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::InvalidAlpha`] unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> Result<Self, MocheError> {
        Ok(Self::with_config(KsConfig::new(alpha)?))
    }

    /// Creates a batch explainer from an existing [`KsConfig`].
    pub fn with_config(cfg: KsConfig) -> Self {
        Self { cfg, pipeline: Pipeline::default() }
    }

    /// Caps the worker-thread count. `0` (the default) means "one per
    /// available core".
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.pipeline.threads = threads;
        self
    }

    /// Accepts the only [`ReferenceMode`] and changes nothing; kept for
    /// the benchmark that names it.
    #[must_use]
    pub fn reference_mode(self, _mode: ReferenceMode) -> Self {
        self
    }

    /// The KS configuration in use.
    #[inline]
    pub fn config(&self) -> &KsConfig {
        &self.cfg
    }

    /// The shared-reference mode: one reference, many test windows. The
    /// reference is indexed once (see [`SortedReference`] and
    /// [`ReferenceIndex::from_sorted`], an `O(n)` pass over the sorted
    /// values) and shared read-only by every worker, which splices each
    /// window into it.
    ///
    /// `preferences`, when given, supplies one list per window (in order);
    /// `None` explains every window under the identity order.
    ///
    /// # Errors
    ///
    /// If `preferences` is `Some` but its length differs from `windows`',
    /// no window/preference pairing exists and every result slot carries
    /// [`MocheError::PreferenceCountMismatch`]. (With zero windows the
    /// result is empty either way — there are no slots to report into.)
    pub fn explain_windows<W: AsRef<[f64]> + Sync>(
        &self,
        reference: &SortedReference,
        windows: &[W],
        preferences: Option<&[PreferenceList]>,
    ) -> Vec<Result<Explanation, MocheError>> {
        let prefs = match preferences {
            Some(lists) => WindowPreferences::PerWindow(lists),
            None => WindowPreferences::Identity,
        };
        self.explain_windows_with(reference, windows, prefs)
    }

    /// [`explain_windows`](Self::explain_windows) with the full preference
    /// vocabulary: identity, precomputed per-window lists, or a score
    /// callback evaluated inside the worker threads (see
    /// [`WindowPreferences`]).
    ///
    /// # Errors
    ///
    /// If [`WindowPreferences::PerWindow`] supplies a different number of
    /// lists than `windows`, every result slot carries
    /// [`MocheError::PreferenceCountMismatch`] — the inputs are unusable as
    /// a whole, but the one-result-per-window shape is preserved for
    /// callers that tally per-window outcomes.
    pub fn explain_windows_with<W: AsRef<[f64]> + Sync>(
        &self,
        reference: &SortedReference,
        windows: &[W],
        preferences: WindowPreferences<'_>,
    ) -> Vec<Result<Explanation, MocheError>> {
        let index = ReferenceIndex::from_sorted(reference);
        let count = match preferences {
            WindowPreferences::PerWindow(lists) => Some(lists.len()),
            _ => None,
        };
        self.pipeline.collect(windows, count, || ExplainKernel::new(self.cfg, &index, preferences))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moche::{ConstructionStrategy, Moche};

    fn windows_against(reference_mod: u32, count: usize, len: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
        let reference: Vec<f64> = (0..200u32).map(|i| f64::from(i % reference_mod)).collect();
        let windows: Vec<Vec<f64>> = (0..count)
            .map(|w| {
                (0..len).map(|i| f64::from(((i + w) % 7) as u32) + 5.0 + (w % 3) as f64).collect()
            })
            .collect();
        (reference, windows)
    }

    #[test]
    fn windows_match_sequential_reference_path() {
        let (r, windows) = windows_against(10, 12, 60);
        let shared = SortedReference::new(&r).unwrap();
        let moche = Moche::new(0.05).unwrap().construction(ConstructionStrategy::Reference);
        for threads in [1, 4] {
            let batch = BatchExplainer::new(0.05).unwrap().threads(threads);
            let results = batch.explain_windows(&shared, &windows, None);
            assert_eq!(results.len(), windows.len());
            for (w, result) in windows.iter().zip(&results) {
                let pref = PreferenceList::identity(w.len());
                let expected = moche.explain(&r, w, &pref).unwrap();
                let got = result.as_ref().unwrap();
                assert_eq!(got.indices(), expected.indices());
                assert_eq!(got.phase1, expected.phase1);
            }
        }
    }

    #[test]
    fn per_window_preferences_are_honoured() {
        let (r, windows) = windows_against(10, 6, 40);
        let shared = SortedReference::new(&r).unwrap();
        let prefs: Vec<PreferenceList> =
            windows.iter().map(|w| PreferenceList::reversed(w.len())).collect();
        let batch = BatchExplainer::new(0.05).unwrap().threads(2);
        let results = batch.explain_windows(&shared, &windows, Some(&prefs));
        let moche = Moche::new(0.05).unwrap();
        for ((w, pref), result) in windows.iter().zip(&prefs).zip(&results) {
            let expected = moche.explain(&r, w, pref).unwrap();
            assert_eq!(result.as_ref().unwrap().indices(), expected.indices());
        }
    }

    #[test]
    fn scored_preferences_run_in_workers_and_match_precomputed() {
        let (r, windows) = windows_against(10, 8, 40);
        let shared = SortedReference::new(&r).unwrap();
        let prefs: Vec<PreferenceList> =
            windows.iter().map(|w| PreferenceList::reversed(w.len())).collect();
        let batch = BatchExplainer::new(0.05).unwrap().threads(3);
        let precomputed = batch.explain_windows(&shared, &windows, Some(&prefs));
        let scored = batch.explain_windows_with(
            &shared,
            &windows,
            WindowPreferences::Scored(&|_, w| Ok(PreferenceList::reversed(w.len()))),
        );
        for (a, b) in precomputed.iter().zip(&scored) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn scored_into_matches_scored() {
        let (r, windows) = windows_against(10, 8, 40);
        let shared = SortedReference::new(&r).unwrap();
        let batch = BatchExplainer::new(0.05).unwrap().threads(3);
        let owning = batch.explain_windows_with(
            &shared,
            &windows,
            WindowPreferences::Scored(&|_, w| Ok(PreferenceList::reversed(w.len()))),
        );
        let recycled = batch.explain_windows_with(
            &shared,
            &windows,
            WindowPreferences::ScoredInto(&|_, w, pref| {
                let scores: Vec<f64> = (0..w.len()).map(|i| i as f64).collect();
                pref.fill_from_scores_desc(&scores)
            }),
        );
        for (a, b) in owning.iter().zip(&recycled) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn scored_preference_errors_land_in_the_window_slot() {
        let (r, windows) = windows_against(10, 3, 40);
        let shared = SortedReference::new(&r).unwrap();
        let batch = BatchExplainer::new(0.05).unwrap().threads(2);
        let results = batch.explain_windows_with(
            &shared,
            &windows,
            WindowPreferences::Scored(&|i, w| {
                if i == 1 {
                    // A wrong-length preference is the canonical score bug.
                    Ok(PreferenceList::identity(w.len() - 1))
                } else {
                    Ok(PreferenceList::identity(w.len()))
                }
            }),
        );
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(MocheError::PreferenceLengthMismatch { .. })));
        assert!(results[2].is_ok());
    }

    #[test]
    fn bad_windows_do_not_poison_the_batch() {
        let (r, windows) = windows_against(10, 4, 40);
        let shared = SortedReference::new(&r).unwrap();
        // The middle window passes the KS test.
        let windows = vec![windows[0].clone(), r.clone(), windows[1].clone()];
        let results =
            BatchExplainer::new(0.05).unwrap().threads(2).explain_windows(&shared, &windows, None);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(MocheError::TestAlreadyPasses { .. })));
        assert!(results[2].is_ok());
    }

    #[test]
    fn mismatched_preference_count_is_a_structured_error() {
        let (r, windows) = windows_against(10, 3, 40);
        let shared = SortedReference::new(&r).unwrap();
        let prefs = vec![PreferenceList::identity(40)];
        let results =
            BatchExplainer::new(0.05).unwrap().explain_windows(&shared, &windows, Some(&prefs));
        assert_eq!(results.len(), windows.len(), "the per-window shape is preserved");
        for result in &results {
            assert_eq!(
                result.as_ref().unwrap_err(),
                &MocheError::PreferenceCountMismatch { windows: 3, preferences: 1 }
            );
        }
    }

    #[test]
    fn panicking_scorer_is_isolated_to_its_window() {
        let (r, windows) = windows_against(10, 5, 40);
        let shared = SortedReference::new(&r).unwrap();
        for threads in [1, 4] {
            let batch = BatchExplainer::new(0.05).unwrap().threads(threads);
            let results = batch.explain_windows_with(
                &shared,
                &windows,
                WindowPreferences::Scored(&|i, w| {
                    if i == 2 {
                        panic!("scorer bug at window {i}");
                    }
                    Ok(PreferenceList::identity(w.len()))
                }),
            );
            for (i, result) in results.iter().enumerate() {
                if i == 2 {
                    match result {
                        Err(MocheError::WorkerPanicked { window, message }) => {
                            assert_eq!(*window, 2);
                            assert!(message.contains("scorer bug"), "{message}");
                        }
                        other => panic!("expected WorkerPanicked, got {other:?}"),
                    }
                } else {
                    assert!(result.is_ok(), "window {i} must be unaffected ({threads} threads)");
                }
            }
        }
    }

    #[test]
    fn worker_recovers_after_a_caught_panic() {
        // The same worker that caught a panic keeps explaining later
        // windows correctly: force a single thread so every window after
        // the panicking one exercises the rebuilt scratch.
        let (r, windows) = windows_against(10, 6, 40);
        let shared = SortedReference::new(&r).unwrap();
        let batch = BatchExplainer::new(0.05).unwrap().threads(1);
        let clean = batch.explain_windows(&shared, &windows, None);
        let faulted = batch.explain_windows_with(
            &shared,
            &windows,
            WindowPreferences::Scored(&|i, w| {
                if i == 0 {
                    panic!("first window panics");
                }
                Ok(PreferenceList::identity(w.len()))
            }),
        );
        assert!(matches!(faulted[0], Err(MocheError::WorkerPanicked { .. })));
        for i in 1..windows.len() {
            assert_eq!(
                faulted[i].as_ref().unwrap(),
                clean[i].as_ref().unwrap(),
                "window {i} must match the clean run exactly"
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let batch = BatchExplainer::new(0.05).unwrap();
        let shared = SortedReference::new(&[1.0, 2.0]).unwrap();
        let no_windows: Vec<Vec<f64>> = Vec::new();
        assert!(batch.explain_windows(&shared, &no_windows, None).is_empty());
    }
}
