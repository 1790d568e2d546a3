//! The top-level MOCHE API.
//!
//! [`Moche`] bundles the two phases of the algorithm behind a single
//! [`explain`](Moche::explain) call that takes the raw reference set, test
//! set and a preference list, and returns the unique most comprehensible
//! counterfactual explanation together with verification outcomes and
//! search diagnostics.

use crate::arena::ExplanationArena;
use crate::base_vector::BaseVector;
use crate::engine::ExplainEngine;
use crate::error::MocheError;
use crate::ks::{KsConfig, KsOutcome};
use crate::phase1::SizeSearch;
use crate::phase2::ConstructStats;
use crate::preference::PreferenceList;

/// Which Phase-2 construction strategy to use. Both produce identical
/// explanations; see [`crate::phase2`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConstructionStrategy {
    /// Incremental backward-pass maintenance (default, fastest).
    #[default]
    Incremental,
    /// The paper-faithful full backward pass per candidate.
    Reference,
}

/// How Phase 1 finds the explanation size. All strategies return identical
/// `k` (and, where applicable, `k̂`); they differ in wall clock and in the
/// reported check counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SizeSearchStrategy {
    /// Fused multi-probe wavefront search for the Theorem-2 lower bound
    /// ([`crate::phase1::lower_bound_wavefront`]), then the Theorem-1 scan
    /// (default, fastest).
    #[default]
    Wavefront,
    /// Adaptive binary search for the Theorem-2 lower bound, then the
    /// Theorem-1 scan — the paper-faithful scalar reference the wavefront
    /// is pinned against.
    LowerBounded,
    /// Scan from `h = 1` with the Theorem-1 check only (the paper's
    /// `MOCHE_ns` ablation).
    NoLowerBound,
}

/// Per-alpha outcome of a sensitivity sweep: the level and the size
/// search result at that level.
pub type SizeProfile = Vec<(f64, Result<SizeSearch, MocheError>)>;

/// The MOCHE explainer.
///
/// # Examples
///
/// ```
/// use moche_core::{Moche, PreferenceList};
///
/// // The running example of the paper (Examples 3-6).
/// let reference = vec![14.0, 14.0, 14.0, 14.0, 20.0, 20.0, 20.0, 20.0];
/// let test = vec![13.0, 13.0, 12.0, 20.0];
/// let preference = PreferenceList::new(vec![3, 2, 1, 0]).unwrap();
///
/// let moche = Moche::new(0.3).unwrap();
/// let explanation = moche.explain(&reference, &test, &preference).unwrap();
/// assert_eq!(explanation.size(), 2);
/// assert_eq!(explanation.indices(), &[2, 1]); // {t3, t2} = {12, 13}
/// assert!(explanation.outcome_after.passes());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moche {
    cfg: KsConfig,
    construction: ConstructionStrategy,
    size_search: SizeSearchStrategy,
}

impl Moche {
    /// Creates an explainer for significance level `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::InvalidAlpha`] unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> Result<Self, MocheError> {
        Ok(Self {
            cfg: KsConfig::new(alpha)?,
            construction: ConstructionStrategy::default(),
            size_search: SizeSearchStrategy::default(),
        })
    }

    /// Creates an explainer from an existing [`KsConfig`].
    pub fn with_config(cfg: KsConfig) -> Self {
        Self {
            cfg,
            construction: ConstructionStrategy::default(),
            size_search: SizeSearchStrategy::default(),
        }
    }

    /// Selects the Phase-2 construction strategy.
    #[must_use]
    pub fn construction(mut self, strategy: ConstructionStrategy) -> Self {
        self.construction = strategy;
        self
    }

    /// Selects the Phase-1 size-search strategy.
    #[must_use]
    pub fn size_search(mut self, strategy: SizeSearchStrategy) -> Self {
        self.size_search = strategy;
        self
    }

    /// The KS configuration in use.
    #[inline]
    pub fn config(&self) -> &KsConfig {
        &self.cfg
    }

    /// Runs the KS test between `reference` and `test`.
    ///
    /// # Errors
    ///
    /// Propagates input-validation errors.
    pub fn test(&self, reference: &[f64], test: &[f64]) -> Result<KsOutcome, MocheError> {
        let base = BaseVector::build(reference, test)?;
        Ok(base.outcome(&self.cfg))
    }

    /// Phase 1 only: the explanation size of the failed test, without
    /// constructing an explanation.
    ///
    /// # Errors
    ///
    /// * [`MocheError::TestAlreadyPasses`] when there is nothing to explain.
    /// * [`MocheError::NoExplanation`] when no subset reverses the test.
    /// * Input-validation errors.
    pub fn explanation_size(
        &self,
        reference: &[f64],
        test: &[f64],
    ) -> Result<SizeSearch, MocheError> {
        let base = BaseVector::build(reference, test)?;
        self.engine().size_base(&base)
    }

    /// Finds the most comprehensible counterfactual explanation of the
    /// failed KS test between `reference` and `test` under `preference`.
    ///
    /// # Errors
    ///
    /// * [`MocheError::TestAlreadyPasses`] when there is nothing to explain.
    /// * [`MocheError::NoExplanation`] when no subset reverses the test
    ///   (possible only for `alpha > 2/e^2`).
    /// * [`MocheError::PreferenceLengthMismatch`] when `preference` does not
    ///   order exactly the points of `test`.
    /// * Input-validation errors.
    pub fn explain(
        &self,
        reference: &[f64],
        test: &[f64],
        preference: &PreferenceList,
    ) -> Result<Explanation, MocheError> {
        // The engine is the canonical implementation of the explain flow
        // for both construction strategies; a one-shot call merges `R ∪ T`
        // directly and uses a fresh workspace and arena.
        let base = BaseVector::build(reference, test)?;
        self.engine().explain_base_in(&base, test, preference, &mut ExplanationArena::new())
    }

    /// Creates a scratch-reusing [`ExplainEngine`] with this explainer's
    /// configuration and strategies.
    pub fn engine(&self) -> ExplainEngine {
        ExplainEngine::with_config(self.cfg)
            .size_search(self.size_search)
            .construction(self.construction)
    }

    /// Sensitivity analysis: the explanation size at each of several
    /// significance levels (sharing one `BaseVector` build). Returns one
    /// entry per `alpha`: `Ok(SizeSearch)` for failed tests,
    /// `Err(TestAlreadyPasses)` where the test passes at that level, or
    /// other errors as usual.
    ///
    /// Stricter levels (smaller `alpha`) widen the threshold, so `k` is
    /// non-increasing as `alpha` decreases — a property the test suite
    /// checks.
    ///
    /// # Errors
    ///
    /// Input-validation errors fail the whole call; per-level outcomes are
    /// reported inside the vector.
    pub fn size_profile(
        &self,
        reference: &[f64],
        test: &[f64],
        alphas: &[f64],
    ) -> Result<SizeProfile, MocheError> {
        // One BaseVector build and one BoundsContext, reconfigured per
        // level, shared across the whole sweep.
        self.engine().size_profile(reference, test, alphas)
    }

    /// Convenience: builds a descending-score preference list and explains.
    ///
    /// # Errors
    ///
    /// As for [`explain`](Self::explain), plus score-validation errors.
    pub fn explain_with_scores(
        &self,
        reference: &[f64],
        test: &[f64],
        scores: &[f64],
    ) -> Result<Explanation, MocheError> {
        if scores.len() != test.len() {
            return Err(MocheError::PreferenceLengthMismatch {
                expected: test.len(),
                actual: scores.len(),
            });
        }
        let preference = PreferenceList::from_scores_desc(scores)?;
        self.explain(reference, test, &preference)
    }
}

/// The most comprehensible counterfactual explanation of a failed KS test.
///
/// The two owned vectors (indices and values) are the only output of a
/// warm [`ExplainEngine`] that could allocate; callers on the streaming hot
/// path write them into recycled storage through
/// [`ExplainEngine::explain_with_index_in`] and hand them back with
/// [`ExplanationArena::recycle`](crate::arena::ExplanationArena::recycle)
/// after consumption.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    pub(crate) indices: Vec<usize>,
    pub(crate) values: Vec<f64>,
    /// Phase-1 diagnostics (`k`, `k̂`, check counts).
    pub phase1: SizeSearch,
    /// Phase-2 diagnostics.
    pub phase2: ConstructStats,
    /// The failed KS test that was explained.
    pub outcome_before: KsOutcome,
    /// The KS test between `R` and `T \ I` — always passing.
    pub outcome_after: KsOutcome,
    /// `|R|`.
    pub n: usize,
    /// `|T|`.
    pub m: usize,
    /// Number of distinct values in `R ∪ T`.
    pub q: usize,
}

impl Explanation {
    /// The selected original test indices, most preferred first.
    #[inline]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The values of the selected points, aligned with
    /// [`indices`](Self::indices).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The explanation size `k`.
    #[inline]
    pub fn size(&self) -> usize {
        self.indices.len()
    }

    /// The Phase-1 lower bound `k̂`.
    #[inline]
    pub fn k_hat(&self) -> usize {
        self.phase1.k_hat
    }

    /// Fraction of the test set removed, `k / m`.
    #[inline]
    pub fn removed_fraction(&self) -> f64 {
        self.size() as f64 / self.m as f64
    }

    /// Returns `test` with the explanation's points removed, preserving the
    /// original order of the remaining points.
    pub fn apply(&self, test: &[f64]) -> Vec<f64> {
        let mut keep = vec![true; test.len()];
        for &i in &self.indices {
            keep[i] = false;
        }
        test.iter().zip(keep).filter_map(|(&v, k)| k.then_some(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::{brute_force_explain, BruteForceLimits};
    use crate::ks::ks_test;

    fn paper_setup() -> (Vec<f64>, Vec<f64>) {
        (vec![14.0, 14.0, 14.0, 14.0, 20.0, 20.0, 20.0, 20.0], vec![13.0, 13.0, 12.0, 20.0])
    }

    #[test]
    fn paper_example_end_to_end() {
        let (r, t) = paper_setup();
        let pref = PreferenceList::new(vec![3, 2, 1, 0]).unwrap();
        let moche = Moche::new(0.3).unwrap();
        let e = moche.explain(&r, &t, &pref).unwrap();
        assert_eq!(e.size(), 2);
        assert_eq!(e.indices(), &[2, 1]);
        assert_eq!(e.values(), &[12.0, 13.0]);
        assert_eq!(e.phase1.k_hat, 2);
        assert!(e.outcome_before.rejected);
        assert!(e.outcome_after.passes());
        assert_eq!(e.q, 4);
        assert!((e.removed_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn apply_removes_selected_points() {
        let (r, t) = paper_setup();
        let pref = PreferenceList::new(vec![3, 2, 1, 0]).unwrap();
        let moche = Moche::new(0.3).unwrap();
        let e = moche.explain(&r, &t, &pref).unwrap();
        let t_after = e.apply(&t);
        assert_eq!(t_after, vec![13.0, 20.0]);
        // Re-running the plain KS test on the reduced set must pass.
        let cfg = KsConfig::new(0.3).unwrap();
        assert!(ks_test(&r, &t_after, &cfg).unwrap().passes());
    }

    #[test]
    fn matches_brute_force_on_paper_example() {
        let (r, t) = paper_setup();
        let cfg = KsConfig::new(0.3).unwrap();
        let moche = Moche::new(0.3).unwrap();
        for order in [vec![3, 2, 1, 0], vec![0, 1, 2, 3], vec![1, 3, 0, 2]] {
            let pref = PreferenceList::new(order).unwrap();
            let fast = moche.explain(&r, &t, &pref).unwrap();
            let slow =
                brute_force_explain(&r, &t, &cfg, &pref, BruteForceLimits::default()).unwrap();
            let mut fast_sorted = fast.indices().to_vec();
            let mut slow_sorted = slow.indices.clone();
            fast_sorted.sort_unstable();
            slow_sorted.sort_unstable();
            assert_eq!(fast_sorted, slow_sorted, "pref = {:?}", pref.as_order());
        }
    }

    #[test]
    fn passing_test_is_an_error() {
        let moche = Moche::new(0.05).unwrap();
        let r: Vec<f64> = (0..30).map(f64::from).collect();
        let pref = PreferenceList::identity(30);
        match moche.explain(&r, &r, &pref) {
            Err(MocheError::TestAlreadyPasses { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(moche.explanation_size(&r, &r).is_err());
    }

    #[test]
    fn preference_mismatch_is_an_error() {
        let (r, t) = paper_setup();
        let moche = Moche::new(0.3).unwrap();
        let pref = PreferenceList::identity(3);
        match moche.explain(&r, &t, &pref) {
            Err(MocheError::PreferenceLengthMismatch { expected: 4, actual: 3 }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn strategies_agree() {
        let (r, t) = paper_setup();
        let pref = PreferenceList::new(vec![3, 2, 1, 0]).unwrap();
        let base = Moche::new(0.3).unwrap();
        let variants = [
            base,
            base.construction(ConstructionStrategy::Reference),
            base.size_search(SizeSearchStrategy::NoLowerBound),
            base.construction(ConstructionStrategy::Reference)
                .size_search(SizeSearchStrategy::NoLowerBound),
        ];
        let expected = variants[0].explain(&r, &t, &pref).unwrap();
        for v in &variants[1..] {
            let e = v.explain(&r, &t, &pref).unwrap();
            assert_eq!(e.indices(), expected.indices());
            assert_eq!(e.size(), expected.size());
        }
    }

    #[test]
    fn explain_with_scores_builds_descending_preference() {
        let (r, t) = paper_setup();
        let moche = Moche::new(0.3).unwrap();
        //

        // Scores favour t3 (=12) then t2, t1, t4: same as Example 6's order.
        let e = moche.explain_with_scores(&r, &t, &[1.0, 2.0, 9.0, 0.0]).unwrap();
        assert_eq!(e.indices(), &[2, 1]);
        // Wrong score length errors out.
        assert!(moche.explain_with_scores(&r, &t, &[1.0]).is_err());
    }

    #[test]
    fn test_helper_reports_outcome() {
        let (r, t) = paper_setup();
        let moche = Moche::new(0.3).unwrap();
        assert!(moche.test(&r, &t).unwrap().rejected);
        assert!(moche.test(&r, &r).unwrap().passes());
    }

    #[test]
    fn no_explanation_propagates() {
        let r: Vec<f64> = (0..100).map(f64::from).collect();
        let t = vec![1_000.0, 2_000.0];
        let moche = Moche::new(0.9).unwrap();
        let pref = PreferenceList::identity(2);
        match moche.explain(&r, &t, &pref) {
            Err(MocheError::NoExplanation { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn size_profile_is_monotone_in_alpha() {
        // A solidly failing instance across several alphas.
        let r: Vec<f64> = (0..200).map(|i| f64::from(i % 10)).collect();
        let t: Vec<f64> = (0..150).map(|i| f64::from(i % 10) + 4.0).collect();
        let moche = Moche::new(0.05).unwrap();
        let alphas = [0.01, 0.05, 0.1, 0.2];
        let profile = moche.size_profile(&r, &t, &alphas).unwrap();
        assert_eq!(profile.len(), 4);
        let mut last_k = 0usize;
        for (alpha, result) in profile {
            let s = result.unwrap_or_else(|e| panic!("alpha {alpha}: {e}"));
            assert!(
                s.k >= last_k,
                "k must not decrease as alpha grows: {} then {} at alpha {alpha}",
                last_k,
                s.k
            );
            last_k = s.k;
        }
    }

    #[test]
    fn size_profile_reports_passing_levels() {
        // Borderline instance: fails at loose alpha, passes at strict.
        let r: Vec<f64> = (0..60).map(|i| f64::from(i % 10)).collect();
        let t: Vec<f64> = (0..60).map(|i| f64::from(i % 10) + 2.0).collect();
        let moche = Moche::new(0.05).unwrap();
        let profile = moche.size_profile(&r, &t, &[1e-6, 0.25]).unwrap();
        match &profile[0].1 {
            Err(MocheError::TestAlreadyPasses { .. }) => {}
            other => panic!("expected pass at alpha = 1e-6, got {other:?}"),
        }
        assert!(profile[1].1.is_ok(), "expected failure at alpha = 0.25");
    }

    #[test]
    fn size_profile_flags_invalid_alphas_per_entry() {
        let r: Vec<f64> = (0..30).map(f64::from).collect();
        let t: Vec<f64> = (0..30).map(|i| f64::from(i) + 15.0).collect();
        let moche = Moche::new(0.05).unwrap();
        let profile = moche.size_profile(&r, &t, &[0.05, 2.0]).unwrap();
        assert!(
            profile[0].1.is_ok()
                || matches!(profile[0].1, Err(MocheError::TestAlreadyPasses { .. }))
        );
        assert!(matches!(profile[1].1, Err(MocheError::InvalidAlpha { .. })));
    }
}
