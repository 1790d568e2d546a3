//! The reusable explain engine: MOCHE's hot path with caller-owned scratch.
//!
//! [`Moche::explain`](crate::Moche::explain) is a convenient one-shot API,
//! but each call heap-allocates the base vector, the Phase-2 working set
//! (two bound vectors, the `ū`/`d` selection state and a propagation
//! buffer) and the output. On the workloads the ROADMAP targets — one
//! reference distribution monitored against thousands of test windows,
//! explanations served on every drift alarm — those transient allocations
//! are pure overhead: the buffers have the same shape every time.
//!
//! [`ExplainEngine`] has one explain entry point,
//! [`explain_with_index_in`](ExplainEngine::explain_with_index_in), plus
//! its Phase-1-only twin [`size_with_index`](ExplainEngine::size_with_index).
//! Both splice each window into a precomputed [`ReferenceIndex`] and reuse
//! the base vector, the sort buffer and a [`BoundsWorkspace`] across
//!
//! * every Phase-1 `h` probe (the Theorem-2 binary search and the Theorem-1
//!   linear scan are already streaming and `O(1)`-space),
//! * the Phase-2 bound computation and construction
//!   ([`phase2::construct_into`]), and
//! * all alphas of a [`size_profile`](ExplainEngine::size_profile) sweep
//!   (one [`BoundsContext`] reconfigured per level).
//!
//! With a caller-owned [`ExplanationArena`] the output vectors are written
//! into recycled storage too, so a warm engine explains with zero heap
//! allocations. Results are **byte-identical** to the one-shot path — a
//! property enforced by `tests/proptest_engine.rs` and
//! `tests/proptest_indexed.rs`.
//!
//! For many `(R, T)` pairs at once, see [`crate::batch`], which runs one
//! engine per worker thread.

use crate::arena::ExplanationArena;
use crate::base_vector::BaseVector;
use crate::bounds::{BoundsContext, BoundsWorkspace};
use crate::cumulative::SubsetCounts;
use crate::error::MocheError;
use crate::ks::KsConfig;
use crate::moche::{ConstructionStrategy, Explanation, SizeProfile, SizeSearchStrategy};
use crate::phase1::{self, SizeSearch};
use crate::phase2;
use crate::preference::PreferenceList;
use crate::ref_index::RankSource;
#[cfg(doc)]
use crate::ref_index::ReferenceIndex;

/// A MOCHE explainer with reusable scratch buffers.
///
/// Construct once, call
/// [`explain_with_index_in`](Self::explain_with_index_in) many times. The
/// engine is cheap to create but only pays off when reused; for one-shot
/// calls, [`crate::Moche`] is equivalent.
///
/// # Examples
///
/// ```
/// use moche_core::{ExplainEngine, ExplanationArena, PreferenceList, ReferenceIndex};
///
/// let reference = vec![14.0, 14.0, 14.0, 14.0, 20.0, 20.0, 20.0, 20.0];
/// let index = ReferenceIndex::new(&reference).unwrap();
/// let mut engine = ExplainEngine::new(0.3).unwrap();
/// let mut arena = ExplanationArena::new();
/// for test in [vec![13.0, 13.0, 12.0, 20.0], vec![12.0, 13.0, 13.0, 20.0]] {
///     let pref = PreferenceList::identity(test.len());
///     let e = engine.explain_with_index_in(&index, &test, &pref, &mut arena).unwrap();
///     assert_eq!(e.size(), 2);
///     assert!(e.outcome_after.passes());
///     arena.recycle(e);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ExplainEngine {
    cfg: KsConfig,
    size_search: SizeSearchStrategy,
    construction: ConstructionStrategy,
    ws: BoundsWorkspace,
    /// Recycled output of the indexed base-vector splice: steady-state
    /// calls rebuild it in place instead of reallocating the `O(n + m)`
    /// arrays per window.
    base_scratch: Option<BaseVector>,
    /// Recycled sort buffer for the window side of the indexed splice.
    sort_scratch: Vec<f64>,
    /// Recycled per-value removal counts for the after-removal verification.
    counts_scratch: SubsetCounts,
}

impl ExplainEngine {
    /// Creates an engine for significance level `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::InvalidAlpha`] unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> Result<Self, MocheError> {
        Ok(Self::with_config(KsConfig::new(alpha)?))
    }

    /// Creates an engine from an existing [`KsConfig`].
    pub fn with_config(cfg: KsConfig) -> Self {
        Self {
            cfg,
            size_search: SizeSearchStrategy::default(),
            construction: ConstructionStrategy::default(),
            ws: BoundsWorkspace::new(),
            base_scratch: None,
            sort_scratch: Vec::new(),
            counts_scratch: SubsetCounts::empty(0),
        }
    }

    /// Selects the Phase-1 size-search strategy.
    #[must_use]
    pub fn size_search(mut self, strategy: SizeSearchStrategy) -> Self {
        self.size_search = strategy;
        self
    }

    /// Selects the Phase-2 construction strategy. The default
    /// [`ConstructionStrategy::Incremental`] is the zero-allocation
    /// workspace path; [`ConstructionStrategy::Reference`] runs the
    /// paper-faithful allocating construction (identical results).
    #[must_use]
    pub fn construction(mut self, strategy: ConstructionStrategy) -> Self {
        self.construction = strategy;
        self
    }

    /// The KS configuration in use.
    #[inline]
    pub fn config(&self) -> &KsConfig {
        &self.cfg
    }

    /// Explains the failed KS test between the reference behind `index`
    /// (canonically a [`ReferenceIndex`]) and `test` under `preference`,
    /// writing the output into storage recycled through `arena` (see
    /// [`ExplanationArena`]): the returned explanation owns the arena's
    /// buffers; hand them back with [`ExplanationArena::recycle`] once it
    /// has been consumed.
    ///
    /// The window is spliced into the index
    /// ([`BaseVector::build_with_index_into_using`]) instead of re-merging
    /// `R ∪ T`, and base vector, bounds, sort buffer, removal counts *and*
    /// the output vectors are all reused, so a warm `(engine, arena)` pair
    /// explains with zero heap allocations.
    ///
    /// # Errors
    ///
    /// As for [`crate::Moche::explain`].
    pub fn explain_with_index_in<S: RankSource + ?Sized>(
        &mut self,
        index: &S,
        test: &[f64],
        preference: &PreferenceList,
        arena: &mut ExplanationArena,
    ) -> Result<Explanation, MocheError> {
        self.with_splice(index, test, |engine, base| {
            engine.explain_base_in(base, test, preference, arena)
        })
    }

    /// Phase 1 only, against a precomputed [`RankSource`]: the
    /// explanation *size* `k` of the failed test, without constructing the
    /// explanation itself. This is the `size_only` monitoring fast path —
    /// "how bad is the drift" without paying for Phase 2.
    ///
    /// # Errors
    ///
    /// As for [`explain_with_index_in`](Self::explain_with_index_in),
    /// except preference errors cannot occur (no preference is involved).
    pub fn size_with_index<S: RankSource + ?Sized>(
        &mut self,
        index: &S,
        test: &[f64],
    ) -> Result<SizeSearch, MocheError> {
        self.with_splice(index, test, |engine, base| engine.size_base(base))
    }

    /// Splices `test` into `index` in the recycled base-vector and sort
    /// buffers, runs `then` over the result and puts the buffers back.
    fn with_splice<S: RankSource + ?Sized, T>(
        &mut self,
        index: &S,
        test: &[f64],
        then: impl FnOnce(&mut Self, &BaseVector) -> Result<T, MocheError>,
    ) -> Result<T, MocheError> {
        let mut base = self.base_scratch.take().unwrap_or_else(BaseVector::empty);
        let mut sort_scratch = std::mem::take(&mut self.sort_scratch);
        let result =
            BaseVector::build_with_index_into_using(index, test, &mut base, &mut sort_scratch)
                .and_then(|()| then(self, &base));
        self.sort_scratch = sort_scratch;
        self.base_scratch = Some(base);
        result
    }

    /// Phase 1 over an already-built base vector.
    pub(crate) fn size_base(&self, base: &BaseVector) -> Result<SizeSearch, MocheError> {
        self.size_checked(base, &base.outcome(&self.cfg))
    }

    /// Phase 1 under an already-computed before-removal outcome.
    fn size_checked(
        &self,
        base: &BaseVector,
        outcome_before: &crate::ks::KsOutcome,
    ) -> Result<SizeSearch, MocheError> {
        if outcome_before.passes() {
            return Err(MocheError::TestAlreadyPasses {
                statistic: outcome_before.statistic,
                threshold: outcome_before.threshold,
            });
        }
        let ctx = BoundsContext::new(base, &self.cfg);
        self.find_size_with_strategy(&ctx, self.cfg.alpha())
    }

    /// Phase 1 under this engine's configured size-search strategy.
    fn find_size_with_strategy(
        &self,
        ctx: &BoundsContext<'_>,
        alpha: f64,
    ) -> Result<SizeSearch, MocheError> {
        match self.size_search {
            SizeSearchStrategy::Wavefront => phase1::find_size_wavefront(ctx, alpha),
            SizeSearchStrategy::LowerBounded => phase1::find_size(ctx, alpha),
            SizeSearchStrategy::NoLowerBound => phase1::find_size_no_lower_bound(ctx, alpha),
        }
    }

    /// The core flow over an already-built base vector, writing the output
    /// into storage taken from `arena`. On error the storage is returned to
    /// the arena, so a failed window never degrades later ones back to
    /// allocating.
    pub(crate) fn explain_base_in(
        &mut self,
        base: &BaseVector,
        test: &[f64],
        preference: &PreferenceList,
        arena: &mut ExplanationArena,
    ) -> Result<Explanation, MocheError> {
        preference.check_length(base.m())?;
        let outcome_before = base.outcome(&self.cfg);
        let phase1 = self.size_checked(base, &outcome_before)?;

        let (mut indices, mut values) = arena.take();
        let constructed = match self.construction {
            ConstructionStrategy::Incremental => phase2::construct_into(
                base,
                &self.cfg,
                phase1.k,
                preference.as_order(),
                &mut self.ws,
                &mut indices,
            ),
            ConstructionStrategy::Reference => {
                phase2::construct_reference(base, &self.cfg, phase1.k, preference.as_order()).map(
                    |(selected, stats)| {
                        indices.clear();
                        indices.extend_from_slice(&selected);
                        stats
                    },
                )
            }
        };
        let phase2 = match constructed {
            Ok(stats) => stats,
            Err(e) => {
                arena.put(indices, values);
                return Err(e);
            }
        };

        self.counts_scratch.refill_from_test_indices(base, &indices);
        let outcome_after = base.outcome_after_removal(self.counts_scratch.as_slice(), &self.cfg);
        values.reserve(indices.len());
        values.extend(indices.iter().map(|&i| test[i]));

        Ok(Explanation {
            indices,
            values,
            phase1,
            phase2,
            outcome_before,
            outcome_after,
            n: base.n(),
            m: base.m(),
            q: base.q(),
        })
    }

    /// Sensitivity sweep sharing one base vector *and* one bounds context
    /// across all levels (cf. [`crate::Moche::size_profile`]).
    ///
    /// # Errors
    ///
    /// Input-validation errors fail the whole call; per-level outcomes are
    /// reported inside the vector.
    pub fn size_profile(
        &mut self,
        reference: &[f64],
        test: &[f64],
        alphas: &[f64],
    ) -> Result<SizeProfile, MocheError> {
        let base = BaseVector::build(reference, test)?;
        let mut ctx = BoundsContext::new(&base, &self.cfg);
        let mut out = Vec::with_capacity(alphas.len());
        for &alpha in alphas {
            let cfg = match KsConfig::new(alpha) {
                Ok(c) => c.with_eps(self.cfg.eps()),
                Err(e) => {
                    out.push((alpha, Err(e)));
                    continue;
                }
            };
            let outcome = base.outcome(&cfg);
            if outcome.passes() {
                out.push((
                    alpha,
                    Err(MocheError::TestAlreadyPasses {
                        statistic: outcome.statistic,
                        threshold: outcome.threshold,
                    }),
                ));
                continue;
            }
            ctx.set_config(&cfg);
            out.push((alpha, self.find_size_with_strategy(&ctx, alpha)));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moche::{ConstructionStrategy, Moche};
    use crate::ref_index::ReferenceIndex;

    fn paper_setup() -> (Vec<f64>, Vec<f64>) {
        (vec![14.0, 14.0, 14.0, 14.0, 20.0, 20.0, 20.0, 20.0], vec![13.0, 13.0, 12.0, 20.0])
    }

    #[test]
    fn engine_matches_one_shot_paths() {
        let (r, t) = paper_setup();
        let index = ReferenceIndex::new(&r).unwrap();
        let pref = PreferenceList::new(vec![3, 2, 1, 0]).unwrap();
        let mut engine = ExplainEngine::new(0.3).unwrap();
        let mut arena = ExplanationArena::new();
        let moche = Moche::new(0.3).unwrap();
        let reference = moche.construction(ConstructionStrategy::Reference);
        for _ in 0..3 {
            let a = engine.explain_with_index_in(&index, &t, &pref, &mut arena).unwrap();
            let b = moche.explain(&r, &t, &pref).unwrap();
            let c = reference.explain(&r, &t, &pref).unwrap();
            assert_eq!(a, b);
            assert_eq!(a.indices(), c.indices());
            assert_eq!(a.outcome_after, c.outcome_after);
            arena.recycle(a);
        }
    }

    #[test]
    fn engine_size_only_matches_full_phase1() {
        let (r, t) = paper_setup();
        let index = ReferenceIndex::new(&r).unwrap();
        let mut engine = ExplainEngine::new(0.3).unwrap();
        let size = engine.size_with_index(&index, &t).unwrap();
        let full = Moche::new(0.3).unwrap().explain(&r, &t, &PreferenceList::identity(4)).unwrap();
        assert_eq!(size, full.phase1);
        assert_eq!(Moche::new(0.3).unwrap().explanation_size(&r, &t).unwrap(), size);
        // Passing tests surface the same error as the explain path.
        match engine.size_with_index(&index, &r) {
            Err(MocheError::TestAlreadyPasses { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn engine_surfaces_errors_like_moche() {
        let (r, t) = paper_setup();
        let index = ReferenceIndex::new(&r).unwrap();
        let mut engine = ExplainEngine::new(0.3).unwrap();
        let mut arena = ExplanationArena::new();
        match engine.explain_with_index_in(
            &index,
            &r,
            &PreferenceList::identity(r.len()),
            &mut arena,
        ) {
            Err(MocheError::TestAlreadyPasses { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
        match engine.explain_with_index_in(&index, &t, &PreferenceList::identity(3), &mut arena) {
            Err(MocheError::PreferenceLengthMismatch { expected: 4, actual: 3 }) => {}
            other => panic!("unexpected {other:?}"),
        }
        // A hard error must not poison the engine for later calls.
        let pref = PreferenceList::new(vec![3, 2, 1, 0]).unwrap();
        assert_eq!(engine.explain_with_index_in(&index, &t, &pref, &mut arena).unwrap().size(), 2);
    }

    #[test]
    fn engine_size_profile_matches_moche() {
        let r: Vec<f64> = (0..200).map(|i| f64::from(i % 10)).collect();
        let t: Vec<f64> = (0..150).map(|i| f64::from(i % 10) + 4.0).collect();
        let alphas = [0.01, 0.05, 0.1, 0.2, 2.0];
        let moche = Moche::new(0.05).unwrap();
        let mut engine = ExplainEngine::new(0.05).unwrap();
        let a = moche.size_profile(&r, &t, &alphas).unwrap();
        let b = engine.size_profile(&r, &t, &alphas).unwrap();
        assert_eq!(a.len(), b.len());
        for ((alpha_a, res_a), (alpha_b, res_b)) in a.iter().zip(&b) {
            assert_eq!(alpha_a, alpha_b);
            match (res_a, res_b) {
                (Ok(x), Ok(y)) => assert_eq!(x, y),
                (Err(x), Err(y)) => assert_eq!(x, y),
                other => panic!("profile mismatch at alpha {alpha_a}: {other:?}"),
            }
        }
    }
}
