//! The reusable 2-D explanation engine — the engine treatment of
//! [`GreedyImpact2d`](crate::explain2d::GreedyImpact2d), mirroring
//! `moche_core::ExplainEngine` + `ExplanationArena`.
//!
//! [`Explain2dEngine`] owns every piece of descent state ([`Scratch2d`]
//! counts, rank and live-set buffers) and replays the naive
//! steepest-descent + prune algorithm over the rank-space index, so its
//! output is **byte-identical** to `GreedyImpact2d::explain` (pinned by the
//! property suite) while each candidate evaluation costs `O(n + m)` instead
//! of `O((n + m)²)`. [`Explanation2dArena`] recycles the output's index
//! storage, so a warm `(engine, arena)` pair explains a window with **zero
//! marginal heap allocations** (pinned by a counting-allocator test).
//!
//! The engine does not own the reference index: it borrows a
//! [`RankIndex2d`] per call, so batch workers share one immutable index
//! across threads.
//!
//! ```
//! use moche_multidim::{Explain2dEngine, Explanation2dArena, Point2, RankIndex2d};
//!
//! let reference: Vec<Point2> =
//!     (0..80).map(|i| Point2::new(f64::from(i % 9), f64::from(i % 7))).collect();
//! let mut test = reference.clone();
//! test.truncate(40);
//! test.extend((0..25).map(|i| Point2::new(f64::from(i) + 60.0, 60.0)));
//!
//! let index = RankIndex2d::new(&reference).unwrap();
//! let mut engine = Explain2dEngine::new(0.05).unwrap();
//! let mut arena = Explanation2dArena::new();
//! let e = engine.explain_in(&index, &test, None, &mut arena).unwrap();
//! assert!(e.outcome_after.passes());
//! arena.recycle(e); // storage returns for the next window
//! ```

use crate::explain2d::Explanation2d;
use crate::ks2d::{ks2d_p_value, Ks2dConfig, Ks2dOutcome};
use crate::point2::{validate_sample, Point2};
use crate::rank_index::{RankIndex2d, Scratch2d};
use moche_core::error::SetKind;
use moche_core::{MocheError, PreferenceList};

/// Recyclable storage for [`Explanation2d`] outputs: the 2-D counterpart of
/// `moche_core::ExplanationArena`.
#[derive(Debug, Default)]
pub struct Explanation2dArena {
    indices: Vec<usize>,
}

impl Explanation2dArena {
    /// An empty arena; the first explanation sizes its storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena pre-charged with the storage of a consumed explanation.
    pub fn recycled_from(explanation: Explanation2d) -> Self {
        let mut arena = Self::new();
        arena.recycle(explanation);
        arena
    }

    /// Whether the arena currently holds reusable capacity.
    pub fn has_storage(&self) -> bool {
        self.indices.capacity() > 0
    }

    /// Consumes an explanation and reclaims its heap storage.
    pub fn recycle(&mut self, explanation: Explanation2d) {
        let Explanation2d { mut indices, .. } = explanation;
        indices.clear();
        self.indices = indices;
    }

    // The engine's fallible steps all precede the take, so (unlike the 1-D
    // arena) there is no error path that needs to hand storage back.
    pub(crate) fn take(&mut self) -> Vec<usize> {
        let mut indices = std::mem::take(&mut self.indices);
        indices.clear();
        indices
    }
}

/// A reusable engine for 2-D counterfactual explanations over a
/// [`RankIndex2d`].
///
/// Produces exactly the explanations of
/// [`GreedyImpact2d`](crate::explain2d::GreedyImpact2d) — same indices,
/// same outcome bits — via incremental count maintenance instead of
/// per-candidate rescans.
#[derive(Debug)]
pub struct Explain2dEngine {
    cfg: Ks2dConfig,
    scratch: Scratch2d,
    ranks: Vec<usize>,
    live: Vec<usize>,
    removed_order: Vec<usize>,
    prune_order: Vec<usize>,
}

impl Explain2dEngine {
    /// Creates an engine at significance level `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::InvalidAlpha`] unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> Result<Self, MocheError> {
        Ok(Self::with_config(Ks2dConfig::new(alpha)?))
    }

    /// Creates an engine from an existing configuration.
    pub fn with_config(cfg: Ks2dConfig) -> Self {
        Self {
            cfg,
            scratch: Scratch2d::new(),
            ranks: Vec::new(),
            live: Vec::new(),
            removed_order: Vec::new(),
            prune_order: Vec::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &Ks2dConfig {
        &self.cfg
    }

    /// Explains a failed 2-D KS test, drawing the output's storage from
    /// `arena` (a fresh [`Explanation2dArena::new`] for a one-off call).
    /// With a warm engine and a charged arena this performs no heap
    /// allocation at all.
    ///
    /// # Errors
    ///
    /// * [`MocheError::EmptyTest`] / [`MocheError::NonFiniteValue`] for
    ///   invalid test windows (the boundary rejects NaN and infinities
    ///   before any state is touched).
    /// * [`MocheError::PreferenceLengthMismatch`] when the preference does
    ///   not cover the window.
    /// * [`MocheError::TestAlreadyPasses`] when there is nothing to explain.
    /// * [`MocheError::NoExplanation`] when even removing all but one point
    ///   does not reverse the test.
    ///
    /// On error the arena keeps its storage.
    pub fn explain_in(
        &mut self,
        index: &RankIndex2d,
        test: &[Point2],
        preference: Option<&PreferenceList>,
        arena: &mut Explanation2dArena,
    ) -> Result<Explanation2d, MocheError> {
        validate_sample(test, SetKind::Test)?;
        if let Some(p) = preference {
            p.check_length(test.len())?;
        }
        let m = test.len();
        self.scratch.bind(index, test);
        let d0 = self.scratch.statistic(index);
        let before = self.outcome(index, test, d0);
        if before.passes() {
            return Err(MocheError::TestAlreadyPasses {
                statistic: before.statistic,
                threshold: self.cfg.alpha,
            });
        }
        match preference {
            Some(p) => p.ranks_into(&mut self.ranks),
            None => {
                self.ranks.clear();
                self.ranks.extend(0..m);
            }
        }
        self.live.clear();
        self.live.extend(0..m);
        self.removed_order.clear();

        // Greedy descent: remove the live point whose removal minimizes the
        // statistic, ties by preference rank then by live-slot position —
        // the exact candidate order of the naive implementation, which the
        // shared `swap_remove` bookkeeping keeps aligned.
        while self.removed_order.len() + 1 < m {
            let d = self.scratch.statistic(index);
            if self.outcome(index, test, d).passes() {
                break;
            }
            let mut best: Option<(f64, usize, usize)> = None; // (stat, rank, pos)
            for (pos, &idx) in self.live.iter().enumerate() {
                let d = self.scratch.statistic_excluding(index, test, idx);
                let candidate = (d, self.ranks[idx], pos);
                if best.is_none_or(|b| candidate < b) {
                    best = Some(candidate);
                }
            }
            // lint:allow(panic): the descent loop only runs while
            // `self.live` is non-empty, so a best candidate always exists
            let (_, _, pos) = best.expect("live points remain");
            let idx = self.live.swap_remove(pos);
            self.scratch.remove(index, test, idx);
            self.removed_order.push(idx);
        }

        let d = self.scratch.statistic(index);
        if !self.outcome(index, test, d).passes() {
            return Err(MocheError::NoExplanation { alpha: self.cfg.alpha });
        }

        // Prune: re-admit points (worst preference first) whose return
        // keeps the test passing.
        self.prune_order.clear();
        self.prune_order.extend_from_slice(&self.removed_order);
        let ranks = &self.ranks;
        self.prune_order.sort_unstable_by_key(|&i| std::cmp::Reverse(ranks[i]));
        for k in 0..self.prune_order.len() {
            let idx = self.prune_order[k];
            if self.removed_order.len() == 1 {
                // The naive path skips candidates that would empty the set.
                continue;
            }
            self.scratch.restore(index, test, idx);
            let d = self.scratch.statistic(index);
            if self.outcome(index, test, d).passes() {
                let pos = self
                    .removed_order
                    .iter()
                    .position(|&i| i == idx)
                    // lint:allow(panic): `prune_order` is a copy of
                    // `removed_order`, so every pruned idx is present
                    .expect("pruned point is in the removed set");
                self.removed_order.remove(pos);
            } else {
                self.scratch.remove(index, test, idx);
            }
        }

        let mut indices = arena.take();
        indices.extend_from_slice(&self.removed_order);
        let ranks = &self.ranks;
        indices.sort_unstable_by_key(|&i| ranks[i]);
        let d = self.scratch.statistic(index);
        let outcome_after = self.outcome(index, test, d);
        debug_assert!(outcome_after.passes());
        Ok(Explanation2d { indices, outcome_before: before, outcome_after })
    }

    /// The full test outcome for the current live set with statistic `d` —
    /// the same float expressions as the naive `outcome_of_removal`, with
    /// the reference's Pearson term hoisted into the index.
    fn outcome(&self, index: &RankIndex2d, test: &[Point2], d: f64) -> Ks2dOutcome {
        let live = self.scratch.live_count();
        let p_value = ks2d_p_value(
            d,
            index.n(),
            live,
            index.reference_pearson(),
            self.scratch.pearson_live(test),
        );
        Ks2dOutcome {
            statistic: d,
            p_value,
            rejected: p_value < self.cfg.alpha,
            n: index.n(),
            m: live,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain2d::GreedyImpact2d;
    use crate::ks2d::ks2d_test;

    fn contaminated() -> (Vec<Point2>, Vec<Point2>, Ks2dConfig) {
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
        let mut t = grid(60, 0.01, 0.02);
        t.extend(grid(25, 50.0, 50.0));
        (r, t, Ks2dConfig::new(0.05).unwrap())
    }

    #[test]
    fn engine_matches_naive_impact_explainer_exactly() {
        let (r, t, cfg) = contaminated();
        let naive = GreedyImpact2d.explain(&r, &t, &cfg, None).unwrap();
        let index = RankIndex2d::new(&r).unwrap();
        let mut engine = Explain2dEngine::with_config(cfg);
        let fast = engine.explain_in(&index, &t, None, &mut Explanation2dArena::new()).unwrap();
        assert_eq!(fast.indices, naive.indices);
        assert_eq!(fast.outcome_after.statistic.to_bits(), naive.outcome_after.statistic.to_bits());
        assert_eq!(fast.outcome_after.p_value.to_bits(), naive.outcome_after.p_value.to_bits());
        assert_eq!(fast.outcome_before.p_value.to_bits(), naive.outcome_before.p_value.to_bits());
        assert_eq!(fast.outcome_after.m, naive.outcome_after.m);
    }

    #[test]
    fn engine_matches_naive_with_a_preference() {
        let (r, t, cfg) = contaminated();
        let scores: Vec<f64> = t.iter().map(|p| p.x + p.y).collect();
        let pref = PreferenceList::from_scores_desc(&scores).unwrap();
        let naive = GreedyImpact2d.explain(&r, &t, &cfg, Some(&pref)).unwrap();
        let index = RankIndex2d::new(&r).unwrap();
        let mut engine = Explain2dEngine::with_config(cfg);
        let fast =
            engine.explain_in(&index, &t, Some(&pref), &mut Explanation2dArena::new()).unwrap();
        assert_eq!(fast.indices, naive.indices);
    }

    #[test]
    fn warm_engine_is_reusable_across_windows() {
        let (r, t, cfg) = contaminated();
        let index = RankIndex2d::new(&r).unwrap();
        let mut engine = Explain2dEngine::with_config(cfg);
        let mut arena = Explanation2dArena::new();
        let first = engine.explain_in(&index, &t, None, &mut arena).unwrap();
        let first_indices = first.indices.clone();
        arena.recycle(first);
        assert!(arena.has_storage());
        let second = engine.explain_in(&index, &t, None, &mut arena).unwrap();
        assert_eq!(second.indices, first_indices);
    }

    #[test]
    fn non_finite_test_points_are_rejected_at_the_boundary() {
        let (r, _, cfg) = contaminated();
        let index = RankIndex2d::new(&r).unwrap();
        let mut engine = Explain2dEngine::with_config(cfg);
        for bad in [
            Point2::new(f64::NAN, 1.0),
            Point2::new(1.0, f64::NAN),
            Point2::new(f64::INFINITY, 1.0),
            Point2::new(1.0, f64::NEG_INFINITY),
        ] {
            let t = vec![Point2::new(0.0, 0.0), bad];
            match engine.explain_in(&index, &t, None, &mut Explanation2dArena::new()) {
                Err(MocheError::NonFiniteValue { which: SetKind::Test, index: 1, .. }) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(matches!(
            engine.explain_in(&index, &[], None, &mut Explanation2dArena::new()),
            Err(MocheError::EmptyTest)
        ));
    }

    #[test]
    fn passing_window_and_short_preference_are_errors() {
        let (r, t, cfg) = contaminated();
        let index = RankIndex2d::new(&r).unwrap();
        let mut engine = Explain2dEngine::with_config(cfg);
        assert!(ks2d_test(&r, &r, &cfg).unwrap().passes());
        assert!(matches!(
            engine.explain_in(&index, &r, None, &mut Explanation2dArena::new()),
            Err(MocheError::TestAlreadyPasses { .. })
        ));
        let pref = PreferenceList::identity(3);
        assert!(matches!(
            engine.explain_in(&index, &t, Some(&pref), &mut Explanation2dArena::new()),
            Err(MocheError::PreferenceLengthMismatch { .. })
        ));
    }

    #[test]
    fn arena_round_trip_preserves_storage() {
        let (r, t, cfg) = contaminated();
        let index = RankIndex2d::new(&r).unwrap();
        let mut engine = Explain2dEngine::with_config(cfg);
        let explanation =
            engine.explain_in(&index, &t, None, &mut Explanation2dArena::new()).unwrap();
        let capacity = explanation.indices.capacity();
        let mut arena = Explanation2dArena::recycled_from(explanation);
        assert!(arena.has_storage());
        let again = arena.take();
        assert!(again.is_empty(), "take clears recycled contents");
        assert!(again.capacity() >= capacity.min(1));
    }
}
