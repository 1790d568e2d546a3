//! Phase 2 of MOCHE: constructing the most comprehensible explanation
//! (Section 5, Algorithm 1, Lemma 2 and Theorem 3 of the paper).
//!
//! Given the explanation size `k` from Phase 1 and a preference order over
//! the test points, Algorithm 1 scans the points in preference order and
//! greedily keeps every point whose addition leaves the selected set a
//! *partial explanation* — a subset of some qualified `k`-subset. The scan
//! stops as soon as `k` points are selected; the greedy invariant makes the
//! result the lexicographically smallest explanation under the preference
//! order.
//!
//! The partial-explanation test (Theorem 3) tightens the Phase-1 upper
//! bounds by a backward pass: with `d_i` the multiplicity of `x_i` in the
//! candidate set `S`,
//!
//! ```text
//! ū_q = u_q^k,    ū_{i-1} = min(u_{i-1}^k, ū_i - d_i)
//! ```
//!
//! and `S` is a partial explanation iff `l_i^k <= ū_i` for all `i`.
//!
//! Two implementations are provided:
//!
//! * [`construct_reference`] — the paper-faithful version that recomputes
//!   the full `O(q)` backward pass for every candidate
//!   (total `O(m (n + m))`, the paper's stated complexity), and
//! * [`construct_into`] — an exactly equivalent incremental version, the
//!   one the engine runs. Adding a point at base index `j` leaves `ū_i`
//!   unchanged for `i >= j`, and the decrement below `j` propagates only
//!   until absorbed by slack in `u_i^k`, so each check touches only the
//!   coordinates that actually change. Equivalence is enforced by unit and
//!   property tests.

use crate::base_vector::BaseVector;
use crate::bounds::{BoundsContext, BoundsWorkspace, HBounds};
use crate::cumulative::SubsetCounts;
use crate::error::MocheError;
use crate::ks::KsConfig;

/// Instrumentation counters for the Phase-2 construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConstructStats {
    /// Number of candidate points whose addition was checked.
    pub candidates_checked: usize,
    /// Number of candidates accepted into the explanation (`== k` on
    /// success).
    pub accepted: usize,
    /// Total number of backward-pass coordinate updates performed. For the
    /// reference implementation this is about `candidates_checked * q`; the
    /// incremental version is typically far lower.
    pub propagation_steps: u64,
}

/// Checks whether the subset described by `counts` is a partial explanation
/// for explanation size `bounds.h`, by running the full Theorem-3 backward
/// pass. This is the verbatim `O(q)` test from the paper.
pub fn is_partial_explanation(bounds: &HBounds, counts: &SubsetCounts) -> bool {
    let q = counts.q();
    debug_assert_eq!(bounds.lower.len(), q + 1);
    let mut ubar = bounds.upper[q];
    if bounds.lower[q] > ubar {
        return false;
    }
    for i in (1..=q).rev() {
        ubar = bounds.upper[i - 1].min(ubar - counts.count(i) as i64);
        if bounds.lower[i - 1] > ubar {
            return false;
        }
    }
    true
}

/// Runs Algorithm 1 with the paper-faithful partial-explanation check:
/// every candidate triggers a full backward pass.
///
/// `order` lists original test indices from most to least preferred and must
/// be a permutation of `0..m` (enforced by the public API in
/// [`crate::moche`]; here a debug assertion).
///
/// Returns the selected original test indices in preference order.
///
/// # Errors
///
/// Returns [`MocheError::ConstructionIncomplete`] if the scan exhausts `T`
/// before selecting `k` points (numerically impossible when `k` came from
/// Phase 1 on the same configuration).
pub fn construct_reference(
    base: &BaseVector,
    cfg: &KsConfig,
    k: usize,
    order: &[usize],
) -> Result<(Vec<usize>, ConstructStats), MocheError> {
    debug_assert_eq!(order.len(), base.m());
    let ctx = BoundsContext::new(base, cfg);
    let bounds = ctx.compute(k);
    if !bounds.feasible {
        return Err(MocheError::ConstructionIncomplete { built: 0, k });
    }
    let q = base.q();
    let mut counts = SubsetCounts::empty(q);
    let mut selected = Vec::with_capacity(k);
    let mut stats = ConstructStats::default();

    for &orig in order {
        if selected.len() == k {
            break;
        }
        let j = base.test_point_index(orig);
        debug_assert!(counts.count(j) < base.t_mult(j));
        counts.add(j);
        stats.candidates_checked += 1;
        stats.propagation_steps += q as u64;
        if is_partial_explanation(&bounds, &counts) {
            selected.push(orig);
            stats.accepted += 1;
        } else {
            counts.remove(j);
        }
    }

    if selected.len() == k {
        Ok((selected, stats))
    } else {
        Err(MocheError::ConstructionIncomplete { built: selected.len(), k })
    }
}

/// Runs Algorithm 1 with the incremental partial-explanation check.
/// Semantically identical to [`construct_reference`]; asymptotically the
/// same worst case but typically far fewer coordinate updates.
///
/// Every buffer (the Phase-1 bounds, `d`, `ū` and the propagation staging
/// area) lives in `ws`, and the selection is written into `selected`
/// (cleared first). Both are reused across calls, so steady-state
/// construction is allocation-free: this is the hot path of
/// [`crate::engine::ExplainEngine`] and its
/// [`crate::arena::ExplanationArena`].
///
/// On error the buffer holds the partial selection built so far.
///
/// # Errors
///
/// As for [`construct_reference`].
pub fn construct_into(
    base: &BaseVector,
    cfg: &KsConfig,
    k: usize,
    order: &[usize],
    ws: &mut BoundsWorkspace,
    selected: &mut Vec<usize>,
) -> Result<ConstructStats, MocheError> {
    debug_assert_eq!(order.len(), base.m());
    selected.clear();
    selected.reserve(k);
    let ctx = BoundsContext::new(base, cfg);
    if !ctx.compute_into(k, ws) {
        // No qualified k-subset exists at all; nothing can be constructed.
        return Err(MocheError::ConstructionIncomplete { built: 0, k });
    }
    let q = base.q();

    // Split the workspace so the interleaved bounds can be read while the
    // selection state is mutated.
    let BoundsWorkspace { lu, ubar, d, scratch, .. } = ws;
    let lu: &[i64] = lu;
    let lower = |lu: &[i64], i: usize| lu[2 * i];
    let upper = |lu: &[i64], i: usize| lu[2 * i + 1];

    // Multiplicities d_i of the selected set and the current backward bounds
    // ū_i for it. For the empty set: ū_q = u_q, ū_{i-1} = min(u_{i-1}, ū_i).
    d.clear();
    d.resize(q + 1, 0u64);
    ubar.clear();
    ubar.resize(q + 1, 0i64);
    ubar[q] = upper(lu, q);
    for i in (1..=q).rev() {
        ubar[i - 1] = upper(lu, i - 1).min(ubar[i]);
    }
    debug_assert!(
        (0..=q).all(|i| lower(lu, i) <= ubar[i]),
        "the empty set must be a partial explanation when k is the explanation size"
    );

    scratch.clear();
    let mut stats = ConstructStats::default();

    'candidates: for &orig in order {
        if selected.len() == k {
            break;
        }
        let j = base.test_point_index(orig);
        debug_assert!(d[j] < base.t_mult(j));
        stats.candidates_checked += 1;
        scratch.clear();

        // ū_i for i >= j is unaffected by incrementing d_j. Recompute from
        // i = j - 1 downward, stopping as soon as the new value matches the
        // stored one (everything below is then unchanged too).
        let mut prev = ubar[j] - (d[j] + 1) as i64; // ū_j - d'_j
        let mut i = j;
        loop {
            // prev is the candidate value for ū_{i-1} before clamping by u.
            let new_val = upper(lu, i - 1).min(prev);
            stats.propagation_steps += 1;
            if lower(lu, i - 1) > new_val {
                continue 'candidates; // reject: not a partial explanation
            }
            if new_val == ubar[i - 1] {
                break; // stabilized; lower coordinates are unchanged
            }
            scratch.push((i - 1, new_val));
            if i == 1 {
                break;
            }
            prev = new_val - d[i - 1] as i64;
            i -= 1;
        }

        // Accept: commit the recomputed prefix and the new multiplicity.
        for &(idx, val) in scratch.iter() {
            ubar[idx] = val;
        }
        d[j] += 1;
        selected.push(orig);
        stats.accepted += 1;
    }

    if selected.len() == k {
        Ok(stats)
    } else {
        Err(MocheError::ConstructionIncomplete { built: selected.len(), k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase1::find_size;

    /// [`construct_into`] with fresh scratch and selection buffers.
    fn construct(
        base: &BaseVector,
        cfg: &KsConfig,
        k: usize,
        order: &[usize],
    ) -> Result<(Vec<usize>, ConstructStats), MocheError> {
        let mut selected = Vec::new();
        let stats =
            construct_into(base, cfg, k, order, &mut BoundsWorkspace::new(), &mut selected)?;
        Ok((selected, stats))
    }

    fn paper_setup() -> (BaseVector, KsConfig) {
        let r = vec![14.0, 14.0, 14.0, 14.0, 20.0, 20.0, 20.0, 20.0];
        let t = vec![13.0, 13.0, 12.0, 20.0];
        (BaseVector::build(&r, &t).unwrap(), KsConfig::new(0.3).unwrap())
    }

    #[test]
    fn paper_example_6() {
        // L = [t4, t3, t2, t1] -> original indices [3, 2, 1, 0].
        // Expected explanation: {t3, t2} = original indices [2, 1].
        let (base, cfg) = paper_setup();
        let order = vec![3, 2, 1, 0];
        let (sel, _) = construct(&base, &cfg, 2, &order).unwrap();
        assert_eq!(sel, vec![2, 1]);
        let (sel_ref, _) = construct_reference(&base, &cfg, 2, &order).unwrap();
        assert_eq!(sel_ref, vec![2, 1]);
    }

    #[test]
    fn example_6_rejects_t4_first() {
        // The first scanned point t4 = 20 must be rejected (the paper shows
        // ū_3 = 1 < l_3 = 2 for S = {t4}).
        let (base, cfg) = paper_setup();
        let ctx = BoundsContext::new(&base, &cfg);
        let bounds = ctx.compute(2);
        let mut counts = SubsetCounts::empty(base.q());
        counts.add(base.test_point_index(3)); // t4 = 20 -> base index 4
        assert!(!is_partial_explanation(&bounds, &counts));
        // And t3 = 12 must be accepted.
        let mut counts2 = SubsetCounts::empty(base.q());
        counts2.add(base.test_point_index(2)); // t3 = 12 -> base index 1
        assert!(is_partial_explanation(&bounds, &counts2));
    }

    #[test]
    fn empty_set_is_partial_explanation() {
        let (base, cfg) = paper_setup();
        let ctx = BoundsContext::new(&base, &cfg);
        let bounds = ctx.compute(2);
        let counts = SubsetCounts::empty(base.q());
        assert!(is_partial_explanation(&bounds, &counts));
    }

    #[test]
    fn full_explanation_is_partial_explanation_of_itself() {
        let (base, cfg) = paper_setup();
        let order = vec![3, 2, 1, 0];
        let (sel, _) = construct(&base, &cfg, 2, &order).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);
        let bounds = ctx.compute(2);
        let counts = SubsetCounts::from_test_indices(&base, &sel);
        assert!(is_partial_explanation(&bounds, &counts));
    }

    #[test]
    fn selected_set_reverses_the_test() {
        let (base, cfg) = paper_setup();
        assert!(base.outcome(&cfg).rejected);
        let order = vec![3, 2, 1, 0];
        let (sel, _) = construct(&base, &cfg, 2, &order).unwrap();
        let counts = SubsetCounts::from_test_indices(&base, &sel);
        let outcome = base.outcome_after_removal(counts.as_slice(), &cfg);
        assert!(outcome.passes(), "outcome = {outcome:?}");
    }

    #[test]
    fn incremental_matches_reference_on_all_permutations() {
        // 4 test points -> 24 preference orders; both implementations must
        // agree exactly on every one.
        let (base, cfg) = paper_setup();
        let mut order = vec![0usize, 1, 2, 3];
        let mut agree = 0usize;
        permute(&mut order, 0, &mut |perm: &[usize]| {
            let a = construct(&base, &cfg, 2, perm).unwrap();
            let b = construct_reference(&base, &cfg, 2, perm).unwrap();
            assert_eq!(a.0, b.0, "perm = {perm:?}");
            agree += 1;
        });
        assert_eq!(agree, 24);
    }

    fn permute(xs: &mut Vec<usize>, start: usize, f: &mut impl FnMut(&[usize])) {
        if start == xs.len() {
            f(xs);
            return;
        }
        for i in start..xs.len() {
            xs.swap(start, i);
            permute(xs, start + 1, f);
            xs.swap(start, i);
        }
    }

    #[test]
    fn incremental_does_less_propagation_work() {
        // On a larger instance the incremental version must not do more
        // coordinate updates than the reference version.
        let r: Vec<f64> = (0..200).map(|i| f64::from(i % 25)).collect();
        let t: Vec<f64> = (0..150).map(|i| f64::from(i % 10) + 10.0).collect();
        let base = BaseVector::build(&r, &t).unwrap();
        let cfg = KsConfig::new(0.05).unwrap();
        assert!(base.outcome(&cfg).rejected);
        let ctx = BoundsContext::new(&base, &cfg);
        let k = find_size(&ctx, cfg.alpha()).unwrap().k;
        let order: Vec<usize> = (0..t.len()).collect();
        let (sel_a, stats_a) = construct(&base, &cfg, k, &order).unwrap();
        let (sel_b, stats_b) = construct_reference(&base, &cfg, k, &order).unwrap();
        assert_eq!(sel_a, sel_b);
        assert!(
            stats_a.propagation_steps <= stats_b.propagation_steps,
            "incremental {} > reference {}",
            stats_a.propagation_steps,
            stats_b.propagation_steps
        );
    }

    #[test]
    fn preference_order_changes_the_explanation_but_not_its_size() {
        let (base, cfg) = paper_setup();
        let (a, _) = construct(&base, &cfg, 2, &[3, 2, 1, 0]).unwrap();
        let (b, _) = construct(&base, &cfg, 2, &[0, 1, 2, 3]).unwrap();
        assert_eq!(a.len(), b.len());
        // Different orders may pick different witnesses among {12, 13, 13}.
        for sel in [&a, &b] {
            let counts = SubsetCounts::from_test_indices(&base, sel);
            assert!(base.outcome_after_removal(counts.as_slice(), &cfg).passes());
        }
    }

    #[test]
    fn reused_buffers_match_fresh_ones_and_reference() {
        let r: Vec<f64> = (0..200).map(|i| f64::from(i % 25)).collect();
        let t: Vec<f64> = (0..150).map(|i| f64::from(i % 10) + 10.0).collect();
        let base = BaseVector::build(&r, &t).unwrap();
        let cfg = KsConfig::new(0.05).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);
        let k = find_size(&ctx, cfg.alpha()).unwrap().k;
        let mut ws = BoundsWorkspace::new();
        let mut a = Vec::new();
        for seed in 0..5u64 {
            let order = crate::preference::PreferenceList::random(t.len(), seed);
            let stats_a =
                construct_into(&base, &cfg, k, order.as_order(), &mut ws, &mut a).unwrap();
            let (b, stats_b) = construct(&base, &cfg, k, order.as_order()).unwrap();
            let (c, _) = construct_reference(&base, &cfg, k, order.as_order()).unwrap();
            assert_eq!(a, b, "seed = {seed}");
            assert_eq!(a, c, "seed = {seed}");
            assert_eq!(stats_a, stats_b, "buffer reuse must not change the search");
        }
    }

    #[test]
    fn construction_incomplete_error_for_wrong_k() {
        // k below the true size makes the bounds infeasible, which must
        // surface as an error, not a panic, and leave the reused selection
        // buffer holding the (empty) partial selection.
        let (base, cfg) = paper_setup();
        let mut ws = BoundsWorkspace::new();
        let mut selected = vec![7];
        match construct_into(&base, &cfg, 1, &[0, 1, 2, 3], &mut ws, &mut selected) {
            Err(MocheError::ConstructionIncomplete { built: 0, k: 1 }) => {}
            other => panic!("expected ConstructionIncomplete, got {other:?}"),
        }
        assert!(selected.is_empty());
    }

    #[test]
    fn stats_counters_are_consistent() {
        let (base, cfg) = paper_setup();
        let order = vec![3, 2, 1, 0];
        let (sel, stats) = construct(&base, &cfg, 2, &order).unwrap();
        assert_eq!(stats.accepted, sel.len());
        assert!(stats.candidates_checked >= stats.accepted);
        assert!(stats.propagation_steps > 0);
    }
}
