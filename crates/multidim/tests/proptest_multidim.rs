//! Property suite for the 2-D engine treatment: the rank-space index and
//! the [`Explain2dEngine`] must be *bit-identical* to the naive
//! Fasano-Franceschini implementations on arbitrary inputs — duplicates,
//! shared coordinates, signed zeros, collinear and constant windows — and
//! the impact explainer's irreducibility contract must hold.

use moche_core::{MocheError, PreferenceList};
use moche_multidim::{
    ks2d_statistic, ks2d_statistic_indexed, ks2d_test, pearson_r, Explain2dEngine,
    Explanation2dArena, GreedyImpact2d, Ks2dConfig, Point2, RankIndex2d, Scratch2d,
};
use proptest::prelude::*;

/// Coordinates drawn from a small lattice (plus both signed zeros), so
/// generated samples are dense in duplicates and on-line points — the FF
/// statistic's exclusion rule and the sweep's rank handling get exercised
/// constantly.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![(-4i32..5).prop_map(|v| f64::from(v) * 0.5), Just(-0.0f64), Just(0.0f64),]
}

fn points(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point2>> {
    proptest::collection::vec((coord(), coord()).prop_map(|(x, y)| Point2::new(x, y)), len)
}

/// Test windows shifted off the reference lattice so a useful fraction of
/// generated instances actually fail the KS test.
fn shifted_points(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point2>> {
    points(len).prop_map(|pts| pts.into_iter().map(|p| Point2::new(p.x + 2.0, p.y + 2.5)).collect())
}

fn alphas() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.05), Just(0.1), Just(0.2), Just(0.3)]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        max_global_rejects: 8192,
        ..ProptestConfig::default()
    })]

    #[test]
    fn indexed_statistic_is_bit_identical_to_naive(r in points(3..36), t in points(3..24)) {
        let index = RankIndex2d::new(&r).unwrap();
        let mut scratch = Scratch2d::new();
        let indexed = ks2d_statistic_indexed(&index, &t, &mut scratch).unwrap();
        let naive = ks2d_statistic(&r, &t).unwrap();
        prop_assert_eq!(indexed.to_bits(), naive.to_bits());
    }

    #[test]
    fn incremental_removal_matches_rescan(
        r in points(3..28),
        t in points(3..20),
        seed in 0u64..1000,
    ) {
        let index = RankIndex2d::new(&r).unwrap();
        let mut scratch = Scratch2d::new();
        scratch.bind(&index, &t);
        // A deterministic pseudo-random removal set, never the full window.
        let mut removed: Vec<usize> = Vec::new();
        for j in 0..t.len() {
            if (j as u64 * 7 + seed).is_multiple_of(3) && removed.len() + 1 < t.len() {
                removed.push(j);
            }
        }
        for &j in &removed {
            // The O(n+m) candidate evaluation must equal remove-then-score.
            let candidate = scratch.statistic_excluding(&index, &t, j);
            scratch.remove(&index, &t, j);
            prop_assert_eq!(candidate.to_bits(), scratch.statistic(&index).to_bits());
        }
        let kept: Vec<Point2> = t
            .iter()
            .enumerate()
            .filter_map(|(j, &p)| (!removed.contains(&j)).then_some(p))
            .collect();
        let naive = ks2d_statistic(&r, &kept).unwrap();
        prop_assert_eq!(scratch.statistic(&index).to_bits(), naive.to_bits());
        prop_assert_eq!(scratch.pearson_live(&t).to_bits(), pearson_r(&kept).to_bits());
        // Restoring in any order returns to the full-window statistic.
        for &j in removed.iter().rev() {
            scratch.restore(&index, &t, j);
        }
        let full = ks2d_statistic(&r, &t).unwrap();
        prop_assert_eq!(scratch.statistic(&index).to_bits(), full.to_bits());
    }

    #[test]
    fn collinear_and_constant_windows_match(
        xs in proptest::collection::vec(coord(), 3..15),
        r in points(5..25),
        mode in 0usize..3,
    ) {
        let t: Vec<Point2> = xs
            .iter()
            .map(|&x| match mode {
                0 => Point2::new(x, 2.0 * x + 1.0),
                1 => Point2::new(x, -x),
                _ => Point2::new(x, 1.5),
            })
            .collect();
        let index = RankIndex2d::new(&r).unwrap();
        let mut scratch = Scratch2d::new();
        let indexed = ks2d_statistic_indexed(&index, &t, &mut scratch).unwrap();
        prop_assert_eq!(indexed.to_bits(), ks2d_statistic(&r, &t).unwrap().to_bits());
        prop_assert_eq!(scratch.pearson_live(&t).to_bits(), pearson_r(&t).to_bits());
    }

    #[test]
    fn engine_is_byte_identical_to_the_naive_impact_explainer(
        r in points(6..28),
        t in shifted_points(4..14),
        alpha in alphas(),
        seed in 0u64..1000,
    ) {
        let cfg = Ks2dConfig::new(alpha).unwrap();
        prop_assume!(ks2d_test(&r, &t, &cfg).unwrap().rejected);
        let pref = PreferenceList::random(t.len(), seed);
        let naive = GreedyImpact2d.explain(&r, &t, &cfg, Some(&pref));
        let index = RankIndex2d::new(&r).unwrap();
        let mut engine = Explain2dEngine::with_config(cfg);
        let fast = engine.explain_in(&index, &t, Some(&pref), &mut Explanation2dArena::new());
        // A reused arena must agree with a fresh one too.
        let mut arena = Explanation2dArena::new();
        let warm = engine.explain_in(&index, &t, Some(&pref), &mut arena);
        match (naive, fast, warm) {
            (Ok(a), Ok(b), Ok(c)) => {
                prop_assert_eq!(&a.indices, &b.indices);
                prop_assert_eq!(&a.indices, &c.indices);
                prop_assert_eq!(
                    a.outcome_before.p_value.to_bits(),
                    b.outcome_before.p_value.to_bits()
                );
                prop_assert_eq!(
                    a.outcome_after.statistic.to_bits(),
                    b.outcome_after.statistic.to_bits()
                );
                prop_assert_eq!(a.outcome_after.p_value.to_bits(), b.outcome_after.p_value.to_bits());
                prop_assert_eq!(a.outcome_after.m, b.outcome_after.m);
                prop_assert_eq!(b.outcome_after, c.outcome_after);
            }
            (
                Err(MocheError::NoExplanation { .. }),
                Err(MocheError::NoExplanation { .. }),
                Err(MocheError::NoExplanation { .. }),
            ) => {}
            (a, b, c) => prop_assert!(false, "diverged: naive={a:?} fast={b:?} warm={c:?}"),
        }
    }

    #[test]
    fn impact_explanations_are_irreducible(
        r in points(6..28),
        t in shifted_points(4..14),
        alpha in alphas(),
    ) {
        let cfg = Ks2dConfig::new(alpha).unwrap();
        prop_assume!(ks2d_test(&r, &t, &cfg).unwrap().rejected);
        let index = RankIndex2d::new(&r).unwrap();
        let mut engine = Explain2dEngine::with_config(cfg);
        // NoExplanation instances have nothing to check.
        if let Ok(e) = engine.explain_in(&index, &t, None, &mut Explanation2dArena::new()) {
            prop_assert!(e.outcome_after.passes());
            for drop in 0..e.size() {
                let still_removed: Vec<usize> = e
                    .indices
                    .iter()
                    .enumerate()
                    .filter_map(|(j, &i)| (j != drop).then_some(i))
                    .collect();
                let kept: Vec<Point2> = t
                    .iter()
                    .enumerate()
                    .filter_map(|(j, &p)| (!still_removed.contains(&j)).then_some(p))
                    .collect();
                // outcome_of_removal ≡ ks2d_test over the kept subset.
                let o = ks2d_test(&r, &kept, &cfg).unwrap();
                prop_assert!(o.rejected, "dropping element {} still passes: not irreducible", drop);
            }
        }
    }
}
