//! Equivalence properties for the scratch-reuse engine and the batch API:
//! on random failing `(R, T, alpha, preference)` instances, both must
//! return explanations byte-identical to the allocating `Reference`
//! construction path — same indices (same order), same `k`, same `k_hat`,
//! same outcomes.

use moche_core::base_vector::BaseVector;
use moche_core::batch::BatchExplainer;
use moche_core::ks::KsConfig;
use moche_core::moche::{ConstructionStrategy, Moche};
use moche_core::preference::PreferenceList;
use moche_core::{ExplainEngine, ExplanationArena, ReferenceIndex, SortedReference};
use proptest::prelude::*;

/// Small integer-valued samples with a shift, so most instances fail the
/// KS test (cf. `proptest_core.rs`).
fn small_instance() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    let value = 0i32..8;
    (
        proptest::collection::vec(value.clone(), 6..24),
        proptest::collection::vec(value, 4..12),
        3i32..7,
    )
        .prop_map(|(r, t, shift)| {
            (
                r.into_iter().map(f64::from).collect(),
                t.into_iter().map(|v| f64::from(v + shift)).collect(),
            )
        })
}

fn alphas() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.05), Just(0.1), Just(0.2), Just(0.25)]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128,
        max_global_rejects: 8192,
        ..ProptestConfig::default()
    })]

    #[test]
    fn engine_is_byte_identical_to_reference(
        (r, t) in small_instance(),
        alpha in alphas(),
        seed in 0u64..1000,
    ) {
        let cfg = KsConfig::new(alpha).unwrap();
        let base = BaseVector::build(&r, &t).unwrap();
        prop_assume!(base.outcome(&cfg).rejected);

        let pref = PreferenceList::random(t.len(), seed);
        let reference = Moche::new(alpha).unwrap().construction(ConstructionStrategy::Reference);
        let expected = reference.explain(&r, &t, &pref).unwrap();

        let index = ReferenceIndex::new(&r).unwrap();
        let mut engine = ExplainEngine::new(alpha).unwrap();
        let mut arena = ExplanationArena::new();
        // Warm the workspace on an unrelated instance first: reuse must not
        // leak state between calls.
        let identity = PreferenceList::identity(t.len());
        if let Ok(warm) = engine.explain_with_index_in(&index, &t, &identity, &mut arena) {
            arena.recycle(warm);
        }
        let got = engine.explain_with_index_in(&index, &t, &pref, &mut arena).unwrap();

        prop_assert_eq!(got.indices(), expected.indices());
        prop_assert_eq!(got.values(), expected.values());
        prop_assert_eq!(got.phase1.k, expected.phase1.k);
        prop_assert_eq!(got.phase1.k_hat, expected.phase1.k_hat);
        prop_assert_eq!(got.outcome_before, expected.outcome_before);
        prop_assert_eq!(got.outcome_after, expected.outcome_after);
    }

    #[test]
    fn batch_windows_are_byte_identical_to_reference(
        (r, t) in small_instance(),
        alpha in alphas(),
        seed in 0u64..1000,
    ) {
        let cfg = KsConfig::new(alpha).unwrap();
        let base = BaseVector::build(&r, &t).unwrap();
        prop_assume!(base.outcome(&cfg).rejected);

        // A batch of window variants of the same instance: the original,
        // a rotation, and a copy — each with its own preference.
        let mut t2 = t.clone();
        t2.rotate_left(t.len() / 2);
        let windows = [t.clone(), t2, t.clone()];
        let prefs: Vec<PreferenceList> = (0..windows.len() as u64)
            .map(|i| PreferenceList::random(t.len(), seed ^ i))
            .collect();
        let shared = SortedReference::new(&r).unwrap();
        let batch = BatchExplainer::new(alpha).unwrap().threads(3);
        let results = batch.explain_windows(&shared, &windows, Some(&prefs));

        let reference = Moche::new(alpha).unwrap().construction(ConstructionStrategy::Reference);
        for ((w, p), result) in windows.iter().zip(&prefs).zip(&results) {
            match (reference.explain(&r, w, p), result) {
                (Ok(expected), Ok(got)) => {
                    prop_assert_eq!(got.indices(), expected.indices());
                    prop_assert_eq!(got.phase1.k, expected.phase1.k);
                    prop_assert_eq!(got.phase1.k_hat, expected.phase1.k_hat);
                    prop_assert_eq!(&got.outcome_after, &expected.outcome_after);
                }
                (Err(expected), Err(got)) => prop_assert_eq!(got, &expected),
                (expected, got) => {
                    prop_assert!(false, "divergence: {:?} vs {:?}", expected, got);
                }
            }
        }
    }

    #[test]
    fn shared_reference_windows_are_byte_identical(
        (r, t) in small_instance(),
        alpha in alphas(),
        seed in 0u64..1000,
    ) {
        let cfg = KsConfig::new(alpha).unwrap();
        let base = BaseVector::build(&r, &t).unwrap();
        prop_assume!(base.outcome(&cfg).rejected);

        let mut t2 = t.clone();
        t2.reverse();
        let windows = [t.clone(), t2];
        let prefs: Vec<PreferenceList> = (0..windows.len() as u64)
            .map(|i| PreferenceList::random(t.len(), seed.wrapping_add(i)))
            .collect();

        let shared = SortedReference::new(&r).unwrap();
        let batch = BatchExplainer::new(alpha).unwrap().threads(2);
        let results = batch.explain_windows(&shared, &windows, Some(&prefs));

        let reference = Moche::new(alpha).unwrap().construction(ConstructionStrategy::Reference);
        for ((w, p), result) in windows.iter().zip(&prefs).zip(&results) {
            let expected = reference.explain(&r, w, p).unwrap();
            let got = result.as_ref().unwrap();
            prop_assert_eq!(got.indices(), expected.indices());
            prop_assert_eq!(got.values(), expected.values());
            prop_assert_eq!(got.phase1.k, expected.phase1.k);
            prop_assert_eq!(got.phase1.k_hat, expected.phase1.k_hat);
            prop_assert_eq!(&got.outcome_after, &expected.outcome_after);
        }
    }

    #[test]
    fn size_profile_reuse_matches_per_level_contexts(
        (r, t) in small_instance(),
        alpha in alphas(),
    ) {
        // The ctx-reusing sweep must agree with building everything fresh
        // at each level.
        let levels = [0.01, 0.05, 0.1, 0.2, 0.25];
        let mut engine = ExplainEngine::new(alpha).unwrap();
        let profile = engine.size_profile(&r, &t, &levels).unwrap();
        for (level, result) in profile {
            let fresh = Moche::new(level).unwrap();
            match (fresh.explanation_size(&r, &t), result) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "alpha = {}", level),
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "alpha = {}", level),
                (a, b) => prop_assert!(false, "divergence at {}: {:?} vs {:?}", level, a, b),
            }
        }
    }
}
