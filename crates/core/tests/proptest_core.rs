//! Property-based oracle tests: MOCHE against the brute-force reference on
//! randomly generated small instances, plus invariants of the bound
//! machinery.

use moche_core::base_vector::BaseVector;
use moche_core::bounds::BoundsContext;
use moche_core::brute_force::{
    brute_force_explain, exists_qualified_exhaustive, removal_reverses, BruteForceLimits,
};
use moche_core::cumulative::SubsetCounts;
use moche_core::ks::KsConfig;
use moche_core::moche::{ConstructionStrategy, Moche};
use moche_core::phase1;
use moche_core::preference::PreferenceList;
use moche_core::{
    BatchExplainer, ExplainEngine, Explanation, ExplanationArena, MocheError, ReferenceIndex,
    SortedReference, StreamingBatchExplainer, WindowReport,
};
use proptest::prelude::*;
use std::cell::RefCell;

/// Small integer-valued samples create plenty of ties, which is the hard
/// case for the cumulative-vector machinery. The test set is drawn from a
/// shifted range so most generated instances actually fail the KS test
/// (small samples have large thresholds, so unshifted instances almost
/// always pass and would starve `prop_assume`).
fn small_instance() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    let value = 0i32..8;
    (
        proptest::collection::vec(value.clone(), 6..20),
        proptest::collection::vec(value, 4..10),
        3i32..7,
    )
        .prop_map(|(r, t, shift)| {
            (
                r.into_iter().map(f64::from).collect(),
                t.into_iter().map(|v| f64::from(v + shift)).collect(),
            )
        })
}

/// [`small_instance`] moved down so the test range overlaps `0`, with
/// every zero in either sample emitted as `-0.0` or `0.0` at random: the
/// signed-zero ties that `-0.0 == 0.0` makes invisible to `PartialEq` but
/// not to `total_cmp` sorts and splices.
fn signed_zero_instance() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    let signed = |v: i32, negative: bool| if v == 0 && negative { -0.0 } else { f64::from(v) };
    let value = (0i32..8, prop::bool::ANY);
    (
        proptest::collection::vec(value.clone(), 6..20),
        proptest::collection::vec(value, 4..10),
        1i32..5,
    )
        .prop_map(move |(r, t, shift)| {
            (
                r.into_iter().map(|(v, neg)| signed(v - 2, neg)).collect(),
                t.into_iter().map(|(v, neg)| signed(v + shift - 4, neg)).collect(),
            )
        })
}

fn alphas() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.05), Just(0.1), Just(0.2), Just(0.25)]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 192,
        max_global_rejects: 8192,
        ..ProptestConfig::default()
    })]

    // The oracle net over every 1-D explain surface: the one-shot facade,
    // the engine's indexed entry point (one arena reused across cases),
    // batch at 1 and 3 threads, and the stream must each return the
    // brute-force explanation.
    #[test]
    fn moche_matches_brute_force(
        (r, t) in prop_oneof![small_instance(), signed_zero_instance()],
        alpha in alphas(),
        seed in 0u64..1000,
    ) {
        thread_local! {
            static ARENA: RefCell<ExplanationArena> = RefCell::new(ExplanationArena::new());
        }
        let cfg = KsConfig::new(alpha).unwrap();
        let base = BaseVector::build(&r, &t).unwrap();
        prop_assume!(base.outcome(&cfg).rejected);

        let pref = PreferenceList::random(t.len(), seed);
        let slow = brute_force_explain(&r, &t, &cfg, &pref, BruteForceLimits::default()).unwrap();
        let mut expected = slow.indices.clone();
        expected.sort_unstable();
        // Identical explanations: same size, same index set, and removing
        // them reverses the test.
        let check = |surface: &str, e: &Explanation| -> Result<(), TestCaseError> {
            let mut got = e.indices().to_vec();
            got.sort_unstable();
            prop_assert_eq!(&got, &expected, "{} (pref = {:?})", surface, pref.as_order());
            prop_assert_eq!(e.size(), expected.len(), "{}: k", surface);
            prop_assert!(e.outcome_after.passes(), "{}: outcome_after", surface);
            Ok(())
        };

        check("Moche", &Moche::new(alpha).unwrap().explain(&r, &t, &pref).unwrap())?;

        let index = ReferenceIndex::new(&r).unwrap();
        let mut engine = ExplainEngine::new(alpha).unwrap();
        ARENA.with(|arena| {
            let mut arena = arena.borrow_mut();
            let e = engine.explain_with_index_in(&index, &t, &pref, &mut arena).unwrap();
            let checked = check("explain_with_index_in", &e);
            arena.recycle(e);
            checked
        })?;

        let shared = SortedReference::new(&r).unwrap();
        let (windows, prefs) = ([t.clone()], [pref.clone()]);
        for threads in [1, 3] {
            let batch = BatchExplainer::new(alpha).unwrap().threads(threads);
            let results = batch.explain_windows(&shared, &windows, Some(&prefs));
            check(&format!("batch threads={threads}"), results[0].as_ref().unwrap())?;
        }

        let mut streamed = Vec::new();
        let score = |_: usize, _: &[f64]| Ok(pref.clone());
        StreamingBatchExplainer::new(alpha).unwrap().explain_stream(
            &index,
            windows.clone(),
            Some(&score),
            |res| streamed.push(res.result),
        );
        match streamed.as_slice() {
            [Ok(WindowReport::Explained(e))] => check("stream", e)?,
            other => prop_assert!(false, "stream: {:?}", other),
        }
    }

    #[test]
    fn explanation_reverses_and_is_minimal((r, t) in small_instance(), alpha in alphas()) {
        let cfg = KsConfig::new(alpha).unwrap();
        let base = BaseVector::build(&r, &t).unwrap();
        prop_assume!(base.outcome(&cfg).rejected);

        let moche = Moche::new(alpha).unwrap();
        let pref = PreferenceList::identity(t.len());
        let e = moche.explain(&r, &t, &pref).unwrap();

        // Removing the explanation reverses the failed test.
        prop_assert!(e.outcome_after.passes());
        prop_assert!(removal_reverses(&base, &cfg, e.indices()));

        // Minimality: no subset of size k - 1 reverses the test.
        if e.size() > 1 {
            let smaller =
                exists_qualified_exhaustive(&base, &cfg, e.size() - 1, 2_000_000).unwrap();
            prop_assert!(!smaller, "a ({})-subset also reverses the test", e.size() - 1);
        }
    }

    #[test]
    fn theorem1_matches_exhaustive_search((r, t) in small_instance(), alpha in alphas()) {
        let cfg = KsConfig::new(alpha).unwrap();
        let base = BaseVector::build(&r, &t).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);
        for h in 1..t.len() {
            let fast = ctx.exists_qualified(h);
            let slow = exists_qualified_exhaustive(&base, &cfg, h, 2_000_000).unwrap();
            prop_assert_eq!(fast, slow, "h = {}", h);
        }
    }

    #[test]
    fn theorem2_is_monotone_and_lower_bounds_k((r, t) in small_instance(), alpha in alphas()) {
        let cfg = KsConfig::new(alpha).unwrap();
        let base = BaseVector::build(&r, &t).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);

        // Monotonicity of the necessary condition.
        let mut seen_true = false;
        for h in 1..t.len() {
            let ok = ctx.necessary_condition(h);
            if seen_true {
                prop_assert!(ok, "monotonicity violated at h = {}", h);
            }
            seen_true |= ok;
        }

        // k_hat <= k whenever the test fails and an explanation exists.
        if base.outcome(&cfg).rejected {
            match phase1::find_size(&ctx, alpha) {
                Ok(s) => {
                    prop_assert!(s.k_hat <= s.k);
                    prop_assert!(ctx.exists_qualified(s.k));
                    if s.k > 1 {
                        prop_assert!(!ctx.exists_qualified(s.k - 1) || s.k == s.k_hat);
                    }
                }
                Err(MocheError::NoExplanation { .. }) => {
                    // Only legal above the existence guarantee.
                    prop_assert!(!cfg.existence_guaranteed());
                }
                Err(other) => prop_assert!(false, "unexpected error {:?}", other),
            }
        }
    }

    #[test]
    fn incremental_and_reference_construction_agree(
        (r, t) in small_instance(),
        alpha in alphas(),
        seed in 0u64..1000,
    ) {
        let cfg = KsConfig::new(alpha).unwrap();
        let base = BaseVector::build(&r, &t).unwrap();
        prop_assume!(base.outcome(&cfg).rejected);

        let pref = PreferenceList::random(t.len(), seed);
        let a = Moche::new(alpha).unwrap();
        let b = a.construction(ConstructionStrategy::Reference);
        let ea = a.explain(&r, &t, &pref).unwrap();
        let eb = b.explain(&r, &t, &pref).unwrap();
        prop_assert_eq!(ea.indices(), eb.indices());
    }

    #[test]
    fn witness_construction_is_sound((r, t) in small_instance(), alpha in alphas()) {
        let cfg = KsConfig::new(alpha).unwrap();
        let base = BaseVector::build(&r, &t).unwrap();
        let ctx = BoundsContext::new(&base, &cfg);
        for h in 1..t.len() {
            if let Some(w) = ctx.construct_witness(h) {
                prop_assert!(w.is_subset_of_test(&base));
                prop_assert_eq!(w.subset_size(), h as u64);
                let counts = w.counts();
                let outcome = base.outcome_after_removal(counts.as_slice(), &cfg);
                prop_assert!(outcome.passes(), "witness at h = {} fails", h);
            }
        }
    }

    #[test]
    fn explanation_is_lex_minimal_among_equal_size(
        (r, t) in small_instance(),
        alpha in alphas(),
        seed in 0u64..1000,
    ) {
        // Cross-check Definition 2 directly: enumerate all k-subsets and
        // verify none that reverses the test lex-precedes MOCHE's answer.
        let cfg = KsConfig::new(alpha).unwrap();
        let base = BaseVector::build(&r, &t).unwrap();
        prop_assume!(base.outcome(&cfg).rejected);
        prop_assume!(t.len() <= 9);

        let pref = PreferenceList::random(t.len(), seed);
        let moche = Moche::new(alpha).unwrap();
        let e = moche.explain(&r, &t, &pref).unwrap();
        let k = e.size();
        prop_assume!(k <= 5);

        // Enumerate k-subsets of indices.
        let m = t.len();
        let mut idxs: Vec<usize> = (0..k).collect();
        loop {
            let subset: Vec<usize> = idxs.clone();
            if removal_reverses(&base, &cfg, &subset) {
                use std::cmp::Ordering;
                let cmp = pref.lex_cmp(&subset, e.indices());
                prop_assert!(
                    cmp != Ordering::Less,
                    "{:?} lex-precedes MOCHE's {:?}",
                    subset,
                    e.indices()
                );
            }
            // next combination
            let mut i = k;
            loop {
                if i == 0 {
                    break;
                }
                i -= 1;
                if idxs[i] != i + m - k {
                    break;
                }
                if i == 0 {
                    break;
                }
            }
            if idxs[i] == i + m - k {
                break;
            }
            idxs[i] += 1;
            for j in i + 1..k {
                idxs[j] = idxs[j - 1] + 1;
            }
        }
    }

    #[test]
    fn subset_counts_roundtrip((r, t) in small_instance(), seed in 0u64..100) {
        let base = BaseVector::build(&r, &t).unwrap();
        // Random subset of test indices.
        let pref = PreferenceList::random(t.len(), seed);
        let take = t.len() / 2;
        let indices: Vec<usize> = pref.as_order()[..take].to_vec();
        let counts = SubsetCounts::from_test_indices(&base, &indices);
        prop_assert_eq!(counts.total() as usize, take);
        let cum = counts.cumulative();
        prop_assert_eq!(cum.counts(), counts);
        prop_assert!(cum.is_subset_of_test(&base));
        let materialized = cum.materialize_indices(&base, t.len()).unwrap();
        prop_assert_eq!(materialized.len(), take);
        // Same multiset of values.
        let mut v1: Vec<f64> = indices.iter().map(|&i| t[i]).collect();
        let mut v2: Vec<f64> = materialized.iter().map(|&i| t[i]).collect();
        v1.sort_by(f64::total_cmp);
        v2.sort_by(f64::total_cmp);
        prop_assert_eq!(v1, v2);
    }

    #[test]
    fn statistic_after_removal_consistent_with_direct((r, t) in small_instance(), seed in 0u64..100) {
        let base = BaseVector::build(&r, &t).unwrap();
        let pref = PreferenceList::random(t.len(), seed);
        let take = (t.len() - 1) / 2;
        let indices: Vec<usize> = pref.as_order()[..take].to_vec();
        let counts = SubsetCounts::from_test_indices(&base, &indices);

        let mut t_after = Vec::new();
        let mut removed = vec![false; t.len()];
        for &i in &indices {
            removed[i] = true;
        }
        for (i, &v) in t.iter().enumerate() {
            if !removed[i] {
                t_after.push(v);
            }
        }
        let direct = moche_core::ks_statistic(&r, &t_after).unwrap();
        let viacum = base.statistic_after_removal(counts.as_slice());
        prop_assert!((direct - viacum).abs() < 1e-12, "direct {} vs cum {}", direct, viacum);
    }
}
