//! Equivalence properties for the indexed-reference paths: on random
//! instances, base vectors spliced into a [`ReferenceIndex`], the Phase-1
//! size `k`, the final explanations, and the streaming engine's output
//! must all be byte-identical to the paper's merged [`BaseVector::build`]
//! path (the one-shot [`Moche`]).

use moche_core::base_vector::BaseVector;
use moche_core::batch::BatchExplainer;
use moche_core::ks::KsConfig;
use moche_core::moche::{ConstructionStrategy, Moche};
use moche_core::preference::PreferenceList;
use moche_core::{
    ExplainEngine, ExplanationArena, IncrementalRefIndex, MocheError, RankSource, ReferenceIndex,
    SortedReference, StreamMode, StreamingBatchExplainer, WindowReport,
};
use proptest::prelude::*;

/// A fresh spliced base vector of `test` against `index`.
fn splice<S: RankSource + ?Sized>(index: &S, test: &[f64]) -> Result<BaseVector, MocheError> {
    let mut out = BaseVector::empty();
    BaseVector::build_with_index_into_using(index, test, &mut out, &mut Vec::new()).map(|()| out)
}

/// Random samples with duplicates and overlap: integer-valued grids plus a
/// shift, plus occasional fractional values so shared-and-disjoint value
/// mixes are both common.
fn instance() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    let r_value = 0i32..12;
    let t_value = 0i32..12;
    (
        proptest::collection::vec(r_value, 6..40),
        proptest::collection::vec(t_value, 4..16),
        0i32..8,
        0i32..2,
    )
        .prop_map(|(r, t, shift, halves)| {
            let scale = if halves == 1 { 0.5 } else { 1.0 };
            (
                r.into_iter().map(|v| f64::from(v) * scale).collect(),
                t.into_iter().map(|v| (f64::from(v + shift)) * scale).collect(),
            )
        })
}

/// Finite values at the edges of the `total_cmp` key the splice's radix
/// sort runs on: signed zeros, subnormals, `±f64::MAX`,
/// `f64::MIN_POSITIVE`, and ulp neighbours of these and of `±1`.
fn edge_value() -> impl Strategy<Value = f64> {
    let up = |v: f64| f64::from_bits(v.to_bits() + 1);
    let down = |v: f64| f64::from_bits(v.to_bits() - 1);
    let pool = vec![
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(2),
        down(f64::MIN_POSITIVE),
        -down(f64::MIN_POSITIVE),
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        up(f64::MIN_POSITIVE),
        f64::MAX,
        -f64::MAX,
        down(f64::MAX),
        -down(f64::MAX),
        1.0,
        up(1.0),
        down(1.0),
        -1.0,
        -up(1.0),
        2.5,
        -2.5,
    ];
    (0..pool.len()).prop_map(move |i| pool[i])
}

/// A dense grid with hundreds of distinct values, mixed with edge values:
/// a reference of this shape makes the splice gallop far.
fn grid_or_edge_value() -> impl Strategy<Value = f64> {
    prop_oneof![(-400i32..400).prop_map(|k| f64::from(k) * 0.01), edge_value()]
}

/// Adversarial splice inputs: edge values everywhere, all-equal windows
/// (every radix pass skipped), all-negative samples, windows of length 1
/// and 2, and windows much larger and much smaller than the reference (so
/// galloping runs both short and long).
fn adversarial_instance() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    use proptest::collection::vec;
    let negative = |vs: Vec<f64>| vs.into_iter().map(|v: f64| -v.abs()).collect::<Vec<_>>();
    prop_oneof![
        (vec(edge_value(), 1..40), vec(edge_value(), 1..40)),
        (vec(edge_value(), 1..40), edge_value(), 1usize..50).prop_map(|(r, v, m)| (r, vec![v; m])),
        (vec(edge_value(), 1..40), vec(edge_value(), 1..40))
            .prop_map(move |(r, t)| (negative(r), negative(t))),
        (vec(grid_or_edge_value(), 1..40), vec(edge_value(), 1..3)),
        (vec(edge_value(), 1..4), vec(grid_or_edge_value(), 40..200)),
        (vec(grid_or_edge_value(), 200..600), vec(grid_or_edge_value(), 1..5)),
    ]
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

    // The tentpole invariant: the splice is byte-identical to the merged
    // `build` on any valid input (no KS-failure assumption needed —
    // this is pure construction).
    #[test]
    fn indexed_base_vector_is_byte_identical((r, t) in instance()) {
        let index = ReferenceIndex::new(&r).unwrap();
        let merged = BaseVector::build(&r, &t).unwrap();
        let indexed = splice(&index, &t).unwrap();
        prop_assert_eq!(&indexed, &merged);
        // PartialEq on f64 treats -0.0 == 0.0; pin the raw bits too.
        let bits = |b: &BaseVector| b.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&indexed), bits(&merged));
        // And the index's rank query agrees with the cumulative counts.
        for (i, &v) in merged.values().iter().enumerate() {
            prop_assert_eq!(index.rank(v), merged.c_r(i + 1));
        }
    }

    // The same on adversarial floats, and into a base vector recycled from
    // a different window: values bit for bit, both cumulative planes and
    // every test point's base-vector index.
    #[test]
    fn indexed_base_vector_is_byte_identical_on_edge_floats(
        (r, t) in adversarial_instance(),
        (_, previous) in adversarial_instance(),
    ) {
        let index = ReferenceIndex::new(&r).unwrap();
        let merged = BaseVector::build(&r, &t).unwrap();
        let mut recycled = splice(&index, &previous).unwrap();
        BaseVector::build_with_index_into_using(&index, &t, &mut recycled, &mut Vec::new())
            .unwrap();
        let bits = |b: &BaseVector| b.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for indexed in [splice(&index, &t).unwrap(), recycled] {
            prop_assert_eq!(bits(&indexed), bits(&merged));
            prop_assert_eq!(indexed.c_r_plane(), merged.c_r_plane());
            prop_assert_eq!(indexed.c_t_plane(), merged.c_t_plane());
            for i in 0..t.len() {
                prop_assert_eq!(indexed.test_point_index(i), merged.test_point_index(i));
            }
            prop_assert_eq!(&indexed, &merged);
        }
    }

    // Phase-1 `k` (and `k_hat`) computed through the index equals the
    // merged path's.
    #[test]
    fn indexed_phase1_size_is_identical((r, t) in instance(), alpha in alphas()) {
        let cfg = KsConfig::new(alpha).unwrap();
        let base = BaseVector::build(&r, &t).unwrap();
        prop_assume!(base.outcome(&cfg).rejected);

        let expected = Moche::new(alpha).unwrap().explanation_size(&r, &t).unwrap();
        let index = ReferenceIndex::new(&r).unwrap();
        let mut engine = ExplainEngine::new(alpha).unwrap();
        let got = engine.size_with_index(&index, &t).unwrap();
        prop_assert_eq!(got, expected);
    }

    // Full explanations through the indexed engine path and the batch
    // explainer equal the paper-faithful Reference construction.
    #[test]
    fn indexed_explanations_are_byte_identical(
        (r, t) in instance(),
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
        let got = engine.explain_with_index_in(&index, &t, &pref, &mut ExplanationArena::new());
        let got = got.unwrap();
        prop_assert_eq!(got.indices(), expected.indices());
        prop_assert_eq!(got.values(), expected.values());
        prop_assert_eq!(got.phase1, expected.phase1);
        prop_assert_eq!(&got.outcome_after, &expected.outcome_after);

        let shared = SortedReference::new(&r).unwrap();
        let windows = [t.clone()];
        let prefs = [pref];
        let batch = BatchExplainer::new(alpha).unwrap().threads(2);
        let results = batch.explain_windows(&shared, &windows, Some(&prefs));
        let batched = results[0].as_ref().unwrap();
        prop_assert_eq!(batched.indices(), expected.indices());
        prop_assert_eq!(&batched.phase1, &expected.phase1);
    }

    // Arena-backed explains (recycled output buffers, arena and engine
    // reused across calls) are byte-identical to the one-shot path.
    #[test]
    fn arena_explanations_are_byte_identical(
        (r, t) in instance(),
        alpha in alphas(),
        seed in 0u64..1000,
    ) {
        let cfg = KsConfig::new(alpha).unwrap();
        let base = BaseVector::build(&r, &t).unwrap();
        prop_assume!(base.outcome(&cfg).rejected);

        let pref = PreferenceList::random(t.len(), seed);
        let expected = Moche::new(alpha).unwrap().explain(&r, &t, &pref).unwrap();
        let index = ReferenceIndex::new(&r).unwrap();

        let mut engine = ExplainEngine::new(alpha).unwrap();
        let mut arena = ExplanationArena::new();
        // Three rounds: the later ones run entirely on recycled storage.
        for round in 0..3 {
            let got = engine.explain_with_index_in(&index, &t, &pref, &mut arena).unwrap();
            prop_assert_eq!(got.indices(), expected.indices(), "round {}", round);
            // PartialEq on f64 treats -0.0 == 0.0; pin the raw bits.
            let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(got.values()), bits(expected.values()));
            prop_assert_eq!(&got.phase1, &expected.phase1);
            prop_assert_eq!(&got.phase2, &expected.phase2);
            prop_assert_eq!(&got.outcome_before, &expected.outcome_before);
            prop_assert_eq!(&got.outcome_after, &expected.outcome_after);
            prop_assert_eq!((got.n, got.m, got.q), (expected.n, expected.m, expected.q));
            arena.recycle(got);
        }
    }

    // The streaming engine delivers, in order, exactly what the batch
    // engine computes — explanations and sizes alike.
    #[test]
    fn streaming_matches_batch(
        (r, t) in instance(),
        alpha in alphas(),
        threads in 1usize..4,
    ) {
        let cfg = KsConfig::new(alpha).unwrap();
        let base = BaseVector::build(&r, &t).unwrap();
        prop_assume!(base.outcome(&cfg).rejected);

        let mut t2 = t.clone();
        t2.rotate_left(t.len() / 2);
        let windows = vec![t.clone(), t2, r.clone(), t.clone()];
        let shared = SortedReference::new(&r).unwrap();
        let expected = BatchExplainer::new(alpha).unwrap().explain_windows(&shared, &windows, None);

        let index = ReferenceIndex::new(&r).unwrap();
        let streamer =
            StreamingBatchExplainer::new(alpha).unwrap().threads(threads).buffer(2);
        let mut results = Vec::new();
        let summary =
            streamer.explain_stream(&index, windows.clone(), None, |res| results.push(res));
        prop_assert_eq!(summary.windows, windows.len());
        for (i, (res, exp)) in results.iter().zip(&expected).enumerate() {
            prop_assert_eq!(res.window, i);
            match (&res.result, exp) {
                (Ok(WindowReport::Explained(a)), Ok(b)) => prop_assert_eq!(a, b),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                other => prop_assert!(false, "divergence at window {}: {:?}", i, other),
            }
        }

        // Size-only agrees with the full explanations' Phase 1.
        let mut sizes = Vec::new();
        streamer.mode(StreamMode::SizeOnly).explain_stream(
            &index,
            windows.clone(),
            None,
            |res| sizes.push(res),
        );
        for (res, exp) in sizes.iter().zip(&expected) {
            match (&res.result, exp) {
                (Ok(WindowReport::Size(k)), Ok(e)) => prop_assert_eq!(k, &e.phase1),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                other => prop_assert!(false, "size divergence: {:?}", other),
            }
        }
    }
}

/// One edit of the incrementally-maintained reference multiset.
#[derive(Debug, Clone, Copy)]
enum IndexOp {
    /// Insert a fresh value.
    Insert(f64),
    /// Remove the live value at this (mod-len) position.
    Remove(usize),
    /// One window slide: remove at a position, insert a value.
    Slide(usize, f64),
}

/// Values stressing the index's edge cases: duplicates (coarse integer
/// grid), signed zeros, and near-eps neighbors straddling `f64` rounding.
fn index_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0i32..10).prop_map(f64::from),
        (0i32..10).prop_map(f64::from),
        Just(0.0),
        Just(-0.0),
        (0i32..4).prop_map(|k| f64::from(k) * 1e-12),
        (0i32..4).prop_map(|k| 1.0 + f64::from(k) * f64::EPSILON),
        (-6i32..6).prop_map(|v| f64::from(v) * 0.25),
    ]
}

fn index_op() -> impl Strategy<Value = IndexOp> {
    prop_oneof![
        index_value().prop_map(IndexOp::Insert),
        index_value().prop_map(IndexOp::Insert),
        (0usize..256).prop_map(IndexOp::Remove),
        ((0usize..256), index_value()).prop_map(|(i, v)| IndexOp::Slide(i, v)),
        ((0usize..256), index_value()).prop_map(|(i, v)| IndexOp::Slide(i, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // After ANY sequence of inserts, removes and slides, the
    // incrementally-maintained index materializes byte-identically to a
    // from-scratch sorted `ReferenceIndex::new` over the same live multiset
    // — signed-zero representatives included. `check_every` spaces the
    // materializations out, so the cached view is re-synced after gaps of
    // every length.
    #[test]
    fn incremental_index_is_byte_identical_to_sorted_builds(
        seed in proptest::collection::vec(index_value(), 1..12),
        ops in proptest::collection::vec(index_op(), 0..80),
        check_every in 1usize..50,
    ) {
        let mut live = IncrementalRefIndex::new();
        let mut window: Vec<f64> = Vec::new();
        for &v in &seed {
            live.insert(v);
            window.push(v);
        }
        let check = |live: &mut IncrementalRefIndex, window: &[f64], ctx: &str| {
            if window.is_empty() {
                prop_assert!(live.is_empty());
                prop_assert!(live.materialize().is_err());
                return Ok(());
            }
            let expected = ReferenceIndex::new(window).unwrap();
            let got = live.materialize().unwrap();
            prop_assert_eq!(got, &expected, "{}", ctx);
            // PartialEq on f64 treats -0.0 == 0.0; pin the raw bits.
            let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(got.distinct()),
                bits(expected.distinct()),
                "distinct bits: {}",
                ctx
            );
            prop_assert_eq!(got.n(), window.len(), "{}", ctx);
            Ok(())
        };
        check(&mut live, &window, "after seed")?;
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                IndexOp::Insert(v) => {
                    live.insert(v);
                    window.push(v);
                }
                IndexOp::Remove(pos) => {
                    if !window.is_empty() {
                        let v = window.swap_remove(pos % window.len());
                        prop_assert!(live.remove(v), "live value must be removable");
                    }
                }
                IndexOp::Slide(pos, v) => {
                    if !window.is_empty() {
                        let old = window.swap_remove(pos % window.len());
                        prop_assert!(live.remove(old));
                    }
                    live.insert(v);
                    window.push(v);
                }
            }
            if step % check_every == check_every - 1 {
                check(&mut live, &window, &format!("step {step}"))?;
            }
        }
        check(&mut live, &window, "after the full op sequence")?;
        // And the materialized view feeds the splice like a sorted index.
        if !window.is_empty() {
            let test = [0.5, 2.0, 2.0, -0.0, 9.5];
            let via_live = splice(live.materialize().unwrap(), &test[..]);
            let merged = BaseVector::build(&window, &test[..]);
            prop_assert_eq!(via_live.unwrap(), merged.unwrap());
        }
    }

    // Sliding-window shape (the monitor's exact usage): FIFO slides over a
    // random series, checked against from-scratch builds at every step.
    #[test]
    fn incremental_index_tracks_a_sliding_window(
        series in proptest::collection::vec(index_value(), 24..120),
        w in 4usize..16,
    ) {
        let w = w.min(series.len() / 2);
        let mut live = IncrementalRefIndex::with_capacity(w);
        for &v in &series[..w] {
            live.insert(v);
        }
        for step in 0..(series.len() - w) {
            prop_assert!(live.remove(series[step]));
            live.insert(series[step + w]);
            let expected = ReferenceIndex::new(&series[step + 1..step + 1 + w]).unwrap();
            let got = live.materialize().unwrap();
            prop_assert_eq!(got, &expected, "step {}", step);
            let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(got.distinct()), bits(expected.distinct()), "step {}", step);
        }
    }
}

/// 1000 windows through a tiny buffer bound: the stream must complete, in
/// order, and agree with the sequential engine — the bounded-memory claim
/// exercised at length. (Plain `#[test]`: no random shrinking wanted here.)
#[test]
fn streaming_1k_windows_with_tiny_buffer() {
    let reference: Vec<f64> = (0..400u32).map(|i| f64::from(i % 16)).collect();
    let windows: Vec<Vec<f64>> = (0..1000u32)
        .map(|w| (0..24).map(|i| f64::from((i + w) % 16) * 0.5 + 8.0 + f64::from(w % 5)).collect())
        .collect();
    let index = ReferenceIndex::new(&reference).unwrap();

    let sequential = StreamingBatchExplainer::new(0.05).unwrap().threads(1).buffer(1);
    let mut expected = Vec::new();
    sequential.explain_stream(&index, windows.clone(), None, |r| expected.push(r));

    let parallel = StreamingBatchExplainer::new(0.05).unwrap().threads(3).buffer(2);
    let mut got = Vec::new();
    let summary = parallel.explain_stream(&index, windows.clone(), None, |r| got.push(r));

    assert_eq!(summary.windows, 1000);
    assert_eq!(summary.explained + summary.passing + summary.errors, 1000);
    assert!(summary.explained > 0, "the shifted windows must mostly fail the KS test");
    assert_eq!(got.len(), expected.len());
    for (i, (a, b)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(a.window, i, "window {i} out of order");
        assert_eq!(a, b, "window {i} diverges from the sequential run");
    }
}
