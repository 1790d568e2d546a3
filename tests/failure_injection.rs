//! Failure-injection tests across every public entry point of the
//! workspace: malformed inputs (NaN, infinities, empties, mismatched
//! lengths, out-of-range parameters) must produce typed errors or
//! documented panics — never wrong answers or unwinds from deep inside the
//! algorithms.

use moche::baselines::{ExplainRequest, Greedy, KsExplainer, MocheExplainer, D3};
use moche::core::error::{MocheError, SetKind};
use moche::multidim::{ks2d_test, GreedyPrefix2d, Ks2dConfig, Point2};
use moche::stream::{DriftMonitor, MonitorConfig};
use moche::{ks_statistic, ks_test, KsConfig, Moche, PreferenceList};

const BAD_VALUES: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

#[test]
fn core_rejects_non_finite_values_everywhere() {
    let good = vec![1.0, 2.0, 3.0, 4.0];
    for bad in BAD_VALUES {
        let poisoned = vec![1.0, bad, 3.0];
        // Statistic and test.
        assert!(matches!(
            ks_statistic(&poisoned, &good),
            Err(MocheError::NonFiniteValue { which: SetKind::Reference, index: 1, .. })
        ));
        assert!(matches!(
            ks_statistic(&good, &poisoned),
            Err(MocheError::NonFiniteValue { which: SetKind::Test, index: 1, .. })
        ));
        // Full explain path.
        let moche = Moche::new(0.05).unwrap();
        let pref = PreferenceList::identity(3);
        assert!(moche.explain(&poisoned, &poisoned, &pref).is_err());
        assert!(moche.explanation_size(&good, &poisoned).is_err());
    }
}

#[test]
fn core_rejects_empty_and_mismatched_inputs() {
    let cfg = KsConfig::new(0.05).unwrap();
    assert!(matches!(ks_test(&[], &[1.0], &cfg), Err(MocheError::EmptyReference)));
    assert!(matches!(ks_test(&[1.0], &[], &cfg), Err(MocheError::EmptyTest)));

    let moche = Moche::new(0.05).unwrap();
    let r: Vec<f64> = (0..30).map(f64::from).collect();
    let t: Vec<f64> = (0..10).map(|i| f64::from(i) + 100.0).collect();
    // Mismatched preference.
    let short = PreferenceList::identity(5);
    assert!(matches!(
        moche.explain(&r, &t, &short),
        Err(MocheError::PreferenceLengthMismatch { expected: 10, actual: 5 })
    ));
    // Mismatched score vector.
    assert!(moche.explain_with_scores(&r, &t, &[1.0, 2.0]).is_err());
}

#[test]
fn alpha_validation_is_uniform() {
    for alpha in [0.0, 1.0, -0.5, 2.0, f64::NAN] {
        assert!(Moche::new(alpha).is_err(), "alpha = {alpha}");
        assert!(KsConfig::new(alpha).is_err(), "alpha = {alpha}");
        assert!(Ks2dConfig::new(alpha).is_err(), "alpha = {alpha}");
        assert!(DriftMonitor::new(MonitorConfig::new(10, alpha)).is_err(), "alpha = {alpha}");
    }
}

#[test]
fn baselines_survive_degenerate_but_valid_inputs() {
    let cfg = KsConfig::new(0.05).unwrap();
    // Tiny test set, huge shift: valid input, must either explain or abort
    // cleanly — never panic.
    let r: Vec<f64> = (0..50).map(f64::from).collect();
    let t = vec![1e6, 2e6];
    let pref = PreferenceList::identity(2);
    let req =
        ExplainRequest { reference: &r, test: &t, cfg: &cfg, preference: Some(&pref), seed: 1 };
    for method in [
        Box::new(MocheExplainer::default()) as Box<dyn KsExplainer>,
        Box::new(Greedy),
        Box::new(D3::default()),
    ] {
        let _ = method.explain(&req); // may be Some or None; must not panic
    }
}

#[test]
fn multidim_rejects_bad_points_and_sides() {
    let cfg = Ks2dConfig::new(0.05).unwrap();
    let good: Vec<Point2> =
        (0..20).map(|i| Point2::new(f64::from(i % 5), f64::from(i % 4))).collect();
    for bad in BAD_VALUES {
        let poisoned = vec![Point2::new(bad, 0.0)];
        assert!(ks2d_test(&poisoned, &good, &cfg).is_err());
        assert!(ks2d_test(&good, &poisoned, &cfg).is_err());
        assert!(GreedyPrefix2d.explain(&poisoned, &good, &cfg, None).is_err());
    }
    assert!(matches!(ks2d_test(&[], &good, &cfg), Err(MocheError::EmptyReference)));
    assert!(matches!(ks2d_test(&good, &[], &cfg), Err(MocheError::EmptyTest)));
}

#[test]
fn monitor_panics_are_documented_and_state_stays_valid() {
    // Non-finite observations are a documented panic (programming error at
    // the boundary), not silent corruption.
    let mut mon = DriftMonitor::new(MonitorConfig::new(10, 0.05)).unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        mon.push(f64::NAN);
    }));
    assert!(result.is_err(), "NaN must panic");
}

#[test]
fn brute_force_limits_are_honoured() {
    use moche::core::brute_force::{brute_force_explain, BruteForceLimits};
    let cfg = KsConfig::new(0.05).unwrap();
    // 20 shifted points: explanation needs several points; a 1-check budget
    // must abort with LimitExceeded rather than spin.
    let r: Vec<f64> = (0..60).map(|i| f64::from(i % 6)).collect();
    let t: Vec<f64> = (0..20).map(|i| f64::from(i % 6) + 5.0).collect();
    let pref = PreferenceList::identity(20);
    let limits = BruteForceLimits { max_size: 20, max_checks: 1 };
    match brute_force_explain(&r, &t, &cfg, &pref, limits) {
        Err(MocheError::LimitExceeded { .. }) => {}
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn errors_render_and_propagate_as_std_error() {
    // Every error variant must be displayable and box into dyn Error.
    let samples: Vec<MocheError> = vec![
        MocheError::EmptyReference,
        MocheError::EmptyTest,
        MocheError::InvalidAlpha { alpha: 2.0 },
        MocheError::TestAlreadyPasses { statistic: 0.1, threshold: 0.2 },
        MocheError::NoExplanation { alpha: 0.9 },
        MocheError::LimitExceeded { checks: 5 },
        MocheError::PreferenceLengthMismatch { expected: 3, actual: 2 },
        MocheError::ConstructionIncomplete { built: 1, k: 2 },
        MocheError::SamplesTooLarge { n: 1 << 16, m: 1 << 16 },
    ];
    for e in samples {
        let boxed: Box<dyn std::error::Error> = Box::new(e.clone());
        assert!(!boxed.to_string().is_empty(), "{e:?} renders empty");
    }
}
