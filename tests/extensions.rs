//! Integration tests for the two extension crates working against the
//! generated datasets: the streaming monitor consuming NAB-like series, and
//! the 2-D explainers on synthetic bivariate drift.

use moche::data::dist::normal;
use moche::data::nab::{generate_family, NabFamily};
use moche::data::rng::rng_from_seed;
use moche::multidim::{ks2d_test, GreedyImpact2d, GreedyPrefix2d, Ks2dConfig, Point2};
use moche::stream::{DriftMonitor, MonitorConfig, MonitorEvent};
use moche::{ks_statistic, KsConfig};

#[test]
fn monitor_consumes_nab_series_and_agrees_with_batch_checks() {
    // Feed an ART series (which contains genuine distribution drifts)
    // through the monitor without resets and verify every emitted statistic
    // against a batch recomputation of the same windows.
    let series = &generate_family(NabFamily::Art, 2021)[0];
    let w = 120;
    let mut cfg = MonitorConfig::new(w, 0.05);
    cfg.reset_on_drift = false;
    cfg.explain_on_drift = false;
    let mut monitor = DriftMonitor::new(cfg).unwrap();

    let mut checked = 0usize;
    let mut alarms = 0usize;
    for (i, &x) in series.values.iter().enumerate().take(2_000) {
        let event = monitor.push(x);
        if i + 1 < 2 * w {
            continue;
        }
        let lo = i + 1 - 2 * w;
        let batch =
            ks_statistic(&series.values[lo..lo + w], &series.values[lo + w..i + 1]).unwrap();
        let outcome = monitor.outcome_current().expect("past warm-up");
        match event {
            MonitorEvent::Stable => assert!(outcome.passes(), "i = {i}"),
            MonitorEvent::Drift { outcome: alarm, .. } => {
                assert_eq!(alarm, outcome, "i = {i}");
                alarms += 1;
            }
            MonitorEvent::Warming { .. } => panic!("past warm-up at i = {i}"),
        }
        let stat = outcome.statistic;
        assert!((stat - batch).abs() < 1e-12, "i = {i}: {stat} vs {batch}");
        checked += 1;
    }
    assert!(checked > 1_000);
    assert!(alarms > 0, "an ART drift series should raise alarms");
    assert_eq!(alarms as u64, monitor.alarms());
}

#[test]
fn monitor_explanations_reverse_their_alarms() {
    let series = &generate_family(NabFamily::Art, 7)[1];
    let w = 100;
    let mut monitor = DriftMonitor::new(MonitorConfig::new(w, 0.05)).unwrap();
    let ks = KsConfig::new(0.05).unwrap();
    let mut explained = 0usize;
    for &x in series.values.iter().take(3_000) {
        if let MonitorEvent::Drift { explanation, outcome, .. } = monitor.push(x) {
            assert!(outcome.rejected);
            if let Some(e) = explanation {
                assert!(e.outcome_after.passes());
                assert!(e.size() <= w);
                assert!(e.k_hat() <= e.size());
                explained += 1;
            }
        }
    }
    assert!(explained > 0, "expected at least one explained alarm");
    let _ = ks; // silence if unused in cfg-dependent paths
}

#[test]
fn bivariate_drift_is_detected_and_explained() {
    // Correlated Gaussian reference; test adds a mean-shifted cluster.
    let mut rng = rng_from_seed(31);
    let sample = |rng: &mut _, dx: f64, dy: f64| {
        let x = normal(rng, 0.0, 1.0);
        let y = 0.6 * x + normal(rng, 0.0, 0.8);
        Point2::new(x + dx, y + dy)
    };
    let reference: Vec<Point2> = (0..250).map(|_| sample(&mut rng, 0.0, 0.0)).collect();
    let mut test: Vec<Point2> = (0..140).map(|_| sample(&mut rng, 0.0, 0.0)).collect();
    for _ in 0..35 {
        test.push(sample(&mut rng, 6.0, -6.0));
    }

    let cfg = Ks2dConfig::new(0.05).unwrap();
    let outcome = ks2d_test(&reference, &test, &cfg).unwrap();
    assert!(outcome.rejected, "{outcome:?}");

    let prefix = GreedyPrefix2d.explain(&reference, &test, &cfg, None).unwrap();
    let impact = GreedyImpact2d.explain(&reference, &test, &cfg, None).unwrap();
    for e in [&prefix, &impact] {
        assert!(e.outcome_after.passes());
        assert!(!e.indices.is_empty());
    }
    // With overlapping Gaussians the statistic can be reduced by boundary
    // points too, so the impact explainer is only expected to hit the
    // injected cluster (indices 140+, base rate 20% of the test set) well
    // above chance — not exclusively.
    let hits = impact.indices.iter().filter(|&&i| i >= 140).count();
    assert!(
        hits * 10 >= impact.size() * 4,
        "{hits} of {} selected points in the cluster (base rate 20%)",
        impact.size()
    );
    assert!(impact.size() <= 70, "impact explanation unexpectedly large: {}", impact.size());
}

#[test]
fn one_dimensional_and_two_dimensional_results_are_consistent() {
    // Project a 2-D drift onto x: if the x-marginal alone fails the 1-D
    // test, the 2-D test must fail as well (it sees strictly more
    // structure) on this cluster-shift construction.
    let mut rng = rng_from_seed(57);
    let reference: Vec<Point2> = (0..200)
        .map(|_| Point2::new(normal(&mut rng, 0.0, 1.0), normal(&mut rng, 0.0, 1.0)))
        .collect();
    let test: Vec<Point2> = (0..200)
        .map(|_| Point2::new(normal(&mut rng, 2.0, 1.0), normal(&mut rng, 0.0, 1.0)))
        .collect();

    let ks1 = KsConfig::new(0.05).unwrap();
    let rx: Vec<f64> = reference.iter().map(|p| p.x).collect();
    let tx: Vec<f64> = test.iter().map(|p| p.x).collect();
    let d1 = moche::ks_test(&rx, &tx, &ks1).unwrap();
    assert!(d1.rejected, "x-marginal must fail: {d1:?}");

    let cfg2 = Ks2dConfig::new(0.05).unwrap();
    let d2 = ks2d_test(&reference, &test, &cfg2).unwrap();
    assert!(d2.rejected, "2-D test must also fail: {d2:?}");
    // The 2-D statistic dominates the marginal deviation on quadrants that
    // align with the shift direction (not exactly comparable, but the same
    // order of magnitude).
    assert!(d2.statistic > 0.5 * d1.statistic);
}
