//! Differential tests of the monitor's KS decisions against the batch
//! test. Most pushes skip the sorted-window check, on the argument that a
//! push moves the gap by at most 2; these tests hold every push's decision
//! and every on-demand outcome to `ks_statistic` plus `KsConfig::rejects`
//! recomputed from the last `2w` values.

use moche_core::{ks_statistic, KsConfig};
use moche_stream::{
    DriftMonitor, MonitorConfig, MonitorEvent, MonitorSnapshot, MonitorState, WindowCapture,
};
use proptest::prelude::*;

const ALPHAS: [f64; 4] = [0.001, 0.05, 0.2, 0.27];

/// The least gap `g` whose statistic `g / w` the batch decision rejects,
/// by linear scan, or `None` when no gap does.
fn least_rejecting_gap(ks: &KsConfig, w: usize) -> Option<usize> {
    (0..=w).find(|&g| ks.rejects(g as f64 / w as f64, w, w))
}

/// The batch statistic of the last `2w` values of `since`, if there are
/// that many.
fn batch_statistic(since: &[f64], w: usize) -> Option<f64> {
    let n = since.len();
    (n >= 2 * w).then(|| ks_statistic(&since[n - 2 * w..n - w], &since[n - w..]).unwrap())
}

fn config(w: usize, alpha: f64, reset: bool) -> MonitorConfig {
    let mut cfg = MonitorConfig::new(w, alpha);
    cfg.reset_on_drift = reset;
    cfg.explain_on_drift = false;
    cfg
}

/// Three monitors fed one stream, each checked against the batch test on
/// every push:
/// - `plain` is never polled, so it skips every check it may, and is
///   replaced by its own restored snapshot at `restore_at`;
/// - `polled` reads `outcome_current()` after every push;
/// - `deferred` is a bare `MonitorState` on the fleet's deferred path,
///   whose alarm captures must hold the last `2w` values.
fn run_against_batch(cfg: MonitorConfig, stream: &[f64], restore_at: usize) {
    let w = cfg.window;
    let ks = KsConfig::new(cfg.alpha).unwrap();
    let mut plain = DriftMonitor::new(cfg).unwrap();
    let mut polled = DriftMonitor::new(cfg).unwrap();
    let mut deferred = MonitorState::new(cfg).unwrap();
    let mut capture = WindowCapture::new();
    let mut since: Vec<f64> = Vec::new();
    for (i, &x) in stream.iter().enumerate() {
        if i == restore_at {
            let bytes = plain.snapshot().to_bytes();
            plain = DriftMonitor::restore(&MonitorSnapshot::from_bytes(&bytes).unwrap()).unwrap();
        }
        since.push(x);
        let ctx =
            format!("i = {i}, w = {w}, alpha = {}, reset = {}", cfg.alpha, cfg.reset_on_drift);
        let batch = batch_statistic(&since, w);
        let rejects = batch.is_some_and(|d| ks.rejects(d, w, w));
        let events =
            [plain.push(x), polled.push(x), deferred.try_push_deferred(x, &mut capture).unwrap()];
        for event in &events {
            match (event, batch) {
                (MonitorEvent::Warming { seen, needed }, None) => {
                    assert_eq!((*seen, *needed), (since.len(), 2 * w), "{ctx}");
                }
                (MonitorEvent::Stable, Some(_)) => assert!(!rejects, "missed alarm at {ctx}"),
                (MonitorEvent::Drift { outcome, .. }, Some(d)) => {
                    assert!(rejects && outcome.rejected, "false alarm at {ctx}");
                    assert!((outcome.statistic - d).abs() < 1e-12, "{ctx}");
                }
                (event, batch) => panic!("{event:?} against batch {batch:?} at {ctx}"),
            }
        }
        // An alarm with reset on drift leaves no windows to ask about.
        let expected = batch.filter(|_| !(rejects && cfg.reset_on_drift));
        match (polled.outcome_current(), expected) {
            (None, None) => {}
            (Some(outcome), Some(d)) => {
                assert!((outcome.statistic - d).abs() < 1e-12, "{ctx}");
                assert_eq!(outcome.rejected, rejects, "{ctx}");
            }
            (outcome, batch) => panic!("outcome {outcome:?} against batch {batch:?} at {ctx}"),
        }
        if rejects {
            let n = since.len();
            assert_eq!(capture.reference, since[n - 2 * w..n - w], "{ctx}");
            assert_eq!(capture.test, since[n - w..], "{ctx}");
            if cfg.reset_on_drift {
                since.clear();
            }
        }
    }
    assert_eq!(plain.alarms(), polled.alarms());
    assert_eq!(plain.alarms(), deferred.alarms());
}

/// One observation: ties, signed zeros and fine grid values, with a level
/// shift switched on by the caller.
fn base_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0f64),
        Just(-0.0f64),
        (-3i32..3).prop_map(f64::from),
        (-40i32..40).prop_map(|v| f64::from(v) * 0.25),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_push_decides_like_the_batch_test(
        w in 2usize..71,
        alpha in 0usize..ALPHAS.len(),
        reset in prop::bool::ANY,
        bases in proptest::collection::vec(base_value(), 1..421),
        flip_every in 3usize..160,
        shift in prop_oneof![Just(0.5f64), Just(3.0), Just(40.0)],
        restore_at in 0usize..420,
    ) {
        // Level flips every `flip_every` observations; the low level keeps
        // the signed zeros as drawn.
        let stream: Vec<f64> = bases
            .iter()
            .enumerate()
            .map(|(i, &b)| if (i / flip_every) % 2 == 1 { b + shift } else { b })
            .collect();
        run_against_batch(config(w, ALPHAS[alpha], reset), &stream, restore_at);
    }
}

/// The stream whose gap rises by exactly 2 per push: the reference holds
/// `h` large then `h` small values, the test `h` small then `h` large, and
/// only large values follow. Each push moves a large value out of the
/// reference, a small one from the test window into it, and a large one
/// into the test window. From gap 0 at warm-up, the batch test first
/// rejects after `⌈K / 2⌉` pushes, `K` the least rejecting gap; a budget
/// one push too generous for even `K - g` misses that alarm.
#[test]
fn a_tight_stream_alarms_on_the_first_rejecting_push() {
    let (small, large) = (-1.0, 7.0);
    let mut parities = [false; 2];
    for w in [8usize, 10, 12, 16, 20, 30, 40, 64, 100] {
        for alpha in ALPHAS {
            let ks = KsConfig::new(alpha).unwrap();
            let Some(k) = least_rejecting_gap(&ks, w) else { continue };
            let h = w / 2;
            let mut stream = Vec::new();
            stream.extend(std::iter::repeat_n(large, h));
            stream.extend(std::iter::repeat_n(small, w - h));
            stream.extend(std::iter::repeat_n(small, w - h));
            stream.extend(std::iter::repeat_n(large, h));
            let mut mon = DriftMonitor::new(config(w, alpha, true)).unwrap();
            for &x in &stream {
                assert!(!matches!(mon.push(x), MonitorEvent::Drift { .. }), "w = {w}");
            }
            parities[k % 2] = true;
            let first = k.div_ceil(2);
            assert!(first <= h, "the stream reaches gap {k} within {h} pushes");
            for push in 1..=first {
                let ctx = format!("push {push}, w = {w}, alpha = {alpha}, K = {k}");
                match mon.push(large) {
                    MonitorEvent::Stable => assert!(push < first, "missed alarm at {ctx}"),
                    MonitorEvent::Drift { outcome, .. } => {
                        assert_eq!(push, first, "early alarm at {ctx}");
                        assert_eq!(outcome.statistic, (2 * first) as f64 / w as f64, "{ctx}");
                    }
                    other => panic!("{other:?} at {ctx}"),
                }
            }
            assert_eq!(mon.alarms(), 1, "w = {w}, alpha = {alpha}");
        }
    }
    assert_eq!(parities, [true, true], "both parities of K - g must occur");
}
