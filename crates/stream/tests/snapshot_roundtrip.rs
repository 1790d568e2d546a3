//! The checkpoint/restore acceptance gate: a monitor restored from a
//! snapshot — round-tripped through the full binary format — must emit
//! **byte-identical** events to a monitor that was never interrupted, at
//! every possible interruption point, including signed zeros, duplicated
//! values, and checkpoints landing mid-alarm-gap. Plus the rejection
//! battery: truncated, bit-flipped, and wrong-version snapshot *files*
//! must be refused on resume.

use moche_stream::{DriftMonitor, MonitorConfig, MonitorEvent, MonitorSnapshot, SnapshotError};
use proptest::prelude::*;

/// Exact-equality comparison of two monitor events, down to f64 bit
/// patterns inside explanations (plain `==` would let `-0.0 == 0.0` slip
/// through the "byte-identical" claim). A `Stable` event carries no
/// statistic; with `poll`, both monitors' exact outcomes are compared
/// through `outcome_current`.
fn assert_same_event(
    (a, mon_a): (&MonitorEvent, &mut DriftMonitor),
    (b, mon_b): (&MonitorEvent, &mut DriftMonitor),
    poll: bool,
    ctx: &str,
) {
    match (a, b) {
        (
            MonitorEvent::Warming { seen: s1, needed: n1 },
            MonitorEvent::Warming { seen: s2, needed: n2 },
        ) => {
            assert_eq!(s1, s2, "{ctx}");
            assert_eq!(n1, n2, "{ctx}");
        }
        (MonitorEvent::Stable, MonitorEvent::Stable) => {
            if poll {
                let (o1, o2) = (mon_a.outcome_current(), mon_b.outcome_current());
                assert!(o1.is_some(), "a stable monitor has full windows ({ctx})");
                assert_eq!(o1, o2, "{ctx}");
            }
        }
        (
            MonitorEvent::Drift { outcome: o1, explanation: e1, size: k1 },
            MonitorEvent::Drift { outcome: o2, explanation: e2, size: k2 },
        ) => {
            assert_eq!(o1, o2, "{ctx}");
            assert_eq!(k1, k2, "{ctx}");
            match (e1, e2) {
                (None, None) => {}
                (Some(e1), Some(e2)) => {
                    assert_eq!(e1, e2, "{ctx}");
                    let bits = |e: &moche_core::Explanation| -> Vec<u64> {
                        e.values().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(e1), bits(e2), "explanation value bits diverge ({ctx})");
                }
                other => panic!("explanation presence diverges: {other:?} ({ctx})"),
            }
        }
        other => panic!("event kinds diverge: {other:?} ({ctx})"),
    }
}

/// Interrupt `monitor`-to-be at `cut`: run one monitor uninterrupted over
/// `series`, and a second that is snapshotted at `cut`, serialized,
/// deserialized, restored, and fed the remainder. Every post-cut event
/// pair must match exactly: once with both monitors' exact outcomes
/// compared after every stable push, and once left unpolled, so that
/// both skip the checks a push cannot need.
fn check_cut(cfg: MonitorConfig, series: &[f64], cut: usize) {
    for poll in [true, false] {
        check_cut_polled(cfg, series, cut, poll);
    }
}

fn check_cut_polled(cfg: MonitorConfig, series: &[f64], cut: usize, poll: bool) {
    let mut uninterrupted = DriftMonitor::new(cfg).unwrap();
    let mut live = DriftMonitor::new(cfg).unwrap();
    for &x in &series[..cut] {
        let a = uninterrupted.try_push(x);
        let b = live.try_push(x);
        assert_eq!(a.is_ok(), b.is_ok());
    }

    let snap = live.snapshot();
    let bytes = snap.to_bytes();
    let decoded = MonitorSnapshot::from_bytes(&bytes).expect("own bytes must decode");
    assert_eq!(decoded, snap, "binary round-trip must be lossless");
    let mut restored = DriftMonitor::restore(&decoded).expect("own snapshot must restore");
    drop(live);

    assert_eq!(restored.pushes(), uninterrupted.pushes(), "cut = {cut}");
    assert_eq!(restored.alarms(), uninterrupted.alarms(), "cut = {cut}");

    for (i, &x) in series[cut..].iter().enumerate() {
        let a = uninterrupted.try_push(x);
        let b = restored.try_push(x);
        let ctx = format!("cut = {cut}, offset = {i}, poll = {poll}");
        match (a, b) {
            (Ok(ea), Ok(eb)) => {
                assert_same_event((&ea, &mut uninterrupted), (&eb, &mut restored), poll, &ctx)
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{ctx}"),
            other => panic!("acceptance diverges: {other:?} ({ctx})"),
        }
    }
    assert_eq!(restored.alarms(), uninterrupted.alarms());
    assert_eq!(restored.degraded_preferences(), uninterrupted.degraded_preferences());
}

/// A drifting series that provably alarms: half-cycles alternate between
/// a base level and a shifted one.
fn drifting_series(len: usize, half_cycle: usize) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let base = ((i * 13) % 11) as f64;
            if (i / half_cycle).is_multiple_of(2) {
                base
            } else {
                base + 25.0
            }
        })
        .collect()
}

/// Every interruption point of an alarming run, both with and without
/// reset-on-drift — this sweeps checkpoints landing mid-warm-up, exactly
/// on an alarm, and mid-alarm-gap (between an alarm and the next), the
/// case the ISSUE calls out.
#[test]
fn every_cut_point_of_an_alarming_run_restores_identically() {
    let w = 12;
    let series = drifting_series(160, 2 * w);
    for reset in [true, false] {
        let mut cfg = MonitorConfig::new(w, 0.05);
        cfg.reset_on_drift = reset;
        let alarms = {
            let mut mon = DriftMonitor::new(cfg).unwrap();
            let mut alarms = 0u64;
            for &x in &series {
                if let MonitorEvent::Drift { .. } = mon.push(x) {
                    alarms += 1;
                }
            }
            alarms
        };
        assert!(alarms > 0, "the series must alarm for the sweep to mean anything");
        for cut in 0..=series.len() {
            check_cut(cfg, &series, cut);
        }
    }
}

/// Signed zeros and heavy duplication survive the round trip bit-exactly.
#[test]
fn signed_zeros_and_duplicates_round_trip() {
    let w = 8;
    let mut cfg = MonitorConfig::new(w, 0.05);
    cfg.reset_on_drift = false;
    // A stream of only {-0.0, 0.0, 1.0} duplicates, then a shift.
    let series: Vec<f64> = (0..90)
        .map(|i| match i {
            i if i >= 60 => 9.0 + (i % 2) as f64,
            i if i % 3 == 0 => -0.0,
            i if i % 3 == 1 => 0.0,
            _ => 1.0,
        })
        .collect();
    for cut in (0..=series.len()).step_by(3) {
        check_cut(cfg, &series, cut);
    }
    // And the snapshot itself preserves the sign bit.
    let mut mon = DriftMonitor::new(cfg).unwrap();
    for &x in &series[..2 * w] {
        mon.push(x);
    }
    let snap = mon.snapshot();
    let round = MonitorSnapshot::from_bytes(&snap.to_bytes()).unwrap();
    let bits = |vals: &[f64]| vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&round.reference), bits(&snap.reference));
    assert_eq!(bits(&round.test), bits(&snap.test));
    assert!(snap.reference.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()));
}

fn obs_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0f64),
        Just(-0.0f64),
        (-12i32..12).prop_map(f64::from), // heavy duplication
        (-400i32..400).prop_map(|v| f64::from(v) * 0.125),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // Arbitrary streams, arbitrary interruption points, arbitrary
    // window/reset configuration: the restored monitor must stay
    // event-identical to the uninterrupted one.
    #[test]
    fn restored_monitor_is_event_identical_under_arbitrary_streams(
        series in proptest::collection::vec(obs_strategy(), 20..120),
        cut in 0usize..120,
        window in 3usize..9,
        reset in prop::bool::ANY,
        shift in prop::bool::ANY,
    ) {
        let mut series = series;
        if shift {
            // Force a drift regime onto the tail so alarms are exercised,
            // not just stable slides.
            let at = series.len() / 2;
            for v in &mut series[at..] {
                *v += 30.0;
            }
        }
        let mut cfg = MonitorConfig::new(window, 0.05);
        cfg.reset_on_drift = reset;
        let cut = cut % (series.len() + 1);
        check_cut(cfg, &series, cut);
    }

    // Serialization is total and lossless for any in-range snapshot the
    // monitor can produce.
    #[test]
    fn snapshot_bytes_always_round_trip(
        series in proptest::collection::vec(obs_strategy(), 0..80),
        window in 2usize..10,
    ) {
        let mut mon = DriftMonitor::new(MonitorConfig::new(window, 0.05)).unwrap();
        for &x in &series {
            let _ = mon.try_push(x);
        }
        let snap = mon.snapshot();
        let round = MonitorSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        prop_assert_eq!(round, snap);
    }
}

// ---- rejection battery: files that must not restore ----

fn tmp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("moche-snapshot-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn checkpointed_monitor(path: &std::path::Path) -> DriftMonitor {
    let mut mon = DriftMonitor::new(MonitorConfig::new(10, 0.05)).unwrap();
    for i in 0..25 {
        mon.push(f64::from(i % 7));
    }
    mon.checkpoint(path).unwrap();
    mon
}

#[test]
fn truncated_snapshot_files_are_rejected() {
    let path = tmp_dir().join("truncated.snap");
    let _ = checkpointed_monitor(&path);
    let full = std::fs::read(&path).unwrap();
    assert!(DriftMonitor::resume_from(&path).is_ok(), "the intact file must resume");
    for keep in [0, 5, 11, 19, full.len() / 2, full.len() - 1] {
        std::fs::write(&path, &full[..keep]).unwrap();
        match DriftMonitor::resume_from(&path) {
            Err(SnapshotError::Truncated) => {}
            Err(SnapshotError::BadMagic) if keep < 8 => {}
            other => panic!("{keep}-byte prefix: expected truncation rejection, got {other:?}"),
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn bit_flipped_snapshot_files_are_rejected() {
    let path = tmp_dir().join("bitflip.snap");
    let _ = checkpointed_monitor(&path);
    let full = std::fs::read(&path).unwrap();
    // Every single-bit flip across the entire file must be caught (header
    // fields fail structurally; payload and CRC flips fail the checksum).
    for bit in (0..full.len() * 8).step_by(7) {
        let mut corrupt = full.clone();
        corrupt[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &corrupt).unwrap();
        assert!(
            DriftMonitor::resume_from(&path).is_err(),
            "flipping bit {bit} of the snapshot went undetected"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn wrong_version_snapshot_files_are_rejected() {
    let path = tmp_dir().join("version.snap");
    let _ = checkpointed_monitor(&path);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match DriftMonitor::resume_from(&path) {
        Err(SnapshotError::UnsupportedVersion(7)) => {}
        other => panic!("expected UnsupportedVersion(7), got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn missing_snapshot_file_is_an_io_error() {
    let path = tmp_dir().join("does-not-exist.snap");
    match DriftMonitor::resume_from(&path) {
        Err(SnapshotError::Io(_)) => {}
        other => panic!("expected Io, got {other:?}"),
    }
}

#[test]
fn semantically_invalid_snapshots_are_rejected_on_restore() {
    let path = tmp_dir().join("invalid.snap");
    let mon = checkpointed_monitor(&path);
    // Decodes fine, but violates the warm-up invariant.
    let mut snap = mon.snapshot();
    snap.reference.pop();
    snap.write_atomic(&path).unwrap();
    match DriftMonitor::resume_from(&path) {
        Err(SnapshotError::Invalid(_)) => {}
        other => panic!("expected Invalid, got {other:?}"),
    }
    // Bad embedded config surfaces the underlying Moche error.
    let mut snap = mon.snapshot();
    snap.alpha = 0.0;
    snap.write_atomic(&path).unwrap();
    match DriftMonitor::resume_from(&path) {
        Err(SnapshotError::Moche(moche_core::MocheError::InvalidAlpha { .. })) => {}
        other => panic!("expected Moche(InvalidAlpha), got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}
