//! Monitor benchmarks: the steady-state slide cost (`O(log w)` per
//! observation) and the alarm cost of [`DriftMonitor::explain_current`] /
//! [`DriftMonitor::size_current`] (copy the windows, sort the reference
//! into the index, scratch-backed SR scoring; zero heap allocations once
//! warm). The stream shape and the alarm iteration are shared with the
//! `BENCH_core.json` evidence suite (`moche_bench::perf`), so the two
//! measurements can never drift apart.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moche_bench::perf::{
    alarm_explain_iteration, alarm_size_iteration, alarmed_monitor, monitor_observation,
};
use moche_stream::{DriftMonitor, MonitorConfig};
use std::hint::black_box;

fn bench_steady_state_slides(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor_steady_state");
    for &w in &[1_000usize, 10_000] {
        let mut cfg = MonitorConfig::new(w, 0.05);
        cfg.reset_on_drift = false;
        cfg.explain_on_drift = false;
        let mut mon = DriftMonitor::new(cfg).unwrap();
        let mut i = 0usize;
        for _ in 0..2 * w {
            mon.push(monitor_observation(i, w, false));
            i += 1;
        }
        group.bench_with_input(BenchmarkId::new("push", w), &w, |b, _| {
            b.iter(|| {
                // Stationary stream: three O(log w) treap updates plus the
                // O(1) decision, never an alarm.
                let event = mon.push(black_box(monitor_observation(i, w, false)));
                i += 1;
                black_box(&event);
            })
        });
    }
    group.finish();
}

fn bench_alarm_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor_alarm");
    group.sample_size(10);
    for &w in &[1_000usize, 10_000] {
        // Each iteration slides once first, so every alarm sees new
        // windows; the helper re-seeds the monitor on the rare iteration
        // where the drift has fully traversed the window pair.
        let mut mon = alarmed_monitor(w);
        let mut at = 2 * w;
        group.bench_with_input(BenchmarkId::new("explain", w), &w, |b, _| {
            b.iter(|| black_box(alarm_explain_iteration(&mut mon, &mut at, w)))
        });
        let mut sized = alarmed_monitor(w);
        let mut at = 2 * w;
        group.bench_with_input(BenchmarkId::new("size_only", w), &w, |b, _| {
            b.iter(|| black_box(alarm_size_iteration(&mut sized, &mut at, w)))
        });
    }
    group.finish();
}

fn bench_checkpoint_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor_checkpoint");
    for &w in &[1_000usize, 10_000] {
        // The cost of one `--checkpoint` firing: snapshot the full state,
        // encode + CRC it, write atomically (temp + fsync + rename). Sets
        // the floor for a sensible `--checkpoint-every` cadence.
        let mon = alarmed_monitor(w);
        let path = std::env::temp_dir().join(format!("moche-crit-checkpoint-{w}.snap"));
        group.bench_with_input(BenchmarkId::new("write_atomic", w), &w, |b, _| {
            b.iter(|| mon.checkpoint(black_box(&path)).expect("checkpoint write"))
        });
        let _ = std::fs::remove_file(&path);
    }
    group.finish();
}

criterion_group!(benches, bench_steady_state_slides, bench_alarm_paths, bench_checkpoint_write);
criterion_main!(benches);
