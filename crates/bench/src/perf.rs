//! Machine-readable performance evidence.
//!
//! `cargo run --release -p moche-bench --bin run_all -- --bench-json` runs a
//! compact, deterministic suite over the explain hot path and writes
//! `BENCH_core.json` — a map from benchmark name to `ns_per_iter`,
//! `per_sec` and (when the caller installs a counting allocator, as
//! `run_all` does) `allocs_per_iter`. Perf PRs diff these files to prove a
//! win; the criterion benches cover the same paths interactively.
//!
//! The suite pins the workload the ROADMAP cares about: `w = 10_000`
//! reference/test sizes, the allocating one-shot paths against the
//! scratch-reusing [`ExplainEngine`], and the shared-reference batch
//! throughput across thread counts.

use moche_core::bounds::{BoundsContext, BoundsWorkspace};
use moche_core::{
    BaseVector, BatchExplainer, ConstructionStrategy, ExplainEngine, ExplanationArena, KsConfig,
    Moche, PreferenceList, ReferenceIndex, SizeSearch, SortedReference, StreamMode,
    StreamingBatchExplainer,
};
use moche_data::dist::normal;
use moche_data::failing_kifer_pair;
use moche_data::rng::rng_from_seed;
use moche_multidim::{
    ks2d_statistic, ks2d_statistic_indexed, Explain2dEngine, Explanation2dArena, GreedyImpact2d,
    Ks2dConfig, Point2, RankIndex2d, Scratch2d,
};
use moche_stream::{DriftMonitor, FleetConfig, MonitorConfig, MonitorFleet};
use std::hint::black_box;
use std::time::Instant;

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Benchmark name, `group/case` style.
    pub name: String,
    /// Median wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// `1e9 / ns_per_iter`: iterations (here: explanations or probes) per
    /// second.
    pub per_sec: f64,
    /// Heap allocations per iteration, when an allocation counter is
    /// installed.
    pub allocs_per_iter: Option<f64>,
}

/// Times `f`, returning the median of five samples after auto-calibrating
/// the iteration count to at least ~20 ms per sample.
pub fn measure<F: FnMut()>(
    name: &str,
    mut f: F,
    alloc_counter: Option<&dyn Fn() -> u64>,
) -> BenchRecord {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed().as_nanos() >= 20_000_000 || iters >= 1 << 22 {
            break;
        }
        iters *= 2;
    }
    let samples = 5;
    let mut per_iter = Vec::with_capacity(samples);
    let mut allocs = Vec::with_capacity(samples);
    for _ in 0..samples {
        let allocs_before = alloc_counter.map(|c| c());
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_iter.push(t.elapsed().as_nanos() as f64 / iters as f64);
        if let (Some(counter), Some(before)) = (alloc_counter, allocs_before) {
            allocs.push((counter() - before) as f64 / iters as f64);
        }
    }
    per_iter.sort_by(f64::total_cmp);
    let ns_per_iter = per_iter[per_iter.len() / 2];
    // Median, like the timing, so a one-time buffer growth in a single
    // sample cannot skew the reported allocation count.
    allocs.sort_by(f64::total_cmp);
    let allocs_per_iter = allocs.get(allocs.len() / 2).copied();
    BenchRecord {
        name: name.to_string(),
        ns_per_iter,
        per_sec: 1.0e9 / ns_per_iter.max(1e-9),
        allocs_per_iter,
    }
}

/// The standard evidence suite (see module docs). Deterministic inputs;
/// ~a minute of wall clock in release mode.
pub fn evidence_suite(alloc_counter: Option<&dyn Fn() -> u64>) -> Vec<BenchRecord> {
    let cfg = KsConfig::new(0.05).unwrap();
    let w = 10_000usize;
    let pair = failing_kifer_pair(w, 0.03, &cfg, 7, 100).expect("p = 3% fails at w = 10_000");
    let base = BaseVector::build(&pair.reference, &pair.test).unwrap();
    let ctx = BoundsContext::new(&base, &cfg);
    let h = w / 20;
    let pref = PreferenceList::random(pair.test.len(), 13);
    let shared = SortedReference::new(&pair.reference).unwrap();
    let mut records = Vec::new();

    eprintln!("[bench-json] bound probes (w = {w})...");
    records.push(measure(
        &format!("bounds/compute_alloc/w={w}"),
        || {
            black_box(ctx.compute(black_box(h)));
        },
        alloc_counter,
    ));
    let mut ws = BoundsWorkspace::new();
    ctx.compute_into(h, &mut ws); // warm the buffers before measuring
    records.push(measure(
        &format!("bounds/compute_workspace/w={w}"),
        || {
            black_box(ctx.compute_into(black_box(h), &mut ws));
        },
        alloc_counter,
    ));
    // The Phase-1 kernels: one scalar Theorem-2 verdict versus one fused
    // pass evaluating WAVEFRONT_PROBES verdicts (the wavefront's per-round
    // cost; divide by the probe count for per-verdict cost).
    records.push(measure(
        &format!("bounds/necessary_condition/w={w}"),
        || {
            black_box(ctx.necessary_condition(black_box(h)));
        },
        alloc_counter,
    ));
    let probes = moche_core::phase1::WAVEFRONT_PROBES;
    let hs: Vec<usize> = (0..probes).map(|j| 1 + j * (w - 2) / probes).collect();
    let mut verdicts = vec![false; probes];
    records.push(measure(
        &format!("bounds/necessary_condition_multi{probes}/w={w}"),
        || {
            ctx.necessary_condition_multi(black_box(&hs), &mut verdicts);
            black_box(&verdicts);
        },
        alloc_counter,
    ));

    eprintln!("[bench-json] phase 1 (w = {w})...");
    records.push(measure(
        &format!("phase1/find_size/w={w}"),
        || {
            black_box(moche_core::phase1::find_size(black_box(&ctx), 0.05).unwrap());
        },
        alloc_counter,
    ));
    records.push(measure(
        &format!("phase1/find_size_wavefront/w={w}"),
        || {
            black_box(moche_core::phase1::find_size_wavefront(black_box(&ctx), 0.05).unwrap());
        },
        alloc_counter,
    ));

    eprintln!("[bench-json] end-to-end explain (w = {w})...");
    let reference_strategy = Moche::with_config(cfg).construction(ConstructionStrategy::Reference);
    records.push(measure(
        &format!("end_to_end/moche_reference_alloc/w={w}"),
        || {
            black_box(
                reference_strategy.explain(black_box(&pair.reference), &pair.test, &pref).unwrap(),
            );
        },
        alloc_counter,
    ));
    let oneshot = Moche::with_config(cfg);
    records.push(measure(
        &format!("end_to_end/moche_oneshot/w={w}"),
        || {
            black_box(oneshot.explain(black_box(&pair.reference), &pair.test, &pref).unwrap());
        },
        alloc_counter,
    ));
    let mut engine = ExplainEngine::with_config(cfg);
    // The fully recycled steady state: indexed reference + output arena.
    // Once warm, an explain performs zero heap allocations — the number
    // this entry gates.
    let index = ReferenceIndex::from_sorted(&shared);
    let mut arena = ExplanationArena::new();
    let warm = engine.explain_with_index_in(&index, &pair.test, &pref, &mut arena).unwrap();
    arena.recycle(warm);
    records.push(measure(
        &format!("end_to_end/engine_indexed_arena/w={w}"),
        || {
            let e = engine
                .explain_with_index_in(black_box(&index), &pair.test, &pref, &mut arena)
                .unwrap();
            black_box(e.size());
            arena.recycle(e);
        },
        alloc_counter,
    ));

    // The asymmetric construction workload: one large indexed reference,
    // small windows — the regime the ReferenceIndex splice exists for. The
    // splice writes into recycled output buffers, so the per-window cost
    // drops to the actual construction work; the sort buffer is fresh per
    // call (1 allocation), as this entry has always measured.
    let big_n = 100_000usize;
    let small_m = 1_000usize;
    eprintln!("[bench-json] base-vector construction (n = {big_n}, m = {small_m})...");
    let mut rng = rng_from_seed(42);
    let big_ref: Vec<f64> = (0..big_n).map(|_| normal(&mut rng, 0.0, 1.0)).collect();
    let window: Vec<f64> = (0..small_m).map(|_| normal(&mut rng, 0.5, 1.2)).collect();
    let big_index = ReferenceIndex::new(&big_ref).unwrap();
    let mut recycled = BaseVector::empty();
    let splice = |out: &mut BaseVector| {
        BaseVector::build_with_index_into_using(
            &big_index,
            black_box(&window),
            out,
            &mut Vec::new(),
        )
    };
    splice(&mut recycled).unwrap();
    records.push(measure(
        &format!("base_vector/build_indexed_reuse/n={big_n},m={small_m}"),
        || {
            splice(&mut recycled).unwrap();
            black_box(&recycled);
        },
        alloc_counter,
    ));

    let jobs = 64usize;
    let windows: Vec<Vec<f64>> = (0..jobs)
        .map(|i| {
            let mut t = pair.test.clone();
            let shift = i % t.len();
            t.rotate_left(shift);
            t
        })
        .collect();
    for threads in [1usize, 8] {
        eprintln!("[bench-json] batch throughput ({threads} thread(s))...");
        let explainer = BatchExplainer::with_config(cfg).threads(threads);
        let record = measure(
            &format!("batch/shared_ref_{jobs}_windows_w{w}/threads={threads}"),
            || {
                let results = explainer.explain_windows(black_box(&shared), &windows, None);
                assert!(results.iter().all(Result::is_ok));
                black_box(results);
            },
            alloc_counter,
        );
        // Report per-explanation throughput rather than per-batch.
        records.push(BenchRecord {
            name: record.name,
            ns_per_iter: record.ns_per_iter / jobs as f64,
            per_sec: record.per_sec * jobs as f64,
            allocs_per_iter: record.allocs_per_iter.map(|a| a / jobs as f64),
        });
    }

    for (mode, tag) in [(StreamMode::Explain, "explain"), (StreamMode::SizeOnly, "size_only")] {
        eprintln!("[bench-json] streaming batch ({tag})...");
        let streamer = StreamingBatchExplainer::with_config(cfg).threads(1).buffer(8).mode(mode);
        let record = measure(
            &format!("streaming/{tag}_{jobs}_windows_w{w}/threads=1"),
            || {
                let summary = streamer.explain_stream(
                    black_box(&index),
                    windows.iter().cloned(),
                    None,
                    |result| {
                        assert!(result.result.is_ok());
                    },
                );
                assert_eq!(summary.windows, jobs);
                black_box(summary);
            },
            alloc_counter,
        );
        // Per-window, like the batch records.
        records.push(BenchRecord {
            name: record.name,
            ns_per_iter: record.ns_per_iter / jobs as f64,
            per_sec: record.per_sec * jobs as f64,
            allocs_per_iter: record.allocs_per_iter.map(|a| a / jobs as f64),
        });
    }

    eprintln!("[bench-json] streaming steady state (recycled source + arena)...");
    records.push(measure_streaming_steady_state(
        &format!("streaming/explain_recycled_steady_state_w{w}/threads=1"),
        cfg,
        &index,
        &windows,
        alloc_counter,
    ));

    records.extend(ks2d_suite(alloc_counter));
    records.extend(monitor_suite(w, alloc_counter));
    records.extend(fleet_suite(alloc_counter));

    records
}

/// The 2-D evidence fixture: a dense lattice reference and a window whose
/// tail is a far-off contaminating cluster, so the Fasano-Franceschini test
/// fails and the explanation is the cluster. Sizes are modest because the
/// naive impact explainer is the quadratic "before" entry. Shared with
/// `benches/explain2d.rs`, so the criterion numbers and the
/// `BENCH_core.json` evidence measure the identical workload.
pub fn contaminated2d() -> (Vec<Point2>, Vec<Point2>) {
    let grid = |n: usize, ox: f64, oy: f64| -> Vec<Point2> {
        (0..n)
            .map(|i| {
                Point2::new(((i * 7) % 13) as f64 * 0.31 + ox, ((i * 11) % 17) as f64 * 0.23 + oy)
            })
            .collect()
    };
    let reference = grid(120, 0.0, 0.0);
    let mut window = grid(60, 0.01, 0.02);
    window.extend(grid(25, 50.0, 50.0));
    (reference, window)
}

/// The 2-D engine-treatment evidence: the rank-space statistic against the
/// per-call rescan, and the warm engine + arena pair (0 allocs once warm)
/// against the allocating naive impact descent.
fn ks2d_suite(alloc_counter: Option<&dyn Fn() -> u64>) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    let (reference, window) = contaminated2d();
    let (n, m) = (reference.len(), window.len());
    let cfg = Ks2dConfig::new(0.05).unwrap();
    let index = RankIndex2d::new(&reference).unwrap();

    eprintln!("[bench-json] 2-D KS statistic (n = {n}, m = {m})...");
    records.push(measure(
        &format!("ks2d/statistic_naive/n={n},m={m}"),
        || {
            black_box(ks2d_statistic(black_box(&reference), &window).unwrap());
        },
        alloc_counter,
    ));
    let mut scratch = Scratch2d::new();
    ks2d_statistic_indexed(&index, &window, &mut scratch).unwrap(); // warm the sweep buffers
    records.push(measure(
        &format!("ks2d/statistic_indexed/n={n},m={m}"),
        || {
            black_box(ks2d_statistic_indexed(black_box(&index), &window, &mut scratch).unwrap());
        },
        alloc_counter,
    ));

    eprintln!("[bench-json] 2-D explanation (n = {n}, m = {m})...");
    records.push(measure(
        &format!("explain2d/naive_impact/n={n},m={m}"),
        || {
            black_box(GreedyImpact2d.explain(black_box(&reference), &window, &cfg, None).unwrap());
        },
        alloc_counter,
    ));
    let mut engine = Explain2dEngine::with_config(cfg);
    let mut arena = Explanation2dArena::new();
    let warm = engine.explain_in(&index, &window, None, &mut arena).unwrap();
    arena.recycle(warm);
    records.push(measure(
        &format!("explain2d/engine_arena/n={n},m={m}"),
        || {
            let e = engine.explain_in(black_box(&index), &window, None, &mut arena).unwrap();
            black_box(e.size());
            arena.recycle(e);
        },
        alloc_counter,
    ));

    records
}

/// The monitor's benchmark stream: a periodic base plus a tiny
/// position-keyed jitter, so windows hold ~`w` *distinct* values (a
/// realistic order-statistic depth, and a reference the old per-alarm sort
/// cannot shortcut through pdqsort's few-distinct fast path) while the
/// jitter's period-`w` alignment keeps paired windows distribution-equal —
/// the stationary stream never false-alarms. Shared with
/// `benches/monitor_alarm.rs`, so the criterion numbers and the
/// `BENCH_core.json` evidence measure the identical workload.
pub fn monitor_observation(i: usize, w: usize, shifted: bool) -> f64 {
    ((i * 13) % 11) as f64 + (i % w) as f64 * 1e-8 + if shifted { 20.0 } else { 0.0 }
}

/// A monitor over [`monitor_observation`]'s stream whose windows are full
/// and failing (reference low, test shifted): every alarm-path call
/// afterwards explains the drift. Alarm handling is left to the caller
/// (`explain_on_drift` off); the stream position to continue pushing from
/// is `2 * w`.
pub fn alarmed_monitor(w: usize) -> DriftMonitor {
    let mut cfg = MonitorConfig::new(w, 0.05);
    cfg.reset_on_drift = false;
    cfg.explain_on_drift = false;
    let mut mon = DriftMonitor::new(cfg).unwrap();
    for i in 0..w {
        mon.push(monitor_observation(i, w, false));
    }
    for i in 0..w {
        mon.push(monitor_observation(w + i, w, true));
    }
    assert!(mon.alarms() > 0, "the shifted window must be failing");
    mon
}

/// One measured alarm iteration: slide once (a real alarm always follows
/// a push, so the windows differ from the previous alarm's), then
/// explain and recycle. Every slide promotes one shifted value into the
/// reference window, so after ~`w` iterations the drift has fully
/// traversed the pair and the KS test passes again; when that happens the
/// monitor is re-seeded via [`alarmed_monitor`] — rare enough (once per
/// ~`w` iterations) that the median is unaffected, and the iteration
/// count stays unbounded-safe on any harness. Returns the explanation
/// size.
pub fn alarm_explain_iteration(mon: &mut DriftMonitor, at: &mut usize, w: usize) -> usize {
    mon.push(black_box(monitor_observation(*at, w, true)));
    *at += 1;
    let e = match mon.explain_current() {
        Some(e) => e,
        None => {
            *mon = alarmed_monitor(w);
            *at = 2 * w;
            mon.explain_current().expect("a fresh alarmed monitor is failing")
        }
    };
    let size = e.size();
    mon.recycle(e);
    size
}

/// The size-only counterpart of [`alarm_explain_iteration`].
pub fn alarm_size_iteration(mon: &mut DriftMonitor, at: &mut usize, w: usize) -> SizeSearch {
    mon.push(black_box(monitor_observation(*at, w, true)));
    *at += 1;
    match mon.size_current() {
        Some(size) => size,
        None => {
            *mon = alarmed_monitor(w);
            *at = 2 * w;
            mon.size_current().expect("a fresh alarmed monitor is failing")
        }
    }
}

/// The monitor's cost model, measured: the steady-state slide and the
/// alarm paths (explain and size-only, 0 allocs once warm, each iteration
/// sliding once so every alarm sees new windows).
fn monitor_suite(w: usize, alloc_counter: Option<&dyn Fn() -> u64>) -> Vec<BenchRecord> {
    let mut records = Vec::new();

    eprintln!("[bench-json] monitor steady-state slide (w = {w})...");
    let mut cfg = MonitorConfig::new(w, 0.05);
    cfg.reset_on_drift = false;
    cfg.explain_on_drift = false;
    let mut mon = DriftMonitor::new(cfg).unwrap();
    let mut at = 0usize;
    for _ in 0..2 * w {
        mon.push(monitor_observation(at, w, false));
        at += 1;
    }
    records.push(measure(
        &format!("monitor/steady_push/w={w}"),
        || {
            // Stationary stream: the slides and the decision, no alarm.
            let event = mon.push(black_box(monitor_observation(at, w, false)));
            at += 1;
            black_box(&event);
        },
        alloc_counter,
    ));

    eprintln!("[bench-json] monitor alarm paths (w = {w})...");
    let mut mon = alarmed_monitor(w);
    // Warm the alarm scratch before measuring the steady state.
    let e = mon.explain_current().expect("windows are failing");
    mon.recycle(e);
    let mut at = 2 * w;
    records.push(measure(
        &format!("monitor/alarm_explain/w={w}"),
        || {
            black_box(alarm_explain_iteration(&mut mon, &mut at, w));
        },
        alloc_counter,
    ));
    let mut sized = alarmed_monitor(w);
    let mut at = 2 * w;
    records.push(measure(
        &format!("monitor/alarm_size_only/w={w}"),
        || {
            black_box(alarm_size_iteration(&mut sized, &mut at, w));
        },
        alloc_counter,
    ));

    eprintln!("[bench-json] monitor checkpoint write (w = {w})...");
    // The operational cost of `moche monitor --checkpoint`: capture the
    // full monitor state, encode + checksum it, and persist atomically
    // (temp file + fsync + rename). This is what a `--checkpoint-every`
    // cadence buys per firing — the between-checkpoints cost is pinned at
    // zero by the allocation gates.
    let path = std::env::temp_dir().join(format!("moche-bench-checkpoint-{w}.snap"));
    records.push(measure(
        &format!("monitor/checkpoint_write/w={w}"),
        || {
            mon.checkpoint(black_box(&path)).expect("checkpoint write");
        },
        alloc_counter,
    ));
    let _ = std::fs::remove_file(&path);

    records
}

/// A fleet of `series` stationary monitors at window `w`, warmed until
/// every window pair is full (so the measured pushes are all steady-state
/// slides). Observations come from [`monitor_observation`], one stream
/// position per full round-robin pass — the daemon's access pattern,
/// where consecutive pushes hit different shards and series. Shared with
/// `benches/fleet_push.rs`, so the criterion numbers and the
/// `BENCH_core.json` evidence measure the identical workload.
pub fn warmed_fleet(series: u64, w: usize, shards: usize) -> (MonitorFleet, usize) {
    let mut monitor = MonitorConfig::new(w, 0.05);
    monitor.reset_on_drift = false;
    let mut fleet = MonitorFleet::new(FleetConfig::new(shards, monitor)).expect("valid config");
    let mut round = 0usize;
    for _ in 0..2 * w {
        for id in 0..series {
            fleet.push(id, monitor_observation(round, w, false)).expect("finite");
        }
        round += 1;
    }
    (fleet, round)
}

/// The `moche serve` evidence: multiplexed ingest throughput at two fleet
/// scales, tail push latency while part of the fleet is alarming, and the
/// cost of the crash-recovery path (`kill -9` → per-shard checkpoint
/// resume). The ISSUE's 0.15 perf gate runs over these records.
fn fleet_suite(alloc_counter: Option<&dyn Fn() -> u64>) -> Vec<BenchRecord> {
    let mut records = Vec::new();

    for (series, w, tag) in [(1_000u64, 64usize, "1k"), (100_000, 8, "100k")] {
        eprintln!("[bench-json] fleet steady push ({tag} series, w = {w})...");
        let (mut fleet, mut round) = warmed_fleet(series, w, 4);
        let mut id = 0u64;
        records.push(measure(
            &format!("fleet/push_{tag}_series/w={w}"),
            || {
                let event = fleet
                    .push(black_box(id), black_box(monitor_observation(round, w, false)))
                    .expect("finite");
                black_box(&event);
                id += 1;
                if id == series {
                    id = 0;
                    round += 1;
                }
            },
            alloc_counter,
        ));
        assert_eq!(fleet.stats().view().alarms, 0, "the stationary fleet must never alarm");
    }

    eprintln!("[bench-json] fleet p99 push latency under alarms...");
    let (w, series) = (64usize, 1_000u64);
    let mut monitor = MonitorConfig::new(w, 0.05);
    monitor.reset_on_drift = false;
    monitor.explain_on_drift = true;
    let mut fleet = MonitorFleet::new(FleetConfig::new(4, monitor)).expect("valid config");
    let mut round = 0usize;
    // Warm everyone stationary, then drift every 16th series for a full
    // window so its test window is shifted against its still-clean
    // reference — the configuration that alarms on every further push.
    for _ in 0..2 * w {
        for id in 0..series {
            fleet.push(id, monitor_observation(round, w, false)).expect("finite");
        }
        round += 1;
    }
    for _ in 0..w {
        for id in 0..series {
            fleet.push(id, monitor_observation(round, w, id.is_multiple_of(16))).expect("finite");
        }
        round += 1;
    }
    // Every 16th series runs shifted: its windows disagree on every push,
    // so ~6% of the measured pushes pay the full alarm path (KS verdict,
    // stats, explain-ticket enqueue or shed) — the daemon's worst steady
    // state. Tail latency is what the ISSUE asks in evidence: the p99 of
    // individual push times, median-of-5 rounds so one scheduler hiccup
    // cannot set the number.
    let (rounds, per_round) = (5usize, 20_000usize);
    let mut p99s = Vec::with_capacity(rounds);
    let mut lat = Vec::with_capacity(per_round);
    let mut id = 0u64;
    for _ in 0..rounds {
        lat.clear();
        for _ in 0..per_round {
            let value = monitor_observation(round, w, id.is_multiple_of(16));
            let t = Instant::now();
            let event = fleet.push(id, value).expect("finite");
            lat.push(t.elapsed().as_nanos() as f64);
            black_box(&event);
            id += 1;
            if id == series {
                id = 0;
                round += 1;
            }
            // The daemon drains deferred explains between pushes when the
            // ring goes idle; model that so the ticket queue stays live
            // without ever appearing inside a push measurement.
            if lat.len().is_multiple_of(256) {
                fleet.drain_explains(4, |_| {});
            }
        }
        lat.sort_by(f64::total_cmp);
        p99s.push(lat[lat.len() * 99 / 100]);
    }
    assert!(fleet.stats().view().alarms > 0, "the drifted slice must be alarming");
    p99s.sort_by(f64::total_cmp);
    let p99 = p99s[p99s.len() / 2];
    records.push(BenchRecord {
        name: format!("fleet/push_p99_under_alarms/w={w}"),
        ns_per_iter: p99,
        per_sec: 1.0e9 / p99.max(1e-9),
        allocs_per_iter: None,
    });

    eprintln!("[bench-json] fleet checkpoint + resume (1k series, w = 64)...");
    let (fleet, _) = warmed_fleet(1_000, 64, 4);
    let cfg = *fleet.config();
    let dir = std::env::temp_dir().join("moche-bench-fleet-resume");
    let _ = std::fs::remove_dir_all(&dir);
    records.push(measure(
        "fleet/checkpoint_1k_series/w=64",
        || {
            fleet.checkpoint_dir(black_box(&dir)).expect("checkpoint");
        },
        alloc_counter,
    ));
    records.push(measure(
        "fleet/resume_1k_series/w=64",
        || {
            let resumed = MonitorFleet::resume_from_dir(cfg, black_box(&dir)).expect("resume");
            assert_eq!(resumed.series_count(), 1_000);
            black_box(&resumed);
        },
        alloc_counter,
    ));
    let _ = std::fs::remove_dir_all(&dir);

    records
}

/// One single-threaded fully-recycled streaming run over `count` windows
/// cycled from `windows`: the source copies into recycled buffers and the
/// arena reclaims every output (see `StreamingBatchExplainer::explain_source`).
fn streaming_recycled_run(
    cfg: KsConfig,
    index: &ReferenceIndex,
    windows: &[Vec<f64>],
    count: usize,
) {
    let streamer = StreamingBatchExplainer::with_config(cfg).threads(1).buffer(8);
    let mut i = 0usize;
    let source = |buf: &mut Vec<f64>| {
        if i >= count {
            return false;
        }
        buf.clear();
        buf.extend_from_slice(&windows[i % windows.len()]);
        i += 1;
        true
    };
    let summary = streamer.explain_source(index, source, None, |r| {
        assert!(r.result.is_ok());
    });
    assert_eq!(summary.windows, count);
}

/// Measures the *marginal* per-window cost of the recycled streaming path:
/// the difference between a long and a short run, divided by the extra
/// windows. Both runs pay the identical warm-up (engine construction,
/// first-window buffer growth), so it cancels out and the reported
/// allocs/window is the true steady state — the "0 allocations per window"
/// claim the perf gate enforces.
fn measure_streaming_steady_state(
    name: &str,
    cfg: KsConfig,
    index: &ReferenceIndex,
    windows: &[Vec<f64>],
    alloc_counter: Option<&dyn Fn() -> u64>,
) -> BenchRecord {
    let (short, long) = (16usize, 48usize);
    let extra = (long - short) as f64;
    let samples = 5;
    let mut per_window = Vec::with_capacity(samples);
    let mut allocs = Vec::with_capacity(samples);
    let run = |count: usize| {
        let allocs_before = alloc_counter.map(|c| c());
        let t = Instant::now();
        streaming_recycled_run(cfg, index, windows, count);
        let ns = t.elapsed().as_nanos() as f64;
        (ns, alloc_counter.map(|c| c() - allocs_before.unwrap_or(0)))
    };
    for _ in 0..samples {
        let (ns_short, allocs_short) = run(short);
        let (ns_long, allocs_long) = run(long);
        per_window.push((ns_long - ns_short).max(0.0) / extra);
        if let (Some(a), Some(b)) = (allocs_short, allocs_long) {
            allocs.push((b.saturating_sub(a)) as f64 / extra);
        }
    }
    per_window.sort_by(f64::total_cmp);
    let ns_per_iter = per_window[per_window.len() / 2];
    allocs.sort_by(f64::total_cmp);
    let allocs_per_iter = allocs.get(allocs.len() / 2).copied();
    BenchRecord {
        name: name.to_string(),
        ns_per_iter,
        per_sec: 1.0e9 / ns_per_iter.max(1e-9),
        allocs_per_iter,
    }
}

/// Serializes records as a JSON object `{name: {ns_per_iter, per_sec,
/// allocs_per_iter?}}` (hand-rolled: the workspace is offline and
/// dependency-free).
pub fn to_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("{\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "  \"{}\": {{\"ns_per_iter\": {:.1}, \"per_sec\": {:.1}",
            r.name, r.ns_per_iter, r.per_sec
        ));
        if let Some(a) = r.allocs_per_iter {
            out.push_str(&format!(", \"allocs_per_iter\": {a:.1}"));
        }
        out.push('}');
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push('}');
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_sane_numbers() {
        let mut acc = 0u64;
        let r = measure("test/noop", || acc = acc.wrapping_add(1), None);
        assert!(r.ns_per_iter > 0.0);
        assert!(r.per_sec > 0.0);
        assert!(r.allocs_per_iter.is_none());
    }

    #[test]
    fn measure_counts_allocations() {
        // A fake counter advancing by 3 per call gives 0 allocs/iter
        // between the paired before/after reads only if nothing advanced;
        // here we exercise the plumbing with a static counter.
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNT: AtomicU64 = AtomicU64::new(0);
        let counter = || COUNT.load(Ordering::Relaxed);
        let r = measure(
            "test/alloc",
            || {
                COUNT.fetch_add(2, Ordering::Relaxed);
            },
            Some(&counter),
        );
        let allocs = r.allocs_per_iter.expect("counter installed");
        assert!((allocs - 2.0).abs() < 1e-9, "allocs = {allocs}");
    }

    #[test]
    fn json_shape() {
        let records = vec![
            BenchRecord {
                name: "a/b".into(),
                ns_per_iter: 10.0,
                per_sec: 1e8,
                allocs_per_iter: Some(2.0),
            },
            BenchRecord { name: "c".into(), ns_per_iter: 5.0, per_sec: 2e8, allocs_per_iter: None },
        ];
        let json = to_json(&records);
        assert!(json.contains("\"a/b\""));
        assert!(json.contains("\"allocs_per_iter\": 2.0"));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(json.matches("ns_per_iter").count(), 2);
    }
}
