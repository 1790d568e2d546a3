//! The traced run: the same generated inputs replayed in-process, with a
//! span around every call into a layer's public functions, plus short
//! end-to-end runs for the metrics that combine both (ring overhead, queue
//! wait, bytes per series).
//!
//! Every traced run replays all three workloads' inputs, so each per-layer
//! metric is present whichever workload was named. Metrics two sections
//! both measure (explain stages, SR scoring, warm pushes) come from the
//! named workload's section, which runs last.

use crate::e2e::{self, ALPHA, INGEST_WORKERS, WORKERS};
use crate::gen::{BatchInputs, Drift, Ingest};
use crate::report::Report;
use crate::stats::{mean, median, percentile};
use crate::trace::{SpanId, Tracer};
use crate::Ctx;
use moche_cli::protocol::{Assembled, FrameAssembler};
use moche_core::phase1;
use moche_core::phase2;
use moche_core::{
    ks_test, BaseVector, BatchExplainer, BoundsContext, BoundsWorkspace, ExplainEngine,
    ExplanationArena, IncrementalRefIndex, KsConfig, MocheError, PreferenceList, RankSource,
    ReferenceIndex, ReferenceMode, SortedReference, SubsetCounts, WindowPreferences,
};
use moche_sigproc::{SaliencyScratch, SpectralResidual};
use moche_stream::{
    shard_of, FleetConfig, FleetPush, FleetShard, IncrementalKs, MonitorConfig, MonitorFleet, ObsId,
};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every `SAMPLE`-th round of pushes is traced; the rest run untimed.
const SAMPLE: u64 = 4;
/// Replays of the protocol byte stream.
const DECODE_PASSES: usize = 7;
/// Rounds in the replayed protocol byte stream.
const DECODE_ROUNDS: u64 = 8;
/// Checkpoints taken per shard.
const CHECKPOINTS: usize = 3;
/// Batch windows explained at least, whatever the time budget.
const MIN_WINDOWS: usize = 16;

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Shares of `--seconds` given to each timed part of the traced run.
struct Budget {
    ingest_replay: f64,
    ingest_e2e: f64,
    drift_replay: f64,
    drift_e2e: f64,
    batch_replay: f64,
}

impl Budget {
    fn new(seconds: f64) -> Self {
        Budget {
            ingest_replay: 0.15 * seconds,
            ingest_e2e: 0.15 * seconds,
            drift_replay: 0.25 * seconds,
            drift_e2e: 0.25 * seconds,
            batch_replay: 0.2 * seconds,
        }
    }
}

pub fn traced(ctx: &Ctx, workload: &str, report: &mut Report) -> Result<(), String> {
    let budget = Budget::new(ctx.seconds);
    let epoch = Instant::now();
    let mut order = vec!["serve_ingest", "serve_drift", "batch_explain"];
    order.retain(|w| *w != workload);
    order.push(workload);
    let mut tracers = Vec::new();
    for section in order {
        let mut t = Tracer::new(epoch);
        match section {
            "serve_ingest" => ingest(ctx, &budget, &mut t, report)?,
            "serve_drift" => drift(ctx, &budget, &mut t, report)?,
            _ => batch(ctx, &budget, &mut t, report)?,
        }
        tracers.push((section, t));
    }
    // One file per workload, replaced by every traced run.
    let path = ctx.work.join(format!("trace-{workload}.tsv"));
    let sections: Vec<(&str, &Tracer)> = tracers.iter().map(|(s, t)| (*s, t)).collect();
    crate::trace::write_all(&path, &sections)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let spans: usize = tracers.iter().map(|(_, t)| t.spans().len()).sum();
    report.note(format!("{spans} spans written to {}", path.display()));
    for (section, t) in &tracers {
        let mut names: Vec<&str> = t.spans().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            report.note(format!(
                "span {section}/{name}: n={} p50 {:.3} us, self p50 {:.3} us",
                t.count(name),
                median(&t.durations_ns(name)).unwrap_or(0.0) / 1e3,
                median(&t.self_ns(name)).unwrap_or(0.0) / 1e3,
            ));
        }
    }
    Ok(())
}

/// Records the median of `samples` (scaled by `scale`) as `name`.
fn p50(report: &mut Report, name: &'static str, samples: &[f64], scale: f64, unit: &'static str) {
    if let Some(v) = median(samples) {
        report.metric(name, v * scale, unit, samples.len());
    }
}

fn p99(report: &mut Report, name: &'static str, samples: &[f64], scale: f64, unit: &'static str) {
    if let Some(v) = percentile(samples, 99.0) {
        report.metric(name, v * scale, unit, samples.len());
    }
}

/// Splits a fleet into its shards; callers route like the daemon does,
/// with `shard_of(id, shards.len())`.
fn shards(count: usize, window: usize) -> Result<Vec<FleetShard>, String> {
    let fleet = MonitorFleet::new(FleetConfig::new(count, MonitorConfig::new(window, ALPHA)))
        .map_err(|e| e.to_string())?;
    Ok(fleet.into_shards().1)
}

/// The replica of one series' KS state, making the same calls in the same
/// order as the monitor does, so the incremental layers can be timed on
/// their own.
struct Replica {
    iks: IncrementalKs,
    reference: VecDeque<(f64, ObsId)>,
    test: VecDeque<(f64, ObsId)>,
    index: IncrementalRefIndex,
}

impl Replica {
    fn new(window: usize) -> Self {
        Replica {
            iks: IncrementalKs::new(),
            reference: VecDeque::with_capacity(window),
            test: VecDeque::with_capacity(window),
            index: IncrementalRefIndex::with_capacity(window),
        }
    }
}

/// `serve_ingest` inputs: protocol decode, steady fleet pushes, the KS
/// treaps and reference index on their own, checkpoints, and a short
/// daemon run for bytes per series and the ring overhead.
fn ingest(ctx: &Ctx, budget: &Budget, t: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let plan = Ingest::new(ctx.seed);
    let w = plan.window as u64;
    let series = plan.series.len();

    // Protocol: the byte stream as sent, fed in 4 KiB reads.
    let mut bytes = Vec::new();
    for n in 0..DECODE_ROUNDS {
        plan.encode_round(n, &mut bytes);
    }
    let frames = DECODE_ROUNDS as usize * series;
    for pass in 0..DECODE_PASSES {
        let decoded = t.time("protocol.decode", None, pass as u64, || {
            let mut asm = FrameAssembler::new();
            let mut decoded = 0usize;
            for chunk in bytes.chunks(4096) {
                asm.extend(chunk);
                loop {
                    match asm.next_frame() {
                        Assembled::Request(request) => {
                            black_box(request);
                            decoded += 1;
                        }
                        Assembled::NeedMore => break,
                        Assembled::Malformed(_) | Assembled::Fatal(_) => return decoded,
                    }
                }
            }
            decoded
        });
        report.attempted += 1;
        report.check("decoded frames", frames, decoded);
    }
    let decode_ns = median(&t.durations_ns("protocol.decode")).unwrap_or(0.0) / frames as f64;
    report.metric("protocol.decode_ns_per_frame", decode_ns, "ns", DECODE_PASSES);

    // Fleet: warm every series, then steady rounds for the budget.
    let mut shards = shards(INGEST_WORKERS, plan.window)?;
    fn push(
        shards: &mut [FleetShard],
        t: &mut Tracer,
        name: &'static str,
        n: u64,
        id: u64,
        v: f64,
    ) -> Result<FleetPush, MocheError> {
        let count = shards.len();
        let shard = &mut shards[shard_of(id, count)];
        if n.is_multiple_of(SAMPLE) {
            t.time(name, None, id, || shard.push(id, v))
        } else {
            shard.push(id, v)
        }
    }
    for n in 0..2 * w {
        for s in &plan.series {
            push(&mut shards, t, "fleet.warm_push", n, s.id, s.value(n))
                .map_err(|e| e.to_string())?;
        }
    }
    let deadline = Instant::now() + Duration::from_secs_f64(budget.ingest_replay);
    let mut rounds = 2 * w;
    while Instant::now() < deadline || rounds < 2 * w + SAMPLE {
        for s in &plan.series {
            let event = push(&mut shards, t, "fleet.push", rounds, s.id, s.value(rounds));
            report.attempted += 1;
            if !matches!(event, Ok(FleetPush::Stable)) {
                report.mismatch(format!("series {} push {rounds}: {event:?}", s.id));
            }
        }
        rounds += 1;
    }
    let warm_push = t.durations_ns("fleet.warm_push");
    p50(report, "fleet.warm_push_ns_p50", &warm_push, 1.0, "ns");
    let steady = t.durations_ns("fleet.push");
    p50(report, "fleet.push_ns_p50", &steady, 1.0, "ns");
    p99(report, "fleet.push_ns_p99", &steady, 1.0, "ns");

    // Checkpoints of the warm shards, and their size per series.
    let dir = ctx.work.join("trace-checkpoints");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut snapshot_bytes = 0;
    for shard in &shards {
        for i in 0..CHECKPOINTS {
            t.time("snapshot.checkpoint", None, (shard.id() * CHECKPOINTS + i) as u64, || {
                shard.checkpoint(&dir)
            })
            .map_err(|e| e.to_string())?;
        }
        let file = dir.join(moche_stream::fleet::shard_file_name(shard.id()));
        snapshot_bytes += std::fs::metadata(&file).map_err(|e| e.to_string())?.len();
    }
    drop(shards);
    let checkpoints = t.durations_ns("snapshot.checkpoint");
    p50(report, "snapshot.checkpoint_ms_p50", &checkpoints, 1e-6, "ms");
    report.metric("snapshot.bytes_per_series", snapshot_bytes as f64 / series as f64, "B", series);

    // The KS treaps and the reference index alone, over the same rounds.
    let cfg = KsConfig::new(ALPHA).map_err(|e| e.to_string())?;
    let mut replicas: Vec<Replica> = (0..series).map(|_| Replica::new(plan.window)).collect();
    for n in 0..2 * w {
        for (s, r) in plan.series.iter().zip(&mut replicas) {
            let v = s.value(n);
            if n < w {
                let id = r.iks.insert_reference(v);
                r.reference.push_back((v, id));
                r.index.insert(v);
            } else {
                let id = r.iks.insert_test(v);
                r.test.push_back((v, id));
            }
        }
    }
    for n in 2 * w..rounds {
        let traced = n.is_multiple_of(SAMPLE);
        for (s, r) in plan.series.iter().zip(&mut replicas) {
            let v = s.value(n);
            let (promoted, promoted_id) = r.test.pop_front().expect("full test window");
            let (oldest, oldest_id) = r.reference.pop_front().expect("full reference window");
            let slide = |r: &mut Replica| {
                let new_ref = r.iks.slide_reference(oldest_id, promoted);
                let new_test = r.iks.slide_test(promoted_id, v);
                (new_ref, new_test)
            };
            let index_slide = |r: &mut Replica| {
                let removed = r.index.remove(oldest);
                r.index.insert(promoted);
                removed
            };
            let (slid, removed, outcome) = if traced {
                (
                    t.time("incremental.slide", None, s.id, || slide(r)),
                    t.time("ref_index.slide", None, s.id, || index_slide(r)),
                    t.time("incremental.outcome", None, s.id, || r.iks.outcome(&cfg)),
                )
            } else {
                (slide(r), index_slide(r), r.iks.outcome(&cfg))
            };
            let (Some(ref_id), Some(test_id), true) = (slid.0, slid.1, removed) else {
                return Err(format!("replica of series {} lost a window handle", s.id));
            };
            r.reference.push_back((promoted, ref_id));
            r.test.push_back((v, test_id));
            if !matches!(outcome, Ok(o) if !o.rejected) {
                report.mismatch(format!("replica of series {} rejected at push {n}", s.id));
            }
        }
    }
    drop(replicas);
    p50(report, "incremental.slide_ns_p50", &t.durations_ns("incremental.slide"), 1.0, "ns");
    p50(report, "incremental.outcome_ns_p50", &t.durations_ns("incremental.outcome"), 1.0, "ns");
    p50(report, "ref_index.slide_ns_p50", &t.durations_ns("ref_index.slide"), 1.0, "ns");

    // A short daemon run: memory per series, and the serving shell's share
    // of each observation beyond decode and push.
    let mut warm = e2e::start_ingest(ctx, &plan, report)?;
    let grown = warm.rss_warm_kb.saturating_sub(warm.rss_listen_kb) * 1024;
    report.metric("fleet.bytes_per_series", grown as f64 / series as f64, "B", series);
    let (lp, _) = e2e::ingest_for(&mut warm, &plan, plan.warm_rounds(), budget.ingest_e2e)?;
    drop(warm.client);
    warm.daemon.shutdown()?;
    report.attempted += lp.obs();
    report.failed += lp.bad_replies;
    let rates = e2e::slice_rates(&lp);
    let obs_per_s = median(&rates).ok_or("the short ingest run completed no batches")?;
    let push_ns = median(&steady).unwrap_or(0.0);
    let ring = INGEST_WORKERS as f64 * 1e9 / obs_per_s - (decode_ns + push_ns);
    report.metric("serve.ring_overhead_ns_per_obs", ring, "ns", rates.len());
    report.note(format!(
        "ingest: {obs_per_s:.0} obs/s end to end over {} slices; decode {decode_ns:.1} ns + push {push_ns:.1} ns in-process",
        rates.len()
    ));
    Ok(())
}

/// Reusable state for timing one explanation both ways: the real
/// `explain_with_index_in` call, and the same flow called stage by stage
/// through the public stage functions.
struct ExplainKit {
    cfg: KsConfig,
    engine: ExplainEngine,
    arena: ExplanationArena,
    base: BaseVector,
    sort: Vec<f64>,
    ws: BoundsWorkspace,
    counts: SubsetCounts,
    indices: Vec<usize>,
    values: Vec<f64>,
    sr: SpectralResidual,
    saliency: SaliencyScratch,
    scores: Vec<f64>,
    pref: PreferenceList,
    /// Alternates which of the two runs first, so neither always gets the
    /// warmer caches.
    flip: bool,
    ratios: Vec<f64>,
    k: Vec<f64>,
    phase1_checks: Vec<f64>,
    phase2_checks: Vec<f64>,
}

impl ExplainKit {
    fn new() -> Result<Self, String> {
        let cfg = KsConfig::new(ALPHA).map_err(|e| e.to_string())?;
        Ok(ExplainKit {
            cfg,
            engine: ExplainEngine::with_config(cfg),
            arena: ExplanationArena::new(),
            base: BaseVector::empty(),
            sort: Vec::new(),
            ws: BoundsWorkspace::new(),
            counts: SubsetCounts::empty(0),
            indices: Vec::new(),
            values: Vec::new(),
            sr: SpectralResidual::default(),
            saliency: SaliencyScratch::new(),
            scores: Vec::new(),
            pref: PreferenceList::identity(0),
            flip: false,
            ratios: Vec::new(),
            k: Vec::new(),
            phase1_checks: Vec::new(),
            phase2_checks: Vec::new(),
        })
    }

    /// Ranks `test` by Spectral-Residual score into the kit's preference.
    fn score(
        &mut self,
        t: &mut Tracer,
        parent: Option<SpanId>,
        req: u64,
        test: &[f64],
    ) -> Result<(), String> {
        let (sr, saliency, scores, pref) =
            (&self.sr, &mut self.saliency, &mut self.scores, &mut self.pref);
        t.time("sr.score", parent, req, || {
            sr.scores_into(test, saliency, scores).map_err(|e| e.to_string())?;
            pref.fill_from_scores_desc(scores).map_err(|e| e.to_string())
        })
    }

    /// Explains `test` against `index` under the kit's preference, both
    /// ways; checks they agree and returns the explanation's indices.
    fn explain<S: RankSource + ?Sized>(
        &mut self,
        t: &mut Tracer,
        parent: Option<SpanId>,
        req: u64,
        index: &S,
        test: &[f64],
        report: &mut Report,
    ) -> Result<Vec<usize>, String> {
        self.flip = !self.flip;
        let staged_first = self.flip;
        let mut staged = None;
        if staged_first {
            staged = Some(self.staged(t, parent, req, index, test)?);
        }
        let start = Instant::now();
        let real = self.engine.explain_with_index_in(index, test, &self.pref, &mut self.arena);
        let total = t.record("explain.total", parent, req, start, Instant::now());
        let real = real.map_err(|e| format!("explain: {e}"))?;
        if !staged_first {
            staged = Some(self.staged(t, parent, req, index, test)?);
        }
        let (stage_sum_ns, size, stats) = staged.expect("the staged run ran");

        report.attempted += 1;
        report.check("staged explanation indices", real.indices(), self.indices.as_slice());
        report.check("staged Phase-1 search", real.phase1, size);
        report.check("staged Phase-2 stats", real.phase2, stats);
        self.ratios.push(stage_sum_ns / t.spans()[total].duration_ns() as f64);
        self.k.push(real.phase1.k as f64);
        self.phase1_checks.push((real.phase1.theorem1_checks + real.phase1.theorem2_checks) as f64);
        self.phase2_checks.push(real.phase2.candidates_checked as f64);
        let indices = real.indices().to_vec();
        self.arena.recycle(real);
        Ok(indices)
    }

    /// The flow of `explain_with_index_in`, one public stage at a time;
    /// returns the summed stage times (ns) with the Phase-1 and Phase-2
    /// results.
    fn staged<S: RankSource + ?Sized>(
        &mut self,
        t: &mut Tracer,
        parent: Option<SpanId>,
        req: u64,
        index: &S,
        test: &[f64],
    ) -> Result<(f64, moche_core::SizeSearch, phase2::ConstructStats), String> {
        let cfg = self.cfg;
        let root = t.open("explain.staged", parent, req);
        let (base, sort) = (&mut self.base, &mut self.sort);
        t.time("explain.splice", Some(root), req, || {
            BaseVector::build_with_index_into_using(index, test, base, sort)
        })
        .map_err(|e| format!("splice: {e}"))?;
        let base = &self.base;
        let size = t.time("explain.phase1", Some(root), req, || {
            let before = base.outcome(&cfg);
            if before.passes() {
                return Err(MocheError::TestAlreadyPasses {
                    statistic: before.statistic,
                    threshold: before.threshold,
                });
            }
            phase1::find_size_wavefront(&BoundsContext::new(base, &cfg), cfg.alpha())
        });
        let size = size.map_err(|e| format!("phase 1: {e}"))?;
        let (ws, indices, order) = (&mut self.ws, &mut self.indices, self.pref.as_order());
        let stats = t
            .time("explain.phase2", Some(root), req, || {
                phase2::construct_into(base, &cfg, size.k, order, ws, indices)
            })
            .map_err(|e| format!("phase 2: {e}"))?;
        let (counts, indices, values) = (&mut self.counts, &self.indices, &mut self.values);
        let after = t.time("explain.arena", Some(root), req, || {
            counts.refill_from_test_indices(base, indices);
            let after = base.outcome_after_removal(counts.as_slice(), &cfg);
            values.clear();
            values.extend(indices.iter().map(|&i| test[i]));
            after
        });
        t.close(root);
        if !after.passes() {
            return Err("the staged explanation does not reverse the test".into());
        }
        // The stages are the only spans recorded since the root opened.
        let stages: f64 = t.spans()[root + 1..].iter().map(|s| s.duration_ns() as f64).sum();
        Ok((stages, size, stats))
    }

    fn report(&self, t: &Tracer, report: &mut Report) {
        p50(report, "sr.score_ms_p50", &t.durations_ns("sr.score"), 1e-6, "ms");
        p50(report, "explain.splice_ms_p50", &t.durations_ns("explain.splice"), 1e-6, "ms");
        p50(report, "explain.phase1_ms_p50", &t.durations_ns("explain.phase1"), 1e-6, "ms");
        p50(report, "explain.phase2_ms_p50", &t.durations_ns("explain.phase2"), 1e-6, "ms");
        p50(report, "explain.arena_us_p50", &t.durations_ns("explain.arena"), 1e-3, "us");
        p50(report, "explain.total_ms_p50", &t.durations_ns("explain.total"), 1e-6, "ms");
        p50(report, "explain.stage_sum_ratio", &self.ratios, 1.0, "ratio");
        // The stages must account for the whole call, within 10%.
        if let Some(ratio) = median(&self.ratios) {
            if !(0.9..=1.1).contains(&ratio) {
                report.mismatch(format!("explain stages sum to {ratio:.3} of the whole call"));
            }
        }
        for (name, samples) in [
            ("explain.k_mean", &self.k),
            ("explain.phase1_checks_mean", &self.phase1_checks),
            ("explain.phase2_checks_mean", &self.phase2_checks),
        ] {
            if let Some(m) = mean(samples) {
                report.metric(name, m, "count", samples.len());
            }
        }
    }
}

/// `serve_drift` inputs: warm, steady and alarm pushes through the fleet,
/// the deferred explain queue, and the alarm chain stage by stage; plus a
/// short open-loop daemon run for the queue wait and generator lag.
fn drift(ctx: &Ctx, budget: &Budget, t: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let plan = Drift::new(ctx.seed);
    let w = plan.window;
    let mut shards = shards(WORKERS, w)?;
    let mut history: Vec<VecDeque<f64>> = vec![VecDeque::with_capacity(2 * w); plan.series.len()];
    for n in 0..plan.warm_rounds() {
        for (s, hist) in plan.series.iter().zip(&mut history) {
            let v = s.value(n);
            let shard = &mut shards[shard_of(s.id, WORKERS)];
            let pushed = if n.is_multiple_of(2 * SAMPLE) {
                t.time("fleet.warm_push", None, s.id, || shard.push(s.id, v))
            } else {
                shard.push(s.id, v)
            };
            pushed.map_err(|e| e.to_string())?;
            hist.push_back(v);
        }
    }
    p50(report, "fleet.warm_push_ns_p50", &t.durations_ns("fleet.warm_push"), 1.0, "ns");

    let mut kit = ExplainKit::new()?;
    let mut index = ReferenceIndex::new(&[0.0]).map_err(|e| e.to_string())?;
    let mut sort = Vec::new();
    let mut explained: BTreeMap<(u64, u64), Option<usize>> = BTreeMap::new();
    let mut alarm_no = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(budget.drift_replay);
    let mut ticks = 0;
    while Instant::now() < deadline || alarm_no == 0 {
        for (s, hist) in plan.series.iter().zip(&mut history) {
            for n in plan.tick_pushes(ticks) {
                let v = s.value(n);
                let shard = &mut shards[shard_of(s.id, WORKERS)];
                let start = Instant::now();
                let pushed = shard.push(s.id, v);
                let end = Instant::now();
                hist.push_back(v);
                if hist.len() > 2 * w {
                    hist.pop_front();
                }
                let Ok(FleetPush::Alarm { at_push, .. }) = pushed else { continue };
                alarm_no += 1;
                t.record("fleet.alarm_push", None, alarm_no, start, end);
                // The real deferred path: one ticket through the queue.
                let answered = t.time("fleet.drain_explain", None, alarm_no, || {
                    let mut got = None;
                    shard.drain_explains(1, |a| {
                        got =
                            Some(((a.series, a.at_push), a.explanation.map(|e| e.indices().len())))
                    });
                    got
                });
                let Some((key, k)) = answered else {
                    report.mismatch(format!("alarm {alarm_no} was not queued"));
                    continue;
                };
                explained.insert(key, k);
                report.check("drained alarm", (s.id, at_push), key);
                // The same alarm, layer by layer, on the windows it captured
                // (the last 2w pushes; the monitor resets after an alarm).
                if hist.len() != 2 * w {
                    report.mismatch(format!(
                        "alarm {alarm_no} with {} pushes of history",
                        hist.len()
                    ));
                    hist.clear();
                    continue;
                }
                let (reference, test): (Vec<f64>, Vec<f64>) = {
                    let all: Vec<f64> = hist.iter().copied().collect();
                    (all[..w].to_vec(), all[w..].to_vec())
                };
                hist.clear();
                let chain = t.open("alarm.chain", None, alarm_no);
                t.time("ref_index.rebuild", Some(chain), alarm_no, || {
                    index.rebuild_from(&reference, &mut sort)
                })
                .map_err(|e| e.to_string())?;
                kit.score(t, Some(chain), alarm_no, &test)?;
                let indices = kit.explain(t, Some(chain), alarm_no, &index, &test, report)?;
                t.close(chain);
                report.check("alarm chain k", k, Some(indices.len()));
            }
        }
        ticks += 1;
    }
    p50(report, "fleet.alarm_push_ns_p50", &t.durations_ns("fleet.alarm_push"), 1.0, "ns");
    let drain = t.durations_ns("fleet.drain_explain");
    p50(report, "fleet.drain_explain_ms_p50", &drain, 1e-6, "ms");
    p99(report, "fleet.drain_explain_ms_p99", &drain, 1e-6, "ms");
    p50(report, "ref_index.rebuild_ms_p50", &t.durations_ns("ref_index.rebuild"), 1e-6, "ms");
    kit.report(t, report);

    // A short open-loop daemon run: how long explanations wait beyond
    // their own busy time, and how late the generator ran.
    let mut warm = e2e::start_drift(ctx, &plan, report)?;
    let run = e2e::drift_for(&mut warm, &plan, budget.drift_e2e)?;
    drop(warm.client);
    warm.daemon.shutdown()?;
    let latencies = run.latencies_ms(&plan);
    let busy = median(&drain).map_or(0.0, ms);
    if let Some(observed) = median(&latencies) {
        report.metric("serve.explain_wait_ms_p50", observed - busy, "ms", latencies.len());
    }
    p99(report, "loadgen.lag_p99_ms", &run.lateness_ms, 1.0, "ms");
    for (name, key) in [
        ("fleet.alarms", "alarms"),
        ("fleet.explained", "explained"),
        ("fleet.explain_dropped", "explain_dropped"),
    ] {
        let value = crate::client::json_u64(&run.status, key).unwrap_or(0);
        report.metric(name, value as f64, "count", 1);
    }
    // The daemon's explanations must match the in-process ones wherever
    // the replay reached the same push.
    for (_, e) in run.explains() {
        if let Some(k) = explained.get(&(e.series, e.push)) {
            report.attempted += 1;
            report.check("daemon explanation k", *k, e.k);
        }
    }
    report.note(format!(
        "drift: {alarm_no} alarms replayed over {ticks} ticks; short run {} alarms, p50 {:.2} ms",
        run.alarms().count(),
        median(&latencies).unwrap_or(0.0)
    ));
    Ok(())
}

/// `batch_explain` inputs: window parsing, the KS test, SR scoring, the
/// explain stages, and the batch pool's efficiency.
fn batch(ctx: &Ctx, budget: &Budget, t: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let inputs = BatchInputs::new(ctx.seed);
    let deadline = Instant::now() + Duration::from_secs_f64(budget.batch_replay);
    let mut parse_ms = Vec::new();
    for (f, file) in inputs.files.iter().enumerate() {
        let text = crate::gen::windows_text(file);
        let parsed =
            t.time("io.parse", None, f as u64, || moche_cli::io::parse_windows("windows", &text));
        report.attempted += 1;
        match parsed {
            Ok(parsed) => report.check("parsed windows", file, &parsed),
            Err(e) => report.mismatch(format!("parse windows-{f}: {e}")),
        }
        parse_ms.push(
            *t.durations_ns("io.parse").last().expect("just timed") / 1e6 / file.len() as f64,
        );
    }
    p50(report, "io.parse_ms_per_window", &parse_ms, 1.0, "ms");

    let cfg = KsConfig::new(ALPHA).map_err(|e| e.to_string())?;
    let sorted = SortedReference::new(&inputs.reference).map_err(|e| e.to_string())?;
    let index = ReferenceIndex::from_sorted(&sorted);
    let mut kit = ExplainKit::new()?;
    let mut windows: Vec<&Vec<f64>> = Vec::new();
    let mut expected: Vec<Vec<usize>> = Vec::new();
    let mut passing_ks = Vec::new();
    let mut busy_ns = 0.0;
    for (req, window) in inputs.files.iter().flatten().enumerate() {
        if windows.len() >= MIN_WINDOWS && Instant::now() >= deadline {
            break;
        }
        let req = req as u64;
        let start = Instant::now();
        let outcome = ks_test(&inputs.reference, window, &cfg).map_err(|e| e.to_string())?;
        let ks_ns = start.elapsed().as_nanos() as f64;
        let job = t.open("batch.window", None, req);
        kit.score(t, Some(job), req, window)?;
        let indices = if outcome.rejected {
            kit.explain(t, Some(job), req, &index, window, report)?
        } else {
            passing_ks.push(ks_ns);
            Vec::new()
        };
        t.close(job);
        let spans = t.spans();
        busy_ns += spans[job + 1..]
            .iter()
            .filter(|s| s.parent == Some(job) && s.name != "explain.staged")
            .map(|s| s.duration_ns() as f64)
            .sum::<f64>();
        windows.push(window);
        expected.push(indices);
    }
    if passing_ks.is_empty() {
        report.note("no passing window in the sample; ks.test_ms_p50 is not reported".into());
    }
    p50(report, "ks.test_ms_p50", &passing_ks, 1e-6, "ms");
    report.note(format!("batch: {} windows replayed, {} passing", windows.len(), passing_ks.len()));

    // The pool over the same windows: its wall time against the summed
    // single-threaded busy time of SR scoring plus the explain call.
    let explainer = BatchExplainer::new(ALPHA)
        .map_err(|e| e.to_string())?
        .threads(WORKERS)
        .reference_mode(ReferenceMode::Indexed);
    let score = |_: usize, w: &[f64]| {
        PreferenceList::from_scores_desc(&SpectralResidual::default().scores(w))
    };
    let results = t.time("batch.pool", None, 0, || {
        explainer.explain_windows_with(&sorted, &windows, WindowPreferences::Scored(&score))
    });
    for (i, (result, want)) in results.iter().zip(&expected).enumerate() {
        let got = match result {
            Ok(e) => e.indices().to_vec(),
            Err(MocheError::TestAlreadyPasses { .. }) => Vec::new(),
            Err(e) => {
                report.mismatch(format!("pool window {i}: {e}"));
                continue;
            }
        };
        report.check(&format!("pool window {i} indices"), want, &got);
    }
    let wall = t.durations_ns("batch.pool")[0];
    report.metric(
        "batch.pool_efficiency",
        busy_ns / (WORKERS as f64 * wall),
        "ratio",
        windows.len(),
    );
    kit.report(t, report);
    Ok(())
}
