//! The end-to-end workloads: the real release `moche` binary, driven from
//! this one process, with every output checked against an in-process
//! oracle.

use crate::client::{closed_loop, json_u64, ClosedLoop, Daemon, Line, SeriesReply};
use crate::gen::{barrier_ids, encode_round, BatchInputs, Drift, Ingest, Series};
use crate::report::Report;
use crate::stats::{self, median, summarize, Schedule};
use crate::Ctx;
use moche_cli::protocol;
use moche_core::{Moche, MocheError, PreferenceList};
use moche_sigproc::SpectralResidual;
use moche_stream::{FleetConfig, FleetPush, MonitorConfig, MonitorFleet};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// KS significance level of every workload.
pub const ALPHA: f64 = 0.05;
/// Daemon workers of `serve_drift`, and batch threads: one per core of the
/// 2-core box the benchmark was sized on.
pub const WORKERS: usize = 2;
/// Daemons started per run; `setup_s` is the median of their set-up times.
const SERVE_SETUPS: usize = 5;
/// `batch_explain` runs the one-window job (whose median wall time is
/// `setup_s`) before every this many timed jobs, and at least
/// `BATCH_SETUPS` times. Spread over the whole run, the set-up times see the
/// same host as the job times; thirty runs back to back saw half a second
/// of it, and their median moved with whatever the host was doing then.
const JOBS_PER_SETUP: usize = 8;
const BATCH_SETUPS: usize = 31;

/// Closed-loop batches outstanding at once. Deep enough that the daemon
/// always has the next batch buffered while the client waits on a barrier
/// reply.
const IN_FLIGHT: usize = 4;
/// `serve_ingest`: rounds (one observation per series) per batch.
const INGEST_BATCH_ROUNDS: u64 = 4;
/// `serve_ingest`: checkpoint cadence, in observations per shard. Sparse:
/// each shard checkpoints a handful of times in a run.
const CHECKPOINT_EVERY: u64 = 1_000_000;
/// `serve_drift`: rounds per warm-up batch.
const DRIFT_BATCH_ROUNDS: u64 = 64;
/// `serve_drift`: a tick sent this much after it was due means the run did
/// not deliver its schedule; each such tick counts as a failed operation.
const LATE_TICKS: u32 = 4;

fn mb(kb: u64) -> f64 {
    kb as f64 / 1024.0
}

/// `serve_ingest` runs one shard. With two workers, the connection
/// handler, both workers and the client oversubscribe the 2-core box and
/// the per-observation ring hand-off flips between a fast and a slow
/// regime from run to run (200k to 680k obs/s on one seed); one worker
/// behind a ring deep enough for everything in flight is steady.
pub const INGEST_WORKERS: usize = 1;
/// Per-shard ring of `serve_ingest`: holds every observation in flight
/// (`IN_FLIGHT` batches), so the handler never waits on a full ring.
const INGEST_RING: u64 = IN_FLIGHT as u64 * INGEST_BATCH_ROUNDS * Ingest::SERIES as u64;

/// The daemon arguments of `serve_ingest`.
fn ingest_args(checkpoint_dir: &Path) -> Vec<String> {
    vec![
        "--window".into(),
        Ingest::WINDOW.to_string(),
        "--alpha".into(),
        ALPHA.to_string(),
        "--workers".into(),
        INGEST_WORKERS.to_string(),
        "--ring".into(),
        INGEST_RING.to_string(),
        "--checkpoint-dir".into(),
        checkpoint_dir.display().to_string(),
        "--checkpoint-every".into(),
        CHECKPOINT_EVERY.to_string(),
    ]
}

/// The daemon arguments of `serve_drift` (explanations on, default queue).
fn drift_args() -> Vec<String> {
    vec![
        "--window".into(),
        Drift::WINDOW.to_string(),
        "--alpha".into(),
        ALPHA.to_string(),
        "--workers".into(),
        WORKERS.to_string(),
    ]
}

/// A daemon that has been spawned and warmed.
pub struct Warm {
    pub daemon: Daemon,
    pub client: crate::client::Client,
    /// Spawn until the warm-up barrier returned.
    pub setup_s: f64,
    pub rss_listen_kb: u64,
    pub rss_warm_kb: u64,
}

/// Spawns a daemon with `shards` workers and warms every series with 2w
/// round-robin rounds, `batch_rounds` rounds per closed-loop batch.
fn spawn_and_warm(
    moche: &Path,
    args: &[String],
    series: &[Series],
    window: usize,
    shards: usize,
    batch_rounds: u64,
    report: &mut Report,
) -> Result<Warm, String> {
    let daemon = Daemon::spawn(moche, args)?;
    let rss_listen_kb = stats::read_status(daemon.pid()).map_or(0, |m| m.rss_kb);
    let mut client = daemon.connect()?;
    let rounds = 2 * window as u64;
    let mut next = 0;
    let warm = closed_loop(&mut client, &barrier_ids(series, shards), IN_FLIGHT, |buf| {
        let end = (next + batch_rounds).min(rounds);
        for n in next..end {
            encode_round(series, n, buf);
        }
        let obs = (end - next) * series.len() as u64;
        next = end;
        obs
    })?;
    let setup_s = daemon.spawned.elapsed().as_secs_f64();
    check_barriers(&warm, rounds, report);
    let rss_warm_kb = stats::read_status(daemon.pid()).map_or(0, |m| m.rss_kb);
    Ok(Warm { daemon, client, setup_s, rss_listen_kb, rss_warm_kb })
}

/// Tallies a closed loop: every observation and barrier is an operation,
/// every refused reply a failure, and the last barrier must show every
/// round applied.
fn check_barriers(lp: &ClosedLoop, rounds: u64, report: &mut Report) {
    report.attempted += lp.obs() + lp.barriers.iter().map(|b| b.len() as u64).sum::<u64>();
    report.failed += lp.bad_replies;
    if let Some(last) = lp.barriers.last() {
        for reply in last {
            report.check("barrier series pushes", rounds, reply.pushes);
        }
    }
}

/// Starts `SERVE_SETUPS` daemons one after another, keeps the last, and
/// records the median set-up time.
fn setups(
    report: &mut Report,
    mut start: impl FnMut(&mut Report) -> Result<Warm, String>,
) -> Result<Warm, String> {
    let mut times = Vec::new();
    loop {
        let warm = start(report)?;
        times.push(warm.setup_s);
        if times.len() == SERVE_SETUPS {
            let s = summarize(&times).expect("at least one set-up");
            report.metric("setup_s", s.p50, "s", s.count);
            return Ok(warm);
        }
        drop(warm.client);
        warm.daemon.shutdown()?;
    }
}

/// Length of the slices `throughput_per_s` is measured over.
const SLICE: Duration = Duration::from_millis(500);

/// Observations applied per second in each [`SLICE`] of a closed loop. The
/// applied count between two barrier completions is taken to grow
/// linearly, so a slice is not credited in whole batches.
pub fn slice_rates(lp: &ClosedLoop) -> Vec<f64> {
    let (Some(first), Some(last)) = (lp.batches.first(), lp.batches.last()) else {
        return Vec::new();
    };
    let start = first.sent;
    let secs = |t: Instant| t.duration_since(start).as_secs_f64();
    // The applied-count curve: (time, observations applied by then).
    let mut curve = vec![(0.0, 0.0)];
    let mut applied = 0.0;
    for b in &lp.batches {
        applied += b.obs as f64;
        curve.push((secs(b.done), applied));
    }
    let at = |t: f64| {
        let i = curve.partition_point(|&(x, _)| x <= t).clamp(1, curve.len() - 1);
        let ((x0, y0), (x1, y1)) = (curve[i - 1], curve[i]);
        if x1 > x0 {
            y0 + (y1 - y0) * ((t - x0) / (x1 - x0)).clamp(0.0, 1.0)
        } else {
            y1
        }
    };
    let slice = SLICE.as_secs_f64();
    let slices = (secs(last.done) / slice) as usize;
    (0..slices).map(|j| (at((j + 1) as f64 * slice) - at(j as f64 * slice)) / slice).collect()
}

/// Closed-loop figures: observations applied per second (the median over
/// half-second slices) and batch latency (sent until applied).
fn closed_loop_metrics(lp: &ClosedLoop, report: &mut Report) {
    let rates = slice_rates(lp);
    if let Some(s) = summarize(&rates) {
        report.metric("throughput_per_s", s.p50, "1/s", s.count);
        let shown: Vec<String> = rates.iter().map(|r| format!("{:.0}k", r / 1e3)).collect();
        report.note(format!("obs/s per slice: {}", shown.join(" ")));
    }
    let latencies: Vec<f64> = lp.batches.iter().map(|b| stats::ms(b.done - b.sent)).collect();
    latency_metrics(&latencies, "batches", report);
}

/// The latency metric is the median. The 90th percentile and the highest
/// percentile with ten samples beyond it are reported alongside, with the
/// sample count, but not gated: on a shared machine they follow the
/// slowest stretch of the run.
fn latency_metrics(latencies_ms: &[f64], what: &str, report: &mut Report) {
    let Some(s) = summarize(latencies_ms) else { return };
    report.metric("latency_p50_ms", s.p50, "ms", s.count);
    let pct = |p| stats::percentile(latencies_ms, p).expect("non-empty");
    report.note(format!(
        "latency over {} {what}: p50 {:.3} p90 {:.3}, tail p{:.2} {:.3}, max {:.3} ms",
        s.count,
        s.p50,
        pct(90.0),
        s.tail_pct,
        s.tail,
        pct(100.0)
    ));
}

/// Queries every series in one pipelined burst.
fn query_all_series(
    client: &mut crate::client::Client,
    ids: impl Iterator<Item = u64>,
) -> Result<Vec<(u64, SeriesReply)>, String> {
    let ids: Vec<u64> = ids.collect();
    let mut buf = Vec::with_capacity(ids.len() * 13);
    for &id in &ids {
        buf.extend_from_slice(&protocol::encode_series(id));
    }
    client.send(&buf)?;
    ids.into_iter()
        .map(|id| {
            let body = crate::client::expect_reply(client.reply()?, protocol::op::SERIES)?;
            Ok((id, SeriesReply::parse(&body)))
        })
        .collect()
}

fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}

/// Starts one warmed `serve_ingest` daemon.
pub fn start_ingest(ctx: &Ctx, plan: &Ingest, report: &mut Report) -> Result<Warm, String> {
    let dir = fresh_dir(&ctx.work.join("checkpoints"))?;
    spawn_and_warm(
        &ctx.moche,
        &ingest_args(&dir),
        &plan.series,
        plan.window,
        INGEST_WORKERS,
        INGEST_BATCH_ROUNDS,
        report,
    )
}

/// Pushes rounds from `first` on for `seconds` in the closed loop; returns
/// the loop and the next round.
pub fn ingest_for(
    warm: &mut Warm,
    plan: &Ingest,
    first: u64,
    seconds: f64,
) -> Result<(ClosedLoop, u64), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut next = first;
    let lp = closed_loop(&mut warm.client, &plan.barrier_ids(INGEST_WORKERS), IN_FLIGHT, |buf| {
        if Instant::now() >= deadline {
            return 0;
        }
        for n in next..next + INGEST_BATCH_ROUNDS {
            plan.encode_round(n, buf);
        }
        next += INGEST_BATCH_ROUNDS;
        INGEST_BATCH_ROUNDS * plan.series.len() as u64
    })?;
    Ok((lp, next))
}

/// `serve_ingest`: closed loop of pipelined `OBS` frames over thousands of
/// stationary series; the oracle pins every series' push count and zero
/// alarms.
pub fn serve_ingest(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let plan = Ingest::new(ctx.seed);
    let mut warm = setups(report, |r| start_ingest(ctx, &plan, r))?;
    let (lp, rounds) = ingest_for(&mut warm, &plan, plan.warm_rounds(), ctx.seconds)?;
    check_barriers(&lp, rounds, report);
    closed_loop_metrics(&lp, report);
    let elapsed = lp.batches.last().map_or(0.0, |b| (b.done - lp.batches[0].sent).as_secs_f64());
    report.note(format!(
        "{} observations in {elapsed:.3}s ({:.0} obs/s overall)",
        lp.obs(),
        lp.obs() as f64 / elapsed.max(1e-9)
    ));

    // Oracle: every series holds exactly the rounds sent, and none alarmed.
    let status = warm.client.status()?;
    let sent = rounds * plan.series.len() as u64;
    report.check("STATUS.accepted", Some(sent), json_u64(&status, "accepted"));
    report.check("STATUS.alarms", Some(0), json_u64(&status, "alarms"));
    let skipped = json_u64(&status, "skipped_observations").unwrap_or(0);
    report.failed += skipped;
    for (id, reply) in query_all_series(&mut warm.client, plan.series.iter().map(|s| s.id))? {
        report.attempted += 1;
        report.check(
            &format!("series {id} reply"),
            (true, rounds, 0),
            (reply.found, reply.pushes, reply.alarms),
        );
    }
    let mem = stats::read_status(warm.daemon.pid()).ok_or("daemon status unreadable")?;
    report.metric("peak_rss_mb", mb(mem.hwm_kb), "MB", 1);
    report.note(format!(
        "RSS at listen {:.1} MB, after warm {:.1} MB ({:.0} B per series)",
        mb(warm.rss_listen_kb),
        mb(warm.rss_warm_kb),
        (warm.rss_warm_kb.saturating_sub(warm.rss_listen_kb) * 1024) as f64
            / plan.series.len() as f64
    ));
    drop(warm.client);
    let lines = warm.daemon.shutdown()?;
    let alarms = lines.iter().filter(|l| l.text.starts_with("ALARM ")).count();
    report.check("ALARM lines", 0, alarms);
    let checkpoints = lines.iter().filter(|l| l.text.starts_with("CHECKPOINT ")).count();
    let failed_checkpoints = lines.iter().filter(|l| l.text.contains(" FAILED")).count();
    report.failed += failed_checkpoints as u64;
    report.note(format!("{checkpoints} checkpoint(s) logged, {failed_checkpoints} failed"));
    Ok(())
}

/// One `ALARM` or `EXPLAIN` log line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEvent {
    pub series: u64,
    pub push: u64,
    /// `EXPLAIN`: the explanation size, if one was computed. `ALARM`: unused.
    pub k: Option<usize>,
    /// `ALARM`: the explanation work was shed.
    pub shed: bool,
}

fn field<T: std::str::FromStr>(text: &str, key: &str) -> Option<T> {
    text.split_whitespace().find_map(|tok| tok.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// Parses an `ALARM series=S push=P …` or `EXPLAIN series=S push=P [k=K …]`
/// line; `None` for every other line.
fn parse_event(text: &str, kind: &str) -> Option<LogEvent> {
    let rest = text.strip_prefix(kind)?.strip_prefix(' ')?;
    Some(LogEvent {
        series: field(rest, "series")?,
        push: field(rest, "push")?,
        k: field(rest, "k"),
        shed: rest.contains("explain=shed"),
    })
}

/// Starts one warmed `serve_drift` daemon.
pub fn start_drift(ctx: &Ctx, plan: &Drift, report: &mut Report) -> Result<Warm, String> {
    spawn_and_warm(
        &ctx.moche,
        &drift_args(),
        &plan.series,
        plan.window,
        WORKERS,
        DRIFT_BATCH_ROUNDS,
        report,
    )
}

/// What an open-loop `serve_drift` phase observed.
pub struct OpenLoop {
    pub schedule: Schedule,
    pub ticks: u64,
    pub lateness_ms: Vec<f64>,
    /// When the barrier after the last tick came back.
    pub applied: Instant,
    pub lines: Vec<Line>,
    pub status: String,
    pub peak_rss_kb: u64,
}

impl OpenLoop {
    pub fn alarms(&self) -> impl Iterator<Item = (&Line, LogEvent)> {
        self.lines.iter().filter_map(|l| parse_event(&l.text, "ALARM").map(|e| (l, e)))
    }

    pub fn explains(&self) -> impl Iterator<Item = (&Line, LogEvent)> {
        self.lines.iter().filter_map(|l| parse_event(&l.text, "EXPLAIN").map(|e| (l, e)))
    }

    /// Alarm-to-explanation latencies, each from the alarm observation's
    /// due time to the moment its `EXPLAIN` line was read.
    pub fn latencies_ms(&self, plan: &Drift) -> Vec<f64> {
        self.explains()
            .filter_map(|(line, e)| {
                let tick = plan.tick_of(e.push.checked_sub(1)?)?;
                Some(self.schedule.latency_ms(tick, line.at))
            })
            .collect()
    }
}

/// Sends ticks on the fixed schedule for `seconds`, then waits until every
/// alarm is explained or shed and reads the fleet counters.
pub fn drift_for(warm: &mut Warm, plan: &Drift, seconds: f64) -> Result<OpenLoop, String> {
    let ticks = ((seconds / plan.tick.as_secs_f64()).ceil() as u64).max(1);
    let schedule = Schedule { start: Instant::now() + plan.tick, interval: plan.tick };
    let mut lateness_ms = Vec::with_capacity(ticks as usize);
    let mut buf = Vec::new();
    for k in 0..ticks {
        buf.clear();
        plan.encode_tick(k, &mut buf);
        let due = schedule.due(k);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        lateness_ms.push(schedule.lateness_ms(k, Instant::now()));
        warm.client.send(&buf)?;
    }
    for id in plan.barrier_ids(WORKERS) {
        warm.client.series(id)?;
    }
    let applied = Instant::now();
    // Explanations trail their alarms by the idle drain; wait them out.
    let mut lines = warm.daemon.take_lines();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let alarms: BTreeSet<(u64, u64)> = lines
            .iter()
            .filter_map(|l| parse_event(&l.text, "ALARM"))
            .filter(|e| !e.shed)
            .map(|e| (e.series, e.push))
            .collect();
        let explained = lines.iter().filter_map(|l| parse_event(&l.text, "EXPLAIN")).count();
        if explained >= alarms.len() || Instant::now() >= deadline {
            break;
        }
        if let Some(line) = warm.daemon.next_line(Duration::from_millis(200)) {
            lines.push(line);
        }
    }
    let status = warm.client.status()?;
    let peak_rss_kb = stats::read_status(warm.daemon.pid()).map_or(0, |m| m.hwm_kb);
    Ok(OpenLoop { schedule, ticks, lateness_ms, applied, lines, status, peak_rss_kb })
}

/// The in-process oracle for `serve_drift`: a `MonitorFleet` fed the same
/// per-series observations, with an unbounded explain queue drained after
/// every alarm. Maps `(series, push)` of each alarm to its explanation size.
fn drift_oracle(plan: &Drift, ticks: u64) -> BTreeMap<(u64, u64), Option<usize>> {
    let mut cfg = FleetConfig::new(WORKERS, MonitorConfig::new(plan.window, ALPHA));
    cfg.explain_queue = usize::MAX;
    let mut fleet = MonitorFleet::new(cfg).expect("valid fleet config");
    let mut expected = BTreeMap::new();
    let mut push = |fleet: &mut MonitorFleet, id: u64, value: f64| {
        if let Ok(FleetPush::Alarm { .. }) = fleet.push(id, value) {
            fleet.drain_explains(usize::MAX, |a| {
                expected.insert((a.series, a.at_push), a.explanation.map(|e| e.indices().len()));
            });
        }
    };
    for n in 0..plan.warm_rounds() {
        for s in &plan.series {
            push(&mut fleet, s.id, s.value(n));
        }
    }
    for k in 0..ticks {
        for s in &plan.series {
            for n in plan.tick_pushes(k) {
                push(&mut fleet, s.id, s.value(n));
            }
        }
    }
    expected
}

/// Checks the daemon's alarms and explanations against the oracle.
fn check_drift(
    run: &OpenLoop,
    expected: &BTreeMap<(u64, u64), Option<usize>>,
    report: &mut Report,
) {
    let alarms: BTreeMap<(u64, u64), bool> =
        run.alarms().map(|(_, e)| ((e.series, e.push), e.shed)).collect();
    let explains: BTreeMap<(u64, u64), Option<usize>> =
        run.explains().map(|(_, e)| ((e.series, e.push), e.k)).collect();
    report.attempted += expected.len() as u64;
    for (key, k) in expected {
        match (alarms.get(key), explains.get(key)) {
            (None, _) => report.mismatch(format!("alarm {key:?} missing from the daemon log")),
            (Some(true), _) => {} // shed: counted, never explained
            (Some(false), None) => report.mismatch(format!("alarm {key:?} never explained")),
            (Some(false), Some(got)) => report.check(&format!("alarm {key:?} k"), *k, *got),
        }
    }
    for key in alarms.keys().filter(|key| !expected.contains_key(key)) {
        report.mismatch(format!("alarm {key:?} is not in the oracle"));
    }
    let status_alarms = json_u64(&run.status, "alarms").unwrap_or(0);
    report.check("STATUS.alarms", expected.len() as u64, status_alarms);
    let explained = json_u64(&run.status, "explained").unwrap_or(0);
    let shed = json_u64(&run.status, "explain_dropped").unwrap_or(0);
    report.check("STATUS.explained + explain_dropped", status_alarms, explained + shed);
}

/// `serve_drift`: an open loop of fixed ticks over a few hundred
/// level-flipping series, explanations on; the oracle replays the fleet
/// in-process.
pub fn serve_drift(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let plan = Drift::new(ctx.seed);
    let mut warm = setups(report, |r| start_drift(ctx, &plan, r))?;
    let mut run = drift_for(&mut warm, &plan, ctx.seconds)?;
    drop(warm.client);
    run.lines.extend(warm.daemon.shutdown()?);

    let sent = run.ticks * plan.per_tick * plan.series.len() as u64;
    let span = run.applied.duration_since(run.schedule.start).as_secs_f64();
    report.attempted += sent;
    report.metric("throughput_per_s", sent as f64 / span, "1/s", run.ticks as usize);
    latency_metrics(&run.latencies_ms(&plan), "alarms", report);
    report.metric("peak_rss_mb", mb(run.peak_rss_kb), "MB", 1);
    let late = Duration::from_secs_f64(plan.tick.as_secs_f64() * f64::from(LATE_TICKS));
    let late_ticks = run.lateness_ms.iter().filter(|&&l| l > stats::ms(late)).count();
    report.failed += late_ticks as u64;
    let alarms = json_u64(&run.status, "alarms").unwrap_or(0);
    let shed = json_u64(&run.status, "explain_dropped").unwrap_or(0);
    report.note(format!(
        "{alarms} alarms, {} explained, explain_shed_ratio {:.4}, loadgen lag p99 {:.3} ms, {late_ticks} late tick(s)",
        json_u64(&run.status, "explained").unwrap_or(0),
        shed as f64 / alarms.max(1) as f64,
        stats::percentile(&run.lateness_ms, 99.0).unwrap_or(0.0),
    ));
    let expected = drift_oracle(&plan, run.ticks);
    check_drift(&run, &expected, report);
    Ok(())
}

/// The files one `batch_explain` run works on.
struct BatchFiles {
    pub inputs: BatchInputs,
    pub reference: PathBuf,
    pub windows: Vec<PathBuf>,
    /// Window 0 of the first file, alone.
    pub one: PathBuf,
}

fn write_batch_files(ctx: &Ctx) -> Result<BatchFiles, String> {
    let dir = fresh_dir(&ctx.work.join("batch"))?;
    let inputs = BatchInputs::new(ctx.seed);
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok::<_, String>(path)
    };
    let reference = write("reference.txt", crate::gen::values_text(&inputs.reference))?;
    let one = write("one.csv", crate::gen::windows_text(&inputs.files[0][..1]))?;
    let windows = inputs
        .files
        .iter()
        .enumerate()
        .map(|(f, file)| write(&format!("windows-{f}.csv"), crate::gen::windows_text(file)))
        .collect::<Result<_, _>>()?;
    Ok(BatchFiles { inputs, reference, windows, one })
}

/// One finished `moche batch` invocation.
struct BatchJob {
    pub wall_s: f64,
    pub stdout: String,
    pub peak_rss_kb: u64,
}

/// Runs `moche batch REF WINDOWS --threads 2 --format csv`, sampling the
/// child's `VmHWM` while it runs.
fn run_batch(moche: &Path, reference: &Path, windows: &Path) -> Result<BatchJob, String> {
    let started = Instant::now();
    let child = Command::new(moche)
        .arg("batch")
        .arg(reference)
        .arg(windows)
        .args(["--alpha", &ALPHA.to_string(), "--threads", &WORKERS.to_string(), "--format", "csv"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn moche batch: {e}"))?;
    let pid = child.id();
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut peak = 0;
            while !stop.load(Ordering::SeqCst) {
                if let Some(mem) = stats::read_status(pid) {
                    peak = peak.max(mem.hwm_kb);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            peak
        })
    };
    let output = child.wait_with_output();
    let wall_s = started.elapsed().as_secs_f64();
    stop.store(true, Ordering::SeqCst);
    let peak_rss_kb = sampler.join().unwrap_or(0);
    let output = output.map_err(|e| format!("moche batch: {e}"))?;
    if !output.status.success() {
        return Err(format!("moche batch exited with {}", output.status));
    }
    Ok(BatchJob {
        wall_s,
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
        peak_rss_kb,
    })
}

/// The selected indices per window of a `--format csv` batch output, plus
/// every `#` comment that reports an error.
fn parse_batch_csv(text: &str) -> (BTreeMap<usize, Vec<usize>>, Vec<String>) {
    let mut rows: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut errors = Vec::new();
    for line in text.lines().skip(1) {
        if let Some(comment) = line.strip_prefix('#') {
            if comment.contains("error") {
                errors.push(line.to_string());
            }
            continue;
        }
        let mut parts = line.split(',');
        match (parts.next().and_then(|w| w.parse().ok()), parts.next().and_then(|i| i.parse().ok()))
        {
            (Some(w), Some(i)) => rows.entry(w).or_default().push(i),
            _ => errors.push(format!("unparsable row: {line}")),
        }
    }
    (rows, errors)
}

/// The in-process oracle: `Moche` with the Spectral-Residual preference,
/// exactly what `moche batch --preference sr` promises. Passing windows
/// select nothing.
fn batch_oracle(reference: &[f64], window: &[f64]) -> Result<Vec<usize>, String> {
    let moche = Moche::new(ALPHA).map_err(|e| e.to_string())?;
    let pref = PreferenceList::from_scores_desc(&SpectralResidual::default().scores(window))
        .map_err(|e| e.to_string())?;
    match moche.explain(reference, window, &pref) {
        Ok(e) => Ok(e.indices().to_vec()),
        Err(MocheError::TestAlreadyPasses { .. }) => Ok(Vec::new()),
        Err(e) => Err(e.to_string()),
    }
}

/// Checks one batch output against the oracle for `windows`.
fn check_batch_output(what: &str, stdout: &str, expected: &[Vec<usize>], report: &mut Report) {
    let (rows, errors) = parse_batch_csv(stdout);
    for e in errors {
        report.mismatch(format!("{what}: {e}"));
    }
    for (w, indices) in expected.iter().enumerate() {
        let got = rows.get(&w).cloned().unwrap_or_default();
        report.check(&format!("{what} window {w} indices"), indices, &got);
    }
    for w in rows.keys().filter(|&&w| w >= expected.len()) {
        report.mismatch(format!("{what}: rows for unknown window {w}"));
    }
}

/// `batch_explain`: repeated `moche batch` jobs over the generated files;
/// every distinct output is checked against in-process `Moche`.
pub fn batch_explain(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let files = write_batch_files(ctx)?;
    let reference = &files.inputs.reference;

    let mut setup = Vec::new();
    let mut one_output = String::new();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut jobs: Vec<(usize, BatchJob)> = Vec::new();
    loop {
        let timing = Instant::now() < deadline || jobs.len() <= crate::stats::TAIL_BEYOND;
        if !timing && setup.len() >= BATCH_SETUPS {
            break;
        }
        if !timing || jobs.len().is_multiple_of(JOBS_PER_SETUP) {
            let job = run_batch(&ctx.moche, &files.reference, &files.one)?;
            setup.push(job.wall_s);
            one_output = job.stdout;
        }
        if timing {
            let f = jobs.len() % files.windows.len();
            jobs.push((f, run_batch(&ctx.moche, &files.reference, &files.windows[f])?));
        }
    }
    let s = summarize(&setup).expect("set-up runs");
    report.metric("setup_s", s.p50, "s", s.count);

    let per_job = files.inputs.files[0].len() as f64;
    let walls: Vec<f64> = jobs.iter().map(|(_, j)| j.wall_s).collect();
    let rates: Vec<f64> = walls.iter().map(|w| per_job / w).collect();
    let s = summarize(&rates).expect("jobs ran");
    report.metric("throughput_per_s", s.p50, "1/s", s.count);
    latency_metrics(&walls.iter().map(|w| w * 1e3).collect::<Vec<_>>(), "jobs", report);
    let peaks: Vec<f64> = jobs.iter().map(|(_, j)| mb(j.peak_rss_kb)).collect();
    report.metric("peak_rss_mb", median(&peaks).expect("jobs ran"), "MB", peaks.len());

    // Oracle: each distinct file's first output against in-process Moche,
    // and every repeat byte-identical to the first.
    let expected: Vec<Vec<Vec<usize>>> = files
        .inputs
        .files
        .iter()
        .map(|file| file.iter().map(|w| batch_oracle(reference, w)).collect::<Result<_, _>>())
        .collect::<Result<_, _>>()?;
    check_batch_output("one-window job", &one_output, &expected[0][..1], report);
    let mut first: BTreeMap<usize, &str> = BTreeMap::new();
    for (f, job) in &jobs {
        report.attempted += per_job as u64;
        match first.get(f) {
            None => {
                check_batch_output(&format!("windows-{f}"), &job.stdout, &expected[*f], report);
                first.insert(*f, &job.stdout);
            }
            Some(text) => {
                let rows = |t: &str| {
                    t.lines().filter(|l| !l.starts_with('#')).collect::<Vec<_>>().join("\n")
                };
                if rows(text) != rows(&job.stdout) {
                    report.mismatch(format!("windows-{f}: a repeated job printed different rows"));
                }
            }
        }
    }
    let passing = expected.iter().flatten().filter(|i| i.is_empty()).count();
    let explained: Vec<f64> =
        expected.iter().flatten().filter(|i| !i.is_empty()).map(|i| i.len() as f64).collect();
    report.note(format!(
        "{} distinct windows: {passing} pass, {} explained (mean k {:.1})",
        expected.iter().map(Vec::len).sum::<usize>(),
        explained.len(),
        stats::mean(&explained).unwrap_or(0.0)
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_rates_spread_each_batch_over_its_interval() {
        let start = Instant::now();
        let at = |ms: u64| start + Duration::from_millis(ms);
        let batch =
            |done: u64| crate::client::BatchTiming { sent: start, done: at(done), obs: 1000 };
        let lp =
            ClosedLoop { batches: vec![batch(250), batch(500), batch(1250)], ..Default::default() };
        // 2000 observations by 500 ms, then 1000 more spread over 750 ms.
        let rates = slice_rates(&lp);
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 4000.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 1000.0 / 0.75).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn log_events_parse() {
        let alarm = parse_event("ALARM series=42 push=2061 stat=0.1 threshold=0.06", "ALARM");
        assert_eq!(alarm, Some(LogEvent { series: 42, push: 2061, k: None, shed: false }));
        let shed = parse_event("ALARM series=4 push=9 stat=1 threshold=0.5 explain=shed", "ALARM");
        assert!(shed.unwrap().shed);
        let explain = parse_event("EXPLAIN series=42 push=2061 k=37 after=0.05", "EXPLAIN");
        assert_eq!(explain, Some(LogEvent { series: 42, push: 2061, k: Some(37), shed: false }));
        assert_eq!(parse_event("CHECKPOINT shard=0 series=3 accepted=9", "ALARM"), None);
        assert_eq!(parse_event("EXPLAIN series=1 push=2", "ALARM"), None);
    }

    #[test]
    fn batch_csv_parses_rows_and_surfaces_errors() {
        let text = "window,index,value\n# threads: 2\n0,5,1.5\n0,2,3\n2,7,0.5\n\
                    # window 1: error: boom\n# health: 0 worker panic(s)\n";
        let (rows, errors) = parse_batch_csv(text);
        assert_eq!(rows.get(&0), Some(&vec![5, 2]));
        assert_eq!(rows.get(&2), Some(&vec![7]));
        assert_eq!(errors, vec!["# window 1: error: boom".to_string()]);
    }

    #[test]
    fn drift_oracle_sees_the_level_flips() {
        let plan = Drift::sized(9, 4, 40);
        let expected = drift_oracle(&plan, 60);
        assert!(!expected.is_empty());
        assert!(expected.values().all(|k| k.is_some_and(|k| k > 0)));
    }
}
