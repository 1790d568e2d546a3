//! Command implementations: each writes its report into a caller-supplied
//! [`Write`] sink (locked stdout in production, a byte buffer in tests), so
//! the logic is unit-testable without spawning processes — and streaming
//! commands print results as they are delivered instead of accumulating a
//! report `String` whose size grows with the stream.

use crate::args::{Command, OutputFormat, PreferenceSource};
use crate::io::{
    parse_point_window_line_into, parse_window_line_into, read_points, read_values,
    read_values_and_scores, CliError, WindowReader,
};
use moche_core::ks::asymptotic_p_value;
use moche_core::{
    Moche, MocheError, PreferenceList, ReferenceIndex, StreamMode, StreamResult, StreamSummary,
    StreamingBatchExplainer, WindowReport,
};
use moche_multidim::{Explanation2d, Point2, RankIndex2d, Stream2dExplainer, Stream2dResult};
use moche_sigproc::{SaliencyScratch, SpectralResidual};
use moche_stream::{DriftMonitor, MonitorConfig, MonitorEvent, MonitorSnapshot};
use std::cell::RefCell;
use std::collections::HashSet;
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Fault-tolerance bookkeeping for one run: everything that went wrong but
/// was survived, plus the crash-safety work done. Surfaced in the text
/// summaries and as a `# health:` comment in CSV output, so an operator
/// can tell a pristine run from one that limped through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// Windows whose worker panicked (caught; only that window was lost).
    pub worker_panics: usize,
    /// Observations the monitor rejected and skipped (e.g. non-finite).
    pub skipped_observations: usize,
    /// Windows/alarms explained under a degraded (identity) preference
    /// because scoring was not possible.
    pub degraded_preferences: usize,
    /// Snapshots written by `--checkpoint`.
    pub checkpoints_written: usize,
    /// Connections the serve daemon evicted for cause (idle timeout,
    /// mid-frame stall, unread replies, or a spent error budget). Always
    /// zero outside `moche serve`.
    pub evicted_connections: usize,
    /// Connections the serve daemon turned away with a `BUSY` reply at
    /// `--max-connections`. Always zero outside `moche serve`.
    pub busy_rejections: usize,
}

impl HealthReport {
    pub(crate) fn is_clean(&self) -> bool {
        // Evictions and busy rejections are deliberately absent here: a
        // daemon defending itself from misbehaving clients is healthy.
        self.worker_panics == 0 && self.skipped_observations == 0 && self.degraded_preferences == 0
    }

    /// The one-line text rendering (also used, `#`-prefixed, in CSV). The
    /// connection counters are appended only when the run had any, so the
    /// non-daemon commands keep their familiar four-field line.
    pub(crate) fn summary(&self) -> String {
        let mut line = format!(
            "health: {} worker panic(s), {} skipped observation(s), \
             {} degraded preference(s), {} checkpoint(s) written",
            self.worker_panics,
            self.skipped_observations,
            self.degraded_preferences,
            self.checkpoints_written,
        );
        if self.evicted_connections > 0 || self.busy_rejections > 0 {
            line.push_str(&format!(
                ", {} evicted connection(s), {} busy rejection(s)",
                self.evicted_connections, self.busy_rejections
            ));
        }
        if !self.is_clean() {
            line.push_str(" [DEGRADED]");
        }
        line
    }
}

/// What a successfully executed command reports back to `main` beyond its
/// printed output: enough to fold per-window failures into the process
/// exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStatus {
    /// Windows that failed with a real error (batch modes; passing windows
    /// are not errors).
    pub window_errors: usize,
    /// Windows that produced an explanation or a size.
    pub windows_explained: usize,
    /// Fault-tolerance bookkeeping (panics survived, observations skipped,
    /// checkpoints written).
    pub health: HealthReport,
}

impl RunStatus {
    /// The process exit code: nonzero when at least one window failed with
    /// a real error and **no** window produced an explanation (or size) —
    /// a run whose output would otherwise be indistinguishable from
    /// success in a pipeline. Windows that merely pass the KS test are not
    /// errors, but they do not count as explained either: a stream of
    /// passing windows plus one hard error still reports failure, because
    /// nothing was produced and something went wrong.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.window_errors > 0 && self.windows_explained == 0)
    }
}

/// Executes a parsed command, writing the report to `out` (streamed, for
/// the streaming commands) and returning the run's exit-code summary.
///
/// # Errors
///
/// Any [`CliError`]: bad usage, unreadable/unparsable input, a library
/// error, or a failed write to `out`.
pub fn run(command: Command, out: &mut dyn Write) -> Result<RunStatus, CliError> {
    match command {
        Command::Help => {
            write!(out, "{}", crate::args::USAGE)?;
            Ok(RunStatus::default())
        }
        Command::Test { reference, test, alpha } => {
            let r = read_values(&reference)?;
            let t = read_values(&test)?;
            run_test(&r, &t, alpha, out)
        }
        Command::Size { reference, test, alpha } => {
            let r = read_values(&reference)?;
            let t = read_values(&test)?;
            run_size(&r, &t, alpha, out)
        }
        Command::Explain { reference, test, alpha, preference, format } => {
            let r = read_values(&reference)?;
            let (t, scores) = read_values_and_scores(&test)?;
            run_explain(&r, &t, scores, alpha, &preference, format, out)
        }
        Command::Batch { reference, windows, alpha, threads, preference, format, size_only } => {
            let r = read_values(&reference)?;
            let opts = BatchOptions { alpha, threads, preference: &preference, format };
            run_batch_stream(&r, &windows, &opts, size_only, out)
        }
        Command::Batch2d { reference, windows, alpha, threads, format } => {
            let r = read_points(&reference)?;
            run_batch_stream_2d(&r, &windows, alpha, threads, format, out)
        }
        Command::Monitor {
            series,
            window,
            alpha,
            explain,
            size_only,
            checkpoint,
            checkpoint_every,
            resume,
        } => {
            let values = read_values(&series)?;
            let opts = MonitorOptions {
                window,
                alpha,
                explain,
                size_only,
                checkpoint: checkpoint.as_deref(),
                checkpoint_every,
                resume: resume.as_deref(),
            };
            run_monitor(&values, &opts, out)
        }
        Command::Serve(opts) => crate::serve::run_serve(&opts, out),
    }
}

fn run_test(r: &[f64], t: &[f64], alpha: f64, out: &mut dyn Write) -> Result<RunStatus, CliError> {
    let moche = Moche::new(alpha)?;
    let outcome = moche.test(r, t)?;
    let p = asymptotic_p_value(outcome.statistic, outcome.n, outcome.m);
    writeln!(out, "n = {}, m = {}, alpha = {alpha}", outcome.n, outcome.m)?;
    writeln!(
        out,
        "D = {:.6}, threshold = {:.6}, asymptotic p-value = {:.4e}",
        outcome.statistic, outcome.threshold, p
    )?;
    writeln!(
        out,
        "verdict: {}",
        if outcome.rejected {
            "FAILED (distributions differ)"
        } else {
            "passed (no significant difference)"
        }
    )?;
    Ok(RunStatus::default())
}

fn run_size(r: &[f64], t: &[f64], alpha: f64, out: &mut dyn Write) -> Result<RunStatus, CliError> {
    let moche = Moche::new(alpha)?;
    let s = moche.explanation_size(r, t)?;
    writeln!(out, "explanation size k = {}", s.k)?;
    writeln!(
        out,
        "phase-1 lower bound k_hat = {} (estimation error {})",
        s.k_hat,
        s.estimation_error()
    )?;
    writeln!(
        out,
        "checks: {} binary-search (Theorem 2) + {} exact (Theorem 1)",
        s.theorem2_checks, s.theorem1_checks
    )?;
    Ok(RunStatus::default())
}

thread_local! {
    /// One Spectral Residual scratch and score buffer per thread, so a
    /// `moche batch` worker recycles them across its windows instead of
    /// allocating both (and rebuilding the FFT twiddle table) per window.
    static SR_SCRATCH: RefCell<(SaliencyScratch, Vec<f64>)> = RefCell::default();
}

/// Derives one window's preference list from sources that need only the
/// window values — the per-window score work `moche batch` runs *inside*
/// the worker threads (see [`moche_core::WindowPreferences::Scored`]). A
/// window SR cannot score (too short, non-finite, or overflowing the
/// transform) is ranked in identity order, and the returned flag says the
/// preference is degraded.
///
/// # Panics
///
/// Panics on the file-backed sources, which the batch argument parser
/// rejects up front.
fn window_preference(
    t: &[f64],
    source: &PreferenceSource,
) -> Result<(PreferenceList, bool), MocheError> {
    let list = match source {
        PreferenceSource::SpectralResidual => {
            // SR panics on non-finite input (the explain call then reports
            // the NonFiniteValue error properly) and overflows on extreme
            // finite input; either way the window falls back to identity.
            if t.len() >= 4 && t.iter().all(|v| v.is_finite()) {
                let scored = SR_SCRATCH.with_borrow_mut(|(scratch, scores)| {
                    SpectralResidual::default()
                        .scores_into(t, scratch, scores)
                        .map(|()| PreferenceList::from_scores_desc(scores))
                });
                if let Ok(list) = scored {
                    return Ok((list?, false));
                }
            }
            return Ok((PreferenceList::identity(t.len()), true));
        }
        PreferenceSource::ValueDesc => PreferenceList::from_scores_desc(t)?,
        PreferenceSource::ValueAsc => PreferenceList::from_scores_asc(t)?,
        PreferenceSource::Identity => PreferenceList::identity(t.len()),
        PreferenceSource::ScoreColumn | PreferenceSource::ScoreFile(_) => {
            // lint:allow(panic): parse() maps these sources to per-window
            // score columns/files before any command runs; reaching here is
            // a parser bug, not an input condition.
            unreachable!("the batch parser rejects file-backed preference sources")
        }
    };
    Ok((list, false))
}

fn build_preference(
    t: &[f64],
    scores_column: Option<Vec<f64>>,
    source: &PreferenceSource,
) -> Result<(PreferenceList, bool), CliError> {
    let list = match source {
        PreferenceSource::SpectralResidual
        | PreferenceSource::ValueDesc
        | PreferenceSource::ValueAsc
        | PreferenceSource::Identity => return Ok(window_preference(t, source)?),
        PreferenceSource::ScoreColumn => {
            let scores = scores_column.ok_or_else(|| {
                CliError::Usage(
                    "--preference scores requires a 'value,score' second column in the \
                     test file"
                        .into(),
                )
            })?;
            PreferenceList::from_scores_desc(&scores)?
        }
        PreferenceSource::ScoreFile(path) => {
            let scores = read_values(path)?;
            if scores.len() != t.len() {
                return Err(CliError::Usage(format!(
                    "score file has {} entries but the test set has {}",
                    scores.len(),
                    t.len()
                )));
            }
            PreferenceList::from_scores_desc(&scores)?
        }
    };
    Ok((list, false))
}

fn run_explain(
    r: &[f64],
    t: &[f64],
    scores_column: Option<Vec<f64>>,
    alpha: f64,
    source: &PreferenceSource,
    format: OutputFormat,
    out: &mut dyn Write,
) -> Result<RunStatus, CliError> {
    let moche = Moche::new(alpha)?;
    let (preference, degraded) = build_preference(t, scores_column, source)?;
    let e = moche.explain(r, t, &preference)?;
    let health =
        HealthReport { degraded_preferences: usize::from(degraded), ..HealthReport::default() };

    match format {
        OutputFormat::Csv => {
            writeln!(out, "index,value")?;
            for (&i, &v) in e.indices().iter().zip(e.values()) {
                writeln!(out, "{i},{v}")?;
            }
        }
        OutputFormat::Text => {
            writeln!(
                out,
                "failed KS test: D = {:.6} > threshold {:.6} (n = {}, m = {})",
                e.outcome_before.statistic, e.outcome_before.threshold, e.n, e.m
            )?;
            writeln!(
                out,
                "most comprehensible explanation: {} point(s) ({:.2}% of the test set), \
                 k_hat = {}",
                e.size(),
                100.0 * e.removed_fraction(),
                e.k_hat()
            )?;
            writeln!(
                out,
                "after removal: D = {:.6} <= threshold {:.6} -> passes",
                e.outcome_after.statistic, e.outcome_after.threshold
            )?;
            writeln!(out, "\nindex  value")?;
            for (&i, &v) in e.indices().iter().zip(e.values()) {
                writeln!(out, "{i:>5}  {v}")?;
            }
        }
    }
    // A clean run keeps its familiar output; a degraded one says so.
    if !health.is_clean() {
        let prefix = if format == OutputFormat::Csv { "# " } else { "" };
        writeln!(out, "{prefix}{}", health.summary())?;
    }
    Ok(RunStatus { window_errors: 0, windows_explained: 1, health })
}

/// Renders the requested thread cap for the summary line.
fn requested_threads(threads: usize) -> String {
    if threads == 0 {
        "all cores".to_string()
    } else {
        threads.to_string()
    }
}

/// The flags of `moche batch`.
struct BatchOptions<'a> {
    alpha: f64,
    threads: usize,
    preference: &'a PreferenceSource,
    format: OutputFormat,
}

/// Renders one delivered window result (see [`run_batch_stream`]).
fn write_stream_result(
    out: &mut dyn Write,
    format: OutputFormat,
    res: &StreamResult,
) -> std::io::Result<()> {
    let w = res.window;
    match (format, &res.result) {
        (OutputFormat::Csv, Ok(WindowReport::Explained(e))) => {
            for (&i, &v) in e.indices().iter().zip(e.values()) {
                writeln!(out, "{w},{i},{v}")?;
            }
            Ok(())
        }
        (OutputFormat::Csv, Ok(WindowReport::Size(s))) => {
            writeln!(out, "{w},{},{}", s.k, s.k_hat)
        }
        (OutputFormat::Text, Ok(WindowReport::Explained(e))) => {
            writeln!(
                out,
                "window {w}: k = {} ({:.1}% of {} points), indices {:?}",
                e.size(),
                100.0 * e.removed_fraction(),
                e.m,
                e.indices()
            )
        }
        (OutputFormat::Text, Ok(WindowReport::Size(s))) => {
            writeln!(
                out,
                "window {w}: k = {} (k_hat = {}, estimation error {})",
                s.k,
                s.k_hat,
                s.estimation_error()
            )
        }
        (OutputFormat::Csv, Err(MocheError::TestAlreadyPasses { .. })) => Ok(()),
        (OutputFormat::Text, Err(MocheError::TestAlreadyPasses { .. })) => {
            writeln!(out, "window {w}: passes (nothing to explain)")
        }
        (OutputFormat::Csv, Err(e)) => writeln!(out, "# window {w}: error: {e}"),
        (OutputFormat::Text, Err(e)) => writeln!(out, "window {w}: error: {e}"),
    }
}

/// `moche batch`: windows are read lazily into recycled buffers and fed
/// through the bounded-memory [`StreamingBatchExplainer`] over an indexed
/// reference; each result is **printed as it is delivered** (in window
/// order) and its output buffers are reclaimed, so memory stays constant
/// however long the windows file is. `--size-only` runs Phase 1 alone.
fn run_batch_stream(
    r: &[f64],
    windows: &Path,
    opts: &BatchOptions<'_>,
    size_only: bool,
    out: &mut dyn Write,
) -> Result<RunStatus, CliError> {
    let index = ReferenceIndex::new(r)?;
    let mode = if size_only { StreamMode::SizeOnly } else { StreamMode::Explain };
    let streamer = StreamingBatchExplainer::new(opts.alpha)?.threads(opts.threads).mode(mode);
    let mut reader = WindowReader::open(windows, parse_window_line_into)?;
    // Windows scored under a degraded preference, by id, until their result
    // is delivered. Only an explained window counts as degraded (the rule
    // of `HealthReport` and the monitor), and every delivery removes its
    // id, so the set holds at most the windows in flight.
    let degraded_ids = Mutex::new(HashSet::new());
    let score = |id: usize, w: &[f64]| {
        let (list, degraded) = window_preference(w, opts.preference)?;
        if degraded {
            degraded_ids.lock().unwrap_or_else(PoisonError::into_inner).insert(id);
        }
        Ok(list)
    };
    let mut degraded = 0usize;

    if opts.format == OutputFormat::Csv {
        writeln!(out, "{}", if size_only { "window,k,k_hat" } else { "window,index,value" })?;
    }
    let started = Instant::now();
    // The callback cannot propagate `?`: keep the first write error and go
    // quiet for the rest of the run.
    let mut written = Ok(());
    let summary = streamer.explain_source(
        &index,
        |buf: &mut Vec<f64>| reader.fill(buf),
        Some(&score),
        |res: &StreamResult| {
            let was_degraded =
                degraded_ids.lock().unwrap_or_else(PoisonError::into_inner).remove(&res.window);
            if was_degraded && matches!(res.result, Ok(WindowReport::Explained(_))) {
                degraded += 1;
            }
            if written.is_ok() {
                written = write_stream_result(out, opts.format, res);
            }
        },
    );
    let elapsed = started.elapsed();
    written?;
    // A malformed line ended the run early: fail after the windows already
    // printed, so a truncated run never reads as a complete one.
    reader.finish()?;
    let health = HealthReport {
        worker_panics: summary.panics,
        degraded_preferences: degraded,
        ..HealthReport::default()
    };
    let verb = if size_only { "sized" } else { "explained" };
    write_batch_trailer(out, opts.format, &summary, health, elapsed, opts.threads, verb)
}

/// Ends a batch run whose windows have all been printed: rejects an empty
/// windows file, then writes the trailer (`# threads:` and `# health:` in
/// csv, the summary and health lines in text).
fn write_batch_trailer(
    out: &mut dyn Write,
    format: OutputFormat,
    summary: &StreamSummary,
    health: HealthReport,
    elapsed: Duration,
    requested: usize,
    verb: &str,
) -> Result<RunStatus, CliError> {
    if summary.windows == 0 {
        return Err(CliError::Usage("windows file contains no windows".into()));
    }
    match format {
        OutputFormat::Csv => {
            writeln!(out, "# threads: {}", summary.threads)?;
            writeln!(out, "# {}", health.summary())?;
        }
        OutputFormat::Text => {
            let secs = elapsed.as_secs_f64();
            writeln!(
                out,
                "\n{} window(s): {} {verb}, {} passing, {} error(s) in {secs:.3}s \
                 ({:.0} windows/s) on {} worker thread(s) (requested {})",
                summary.windows,
                summary.explained,
                summary.passing,
                summary.errors,
                if secs > 0.0 { summary.windows as f64 / secs } else { 0.0 },
                summary.threads,
                requested_threads(requested)
            )?;
            writeln!(out, "{}", health.summary())?;
        }
    }
    Ok(RunStatus { window_errors: summary.errors, windows_explained: summary.explained, health })
}

/// Renders one 2-D window result. Explanations carry window-relative point
/// offsets (a 2-D window line is a flat coordinate list, so the offset —
/// not a coordinate echo — is the stable way to address a point); csv rows
/// are `window,index`.
fn write_batch2d_result(
    out: &mut dyn Write,
    format: OutputFormat,
    w: usize,
    result: &Result<Explanation2d, MocheError>,
) -> std::io::Result<()> {
    match (format, result) {
        (OutputFormat::Csv, Ok(e)) => {
            for &i in &e.indices {
                writeln!(out, "{w},{i}")?;
            }
            Ok(())
        }
        (OutputFormat::Text, Ok(e)) => {
            let m = e.outcome_before.m;
            writeln!(
                out,
                "window {w}: k = {} ({:.1}% of {} points), indices {:?}",
                e.size(),
                100.0 * e.size() as f64 / m as f64,
                m,
                e.indices
            )
        }
        // A passing window legitimately has no rows.
        (OutputFormat::Csv, Err(MocheError::TestAlreadyPasses { .. })) => Ok(()),
        (OutputFormat::Text, Err(MocheError::TestAlreadyPasses { .. })) => {
            writeln!(out, "window {w}: passes (nothing to explain)")
        }
        // Any other error must not vanish from the output.
        (OutputFormat::Csv, Err(e)) => writeln!(out, "# window {w}: error: {e}"),
        (OutputFormat::Text, Err(e)) => writeln!(out, "window {w}: error: {e}"),
    }
}

/// `moche batch2d`: point windows are read lazily into recycled buffers and
/// fed through the bounded-memory [`Stream2dExplainer`] over one shared
/// [`RankIndex2d`]; each result is printed as it is delivered (in window
/// order), with [`run_batch_stream`]'s trailer, health and exit-code
/// contract on 2-D (Fasano-Franceschini) tests.
fn run_batch_stream_2d(
    r: &[Point2],
    windows: &Path,
    alpha: f64,
    threads: usize,
    format: OutputFormat,
    out: &mut dyn Write,
) -> Result<RunStatus, CliError> {
    let index = RankIndex2d::new(r)?;
    let streamer = Stream2dExplainer::new(alpha)?.threads(threads);
    let mut reader = WindowReader::open(windows, parse_point_window_line_into)?;

    if format == OutputFormat::Csv {
        writeln!(out, "window,index")?;
    }
    let started = Instant::now();
    let mut written = Ok(());
    let summary = streamer.explain_source(
        &index,
        |buf: &mut Vec<Point2>| reader.fill(buf),
        None,
        |res: &Stream2dResult| {
            if written.is_ok() {
                written = write_batch2d_result(out, format, res.window, &res.result);
            }
        },
    );
    let elapsed = started.elapsed();
    written?;
    reader.finish()?;
    let health = HealthReport { worker_panics: summary.panics, ..HealthReport::default() };
    write_batch_trailer(out, format, &summary, health, elapsed, threads, "explained")
}

/// The flags of `moche monitor` (see [`crate::args::Command::Monitor`]).
struct MonitorOptions<'a> {
    window: Option<usize>,
    alpha: f64,
    explain: bool,
    size_only: bool,
    checkpoint: Option<&'a Path>,
    checkpoint_every: Option<u64>,
    resume: Option<&'a Path>,
}

fn run_monitor(
    values: &[f64],
    opts: &MonitorOptions<'_>,
    out: &mut dyn Write,
) -> Result<RunStatus, CliError> {
    // `--resume` restores the full monitor state — configuration included —
    // from the snapshot; a `--window` given alongside is cross-checked so a
    // supervisor restart with a drifted flag fails loudly instead of
    // silently monitoring at the wrong scale.
    let (mut monitor, window, alpha) = match opts.resume {
        Some(path) => {
            let snapshot = MonitorSnapshot::read_from(path)?;
            if let Some(w) = opts.window {
                if w != snapshot.window {
                    return Err(CliError::Usage(format!(
                        "--window {w} does not match the resumed snapshot's window {}",
                        snapshot.window
                    )));
                }
            }
            let monitor = DriftMonitor::restore(&snapshot)?;
            writeln!(
                out,
                "resumed from {}: {} observation(s) already seen, {} alarm(s)",
                path.display(),
                snapshot.pushes,
                snapshot.alarms
            )?;
            (monitor, snapshot.window, snapshot.alpha)
        }
        None => {
            let window =
                opts.window.ok_or_else(|| CliError::Usage("monitor requires --window W".into()))?;
            let mut cfg = MonitorConfig::new(window, opts.alpha);
            cfg.explain_on_drift = opts.explain;
            cfg.size_only = opts.size_only;
            (DriftMonitor::new(cfg)?, window, opts.alpha)
        }
    };
    let checkpoint_every = opts.checkpoint_every.unwrap_or(window as u64);
    let mut checkpoints = 0usize;
    writeln!(
        out,
        "monitoring {} observations with paired windows of {window} (alpha = {alpha})",
        values.len()
    )?;
    // `nan`/`inf` parse as valid f64, so a corrupt data file reaches the
    // monitor as non-finite observations: report each one with its series
    // index, skip it, and fold the count into the exit code — never panic.
    let mut skipped = 0usize;
    for (i, &x) in values.iter().enumerate() {
        let event = match monitor.try_push(x) {
            Ok(event) => event,
            Err(e) => {
                skipped += 1;
                // The monitor's error counts accepted observations only;
                // report the series position `t`, which is what locates
                // the corrupt value in the input file.
                match e {
                    MocheError::NonFiniteObservation { value, .. } => {
                        writeln!(out, "t = {i}: skipped non-finite observation ({value})")?;
                    }
                    other => writeln!(out, "t = {i}: skipped observation: {other}")?,
                }
                continue;
            }
        };
        if let MonitorEvent::Drift { outcome, explanation, size } = event {
            write!(
                out,
                "t = {i}: DRIFT  D = {:.4} (threshold {:.4})",
                outcome.statistic, outcome.threshold
            )?;
            match (explanation, size) {
                (Some(e), _) => {
                    writeln!(
                        out,
                        "  explanation: {} point(s), window offsets {:?}",
                        e.size(),
                        e.indices()
                    )?;
                    // The next alarm reuses this explanation's buffers.
                    monitor.recycle(e);
                }
                (None, Some(s)) => {
                    writeln!(out, "  size: k = {} (k_hat = {})", s.k, s.k_hat)?;
                }
                (None, None) => {
                    writeln!(out)?;
                }
            }
        }
        if let Some(path) = opts.checkpoint {
            if monitor.pushes().is_multiple_of(checkpoint_every) {
                monitor.checkpoint(path)?;
                checkpoints += 1;
            }
        }
    }
    if let Some(path) = opts.checkpoint {
        // One final snapshot regardless of cadence, so `--resume` picks up
        // exactly where this run ended.
        monitor.checkpoint(path)?;
        checkpoints += 1;
    }
    writeln!(out, "{} alarm(s) in {} observations", monitor.alarms(), monitor.pushes())?;
    if skipped > 0 {
        writeln!(out, "{skipped} non-finite observation(s) skipped")?;
    }
    let health = HealthReport {
        skipped_observations: skipped,
        degraded_preferences: usize::try_from(monitor.degraded_preferences()).unwrap_or(usize::MAX),
        checkpoints_written: checkpoints,
        ..HealthReport::default()
    };
    writeln!(out, "{}", health.summary())?;
    // A monitoring run's product is its alarm report, not explanations (a
    // clean run with zero alarms is a success), so corrupt observations
    // are counted as errors with nothing on the "explained" side: any
    // skipped observation makes the run exit nonzero.
    Ok(RunStatus { window_errors: skipped, windows_explained: 0, health })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn shifted_sets() -> (Vec<f64>, Vec<f64>) {
        let r: Vec<f64> = (0..60).map(|i| f64::from(i % 8)).collect();
        let t: Vec<f64> = (0..30).map(|i| f64::from(i % 8) + 4.0).collect();
        (r, t)
    }

    /// Runs a command body against a byte buffer, returning the rendered
    /// report and the run status.
    fn capture<F>(f: F) -> Result<(String, RunStatus), CliError>
    where
        F: FnOnce(&mut dyn Write) -> Result<RunStatus, CliError>,
    {
        let mut buf: Vec<u8> = Vec::new();
        let status = f(&mut buf)?;
        Ok((String::from_utf8(buf).expect("reports are UTF-8"), status))
    }

    fn batch_opts<'a>(
        alpha: f64,
        threads: usize,
        preference: &'a PreferenceSource,
        format: OutputFormat,
    ) -> BatchOptions<'a> {
        BatchOptions { alpha, threads, preference, format }
    }

    fn monitor_opts(
        window: usize,
        alpha: f64,
        explain: bool,
        size_only: bool,
    ) -> MonitorOptions<'static> {
        MonitorOptions {
            window: Some(window),
            alpha,
            explain,
            size_only,
            checkpoint: None,
            checkpoint_every: None,
            resume: None,
        }
    }

    #[test]
    fn test_command_reports_failure() {
        let (r, t) = shifted_sets();
        let (out, _) = capture(|o| run_test(&r, &t, 0.05, o)).unwrap();
        assert!(out.contains("FAILED"), "{out}");
        assert!(out.contains("p-value"));
        let (out2, _) = capture(|o| run_test(&r, &r, 0.05, o)).unwrap();
        assert!(out2.contains("passed"), "{out2}");
    }

    #[test]
    fn size_command_reports_k_and_bound() {
        let (r, t) = shifted_sets();
        let (out, _) = capture(|o| run_size(&r, &t, 0.05, o)).unwrap();
        assert!(out.contains("explanation size k = "));
        assert!(out.contains("k_hat"));
    }

    #[test]
    fn explain_text_and_csv_agree_on_selection() {
        let (r, t) = shifted_sets();
        let (text, status) = capture(|o| {
            run_explain(&r, &t, None, 0.05, &PreferenceSource::ValueDesc, OutputFormat::Text, o)
        })
        .unwrap();
        let (csv, _) = capture(|o| {
            run_explain(&r, &t, None, 0.05, &PreferenceSource::ValueDesc, OutputFormat::Csv, o)
        })
        .unwrap();
        assert!(text.contains("passes"));
        assert!(csv.starts_with("index,value"));
        assert_eq!(status.exit_code(), 0);
        // Same number of selected points in both outputs.
        let text_rows = text.lines().skip_while(|l| !l.starts_with("index")).count() - 1;
        let csv_rows = csv.lines().count() - 1;
        assert_eq!(text_rows, csv_rows);
    }

    #[test]
    fn explain_with_score_column_uses_it() {
        let (r, t) = shifted_sets();
        // Scores that strongly prefer the last test point first.
        let mut scores = vec![0.0f64; t.len()];
        *scores.last_mut().unwrap() = 100.0;
        let (out, _) = capture(|o| {
            run_explain(
                &r,
                &t,
                Some(scores.clone()),
                0.05,
                &PreferenceSource::ScoreColumn,
                OutputFormat::Csv,
                o,
            )
        })
        .unwrap();
        let first_row = out.lines().nth(1).unwrap();
        assert!(
            first_row.starts_with(&format!("{},", t.len() - 1)),
            "expected the boosted point first, got {first_row}"
        );
    }

    #[test]
    fn explain_missing_score_column_is_usage_error() {
        let (r, t) = shifted_sets();
        let result = capture(|o| {
            run_explain(&r, &t, None, 0.05, &PreferenceSource::ScoreColumn, OutputFormat::Text, o)
        });
        match result {
            Err(CliError::Usage(msg)) => assert!(msg.contains("second column")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explain_passing_test_surfaces_library_error() {
        let (r, _) = shifted_sets();
        let result = capture(|o| {
            run_explain(&r, &r, None, 0.05, &PreferenceSource::Identity, OutputFormat::Text, o)
        });
        match result {
            Err(CliError::Moche(moche_core::MocheError::TestAlreadyPasses { .. })) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A throwaway on-disk windows file, one window per line.
    struct TempWindows(std::path::PathBuf);

    impl TempWindows {
        fn new(content: &str) -> Self {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            // lint:allow(relaxed): a unique file-name counter; nothing else rides on it
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("moche-batch-test-{}-{n}.csv", std::process::id()));
            std::fs::write(&path, content).unwrap();
            Self(path)
        }

        fn of(windows: &[Vec<f64>]) -> Self {
            let content: String = windows
                .iter()
                .map(|w| w.iter().map(f64::to_string).collect::<Vec<_>>().join(",") + "\n")
                .collect();
            Self::new(&content)
        }
    }

    impl Drop for TempWindows {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// `moche batch` over `windows`, written to a windows file first.
    fn batch(
        r: &[f64],
        windows: &[Vec<f64>],
        opts: &BatchOptions<'_>,
    ) -> Result<(String, RunStatus), CliError> {
        let file = TempWindows::of(windows);
        capture(|o| run_batch_stream(r, &file.0, opts, false, o))
    }

    /// The csv rows of window `w`, without the window column.
    fn window_rows(csv: &str, w: usize) -> Vec<String> {
        let prefix = format!("{w},");
        csv.lines().filter_map(|l| l.strip_prefix(&prefix)).map(str::to_string).collect()
    }

    #[test]
    fn batch_reports_per_window_outcomes() {
        let (r, t) = shifted_sets();
        let windows = vec![t.clone(), r.clone(), t];
        let opts = batch_opts(0.05, 2, &PreferenceSource::Identity, OutputFormat::Text);
        let (out, status) = batch(&r, &windows, &opts).unwrap();
        assert!(out.contains("window 0: k = "), "{out}");
        assert!(out.contains("window 1: passes"), "{out}");
        assert!(out.contains("2 explained, 1 passing"), "{out}");
        assert_eq!(status.windows_explained, 2);
        assert_eq!(status.window_errors, 0);
        assert_eq!(status.exit_code(), 0);
    }

    #[test]
    fn batch_csv_lists_selected_points_per_window() {
        let (r, t) = shifted_sets();
        let windows = vec![t.clone(), t];
        let opts = batch_opts(0.05, 0, &PreferenceSource::ValueDesc, OutputFormat::Csv);
        let (out, _) = batch(&r, &windows, &opts).unwrap();
        assert!(out.starts_with("window,index,value"));
        assert!(out.lines().any(|l| l.starts_with("# health:")), "{out}");
        // Both windows are identical: their selections must match.
        assert!(!window_rows(&out, 0).is_empty(), "{out}");
        assert_eq!(window_rows(&out, 0), window_rows(&out, 1));
    }

    /// Every window's rows equal `moche explain` on that window alone, at
    /// every thread count; a passing window has no rows.
    #[test]
    fn batch_rows_match_explain_per_window() {
        let (r, t) = shifted_sets();
        let other: Vec<f64> = t.iter().map(|v| v + 1.5).collect();
        let windows = vec![t, r.clone(), other];
        let file = TempWindows::of(&windows);
        for threads in [1, 2, 8] {
            let opts = batch_opts(0.05, threads, &PreferenceSource::ValueDesc, OutputFormat::Csv);
            let (csv, status) =
                capture(|o| run_batch_stream(&r, &file.0, &opts, false, o)).unwrap();
            assert_eq!(status.windows_explained, 2);
            assert!(csv.lines().any(|l| l == format!("# threads: {}", threads.min(3))), "{csv}");
            for (w, window) in windows.iter().enumerate() {
                let single = capture(|o| {
                    run_explain(
                        &r,
                        window,
                        None,
                        0.05,
                        &PreferenceSource::ValueDesc,
                        OutputFormat::Csv,
                        o,
                    )
                });
                let expected: Vec<String> = match single {
                    Ok((out, _)) => out.lines().skip(1).map(str::to_string).collect(),
                    Err(CliError::Moche(MocheError::TestAlreadyPasses { .. })) => Vec::new(),
                    Err(e) => panic!("window {w}: {e}"),
                };
                assert_eq!(window_rows(&csv, w), expected, "window {w}, threads {threads}");
            }
        }
    }

    #[test]
    fn batch_csv_surfaces_per_window_errors_as_comments() {
        let (r, t) = shifted_sets();
        let bad = vec![f64::NAN, 1.0, 2.0, 3.0, 4.0];
        let windows = vec![t, bad];
        // The default SR preference must not panic on the non-finite
        // window; the error surfaces as a CSV comment instead.
        for source in [PreferenceSource::SpectralResidual, PreferenceSource::Identity] {
            let opts = batch_opts(0.05, 1, &source, OutputFormat::Csv);
            let (out, status) = batch(&r, &windows, &opts).unwrap();
            assert!(out.lines().any(|l| l.starts_with("0,")), "{out}");
            assert!(out.lines().any(|l| l.starts_with("# window 1: error:")), "{out}");
            assert_eq!(status.window_errors, 1);
            assert_eq!(status.exit_code(), 0, "one good window keeps the run successful");
        }
    }

    #[test]
    fn batch_preference_failure_does_not_poison_the_batch() {
        // value-desc builds the preference from the window values, so a
        // NaN window fails preference construction; the other windows must
        // still be explained.
        let (r, t) = shifted_sets();
        let bad = vec![f64::NAN, 1.0, 2.0, 3.0, 4.0];
        let windows = vec![t, bad];
        let opts = batch_opts(0.05, 1, &PreferenceSource::ValueDesc, OutputFormat::Text);
        let (out, _) = batch(&r, &windows, &opts).unwrap();
        assert!(out.contains("window 0: k = "), "{out}");
        assert!(out.contains("window 1: error: invalid preference"), "{out}");
        assert!(out.contains("1 explained"), "{out}");
    }

    #[test]
    fn batch_all_error_runs_exit_nonzero() {
        let (r, _) = shifted_sets();
        // Every window carries a NaN: the file parses (NaN is a float) but
        // each window fails with NonFiniteValue.
        let bad = vec![f64::NAN, 1.0, 2.0, 3.0, 4.0];
        let windows = vec![bad.clone(), bad];
        let opts = batch_opts(0.05, 1, &PreferenceSource::Identity, OutputFormat::Text);
        let (out, status) = batch(&r, &windows, &opts).unwrap();
        assert!(out.contains("window 0: error:"), "{out}");
        assert_eq!(status.window_errors, 2);
        assert_eq!(status.windows_explained, 0);
        assert_eq!(status.exit_code(), 1, "all-error batches must not exit 0");
    }

    #[test]
    fn batch_passing_windows_do_not_mask_an_all_error_run() {
        // Passing windows are not errors, but they are not explanations
        // either: a run that produced nothing and hit a real error still
        // reports failure.
        let (r, _) = shifted_sets();
        let bad = vec![f64::NAN, 1.0, 2.0, 3.0, 4.0];
        let windows = vec![r.clone(), bad];
        let opts = batch_opts(0.05, 1, &PreferenceSource::Identity, OutputFormat::Text);
        let (out, status) = batch(&r, &windows, &opts).unwrap();
        assert!(out.contains("window 0: passes"), "{out}");
        assert_eq!(status.window_errors, 1);
        assert_eq!(status.windows_explained, 0);
        assert_eq!(status.exit_code(), 1);
    }

    #[test]
    fn batch_counts_degraded_preferences_only_on_explained_windows() {
        // Three points are too few for SR and a NaN cannot be scored, so
        // every window below but `t` is ranked in identity order. Only the
        // explained ones count: passing windows explain nothing, and the
        // NaN window then fails input validation.
        let (r, t) = shifted_sets();
        let passing = vec![vec![1.0, 3.0, 5.0]; 6];
        let failing = vec![vec![40.0, 41.0, 42.0]; 6];
        let bad = vec![vec![f64::NAN, 1.0, 2.0, 3.0, 4.0], t.clone()];
        let mixed: Vec<Vec<f64>> =
            passing.iter().zip(&failing).flat_map(|(p, f)| [p.clone(), f.clone()]).collect();
        let sr = PreferenceSource::SpectralResidual;
        for threads in [1, 2] {
            let opts = batch_opts(0.05, threads, &sr, OutputFormat::Text);
            for (windows, explained, degraded) in
                [(&passing, 0, 0), (&failing, 6, 6), (&mixed, 6, 6), (&bad, 1, 0)]
            {
                let (out, status) = batch(&r, windows, &opts).unwrap();
                assert_eq!(status.windows_explained, explained, "{out}");
                assert_eq!(status.health.degraded_preferences, degraded, "{out}");
                assert!(out.contains(&format!("{degraded} degraded preference(s)")), "{out}");
                assert_eq!(out.contains("[DEGRADED]"), degraded > 0, "{out}");
            }
        }
        // A clean batch reports clean health, without the degraded marker.
        let clean_opts = batch_opts(0.05, 1, &PreferenceSource::Identity, OutputFormat::Csv);
        let (clean, clean_status) = batch(&r, &[t], &clean_opts).unwrap();
        assert!(clean.contains("# health: 0 worker panic(s)"), "{clean}");
        assert!(!clean.contains("[DEGRADED]"), "{clean}");
        assert_eq!(clean_status.health, HealthReport::default());
    }

    #[test]
    fn sr_overflow_is_a_degraded_preference_in_batch_and_explain() {
        let (r, t) = shifted_sets();
        // Finite but extreme values overflow the SR transform: the window
        // is explained in identity order, and health says so.
        let huge: Vec<f64> = t.iter().map(|&v| if v >= 8.0 { 1.5e308 } else { v }).collect();
        let windows = vec![t, huge.clone()];
        let opts = batch_opts(0.05, 1, &PreferenceSource::SpectralResidual, OutputFormat::Csv);
        let (out, status) = batch(&r, &windows, &opts).unwrap();
        assert_eq!(status.health.degraded_preferences, 1);
        assert_eq!(status.windows_explained, 2);
        assert!(out.contains("1 degraded preference(s)"), "{out}");
        let identity = batch_opts(0.05, 1, &PreferenceSource::Identity, OutputFormat::Csv);
        let (id_out, _) = batch(&r, std::slice::from_ref(&huge), &identity).unwrap();
        assert_eq!(window_rows(&out, 1), window_rows(&id_out, 0));

        let (text, status) = capture(|o| {
            run_explain(
                &r,
                &huge,
                None,
                0.05,
                &PreferenceSource::SpectralResidual,
                OutputFormat::Text,
                o,
            )
        })
        .unwrap();
        assert_eq!(status.health.degraded_preferences, 1);
        assert!(text.contains("1 degraded preference(s)") && text.contains("[DEGRADED]"), "{text}");
    }

    #[test]
    fn batch_rejects_empty_windows_file() {
        let (r, _) = shifted_sets();
        let opts = batch_opts(0.05, 0, &PreferenceSource::Identity, OutputFormat::Text);
        match batch(&r, &[], &opts) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("no windows")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_size_only_reports_k_per_window() {
        let (r, t) = shifted_sets();
        let windows = vec![t.clone(), r.clone(), t.clone()];
        let file = TempWindows::of(&windows);
        let opts = batch_opts(0.05, 1, &PreferenceSource::Identity, OutputFormat::Csv);
        let (csv, _) = capture(|o| run_batch_stream(&r, &file.0, &opts, true, o)).unwrap();
        assert!(csv.starts_with("window,k,k_hat"), "{csv}");
        // Windows 0 and 2 are identical: same k rows; window 1 passes.
        let k_rows: Vec<&str> =
            csv.lines().filter(|l| !l.starts_with('#') && !l.starts_with("window,")).collect();
        assert_eq!(k_rows.len(), 2, "{csv}");
        assert_eq!(k_rows[0].split_once(',').unwrap().1, k_rows[1].split_once(',').unwrap().1);
        // The reported k matches the full explanation's size.
        let (full, _) = capture(|o| {
            run_explain(&r, &t, None, 0.05, &PreferenceSource::Identity, OutputFormat::Csv, o)
        })
        .unwrap();
        let k: usize = k_rows[0].split(',').nth(1).unwrap().parse().unwrap();
        assert_eq!(k, full.lines().count() - 1);

        let text_opts = batch_opts(0.05, 1, &PreferenceSource::Identity, OutputFormat::Text);
        let (text, _) = capture(|o| run_batch_stream(&r, &file.0, &text_opts, true, o)).unwrap();
        assert!(text.contains("window 0: k = "), "{text}");
        assert!(text.contains("window 1: passes"), "{text}");
        assert!(text.contains("2 sized, 1 passing"), "{text}");
        assert!(text.contains("worker thread(s)"), "{text}");
    }

    /// A malformed line ends the run with its located error, after the
    /// windows before it have been printed.
    #[test]
    fn batch_surfaces_parse_errors_after_the_windows_before_them() {
        let (r, t) = shifted_sets();
        let line = t.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        let file = TempWindows::new(&format!("{line}\nnot-a-number\n{line}\n"));
        let opts = batch_opts(0.05, 2, &PreferenceSource::Identity, OutputFormat::Csv);
        let mut out: Vec<u8> = Vec::new();
        match run_batch_stream(&r, &file.0, &opts, false, &mut out) {
            Err(CliError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
        let out = String::from_utf8(out).unwrap();
        assert!(!window_rows(&out, 0).is_empty(), "{out}");
        assert!(window_rows(&out, 1).is_empty(), "{out}");
    }

    #[test]
    fn batch_reports_effective_thread_count() {
        let (r, t) = shifted_sets();
        let windows = vec![t.clone(), t];
        let opts = batch_opts(0.05, 8, &PreferenceSource::Identity, OutputFormat::Text);
        let (out, _) = batch(&r, &windows, &opts).unwrap();
        // Two windows start two workers regardless of the flag.
        assert!(out.contains("on 2 worker thread(s) (requested 8)"), "{out}");
        let csv_opts = batch_opts(0.05, 8, &PreferenceSource::Identity, OutputFormat::Csv);
        let (csv, _) = batch(&r, &windows, &csv_opts).unwrap();
        assert!(csv.lines().any(|l| l == "# threads: 2"), "{csv}");
        // One window runs on the caller's thread.
        let (csv, _) = batch(&r, &windows[..1], &csv_opts).unwrap();
        assert!(csv.lines().any(|l| l == "# threads: 1"), "{csv}");
    }

    /// A 2-D reference and a window that fails the Fasano-Franceschini
    /// test against it (a shifted cluster far off the reference lattice).
    fn shifted_point_sets() -> (Vec<Point2>, Vec<Point2>) {
        let r: Vec<Point2> =
            (0..80).map(|i| Point2::new(f64::from(i % 9), f64::from(i % 7))).collect();
        let mut t: Vec<Point2> = r.iter().take(40).copied().collect();
        t.extend((0..25).map(|i| Point2::new(f64::from(i) + 60.0, 60.0)));
        (r, t)
    }

    /// `moche batch2d` over point windows, written as flat `x1,y1,x2,y2,...`
    /// coordinate lines first.
    fn batch2d(
        r: &[Point2],
        windows: &[Vec<Point2>],
        threads: usize,
        format: OutputFormat,
    ) -> Result<(String, RunStatus), CliError> {
        let flat: Vec<Vec<f64>> =
            windows.iter().map(|w| w.iter().flat_map(|p| [p.x, p.y]).collect()).collect();
        let file = TempWindows::of(&flat);
        capture(|o| run_batch_stream_2d(r, &file.0, 0.05, threads, format, o))
    }

    #[test]
    fn batch2d_reports_per_window_outcomes() {
        let (r, t) = shifted_point_sets();
        let windows = vec![t.clone(), r.clone(), t];
        let (out, status) = batch2d(&r, &windows, 2, OutputFormat::Text).unwrap();
        assert!(out.contains("window 0: k = "), "{out}");
        assert!(out.contains("window 1: passes"), "{out}");
        assert!(out.contains("2 explained, 1 passing"), "{out}");
        assert!(out.contains("health: 0 worker panic(s)"), "{out}");
        assert_eq!(status.windows_explained, 2);
        assert_eq!(status.window_errors, 0);
        assert_eq!(status.exit_code(), 0);
    }

    /// Every window's csv rows are the point offsets the in-process greedy
    /// explainer selects for that window, at every thread count.
    #[test]
    fn batch2d_rows_match_the_in_process_explainer_per_window() {
        let (r, t) = shifted_point_sets();
        let windows = vec![t.clone(), r.clone(), t];
        let cfg = moche_multidim::Ks2dConfig::new(0.05).unwrap();
        for threads in [1, 2] {
            let (out, status) = batch2d(&r, &windows, threads, OutputFormat::Csv).unwrap();
            assert!(out.starts_with("window,index"), "{out}");
            assert!(out.lines().any(|l| l.starts_with("# health:")), "{out}");
            assert!(out.lines().any(|l| l == format!("# threads: {threads}")), "{out}");
            assert_eq!(status.windows_explained, 2);
            for (w, window) in windows.iter().enumerate() {
                let expected: Vec<String> =
                    match moche_multidim::GreedyImpact2d.explain(&r, window, &cfg, None) {
                        Ok(e) => e.indices.iter().map(usize::to_string).collect(),
                        Err(MocheError::TestAlreadyPasses { .. }) => Vec::new(),
                        Err(e) => panic!("window {w}: {e}"),
                    };
                assert_eq!(window_rows(&out, w), expected, "window {w}, threads {threads}");
            }
        }
    }

    #[test]
    fn batch2d_errors_are_isolated_and_all_error_runs_exit_nonzero() {
        let (r, t) = shifted_point_sets();
        let bad = vec![Point2::new(f64::NAN, 0.0); 5];
        let mixed = vec![t, bad.clone()];
        let (out, status) = batch2d(&r, &mixed, 1, OutputFormat::Text).unwrap();
        assert!(out.contains("window 0: k = "), "{out}");
        assert!(out.contains("window 1: error:"), "{out}");
        assert_eq!(status.window_errors, 1);
        assert_eq!(status.exit_code(), 0, "one good window keeps the run successful");

        let all_bad = vec![bad.clone(), bad];
        let (_, status) = batch2d(&r, &all_bad, 1, OutputFormat::Text).unwrap();
        assert_eq!(status.window_errors, 2);
        assert_eq!(status.windows_explained, 0);
        assert_eq!(status.exit_code(), 1, "all-error 2-D batches must not exit 0");
    }

    #[test]
    fn batch2d_rejects_empty_windows_file() {
        let (r, _) = shifted_point_sets();
        match batch2d(&r, &[], 0, OutputFormat::Text) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("no windows")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch2d_surfaces_odd_coordinate_counts() {
        let (r, _) = shifted_point_sets();
        let file = TempWindows::new("1 2 3 4\n5 6 7\n");
        let result = capture(|o| run_batch_stream_2d(&r, &file.0, 0.05, 1, OutputFormat::Text, o));
        match result {
            Err(CliError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn monitor_detects_shift_in_file_values() {
        let mut series: Vec<f64> = (0..200).map(|i| f64::from(i % 7)).collect();
        series.extend((0..200).map(|i| f64::from(i % 7) + 25.0));
        let (out, _) =
            capture(|o| run_monitor(&series, &monitor_opts(50, 0.05, true, false), o)).unwrap();
        assert!(out.contains("DRIFT"), "{out}");
        assert!(out.contains("explanation"));
        let (quiet, _) =
            capture(|o| run_monitor(&series[..200], &monitor_opts(50, 0.05, false, false), o))
                .unwrap();
        assert!(quiet.contains("0 alarm(s)"), "{quiet}");
    }

    #[test]
    fn monitor_skips_non_finite_observations_and_exits_nonzero() {
        // A nan/inf mid-stream used to abort the process on the monitor's
        // finiteness assert; it must now be reported, skipped and folded
        // into the exit code — while the drift is still detected.
        let mut series: Vec<f64> = (0..200).map(|i| f64::from(i % 7)).collect();
        series[50] = f64::NAN;
        series[90] = f64::INFINITY;
        series.extend((0..200).map(|i| f64::from(i % 7) + 25.0));
        let (out, status) =
            capture(|o| run_monitor(&series, &monitor_opts(50, 0.05, true, false), o)).unwrap();
        assert!(out.contains("t = 50: skipped non-finite observation"), "{out}");
        assert!(out.contains("t = 90: skipped non-finite observation"), "{out}");
        assert!(out.contains("DRIFT"), "{out}");
        assert!(out.contains("2 non-finite observation(s) skipped"), "{out}");
        assert_eq!(status.window_errors, 2);
        assert_eq!(status.health.skipped_observations, 2);
        assert!(out.contains("2 skipped observation(s)"), "{out}");
        assert!(out.contains("[DEGRADED]"), "{out}");
        assert_eq!(status.exit_code(), 1, "corrupt observations must fail the run");
        // A clean stream still exits 0.
        let clean: Vec<f64> = (0..200).map(|i| f64::from(i % 7)).collect();
        let (quiet, status) =
            capture(|o| run_monitor(&clean, &monitor_opts(50, 0.05, true, false), o)).unwrap();
        assert!(quiet.contains("0 skipped observation(s)"), "{quiet}");
        assert!(!quiet.contains("[DEGRADED]"), "{quiet}");
        assert_eq!(status.exit_code(), 0);
    }

    #[test]
    fn monitor_size_only_reports_k_per_alarm() {
        let mut series: Vec<f64> = (0..200).map(|i| f64::from(i % 7)).collect();
        series.extend((0..200).map(|i| f64::from(i % 7) + 25.0));
        let (out, _) =
            capture(|o| run_monitor(&series, &monitor_opts(50, 0.05, true, true), o)).unwrap();
        assert!(out.contains("DRIFT"), "{out}");
        assert!(out.contains("size: k = "), "{out}");
        assert!(!out.contains("explanation:"), "{out}");
    }

    #[test]
    fn run_dispatches_help() {
        let (out, status) = capture(|o| run(Command::Help, o)).unwrap();
        assert!(out.contains("USAGE"));
        assert_eq!(status.exit_code(), 0);
    }

    #[test]
    fn exit_code_rules() {
        let status = |window_errors: usize, windows_explained: usize| RunStatus {
            window_errors,
            windows_explained,
            ..RunStatus::default()
        };
        assert_eq!(RunStatus::default().exit_code(), 0);
        assert_eq!(status(3, 0).exit_code(), 1);
        assert_eq!(status(3, 1).exit_code(), 0);
        assert_eq!(status(0, 0).exit_code(), 0);
    }

    #[test]
    fn snapshot_errors_map_to_exit_code_3() {
        let e = CliError::Snapshot(moche_stream::SnapshotError::Truncated);
        assert_eq!(e.exit_code(), 3);
        assert!(e.to_string().starts_with("snapshot:"), "{e}");
        assert_eq!(CliError::Usage("x".into()).exit_code(), 1, "run-phase usage errors stay 1");
    }

    /// A temp file path cleaned up on drop.
    struct TempPath(std::path::PathBuf);

    impl TempPath {
        fn new(tag: &str) -> Self {
            Self(std::env::temp_dir().join(format!("moche-cmd-test-{tag}-{}", std::process::id())))
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn drifting_series() -> Vec<f64> {
        let mut series: Vec<f64> = (0..200).map(|i| f64::from(i % 7)).collect();
        series.extend((0..200).map(|i| f64::from(i % 7) + 25.0));
        series
    }

    /// The resumed half of an interrupted run must report exactly the
    /// alarms the uninterrupted run reports over the same observations
    /// (modulo the per-invocation `t = i` positions).
    #[test]
    fn monitor_checkpoint_then_resume_matches_uninterrupted_alarms() {
        let series = drifting_series();
        let cut = 230;
        let snap = TempPath::new("resume");

        let (full, _) =
            capture(|o| run_monitor(&series, &monitor_opts(50, 0.05, true, false), o)).unwrap();

        let mut first_opts = monitor_opts(50, 0.05, true, false);
        first_opts.checkpoint = Some(&snap.0);
        let (_, first_status) = capture(|o| run_monitor(&series[..cut], &first_opts, o)).unwrap();
        assert!(first_status.health.checkpoints_written > 0);

        let resume_opts = MonitorOptions {
            window: None,
            alpha: 0.05,
            explain: true,
            size_only: false,
            checkpoint: None,
            checkpoint_every: None,
            resume: Some(&snap.0),
        };
        let (resumed, _) = capture(|o| run_monitor(&series[cut..], &resume_opts, o)).unwrap();
        assert!(resumed.contains("resumed from"), "{resumed}");

        // Strip the per-invocation `t = N: ` prefixes and compare the
        // resumed run's alarm reports with the uninterrupted run's alarms
        // after the cut.
        let alarm_bodies = |s: &str| {
            s.lines()
                .filter(|l| l.contains("DRIFT"))
                .map(|l| l.split_once(": ").unwrap().1.to_string())
                .collect::<Vec<_>>()
        };
        let full_alarms = alarm_bodies(&full);
        let resumed_alarms = alarm_bodies(&resumed);
        let full_pre_cut = alarm_bodies(
            &capture(|o| run_monitor(&series[..cut], &monitor_opts(50, 0.05, true, false), o))
                .unwrap()
                .0,
        );
        assert_eq!(
            resumed_alarms,
            full_alarms[full_pre_cut.len()..],
            "resumed alarms must match the uninterrupted run's post-cut alarms"
        );
    }

    #[test]
    fn monitor_resume_rejects_mismatched_window_and_corrupt_snapshots() {
        let series = drifting_series();
        let snap = TempPath::new("reject");
        let mut opts = monitor_opts(50, 0.05, true, false);
        opts.checkpoint = Some(&snap.0);
        capture(|o| run_monitor(&series[..100], &opts, o)).unwrap();

        // A --window flag that contradicts the snapshot fails loudly.
        let mut mismatched = monitor_opts(60, 0.05, true, false);
        mismatched.resume = Some(&snap.0);
        match capture(|o| run_monitor(&series[100..], &mismatched, o)) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("does not match"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }

        // A truncated snapshot is a Snapshot error (exit code 3).
        let bytes = std::fs::read(&snap.0).unwrap();
        std::fs::write(&snap.0, &bytes[..bytes.len() / 2]).unwrap();
        let mut resume = monitor_opts(50, 0.05, true, false);
        resume.window = None;
        resume.resume = Some(&snap.0);
        match capture(|o| run_monitor(&series[100..], &resume, o)) {
            Err(e @ CliError::Snapshot(_)) => assert_eq!(e.exit_code(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn monitor_checkpoint_cadence_counts_writes() {
        let series: Vec<f64> = (0..120).map(|i| f64::from(i % 7)).collect();
        let snap = TempPath::new("cadence");
        let mut opts = monitor_opts(20, 0.05, true, false);
        opts.checkpoint = Some(&snap.0);
        opts.checkpoint_every = Some(50);
        let (out, status) = capture(|o| run_monitor(&series, &opts, o)).unwrap();
        // 120 pushes at cadence 50 → t=50, t=100, plus the final snapshot.
        assert_eq!(status.health.checkpoints_written, 3);
        assert!(out.contains("3 checkpoint(s) written"), "{out}");
        assert!(snap.0.exists());
    }
}
