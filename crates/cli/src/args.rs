//! Hand-rolled argument parsing for the `moche` binary (keeping the
//! dependency set to the approved list — no clap).

use crate::io::CliError;
use std::path::PathBuf;

/// How the preference list is derived for `moche explain`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PreferenceSource {
    /// Spectral-Residual outlier scores over the test window (the paper's
    /// time-series protocol) — the default.
    #[default]
    SpectralResidual,
    /// Scores from the test file's second column (or a separate file),
    /// descending.
    ScoreColumn,
    /// Scores from an explicit file, descending.
    ScoreFile(PathBuf),
    /// Test values descending (largest first).
    ValueDesc,
    /// Test values ascending (smallest first).
    ValueAsc,
    /// Input order.
    Identity,
}

/// Output format for machine consumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable report (default).
    #[default]
    Text,
    /// One `index,value` line per selected point.
    Csv,
}

/// The parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `moche test REF TEST [--alpha A]`
    Test {
        /// Reference data file.
        reference: PathBuf,
        /// Test data file.
        test: PathBuf,
        /// Significance level.
        alpha: f64,
    },
    /// `moche size REF TEST [--alpha A]`
    Size {
        /// Reference data file.
        reference: PathBuf,
        /// Test data file.
        test: PathBuf,
        /// Significance level.
        alpha: f64,
    },
    /// `moche explain REF TEST [--alpha A] [--preference SRC] [--format F]`
    Explain {
        /// Reference data file.
        reference: PathBuf,
        /// Test data file.
        test: PathBuf,
        /// Significance level.
        alpha: f64,
        /// Preference derivation.
        preference: PreferenceSource,
        /// Output format.
        format: OutputFormat,
    },
    /// `moche batch REF WINDOWS [--alpha A] [--threads N] [--preference SRC]
    /// [--format F] [--size-only]`
    Batch {
        /// Reference data file (shared by every window).
        reference: PathBuf,
        /// Windows file: one test window per line, comma/space separated.
        windows: PathBuf,
        /// Significance level.
        alpha: f64,
        /// Worker threads (0 = all cores).
        threads: usize,
        /// Preference derivation, applied per window.
        preference: PreferenceSource,
        /// Output format.
        format: OutputFormat,
        /// Phase 1 only: report each window's explanation size `k` without
        /// constructing the explanation.
        size_only: bool,
    },
    /// `moche batch2d REF WINDOWS [--alpha A] [--threads N] [--format F]`
    Batch2d {
        /// Reference point file (shared by every window): one `x y` (or
        /// `x,y`) pair per line.
        reference: PathBuf,
        /// Windows file: one window per line as a flat coordinate list
        /// `x1 y1 x2 y2 ...`.
        windows: PathBuf,
        /// Significance level.
        alpha: f64,
        /// Worker threads (0 = all cores).
        threads: usize,
        /// Output format.
        format: OutputFormat,
    },
    /// `moche monitor SERIES --window W [--alpha A] [--no-explain]
    /// [--size-only] [--checkpoint PATH [--checkpoint-every N]]
    /// [--resume PATH]`
    Monitor {
        /// Series data file.
        series: PathBuf,
        /// Window size (`None` only when resuming — the snapshot carries
        /// it).
        window: Option<usize>,
        /// Significance level.
        alpha: f64,
        /// Disable explanations on alarms.
        explain: bool,
        /// Report only the Phase-1 explanation size per alarm.
        size_only: bool,
        /// Write crash-safe snapshots to this path.
        checkpoint: Option<PathBuf>,
        /// Checkpoint cadence in accepted observations (default: the
        /// window size).
        checkpoint_every: Option<u64>,
        /// Restore monitor state from this snapshot before feeding the
        /// series.
        resume: Option<PathBuf>,
    },
    /// `moche serve --listen ADDR | --unix PATH [--window W] [--alpha A]
    /// [--workers N] [--no-explain] [--size-only] [--explain-queue N]
    /// [--ring N] [--max-series N] [--checkpoint-dir DIR
    /// [--checkpoint-every N]] [--resume] [--sr-filter-window Q]
    /// [--sr-score-window Z]`
    Serve(crate::serve::ServeOptions),
    /// `moche help` or `--help`.
    Help,
}

/// The usage string printed by `moche help`.
pub const USAGE: &str = "\
moche — counterfactual explanations on failed Kolmogorov-Smirnov tests

USAGE:
  moche test    <REF> <TEST> [--alpha A]
      Run the two-sample KS test between two data files.
  moche size    <REF> <TEST> [--alpha A]
      Phase 1 only: the minimum explanation size of the failed test.
  moche explain <REF> <TEST> [--alpha A] [--preference SRC] [--format text|csv]
      Find the most comprehensible counterfactual explanation.
      SRC: sr (Spectral Residual, default) | scores (test file's 2nd column)
           | score-file:PATH | value-desc | value-asc | identity
  moche batch   <REF> <WINDOWS> [--alpha A] [--threads N] [--preference SRC]
                [--format text|csv] [--size-only]
      Explain many failed tests against one shared reference, in parallel.
      WINDOWS holds one test window per line (comma/space separated); it
      is read as the windows are explained, so memory stays constant
      however long the file is, and each result is printed as it is
      delivered. A malformed line ends the run with exit code 1 after the
      results of the windows before it. --size-only reports each window's
      explanation size k (Phase 1 only) without constructing the
      explanation.
      SRC: sr (default) | value-desc | value-asc | identity
  moche batch2d <REF> <WINDOWS> [--alpha A] [--threads N] [--format text|csv]
      Explain many failed 2-D (Fasano-Franceschini) KS tests against one
      shared reference of points. REF holds one 'x y' (or 'x,y') point per
      line; WINDOWS holds one window per line as a flat coordinate list
      'x1 y1 x2 y2 ...' (an odd coordinate count is a parse error).
      Explanations are reported as 0-based point offsets into the window
      (csv rows are 'window,index'). Points have no scalar order, so the
      preference is input order; --preference identity is the only
      accepted source. WINDOWS is read as in batch.
  moche monitor <SERIES> --window W [--alpha A] [--no-explain] [--size-only]
                [--checkpoint PATH [--checkpoint-every N]] [--resume PATH]
      Stream a series through paired sliding windows; explain each alarm.
      --checkpoint writes crash-safe snapshots; --resume restores one and
      continues the run exactly where it left off (alarms are identical
      to an uninterrupted run over the same observations).
  moche serve   --listen HOST:PORT | --unix PATH --window W [--alpha A]
                [--workers N] [--no-explain] [--size-only]
                [--explain-queue N] [--ring N] [--max-series N]
                [--max-connections N] [--idle-timeout S] [--io-timeout S]
                [--error-budget N]
                [--checkpoint-dir DIR [--checkpoint-every N]] [--resume]
                [--sr-filter-window Q] [--sr-score-window Z]
      Run the monitor-fleet daemon: many independent series multiplexed
      over a small worker pool, ingested over a length-prefixed binary
      (or newline-JSON) protocol. Alarms are logged to stdout; explains
      run on a bounded deferred queue so they never block ingestion.
      Connections are supervised: idle peers, mid-frame stalls, and
      clients that stop reading replies are evicted on deadline, excess
      connections past --max-connections get a BUSY reply, and malformed
      frames get structured errors until --error-budget is spent.
      With --checkpoint-dir each worker checkpoints its shard
      atomically; --resume reloads every shard file at startup, so a
      kill -9'd daemon continues with zero lost alarms once its clients
      replay from the per-series 'pushes' offsets (query them with the
      SERIES request). A SHUTDOWN request, SIGTERM, or SIGINT drains
      gracefully: stop accepting, finish in-flight work, write final
      checkpoints, exit 0.

Data files: one number per line; '#' starts a comment; for 'explain
--preference scores' each line may be 'value,score'.

OPTIONS:
  --alpha A     significance level (default 0.05)
  --format F    explain/batch output: text (default) or csv
  --threads N   batch/batch2d: worker-thread cap (default 0 = all cores);
                a run uses no more threads than it has windows, and the
                summary reports the count used
  --window W    monitor window size (required for monitor)
  --no-explain  monitor: raise alarms without computing explanations
  --size-only   batch/monitor: Phase-1 size k only, skip Phase 2
  --checkpoint PATH
                monitor: write a checksummed snapshot of the monitor state
                to PATH every N accepted observations and once at the end
                of the run; each write is atomic (temp file + fsync +
                rename), so PATH always holds a complete snapshot
  --checkpoint-every N
                monitor: checkpoint cadence in accepted observations
                (default: the window size); requires --checkpoint
  --resume PATH monitor: restore state from a snapshot before feeding the
                series; the snapshot's configuration (window, alpha,
                explain mode) takes precedence, and a --window given
                alongside must match the snapshot's
  --listen HOST:PORT
                serve: bind a TCP listener (port 0 picks a free port; the
                bound address is printed on the startup line)
  --unix PATH   serve: bind a unix-domain socket instead of TCP
  --workers N   serve: shard/worker count (default 0 = one per core,
                capped at 8); series are hash-sharded across workers
  --explain-queue N
                serve: per-shard bound on the deferred alarm-explain
                queue (default 64); a full queue sheds explanation work,
                never alarms
  --ring N      serve: per-shard ingest ring capacity in observations
                (default 1024), however many connections feed the
                shard; a handler hands over each read's observations
                per shard as one chunk, and a full ring applies
                backpressure to the client
  --max-series N
                serve: reject new series beyond N (default 0 = unbounded)
  --max-connections N
                serve: cap on concurrently served connections (default
                1024; 0 = unbounded); a connection past the cap gets one
                BUSY reply with a retry_after_ms hint, then a close
  --idle-timeout S
                serve: evict a connection with no complete request for S
                seconds (default 300; 0 = never) — slow-loris peers and
                half-open sockets are disconnected and counted
  --io-timeout S
                serve: evict a connection whose frame stalls mid-wire for
                S seconds, and time out reply writes the same way when
                the peer stops reading (default 30; 0 = never)
  --error-budget N
                serve: malformed frames/lines answered with a structured
                ERR reply before the connection is closed (default 3)
  --checkpoint-dir DIR
                serve: write per-shard checkpoint files (shard-NNNN.snap)
                to DIR on the --checkpoint-every cadence and at shutdown;
                with serve, --resume is a flag that reloads DIR
  --sr-filter-window Q, --sr-score-window Z
                serve: Spectral-Residual preference parameters applied to
                every series (defaults 3 and 21, the SR paper's values);
                carried in checkpoints, so a resumed fleet ranks
                identically

EXIT CODES:
  0  success
  1  errors — including batch runs where at least one window failed with
     a real error and no window was explained (or sized); windows that
     merely pass the KS test are not errors, but do not count as
     explained either
  2  usage errors
  3  snapshot errors — a --resume file that is missing, truncated,
     corrupt, or from an unsupported version, or a --checkpoint write
     that failed
";

/// The flags each subcommand takes: exactly those of its `USAGE` synopsis,
/// plus `--preference` for `batch2d` (which accepts only `identity`). Any
/// other flag is a usage error, so a flag is never silently ignored.
const FLAGS: &[(&str, &str)] = &[
    ("test", "--alpha"),
    ("size", "--alpha"),
    ("explain", "--alpha --preference --format"),
    ("batch", "--alpha --threads --preference --format --size-only"),
    ("batch2d", "--alpha --threads --format --preference"),
    (
        "monitor",
        "--window --alpha --no-explain --size-only --checkpoint --checkpoint-every --resume",
    ),
    (
        "serve",
        "--listen --unix --window --alpha --workers --no-explain --size-only --explain-queue \
         --ring --max-series --max-connections --idle-timeout --io-timeout --error-budget \
         --checkpoint-dir --checkpoint-every --resume --sr-filter-window --sr-score-window",
    ),
];

/// Whether `flag` is one of the space-separated `flags`.
fn takes(flags: &str, flag: &str) -> bool {
    flags.split_whitespace().any(|f| f == flag)
}

fn parse_count(value: Option<&str>, flag: &str) -> Result<usize, CliError> {
    let raw = value.ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
    raw.parse().map_err(|_| CliError::Usage(format!("invalid {flag} '{raw}'")))
}

fn parse_alpha(value: Option<&str>) -> Result<f64, CliError> {
    let raw = value.ok_or_else(|| CliError::Usage("--alpha needs a value".into()))?;
    let alpha: f64 =
        raw.parse().map_err(|_| CliError::Usage(format!("invalid --alpha '{raw}'")))?;
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(CliError::Usage(format!("--alpha must be in (0, 1), got {alpha}")));
    }
    Ok(alpha)
}

/// Parses the process arguments (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter().map(String::as_str).peekable();
    let Some(sub) = it.next() else {
        return Ok(Command::Help);
    };
    if sub == "help" || sub == "--help" || sub == "-h" {
        return Ok(Command::Help);
    }
    let unknown_command = || CliError::Usage(format!("unknown command '{sub}' (try 'moche help')"));
    let Some(&(_, flags)) = FLAGS.iter().find(|(name, _)| *name == sub) else {
        return Err(unknown_command());
    };

    // Collect positionals and flags for the remainder.
    let mut positionals: Vec<&str> = Vec::new();
    let mut alpha = 0.05f64;
    let mut preference = PreferenceSource::default();
    let mut preference_set = false;
    let mut format = OutputFormat::default();
    let mut window: Option<usize> = None;
    let mut threads = 0usize;
    let mut explain = true;
    let mut size_only = false;
    let mut checkpoint: Option<PathBuf> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut resume: Option<PathBuf> = None;
    let mut listen: Option<String> = None;
    let mut unix: Option<PathBuf> = None;
    let mut workers = 0usize;
    let mut explain_queue = 64usize;
    let mut ring = 1024usize;
    let mut max_series = 0usize;
    let mut max_connections = 1024usize;
    let mut idle_timeout = 300u64;
    let mut io_timeout = 30u64;
    let mut error_budget = 3u32;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut serve_resume = false;
    let mut sr_filter_window: Option<usize> = None;
    let mut sr_score_window: Option<usize> = None;
    while let Some(arg) = it.next() {
        if arg.starts_with("--") && !takes(flags, arg) {
            return Err(CliError::Usage(if FLAGS.iter().any(|&(_, f)| takes(f, arg)) {
                format!("'moche {sub}' does not take '{arg}'")
            } else {
                format!("unknown flag '{arg}'")
            }));
        }
        match arg {
            "--alpha" => alpha = parse_alpha(it.next())?,
            "--threads" => {
                let raw =
                    it.next().ok_or_else(|| CliError::Usage("--threads needs a value".into()))?;
                threads = raw
                    .parse()
                    .map_err(|_| CliError::Usage(format!("invalid --threads '{raw}'")))?;
            }
            "--format" => {
                format = match it.next() {
                    Some("text") => OutputFormat::Text,
                    Some("csv") => OutputFormat::Csv,
                    other => {
                        return Err(CliError::Usage(format!(
                            "--format must be text or csv, got {other:?}"
                        )))
                    }
                }
            }
            "--window" => {
                let raw =
                    it.next().ok_or_else(|| CliError::Usage("--window needs a value".into()))?;
                let w: usize = raw
                    .parse()
                    .map_err(|_| CliError::Usage(format!("invalid --window '{raw}'")))?;
                if w < 2 {
                    return Err(CliError::Usage("--window must be at least 2".into()));
                }
                window = Some(w);
            }
            "--no-explain" => explain = false,
            "--size-only" => size_only = true,
            "--checkpoint" => {
                let raw =
                    it.next().ok_or_else(|| CliError::Usage("--checkpoint needs a path".into()))?;
                checkpoint = Some(PathBuf::from(raw));
            }
            "--checkpoint-every" => {
                let raw = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--checkpoint-every needs a value".into()))?;
                let every: u64 = raw
                    .parse()
                    .map_err(|_| CliError::Usage(format!("invalid --checkpoint-every '{raw}'")))?;
                if every == 0 {
                    return Err(CliError::Usage("--checkpoint-every must be at least 1".into()));
                }
                checkpoint_every = Some(every);
            }
            "--resume" => {
                // serve's --resume is a flag (the source is
                // --checkpoint-dir); monitor's takes a snapshot path.
                if sub == "serve" {
                    serve_resume = true;
                } else {
                    let raw =
                        it.next().ok_or_else(|| CliError::Usage("--resume needs a path".into()))?;
                    resume = Some(PathBuf::from(raw));
                }
            }
            "--listen" => {
                let raw =
                    it.next().ok_or_else(|| CliError::Usage("--listen needs HOST:PORT".into()))?;
                listen = Some(raw.to_string());
            }
            "--unix" => {
                let raw = it.next().ok_or_else(|| CliError::Usage("--unix needs a path".into()))?;
                unix = Some(PathBuf::from(raw));
            }
            "--workers" => workers = parse_count(it.next(), "--workers")?,
            "--explain-queue" => {
                explain_queue = parse_count(it.next(), "--explain-queue")?;
                if explain_queue == 0 {
                    return Err(CliError::Usage("--explain-queue must be at least 1".into()));
                }
            }
            "--ring" => {
                ring = parse_count(it.next(), "--ring")?;
                if ring == 0 {
                    return Err(CliError::Usage("--ring must be at least 1".into()));
                }
            }
            "--max-series" => max_series = parse_count(it.next(), "--max-series")?,
            "--max-connections" => {
                max_connections = parse_count(it.next(), "--max-connections")?;
            }
            "--idle-timeout" => {
                let raw = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--idle-timeout needs seconds".into()))?;
                idle_timeout = raw
                    .parse()
                    .map_err(|_| CliError::Usage(format!("invalid --idle-timeout '{raw}'")))?;
            }
            "--io-timeout" => {
                let raw = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--io-timeout needs seconds".into()))?;
                io_timeout = raw
                    .parse()
                    .map_err(|_| CliError::Usage(format!("invalid --io-timeout '{raw}'")))?;
            }
            "--error-budget" => {
                let raw = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--error-budget needs a value".into()))?;
                error_budget = raw
                    .parse()
                    .map_err(|_| CliError::Usage(format!("invalid --error-budget '{raw}'")))?;
            }
            "--checkpoint-dir" => {
                let raw = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--checkpoint-dir needs a path".into()))?;
                checkpoint_dir = Some(PathBuf::from(raw));
            }
            "--sr-filter-window" => {
                let q = parse_count(it.next(), "--sr-filter-window")?;
                if q == 0 {
                    return Err(CliError::Usage("--sr-filter-window must be at least 1".into()));
                }
                sr_filter_window = Some(q);
            }
            "--sr-score-window" => {
                let z = parse_count(it.next(), "--sr-score-window")?;
                if z == 0 {
                    return Err(CliError::Usage("--sr-score-window must be at least 1".into()));
                }
                sr_score_window = Some(z);
            }
            "--preference" => {
                let raw = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--preference needs a value".into()))?;
                preference_set = true;
                preference = match raw {
                    "sr" => PreferenceSource::SpectralResidual,
                    "scores" => PreferenceSource::ScoreColumn,
                    "value-desc" => PreferenceSource::ValueDesc,
                    "value-asc" => PreferenceSource::ValueAsc,
                    "identity" => PreferenceSource::Identity,
                    other if other.starts_with("score-file:") => PreferenceSource::ScoreFile(
                        PathBuf::from(other.trim_start_matches("score-file:")),
                    ),
                    other => return Err(CliError::Usage(format!("unknown preference '{other}'"))),
                };
            }
            positional => positionals.push(positional),
        }
    }

    let two_files = |positionals: &[&str]| -> Result<(PathBuf, PathBuf), CliError> {
        if positionals.len() != 2 {
            return Err(CliError::Usage(format!(
                "expected <REF> <TEST>, got {} positional argument(s)",
                positionals.len()
            )));
        }
        Ok((PathBuf::from(positionals[0]), PathBuf::from(positionals[1])))
    };

    match sub {
        "test" => {
            let (reference, test) = two_files(&positionals)?;
            Ok(Command::Test { reference, test, alpha })
        }
        "size" => {
            let (reference, test) = two_files(&positionals)?;
            Ok(Command::Size { reference, test, alpha })
        }
        "explain" => {
            let (reference, test) = two_files(&positionals)?;
            Ok(Command::Explain { reference, test, alpha, preference, format })
        }
        "batch" => {
            if positionals.len() != 2 {
                return Err(CliError::Usage(format!(
                    "expected <REF> <WINDOWS>, got {} positional argument(s)",
                    positionals.len()
                )));
            }
            if matches!(preference, PreferenceSource::ScoreColumn | PreferenceSource::ScoreFile(_))
            {
                return Err(CliError::Usage(
                    "batch supports --preference sr | value-desc | value-asc | identity".into(),
                ));
            }
            Ok(Command::Batch {
                reference: PathBuf::from(positionals[0]),
                windows: PathBuf::from(positionals[1]),
                alpha,
                threads,
                preference,
                format,
                size_only,
            })
        }
        "batch2d" => {
            if positionals.len() != 2 {
                return Err(CliError::Usage(format!(
                    "expected <REF> <WINDOWS>, got {} positional argument(s)",
                    positionals.len()
                )));
            }
            // 2-D points carry no scalar order, so the only preference is
            // the window's input order; anything else would silently rank
            // points by a meaning they do not have.
            if preference_set && preference != PreferenceSource::Identity {
                return Err(CliError::Usage(
                    "batch2d supports --preference identity only (points have no scalar order)"
                        .into(),
                ));
            }
            Ok(Command::Batch2d {
                reference: PathBuf::from(positionals[0]),
                windows: PathBuf::from(positionals[1]),
                alpha,
                threads,
                format,
            })
        }
        "monitor" => {
            if positionals.len() != 1 {
                return Err(CliError::Usage("monitor expects one <SERIES> file".into()));
            }
            if window.is_none() && resume.is_none() {
                return Err(CliError::Usage("monitor requires --window W (or --resume)".into()));
            }
            if checkpoint_every.is_some() && checkpoint.is_none() {
                return Err(CliError::Usage("--checkpoint-every requires --checkpoint".into()));
            }
            Ok(Command::Monitor {
                series: PathBuf::from(positionals[0]),
                window,
                alpha,
                explain,
                size_only,
                checkpoint,
                checkpoint_every,
                resume,
            })
        }
        "serve" => {
            if !positionals.is_empty() {
                return Err(CliError::Usage("serve takes no positional arguments".into()));
            }
            let listen = match (listen, unix) {
                (Some(addr), None) => crate::serve::Listen::Tcp(addr),
                (None, Some(path)) => crate::serve::Listen::Unix(path),
                (None, None) => {
                    return Err(CliError::Usage(
                        "serve requires --listen HOST:PORT or --unix PATH".into(),
                    ))
                }
                (Some(_), Some(_)) => {
                    return Err(CliError::Usage(
                        "--listen and --unix are mutually exclusive".into(),
                    ))
                }
            };
            let Some(window) = window else {
                return Err(CliError::Usage("serve requires --window W".into()));
            };
            if checkpoint_every.is_some() && checkpoint_dir.is_none() {
                return Err(CliError::Usage("--checkpoint-every requires --checkpoint-dir".into()));
            }
            if serve_resume && checkpoint_dir.is_none() {
                return Err(CliError::Usage("serve --resume requires --checkpoint-dir".into()));
            }
            Ok(Command::Serve(crate::serve::ServeOptions {
                listen,
                window,
                alpha,
                workers,
                explain,
                size_only,
                explain_queue,
                ring,
                max_series,
                max_connections,
                idle_timeout,
                io_timeout,
                error_budget,
                handle_signals: true,
                checkpoint_dir,
                checkpoint_every,
                resume: serve_resume,
                sr_filter_window,
                sr_score_window,
            }))
        }
        _ => Err(unknown_command()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(args: &[&str]) -> Command {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn parse_err(args: &[&str]) -> CliError {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap_err()
    }

    #[test]
    fn parses_test_command() {
        match parse_ok(&["test", "r.txt", "t.txt"]) {
            Command::Test { reference, test, alpha } => {
                assert_eq!(reference, PathBuf::from("r.txt"));
                assert_eq!(test, PathBuf::from("t.txt"));
                assert_eq!(alpha, 0.05);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_alpha_override() {
        match parse_ok(&["size", "r", "t", "--alpha", "0.1"]) {
            Command::Size { alpha, .. } => assert_eq!(alpha, 0.1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(parse_err(&["size", "r", "t", "--alpha", "2"]), CliError::Usage(_)));
        assert!(matches!(parse_err(&["size", "r", "t", "--alpha"]), CliError::Usage(_)));
    }

    #[test]
    fn parses_preference_sources() {
        let cases: Vec<(&str, PreferenceSource)> = vec![
            ("sr", PreferenceSource::SpectralResidual),
            ("scores", PreferenceSource::ScoreColumn),
            ("value-desc", PreferenceSource::ValueDesc),
            ("value-asc", PreferenceSource::ValueAsc),
            ("identity", PreferenceSource::Identity),
            ("score-file:s.txt", PreferenceSource::ScoreFile(PathBuf::from("s.txt"))),
        ];
        for (raw, expected) in cases {
            match parse_ok(&["explain", "r", "t", "--preference", raw]) {
                Command::Explain { preference, .. } => assert_eq!(preference, expected),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(matches!(
            parse_err(&["explain", "r", "t", "--preference", "bogus"]),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn parses_monitor() {
        match parse_ok(&["monitor", "s.txt", "--window", "200", "--no-explain"]) {
            Command::Monitor { series, window, alpha, explain, size_only, .. } => {
                assert_eq!(series, PathBuf::from("s.txt"));
                assert_eq!(window, Some(200));
                assert_eq!(alpha, 0.05);
                assert!(!explain);
                assert!(!size_only);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_ok(&["monitor", "s.txt", "--window", "50", "--size-only"]) {
            Command::Monitor { size_only, .. } => assert!(size_only),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(parse_err(&["monitor", "s.txt"]), CliError::Usage(_)));
        assert!(matches!(parse_err(&["monitor", "s.txt", "--window", "1"]), CliError::Usage(_)));
    }

    #[test]
    fn parses_monitor_checkpoint_flags() {
        match parse_ok(&[
            "monitor",
            "s.txt",
            "--window",
            "50",
            "--checkpoint",
            "state.snap",
            "--checkpoint-every",
            "500",
        ]) {
            Command::Monitor { checkpoint, checkpoint_every, resume, .. } => {
                assert_eq!(checkpoint, Some(PathBuf::from("state.snap")));
                assert_eq!(checkpoint_every, Some(500));
                assert_eq!(resume, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        // --resume carries the configuration, so --window becomes optional.
        match parse_ok(&["monitor", "s.txt", "--resume", "state.snap"]) {
            Command::Monitor { window, resume, .. } => {
                assert_eq!(window, None);
                assert_eq!(resume, Some(PathBuf::from("state.snap")));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Cadence without a destination is meaningless.
        assert!(matches!(
            parse_err(&["monitor", "s.txt", "--window", "50", "--checkpoint-every", "10"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            parse_err(&[
                "monitor",
                "s.txt",
                "--window",
                "50",
                "--checkpoint",
                "p",
                "--checkpoint-every",
                "0"
            ]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            parse_err(&["monitor", "s.txt", "--window", "50", "--checkpoint"]),
            CliError::Usage(_)
        ));
        assert!(matches!(parse_err(&["monitor", "s.txt", "--resume"]), CliError::Usage(_)));
    }

    #[test]
    fn parses_batch() {
        match parse_ok(&["batch", "r.txt", "w.csv", "--threads", "8", "--alpha", "0.1"]) {
            Command::Batch {
                reference,
                windows,
                alpha,
                threads,
                preference,
                format,
                size_only,
            } => {
                assert_eq!(reference, PathBuf::from("r.txt"));
                assert_eq!(windows, PathBuf::from("w.csv"));
                assert_eq!(alpha, 0.1);
                assert_eq!(threads, 8);
                assert_eq!(preference, PreferenceSource::SpectralResidual);
                assert_eq!(format, OutputFormat::Text);
                assert!(!size_only);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_ok(&["batch", "r.txt", "w.csv", "--size-only"]) {
            Command::Batch { size_only, .. } => assert!(size_only),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(parse_err(&["batch", "r.txt"]), CliError::Usage(_)));
        assert!(matches!(
            parse_err(&["batch", "r", "w", "--preference", "scores"]),
            CliError::Usage(_)
        ));
        assert!(matches!(parse_err(&["batch", "r", "w", "--threads", "many"]), CliError::Usage(_)));
    }

    #[test]
    fn parses_batch2d() {
        match parse_ok(&["batch2d", "r.txt", "w.csv", "--threads", "4", "--alpha", "0.1"]) {
            Command::Batch2d { reference, windows, alpha, threads, format } => {
                assert_eq!(reference, PathBuf::from("r.txt"));
                assert_eq!(windows, PathBuf::from("w.csv"));
                assert_eq!(alpha, 0.1);
                assert_eq!(threads, 4);
                assert_eq!(format, OutputFormat::Text);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_ok(&["batch2d", "r", "w", "--format", "csv"]) {
            Command::Batch2d { format, .. } => assert_eq!(format, OutputFormat::Csv),
            other => panic!("unexpected {other:?}"),
        }
        // Input order is the only meaningful 2-D preference: saying so
        // explicitly is allowed, any other source is a usage error.
        match parse_ok(&["batch2d", "r", "w", "--preference", "identity"]) {
            Command::Batch2d { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse_err(&["batch2d", "r", "w", "--preference", "sr"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            parse_err(&["batch2d", "r", "w", "--preference", "value-desc"]),
            CliError::Usage(_)
        ));
        assert!(matches!(parse_err(&["batch2d", "r", "w", "--size-only"]), CliError::Usage(_)));
        assert!(matches!(parse_err(&["batch2d", "r"]), CliError::Usage(_)));
    }

    #[test]
    fn parses_serve() {
        match parse_ok(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--window",
            "64",
            "--workers",
            "4",
            "--checkpoint-dir",
            "ckpt",
            "--checkpoint-every",
            "500",
            "--resume",
            "--explain-queue",
            "32",
            "--ring",
            "2048",
            "--max-series",
            "100000",
            "--max-connections",
            "64",
            "--idle-timeout",
            "120",
            "--io-timeout",
            "5",
            "--error-budget",
            "10",
            "--sr-filter-window",
            "5",
            "--sr-score-window",
            "9",
        ]) {
            Command::Serve(opts) => {
                assert_eq!(opts.listen, crate::serve::Listen::Tcp("127.0.0.1:0".into()));
                assert_eq!(opts.window, 64);
                assert_eq!(opts.workers, 4);
                assert_eq!(opts.checkpoint_dir, Some(PathBuf::from("ckpt")));
                assert_eq!(opts.checkpoint_every, Some(500));
                assert!(opts.resume);
                assert_eq!(opts.explain_queue, 32);
                assert_eq!(opts.ring, 2048);
                assert_eq!(opts.max_series, 100_000);
                assert_eq!(opts.max_connections, 64);
                assert_eq!(opts.idle_timeout, 120);
                assert_eq!(opts.io_timeout, 5);
                assert_eq!(opts.error_budget, 10);
                assert!(opts.handle_signals, "the CLI always installs signal drain");
                assert_eq!(opts.sr_filter_window, Some(5));
                assert_eq!(opts.sr_score_window, Some(9));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_ok(&["serve", "--unix", "/tmp/moche.sock", "--window", "8"]) {
            Command::Serve(opts) => {
                assert_eq!(
                    opts.listen,
                    crate::serve::Listen::Unix(PathBuf::from("/tmp/moche.sock"))
                );
                assert_eq!(opts.workers, 0, "default = auto");
                assert!(!opts.resume);
                assert_eq!(opts.max_connections, 1024, "default cap");
                assert_eq!(opts.idle_timeout, 300, "default idle budget");
                assert_eq!(opts.io_timeout, 30, "default I/O budget");
                assert_eq!(opts.error_budget, 3, "default error budget");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serve_usage_errors() {
        // No listener, no window, both listeners, cadence/resume without
        // a checkpoint dir, zero-size knobs: all usage errors.
        assert!(matches!(parse_err(&["serve", "--window", "8"]), CliError::Usage(_)));
        assert!(matches!(parse_err(&["serve", "--listen", "h:1"]), CliError::Usage(_)));
        assert!(matches!(
            parse_err(&["serve", "--listen", "h:1", "--unix", "p", "--window", "8"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            parse_err(&["serve", "--listen", "h:1", "--window", "8", "--checkpoint-every", "5"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            parse_err(&["serve", "--listen", "h:1", "--window", "8", "--resume"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            parse_err(&["serve", "--listen", "h:1", "--window", "8", "--ring", "0"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            parse_err(&["serve", "--listen", "h:1", "--window", "8", "--sr-filter-window", "0"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            parse_err(&["serve", "--listen", "h:1", "--window", "8", "extra"]),
            CliError::Usage(_)
        ));
        for flag in ["--max-connections", "--idle-timeout", "--io-timeout", "--error-budget"] {
            assert!(
                matches!(
                    parse_err(&["serve", "--listen", "h:1", "--window", "8", flag, "nope"]),
                    CliError::Usage(_)
                ),
                "{flag} must reject non-numeric values"
            );
            assert!(
                matches!(
                    parse_err(&["serve", "--listen", "h:1", "--window", "8", flag]),
                    CliError::Usage(_)
                ),
                "{flag} must require a value"
            );
        }
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse_ok(&["help"]), Command::Help);
        assert_eq!(parse_ok(&["--help"]), Command::Help);
        assert_eq!(parse_ok(&[]), Command::Help);
    }

    #[test]
    fn rejects_unknown_commands_and_flags() {
        assert!(matches!(parse_err(&["frobnicate"]), CliError::Usage(_)));
        assert!(matches!(parse_err(&["test", "r", "t", "--bogus"]), CliError::Usage(_)));
        assert!(matches!(parse_err(&["test", "r"]), CliError::Usage(_)));
        assert!(matches!(parse_err(&["test", "r", "t", "x"]), CliError::Usage(_)));
    }

    #[test]
    fn a_flag_the_subcommand_does_not_take_is_a_usage_error() {
        let rejected = [
            ("monitor s --window 100 --sr-filter-window 7", "--sr-filter-window"),
            ("monitor s --window 100 --threads 9", "--threads"),
            ("monitor s --window 100 --ring 5", "--ring"),
            ("monitor s --window 100 --listen x:1", "--listen"),
            ("explain r t --size-only", "--size-only"),
            ("explain r t --threads 4", "--threads"),
            ("test r t --format csv", "--format"),
            ("test r t --checkpoint-dir /x", "--checkpoint-dir"),
            ("size r t --preference identity", "--preference"),
            ("batch r w --window 5", "--window"),
            ("batch r w --no-explain", "--no-explain"),
            ("batch2d r w --size-only", "--size-only"),
            ("serve --listen h:1 --window 8 --threads 2", "--threads"),
            ("serve --listen h:1 --window 8 --checkpoint c", "--checkpoint"),
        ];
        for (line, flag) in rejected {
            let sub = line.split(' ').next().unwrap();
            match parse_err(&line.split(' ').collect::<Vec<_>>()) {
                CliError::Usage(msg) => {
                    assert_eq!(msg, format!("'moche {sub}' does not take '{flag}'"), "{line}")
                }
                other => panic!("{line}: expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn format_parsing() {
        match parse_ok(&["explain", "r", "t", "--format", "csv"]) {
            Command::Explain { format, .. } => assert_eq!(format, OutputFormat::Csv),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(parse_err(&["explain", "r", "t", "--format", "xml"]), CliError::Usage(_)));
    }
}
