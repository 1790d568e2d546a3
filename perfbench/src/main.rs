//! `perfbench`: the end-to-end benchmark for `moche serve` and `moche
//! batch`, and its traced per-layer replay.
//!
//! ```text
//! perfbench --workload serve_ingest|serve_drift|batch_explain|all
//!           --seed N --seconds S --trace 0|1 --moche PATH
//! ```
//!
//! With `--trace 0` a run drives the real release binary and reports the
//! end-to-end metrics; with `--trace 1` it replays the same generated
//! inputs in-process and reports the per-layer metrics. Either way the last
//! line of stdout is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`), the readable report goes to stderr, and the exit code is
//! non-zero when any output disagreed with its oracle. Generated files,
//! checkpoints and traces go to `.bench_work/<workload>/`.

mod client;
mod e2e;
mod gen;
mod replay;
mod report;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;

pub const WORKLOADS: [&str; 3] = ["serve_ingest", "serve_drift", "batch_explain"];

/// The end-to-end metrics every `--trace 0` run reports.
pub const END_TO_END: [&str; 4] = ["setup_s", "throughput_per_s", "latency_p50_ms", "peak_rss_mb"];

/// The per-layer metrics every `--trace 1` run reports.
pub const PER_LAYER: [&str; 33] = [
    "protocol.decode_ns_per_frame",
    "fleet.push_ns_p50",
    "fleet.push_ns_p99",
    "incremental.slide_ns_p50",
    "incremental.outcome_ns_p50",
    "ref_index.slide_ns_p50",
    "serve.ring_overhead_ns_per_obs",
    "fleet.warm_push_ns_p50",
    "fleet.bytes_per_series",
    "snapshot.bytes_per_series",
    "snapshot.checkpoint_ms_p50",
    "fleet.alarm_push_ns_p50",
    "fleet.drain_explain_ms_p50",
    "fleet.drain_explain_ms_p99",
    "ref_index.rebuild_ms_p50",
    "serve.explain_wait_ms_p50",
    "loadgen.lag_p99_ms",
    "sr.score_ms_p50",
    "explain.splice_ms_p50",
    "explain.phase1_ms_p50",
    "explain.phase2_ms_p50",
    "explain.arena_us_p50",
    "explain.total_ms_p50",
    "explain.stage_sum_ratio",
    "explain.k_mean",
    "explain.phase1_checks_mean",
    "explain.phase2_checks_mean",
    "ks.test_ms_p50",
    "io.parse_ms_per_window",
    "batch.pool_efficiency",
    "fleet.alarms",
    "fleet.explained",
    "fleet.explain_dropped",
];

/// What every workload needs to run.
#[derive(Clone)]
pub struct Ctx {
    /// The `moche` binary under test.
    pub moche: PathBuf,
    /// Scratch directory for generated files, checkpoints and traces.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

struct Args {
    workloads: Vec<&'static str>,
    trace: bool,
    ctx: Ctx,
}

const USAGE: &str = "usage: perfbench --workload serve_ingest|serve_drift|batch_explain|all \
                     --seed N --seconds S --trace 0|1 --moche PATH";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut moche = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--moche" => moche = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = match workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        name => vec![*WORKLOADS
            .iter()
            .find(|w| **w == name)
            .ok_or(format!("unknown workload {name}"))?],
    };
    let moche: PathBuf = moche.ok_or("--moche is required")?;
    if !moche.is_file() {
        return Err(format!("the moche binary {} does not exist; build it first", moche.display()));
    }
    Ok(Args {
        workloads,
        trace,
        ctx: Ctx {
            moche,
            work: PathBuf::from(".bench_work"),
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
        },
    })
}

/// Runs one workload and checks it reported every metric it owes.
fn run(args: &Args, workload: &str) -> Result<Report, String> {
    let ctx = Ctx { work: args.ctx.work.join(workload), ..args.ctx.clone() };
    std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("create {}: {e}", ctx.work.display()))?;
    let mut report = Report::default();
    let expected: &[&str] = if args.trace {
        replay::traced(&ctx, workload, &mut report)?;
        &PER_LAYER
    } else {
        match workload {
            "serve_ingest" => e2e::serve_ingest(&ctx, &mut report)?,
            "serve_drift" => e2e::serve_drift(&ctx, &mut report)?,
            _ => e2e::batch_explain(&ctx, &mut report)?,
        }
        &END_TO_END
    };
    for name in expected {
        if !report.metrics.iter().any(|m| m.name == *name) {
            return Err(format!("the run did not measure {name}"));
        }
    }
    report.metrics.retain(|m| expected.contains(&m.name));
    report.metrics.sort_by_key(|m| expected.iter().position(|n| *n == m.name));
    Ok(report)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut all_correct = true;
    for workload in &args.workloads {
        let mode = if args.trace { "traced replay" } else { "end to end" };
        let title = format!("{workload} ({mode}, seed {}, {} s)", args.ctx.seed, args.ctx.seconds);
        let report = match run(&args, workload) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                std::process::exit(1);
            }
        };
        eprint!("{}", report.render(&title));
        match report.json() {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                std::process::exit(1);
            }
        }
        all_correct &= report.correct();
    }
    if !all_correct {
        eprintln!("perfbench: outputs disagreed with their oracles");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names the benchmark reports are exactly the ones
    /// `BENCHMARK.json` declares, in both modes.
    #[test]
    fn benchmark_json_declares_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |section: &str| -> Vec<String> {
            let start = json.find(&format!("\"{section}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section ends")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        assert_eq!(names("workloads"), WORKLOADS);
    }

    #[test]
    fn arguments_parse() {
        let args: Vec<String> = [
            "--workload",
            "all",
            "--seed",
            "4",
            "--seconds",
            "2.5",
            "--trace",
            "1",
            "--moche",
            "/bin/sh",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let parsed = parse_args(&args).unwrap();
        assert_eq!(parsed.workloads, WORKLOADS);
        assert!(parsed.trace);
        assert_eq!((parsed.ctx.seed, parsed.ctx.seconds), (4, 2.5));
        let bad = |extra: &[&str]| {
            let mut a = args.clone();
            a.extend(extra.iter().map(|s| s.to_string()));
            parse_args(&a).is_err()
        };
        assert!(bad(&["--trace", "2"]));
        assert!(bad(&["--workload", "nope"]));
        assert!(bad(&["--seconds", "0"]));
        assert!(bad(&["--frobnicate"]));
    }
}
