//! End-to-end tests of the `moche` binary: real process spawns over real
//! files in a temporary directory.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_moche"))
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("moche-cli-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn write(&self, name: &str, content: &str) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, content).unwrap();
        path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn numbers(values: impl IntoIterator<Item = f64>) -> String {
    values.into_iter().map(|v| format!("{v}\n")).collect()
}

fn shifted_files(dir: &TempDir) -> (PathBuf, PathBuf) {
    let r = dir.write("ref.txt", &numbers((0..80).map(|i| f64::from(i % 8))));
    let t = dir.write("test.txt", &numbers((0..40).map(|i| f64::from(i % 8) + 4.0)));
    (r, t)
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("explain"));
}

#[test]
fn test_subcommand_detects_failure() {
    let dir = TempDir::new("test");
    let (r, t) = shifted_files(&dir);
    let out = bin().args(["test", r.to_str().unwrap(), t.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("FAILED"), "{stdout}");
}

#[test]
fn explain_csv_output_parses_back() {
    let dir = TempDir::new("explain");
    let (r, t) = shifted_files(&dir);
    let out = bin()
        .args([
            "explain",
            r.to_str().unwrap(),
            t.to_str().unwrap(),
            "--preference",
            "value-desc",
            "--format",
            "csv",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut lines = stdout.lines();
    assert_eq!(lines.next(), Some("index,value"));
    let mut count = 0;
    for line in lines {
        let (idx, val) = line.split_once(',').expect("csv row");
        let idx: usize = idx.parse().unwrap();
        let val: f64 = val.parse().unwrap();
        assert!(idx < 40);
        assert!(val.is_finite());
        count += 1;
    }
    assert!(count >= 1);
}

#[test]
fn size_subcommand_reports_k() {
    let dir = TempDir::new("size");
    let (r, t) = shifted_files(&dir);
    let out = bin().args(["size", r.to_str().unwrap(), t.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("explanation size k ="), "{stdout}");
}

#[test]
fn monitor_detects_level_shift() {
    let dir = TempDir::new("monitor");
    let mut series: Vec<f64> = (0..200).map(|i| f64::from(i % 7)).collect();
    series.extend((0..200).map(|i| f64::from(i % 7) + 30.0));
    let path = dir.write("series.txt", &numbers(series));
    let out = bin().args(["monitor", path.to_str().unwrap(), "--window", "50"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("DRIFT"), "{stdout}");
}

#[test]
fn monitor_with_non_finite_observations_exits_nonzero_without_panicking() {
    // `nan` and `inf` parse as valid f64: a corrupt data file used to trip
    // the monitor's finiteness assert and abort the process. It must now
    // report the offending indices, keep monitoring, and exit 1.
    let dir = TempDir::new("monitor-nan");
    let mut series: Vec<f64> = (0..200).map(|i| f64::from(i % 7)).collect();
    series.extend((0..200).map(|i| f64::from(i % 7) + 30.0));
    let mut content = numbers(series);
    content.push_str("nan\ninf\n-inf\n");
    let path = dir.write("series.txt", &content);
    let out = bin().args(["monitor", path.to_str().unwrap(), "--window", "50"]).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}\nstderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stdout.contains("t = 400: skipped non-finite observation"), "{stdout}");
    assert!(stdout.contains("3 non-finite observation(s) skipped"), "{stdout}");
    assert!(stdout.contains("DRIFT"), "the level shift must still be detected: {stdout}");
}

fn windows_file(dir: &TempDir) -> (PathBuf, PathBuf) {
    let r = dir.write("ref.txt", &numbers((0..80).map(|i| f64::from(i % 8))));
    let content: String = (0..5)
        .map(|w| {
            (0..40)
                .map(|i| (f64::from((i + w) % 8) + 4.0).to_string())
                .collect::<Vec<_>>()
                .join(",")
                + "\n"
        })
        .collect();
    let windows = dir.write("wins.csv", &content);
    (r, windows)
}

/// The csv rows of window `w`, without the window column.
fn window_rows(csv: &str, w: usize) -> Vec<String> {
    let prefix = format!("{w},");
    csv.lines().filter_map(|l| l.strip_prefix(&prefix)).map(String::from).collect()
}

/// Every window's rows equal `moche explain` run on that window alone.
#[test]
fn batch_rows_match_explain_per_window() {
    let dir = TempDir::new("batch-vs-explain");
    let (r, w) = windows_file(&dir);
    let out = bin()
        .args(["batch", r.to_str().unwrap(), w.to_str().unwrap(), "--format", "csv"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let batch = String::from_utf8(out.stdout).unwrap();
    assert!(batch.lines().any(|l| l.starts_with("# threads: ")), "{batch}");
    let content = std::fs::read_to_string(&w).unwrap();
    for (i, line) in content.lines().enumerate() {
        let t = dir.write(&format!("window-{i}.txt"), &line.replace(',', "\n"));
        let out = bin()
            .args(["explain", r.to_str().unwrap(), t.to_str().unwrap(), "--format", "csv"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let single = String::from_utf8(out.stdout).unwrap();
        let expected: Vec<String> = single.lines().skip(1).map(String::from).collect();
        assert!(!expected.is_empty());
        assert_eq!(window_rows(&batch, i), expected, "window {i}");
    }
}

/// A malformed line ends the run with exit code 1 and a located error, after
/// the results of the windows before it have been printed.
#[test]
fn batch_malformed_line_exits_1_after_earlier_results() {
    let dir = TempDir::new("batch-malformed");
    let (r, w) = windows_file(&dir);
    let good = std::fs::read_to_string(&w).unwrap();
    let first = good.lines().next().unwrap();
    let bad = dir.write("bad.csv", &format!("{first}\n1,oops,3\n{first}\n"));
    let out = bin()
        .args(["batch", r.to_str().unwrap(), bad.to_str().unwrap(), "--format", "csv"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!window_rows(&stdout, 0).is_empty(), "{stdout}");
    assert!(window_rows(&stdout, 1).is_empty(), "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad.csv:2"), "location in stderr");
}

#[test]
fn stream_flag_is_an_unknown_flag() {
    let dir = TempDir::new("stream-flag");
    let (r, w) = windows_file(&dir);
    for sub in ["batch", "batch2d"] {
        let out = bin()
            .args([sub, r.to_str().unwrap(), w.to_str().unwrap(), "--stream"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{sub}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"), "{sub}");
    }
}

#[test]
fn batch_sr_output_does_not_depend_on_the_thread_count() {
    // Each worker recycles its own Spectral Residual scratch, so the
    // windows it scored before differ with the thread count; the scores,
    // and therefore the explanations, must not. Lengths 60, 1,000 and
    // 10,000 pad to different FFT lengths, in an order that makes a worker
    // score a short window after a long one.
    let dir = TempDir::new("batch-sr-threads");
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut noise = move || ((unit() + unit() + unit() - 1.5) * 1e4).round() / 1e4;
    let r = dir.write("ref.txt", &numbers((0..2000).map(|_| noise())));
    let content: String = [10_000usize, 60, 1000, 60, 10_000, 1000, 60]
        .iter()
        .map(|&m| {
            let shifted = (m / 10).max(12);
            let row: Vec<String> = (0..m)
                .map(|i| (noise() + if i < shifted { 3.0 } else { 0.0 }).to_string())
                .collect();
            row.join(",") + "\n"
        })
        .collect();
    let w = dir.write("wins.csv", &content);
    let run = |threads: &str| {
        let out = bin()
            .args(["batch", r.to_str().unwrap(), w.to_str().unwrap(), "--format", "csv"])
            .args(["--threads", threads])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).unwrap();
        stdout.lines().filter(|l| !l.starts_with('#')).map(String::from).collect::<Vec<_>>()
    };
    let one = run("1");
    for window in 0..7 {
        let prefix = format!("{window},");
        assert!(one.iter().any(|l| l.starts_with(&prefix)), "window {window} has no rows");
    }
    assert_eq!(one, run("2"));
}

#[test]
fn batch_size_only_reports_sizes() {
    let dir = TempDir::new("batch-size-only");
    let (r, w) = windows_file(&dir);
    let out = bin()
        .args(["batch", r.to_str().unwrap(), w.to_str().unwrap(), "--size-only"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("window 0: k = "), "{stdout}");
    assert!(stdout.contains("sized"), "{stdout}");
}

#[test]
fn monitor_size_only_reports_sizes() {
    let dir = TempDir::new("monitor-size-only");
    let mut series: Vec<f64> = (0..200).map(|i| f64::from(i % 7)).collect();
    series.extend((0..200).map(|i| f64::from(i % 7) + 30.0));
    let path = dir.write("series.txt", &numbers(series));
    let out = bin()
        .args(["monitor", path.to_str().unwrap(), "--window", "50", "--size-only"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("DRIFT"), "{stdout}");
    assert!(stdout.contains("size: k = "), "{stdout}");
}

/// A windows file where every window errors (NaN parses as a float, then
/// fails input validation): the run must exit nonzero.
#[test]
fn batch_with_only_erroring_windows_exits_nonzero() {
    let dir = TempDir::new("batch-all-error");
    let r = dir.write("ref.txt", &numbers((0..80).map(|i| f64::from(i % 8))));
    let w = dir.write("wins.csv", "NaN,1,2,3,4\nNaN,5,6,7,8\n");
    let out = bin().args(["batch", r.to_str().unwrap(), w.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error:"), "per-window errors stay visible: {stdout}");
}

/// One healthy window among erroring ones keeps the run successful — the
/// nonzero exit is reserved for runs that explained nothing at all.
#[test]
fn batch_with_some_explained_windows_exits_zero() {
    let dir = TempDir::new("batch-mixed-error");
    let r = dir.write("ref.txt", &numbers((0..80).map(|i| f64::from(i % 8))));
    let good: String =
        (0..40).map(|i| (f64::from(i % 8) + 4.0).to_string()).collect::<Vec<_>>().join(",");
    let w = dir.write("wins.csv", &format!("NaN,1,2,3,4\n{good}\n"));
    let out = bin().args(["batch", r.to_str().unwrap(), w.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn missing_file_exits_nonzero_with_message() {
    let out = bin().args(["test", "/nonexistent/r.txt", "/nonexistent/t.txt"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn bad_usage_exits_with_code_2() {
    let out = bin().args(["explain", "only-one-file"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("try 'moche help'"));
}

#[test]
fn passing_test_explain_reports_nothing_to_do() {
    let dir = TempDir::new("pass");
    let r = dir.write("r.txt", &numbers((0..50).map(|i| f64::from(i % 5))));
    let out = bin().args(["explain", r.to_str().unwrap(), r.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("already passes"), "{stderr}");
}

#[test]
fn comments_and_score_columns_are_accepted() {
    let dir = TempDir::new("scores");
    let r = dir.write("r.txt", &numbers((0..80).map(|i| f64::from(i % 8))));
    let t_content: String = (0..40)
        .map(|i| format!("{} , {}\n", f64::from(i % 8) + 4.0, 40 - i))
        .chain(std::iter::once("# trailing comment\n".to_string()))
        .collect();
    let t = dir.write("t.txt", &t_content);
    let out = bin()
        .args([
            "explain",
            r.to_str().unwrap(),
            t.to_str().unwrap(),
            "--preference",
            "scores",
            "--format",
            "csv",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Highest score = earliest index, so index 0 should appear first.
    assert!(stdout.lines().nth(1).unwrap().starts_with("0,"), "{stdout}");
}

#[test]
fn monitor_checkpoint_resume_round_trip_matches_full_run() {
    let dir = TempDir::new("checkpoint");
    let mut series: Vec<f64> = (0..200).map(|i| f64::from(i % 7)).collect();
    series.extend((0..200).map(|i| f64::from(i % 7) + 30.0));
    let cut = 230;
    let full = dir.write("full.txt", &numbers(series.clone()));
    let head = dir.write("head.txt", &numbers(series[..cut].iter().copied()));
    let tail = dir.write("tail.txt", &numbers(series[cut..].iter().copied()));
    let snap = dir.0.join("state.snap");

    let full_out =
        bin().args(["monitor", full.to_str().unwrap(), "--window", "50"]).output().unwrap();
    assert!(full_out.status.success());
    let full_stdout = String::from_utf8(full_out.stdout).unwrap();

    let head_out = bin()
        .args([
            "monitor",
            head.to_str().unwrap(),
            "--window",
            "50",
            "--checkpoint",
            snap.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(head_out.status.success());
    let head_stdout = String::from_utf8(head_out.stdout).unwrap();
    assert!(head_stdout.contains("checkpoint(s) written"), "{head_stdout}");
    assert!(snap.exists(), "the checkpoint file must exist after the run");

    let tail_out = bin()
        .args(["monitor", tail.to_str().unwrap(), "--resume", snap.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(tail_out.status.success(), "stderr: {}", String::from_utf8_lossy(&tail_out.stderr));
    let tail_stdout = String::from_utf8(tail_out.stdout).unwrap();
    assert!(tail_stdout.contains("resumed from"), "{tail_stdout}");

    // The resumed run's alarms (minus the per-invocation `t = N` positions)
    // must be exactly the uninterrupted run's alarms after the cut.
    let alarms = |s: &str| {
        s.lines()
            .filter(|l| l.contains("DRIFT"))
            .map(|l| l.split_once(": ").unwrap().1.to_string())
            .collect::<Vec<_>>()
    };
    let head_plain =
        bin().args(["monitor", head.to_str().unwrap(), "--window", "50"]).output().unwrap();
    let pre_cut = alarms(&String::from_utf8(head_plain.stdout).unwrap()).len();
    assert_eq!(
        alarms(&tail_stdout),
        alarms(&full_stdout)[pre_cut..],
        "resume must replay the uninterrupted run's remaining alarms"
    );
}

#[test]
fn monitor_resume_failures_exit_with_code_3() {
    let dir = TempDir::new("resume-fail");
    let series = dir.write("series.txt", &numbers((0..100).map(|i| f64::from(i % 7))));

    // Missing snapshot file.
    let missing = dir.0.join("nope.snap");
    let out = bin()
        .args(["monitor", series.to_str().unwrap(), "--resume", missing.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("snapshot"));

    // Corrupt (truncated) snapshot file.
    let snap = dir.0.join("state.snap");
    let write = bin()
        .args([
            "monitor",
            series.to_str().unwrap(),
            "--window",
            "20",
            "--checkpoint",
            snap.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(write.status.success());
    let bytes = std::fs::read(&snap).unwrap();
    std::fs::write(&snap, &bytes[..bytes.len() - 5]).unwrap();
    let out = bin()
        .args(["monitor", series.to_str().unwrap(), "--resume", snap.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn monitor_checkpoint_usage_errors_exit_with_code_2() {
    let dir = TempDir::new("checkpoint-usage");
    let series = dir.write("series.txt", &numbers((0..50).map(f64::from)));
    // --checkpoint-every without --checkpoint is rejected at parse time.
    let out = bin()
        .args(["monitor", series.to_str().unwrap(), "--window", "20", "--checkpoint-every", "10"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--checkpoint"));
}

#[test]
fn monitor_rejects_a_serve_flag_with_code_2() {
    // `--sr-filter-window` sets the daemon's Spectral Residual window; the
    // monitor would run with its defaults, so the flag must not parse.
    let dir = TempDir::new("monitor-serve-flag");
    let series = dir.write("series.txt", &numbers((0..200).map(|i| f64::from(i % 7))));
    let args = ["--window", "100", "--sr-filter-window", "7"];
    let out = bin().arg("monitor").arg(&series).args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("'moche monitor' does not take '--sr-filter-window'"), "{stderr}");
}

#[test]
fn batch_reports_health_line() {
    let dir = TempDir::new("health");
    let (r, w) = windows_file(&dir);
    let out = bin().args(["batch", r.to_str().unwrap(), w.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("health: 0 worker panic(s)"), "{stdout}");
    let csv = bin()
        .args(["batch", r.to_str().unwrap(), w.to_str().unwrap(), "--format", "csv"])
        .output()
        .unwrap();
    let csv_stdout = String::from_utf8(csv.stdout).unwrap();
    assert!(csv_stdout.lines().any(|l| l.starts_with("# health:")), "{csv_stdout}");
}

/// A 2-D reference file plus a windows file of two failing windows (a
/// shifted cluster) and one passing window (the reference's own points).
fn point_files(dir: &TempDir) -> (PathBuf, PathBuf) {
    let point_lines: String = (0..80).map(|i| format!("{} {}\n", i % 9, i % 7)).collect();
    let r = dir.write("ref2d.txt", &point_lines);
    let failing: String = (0..80)
        .map(|i| {
            if i < 40 {
                format!("{} {}", i % 9, i % 7)
            } else if i < 65 {
                format!("{} 60", i - 40 + 60)
            } else {
                String::new()
            }
        })
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join(" ");
    let passing: String =
        (0..80).map(|i| format!("{} {}", i % 9, i % 7)).collect::<Vec<_>>().join(" ");
    let w = dir.write("windows2d.txt", &format!("{failing}\n{passing}\n{failing}\n"));
    (r, w)
}

#[test]
fn batch2d_csv_lists_point_offsets_per_window() {
    let dir = TempDir::new("batch2d");
    let (r, w) = point_files(&dir);
    let out = bin()
        .args(["batch2d", r.to_str().unwrap(), w.to_str().unwrap(), "--format", "csv"])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("window,index"), "{stdout}");
    assert!(stdout.lines().any(|l| l.starts_with("# health:")), "{stdout}");
    // Windows 0 and 2 are identical; both must select the same offsets,
    // and the passing window 1 contributes no rows.
    assert!(window_rows(&stdout, 1).is_empty(), "{stdout}");
    assert_eq!(window_rows(&stdout, 0), window_rows(&stdout, 2));
    assert!(!window_rows(&stdout, 0).is_empty());
}

#[test]
fn batch2d_text_reports_summary_and_health() {
    let dir = TempDir::new("batch2d-text");
    let (r, w) = point_files(&dir);
    let out = bin().args(["batch2d", r.to_str().unwrap(), w.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("window 0: k = "), "{stdout}");
    assert!(stdout.contains("window 1: passes"), "{stdout}");
    assert!(stdout.contains("2 explained, 1 passing"), "{stdout}");
    assert!(stdout.contains("health: 0 worker panic(s)"), "{stdout}");
}

#[test]
fn batch2d_usage_and_parse_errors_have_distinct_exit_codes() {
    let dir = TempDir::new("batch2d-errors");
    let (r, w) = point_files(&dir);
    // A non-identity preference is rejected at parse time (exit 2).
    let out = bin()
        .args(["batch2d", r.to_str().unwrap(), w.to_str().unwrap(), "--preference", "sr"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("identity"));
    // An odd coordinate count is a located parse error (exit 1).
    let odd = dir.write("odd.txt", "1 2 3\n");
    let out = bin().args(["batch2d", r.to_str().unwrap(), odd.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains(":1"), "location in stderr");
}
