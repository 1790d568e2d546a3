//! End-to-end soak of the `moche serve` daemon: the real binary, a real
//! TCP socket, a real `kill -9`, a checkpoint resume — and an
//! uninterrupted in-process reference fleet to prove **zero lost
//! alarms**.
//!
//! The harness is the CI `fleet-soak` lane:
//!
//! 1. start the daemon with per-shard checkpointing, push the first part
//!    of a deterministic multi-series script over the binary protocol;
//! 2. `SIGKILL` it mid-stream — no flush, no goodbye;
//! 3. restart with `--resume`, ask each series for its durable offset
//!    (`SERIES` doubles as a write barrier), replay the script from
//!    exactly there, and finish the load;
//! 4. compare per-series alarm counts against a reference fleet that ran
//!    the same script with no crash, and require a clean shutdown
//!    health line.
//!
//! Everything the run produces — both daemon logs, the checkpoint files,
//! and a machine-readable stats summary — lands in `target/fleet-soak/`
//! for CI to upload as artifacts.
//!
//! The `burst` cases send many OBS frames and one more request in a single
//! write: no way a connection can end or ask a question may lose an
//! observation its handler has decoded.

mod harness;

use harness::{artifact_dir, json_bool, json_u64, query, query_series, Daemon};
use moche_cli::protocol::{self, op, JsonObject};
use moche_stream::{FleetConfig, MonitorConfig, MonitorFleet};
use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Series in the scripted load.
const SERIES_N: u64 = 12;
/// Observations per series over the whole script.
const LEN: usize = 240;
/// Observations per series delivered before the `kill -9`.
const CUT: usize = 150;
/// `--window` for the daemon and the reference fleet.
const WINDOW: usize = 8;

/// The deterministic script: a small repeating pattern per series, with a
/// large mean shift at the halfway point (before the kill) and a second
/// one near the end (after the resume) — so alarm parity is checked on
/// both sides of the crash.
fn value(id: u64, i: usize) -> f64 {
    let base = ((i as u64 * 13 + id * 7) % 11) as f64 * 0.5;
    if i >= 200 {
        base + 90.0
    } else if i >= LEN / 2 {
        base + 40.0
    } else {
        base
    }
}

/// Spawns the soak daemon with this suite's fixed monitor configuration.
fn spawn_daemon(ckpt: &Path, resume: bool, log_path: &Path, faults: Option<&str>) -> Daemon {
    let window = WINDOW.to_string();
    let ckpt = ckpt.to_str().expect("utf-8 checkpoint path");
    let mut args = vec![
        "--window",
        window.as_str(),
        "--alpha",
        "0.05",
        "--workers",
        "2",
        "--checkpoint-every",
        "16",
        "--checkpoint-dir",
        ckpt,
    ];
    if resume {
        args.push("--resume");
    }
    Daemon::spawn(log_path, &args, faults)
}

#[test]
fn kill_dash_nine_soak_loses_no_alarms() {
    let dir = artifact_dir("fleet-soak");
    let ckpt = dir.join("checkpoints");

    // The uninterrupted truth: the same script through an in-process
    // fleet with the daemon's exact monitor configuration.
    let mut monitor = MonitorConfig::new(WINDOW, 0.05);
    monitor.explain_on_drift = true;
    let mut reference = MonitorFleet::new(FleetConfig::new(2, monitor)).expect("reference config");
    for i in 0..LEN {
        for id in 0..SERIES_N {
            reference.push(id, value(id, i)).expect("finite");
        }
    }
    let expected: Vec<u64> =
        (0..SERIES_N).map(|id| reference.series_stats(id).expect("tracked").alarms).collect();
    assert!(expected.iter().sum::<u64>() > 0, "the script must actually provoke alarms");

    // Phase 1: load the daemon, then kill it without ceremony. Under the
    // fault-injection feature the first accept also fails (injected) to
    // prove the MOCHE_FAULTS env wiring end to end.
    let faults =
        if cfg!(feature = "fault-injection") { Some("serve.accept=error:0:1") } else { None };
    let phase1_log = dir.join("daemon-phase1.log");
    let mut daemon = spawn_daemon(&ckpt, false, &phase1_log, faults);
    {
        let mut conn = TcpStream::connect(&daemon.addr).expect("connect");
        for i in 0..CUT {
            for id in 0..SERIES_N {
                conn.write_all(&protocol::encode_obs(id, value(id, i))).expect("send OBS");
            }
        }
        for id in 0..SERIES_N {
            let (found, pushes, _) = query_series(&mut conn, id);
            assert!(found && pushes == CUT as u64, "series {id}: barrier saw {pushes}/{CUT}");
        }
    }
    let shard_files = std::fs::read_dir(&ckpt)
        .expect("checkpoint dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
        .count();
    assert!(shard_files > 0, "at least one shard checkpointed before the kill");
    daemon.kill_dash_nine();

    // Phase 2: resume, replay each series from its durable offset, and
    // settle the books.
    let phase2_log = dir.join("daemon-phase2.log");
    let mut daemon = spawn_daemon(&ckpt, true, &phase2_log, None);
    let status;
    {
        let mut conn = TcpStream::connect(&daemon.addr).expect("reconnect");
        for id in 0..SERIES_N {
            let (found, pushes, _) = query_series(&mut conn, id);
            let from = if found { pushes as usize } else { 0 };
            assert!(from <= CUT, "series {id}: resumed past what was ever sent ({from})");
            for i in from..LEN {
                conn.write_all(&protocol::encode_obs(id, value(id, i))).expect("send OBS");
            }
        }
        let mut summary = JsonObject::new();
        for id in 0..SERIES_N {
            let (found, pushes, alarms) = query_series(&mut conn, id);
            assert!(found, "series {id} must survive the crash");
            assert_eq!(pushes, LEN as u64, "series {id}: observations lost or duplicated");
            assert_eq!(
                alarms, expected[id as usize],
                "series {id}: alarms lost (or invented) across kill -9 + resume"
            );
            summary = summary.field_u64(&format!("series_{id}_alarms"), alarms);
        }
        status = query(&mut conn, op::STATUS);
        assert_eq!(json_u64(&status, "worker_panics"), 0);
        assert_eq!(json_u64(&status, "skipped_observations"), 0);
        let total: u64 = expected.iter().sum();
        let stats = summary
            .field_u64("total_alarms", total)
            .field_u64("series", SERIES_N)
            .field_u64("script_len", LEN as u64)
            .field_u64("killed_after", CUT as u64)
            .build();
        std::fs::write(dir.join("soak-stats.json"), format!("{stats}\n{status}\n"))
            .expect("write stats artifact");
        let shutdown = query(&mut conn, op::SHUTDOWN);
        assert!(json_bool(&shutdown, "clean"), "shutdown status must be clean: {shutdown}");
    }
    daemon.wait_clean_exit();

    let log = std::fs::read_to_string(&phase2_log).expect("phase-2 log");
    assert!(
        log.contains("health: 0 worker panic(s), 0 skipped observation(s)"),
        "resumed run must end healthy:\n{log}"
    );
    assert!(!log.contains("[DEGRADED]"), "resumed run must not be degraded:\n{log}");
    if cfg!(feature = "fault-injection") {
        let log1 = std::fs::read_to_string(&phase1_log).expect("phase-1 log");
        assert!(
            log1.contains("ACCEPT failed (injected): retrying"),
            "MOCHE_FAULTS wiring must reach the accept seam:\n{log1}"
        );
    }
}

/// Observations in one burst, spread over [`BURST_SERIES`] series and both
/// shards, so the handler holds a partial chunk for each shard when the
/// burst ends.
const BURST: u64 = 1000;
const BURST_SERIES: u64 = 7;

/// `BURST` OBS frames followed by `tail`, as one write.
fn burst_then(tail: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for i in 0..BURST {
        bytes.extend_from_slice(&protocol::encode_obs(i % BURST_SERIES, ((i * 13) % 11) as f64));
    }
    bytes.extend_from_slice(tail);
    bytes
}

fn spawn_burst_daemon(name: &str) -> (Daemon, std::path::PathBuf) {
    let log = artifact_dir(name).join("daemon.log");
    (Daemon::spawn(&log, &["--window", "64", "--workers", "2"], None), log)
}

/// `accepted` from STATUS on fresh connections, once it reaches `expected`
/// or 10 s have passed. STATUS reads counters, not the rings, so a handler
/// still delivering its last chunk gets a moment.
fn settled_accepted(addr: &str, expected: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut conn = TcpStream::connect(addr).expect("connect");
        let accepted = json_u64(&query(&mut conn, op::STATUS), "accepted");
        if accepted >= expected || Instant::now() >= deadline {
            return accepted;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn observations_before_a_fatal_frame_are_applied() {
    let (daemon, _) = spawn_burst_daemon("burst-fatal");
    let mut conn = TcpStream::connect(&daemon.addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // A corrupt length prefix loses framing: the handler replies and exits.
    conn.write_all(&burst_then(&u32::MAX.to_le_bytes())).expect("send burst");
    let (opcode, body) = protocol::read_reply(&mut conn).expect("fatal reply");
    assert_eq!(opcode, op::ERR | op::REPLY);
    assert!(json_bool(&String::from_utf8(body).unwrap(), "fatal"));
    assert_eq!(settled_accepted(&daemon.addr, BURST), BURST);
}

#[test]
fn observations_before_a_close_are_applied() {
    let (daemon, _) = spawn_burst_daemon("burst-close");
    let mut conn = TcpStream::connect(&daemon.addr).expect("connect");
    conn.write_all(&burst_then(&[])).expect("send burst");
    drop(conn);
    assert_eq!(settled_accepted(&daemon.addr, BURST), BURST);
}

#[test]
fn observations_on_an_idle_open_connection_are_applied() {
    // The handler waits in a socket read with the burst decoded: the
    // chunks must reach their shards before that read, not when more
    // input (or the close) arrives.
    let (daemon, _) = spawn_burst_daemon("burst-idle");
    let mut conn = TcpStream::connect(&daemon.addr).expect("connect");
    conn.write_all(&burst_then(&[])).expect("send burst");
    assert_eq!(settled_accepted(&daemon.addr, BURST), BURST);
    drop(conn);
}

#[test]
fn observations_before_a_shutdown_are_applied() {
    let (mut daemon, log) = spawn_burst_daemon("burst-shutdown");
    let mut conn = TcpStream::connect(&daemon.addr).expect("connect");
    conn.write_all(&burst_then(&protocol::encode_op(op::SHUTDOWN))).expect("send burst");
    let (opcode, _) = protocol::read_reply(&mut conn).expect("SHUTDOWN reply");
    assert_eq!(opcode, op::SHUTDOWN | op::REPLY);
    daemon.wait_clean_exit();
    // The listener is gone; the final summary holds the shards' counts.
    let log = std::fs::read_to_string(log).expect("daemon log");
    let summary = format!("shutdown complete — {BURST_SERIES} series, {BURST} accepted");
    assert!(log.contains(&summary), "expected {summary:?} in:\n{log}");
}

#[test]
fn a_series_reply_counts_every_observation_before_it() {
    let (daemon, _) = spawn_burst_daemon("burst-series");
    let mut conn = TcpStream::connect(&daemon.addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut queries = Vec::new();
    for id in 0..BURST_SERIES {
        queries.extend_from_slice(&protocol::encode_series(id));
    }
    conn.write_all(&burst_then(&queries)).expect("send burst");
    for id in 0..BURST_SERIES {
        let (opcode, payload) = protocol::read_reply(&mut conn).expect("SERIES reply");
        assert_eq!(opcode, op::SERIES | op::REPLY);
        let json = String::from_utf8(payload).expect("JSON reply");
        let sent = (0..BURST).filter(|i| i % BURST_SERIES == id).count() as u64;
        assert!(json_bool(&json, "found"), "series {id}: {json}");
        assert_eq!(json_u64(&json, "pushes"), sent, "series {id}: {json}");
    }
}

/// Many connections, each writing one OBS frame per write, into rings of
/// 4 observations: every handler sends one-observation chunks, and most
/// sends wait for room. No observation is lost, and no handler waits
/// forever.
#[test]
fn many_single_observation_writers_share_a_small_ring() {
    const CONNS: u64 = 16;
    const PER_CONN: u64 = 200;
    let log = artifact_dir("fan-in").join("daemon.log");
    let daemon = Daemon::spawn(&log, &["--window", "8", "--workers", "2", "--ring", "4"], None);
    let writers: Vec<_> = (0..CONNS)
        .map(|c| {
            let addr = daemon.addr.clone();
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(&addr).expect("connect");
                conn.set_nodelay(true).unwrap();
                conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                for i in 0..PER_CONN {
                    let frame = protocol::encode_obs(c, ((i * 13 + c) % 11) as f64);
                    conn.write_all(&frame).expect("send one observation");
                }
                query_series(&mut conn, c)
            })
        })
        .collect();
    for (c, writer) in writers.into_iter().enumerate() {
        let (found, pushes, _) = writer.join().expect("writer thread");
        assert!(found, "series {c}");
        assert_eq!(pushes, PER_CONN, "series {c}");
    }
    assert_eq!(settled_accepted(&daemon.addr, CONNS * PER_CONN), CONNS * PER_CONN);
}
