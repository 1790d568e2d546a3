//! `moche serve`: the monitor-fleet daemon. A thin I/O shell — listener,
//! wire protocol, worker threads, checkpoint cadence — around
//! [`moche_stream::MonitorFleet`], which owns all the actual monitoring.
//!
//! ## Thread topology
//!
//! ```text
//!              accept loop ── one handler thread per connection
//!                                   │ routes by shard_of(series) into
//!                                   │ chunks: one read's observations
//!                                   │ per shard
//!             rings bounded in observations (backpressure)
//!                                   ▼
//!   shard worker 0..N  — each owns one FleetShard outright:
//!     push (never blocks on explains) → bounded explain queue →
//!     one ticket answered whenever the ring is empty → periodic
//!     atomic checkpoints
//!                                   │ log lines (unbounded mpsc)
//!                                   ▼
//!              the calling thread: single writer pumping the log
//! ```
//!
//! Backpressure is the ring: a handler blocks when a shard's ring has no
//! room for its chunk, which in turn stalls that client's TCP stream — an
//! accepted observation is never dropped (property-tested in
//! `moche-stream`). Slow explains shed *explanation work*, never alarms
//! and never pushes.
//!
//! ## Connection supervision
//!
//! Every accepted socket runs with a short read-timeout tick so its
//! handler can enforce deadlines and observe the shutdown flag without
//! ever blocking indefinitely on a peer:
//!
//! - **Idle budget** (`--idle-timeout`): a connection with no complete
//!   request for that long is evicted (a slow-loris peer or a half-open
//!   socket left by a crashed client).
//! - **Mid-frame stall budget** (`--io-timeout`): a frame whose first
//!   byte arrived but which has not completed within the budget is a
//!   stall — trickling one byte per tick does not reset it. The same
//!   budget is armed as the socket write timeout, so a client that never
//!   reads its replies (write-side backpressure) is evicted too.
//! - **Admission cap** (`--max-connections`): past the cap a new
//!   connection gets one binary-framed `BUSY` reply with a retry hint,
//!   then a close — the daemon never silently hangs a client.
//! - **Error budget** (`--error-budget`): a malformed frame or line gets
//!   a structured `ERR` reply naming the defect; a connection that spends
//!   its budget is closed. Unframeable byte streams (a corrupt length
//!   prefix, an unterminated oversized JSON line) close immediately.
//!
//! Every eviction and rejection is counted in [`FleetStats`], visible in
//! `STATUS` replies and in the final `health:` line.
//!
//! ## Graceful drain
//!
//! `SIGTERM`/`SIGINT` (and the wire `SHUTDOWN` request) flip the shutdown
//! flag and wake the accept loop by self-connecting: the daemon stops
//! accepting, lets in-flight handlers finish their current request or hit
//! their deadlines, drains the ingest rings, writes a final per-shard
//! checkpoint, prints the `health:` line, and exits 0.
//!
//! ## Crash safety
//!
//! Each worker checkpoints its shard every `--checkpoint-every` accepted
//! observations (atomic write: stage + fsync + rename), and once more on
//! graceful shutdown. After a `kill -9`, restarting with `--resume` loads
//! every shard file and replays from the per-series `pushes` counters —
//! the fleet raises exactly the alarms an uninterrupted run would have
//! (see the `fleet-soak` CI job). Worker panics are caught and isolated
//! to the one series being pushed; the daemon keeps serving.

use crate::commands::{HealthReport, RunStatus};
use crate::io::CliError;
use crate::protocol::{self, op, Assembled, FrameAssembler, JsonObject, Request, WireMode};
use moche_stream::{
    shard_of, ExplainedAlarm, FleetConfig, FleetPush, FleetShard, FleetStats, MonitorConfig,
    MonitorFleet, SeriesStats,
};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The supervised read tick: how long a handler blocks in one socket read
/// before re-checking deadlines and the shutdown flag. Deadline precision
/// and drain latency are both within one tick.
const READ_TICK: Duration = Duration::from_millis(100);

/// The retry hint carried by a `BUSY` reply.
const BUSY_RETRY_MS: u64 = 1000;

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A TCP address (`host:port`; port `0` picks a free port, printed on
    /// the startup line).
    Tcp(String),
    /// A unix-domain socket path (removed and re-created at startup).
    Unix(PathBuf),
}

/// Parsed `moche serve` options.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Listen address.
    pub listen: Listen,
    /// Per-series window size `w`.
    pub window: usize,
    /// KS significance level.
    pub alpha: f64,
    /// Worker (= shard) count; `0` means one per available core, capped
    /// at 8.
    pub workers: usize,
    /// Compute explanations on alarms (deferred, off the push path).
    pub explain: bool,
    /// Phase-1 size only on alarms.
    pub size_only: bool,
    /// Per-shard bound on the deferred explain queue.
    pub explain_queue: usize,
    /// Per-shard ingest ring capacity in observations (the backpressure
    /// bound); a handler hands over one read's observations per shard as
    /// one chunk.
    pub ring: usize,
    /// Fleet-wide cap on tracked series (`0` = unbounded).
    pub max_series: usize,
    /// Cap on concurrently served connections (`0` = unbounded); excess
    /// connections get a `BUSY` reply and a close.
    pub max_connections: usize,
    /// Seconds a connection may sit with no complete request before it is
    /// evicted (`0` = no idle eviction).
    pub idle_timeout: u64,
    /// Seconds a started frame may stall mid-wire — and the socket write
    /// timeout for replies — before the connection is evicted (`0` = no
    /// I/O deadline).
    pub io_timeout: u64,
    /// Malformed frames/lines a connection may send (each answered with a
    /// structured error) before it is closed.
    pub error_budget: u32,
    /// Install SIGTERM/SIGINT handlers for graceful drain (the CLI always
    /// sets this; in-process tests leave it off — signal dispositions are
    /// process-global).
    pub handle_signals: bool,
    /// Directory for per-shard checkpoint files.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence in accepted observations per shard (`None` =
    /// the window size).
    pub checkpoint_every: Option<u64>,
    /// Load shard checkpoints from `checkpoint_dir` before serving.
    pub resume: bool,
    /// Spectral-Residual filter window override.
    pub sr_filter_window: Option<usize>,
    /// Spectral-Residual score window override.
    pub sr_score_window: Option<usize>,
}

/// The supervision limits, resolved from [`ServeOptions`] once at startup.
#[derive(Debug, Clone, Copy)]
struct Limits {
    max_connections: usize,
    idle: Option<Duration>,
    io: Option<Duration>,
    error_budget: u32,
}

/// What a shard worker can be asked to do. Observations and queries share
/// one ring so a query replies only after every earlier observation from
/// the same connection was applied — the write barrier the soak harness
/// relies on to read exact per-series offsets — and after every alarm its
/// shard raised before the query was explained.
enum WorkerMsg {
    /// Observations from one connection, in arrival order.
    Batch(Vec<(u64, f64)>),
    Query {
        series: u64,
        reply: mpsc::Sender<Option<SeriesStats>>,
    },
}

/// The shard worker is gone (the daemon is shutting down).
#[derive(Debug)]
struct WorkerGone;

/// One chunk of observations, in arrival order.
type Chunk = Vec<(u64, f64)>;

/// A shard's ingest ring, bounded in observations: a handler takes room
/// for a whole chunk before sending it, and the worker gives the room
/// back once it has applied the chunk. At most `capacity` observations
/// are ever queued for or being applied by the shard, however many
/// connections feed it and however small their chunks are.
struct Room {
    capacity: usize,
    state: Mutex<RoomState>,
    freed: Condvar,
}

struct RoomState {
    /// Observations that still fit.
    free: usize,
    /// Handlers blocked until room is freed. A freed chunk wakes one; a
    /// woken handler that leaves room wakes the next.
    waiting: usize,
    /// The worker is gone; no room will be freed again.
    closed: bool,
}

impl Room {
    fn lock(&self) -> MutexGuard<'_, RoomState> {
        // The state is plain counters, valid after any panic.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until `n` observations fit, then takes their room.
    fn take(&self, n: usize) -> Result<(), WorkerGone> {
        let mut state = self.lock();
        while state.free < n && !state.closed {
            state.waiting += 1;
            state = self.freed.wait(state).unwrap_or_else(PoisonError::into_inner);
            state.waiting -= 1;
        }
        if state.closed {
            return Err(WorkerGone);
        }
        state.free -= n;
        if state.free > 0 && state.waiting > 0 {
            self.freed.notify_one();
        }
        Ok(())
    }

    /// Frees the room of an applied chunk of `n` observations.
    fn give_back(&self, n: usize) {
        let mut state = self.lock();
        state.free += n;
        if state.waiting > 0 {
            self.freed.notify_one();
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.freed.notify_all();
    }
}

/// The handlers' end of a shard's ring.
#[derive(Clone)]
struct Ring {
    tx: mpsc::Sender<WorkerMsg>,
    room: Arc<Room>,
}

/// The worker's end of a shard's ring. Dropping it (the worker exits)
/// wakes every handler blocked for room.
struct RingReceiver {
    rx: Receiver<WorkerMsg>,
    room: Arc<Room>,
}

impl Drop for RingReceiver {
    fn drop(&mut self) {
        self.room.close();
    }
}

/// A shard ring holding at most `capacity` (at least 1) observations.
/// The room is the bound, so the channel itself is unbounded and holds
/// only the messages in flight: at most `capacity` chunks (each carries
/// an observation) plus one query per connection (its handler waits for
/// the reply).
fn ring(capacity: usize) -> (Ring, RingReceiver) {
    let capacity = capacity.max(1);
    let (tx, rx) = mpsc::channel();
    let room = Arc::new(Room {
        capacity,
        state: Mutex::new(RoomState { free: capacity, waiting: 0, closed: false }),
        freed: Condvar::new(),
    });
    (Ring { tx, room: Arc::clone(&room) }, RingReceiver { rx, room })
}

impl Ring {
    /// Hands `chunk` (at most `capacity` observations) to the worker once
    /// the ring has room for all of it — a full ring blocks here, and the
    /// backpressure reaches the client through its stalled stream.
    fn send(&self, chunk: Chunk) -> Result<(), WorkerGone> {
        self.room.take(chunk.len())?;
        self.tx.send(WorkerMsg::Batch(chunk)).map_err(|_| WorkerGone)
    }
}

/// The observations a connection handler decoded but has not yet handed
/// to their shards: one open chunk per shard. A chunk goes when it fills
/// its shard's ring, and every partial chunk goes before a query, a
/// shutdown, a socket read that may block, and the handler's exit, so a
/// chunk is at most one read's observations for its shard and none waits
/// on input that has not arrived. Dropping the outbox hands over whatever
/// is still open, so every exit path delivers.
struct Outbox<'a> {
    rings: &'a [Ring],
    open: Vec<Chunk>,
}

impl<'a> Outbox<'a> {
    fn new(rings: &'a [Ring]) -> Self {
        Self { rings, open: rings.iter().map(|_| Vec::new()).collect() }
    }

    /// Adds one observation to its shard's chunk, handing the chunk over
    /// once it fills the shard's whole ring.
    fn push(&mut self, series: u64, value: f64) -> Result<(), WorkerGone> {
        let shard = shard_of(series, self.rings.len());
        let open = &mut self.open[shard];
        open.push((series, value));
        if open.len() < self.rings[shard].room.capacity {
            return Ok(());
        }
        self.send(shard)
    }

    /// Hands every open chunk to its shard.
    fn flush(&mut self) -> Result<(), WorkerGone> {
        let mut result = Ok(());
        for shard in 0..self.open.len() {
            if !self.open[shard].is_empty() && self.send(shard).is_err() {
                result = Err(WorkerGone);
            }
        }
        result
    }

    fn send(&mut self, shard: usize) -> Result<(), WorkerGone> {
        let chunk = std::mem::take(&mut self.open[shard]);
        self.rings[shard].send(chunk)
    }
}

impl Drop for Outbox<'_> {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Immutable run context shared by the connection handlers.
struct ServeContext {
    stats: Arc<FleetStats>,
    /// Shared with the signal callback, which outlives the serve scope.
    shutdown: Arc<AtomicBool>,
    cfg: FleetConfig,
    workers: usize,
    limits: Limits,
    /// Gauge of currently served connections (the admission cap input).
    active: AtomicUsize,
    /// Connection id allocator for the `CLOSE conn=N` log lines.
    conn_seq: AtomicU64,
    /// The signal number that triggered shutdown, if any (for the drain
    /// log line; written by the signal callback).
    signal_seen: Arc<AtomicI32>,
}

/// Why a connection handler returned. Transport/protocol causes carry the
/// detail their log line or counter needs.
enum CloseReason {
    /// Clean close by the peer; nothing to count.
    PeerClosed,
    /// This connection requested `SHUTDOWN`; the drain is its doing.
    ShutdownRequested,
    /// Closed by the graceful drain of somebody else's shutdown.
    Drained,
    /// No complete request within the idle budget.
    IdleTimeout(Duration),
    /// A frame started but stalled past the I/O budget.
    ReadStalled(Duration),
    /// The peer stopped reading replies (socket write timeout).
    WriteStalled,
    /// The malformed-frame budget was spent.
    ErrorBudget(u32),
    /// The byte stream could no longer be framed.
    ProtocolFatal(String),
    /// The transport failed outright.
    Transport(io::Error),
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().min(8))
}

/// Runs the daemon until a `SHUTDOWN` request or a termination signal,
/// writing the startup line, alarm log, and final summary to `out`.
///
/// # Errors
///
/// Bind/config/resume failures. Once serving, connection-level errors are
/// logged and survived; only a failure to write the log stream itself
/// ends the run early.
pub fn run_serve(opts: &ServeOptions, out: &mut dyn Write) -> Result<RunStatus, CliError> {
    arm_faults_from_env(out)?;

    let mut monitor = MonitorConfig::new(opts.window, opts.alpha);
    monitor.explain_on_drift = opts.explain;
    monitor.size_only = opts.size_only;
    if let Some(q) = opts.sr_filter_window {
        monitor.sr_filter_window = q;
    }
    if let Some(z) = opts.sr_score_window {
        monitor.sr_score_window = z;
    }
    let workers = if opts.workers == 0 { default_workers() } else { opts.workers };
    let mut fleet_cfg = FleetConfig::new(workers, monitor);
    fleet_cfg.explain_queue = opts.explain_queue;
    fleet_cfg.max_series = if opts.max_series == 0 { usize::MAX } else { opts.max_series };
    let limits = Limits {
        max_connections: opts.max_connections,
        idle: (opts.idle_timeout > 0).then(|| Duration::from_secs(opts.idle_timeout)),
        io: (opts.io_timeout > 0).then(|| Duration::from_secs(opts.io_timeout)),
        error_budget: opts.error_budget,
    };

    let fleet = match (&opts.checkpoint_dir, opts.resume) {
        (Some(dir), true) if dir.is_dir() => {
            let fleet = MonitorFleet::resume_from_dir(fleet_cfg, dir)?;
            writeln!(
                out,
                "moche serve: resumed {} series from {}",
                fleet.series_count(),
                dir.display()
            )?;
            fleet
        }
        (None, true) => {
            return Err(CliError::Usage("--resume requires --checkpoint-dir".into()));
        }
        _ => MonitorFleet::new(fleet_cfg)?,
    };
    let checkpoint_every = opts.checkpoint_every.unwrap_or(opts.window as u64).max(1);
    if let Some(dir) = &opts.checkpoint_dir {
        std::fs::create_dir_all(dir)
            .map_err(|source| CliError::Io { path: dir.display().to_string(), source })?;
    }

    let listener = Listener::bind(&opts.listen)?;
    writeln!(out, "moche serve: listening on {}", listener.describe())?;
    writeln!(
        out,
        "moche serve: {} worker(s), window {}, alpha {}, explain queue {}, ring {}",
        workers, opts.window, opts.alpha, opts.explain_queue, opts.ring
    )?;
    writeln!(
        out,
        "moche serve: limits — max-connections {}, idle-timeout {}s, io-timeout {}s, \
         error-budget {} (0 = unbounded)",
        limits.max_connections, opts.idle_timeout, opts.io_timeout, limits.error_budget
    )?;
    out.flush()?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let signal_seen = Arc::new(AtomicI32::new(0));
    if opts.handle_signals {
        let shutdown = Arc::clone(&shutdown);
        let signal_seen = Arc::clone(&signal_seen);
        let waker = listener.waker();
        let installed = moche_signal::on_termination(move |signal| {
            signal_seen.store(signal, Ordering::SeqCst);
            shutdown.store(true, Ordering::SeqCst);
            if let Err(why) = waker.wake() {
                // The log channel may already be gone during teardown;
                // stderr is the only safe sink from this thread.
                eprintln!("moche serve: signal drain: {why}");
            }
        });
        if let Err(e) = installed {
            writeln!(
                out,
                "moche serve: WARNING: signal handling unavailable ({e}); \
                 SIGTERM will not drain gracefully"
            )?;
            out.flush()?;
        }
    }

    let (cfg, shards, stats) = fleet.into_shards();
    let ctx = ServeContext {
        stats,
        shutdown,
        cfg,
        workers,
        limits,
        active: AtomicUsize::new(0),
        conn_seq: AtomicU64::new(1),
        signal_seen,
    };
    let (log_tx, log_rx) = mpsc::channel::<String>();

    std::thread::scope(|s| -> Result<(), CliError> {
        let mut rings = Vec::with_capacity(workers);
        for shard in shards {
            let (tx, rx) = ring(opts.ring);
            rings.push(tx);
            let log = log_tx.clone();
            let dir = opts.checkpoint_dir.clone();
            s.spawn(move || worker_loop(shard, rx, dir.as_deref(), checkpoint_every, &log));
        }
        {
            let ctx = &ctx;
            let listener = &listener;
            let log = log_tx.clone();
            s.spawn(move || accept_loop(s, listener, rings, ctx, &log));
        }
        drop(log_tx);

        // This thread is the single log writer: everything the workers
        // and handlers report lands here, in one ordered stream.
        let mut write_error: Option<std::io::Error> = None;
        for line in log_rx {
            if write_error.is_none() {
                if let Err(e) = writeln!(out, "{line}").and_then(|()| out.flush()) {
                    // Keep draining so the threads can finish; report the
                    // first write failure afterwards.
                    write_error = Some(e);
                }
            }
        }
        match write_error {
            Some(e) => Err(CliError::Write(e)),
            None => Ok(()),
        }
    })?;
    listener.cleanup();

    let view = ctx.stats.view();
    let health = HealthReport {
        worker_panics: view.worker_panics as usize,
        skipped_observations: view.skipped_observations as usize,
        degraded_preferences: view.degraded_preferences as usize,
        checkpoints_written: view.checkpoints_written as usize,
        evicted_connections: view.evicted_connections() as usize,
        busy_rejections: view.busy_rejections as usize,
    };
    writeln!(
        out,
        "moche serve: shutdown complete — {} series, {} accepted, {} alarm(s), \
         {} explained, {} shed",
        view.series, view.accepted, view.alarms, view.explained, view.explain_dropped
    )?;
    // The serving-edge / fleet-hygiene counters that are not part of the
    // health: line proper. Every FleetStats counter must surface here or in
    // the health: line — the moche-lint counter-plumbing pass enforces it —
    // so an operator reading a shutdown tail sees the whole story without
    // having to have issued a STATUS in time.
    writeln!(
        out,
        "moche serve: connections — {} opened, {} drained, {} malformed frame(s); \
         fleet — {} quarantined, {} rejected at capacity, {} checkpoint failure(s)",
        view.connections_opened,
        view.drained_connections,
        view.malformed_frames,
        view.quarantined_series,
        view.rejected_at_capacity,
        view.checkpoint_failures
    )?;
    writeln!(out, "{}", health.summary())?;
    out.flush()?;
    Ok(RunStatus { window_errors: 0, windows_explained: view.explained as usize, health })
}

/// One shard worker: apply the ring's messages in arrival order and
/// answer one queued alarm each time the ring is empty between them, so
/// an explanation never waits behind idle time and never runs ahead of a
/// queued chunk of observations. A query's reply is held until the
/// tickets its shard owed when the query arrived are answered, which
/// makes the reply a barrier for explanations as well as observations: a
/// STATUS read after it counts every earlier alarm as explained or shed.
/// Checkpoints on cadence and once at the end.
fn worker_loop(
    mut shard: FleetShard,
    ring: RingReceiver,
    dir: Option<&Path>,
    every: u64,
    log: &mpsc::Sender<String>,
) {
    let mut last_checkpoint = shard.accepted();
    // Tickets answered so far, and the held replies, each with the count
    // it waits for (non-decreasing, because the explain queue is FIFO).
    let mut answered = 0;
    let mut held: VecDeque<(usize, mpsc::Sender<_>, _)> = VecDeque::new();
    loop {
        let msg = if shard.pending_explains() == 0 {
            ring.rx.recv().ok()
        } else {
            match ring.rx.try_recv() {
                Err(TryRecvError::Empty) => {
                    answered += shard.drain_explains(1, |alarm| log_explained(alarm, log));
                    while let Some((_, reply, stats)) =
                        held.pop_front_if(|(due, ..)| *due <= answered)
                    {
                        let _ = reply.send(stats);
                    }
                    continue;
                }
                received => received.ok(),
            }
        };
        match msg {
            Some(WorkerMsg::Batch(chunk)) => {
                let n = chunk.len();
                for (series, value) in chunk {
                    apply_obs(&mut shard, series, value, log);
                    if dir.is_some() && shard.accepted() - last_checkpoint >= every {
                        checkpoint_now(&shard, dir, log);
                        last_checkpoint = shard.accepted();
                    }
                }
                ring.room.give_back(n);
            }
            Some(WorkerMsg::Query { series, reply }) => {
                let stats = shard.series_stats(series);
                match shard.pending_explains() {
                    0 => {
                        let _ = reply.send(stats);
                    }
                    owed => held.push_back((answered + owed, reply, stats)),
                }
            }
            None => break,
        }
    }
    // Shutdown: answer everything still queued, then persist the shard.
    while shard.drain_explains(64, |alarm| log_explained(alarm, log)) > 0 {}
    if dir.is_some() {
        checkpoint_now(&shard, dir, log);
    }
    let _ = log.send(format!(
        "worker {}: exiting with {} series, {} accepted",
        shard.id(),
        shard.series_count(),
        shard.accepted()
    ));
}

fn apply_obs(shard: &mut FleetShard, series: u64, value: f64, log: &mpsc::Sender<String>) {
    match shard.push(series, value) {
        Ok(FleetPush::Warming | FleetPush::Stable) => {}
        Ok(FleetPush::Alarm { outcome, at_push, explain_queued }) => {
            let _ = log.send(format!(
                "ALARM series={series} push={at_push} stat={:.6} threshold={:.6}{}",
                outcome.statistic,
                outcome.threshold,
                if explain_queued { "" } else { " explain=shed" }
            ));
        }
        Ok(FleetPush::Quarantined) => {
            let _ =
                log.send(format!("PANIC series={series}: worker panic caught, series quarantined"));
        }
        Ok(FleetPush::AtCapacity) => {
            let _ = log.send(format!("REJECT series={series}: fleet at --max-series capacity"));
        }
        Err(e) => {
            let _ = log.send(format!("SKIP series={series}: {e}"));
        }
    }
}

fn log_explained(alarm: &ExplainedAlarm<'_>, log: &mpsc::Sender<String>) {
    // One allocation: the longest line (20-digit series, push and `k`,
    // `after=`, `degraded=identity`) is 117 bytes. Writing into a `String`
    // cannot fail.
    let mut line = String::with_capacity(128);
    let _ = write!(line, "EXPLAIN series={} push={}", alarm.series, alarm.at_push);
    if let Some(e) = alarm.explanation {
        let _ = write!(line, " k={} after={:.6}", e.indices().len(), e.outcome_after.statistic);
    }
    if let Some(s) = alarm.size {
        let _ = write!(line, " k={} k_hat={}", s.k, s.k_hat);
    }
    if alarm.degraded {
        line.push_str(" degraded=identity");
    }
    let _ = log.send(line);
}

fn checkpoint_now(shard: &FleetShard, dir: Option<&Path>, log: &mpsc::Sender<String>) {
    let Some(dir) = dir else { return };
    match shard.checkpoint(dir) {
        Ok(()) => {
            let _ = log.send(format!(
                "CHECKPOINT shard={} series={} accepted={}",
                shard.id(),
                shard.series_count(),
                shard.accepted()
            ));
        }
        Err(e) => {
            let _ = log.send(format!("CHECKPOINT shard={} FAILED: {e}", shard.id()));
        }
    }
}

/// Accepts connections until shutdown, spawning one supervised handler
/// per admitted connection on the same scope. Past `--max-connections`
/// a connection gets a `BUSY` reply instead of a handler. The
/// `serve.accept` failpoint injects a simulated accept failure (logged,
/// then the loop keeps listening).
fn accept_loop<'scope>(
    s: &'scope std::thread::Scope<'scope, '_>,
    listener: &'scope Listener,
    rings: Vec<Ring>,
    ctx: &'scope ServeContext,
    log: &mpsc::Sender<String>,
) {
    while !ctx.shutdown.load(Ordering::SeqCst) {
        if let Some(moche_core::fault::Fault::Error) = moche_core::fault::failpoint("serve.accept")
        {
            let _ = log.send("ACCEPT failed (injected): retrying".to_string());
            continue;
        }
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(e) => {
                let _ = log.send(format!("ACCEPT failed: {e}"));
                continue;
            }
        };
        if ctx.shutdown.load(Ordering::SeqCst) {
            break; // the shutdown self-connect, or a straggler
        }
        let cap = ctx.limits.max_connections;
        let active = ctx.active.load(Ordering::SeqCst);
        if cap > 0 && active >= cap {
            // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
            ctx.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
            let _ = log.send(format!(
                "BUSY rejecting connection: {active} active >= --max-connections {cap}"
            ));
            reject_busy(conn, ctx);
            continue;
        }
        ctx.active.fetch_add(1, Ordering::SeqCst);
        // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
        ctx.stats.connections_opened.fetch_add(1, Ordering::Relaxed);
        // lint:allow(relaxed): connection-id allocator — only the RMW's
        // atomicity matters (ids must be unique, not ordered with anything).
        // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
        let id = ctx.conn_seq.fetch_add(1, Ordering::Relaxed);
        let rings = rings.clone();
        let log = log.clone();
        s.spawn(move || {
            let reason = handle_connection(id, conn, &rings, ctx, listener, &log);
            note_close(id, reason, ctx, &log);
            ctx.active.fetch_sub(1, Ordering::SeqCst);
        });
    }
    let signal = ctx.signal_seen.swap(0, Ordering::SeqCst);
    if signal != 0 {
        let _ = log.send(format!(
            "SIGNAL {}: graceful drain — no longer accepting, \
             waiting for in-flight handlers",
            moche_signal::signal_name(signal)
        ));
    }
    // Dropping `rings` (the last clones once handlers finish) lets the
    // workers drain their rings and exit.
}

/// Turns a connection away at the admission cap: one binary-framed `BUSY`
/// reply with a retry hint, then the close. Best-effort with a short
/// write timeout — a rejected client gets no second chance to stall us.
fn reject_busy(mut conn: Conn, ctx: &ServeContext) {
    let _ = conn.set_write_timeout(Some(Duration::from_secs(1)));
    let body = JsonObject::new()
        .field_bool("busy", true)
        .field_u64("retry_after_ms", BUSY_RETRY_MS)
        .field_u64("max_connections", ctx.limits.max_connections as u64)
        .field_u64("active_connections", ctx.active.load(Ordering::SeqCst) as u64)
        .build();
    let _ = protocol::write_reply(&mut conn, op::BUSY, &body);
}

/// Serves one connection under supervision: a [`FrameAssembler`] owns the
/// partial-input state while the socket runs on a [`READ_TICK`] read
/// timeout, so every tick can check the idle budget, the mid-frame stall
/// budget, and the shutdown flag. Returns why the connection ended; the
/// caller counts and logs it.
fn handle_connection(
    id: u64,
    mut conn: Conn,
    rings: &[Ring],
    ctx: &ServeContext,
    listener: &Listener,
    log: &mpsc::Sender<String>,
) -> CloseReason {
    if let Err(e) = conn.set_read_timeout(Some(READ_TICK)) {
        return CloseReason::Transport(e);
    }
    if let Err(e) = conn.set_write_timeout(ctx.limits.io) {
        return CloseReason::Transport(e);
    }
    let mut outbox = Outbox::new(rings);
    let mut asm = FrameAssembler::new();
    let mut read_buf = [0u8; 4096];
    let mut malformed: u32 = 0;
    let mut last_activity = Instant::now();
    // The first byte of the frame currently on the wire — the mid-frame
    // stall clock. Reset whenever a frame completes, so a pipelining
    // client is never mistaken for a trickling one.
    let mut frame_start: Option<Instant> = None;
    loop {
        // Drain every complete request already buffered.
        let mut consumed_any = false;
        loop {
            match asm.next_frame() {
                Assembled::Request(request) => {
                    consumed_any = true;
                    last_activity = Instant::now();
                    match apply_request(
                        request,
                        asm.mode(),
                        &mut conn,
                        &mut outbox,
                        ctx,
                        listener,
                        log,
                    ) {
                        Ok(Flow::Continue) => {}
                        Ok(Flow::Close(reason)) => return reason,
                        Err(e) => return write_failure_reason(e),
                    }
                }
                Assembled::Malformed(why) => {
                    consumed_any = true;
                    last_activity = Instant::now();
                    // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
                    ctx.stats.malformed_frames.fetch_add(1, Ordering::Relaxed);
                    malformed += 1;
                    if malformed > ctx.limits.error_budget {
                        // Budget spent: one final (fatal) reply, then out.
                        let _ = respond(&mut conn, asm.mode(), op::ERR, &error_json(&why, None));
                        return CloseReason::ErrorBudget(malformed);
                    }
                    let remaining = ctx.limits.error_budget - malformed;
                    let body = error_json(&why, Some(remaining));
                    if let Err(e) = respond(&mut conn, asm.mode(), op::ERR, &body) {
                        return write_failure_reason(e);
                    }
                }
                Assembled::Fatal(why) => {
                    // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
                    ctx.stats.malformed_frames.fetch_add(1, Ordering::Relaxed);
                    let _ = respond(&mut conn, asm.mode(), op::ERR, &error_json(&why, None));
                    return CloseReason::ProtocolFatal(why);
                }
                Assembled::NeedMore => break,
            }
            if ctx.shutdown.load(Ordering::SeqCst) {
                return drain_close(id, &mut conn, asm.mode(), log);
            }
        }
        if !asm.is_mid_frame() {
            frame_start = None;
        } else if consumed_any || frame_start.is_none() {
            frame_start = Some(Instant::now());
        }
        // The read below may block: nothing decoded may wait for it.
        if outbox.flush().is_err() {
            return CloseReason::ShutdownRequested;
        }
        if let Some(moche_core::fault::Fault::Error) = moche_core::fault::failpoint("serve.read") {
            // Deterministic stand-in for a real mid-frame stall: evicted
            // and counted exactly like one, without waiting out a clock.
            let why = "injected read stall (serve.read); connection evicted";
            let _ = respond(&mut conn, asm.mode(), op::ERR, &error_json(why, None));
            return CloseReason::ReadStalled(Duration::ZERO);
        }
        match conn.read(&mut read_buf) {
            Ok(0) => return CloseReason::PeerClosed,
            Ok(n) => asm.extend(&read_buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // One supervision tick: nothing arrived within READ_TICK.
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return drain_close(id, &mut conn, asm.mode(), log);
                }
                let now = Instant::now();
                if let (Some(io_budget), Some(started)) = (ctx.limits.io, frame_start) {
                    let stalled = now.duration_since(started);
                    if asm.is_mid_frame() && stalled >= io_budget {
                        let why = "mid-frame stall exceeded --io-timeout; connection evicted";
                        let _ = respond(&mut conn, asm.mode(), op::ERR, &error_json(why, None));
                        return CloseReason::ReadStalled(stalled);
                    }
                }
                if let Some(idle_budget) = ctx.limits.idle {
                    let idle = now.duration_since(last_activity);
                    if !asm.is_mid_frame() && idle >= idle_budget {
                        let why = "idle timeout; connection evicted";
                        let _ = respond(&mut conn, asm.mode(), op::ERR, &error_json(why, None));
                        return CloseReason::IdleTimeout(idle);
                    }
                }
            }
            Err(e) => return CloseReason::Transport(e),
        }
    }
}

/// What [`apply_request`] tells the supervision loop to do next.
enum Flow {
    Continue,
    Close(CloseReason),
}

/// Executes one decoded request on an admitted connection.
fn apply_request(
    request: Request,
    mode: Option<WireMode>,
    conn: &mut Conn,
    outbox: &mut Outbox<'_>,
    ctx: &ServeContext,
    listener: &Listener,
    log: &mpsc::Sender<String>,
) -> io::Result<Flow> {
    // Every request but OBS is ordered after the observations before it.
    let delivered = match request {
        Request::Obs { series, value } => outbox.push(series, value),
        _ => outbox.flush(),
    };
    if delivered.is_err() {
        return Ok(Flow::Close(CloseReason::ShutdownRequested));
    }
    match request {
        Request::Obs { .. } => {}
        Request::Status => respond(conn, mode, op::STATUS, &status_json(ctx))?,
        Request::Series { series } => {
            respond(conn, mode, op::SERIES, &series_json(series, outbox.rings, ctx))?;
        }
        Request::Shutdown => {
            respond(conn, mode, op::SHUTDOWN, &status_json(ctx))?;
            let _ = log.send("SHUTDOWN requested".to_string());
            ctx.shutdown.store(true, Ordering::SeqCst);
            if let Err(why) = listener.waker().wake() {
                let _ = log.send(format!("SHUTDOWN: {why}"));
            }
            return Ok(Flow::Close(CloseReason::ShutdownRequested));
        }
    }
    Ok(Flow::Continue)
}

/// Closes one surviving connection during a graceful drain: a courtesy
/// notice, then the close. The `serve.drain` failpoint proves chaos tests
/// drive this exact path.
fn drain_close(
    id: u64,
    conn: &mut Conn,
    mode: Option<WireMode>,
    log: &mpsc::Sender<String>,
) -> CloseReason {
    if let Some(moche_core::fault::Fault::Error) = moche_core::fault::failpoint("serve.drain") {
        let _ = log.send(format!("DRAIN failpoint conn={id}: injected close error (ignored)"));
    }
    let _ = respond(conn, mode, op::ERR, &error_json("daemon draining for shutdown", None));
    CloseReason::Drained
}

/// Counts and logs a finished connection. Clean closes are silent; every
/// eviction gets a `CLOSE conn=N reason=...` line and a counter.
fn note_close(id: u64, reason: CloseReason, ctx: &ServeContext, log: &mpsc::Sender<String>) {
    let stats = &ctx.stats;
    match reason {
        CloseReason::PeerClosed | CloseReason::ShutdownRequested => {}
        CloseReason::Drained => {
            // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
            stats.drained_connections.fetch_add(1, Ordering::Relaxed);
            let _ = log.send(format!("CLOSE conn={id} reason=drained"));
        }
        CloseReason::IdleTimeout(idle) => {
            // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
            stats.idle_timeouts.fetch_add(1, Ordering::Relaxed);
            let _ = log
                .send(format!("CLOSE conn={id} reason=idle-timeout idle_ms={}", idle.as_millis()));
        }
        CloseReason::ReadStalled(stalled) => {
            // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
            stats.stalled_reads.fetch_add(1, Ordering::Relaxed);
            let _ = log.send(format!(
                "CLOSE conn={id} reason=read-stall stalled_ms={}",
                stalled.as_millis()
            ));
        }
        CloseReason::WriteStalled => {
            // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
            stats.stalled_writes.fetch_add(1, Ordering::Relaxed);
            let _ = log.send(format!("CLOSE conn={id} reason=write-stall (peer not reading)"));
        }
        CloseReason::ErrorBudget(count) => {
            // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
            stats.error_budget_closes.fetch_add(1, Ordering::Relaxed);
            let _ = log.send(format!("CLOSE conn={id} reason=error-budget malformed={count}"));
        }
        CloseReason::ProtocolFatal(why) => {
            // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
            stats.error_budget_closes.fetch_add(1, Ordering::Relaxed);
            let _ = log.send(format!("CLOSE conn={id} reason=protocol-fatal: {why}"));
        }
        CloseReason::Transport(e) => {
            let _ = log.send(format!("CONNECTION error: {e}"));
        }
    }
}

/// Classifies a failed reply write: a timeout means the peer stopped
/// reading (eviction), anything else is a transport failure.
fn write_failure_reason(e: io::Error) -> CloseReason {
    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
        CloseReason::WriteStalled
    } else {
        CloseReason::Transport(e)
    }
}

/// Writes one reply in the connection's wire mode (binary before the mode
/// is known — only server-initiated notices are sent that early). The
/// `serve.write` failpoint injects a deterministic write stall.
fn respond(conn: &mut Conn, mode: Option<WireMode>, opcode: u8, body: &str) -> io::Result<()> {
    if let Some(moche_core::fault::Fault::Error) = moche_core::fault::failpoint("serve.write") {
        return Err(io::Error::new(ErrorKind::WouldBlock, "injected write stall (serve.write)"));
    }
    match mode {
        Some(WireMode::JsonLines) => protocol::write_json_line(conn, body),
        _ => protocol::write_reply(conn, opcode, body),
    }
}

/// An `ERR` reply body. `budget_remaining` is how many more malformed
/// frames the connection may send; `None` marks the error fatal (the
/// connection closes right after).
fn error_json(why: &str, budget_remaining: Option<u32>) -> String {
    // JsonObject does not escape; the reasons are our own text, but
    // malformed JSON echoes could smuggle a quote through `unknown cmd`.
    let why = why.replace(['"', '\\'], "'");
    let obj = JsonObject::new().field_str("error", &why);
    match budget_remaining {
        Some(r) => obj.field_u64("budget_remaining", u64::from(r)).build(),
        None => obj.field_bool("fatal", true).build(),
    }
}

/// The status endpoint body: every fleet counter plus the run
/// configuration (documented in the README "Fleet service" section).
fn status_json(ctx: &ServeContext) -> String {
    let view = ctx.stats.view();
    JsonObject::new()
        .field_u64("series", view.series)
        .field_u64("accepted", view.accepted)
        .field_u64("skipped_observations", view.skipped_observations)
        .field_u64("alarms", view.alarms)
        .field_u64("explained", view.explained)
        .field_u64("explain_dropped", view.explain_dropped)
        .field_u64("degraded_preferences", view.degraded_preferences)
        .field_u64("worker_panics", view.worker_panics)
        .field_u64("quarantined_series", view.quarantined_series)
        .field_u64("rejected_at_capacity", view.rejected_at_capacity)
        .field_u64("checkpoints_written", view.checkpoints_written)
        .field_u64("checkpoint_failures", view.checkpoint_failures)
        .field_u64("connections_opened", view.connections_opened)
        .field_u64("active_connections", ctx.active.load(Ordering::SeqCst) as u64)
        .field_u64("busy_rejections", view.busy_rejections)
        .field_u64("idle_timeouts", view.idle_timeouts)
        .field_u64("stalled_reads", view.stalled_reads)
        .field_u64("stalled_writes", view.stalled_writes)
        .field_u64("malformed_frames", view.malformed_frames)
        .field_u64("error_budget_closes", view.error_budget_closes)
        .field_u64("drained_connections", view.drained_connections)
        .field_bool("clean", view.is_clean())
        .field_u64("workers", ctx.workers as u64)
        .field_u64("window", ctx.cfg.monitor.window as u64)
        .field_f64("alpha", ctx.cfg.monitor.alpha)
        .field_u64("max_connections", ctx.limits.max_connections as u64)
        .field_u64("idle_timeout_secs", ctx.limits.idle.map_or(0, |d| d.as_secs()))
        .field_u64("io_timeout_secs", ctx.limits.io.map_or(0, |d| d.as_secs()))
        .field_u64("error_budget", u64::from(ctx.limits.error_budget))
        .build()
}

fn series_json(series: u64, rings: &[Ring], ctx: &ServeContext) -> String {
    let shard = shard_of(series, rings.len());
    let (reply_tx, reply_rx) = mpsc::channel();
    let stats = if ctx.shutdown.load(Ordering::SeqCst) {
        None
    } else if rings[shard].tx.send(WorkerMsg::Query { series, reply: reply_tx }).is_ok() {
        reply_rx.recv().ok().flatten()
    } else {
        None
    };
    match stats {
        Some(stats) => JsonObject::new()
            .field_u64("series", series)
            .field_bool("found", true)
            .field_u64("shard", stats.shard as u64)
            .field_u64("pushes", stats.pushes)
            .field_u64("alarms", stats.alarms)
            .field_u64("degraded_preferences", stats.degraded_preferences)
            .build(),
        None => JsonObject::new().field_u64("series", series).field_bool("found", false).build(),
    }
}

/// The daemon's listening socket, TCP or unix-domain.
enum Listener {
    Tcp(TcpListener, SocketAddr),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn bind(listen: &Listen) -> Result<Self, CliError> {
        match listen {
            Listen::Tcp(addr) => {
                let listener = TcpListener::bind(addr)
                    .map_err(|source| CliError::Io { path: addr.clone(), source })?;
                let local = listener
                    .local_addr()
                    .map_err(|source| CliError::Io { path: addr.clone(), source })?;
                Ok(Listener::Tcp(listener, local))
            }
            #[cfg(unix)]
            Listen::Unix(path) => {
                let _ = std::fs::remove_file(path); // a previous run's socket
                let listener = UnixListener::bind(path)
                    .map_err(|source| CliError::Io { path: path.display().to_string(), source })?;
                Ok(Listener::Unix(listener, path.clone()))
            }
            #[cfg(not(unix))]
            Listen::Unix(path) => Err(CliError::Usage(format!(
                "--unix {} is not supported on this platform",
                path.display()
            ))),
        }
    }

    fn describe(&self) -> String {
        match self {
            Listener::Tcp(_, local) => local.to_string(),
            #[cfg(unix)]
            Listener::Unix(_, path) => path.display().to_string(),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            // Replies are small writes the client waits on; with Nagle on,
            // each would sit out the client's delayed ACK.
            Listener::Tcp(listener, _) => {
                listener.accept().and_then(|(s, _)| s.set_nodelay(true).map(|()| Conn::Tcp(s)))
            }
            #[cfg(unix)]
            Listener::Unix(listener, _) => listener.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }

    /// A handle that can wake a blocked `accept` from any thread (the
    /// signal callback outlives the serve scope, so it cannot borrow the
    /// listener itself).
    fn waker(&self) -> AcceptWaker {
        match self {
            Listener::Tcp(_, local) => AcceptWaker::Tcp(*local),
            #[cfg(unix)]
            Listener::Unix(_, path) => AcceptWaker::Unix(path.clone()),
        }
    }

    fn cleanup(&self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Wakes a blocked `accept` after the shutdown flag is set, by connecting
/// to ourselves. `signal(2)` installs `SA_RESTART` handlers on glibc, so
/// a termination signal alone never interrupts `accept` — this
/// self-connect *is* the wake mechanism, and its failure is worth a log
/// line, not a shrug.
#[derive(Clone)]
enum AcceptWaker {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl AcceptWaker {
    fn wake(&self) -> Result<(), String> {
        let mut last = String::new();
        for attempt in 1..=3u32 {
            let result = match self {
                AcceptWaker::Tcp(addr) => {
                    TcpStream::connect_timeout(addr, Duration::from_millis(250)).map(drop)
                }
                #[cfg(unix)]
                AcceptWaker::Unix(path) => UnixStream::connect(path).map(drop),
            };
            match result {
                Ok(()) => return Ok(()),
                Err(e) => last = format!("attempt {attempt}: {e}"),
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        Err(format!(
            "could not wake the accept loop after 3 self-connect attempts ({last}); \
             it will notice shutdown on its next accepted connection"
        ))
    }
}

/// One accepted connection.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_write_timeout(timeout),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Arms failpoints from the `MOCHE_FAULTS` environment variable so the
/// CI soak job can drive the daemon's seams from outside the process.
/// Format: comma-separated `name=fault[:skip[:times]]` with `fault` one
/// of `panic`, `error`, or `truncateN` (N = bytes kept). Only honoured
/// under the `fault-injection` feature; otherwise a set variable gets a
/// loud warning instead of silently testing nothing.
fn arm_faults_from_env(out: &mut dyn Write) -> Result<(), CliError> {
    let Ok(spec) = std::env::var("MOCHE_FAULTS") else { return Ok(()) };
    if spec.trim().is_empty() {
        return Ok(());
    }
    #[cfg(feature = "fault-injection")]
    {
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, rest) = part.split_once('=').ok_or_else(|| {
                CliError::Usage(format!("MOCHE_FAULTS entry '{part}' is not name=fault"))
            })?;
            let mut fields = rest.split(':');
            let fault = fields.next().unwrap_or_default();
            let fault = if fault == "panic" {
                moche_core::fault::Fault::Panic
            } else if fault == "error" {
                moche_core::fault::Fault::Error
            } else if let Some(n) = fault.strip_prefix("truncate") {
                let n = n.parse().map_err(|_| {
                    CliError::Usage(format!("MOCHE_FAULTS truncate length '{n}' is not a number"))
                })?;
                moche_core::fault::Fault::TruncateWrite(n)
            } else {
                return Err(CliError::Usage(format!("MOCHE_FAULTS unknown fault '{fault}'")));
            };
            let parse_count = |field: Option<&str>, what: &str| -> Result<usize, CliError> {
                match field {
                    None => Ok(if what == "times" { 1 } else { 0 }),
                    Some(raw) => raw.parse().map_err(|_| {
                        CliError::Usage(format!("MOCHE_FAULTS {what} '{raw}' is not a number"))
                    }),
                }
            };
            let skip = parse_count(fields.next(), "skip")?;
            let times = parse_count(fields.next(), "times")?;
            moche_core::fault::arm(name, fault, skip, times);
            writeln!(out, "moche serve: armed failpoint {name} ({rest})")?;
        }
        Ok(())
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        writeln!(
            out,
            "moche serve: WARNING: MOCHE_FAULTS is set but this build has no \
             fault-injection feature; nothing armed"
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MAX_FRAME_LEN;
    use std::io::{BufRead, BufReader};

    #[test]
    fn accepted_tcp_streams_have_nagle_off() {
        let listener = Listener::bind(&Listen::Tcp("127.0.0.1:0".into())).expect("bind");
        let Listener::Tcp(_, addr) = &listener else { panic!("a TCP listener") };
        let _client = TcpStream::connect(addr).expect("connect");
        match listener.accept().expect("accept") {
            Conn::Tcp(stream) => assert!(stream.nodelay().unwrap(), "TCP_NODELAY must be set"),
            #[cfg(unix)]
            Conn::Unix(_) => panic!("a TCP listener hands out TCP streams"),
        }
    }

    fn options(listen: Listen) -> ServeOptions {
        ServeOptions {
            listen,
            window: 16,
            alpha: 0.05,
            workers: 2,
            explain: true,
            size_only: false,
            explain_queue: 64,
            ring: 128,
            max_series: 0,
            max_connections: 32,
            idle_timeout: 30,
            io_timeout: 30,
            error_budget: 3,
            handle_signals: false,
            checkpoint_dir: None,
            checkpoint_every: None,
            resume: false,
            sr_filter_window: None,
            sr_score_window: None,
        }
    }

    /// A pipe-like writer that forwards the bound address from the
    /// "listening on" startup line as soon as it is flushed.
    struct FirstLine {
        buf: Vec<u8>,
        tx: Option<mpsc::Sender<String>>,
    }

    impl Write for FirstLine {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            self.buf.extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            if self.tx.is_some() {
                let addr = self
                    .buf
                    .split(|&b| b == b'\n')
                    .filter_map(|line| std::str::from_utf8(line).ok())
                    .find(|line| line.contains("listening on"))
                    .map(|line| line.rsplit(' ').next().unwrap_or_default().to_string());
                if let (Some(addr), Some(tx)) = (addr, self.tx.take()) {
                    let _ = tx.send(addr);
                }
            }
            Ok(())
        }
    }

    /// Runs the daemon on a background thread and returns its join handle
    /// plus the bound address.
    #[allow(clippy::type_complexity)]
    fn spawn_server(opts: ServeOptions) -> (std::thread::JoinHandle<(RunStatus, Vec<u8>)>, String) {
        let (addr_tx, addr_rx) = mpsc::channel::<String>();
        let server = std::thread::spawn(move || {
            let mut out = FirstLine { buf: Vec::new(), tx: Some(addr_tx) };
            let status = run_serve(&opts, &mut out).expect("serve runs");
            (status, out.buf)
        });
        let addr = addr_rx.recv_timeout(Duration::from_secs(10)).expect("startup line");
        (server, addr)
    }

    /// Asks the daemon to shut down over a fresh connection.
    fn request_shutdown(addr: &str) {
        let mut conn = TcpStream::connect(addr).expect("connect for shutdown");
        conn.write_all(&protocol::encode_op(op::SHUTDOWN)).unwrap();
        let _ = protocol::read_reply(&mut conn);
    }

    /// Extracts `"key":N` from a flat JSON body.
    fn json_counter(body: &str, key: &str) -> u64 {
        let needle = format!("\"{key}\":");
        let at = body.find(&needle).unwrap_or_else(|| panic!("{key} in {body}"));
        body[at + needle.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap_or_else(|_| panic!("{key} is numeric in {body}"))
    }

    /// Polls STATUS on fresh connections until `key` reaches `at_least`
    /// (counters for a closing connection land just *after* its socket
    /// closes, so an immediate read can race them).
    fn wait_for_counter(addr: &str, key: &str, at_least: u64) -> String {
        let mut body = String::new();
        for _ in 0..250 {
            let mut conn = TcpStream::connect(addr).expect("connect for status");
            conn.write_all(&protocol::encode_op(op::STATUS)).unwrap();
            let (_, reply) = protocol::read_reply(&mut conn).expect("status reply");
            body = String::from_utf8(reply).unwrap();
            if json_counter(&body, key) >= at_least {
                return body;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("STATUS {key} never reached {at_least}: {body}");
    }

    /// `--ring` counts observations whatever the chunk sizes: many
    /// one-observation chunks fill it exactly as one large chunk does, and
    /// a handler blocked on a full ring resumes once the worker gives room
    /// back.
    #[test]
    fn a_ring_holds_at_most_its_capacity_in_observations() {
        let (tx, rx) = ring(4);
        for i in 0..4 {
            tx.send(vec![(i, 1.0)]).expect("room for four observations");
        }
        let (done_tx, done_rx) = mpsc::channel();
        let blocked = {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let sent = tx.send(vec![(9, 1.0), (10, 1.0)]).is_ok();
                done_tx.send(sent).unwrap();
            })
        };
        assert!(
            done_rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "a fifth observation must wait for room"
        );
        // One chunk applied frees one observation: still no room for two.
        let Ok(WorkerMsg::Batch(chunk)) = rx.rx.recv() else { panic!("a chunk") };
        rx.room.give_back(chunk.len());
        assert!(done_rx.recv_timeout(Duration::from_millis(200)).is_err(), "room for one only");
        let Ok(WorkerMsg::Batch(chunk)) = rx.rx.recv() else { panic!("a chunk") };
        rx.room.give_back(chunk.len());
        assert_eq!(done_rx.recv_timeout(Duration::from_secs(10)), Ok(true), "room for two");
        blocked.join().unwrap();
    }

    /// A worker that is gone frees no room again: a handler waiting for
    /// room gets `WorkerGone` instead of waiting forever.
    #[test]
    fn a_gone_worker_releases_handlers_waiting_for_room() {
        let (tx, rx) = ring(1);
        tx.send(vec![(1, 1.0)]).expect("room for one");
        let blocked = std::thread::spawn(move || tx.send(vec![(2, 1.0)]).is_err());
        std::thread::sleep(Duration::from_millis(50));
        drop(rx);
        assert!(blocked.join().unwrap(), "the blocked send must fail, not hang");
    }

    /// A ring that never goes quiet for long must not starve the explain
    /// queue: the worker answers a queued alarm in the first gap between
    /// two messages, not only once traffic pauses or the ring closes.
    #[test]
    fn busy_ring_does_not_starve_explains() {
        let fleet =
            MonitorFleet::new(FleetConfig::new(1, MonitorConfig::new(16, 0.05))).expect("fleet");
        let (_, mut shards, stats) = fleet.into_shards();
        let shard = shards.pop().expect("one shard");
        let (tx, rx) = ring(256);
        let (log_tx, log_rx) = mpsc::channel::<String>();
        let worker = std::thread::spawn(move || worker_loop(shard, rx, None, u64::MAX, &log_tx));

        // Series 9: a reference window at level 0, then a test window at
        // level 30 — one alarm on the push that fills both windows.
        for i in 0..32u64 {
            let value = ((i * 13) % 11) as f64 + if i < 16 { 0.0 } else { 30.0 };
            tx.send(vec![(9, value)]).unwrap();
        }
        // Then keep the ring busy for 300 ms with an observation every 2 ms
        // for a constant series that never alarms. No query: a query's
        // reply waits for the explanation, which would hide a starved
        // queue.
        let mut lines = Vec::new();
        let started = Instant::now();
        while started.elapsed() < Duration::from_millis(300) {
            tx.send(vec![(10, 1.0)]).unwrap();
            lines.extend(log_rx.try_iter());
            std::thread::sleep(Duration::from_millis(2));
        }
        let explained_while_busy =
            lines.iter().any(|line| line == "EXPLAIN series=9 push=32 k=14 after=1.000000");

        drop(tx);
        worker.join().expect("worker exits");
        lines.extend(log_rx.try_iter());
        let view = stats.view();
        assert!(
            lines.iter().any(|line| line.starts_with("ALARM series=9 push=32")),
            "series 9 alarms: {lines:?}"
        );
        assert!(explained_while_busy, "no EXPLAIN before the ring went quiet: {lines:?}");
        assert_eq!(view.alarms, 1, "{view:?}");
        assert_eq!(view.explained + view.explain_dropped, view.alarms, "{view:?}");
    }

    /// A query's reply is a barrier for explanations: every alarm its
    /// shard raised before the query is explained (its `EXPLAIN` line
    /// sent, its counter bumped) by the time the reply arrives, so a
    /// client that reads STATUS next sees `explained + explain_dropped ==
    /// alarms`.
    #[test]
    fn query_reply_waits_for_owed_explains() {
        // A wide window, so the owed explanations take long enough (about
        // 1 ms together) that a reply sent ahead of them is caught.
        const W: u64 = 1000;
        const SERIES: u64 = 4;
        let monitor = MonitorConfig::new(W as usize, 0.05);
        let fleet = MonitorFleet::new(FleetConfig::new(1, monitor)).expect("fleet");
        let (_, mut shards, stats) = fleet.into_shards();
        let shard = shards.pop().expect("one shard");
        let (tx, rx) = ring((2 * W * SERIES + 1) as usize);
        let (log_tx, log_rx) = mpsc::channel::<String>();

        // Each series raises one alarm on its last push, and the query is
        // queued right behind the last observation. All of it is in the
        // ring before the worker starts, so the ring is never empty before
        // the query and every ticket is owed when it arrives.
        for series in 1..=SERIES {
            for i in 0..2 * W {
                let value = ((i * 13) % 11) as f64 + if i < W { 0.0 } else { 30.0 };
                tx.send(vec![(series, value)]).unwrap();
            }
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        tx.tx.send(WorkerMsg::Query { series: SERIES, reply: reply_tx }).unwrap();
        let worker = std::thread::spawn(move || worker_loop(shard, rx, None, u64::MAX, &log_tx));
        let reply = reply_rx.recv().expect("query answered").expect("series exists");
        let view = stats.view();
        let lines: Vec<String> = log_rx.try_iter().collect();

        assert_eq!(reply.pushes, 2 * W);
        assert_eq!(view.alarms, SERIES, "{view:?}");
        assert_eq!(view.explained + view.explain_dropped, view.alarms, "{view:?}");
        let explains = lines.iter().filter(|line| line.starts_with("EXPLAIN ")).count();
        assert_eq!(explains as u64, SERIES, "{lines:?}");
        drop(tx);
        worker.join().expect("worker exits");
    }

    /// The `EXPLAIN` line's bytes are part of the log schema; clients
    /// parse `k=`, `k_hat=`, `after=` and `degraded=identity`.
    #[test]
    fn explain_lines_keep_their_bytes() {
        let (log_tx, log_rx) = mpsc::channel::<String>();
        let outcome =
            moche_core::KsOutcome { statistic: 0.9, threshold: 0.5, rejected: true, n: 8, m: 8 };
        let size =
            moche_core::SizeSearch { k: 3, k_hat: 2, theorem1_checks: 1, theorem2_checks: 1 };
        let alarm = ExplainedAlarm {
            series: u64::MAX,
            at_push: 123,
            outcome,
            explanation: None,
            size: Some(size),
            degraded: true,
        };
        log_explained(&alarm, &log_tx);
        log_explained(&ExplainedAlarm { size: None, degraded: false, ..alarm }, &log_tx);
        let lines: Vec<String> = log_rx.try_iter().collect();
        assert_eq!(
            lines,
            [
                "EXPLAIN series=18446744073709551615 push=123 k=3 k_hat=2 degraded=identity",
                "EXPLAIN series=18446744073709551615 push=123",
            ]
        );
    }

    /// End-to-end over a real TCP socket, in-process: push a drifting
    /// series in binary mode, check status and per-series replies, shut
    /// down gracefully, and verify the final RunStatus health.
    #[test]
    fn serve_round_trip_over_tcp() {
        let (server, addr) = spawn_server(options(Listen::Tcp("127.0.0.1:0".into())));
        let mut conn = TcpStream::connect(&addr).expect("connect");
        // A level shift after 200 stationary observations must alarm.
        for i in 0..400u64 {
            let value = ((i * 13) % 11) as f64 + if i < 200 { 0.0 } else { 30.0 };
            conn.write_all(&protocol::encode_obs(9, value)).unwrap();
        }
        conn.write_all(&protocol::encode_series(9)).unwrap();
        conn.flush().unwrap();
        let (opcode, body) = protocol::read_reply(&mut conn).unwrap();
        assert_eq!(opcode, op::SERIES | op::REPLY);
        let body = String::from_utf8(body).unwrap();
        assert!(body.contains("\"found\":true"), "series must exist: {body}");
        assert!(body.contains("\"pushes\":400"), "all pushes must be applied: {body}");
        conn.write_all(&protocol::encode_op(op::STATUS)).unwrap();
        let (opcode, body) = protocol::read_reply(&mut conn).unwrap();
        assert_eq!(opcode, op::STATUS | op::REPLY);
        let body = String::from_utf8(body).unwrap();
        assert!(body.contains("\"accepted\":400"), "status: {body}");
        assert!(body.contains("\"worker_panics\":0"), "status: {body}");
        assert!(body.contains("\"connections_opened\":1"), "status: {body}");
        assert!(body.contains("\"active_connections\":1"), "status: {body}");
        assert!(body.contains("\"max_connections\":32"), "status: {body}");
        conn.write_all(&protocol::encode_op(op::SHUTDOWN)).unwrap();
        let (opcode, _) = protocol::read_reply(&mut conn).unwrap();
        assert_eq!(opcode, op::SHUTDOWN | op::REPLY);
        drop(conn);
        let (status, log) = server.join().expect("server thread");
        let log = String::from_utf8_lossy(&log);
        assert!(log.contains("ALARM series=9"), "the shift must alarm:\n{log}");
        assert!(log.contains("shutdown complete"), "graceful exit line:\n{log}");
        assert_eq!(status.exit_code(), 0);
        assert_eq!(status.health.worker_panics, 0);
        assert_eq!(status.health.evicted_connections, 0);
    }

    /// The JSON wire mode speaks the same protocol.
    #[test]
    fn serve_round_trip_over_json_lines() {
        let (server, addr) = spawn_server(options(Listen::Tcp("127.0.0.1:0".into())));
        let conn = TcpStream::connect(&addr).expect("connect");
        let mut writer = conn.try_clone().expect("clone");
        let mut reader = BufReader::new(conn);
        for i in 0..50 {
            writeln!(writer, "{{\"series\":1,\"value\":{}.0}}", i % 7).unwrap();
        }
        writeln!(writer, "{{\"cmd\":\"series\",\"series\":1}}").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"pushes\":50"), "JSON reply: {line}");
        writeln!(writer, "{{\"cmd\":\"shutdown\"}}").unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"accepted\":50"), "shutdown reply: {line}");
        drop((writer, reader));
        let (status, _) = server.join().expect("server thread");
        assert_eq!(status.exit_code(), 0);
    }

    /// The per-connection error budget: each malformed binary frame gets
    /// a structured `ERR` reply with the budget countdown (the exact JSON
    /// is pinned), valid traffic still works in between, and the frame
    /// past the budget closes the connection — all of it counted.
    #[test]
    fn malformed_frames_spend_the_error_budget_then_close() {
        let mut opts = options(Listen::Tcp("127.0.0.1:0".into()));
        opts.error_budget = 2;
        let (server, addr) = spawn_server(opts);
        let mut conn = TcpStream::connect(&addr).expect("connect");
        // An OBS frame with a 3-byte body instead of 16.
        let mut bad = Vec::new();
        bad.extend_from_slice(&4u32.to_le_bytes());
        bad.extend_from_slice(&[op::OBS, 1, 2, 3]);

        conn.write_all(&bad).unwrap();
        let (opcode, body) = protocol::read_reply(&mut conn).unwrap();
        assert_eq!(opcode, op::ERR | op::REPLY);
        assert_eq!(
            String::from_utf8(body).unwrap(),
            "{\"error\":\"OBS payload must be 16 bytes, got 3\",\"budget_remaining\":1}"
        );
        // Framing is intact: a good OBS plus a SERIES barrier still work.
        conn.write_all(&protocol::encode_obs(5, 1.0)).unwrap();
        conn.write_all(&protocol::encode_series(5)).unwrap();
        let (opcode, body) = protocol::read_reply(&mut conn).unwrap();
        assert_eq!(opcode, op::SERIES | op::REPLY);
        let body = String::from_utf8(body).unwrap();
        assert!(body.contains("\"pushes\":1"), "the good OBS landed: {body}");

        conn.write_all(&bad).unwrap();
        let (opcode, body) = protocol::read_reply(&mut conn).unwrap();
        assert_eq!(opcode, op::ERR | op::REPLY);
        assert!(String::from_utf8(body).unwrap().contains("\"budget_remaining\":0"));

        // The third malformed frame exceeds the budget of 2: one final
        // fatal reply, then the close.
        conn.write_all(&bad).unwrap();
        let (opcode, body) = protocol::read_reply(&mut conn).unwrap();
        assert_eq!(opcode, op::ERR | op::REPLY);
        assert!(String::from_utf8(body).unwrap().contains("\"fatal\":true"));
        let mut one = [0u8; 1];
        assert_eq!(conn.read(&mut one).unwrap(), 0, "connection must be closed");

        let status_body = wait_for_counter(&addr, "error_budget_closes", 1);
        assert_eq!(json_counter(&status_body, "malformed_frames"), 3, "{status_body}");
        request_shutdown(&addr);
        let (status, log) = server.join().expect("server thread");
        assert_eq!(status.exit_code(), 0);
        assert!(
            String::from_utf8_lossy(&log).contains("reason=error-budget malformed=3"),
            "close must be logged"
        );
        assert_eq!(status.health.evicted_connections, 1);
    }

    /// Admission control: past `--max-connections` a connection gets one
    /// binary `BUSY` reply with a retry hint, then a close — while the
    /// admitted connection keeps working.
    #[test]
    fn admission_cap_rejects_with_busy() {
        let mut opts = options(Listen::Tcp("127.0.0.1:0".into()));
        opts.max_connections = 1;
        let (server, addr) = spawn_server(opts);
        let mut first = TcpStream::connect(&addr).expect("connect");
        // The STATUS barrier proves the first connection is admitted
        // (active = 1) before the second one arrives.
        first.write_all(&protocol::encode_op(op::STATUS)).unwrap();
        let (opcode, _) = protocol::read_reply(&mut first).unwrap();
        assert_eq!(opcode, op::STATUS | op::REPLY);

        let mut second = TcpStream::connect(&addr).expect("connect");
        second.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let (opcode, body) = protocol::read_reply(&mut second).unwrap();
        assert_eq!(opcode, op::BUSY | op::REPLY);
        let body = String::from_utf8(body).unwrap();
        assert!(body.contains("\"busy\":true"), "{body}");
        assert!(body.contains("\"retry_after_ms\":1000"), "{body}");
        assert!(body.contains("\"max_connections\":1"), "{body}");
        let mut one = [0u8; 1];
        assert_eq!(second.read(&mut one).unwrap(), 0, "rejected connection must close");
        drop(second);

        // The admitted connection is unaffected and can shut us down.
        first.write_all(&protocol::encode_op(op::SHUTDOWN)).unwrap();
        let (opcode, _) = protocol::read_reply(&mut first).unwrap();
        assert_eq!(opcode, op::SHUTDOWN | op::REPLY);
        drop(first);
        let (status, log) = server.join().expect("server thread");
        assert_eq!(status.exit_code(), 0);
        assert_eq!(status.health.busy_rejections, 1);
        let log = String::from_utf8_lossy(&log);
        assert!(log.contains("BUSY rejecting connection"), "{log}");
        assert!(log.contains("1 busy rejection(s)"), "health line must count it:\n{log}");
    }

    /// The idle budget: a connection that goes quiet is evicted with a
    /// courtesy notice, counted, and the daemon keeps serving others.
    #[test]
    fn idle_connections_are_evicted() {
        let mut opts = options(Listen::Tcp("127.0.0.1:0".into()));
        opts.idle_timeout = 1;
        let (server, addr) = spawn_server(opts);
        let mut idle = TcpStream::connect(&addr).expect("connect");
        idle.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // One complete frame locks binary mode; then silence.
        idle.write_all(&protocol::encode_obs(1, 1.0)).unwrap();
        let (opcode, body) = protocol::read_reply(&mut idle).expect("eviction notice");
        assert_eq!(opcode, op::ERR | op::REPLY);
        let body = String::from_utf8(body).unwrap();
        assert!(body.contains("idle timeout"), "{body}");
        assert!(body.contains("\"fatal\":true"), "{body}");
        let mut one = [0u8; 1];
        assert_eq!(idle.read(&mut one).unwrap(), 0, "evicted connection must close");

        let status_body = wait_for_counter(&addr, "idle_timeouts", 1);
        assert_eq!(json_counter(&status_body, "idle_timeout_secs"), 1, "{status_body}");
        request_shutdown(&addr);
        let (status, log) = server.join().expect("server thread");
        assert_eq!(status.exit_code(), 0);
        assert_eq!(status.health.evicted_connections, 1);
        assert!(String::from_utf8_lossy(&log).contains("reason=idle-timeout"), "close logged");
    }

    /// The newline-JSON length bound (the satellite case): a line past
    /// MAX_FRAME_LEN with no terminator is fatal — one structured error
    /// line, then the close, instead of unbounded buffering.
    #[test]
    fn unterminated_oversized_json_line_is_fatal() {
        let (server, addr) = spawn_server(options(Listen::Tcp("127.0.0.1:0".into())));
        let conn = TcpStream::connect(&addr).expect("connect");
        let mut writer = conn.try_clone().expect("clone");
        let mut reader = BufReader::new(conn);
        writer.write_all(&vec![b'{'; MAX_FRAME_LEN as usize + 2]).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).expect("fatal error line");
        assert!(line.contains("no terminator"), "{line}");
        assert!(line.contains("\"fatal\":true"), "{line}");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection must close");

        let status_body = wait_for_counter(&addr, "error_budget_closes", 1);
        assert!(json_counter(&status_body, "malformed_frames") >= 1, "{status_body}");
        request_shutdown(&addr);
        let (status, log) = server.join().expect("server thread");
        assert_eq!(status.exit_code(), 0);
        assert!(String::from_utf8_lossy(&log).contains("reason=protocol-fatal"), "close logged");
    }

    #[test]
    fn resume_without_dir_is_a_usage_error() {
        let mut opts = options(Listen::Tcp("127.0.0.1:0".into()));
        opts.resume = true;
        let mut out = Vec::new();
        assert!(matches!(run_serve(&opts, &mut out), Err(CliError::Usage(_))));
    }
}
