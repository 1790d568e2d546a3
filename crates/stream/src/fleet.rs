//! `MonitorFleet`: many series, few workers — the multi-tenant layer the
//! `moche serve` daemon is a thin I/O shell around.
//!
//! A single [`crate::DriftMonitor`] owns both its per-series state *and*
//! the alarm-answering scratch (explain engine, FFT planes, arena). At
//! fleet scale that second half is the expensive one, and it is idle
//! except while answering an alarm — so the fleet keeps exactly one
//! [`MonitorScratch`] per shard and slab-stores only the lean per-series
//! [`MonitorState`]s (`O(w)` each: windows + one KS treap + counters).
//!
//! ## Sharding
//!
//! Series are assigned to shards by [`shard_of`], a pure splitmix64 hash
//! of the series id — **stable across processes and restarts** (no
//! per-process seed), which is what lets a resumed daemon route every
//! checkpointed series back to a worker deterministically. Each shard is
//! single-threaded by construction: one worker owns it outright, so the
//! hot push path takes no locks and shares no cache lines.
//!
//! ## The alarm-explain queue
//!
//! Answering one alarm at w=1000 — index rebuild, Spectral-Residual
//! scoring and the explanation — takes about 0.21 ms (a traced `perfbench`
//! `serve_drift` run on a 2-vCPU box: `drain_explain` p50 0.21 ms, of
//! which `explain` 0.10 ms and `sr.score` 0.08 ms), the time of about 100
//! steady-state pushes (~2 µs each in the same run). If alarms were
//! explained inline, one drifting series would stall every other series on
//! its shard. Instead a push that alarms *captures* the window pair into
//! recycled buffers ([`WindowCapture`], `O(w)` copy, no allocation when
//! warm) and enqueues it on a **bounded** per-shard queue. The worker
//! answers one ticket whenever no observation is waiting for it and looks
//! at its ingest ring again before the next, so an explanation waits for
//! the observations queued ahead of it and never for idle time. The alarm
//! itself (outcome + counters) is recorded at push time and is never
//! dropped — when the queue is full only the *explanation work* is shed,
//! and [`FleetStats::explain_dropped`] counts every shed ticket.
//!
//! ## Checkpoint / resume
//!
//! Each shard persists all its series as one atomic
//! `shard-NNNN.snap` file (magic `MOCHEFLT`, CRC-checked, nested
//! version-2 [`MonitorSnapshot`]s). [`MonitorFleet::resume_from_dir`]
//! reads every shard file and re-routes each series by [`shard_of`], so a
//! resume is correct even if the worker count changed in between. The
//! per-series byte-identical-resume guarantee (see [`crate::snapshot`])
//! lifts to the fleet: a resumed fleet raises the same alarms the
//! uninterrupted one would have.

use crate::monitor::{MonitorConfig, MonitorEvent, MonitorScratch, MonitorState, WindowCapture};
use crate::snapshot::{crc32, write_bytes_atomic, MonitorSnapshot, SnapshotError};
use moche_core::fault::{self, Fault};
use moche_core::{Explanation, KsConfig, KsOutcome, MocheError, SizeSearch};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Leading bytes identifying a fleet shard checkpoint file.
pub const FLEET_SHARD_MAGIC: [u8; 8] = *b"MOCHEFLT";
/// The shard-container format version this build writes and reads.
pub const FLEET_SHARD_VERSION: u32 = 1;

const SHARD_HEADER_LEN: usize = 8 + 4 + 8;

/// The shard a series id lives on, for a fleet of `shards` workers.
///
/// A pure splitmix64 finalizer over the id — deterministic across
/// processes, builds, and restarts (property-tested by
/// `tests/proptest_fleet.rs`), so checkpointed series always route back
/// to a consistent worker and two fleets with the same shard count agree
/// on placement.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn shard_of(series: u64, shards: usize) -> usize {
    assert!(shards > 0, "a fleet needs at least one shard");
    let mut z = series.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// Fleet configuration: the per-series monitor settings plus the fleet's
/// own knobs.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Worker/shard count (each shard is owned by exactly one worker).
    pub shards: usize,
    /// Per-series monitor configuration. `explain_on_drift` / `size_only`
    /// select what the deferred alarm queue computes; pushes themselves
    /// never explain inline.
    pub monitor: MonitorConfig,
    /// Bound on each shard's pending alarm-explain queue. A full queue
    /// sheds explanation work (counted, never silently) instead of
    /// blocking pushes.
    pub explain_queue: usize,
    /// Hard cap on the number of tracked series across the fleet
    /// (`usize::MAX` = unbounded). Pushes for new series beyond the cap
    /// are rejected with [`FleetPush::AtCapacity`] so an id-sweeping
    /// client cannot OOM the daemon.
    pub max_series: usize,
}

impl FleetConfig {
    /// A fleet of `shards` workers running `monitor` per series, with a
    /// 64-deep explain queue per shard and no series cap.
    pub fn new(shards: usize, monitor: MonitorConfig) -> Self {
        Self { shards, monitor, explain_queue: 64, max_series: usize::MAX }
    }
}

/// Fleet-wide counters, shared (lock-free) between the shard workers and
/// whoever serves the status endpoint. All monotonic except
/// [`series`](Self::series), which is a gauge.
#[derive(Debug, Default)]
pub struct FleetStats {
    /// Observations accepted into some series' windows.
    pub accepted: AtomicU64,
    /// Non-finite observations rejected (series state untouched).
    pub skipped_observations: AtomicU64,
    /// Drift alarms raised (recorded at push time; never shed).
    pub alarms: AtomicU64,
    /// Alarm tickets answered by the deferred explain queue.
    pub explained: AtomicU64,
    /// Alarm tickets shed because the explain queue was full — the alarm
    /// itself was still counted and reported.
    pub explain_dropped: AtomicU64,
    /// Explanations that fell back to the identity preference (see
    /// [`crate::DriftMonitor::degraded_preferences`]).
    pub degraded_preferences: AtomicU64,
    /// Worker panics caught and isolated (the panicking series is
    /// quarantined; the shard keeps serving the rest).
    pub worker_panics: AtomicU64,
    /// Series removed after a panic mid-update left their state suspect.
    pub quarantined_series: AtomicU64,
    /// Pushes rejected because [`FleetConfig::max_series`] was reached.
    pub rejected_at_capacity: AtomicU64,
    /// Shard checkpoint files written successfully.
    pub checkpoints_written: AtomicU64,
    /// Shard checkpoint attempts that failed (the shard keeps running;
    /// the previous checkpoint file, if any, is still intact).
    pub checkpoint_failures: AtomicU64,
    /// Currently tracked series (gauge).
    pub series: AtomicU64,
    // Serving-edge counters, maintained by the daemon's connection
    // supervisor (`moche serve`): the fleet itself never touches them, but
    // they live here so one `Arc<FleetStats>` carries every number the
    // STATUS endpoint and the final health line report. None of them
    // affects `is_clean()` — a misbehaving *client* is not a degraded
    // *daemon*.
    /// Connections admitted by the accept loop.
    pub connections_opened: AtomicU64,
    /// Connections rejected with a `BUSY` reply at `--max-connections`.
    pub busy_rejections: AtomicU64,
    /// Connections evicted for sending nothing within the idle budget.
    pub idle_timeouts: AtomicU64,
    /// Connections evicted for stalling mid-frame past the I/O deadline.
    pub stalled_reads: AtomicU64,
    /// Connections evicted because a reply write stalled (a peer that
    /// never reads) past the I/O deadline.
    pub stalled_writes: AtomicU64,
    /// Malformed frames / JSON lines answered with a structured error.
    pub malformed_frames: AtomicU64,
    /// Connections closed after spending their malformed-frame budget.
    pub error_budget_closes: AtomicU64,
    /// Connections closed by a graceful drain (signal or SHUTDOWN).
    pub drained_connections: AtomicU64,
}

impl FleetStats {
    /// A consistent-enough copy for reporting (each counter is read
    /// atomically; the set is not a global snapshot).
    // lint:allow(relaxed, fn): pure monotonic counters (plus the series
    // gauge) — readers tolerate staleness and no memory is published
    // through these loads; cross-thread handoff in the fleet goes through
    // channels and mutexes, never through FleetStats.
    pub fn view(&self) -> FleetStatsView {
        FleetStatsView {
            accepted: self.accepted.load(Ordering::Relaxed),
            skipped_observations: self.skipped_observations.load(Ordering::Relaxed),
            alarms: self.alarms.load(Ordering::Relaxed),
            explained: self.explained.load(Ordering::Relaxed),
            explain_dropped: self.explain_dropped.load(Ordering::Relaxed),
            degraded_preferences: self.degraded_preferences.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            quarantined_series: self.quarantined_series.load(Ordering::Relaxed),
            rejected_at_capacity: self.rejected_at_capacity.load(Ordering::Relaxed),
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            checkpoint_failures: self.checkpoint_failures.load(Ordering::Relaxed),
            series: self.series.load(Ordering::Relaxed),
            connections_opened: self.connections_opened.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            idle_timeouts: self.idle_timeouts.load(Ordering::Relaxed),
            stalled_reads: self.stalled_reads.load(Ordering::Relaxed),
            stalled_writes: self.stalled_writes.load(Ordering::Relaxed),
            malformed_frames: self.malformed_frames.load(Ordering::Relaxed),
            error_budget_closes: self.error_budget_closes.load(Ordering::Relaxed),
            drained_connections: self.drained_connections.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value copy of [`FleetStats`] for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)] // field-for-field mirror of FleetStats
pub struct FleetStatsView {
    pub accepted: u64,
    pub skipped_observations: u64,
    pub alarms: u64,
    pub explained: u64,
    pub explain_dropped: u64,
    pub degraded_preferences: u64,
    pub worker_panics: u64,
    pub quarantined_series: u64,
    pub rejected_at_capacity: u64,
    pub checkpoints_written: u64,
    pub checkpoint_failures: u64,
    pub series: u64,
    pub connections_opened: u64,
    pub busy_rejections: u64,
    pub idle_timeouts: u64,
    pub stalled_reads: u64,
    pub stalled_writes: u64,
    pub malformed_frames: u64,
    pub error_budget_closes: u64,
    pub drained_connections: u64,
}

impl FleetStatsView {
    /// Total connections the supervisor evicted for cause (idle, stalled
    /// read/write, or a spent error budget). Busy rejections and graceful
    /// drains are counted separately — those connections did nothing wrong.
    pub fn evicted_connections(&self) -> u64 {
        self.idle_timeouts + self.stalled_reads + self.stalled_writes + self.error_budget_closes
    }

    /// Whether the fleet ran degradation-free: no panics, no quarantines,
    /// no shed explanations, no failed checkpoints. Connection-supervision
    /// counters do not factor in: evicting a hostile client is the daemon
    /// working, not the daemon degrading.
    pub fn is_clean(&self) -> bool {
        self.worker_panics == 0
            && self.quarantined_series == 0
            && self.explain_dropped == 0
            && self.checkpoint_failures == 0
    }
}

/// What a fleet push did.
#[derive(Debug, Clone)]
pub enum FleetPush {
    /// The series' windows are still filling.
    Warming,
    /// Windows full, KS test passes.
    Stable,
    /// Drift alarm. The explanation (if configured) is computed later by
    /// the deferred queue; `explain_queued` is false when the queue was
    /// full and the explanation work was shed.
    Alarm {
        /// The failing KS outcome.
        outcome: KsOutcome,
        /// The series' accepted-observation count at the alarm.
        at_push: u64,
        /// Whether an explain ticket was enqueued (false = shed).
        explain_queued: bool,
    },
    /// The observation's series was quarantined by this push: the update
    /// panicked mid-flight (caught), so the series state is suspect and
    /// was removed. Subsequent pushes for the id start a fresh series.
    Quarantined,
    /// A new series could not be created: [`FleetConfig::max_series`].
    AtCapacity,
}

/// Per-series counters surfaced on the daemon's per-series status query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesStats {
    /// Shard the series lives on.
    pub shard: usize,
    /// Accepted observations.
    pub pushes: u64,
    /// Alarms raised.
    pub alarms: u64,
    /// Identity-fallback explanations.
    pub degraded_preferences: u64,
}

/// A deferred alarm waiting on the explain queue.
#[derive(Debug)]
struct PendingExplain {
    series: u64,
    at_push: u64,
    outcome: KsOutcome,
    capture: WindowCapture,
}

/// An answered alarm ticket, handed to the [`FleetShard::drain_explains`]
/// sink. The explanation borrow is recycled into the shard scratch after
/// the sink returns, keeping warm alarms allocation-free.
#[derive(Debug)]
pub struct ExplainedAlarm<'a> {
    /// The alarming series.
    pub series: u64,
    /// The series' accepted-observation count at the alarm.
    pub at_push: u64,
    /// The failing KS outcome at the alarm.
    pub outcome: KsOutcome,
    /// The counterfactual explanation (when configured and computable).
    pub explanation: Option<&'a Explanation>,
    /// The Phase-1 size (when [`MonitorConfig::size_only`]).
    pub size: Option<SizeSearch>,
    /// Whether the preference degraded to the identity order.
    pub degraded: bool,
}

/// One shard: a slab of per-series states plus the worker's shared
/// scratch. Owned by exactly one worker thread at a time; all methods
/// take `&mut self`, so the compiler enforces that.
#[derive(Debug)]
pub struct FleetShard {
    id: usize,
    cfg: FleetConfig,
    /// Slab of live series states; `ids[i]` is the series id of `slab[i]`.
    slab: Vec<MonitorState>,
    ids: Vec<u64>,
    by_id: HashMap<u64, usize>,
    /// The worker's shared alarm-answering scratch — one per shard, not
    /// per series.
    scratch: MonitorScratch,
    /// Bounded deferred-explain queue (bound: `cfg.explain_queue`).
    pending: VecDeque<PendingExplain>,
    /// Recycled capture buffers (bounded by the queue depth + 1).
    capture_pool: Vec<WindowCapture>,
    stats: Arc<FleetStats>,
    /// Observations accepted by this shard (drives the checkpoint cadence
    /// without touching the shared atomics).
    accepted: u64,
}

impl FleetShard {
    fn new(id: usize, cfg: FleetConfig, ks_cfg: KsConfig, stats: Arc<FleetStats>) -> Self {
        Self {
            id,
            cfg,
            slab: Vec::new(),
            ids: Vec::new(),
            by_id: HashMap::new(),
            scratch: MonitorScratch::with_config(ks_cfg),
            pending: VecDeque::new(),
            capture_pool: Vec::new(),
            stats,
            accepted: 0,
        }
    }

    /// This shard's index within the fleet.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Live series on this shard.
    pub fn series_count(&self) -> usize {
        self.slab.len()
    }

    /// Pending (unanswered) alarm-explain tickets.
    pub fn pending_explains(&self) -> usize {
        self.pending.len()
    }

    /// Observations this shard has accepted (drives checkpoint cadence).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Per-series counters, if the series lives on this shard.
    pub fn series_stats(&self, series: u64) -> Option<SeriesStats> {
        let &slot = self.by_id.get(&series)?;
        let state = &self.slab[slot];
        Some(SeriesStats {
            shard: self.id,
            pushes: state.pushes(),
            alarms: state.alarms(),
            degraded_preferences: state.degraded_preferences(),
        })
    }

    /// Feeds one observation to its series (created on first sight),
    /// with worker-panic isolation: a panic inside the update is caught,
    /// the series is quarantined (its state is suspect mid-update), and
    /// the shard keeps serving every other series.
    ///
    /// # Errors
    ///
    /// [`MocheError::NonFiniteObservation`] for NaN/infinite values (the
    /// series state is untouched and the skip is counted).
    pub fn push(&mut self, series: u64, value: f64) -> Result<FleetPush, MocheError> {
        let slot = match self.by_id.get(&series) {
            Some(&slot) => slot,
            None => {
                // lint:allow(relaxed): approximate capacity check against the
                // series gauge; each shard only admits its own series, so the
                // load observes every increment this thread made.
                // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
                if self.stats.series.load(Ordering::Relaxed) >= self.cfg.max_series as u64 {
                    // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
                    self.stats.rejected_at_capacity.fetch_add(1, Ordering::Relaxed);
                    return Ok(FleetPush::AtCapacity);
                }
                let state = MonitorState::new(self.cfg.monitor)?;
                let slot = self.slab.len();
                self.slab.push(state);
                self.ids.push(series);
                self.by_id.insert(series, slot);
                // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
                self.stats.series.fetch_add(1, Ordering::Relaxed);
                slot
            }
        };

        let mut capture = self.capture_pool.pop().unwrap_or_default();
        let state = &mut self.slab[slot];
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(Fault::Panic) = fault::failpoint("serve.shard_worker") {
                // lint:allow(panic): the armed fault *is* a panic; caught by
                // this catch_unwind and accounted as a worker panic
                panic!("injected shard worker panic (serve.shard_worker)");
            }
            state.try_push_deferred(value, &mut capture)
        }));

        let event = match outcome {
            Ok(Ok(event)) => event,
            Ok(Err(err)) => {
                // Bad input: the state is untouched by contract.
                // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
                self.stats.skipped_observations.fetch_add(1, Ordering::Relaxed);
                self.capture_pool_return(capture);
                return Err(err);
            }
            Err(payload) => {
                // The update panicked mid-flight: the series state may be
                // half-slid, so quarantine it. One poisoned series must
                // not take down the shard.
                let message = fault::panic_message(payload.as_ref());
                // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
                self.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                self.quarantine(series);
                self.capture_pool_return(capture);
                let _ = message; // surfaced via stats; the daemon logs it
                return Ok(FleetPush::Quarantined);
            }
        };

        self.accepted += 1;
        // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        Ok(match event {
            MonitorEvent::Warming { .. } => {
                self.capture_pool_return(capture);
                FleetPush::Warming
            }
            MonitorEvent::Stable { .. } => {
                self.capture_pool_return(capture);
                FleetPush::Stable
            }
            MonitorEvent::Drift { outcome, .. } => {
                // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
                self.stats.alarms.fetch_add(1, Ordering::Relaxed);
                let at_push = self.slab[slot].pushes();
                let wants_explain = self.cfg.monitor.answers_alarms();
                let explain_queued = if wants_explain && self.pending.len() < self.cfg.explain_queue
                {
                    self.pending.push_back(PendingExplain { series, at_push, outcome, capture });
                    true
                } else {
                    if wants_explain {
                        // Queue full: shed the explanation work, never the
                        // alarm or the push path.
                        // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
                        self.stats.explain_dropped.fetch_add(1, Ordering::Relaxed);
                    }
                    self.capture_pool_return(capture);
                    false
                };
                FleetPush::Alarm { outcome, at_push, explain_queued }
            }
        })
    }

    /// Answers up to `budget` pending alarm tickets through the shard's
    /// shared scratch, invoking `sink` for each. Returns how many tickets
    /// were answered. Explains never preempt pushes: the caller answers a
    /// ticket only when no observation is waiting for the shard, and
    /// keeps the budget small so it looks for one again soon (`moche
    /// serve` answers one ticket each time its ingest ring is empty, and
    /// drains the rest in batches at shutdown).
    pub fn drain_explains<F: for<'a> FnMut(&ExplainedAlarm<'a>)>(
        &mut self,
        budget: usize,
        mut sink: F,
    ) -> usize {
        let mut answered = 0;
        while answered < budget {
            let Some(ticket) = self.pending.pop_front() else { break };
            let PendingExplain { series, at_push, outcome, capture } = ticket;
            let (explanation, size, degraded) =
                self.scratch.answer_capture(&self.cfg.monitor, &capture);
            if degraded {
                // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
                self.stats.degraded_preferences.fetch_add(1, Ordering::Relaxed);
                if let Some(&slot) = self.by_id.get(&series) {
                    self.slab[slot].note_degraded();
                }
            }
            // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
            self.stats.explained.fetch_add(1, Ordering::Relaxed);
            sink(&ExplainedAlarm {
                series,
                at_push,
                outcome,
                explanation: explanation.as_ref(),
                size,
                degraded,
            });
            if let Some(e) = explanation {
                self.scratch.recycle(e);
            }
            self.capture_pool_return(capture);
            answered += 1;
        }
        answered
    }

    /// Writes every series on this shard into `dir/shard-NNNN.snap`
    /// atomically (stage + `fsync` + rename). The `serve.checkpoint`
    /// failpoint can inject an I/O failure or a torn final file here.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when staging or renaming fails. Failures are
    /// also counted in [`FleetStats::checkpoint_failures`]; successes in
    /// [`FleetStats::checkpoints_written`].
    pub fn checkpoint(&self, dir: &Path) -> Result<(), SnapshotError> {
        let path = dir.join(shard_file_name(self.id));
        let bytes = self.encode();
        let result = (|| match fault::failpoint("serve.checkpoint") {
            Some(Fault::Error) => Err(SnapshotError::Io(std::io::Error::other(
                "injected shard checkpoint failure (serve.checkpoint)",
            ))),
            Some(Fault::TruncateWrite(keep)) => {
                // The torn write the atomic protocol exists to prevent.
                let keep = keep.min(bytes.len());
                std::fs::write(&path, &bytes[..keep])?;
                Ok(())
            }
            _ => write_bytes_atomic(&path, &bytes),
        })();
        match &result {
            Ok(()) => {
                // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
                self.stats.checkpoints_written.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
                self.stats.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Serializes the shard container: magic, version, length-prefixed
    /// payload (shard id, shard count, then every series as a nested
    /// [`MonitorSnapshot`]), CRC-32.
    fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(self.id as u32).to_le_bytes());
        payload.extend_from_slice(&(self.cfg.shards as u32).to_le_bytes());
        payload.extend_from_slice(&(self.slab.len() as u64).to_le_bytes());
        for (state, &series) in self.slab.iter().zip(&self.ids) {
            let snap = state.snapshot().to_bytes();
            payload.extend_from_slice(&series.to_le_bytes());
            payload.extend_from_slice(&(snap.len() as u64).to_le_bytes());
            payload.extend_from_slice(&snap);
        }
        let mut bytes = Vec::with_capacity(SHARD_HEADER_LEN + payload.len() + 4);
        bytes.extend_from_slice(&FLEET_SHARD_MAGIC);
        bytes.extend_from_slice(&FLEET_SHARD_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let crc = crc32(&bytes[SHARD_HEADER_LEN..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    fn capture_pool_return(&mut self, capture: WindowCapture) {
        // Bounded: the pool never outgrows the explain queue it feeds.
        if self.capture_pool.len() <= self.cfg.explain_queue {
            self.capture_pool.push(capture);
        }
    }

    fn quarantine(&mut self, series: u64) {
        let Some(slot) = self.by_id.remove(&series) else { return };
        self.slab.swap_remove(slot);
        self.ids.swap_remove(slot);
        if slot < self.slab.len() {
            // The former tail moved into the vacated slot.
            self.by_id.insert(self.ids[slot], slot);
        }
        // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
        self.stats.quarantined_series.fetch_add(1, Ordering::Relaxed);
        // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
        self.stats.series.fetch_sub(1, Ordering::Relaxed);
    }

    fn insert_restored(&mut self, series: u64, state: MonitorState) -> Result<(), SnapshotError> {
        if self.by_id.contains_key(&series) {
            return Err(SnapshotError::Invalid("duplicate series id across shard checkpoints"));
        }
        let slot = self.slab.len();
        self.slab.push(state);
        self.ids.push(series);
        self.by_id.insert(series, slot);
        // lint:allow(relaxed): monotonic stats counter; no cross-thread handoff rides on it
        self.stats.series.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// One shard checkpoint file, decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetShardSnapshot {
    /// Shard index at capture time.
    pub shard: u32,
    /// Fleet shard count at capture time (informational: resume re-routes
    /// by the *current* shard count).
    pub shards: u32,
    /// Every series on the shard, as (id, snapshot) pairs.
    pub series: Vec<(u64, MonitorSnapshot)>,
}

impl FleetShardSnapshot {
    /// Decodes and verifies a shard container (magic, version, length,
    /// CRC, then every nested snapshot through its own full validation).
    ///
    /// # Errors
    ///
    /// The same surface as [`MonitorSnapshot::from_bytes`], lifted to the
    /// container: truncation anywhere, bad magic, unsupported version,
    /// checksum mismatch, trailing bytes, or a rejected nested snapshot.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < 8 {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..8] != FLEET_SHARD_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < SHARD_HEADER_LEN {
            return Err(SnapshotError::Truncated);
        }
        // lint:allow(panic): infallible — fixed-width slices of a buffer
        // whose length was checked against SHARD_HEADER_LEN above
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
        if version != FLEET_SHARD_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let payload_len =
            // lint:allow(panic): infallible — same header-length guard
            u64::from_le_bytes(bytes[12..SHARD_HEADER_LEN].try_into().expect("8 bytes"));
        let payload_len = usize::try_from(payload_len)
            .map_err(|_| SnapshotError::Invalid("payload length overflows this platform"))?;
        let total = SHARD_HEADER_LEN
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(4))
            .ok_or(SnapshotError::Invalid("payload length overflows this platform"))?;
        if bytes.len() < total {
            return Err(SnapshotError::Truncated);
        }
        if bytes.len() > total {
            return Err(SnapshotError::Invalid("trailing bytes after the checksum"));
        }
        let payload = &bytes[SHARD_HEADER_LEN..SHARD_HEADER_LEN + payload_len];
        // lint:allow(panic): infallible — `bytes.len() == total` was checked
        let stored_crc = u32::from_le_bytes(bytes[total - 4..].try_into().expect("4-byte slice"));
        if crc32(payload) != stored_crc {
            return Err(SnapshotError::ChecksumMismatch);
        }

        let mut rest = payload;
        let mut take = |n: usize| -> Result<&[u8], SnapshotError> {
            if rest.len() < n {
                return Err(SnapshotError::Truncated);
            }
            let (head, tail) = rest.split_at(n);
            rest = tail;
            Ok(head)
        };
        // lint:allow(panic): infallible — `take(n)` returns exactly n bytes
        let shard = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes"));
        // lint:allow(panic): infallible — `take(n)` returns exactly n bytes
        let shards = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes"));
        // lint:allow(panic): infallible — `take(n)` returns exactly n bytes
        let count = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
        let count = usize::try_from(count)
            .map_err(|_| SnapshotError::Invalid("series count overflows this platform"))?;
        if shards == 0 || u64::from(shard) >= u64::from(shards) {
            return Err(SnapshotError::Invalid("shard index outside the recorded shard count"));
        }
        let mut series = Vec::with_capacity(count.min(payload_len / 16 + 1));
        for _ in 0..count {
            // lint:allow(panic): infallible — `take(n)` returns exactly n bytes
            let id = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
            // lint:allow(panic): infallible — `take(n)` returns exactly n bytes
            let len = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
            let len = usize::try_from(len)
                .map_err(|_| SnapshotError::Invalid("snapshot length overflows this platform"))?;
            let snap = MonitorSnapshot::from_bytes(take(len)?)?;
            series.push((id, snap));
        }
        if !rest.is_empty() {
            return Err(SnapshotError::Invalid("payload longer than its contents"));
        }
        Ok(Self { shard, shards, series })
    }

    /// Reads and verifies a shard container from `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the file cannot be read, otherwise any
    /// [`from_bytes`](Self::from_bytes) rejection.
    pub fn read_from(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

/// The checkpoint file name for shard `id` (`shard-NNNN.snap`).
pub fn shard_file_name(id: usize) -> String {
    format!("shard-{id:04}.snap")
}

/// The multi-series monitor fleet. See the module docs for the design.
///
/// Single-threaded drivers call [`push`](Self::push) /
/// [`drain_explains`](Self::drain_explains) directly; the daemon splits
/// the fleet into its shards ([`into_shards`](Self::into_shards)) and
/// gives each to a worker thread, with routing by [`shard_of`].
#[derive(Debug)]
pub struct MonitorFleet {
    cfg: FleetConfig,
    shards: Vec<FleetShard>,
    stats: Arc<FleetStats>,
}

impl MonitorFleet {
    /// Creates an empty fleet.
    ///
    /// # Errors
    ///
    /// [`MocheError::WindowTooSmall`] (also raised for `shards == 0`) or
    /// [`MocheError::InvalidAlpha`] when the per-series configuration is
    /// invalid — validated here once so per-series creation at push time
    /// cannot fail on configuration.
    pub fn new(cfg: FleetConfig) -> Result<Self, MocheError> {
        if cfg.shards == 0 {
            return Err(MocheError::WindowTooSmall { window: 0, min: 1 });
        }
        // Probe-validate the per-series configuration (window, alpha, SR).
        MonitorState::new(cfg.monitor)?;
        let ks_cfg = KsConfig::new(cfg.monitor.alpha)?;
        let stats = Arc::new(FleetStats::default());
        let shards = (0..cfg.shards)
            .map(|id| FleetShard::new(id, cfg, ks_cfg, Arc::clone(&stats)))
            .collect();
        Ok(Self { cfg, shards, stats })
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The shared counters (clone the `Arc` to watch from other threads).
    pub fn stats(&self) -> &Arc<FleetStats> {
        &self.stats
    }

    /// The shard `series` routes to.
    pub fn route(&self, series: u64) -> usize {
        shard_of(series, self.shards.len())
    }

    /// Total live series across all shards.
    pub fn series_count(&self) -> usize {
        self.shards.iter().map(FleetShard::series_count).sum()
    }

    /// Per-series counters, if the series exists.
    pub fn series_stats(&self, series: u64) -> Option<SeriesStats> {
        self.shards[self.route(series)].series_stats(series)
    }

    /// Feeds one observation, routing by [`shard_of`] — the
    /// single-threaded driver ([`FleetShard::push`] for semantics).
    ///
    /// # Errors
    ///
    /// As for [`FleetShard::push`].
    pub fn push(&mut self, series: u64, value: f64) -> Result<FleetPush, MocheError> {
        let shard = self.route(series);
        self.shards[shard].push(series, value)
    }

    /// Answers up to `budget` pending alarm tickets **per shard**.
    /// Returns the total answered.
    pub fn drain_explains<F: for<'a> FnMut(&ExplainedAlarm<'a>)>(
        &mut self,
        budget: usize,
        mut sink: F,
    ) -> usize {
        self.shards.iter_mut().map(|s| s.drain_explains(budget, &mut sink)).sum()
    }

    /// Checkpoints every shard into `dir` (created if missing). Returns
    /// the number of shard files written.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on the first failing shard; earlier shards'
    /// files are already durable, and each failure is counted.
    pub fn checkpoint_dir(&self, dir: &Path) -> Result<usize, SnapshotError> {
        std::fs::create_dir_all(dir)?;
        for shard in &self.shards {
            shard.checkpoint(dir)?;
        }
        Ok(self.shards.len())
    }

    /// Rebuilds a fleet from every `shard-*.snap` under `dir`, re-routing
    /// each checkpointed series by [`shard_of`] under the *current* shard
    /// count (so resuming with a different worker pool size is correct by
    /// construction). Missing shard files are fine — a shard that never
    /// checkpointed simply contributes no series.
    ///
    /// # Errors
    ///
    /// Any container or nested-snapshot rejection; additionally
    /// [`SnapshotError::Invalid`] for duplicate series ids or a series
    /// whose checkpointed `alpha` differs from the fleet's (each shard
    /// shares one explain engine per significance level).
    pub fn resume_from_dir(cfg: FleetConfig, dir: &Path) -> Result<Self, SnapshotError> {
        let mut fleet = Self::new(cfg)?;
        let mut paths: Vec<_> = std::fs::read_dir(dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".snap"))
            })
            .collect();
        paths.sort();
        for path in paths {
            let shard_snap = FleetShardSnapshot::read_from(&path)?;
            for (series, snap) in &shard_snap.series {
                if snap.alpha.to_bits() != cfg.monitor.alpha.to_bits() {
                    return Err(SnapshotError::Invalid(
                        "checkpointed series alpha differs from the fleet configuration",
                    ));
                }
                let state = MonitorState::restore(snap)?;
                let shard = shard_of(*series, cfg.shards);
                fleet.shards[shard].insert_restored(*series, state)?;
            }
        }
        Ok(fleet)
    }

    /// Splits the fleet into its shards for per-worker ownership, plus
    /// the shared stats handle. Reassemble with
    /// [`from_shards`](Self::from_shards) (e.g. for a final checkpoint
    /// after the workers join).
    pub fn into_shards(self) -> (FleetConfig, Vec<FleetShard>, Arc<FleetStats>) {
        (self.cfg, self.shards, self.stats)
    }

    /// Reassembles a fleet from shards produced by
    /// [`into_shards`](Self::into_shards).
    ///
    /// # Panics
    ///
    /// Panics if the shard list is empty or shard ids are out of order
    /// (i.e. the shards do not come from one `into_shards` call).
    pub fn from_shards(cfg: FleetConfig, shards: Vec<FleetShard>, stats: Arc<FleetStats>) -> Self {
        assert_eq!(shards.len(), cfg.shards, "shard list does not match the configuration");
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(shard.id(), i, "shards out of order");
        }
        Self { cfg, shards, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet_cfg(shards: usize, window: usize) -> FleetConfig {
        let mut monitor = MonitorConfig::new(window, 0.05);
        monitor.reset_on_drift = true;
        FleetConfig::new(shards, monitor)
    }

    /// A deterministic per-series stream: stationary, then level-shifted
    /// after `shift_at` observations.
    fn obs(series: u64, i: u64, shift_at: u64) -> f64 {
        let base = ((i * 13 + series * 7) % 11) as f64;
        if i < shift_at {
            base
        } else {
            base + 20.0
        }
    }

    #[test]
    fn shard_routing_is_deterministic_and_covers_all_shards() {
        for shards in [1usize, 2, 3, 8] {
            let mut hit = vec![false; shards];
            for id in 0..1000u64 {
                let s = shard_of(id, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(id, shards), "routing must be a pure function");
                hit[s] = true;
            }
            assert!(hit.iter().all(|&h| h), "1000 ids must touch every one of {shards} shards");
        }
    }

    #[test]
    fn fleet_raises_the_same_alarms_as_dedicated_monitors() {
        // N series through one fleet vs N standalone DriftMonitors with
        // deferred-equivalent config: same alarm counts per series, same
        // number of explanations answered.
        let cfg = fleet_cfg(3, 25);
        let mut fleet = MonitorFleet::new(cfg).unwrap();
        let series_ids: Vec<u64> = (0..12).map(|i| i * 97 + 5).collect();
        let mut standalone: HashMap<u64, crate::DriftMonitor> = series_ids
            .iter()
            .map(|&id| (id, crate::DriftMonitor::new(cfg.monitor).unwrap()))
            .collect();
        for i in 0..400u64 {
            for &id in &series_ids {
                let shift = 150 + (id % 5) * 30;
                let x = obs(id, i, shift);
                let fleet_event = fleet.push(id, x).unwrap();
                let mono_event = standalone.get_mut(&id).unwrap().push(x);
                match (&fleet_event, &mono_event) {
                    (FleetPush::Alarm { outcome, .. }, MonitorEvent::Drift { outcome: o2, .. }) => {
                        assert_eq!(outcome.statistic.to_bits(), o2.statistic.to_bits());
                    }
                    (FleetPush::Warming, MonitorEvent::Warming { .. })
                    | (FleetPush::Stable, MonitorEvent::Stable { .. }) => {}
                    (a, b) => panic!("divergence at i = {i}, id = {id}: {a:?} vs {b:?}"),
                }
            }
        }
        let mut explained = 0;
        while fleet.drain_explains(16, |alarm| {
            assert!(alarm.explanation.is_some(), "every queued alarm must explain");
        }) > 0
        {
            explained += 1;
        }
        assert!(explained > 0, "the shifts must have queued explanations");
        for &id in &series_ids {
            let stats = fleet.series_stats(id).expect("series exists");
            let mono = &standalone[&id];
            assert_eq!(stats.pushes, mono.pushes(), "id = {id}");
            assert_eq!(stats.alarms, mono.alarms(), "id = {id}");
            assert!(stats.alarms > 0, "every series must have alarmed (id = {id})");
            assert_eq!(stats.shard, shard_of(id, 3));
        }
        let view = fleet.stats().view();
        assert_eq!(view.alarms, fleet.drain_total_alarms_for_test());
        assert_eq!(view.explained + view.explain_dropped, view.alarms);
        assert_eq!(view.series, 12);
    }

    #[test]
    fn fleet_explanations_match_the_inline_monitor_explanations() {
        // The deferred path (capture → rebuild index → shared scratch)
        // must produce byte-identical explanations to the inline path.
        let mut monitor_cfg = MonitorConfig::new(30, 0.05);
        monitor_cfg.reset_on_drift = false;
        let mut cfg = FleetConfig::new(2, monitor_cfg);
        cfg.explain_queue = 1024;
        let mut fleet = MonitorFleet::new(cfg).unwrap();
        let mut inline = crate::DriftMonitor::new(monitor_cfg).unwrap();
        let id = 42u64;
        let mut inline_explanations = Vec::new();
        for i in 0..260u64 {
            let x = obs(id, i, 130);
            fleet.push(id, x).unwrap();
            if let MonitorEvent::Drift { explanation: Some(e), .. } = inline.push(x) {
                inline_explanations.push(e);
            }
        }
        let mut fleet_explanations = Vec::new();
        fleet.drain_explains(usize::MAX, |alarm| {
            fleet_explanations.push(alarm.explanation.expect("queued alarms explain").clone());
        });
        assert!(!inline_explanations.is_empty(), "the shift must alarm");
        assert_eq!(fleet_explanations, inline_explanations);
    }

    #[test]
    fn explain_queue_is_bounded_and_sheds_work_not_alarms() {
        let mut monitor_cfg = MonitorConfig::new(10, 0.05);
        monitor_cfg.reset_on_drift = false; // alarm repeatedly
        let mut cfg = FleetConfig::new(1, monitor_cfg);
        cfg.explain_queue = 3;
        let mut fleet = MonitorFleet::new(cfg).unwrap();
        let id = 7u64;
        let mut alarms = 0u64;
        for i in 0..300u64 {
            if let FleetPush::Alarm { .. } = fleet.push(id, obs(id, i, 60)).unwrap() {
                alarms += 1;
            }
            assert!(
                fleet.shards[0].pending_explains() <= 3,
                "the explain queue must never exceed its bound"
            );
        }
        assert!(alarms > 3, "need more alarms than the queue bound");
        let view = fleet.stats().view();
        assert_eq!(view.alarms, alarms, "every alarm is recorded even when explains shed");
        assert!(view.explain_dropped > 0, "the tiny queue must have shed work");
        let mut answered = 0;
        fleet.drain_explains(usize::MAX, |_| answered += 1);
        let view = fleet.stats().view();
        assert_eq!(view.explained, answered);
        assert_eq!(view.explained + view.explain_dropped, view.alarms);
    }

    #[test]
    fn checkpoint_resume_round_trips_every_shard() {
        let dir = std::env::temp_dir().join("moche-fleet-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = fleet_cfg(3, 20);
        let mut fleet = MonitorFleet::new(cfg).unwrap();
        for i in 0..90u64 {
            for id in 0..20u64 {
                fleet.push(id, obs(id, i, 1_000)).unwrap(); // stationary
            }
        }
        assert_eq!(fleet.checkpoint_dir(&dir).unwrap(), 3);
        let resumed = MonitorFleet::resume_from_dir(cfg, &dir).unwrap();
        assert_eq!(resumed.series_count(), 20);
        for id in 0..20u64 {
            let a = fleet.series_stats(id).unwrap();
            let b = resumed.series_stats(id).unwrap();
            assert_eq!(a, b, "id = {id}");
        }
        // The resumed fleet keeps raising identical alarms.
        let mut original = fleet;
        let mut resumed = resumed;
        for i in 90..200u64 {
            for id in 0..20u64 {
                let a = original.push(id, obs(id, i, 120)).unwrap();
                let b = resumed.push(id, obs(id, i, 120)).unwrap();
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "i = {i}, id = {id}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_reroutes_series_when_the_shard_count_changes() {
        let dir = std::env::temp_dir().join("moche-fleet-reshard");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = fleet_cfg(4, 12);
        let mut fleet = MonitorFleet::new(cfg).unwrap();
        for i in 0..40u64 {
            for id in 0..30u64 {
                fleet.push(id, obs(id, i, 1_000)).unwrap();
            }
        }
        fleet.checkpoint_dir(&dir).unwrap();
        // Shrink 4 → 2 workers: every series must land on its new shard.
        let resumed = MonitorFleet::resume_from_dir(fleet_cfg(2, 12), &dir).unwrap();
        assert_eq!(resumed.series_count(), 30);
        for id in 0..30u64 {
            assert_eq!(resumed.series_stats(id).unwrap().shard, shard_of(id, 2));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_alpha_mismatch_and_duplicates() {
        let dir = std::env::temp_dir().join("moche-fleet-reject");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = fleet_cfg(2, 10);
        let mut fleet = MonitorFleet::new(cfg).unwrap();
        for i in 0..30u64 {
            fleet.push(3, obs(3, i, 1_000)).unwrap();
        }
        fleet.checkpoint_dir(&dir).unwrap();
        let mut other = fleet_cfg(2, 10);
        other.monitor.alpha = 0.01;
        assert!(matches!(
            MonitorFleet::resume_from_dir(other, &dir),
            Err(SnapshotError::Invalid(_))
        ));
        // A duplicated shard file (same series in two files) is rejected.
        let holder = shard_of(3, 2);
        let src = dir.join(shard_file_name(holder));
        let dst = dir.join(shard_file_name(1 - holder));
        std::fs::copy(&src, &dst).unwrap();
        // Patch the duplicate's recorded shard id so only the duplicate
        // series trips the rejection, not the container validation.
        let mut bytes = std::fs::read(&dst).unwrap();
        let payload_start = SHARD_HEADER_LEN;
        let other_id = (1 - holder) as u32;
        bytes[payload_start..payload_start + 4].copy_from_slice(&other_id.to_le_bytes());
        let payload_len = bytes.len() - SHARD_HEADER_LEN - 4;
        let crc = crc32(&bytes[payload_start..payload_start + payload_len]);
        let crc_at = bytes.len() - 4;
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&dst, &bytes).unwrap();
        assert!(matches!(
            MonitorFleet::resume_from_dir(cfg, &dir),
            Err(SnapshotError::Invalid("duplicate series id across shard checkpoints"))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_container_rejects_truncation_and_corruption() {
        let cfg = fleet_cfg(1, 8);
        let mut fleet = MonitorFleet::new(cfg).unwrap();
        for i in 0..20u64 {
            fleet.push(1, obs(1, i, 1_000)).unwrap();
            fleet.push(2, obs(2, i, 1_000)).unwrap();
        }
        let bytes = fleet.shards[0].encode();
        assert!(FleetShardSnapshot::from_bytes(&bytes).is_ok());
        for len in 0..bytes.len() {
            assert!(
                FleetShardSnapshot::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes must be rejected"
            );
        }
        for bit in (0..bytes.len() * 8).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert!(
                FleetShardSnapshot::from_bytes(&corrupt).is_err(),
                "flipping bit {bit} went undetected"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(FleetShardSnapshot::from_bytes(&trailing).is_err());
    }

    #[test]
    fn capacity_cap_rejects_new_series_only() {
        let mut cfg = fleet_cfg(2, 8);
        cfg.max_series = 3;
        let mut fleet = MonitorFleet::new(cfg).unwrap();
        for id in 0..3u64 {
            assert!(matches!(fleet.push(id, 1.0).unwrap(), FleetPush::Warming));
        }
        assert!(matches!(fleet.push(99, 1.0).unwrap(), FleetPush::AtCapacity));
        // Existing series keep flowing.
        assert!(matches!(fleet.push(0, 2.0).unwrap(), FleetPush::Warming));
        assert_eq!(fleet.stats().view().rejected_at_capacity, 1);
        assert_eq!(fleet.series_count(), 3);
    }

    #[test]
    fn non_finite_observations_are_counted_and_rejected() {
        let mut fleet = MonitorFleet::new(fleet_cfg(1, 8)).unwrap();
        fleet.push(5, 1.0).unwrap();
        assert!(fleet.push(5, f64::NAN).is_err());
        assert!(fleet.push(5, f64::INFINITY).is_err());
        let view = fleet.stats().view();
        assert_eq!(view.skipped_observations, 2);
        assert_eq!(view.accepted, 1);
        assert_eq!(fleet.series_stats(5).unwrap().pushes, 1);
    }

    impl MonitorFleet {
        /// Test helper: total alarms according to per-series counters.
        fn drain_total_alarms_for_test(&self) -> u64 {
            self.shards.iter().flat_map(|s| s.slab.iter()).map(MonitorState::alarms).sum()
        }
    }
}
