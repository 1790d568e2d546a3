//! A push-based drift monitor: paired sliding windows, the incremental KS
//! test in steady state, and MOCHE explanations on every alarm.
//!
//! This is the deployment shape the paper motivates (model monitoring,
//! database intrusion detection, change detection): observations stream in
//! one at a time; the last `2w` of them form a reference window (older
//! half) and a test window (newer half); a failed KS test raises a drift
//! alarm, and the monitor answers *which points caused it* with the most
//! comprehensible counterfactual explanation.
//!
//! Each series keeps its windows as one arrival-order ring plus both
//! windows sorted. A push moves the KS gap `max |#{r <= x} - #{t <= x}|`
//! by at most 2, so the sorted windows are checked only when a push could
//! cross the rejection threshold: a push that cannot alarm appends to the
//! ring in `O(1)`, and a check updates both sorted windows and reads the
//! exact statistic in `O(w)`. Warm-up only appends, and the windows are
//! sorted once they are full. An alarm copies the window pair,
//! radix-sorts the reference into a [`ReferenceIndex`] and explains
//! against it — `O(w)` for the sorts and the splice, `O(w log w)` for the
//! Spectral-Residual FFT, plus the explanation construction itself, with
//! **zero** heap allocations once warm (gated by `tests/alloc_count.rs`).
//! Bad input never panics the monitor: route untrusted streams through
//! [`DriftMonitor::try_push`].
//!
//! ## One series vs. a fleet
//!
//! [`DriftMonitor`] is the single-series convenience: it owns both halves
//! of the machinery. Internally those halves are separate types so a
//! multi-series deployment ([`crate::MonitorFleet`]) can pool the
//! expensive one:
//!
//! * [`MonitorState`] — the per-series sliding windows (ring and sorted
//!   vectors) and counters. This is the part that *must* exist once per
//!   series (`O(w)` memory each).
//! * [`MonitorScratch`] — the explain engine, arena, reference index,
//!   Spectral-Residual FFT planes, and preference buffers. This part is
//!   only touched while answering an alarm, so one scratch can serve
//!   thousands of series on a worker (`O(w)` memory once per worker, not
//!   per series).
//!
//! Every alarm is answered the same way, whether inline
//! ([`DriftMonitor`]), deferred ([`crate::MonitorFleet`]'s explain queue)
//! or on demand ([`DriftMonitor::explain_current`]): from a
//! [`WindowCapture`] of the window pair, through
//! `MonitorScratch::answer_capture`.

use crate::windows::{self, SortedWindows, Verdict};
use moche_core::{
    ExplainEngine, Explanation, ExplanationArena, KsConfig, KsOutcome, MocheError, PreferenceList,
    ReferenceIndex, SizeSearch,
};
use moche_sigproc::{SaliencyScratch, SpectralResidual};

/// Monitor configuration.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Window size `w` (`|R| = |T| = w`).
    pub window: usize,
    /// KS significance level.
    pub alpha: f64,
    /// Compute a MOCHE explanation on every alarm (using Spectral-Residual
    /// preference over the test window).
    pub explain_on_drift: bool,
    /// Report only the Phase-1 explanation *size* on alarms — "how bad is
    /// the drift" — skipping Phase 2 entirely. Overrides
    /// `explain_on_drift`'s Phase-2 work: when both are set, alarms carry a
    /// size but no explanation.
    pub size_only: bool,
    /// After an alarm, drop both windows and refill from scratch (prevents
    /// one drift from alarming `w` times as it traverses the window).
    pub reset_on_drift: bool,
    /// Spectral-Residual average-filter size (`q` in the SR paper) used
    /// when ranking test points for explanations. Must be ≥ 1.
    pub sr_filter_window: usize,
    /// Spectral-Residual trailing-average window (`z` in the SR paper)
    /// used to turn saliency into outlier scores. Must be ≥ 1.
    pub sr_score_window: usize,
}

impl MonitorConfig {
    /// A reasonable default: explain and reset on drift, with the SR
    /// paper's reference preference parameters (`q = 3`, `z = 21`).
    pub fn new(window: usize, alpha: f64) -> Self {
        let sr = SpectralResidual::default();
        Self {
            window,
            alpha,
            explain_on_drift: true,
            size_only: false,
            reset_on_drift: true,
            sr_filter_window: sr.filter_window,
            sr_score_window: sr.score_window,
        }
    }

    /// The Spectral-Residual transform this configuration ranks test
    /// points with (extension parameters stay at the SR paper's defaults).
    pub fn spectral_residual(&self) -> SpectralResidual {
        SpectralResidual {
            filter_window: self.sr_filter_window,
            score_window: self.sr_score_window,
            ..SpectralResidual::default()
        }
    }

    /// Whether alarms carry any work (an explanation or a size).
    pub(crate) fn answers_alarms(&self) -> bool {
        self.explain_on_drift || self.size_only
    }
}

/// What a [`DriftMonitor::push`] call observed.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // Drift carries the full Explanation by design
pub enum MonitorEvent {
    /// Still filling the initial `2w` observations.
    Warming {
        /// Observations seen so far.
        seen: usize,
        /// Observations needed before testing starts.
        needed: usize,
    },
    /// Windows full; the KS test passes. Carries no statistic: a push that
    /// provably cannot alarm is decided without computing one. Ask
    /// [`DriftMonitor::outcome_current`] for the exact outcome.
    Stable,
    /// The KS test failed: distribution drift.
    Drift {
        /// The failing outcome, exact.
        outcome: KsOutcome,
        /// The most comprehensible counterfactual explanation of the
        /// failure, when enabled and computable.
        explanation: Option<Explanation>,
        /// The Phase-1 explanation size, when
        /// [`MonitorConfig::size_only`] is set and computable.
        size: Option<SizeSearch>,
    },
}

/// The alarm-answering working set, separate from per-series state so a
/// fleet worker can share one across all the series it owns: the explain
/// engine (bounds workspace, base-vector splice buffers), the recycled
/// explanation arena, the reference index, the Spectral-Residual FFT
/// planes, and the score/preference buffers. Only touched while
/// explaining, never while pushing, so sharing it costs nothing on the
/// fast path.
#[derive(Debug, Clone)]
pub struct MonitorScratch {
    /// Scratch-reusing explainer: alarm N reuses the buffers of alarm N-1.
    engine: ExplainEngine,
    /// Recycled output storage: callers that hand consumed explanations
    /// back via [`recycle`](Self::recycle) make alarms allocation-free on
    /// the output side too.
    arena: ExplanationArena,
    /// Recycled per-alarm scratch: the window pair of an inline or
    /// on-demand alarm (deferred alarms bring their own capture)...
    capture: WindowCapture,
    /// ...the alarm's reference index, re-sorted in place from the
    /// captured reference window (`None` until the first alarm)...
    index: Option<ReferenceIndex>,
    /// ...the buffer that sort runs in...
    sort_scratch: Vec<f64>,
    /// ...the Spectral Residual working set (FFT spectrum, saliency
    /// planes)...
    sr_scratch: SaliencyScratch,
    /// ...the outlier scores derived from it...
    score_scratch: Vec<f64>,
    /// ...and the preference list refilled from those scores.
    pref_scratch: PreferenceList,
}

impl MonitorScratch {
    /// An empty scratch bound to a KS configuration (the engine's `α`).
    /// All series sharing a scratch must use the same significance level.
    pub fn with_config(ks_cfg: KsConfig) -> Self {
        Self {
            engine: ExplainEngine::with_config(ks_cfg),
            arena: ExplanationArena::new(),
            capture: WindowCapture::new(),
            index: None,
            sort_scratch: Vec::new(),
            sr_scratch: SaliencyScratch::new(),
            score_scratch: Vec::new(),
            pref_scratch: PreferenceList::identity(0),
        }
    }

    /// An empty scratch for significance level `alpha`.
    ///
    /// # Errors
    ///
    /// [`MocheError::InvalidAlpha`] outside `(0, 1)`.
    pub fn new(alpha: f64) -> Result<Self, MocheError> {
        Ok(Self::with_config(KsConfig::new(alpha)?))
    }

    /// Hands a consumed explanation's output buffers back for reuse (see
    /// [`moche_core::ExplanationArena`]).
    pub fn recycle(&mut self, explanation: Explanation) {
        self.arena.recycle(explanation);
    }

    /// Answers an alarm on a captured window pair the way `cfg` asks: the
    /// Phase-1 size only ([`MonitorConfig::size_only`]), a full explanation
    /// ([`MonitorConfig::explain_on_drift`]), or nothing. Returns the
    /// explanation, the size, and whether the explanation was ranked with
    /// the identity fallback. The one alarm path of the inline monitor and
    /// the fleet's deferred queue.
    pub(crate) fn answer_capture(
        &mut self,
        cfg: &MonitorConfig,
        capture: &WindowCapture,
    ) -> (Option<Explanation>, Option<SizeSearch>, bool) {
        if cfg.size_only {
            (None, self.size_capture(capture), false)
        } else if cfg.explain_on_drift {
            let (explanation, degraded) = self.explain_capture(&cfg.spectral_residual(), capture);
            (explanation, None, degraded)
        } else {
            (None, None, false)
        }
    }

    /// Explains a captured window pair: sorts the reference into the
    /// recycled index, ranks the test window with `sr` (identity fallback
    /// on breakdown), and constructs the explanation into the arena.
    /// Returns the explanation and whether it was produced with the
    /// degraded (identity) preference.
    fn explain_capture(
        &mut self,
        sr: &SpectralResidual,
        capture: &WindowCapture,
    ) -> (Option<Explanation>, bool) {
        if !self.rebuild_index(&capture.reference) {
            return (None, false);
        }
        let degraded = self.fill_preference(sr, &capture.test);
        let explanation = self.index.as_ref().and_then(|index| {
            self.engine
                .explain_with_index_in(index, &capture.test, &self.pref_scratch, &mut self.arena)
                .ok()
        });
        // Count the degradation only when an explanation was actually
        // produced with the fallback ranking.
        let counted = degraded && explanation.is_some();
        (explanation, counted)
    }

    /// Phase 1 only over a captured window pair.
    fn size_capture(&mut self, capture: &WindowCapture) -> Option<SizeSearch> {
        if !self.rebuild_index(&capture.reference) {
            return None;
        }
        let index = self.index.as_ref()?;
        self.engine.size_with_index(index, &capture.test).ok()
    }

    /// Sorts `reference` into the recycled index. `false` when the
    /// reference is rejected (empty or non-finite); the index must then not
    /// be used, since it still describes an earlier alarm.
    fn rebuild_index(&mut self, reference: &[f64]) -> bool {
        match &mut self.index {
            Some(index) => index.rebuild_from(reference, &mut self.sort_scratch).is_ok(),
            None => {
                self.index = ReferenceIndex::new(reference).ok();
                self.index.is_some()
            }
        }
    }

    /// Fills the preference scratch for `test` by Spectral-Residual score
    /// (falling back to the identity order on numerical breakdown or short
    /// windows) and reports whether it degraded.
    fn fill_preference(&mut self, sr: &SpectralResidual, test: &[f64]) -> bool {
        let m = test.len();
        if m >= 4 {
            let scored =
                sr.scores_into(test, &mut self.sr_scratch, &mut self.score_scratch).is_ok()
                    && self.pref_scratch.fill_from_scores_desc(&self.score_scratch).is_ok();
            if scored {
                return false;
            }
            // A rejected scoring must not silently drop the whole
            // explanation: degrade to the neutral identity order
            // (matching the short-window branch).
            self.pref_scratch.fill_identity(m);
            return true;
        }
        self.pref_scratch.fill_identity(m);
        false
    }
}

/// Recycled buffers holding a point-in-time copy of both windows: what
/// every alarm is explained from. [`MonitorState::try_push_deferred`]
/// hands one to its caller, so the explanation can be computed later
/// (possibly after the windows have slid on or been reset) without
/// blocking the push path. A warm capture of the same window size refills
/// without allocating.
#[derive(Debug, Clone, Default)]
pub struct WindowCapture {
    /// Reference window contents at alarm time, oldest first.
    pub reference: Vec<f64>,
    /// Test window contents at alarm time, oldest first.
    pub test: Vec<f64>,
}

impl WindowCapture {
    /// An empty capture; the first alarm through it allocates, later ones
    /// of the same (or smaller) window size reuse both buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// How alarm-time explanation work is handled by a push.
enum AlarmWork<'a> {
    /// Compute inline through the given scratch (the [`DriftMonitor`]
    /// behaviour: the push call returns the finished explanation).
    Inline(&'a mut MonitorScratch),
    /// Copy the windows into recycled capture buffers and return
    /// immediately; the caller explains later (the fleet's alarm queue).
    Defer(&'a mut WindowCapture),
}

/// The per-series half of a drift monitor: the sliding windows (an
/// arrival-order ring plus both windows sorted) and counters — everything
/// that must exist once per monitored series.
/// All alarm-answering buffers live in a separate [`MonitorScratch`]
/// passed into the methods, so a fleet worker can own one scratch and
/// thousands of states.
#[derive(Debug, Clone)]
pub struct MonitorState {
    cfg: MonitorConfig,
    ks_cfg: KsConfig,
    /// Both windows, checked only when a push could cross the rejection
    /// threshold; see the `windows` module.
    windows: SortedWindows,
    pushes: u64,
    alarms: u64,
    degraded_preferences: u64,
}

impl MonitorState {
    /// Creates the per-series state. Nothing sized by the window is
    /// reserved until the windows first fill.
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::InvalidAlpha`] for a bad significance level
    /// and [`MocheError::WindowTooSmall`] if `window < 2` (paired sliding
    /// windows need at least two points each) or either Spectral-Residual
    /// window is zero, and [`MocheError::SamplesTooLarge`] if `window`
    /// exceeds `i32::MAX`, the size bound the streaming KS tests share
    /// (one side of [`crate::IncrementalKs`] is bounded by it too).
    pub fn new(cfg: MonitorConfig) -> Result<Self, MocheError> {
        if cfg.window < 2 {
            return Err(MocheError::WindowTooSmall { window: cfg.window, min: 2 });
        }
        if i32::try_from(cfg.window).is_err() {
            return Err(MocheError::SamplesTooLarge { n: cfg.window, m: cfg.window });
        }
        if cfg.sr_filter_window < 1 {
            return Err(MocheError::WindowTooSmall { window: cfg.sr_filter_window, min: 1 });
        }
        if cfg.sr_score_window < 1 {
            return Err(MocheError::WindowTooSmall { window: cfg.sr_score_window, min: 1 });
        }
        let ks_cfg = KsConfig::new(cfg.alpha)?;
        Ok(Self {
            cfg,
            ks_cfg,
            windows: SortedWindows::new(cfg.window, windows::reject_at(&ks_cfg, cfg.window)),
            pushes: 0,
            alarms: 0,
            degraded_preferences: 0,
        })
    }

    /// The configuration this state was built with.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Total observations pushed.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Total drift alarms raised.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Identity-fallback explanations produced (see
    /// [`DriftMonitor::degraded_preferences`]).
    pub fn degraded_preferences(&self) -> u64 {
        self.degraded_preferences
    }

    /// Counts a degraded preference produced outside the inline path (the
    /// fleet's deferred explain queue ranks with the same fallback).
    pub(crate) fn note_degraded(&mut self) {
        self.degraded_preferences += 1;
    }

    /// The current reference window contents, oldest first.
    pub fn reference_window(&self) -> Vec<f64> {
        self.windows.reference().copied().collect()
    }

    /// The current test window contents, oldest first.
    pub fn test_window(&self) -> Vec<f64> {
        self.windows.test().copied().collect()
    }

    /// Feeds one observation, answering alarms inline through `scratch` —
    /// see [`DriftMonitor::try_push`] for the event contract.
    ///
    /// # Errors
    ///
    /// [`MocheError::NonFiniteObservation`] for NaN or infinite input; the
    /// state is untouched.
    pub fn try_push(
        &mut self,
        value: f64,
        scratch: &mut MonitorScratch,
    ) -> Result<MonitorEvent, MocheError> {
        self.try_push_impl(value, AlarmWork::Inline(scratch))
    }

    /// Feeds one observation with alarm explanation **deferred**: on drift
    /// the windows are copied into `capture` (recycled buffers, no
    /// allocation when warm) and the event carries no explanation or size.
    /// The caller explains later from the capture — the fleet's
    /// alarm-queue path, where a slow explain must never block the next
    /// push. The push's KS check also sorts in `capture`'s buffers, so
    /// after a push that does not alarm their contents are unspecified.
    ///
    /// # Errors
    ///
    /// As for [`try_push`](Self::try_push).
    pub fn try_push_deferred(
        &mut self,
        value: f64,
        capture: &mut WindowCapture,
    ) -> Result<MonitorEvent, MocheError> {
        self.try_push_impl(value, AlarmWork::Defer(capture))
    }

    fn try_push_impl(
        &mut self,
        value: f64,
        mut work: AlarmWork<'_>,
    ) -> Result<MonitorEvent, MocheError> {
        if !value.is_finite() {
            return Err(MocheError::NonFiniteObservation { accepted: self.pushes, value });
        }
        self.pushes += 1;
        let sort_scratch = match &mut work {
            AlarmWork::Inline(scratch) => &mut scratch.sort_scratch,
            AlarmWork::Defer(capture) => &mut capture.reference,
        };
        match self.windows.push(value, sort_scratch) {
            Verdict::Warming => {
                return Ok(MonitorEvent::Warming {
                    seen: self.windows.len(),
                    needed: 2 * self.cfg.window,
                })
            }
            Verdict::Passes => return Ok(MonitorEvent::Stable),
            Verdict::Rejects => {}
        }

        let outcome = self.outcome(self.windows.gap());
        self.alarms += 1;
        let (explanation, size) = match work {
            AlarmWork::Inline(scratch) if self.cfg.answers_alarms() => {
                let cfg = self.cfg;
                let (explanation, size, degraded) = self
                    .with_capture(scratch, |scratch, capture| {
                        scratch.answer_capture(&cfg, capture)
                    });
                self.degraded_preferences += u64::from(degraded);
                (explanation, size)
            }
            AlarmWork::Inline(_) => (None, None),
            AlarmWork::Defer(capture) => {
                self.capture_windows(capture);
                (None, None)
            }
        };
        if self.cfg.reset_on_drift {
            self.windows.clear();
        }
        Ok(MonitorEvent::Drift { outcome, explanation, size })
    }

    /// The KS outcome of a full window pair whose gap
    /// `max |#{r <= x} - #{t <= x}|` is `gap`: the statistic is `gap / w`.
    /// Exact integer arithmetic up to the one division, so the decision
    /// depends only on the window multisets.
    fn outcome(&self, gap: usize) -> KsOutcome {
        let w = self.cfg.window;
        let statistic = gap as f64 / w as f64;
        KsOutcome {
            statistic,
            threshold: self.ks_cfg.threshold(w, w),
            rejected: self.ks_cfg.rejects(statistic, w, w),
            n: w,
            m: w,
        }
    }

    /// The exact KS outcome of the current window pair through `scratch` —
    /// see [`DriftMonitor::outcome_current`].
    pub fn outcome_in(&mut self, scratch: &mut MonitorScratch) -> Option<KsOutcome> {
        let gap = self.windows.settle(&mut scratch.sort_scratch)?;
        Some(self.outcome(gap))
    }

    /// Explains the current window pair through `scratch` — see
    /// [`DriftMonitor::explain_current`] for the full contract.
    pub fn explain_in(&mut self, scratch: &mut MonitorScratch) -> Option<Explanation> {
        if !self.windows.rejects() {
            // Warming or passing windows have nothing to explain; the last
            // exact decision is current, so an on-demand poll never pays
            // for SR scoring or the index sort to learn that.
            return None;
        }
        let sr = self.cfg.spectral_residual();
        let (explanation, degraded) =
            self.with_capture(scratch, |scratch, capture| scratch.explain_capture(&sr, capture));
        self.degraded_preferences += u64::from(degraded);
        explanation
    }

    /// Phase 1 only through `scratch` — see [`DriftMonitor::size_current`].
    pub fn size_in(&mut self, scratch: &mut MonitorScratch) -> Option<SizeSearch> {
        if !self.windows.rejects() {
            return None; // see explain_in
        }
        self.with_capture(scratch, MonitorScratch::size_capture)
    }

    /// Copies both windows into `capture`, oldest first.
    fn capture_windows(&self, capture: &mut WindowCapture) {
        capture.reference.clear();
        capture.reference.extend(self.windows.reference());
        capture.test.clear();
        capture.test.extend(self.windows.test());
    }

    /// Runs `answer` on a capture of the current windows, taken into the
    /// scratch's own recycled capture buffers.
    fn with_capture<R>(
        &self,
        scratch: &mut MonitorScratch,
        answer: impl FnOnce(&mut MonitorScratch, &WindowCapture) -> R,
    ) -> R {
        let mut capture = std::mem::take(&mut scratch.capture);
        self.capture_windows(&mut capture);
        let out = answer(scratch, &capture);
        scratch.capture = capture;
        out
    }

    /// Captures the restorable state — see [`DriftMonitor::snapshot`].
    pub fn snapshot(&self) -> crate::snapshot::MonitorSnapshot {
        crate::snapshot::MonitorSnapshot {
            window: self.cfg.window,
            alpha: self.cfg.alpha,
            explain_on_drift: self.cfg.explain_on_drift,
            size_only: self.cfg.size_only,
            reset_on_drift: self.cfg.reset_on_drift,
            sr_filter_window: self.cfg.sr_filter_window,
            sr_score_window: self.cfg.sr_score_window,
            pushes: self.pushes,
            alarms: self.alarms,
            degraded_preferences: self.degraded_preferences,
            reference: self.reference_window(),
            test: self.test_window(),
        }
    }

    /// Rebuilds per-series state from a snapshot — see
    /// [`DriftMonitor::restore`] for the equivalence guarantee.
    ///
    /// # Errors
    ///
    /// As for [`DriftMonitor::restore`].
    pub fn restore(
        snapshot: &crate::snapshot::MonitorSnapshot,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        snapshot.validate()?;
        let cfg = MonitorConfig {
            window: snapshot.window,
            alpha: snapshot.alpha,
            explain_on_drift: snapshot.explain_on_drift,
            size_only: snapshot.size_only,
            reset_on_drift: snapshot.reset_on_drift,
            sr_filter_window: snapshot.sr_filter_window,
            sr_score_window: snapshot.sr_score_window,
        };
        let mut state = Self::new(cfg)?;
        state.windows.fill(&snapshot.reference, &snapshot.test);
        state.pushes = snapshot.pushes;
        state.alarms = snapshot.alarms;
        state.degraded_preferences = snapshot.degraded_preferences;
        Ok(state)
    }
}

/// The push-based drift monitor.
///
/// # Examples
///
/// ```
/// use moche_stream::{DriftMonitor, MonitorConfig, MonitorEvent};
///
/// let mut monitor = DriftMonitor::new(MonitorConfig::new(40, 0.05)).unwrap();
/// let mut drifted = false;
/// for i in 0..400 {
///     // Level shift at t = 200.
///     let x = f64::from(i % 8) + if i < 200 { 0.0 } else { 25.0 };
///     if let MonitorEvent::Drift { explanation, .. } = monitor.push(x) {
///         let e = explanation.expect("explanations enabled by default");
///         assert!(e.outcome_after.passes());
///         drifted = true;
///         break;
///     }
/// }
/// assert!(drifted);
/// ```
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    state: MonitorState,
    scratch: MonitorScratch,
}

impl DriftMonitor {
    /// Creates a monitor.
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::InvalidAlpha`] for a bad significance level
    /// and [`MocheError::WindowTooSmall`] if `window < 2` (paired sliding
    /// windows need at least two points each) or either Spectral-Residual
    /// window is zero, and [`MocheError::SamplesTooLarge`] if `window`
    /// exceeds `i32::MAX`.
    pub fn new(cfg: MonitorConfig) -> Result<Self, MocheError> {
        let state = MonitorState::new(cfg)?;
        let scratch = MonitorScratch::with_config(state.ks_cfg);
        Ok(Self { state, scratch })
    }

    /// Total observations pushed.
    pub fn pushes(&self) -> u64 {
        self.state.pushes()
    }

    /// Total drift alarms raised.
    pub fn alarms(&self) -> u64 {
        self.state.alarms()
    }

    /// How many explanations were produced with the identity-preference
    /// fallback because Spectral-Residual scoring rejected the window
    /// (numerical breakdown on extreme values). Each counted explanation
    /// is still valid — just ranked neutrally — and this counter surfaces
    /// the degradation; calls that produce no explanation at all (e.g. an
    /// on-demand [`explain_current`](Self::explain_current) while the
    /// test currently passes) are never counted.
    pub fn degraded_preferences(&self) -> u64 {
        self.state.degraded_preferences()
    }

    /// The current reference window contents, oldest first.
    pub fn reference_window(&self) -> Vec<f64> {
        self.state.reference_window()
    }

    /// The current test window contents, oldest first.
    pub fn test_window(&self) -> Vec<f64> {
        self.state.test_window()
    }

    /// Feeds one observation and reports what happened — the thin
    /// asserting wrapper over [`try_push`](Self::try_push), for trusted
    /// streams.
    ///
    /// # Panics
    ///
    /// Panics on non-finite observations (monitor state stays valid). Use
    /// [`try_push`](Self::try_push) for untrusted input — a data file fed
    /// straight into the monitor should degrade to an error report, not
    /// abort the process.
    pub fn push(&mut self, value: f64) -> MonitorEvent {
        match self.try_push(value) {
            Ok(event) => event,
            // lint:allow(panic): the documented contract of `push` — the
            // fallible twin is `try_push`, which this forwards to
            Err(_) => panic!("observations must be finite (got {value}); see try_push"),
        }
    }

    /// Feeds one observation and reports what happened, rejecting bad
    /// input instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::NonFiniteObservation`] for a NaN or infinite
    /// observation; the monitor state is untouched, so the caller can skip
    /// the observation and keep streaming. The reported position is the
    /// number of observations accepted so far.
    pub fn try_push(&mut self, value: f64) -> Result<MonitorEvent, MocheError> {
        self.state.try_push(value, &mut self.scratch)
    }

    /// Explains the current window pair with MOCHE, ranking test points by
    /// Spectral-Residual outlier score — the alarm path, public so callers
    /// can also ask for an explanation *between* alarms (e.g. on demand
    /// for a dashboard). Returns `None` while the windows are still
    /// warming, or when the KS test currently passes (nothing to explain).
    ///
    /// The windows are copied and the reference radix-sorted into a
    /// [`ReferenceIndex`] (`O(w)`), the base-vector splice is `O(m)` plus
    /// galloping and chunk copies, and every buffer — window copies,
    /// index, FFT planes, preference, bounds workspace, and (after
    /// [`recycle`](Self::recycle)) the output itself — is recycled scratch
    /// refilled in place: a warm alarm performs **zero** heap allocations.
    ///
    /// If Spectral-Residual scoring rejects the window (numerical
    /// breakdown on extreme values, or fewer than 4 points), the
    /// explanation falls back to the identity preference instead of being
    /// dropped, and [`degraded_preferences`](Self::degraded_preferences)
    /// counts the degradation. The transform itself is configurable via
    /// [`MonitorConfig::sr_filter_window`] and
    /// [`MonitorConfig::sr_score_window`].
    pub fn explain_current(&mut self) -> Option<Explanation> {
        self.state.explain_in(&mut self.scratch)
    }

    /// Hands a consumed alarm explanation's output buffers back to the
    /// monitor, so the next alarm writes into recycled storage instead of
    /// allocating (see [`moche_core::ExplanationArena`]). Entirely
    /// optional — a dropped explanation simply costs the next alarm two
    /// allocations.
    pub fn recycle(&mut self, explanation: Explanation) {
        self.scratch.recycle(explanation);
    }

    /// Phase 1 only on the current window pair: the explanation size,
    /// without constructing the explanation — the
    /// [`MonitorConfig::size_only`] alarm path, public like
    /// [`explain_current`](Self::explain_current). Returns `None` while
    /// warming or when the test currently passes.
    pub fn size_current(&mut self) -> Option<SizeSearch> {
        self.state.size_in(&mut self.scratch)
    }

    /// The exact KS outcome of the current window pair, or `None` while
    /// warming. [`MonitorEvent::Stable`] carries no statistic, because most
    /// passing pushes are decided without one; this computes it on demand,
    /// in `O(w)`: it brings the sorted windows up to date and walks them
    /// once.
    pub fn outcome_current(&mut self) -> Option<KsOutcome> {
        self.state.outcome_in(&mut self.scratch)
    }

    /// Captures the monitor's restorable state: configuration, both
    /// window contents, and the alarm/degradation counters. Derived
    /// structures (the sorted windows, engine scratch) are rebuilt on
    /// [`restore`](Self::restore), so the
    /// snapshot stays small and format-stable. See
    /// [`crate::snapshot::MonitorSnapshot`] for the serialized form and
    /// the byte-identity guarantee.
    pub fn snapshot(&self) -> crate::snapshot::MonitorSnapshot {
        self.state.snapshot()
    }

    /// Rebuilds a monitor from a snapshot. The window values refill the
    /// ring and are sorted into the same windows `try_push` maintains, so
    /// the restored monitor's future behaviour is
    /// observably identical to the captured one's — including
    /// byte-identical alarm explanations (the KS decision is exact
    /// integer arithmetic over the window multisets, independent of
    /// when the sorted windows were last checked; pinned by
    /// `tests/snapshot_roundtrip.rs`). Nothing sized by the snapshot's
    /// window is reserved beyond the values it holds.
    ///
    /// # Errors
    ///
    /// [`crate::snapshot::SnapshotError::Invalid`] if the snapshot
    /// violates the monitor's structural invariants (window lengths,
    /// warm-up order, finite values) and
    /// [`crate::snapshot::SnapshotError::Moche`] if the embedded
    /// configuration is itself invalid.
    pub fn restore(
        snapshot: &crate::snapshot::MonitorSnapshot,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        let state = MonitorState::restore(snapshot)?;
        let scratch = MonitorScratch::with_config(state.ks_cfg);
        Ok(Self { state, scratch })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warms_up_then_stabilizes_on_stationary_stream() {
        let mut mon = DriftMonitor::new(MonitorConfig::new(50, 0.05)).unwrap();
        let mut stable = 0;
        for i in 0..400 {
            let x = ((i * 31) % 17) as f64;
            match mon.push(x) {
                MonitorEvent::Warming { seen, needed } => {
                    assert!(seen <= needed);
                    assert!(i < 100, "warming past 2w at i = {i}");
                }
                MonitorEvent::Stable => {
                    assert!(mon.outcome_current().expect("windows are full").passes());
                    stable += 1;
                }
                MonitorEvent::Drift { .. } => {
                    panic!("stationary periodic stream must not alarm (i = {i})")
                }
            }
        }
        assert!(stable > 0);
        assert_eq!(mon.alarms(), 0);
        assert_eq!(mon.pushes(), 400);
    }

    #[test]
    fn detects_a_level_shift_and_explains_it() {
        let mut mon = DriftMonitor::new(MonitorConfig::new(60, 0.05)).unwrap();
        let mut drift_at = None;
        for i in 0..600 {
            let x = if i < 300 { ((i * 13) % 11) as f64 } else { ((i * 13) % 11) as f64 + 20.0 };
            if let MonitorEvent::Drift { outcome, explanation, size } = mon.push(x) {
                assert!(outcome.rejected);
                assert!(size.is_none(), "size_only is off by default");
                drift_at = Some(i);
                let e = explanation.expect("explanation enabled");
                assert!(e.outcome_after.passes());
                // The shifted points dominate the explanation.
                assert!(e.values().iter().all(|&v| v >= 20.0), "values = {:?}", e.values());
                break;
            }
        }
        let at = drift_at.expect("the level shift must be detected");
        assert!((300..420).contains(&at), "detected at {at}");
    }

    #[test]
    fn repeated_alarms_reuse_recycled_scratch() {
        // Without reset_on_drift one level shift alarms repeatedly as it
        // traverses the window; every alarm must rebuild the scratch index
        // and preference in place and still explain correctly.
        let mut cfg = MonitorConfig::new(40, 0.05);
        cfg.reset_on_drift = false;
        let mut mon = DriftMonitor::new(cfg).unwrap();
        let mut alarms = 0usize;
        for i in 0..400 {
            let x = if i < 200 { ((i * 13) % 11) as f64 } else { ((i * 13) % 11) as f64 + 20.0 };
            if let MonitorEvent::Drift { explanation, .. } = mon.push(x) {
                let e = explanation.expect("explanations enabled");
                assert!(e.outcome_after.passes(), "alarm {alarms} must verify");
                alarms += 1;
                mon.recycle(e);
                if alarms >= 5 {
                    break;
                }
            }
        }
        assert!(alarms >= 5, "the shift must alarm repeatedly, got {alarms}");
        assert_eq!(mon.alarms(), alarms as u64);
    }

    #[test]
    fn reset_on_drift_requires_rewarming() {
        let mut mon = DriftMonitor::new(MonitorConfig::new(30, 0.05)).unwrap();
        for i in 0..200 {
            let x = if i < 100 { 0.0 + (i % 5) as f64 } else { 50.0 + (i % 5) as f64 };
            if let MonitorEvent::Drift { .. } = mon.push(x) {
                // The very next push must be a warming event.
                match mon.push(1.0) {
                    MonitorEvent::Warming { seen, .. } => assert_eq!(seen, 1),
                    other => panic!("expected warming after reset, got {other:?}"),
                }
                return;
            }
        }
        panic!("drift never detected");
    }

    #[test]
    fn no_reset_keeps_sliding() {
        let mut cfg = MonitorConfig::new(30, 0.05);
        cfg.reset_on_drift = false;
        cfg.explain_on_drift = false;
        let mut mon = DriftMonitor::new(cfg).unwrap();
        let mut alarms = 0;
        for i in 0..300 {
            let x = if i < 150 { (i % 7) as f64 } else { (i % 7) as f64 + 30.0 };
            if let MonitorEvent::Drift { explanation, .. } = mon.push(x) {
                assert!(explanation.is_none(), "explanations disabled");
                alarms += 1;
            }
        }
        // Without reset the drift alarms repeatedly while traversing.
        assert!(alarms > 1, "expected repeated alarms, got {alarms}");
        assert_eq!(mon.alarms(), alarms);
    }

    #[test]
    fn size_only_reports_k_without_an_explanation() {
        let mut full_cfg = MonitorConfig::new(60, 0.05);
        full_cfg.reset_on_drift = false;
        let mut size_cfg = full_cfg;
        size_cfg.size_only = true;
        let mut full = DriftMonitor::new(full_cfg).unwrap();
        let mut sized = DriftMonitor::new(size_cfg).unwrap();
        let series: Vec<f64> = (0..600)
            .map(|i| if i < 300 { ((i * 13) % 11) as f64 } else { ((i * 13) % 11) as f64 + 20.0 })
            .collect();
        let mut checked = 0;
        for &x in &series {
            let (a, b) = (full.push(x), sized.push(x));
            if let (
                MonitorEvent::Drift { explanation: Some(e), .. },
                MonitorEvent::Drift { explanation, size: Some(k), .. },
            ) = (a, b)
            {
                // Same windows, same alarm: the size-only path must agree
                // with the full explanation's Phase 1 and skip Phase 2.
                assert!(explanation.is_none(), "size_only must not build an explanation");
                assert_eq!(k, e.phase1);
                checked += 1;
            }
        }
        assert!(checked > 0, "the level shift must alarm both monitors");
    }

    #[test]
    fn tiny_windows_error_instead_of_panicking() {
        for window in [0usize, 1] {
            match DriftMonitor::new(MonitorConfig::new(window, 0.05)) {
                Err(MocheError::WindowTooSmall { window: w, min: 2 }) => assert_eq!(w, window),
                other => panic!("expected WindowTooSmall for window {window}, got {other:?}"),
            }
        }
        assert!(DriftMonitor::new(MonitorConfig::new(2, 0.05)).is_ok());
    }

    #[test]
    fn windows_beyond_the_i32_range_error_before_allocating() {
        // Windows are bounded by `i32::MAX`, like one side of an
        // `IncrementalKs`; a larger window is refused up front.
        let too_large = i32::MAX as usize + 1;
        match MonitorState::new(MonitorConfig::new(too_large, 0.05)) {
            Err(MocheError::SamplesTooLarge { n, m }) => assert_eq!((n, m), (too_large, too_large)),
            other => panic!("expected SamplesTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn zero_sr_windows_error_instead_of_panicking() {
        let mut cfg = MonitorConfig::new(20, 0.05);
        cfg.sr_filter_window = 0;
        assert!(matches!(
            DriftMonitor::new(cfg),
            Err(MocheError::WindowTooSmall { window: 0, min: 1 })
        ));
        let mut cfg = MonitorConfig::new(20, 0.05);
        cfg.sr_score_window = 0;
        assert!(matches!(
            DriftMonitor::new(cfg),
            Err(MocheError::WindowTooSmall { window: 0, min: 1 })
        ));
    }

    #[test]
    fn custom_sr_config_changes_the_ranking_it_is_told_to() {
        // The configurable SR transform must actually reach the alarm
        // path: explanations under a custom (filter_window, score_window)
        // must equal a one-shot MOCHE run ranked by that same transform.
        let mut cfg = MonitorConfig::new(40, 0.05);
        cfg.reset_on_drift = false;
        cfg.sr_filter_window = 5;
        cfg.sr_score_window = 9;
        let mut mon = DriftMonitor::new(cfg).unwrap();
        let mut checked = 0;
        for i in 0..400 {
            let x = if i < 200 { ((i * 13) % 11) as f64 } else { ((i * 13) % 11) as f64 + 20.0 };
            if let MonitorEvent::Drift { explanation: Some(e), .. } = mon.push(x) {
                let sr = SpectralResidual {
                    filter_window: 5,
                    score_window: 9,
                    ..SpectralResidual::default()
                };
                let pref =
                    PreferenceList::from_scores_desc(&sr.scores(&mon.test_window())).unwrap();
                let moche = moche_core::Moche::new(0.05).unwrap();
                let expected =
                    moche.explain(&mon.reference_window(), &mon.test_window(), &pref).unwrap();
                assert_eq!(e, expected, "i = {i}");
                mon.recycle(e);
                checked += 1;
                if checked >= 3 {
                    break;
                }
            }
        }
        assert!(checked > 0, "the level shift must alarm");
        assert_eq!(mon.snapshot().sr_filter_window, 5);
        assert_eq!(mon.snapshot().sr_score_window, 9);
    }

    #[test]
    fn deferred_push_captures_the_alarm_windows() {
        // try_push_deferred must alarm at the same pushes as the inline
        // path, capture exactly the windows the inline path explained,
        // and (with reset_on_drift) still reset afterwards.
        let cfg = MonitorConfig::new(30, 0.05);
        let w = cfg.window;
        let mut inline = DriftMonitor::new(cfg).unwrap();
        let mut deferred = MonitorState::new(cfg).unwrap();
        let mut capture = WindowCapture::new();
        // Shadow model: the values accepted since the last reset — the
        // decision windows are always its last 2w entries.
        let mut since_reset: Vec<f64> = Vec::new();
        let mut alarms = 0;
        for i in 0..400 {
            let x = if i % 120 < 60 { (i % 5) as f64 } else { (i % 5) as f64 + 25.0 };
            since_reset.push(x);
            let a = inline.push(x);
            let b = deferred.try_push_deferred(x, &mut capture).unwrap();
            match (a, b) {
                (
                    MonitorEvent::Drift { outcome: oa, explanation, .. },
                    MonitorEvent::Drift { outcome: ob, explanation: none, size },
                ) => {
                    assert!(none.is_none() && size.is_none(), "deferred pushes never explain");
                    assert_eq!(oa.statistic.to_bits(), ob.statistic.to_bits());
                    let n = since_reset.len();
                    assert!(n >= 2 * w, "drift before the windows were full");
                    assert_eq!(capture.reference, since_reset[n - 2 * w..n - w]);
                    assert_eq!(capture.test, since_reset[n - w..]);
                    since_reset.clear(); // reset_on_drift is on
                    if let Some(e) = explanation {
                        inline.recycle(e);
                    }
                    alarms += 1;
                }
                (MonitorEvent::Warming { .. }, MonitorEvent::Warming { .. })
                | (MonitorEvent::Stable, MonitorEvent::Stable) => {}
                (a, b) => panic!("event divergence at i = {i}: {a:?} vs {b:?}"),
            }
        }
        assert!(alarms > 0, "the alternating shift must alarm");
        assert_eq!(inline.alarms(), deferred.alarms());
    }

    #[test]
    fn recycled_alarms_match_unrecycled_ones() {
        let mut cfg = MonitorConfig::new(40, 0.05);
        cfg.reset_on_drift = false;
        let mut recycling = DriftMonitor::new(cfg).unwrap();
        let mut plain = DriftMonitor::new(cfg).unwrap();
        let series: Vec<f64> = (0..400)
            .map(|i| if i < 200 { ((i * 13) % 11) as f64 } else { ((i * 13) % 11) as f64 + 20.0 })
            .collect();
        let mut alarms = 0;
        for &x in &series {
            let a = recycling.push(x);
            let b = plain.push(x);
            if let (
                MonitorEvent::Drift { explanation: Some(ea), .. },
                MonitorEvent::Drift { explanation: Some(eb), .. },
            ) = (a, b)
            {
                assert_eq!(ea, eb, "arena reuse must not change explanations");
                alarms += 1;
                recycling.recycle(ea); // alarm N+1 reuses alarm N's buffers
            }
        }
        assert!(alarms > 1, "need repeated alarms to exercise the recycled path");
    }

    #[test]
    fn try_push_rejects_non_finite_without_corrupting_state() {
        let mut cfg = MonitorConfig::new(30, 0.05);
        cfg.reset_on_drift = false;
        let mut mon = DriftMonitor::new(cfg).unwrap();
        let mut clean = DriftMonitor::new(cfg).unwrap();
        let series: Vec<f64> = (0..300)
            .map(|i| if i < 150 { (i % 7) as f64 } else { (i % 7) as f64 + 30.0 })
            .collect();
        let mut rejected = 0;
        for (i, &x) in series.iter().enumerate() {
            // Inject garbage between every real observation: each must be
            // rejected with the monitor untouched — a regression guard for
            // the panic `push` used to hit on bad data files.
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                match mon.try_push(bad) {
                    Err(MocheError::NonFiniteObservation { accepted, value }) => {
                        assert_eq!(accepted, i as u64, "position counts accepted observations");
                        assert_eq!(value.to_bits(), bad.to_bits());
                        rejected += 1;
                    }
                    other => panic!("expected NonFiniteObservation, got {other:?}"),
                }
            }
            let a = format!("{:?}", mon.try_push(x).unwrap());
            let b = format!("{:?}", clean.push(x));
            assert_eq!(a, b, "rejected observations must leave no trace (t = {i})");
        }
        assert_eq!(rejected, 3 * series.len());
        assert_eq!(mon.pushes(), clean.pushes());
        assert_eq!(mon.alarms(), clean.alarms());
        assert!(mon.alarms() > 0, "the level shift must still alarm");
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn push_keeps_the_asserting_contract() {
        let mut mon = DriftMonitor::new(MonitorConfig::new(10, 0.05)).unwrap();
        mon.push(f64::NAN);
    }

    #[test]
    fn sr_rejection_degrades_to_identity_instead_of_dropping() {
        // Near-f64::MAX test values overflow the Spectral Residual FFT, so
        // scoring rejects the window. The alarm must still carry an
        // explanation (identity-ranked) and count the degradation.
        let mut cfg = MonitorConfig::new(20, 0.05);
        cfg.reset_on_drift = false;
        let mut mon = DriftMonitor::new(cfg).unwrap();
        let mut degraded_alarms = 0;
        for i in 0..200 {
            let x = if i < 100 { (i % 5) as f64 } else { 1.5e308 };
            if let MonitorEvent::Drift { explanation, .. } = mon.push(x) {
                let e = explanation
                    .expect("SR rejection must fall back to identity, not drop the explanation");
                assert!(e.outcome_after.passes());
                assert!(e.values().iter().all(|&v| v > 1.0e308), "the huge points explain it");
                degraded_alarms += 1;
                mon.recycle(e);
            }
        }
        assert!(degraded_alarms > 0, "the shift to huge values must alarm");
        assert_eq!(
            mon.degraded_preferences(),
            degraded_alarms,
            "every alarm on the overflowing window degrades its preference"
        );
        // A healthy monitor never increments the counter.
        let mut healthy = DriftMonitor::new(MonitorConfig::new(20, 0.05)).unwrap();
        for i in 0..200 {
            let x = if i < 100 { (i % 5) as f64 } else { (i % 5) as f64 + 40.0 };
            if let MonitorEvent::Drift { explanation: Some(e), .. } = healthy.push(x) {
                healthy.recycle(e);
            }
        }
        assert!(healthy.alarms() > 0);
        assert_eq!(healthy.degraded_preferences(), 0);
    }

    #[test]
    fn passing_windows_never_count_phantom_degradations() {
        // Both windows hold the same extreme values: the KS test passes,
        // SR scoring overflows, and an on-demand explain_current() poll
        // returns None — without registering a degraded preference, since
        // no explanation was produced.
        let mut cfg = MonitorConfig::new(10, 0.05);
        cfg.reset_on_drift = false;
        let mut mon = DriftMonitor::new(cfg).unwrap();
        for i in 0..40 {
            match mon.push(if i % 2 == 0 { 1.5e308 } else { 1.2e308 }) {
                MonitorEvent::Drift { .. } => panic!("identical distributions must not alarm"),
                MonitorEvent::Stable | MonitorEvent::Warming { .. } => {}
            }
        }
        for _ in 0..5 {
            assert!(mon.explain_current().is_none(), "passing windows have nothing to explain");
        }
        assert_eq!(mon.degraded_preferences(), 0, "no explanation, no degradation");
    }

    #[test]
    fn sorted_windows_stay_in_sync_with_the_ring() {
        // Slides, skipped checks, alarms, rejected pushes, on-demand
        // outcomes and resets: after every check the sorted windows must
        // hold exactly the windows' multisets (signed zeros normalized, as
        // they tie in the batch ECDFs) once both are full, and nothing
        // while they warm up. A twin polled after every push must read the
        // batch statistic for every full pair, and raise the same events.
        let w = 15;
        for reset in [true, false] {
            let mut cfg = MonitorConfig::new(w, 0.05);
            cfg.reset_on_drift = reset;
            let mut mon = DriftMonitor::new(cfg).unwrap();
            let mut polled = DriftMonitor::new(cfg).unwrap();
            let (mut checks, mut skips) = (0, 0);
            for i in 0..240u32 {
                if i % 7 == 0 {
                    assert!(mon.try_push(f64::NAN).is_err());
                    assert!(polled.try_push(f64::NAN).is_err());
                }
                let x = match i % 13 {
                    0 => -0.0,
                    1 => 0.0,
                    r => f64::from(r % 11) + if (i / 60) % 2 == 0 { 0.0 } else { 25.0 },
                };
                let event = mon.push(x);
                let twin = polled.push(x);
                assert_eq!(
                    std::mem::discriminant(&event),
                    std::mem::discriminant(&twin),
                    "i = {i}, reset = {reset}"
                );
                let outcome = match twin {
                    MonitorEvent::Drift { outcome, .. } => Some(outcome),
                    MonitorEvent::Stable | MonitorEvent::Warming { .. } => polled.outcome_current(),
                };
                let (r, t) = (mon.reference_window(), mon.test_window());
                // A reset right after an alarm leaves nothing to compare.
                if t.len() == w {
                    let outcome = outcome.expect("full windows have an outcome");
                    let batch = moche_core::ks_statistic(&r, &t).unwrap();
                    assert!((outcome.statistic - batch).abs() < 1e-12, "i = {i}");
                    if let MonitorEvent::Drift { outcome: alarm, .. } = event {
                        assert_eq!(alarm, outcome, "i = {i}");
                    }
                }
                // Every third push asks `mon` for its outcome too, which
                // checks a pending backlog; the others leave it pending.
                if i % 3 == 0 {
                    mon.outcome_current();
                }
                let windows = &mon.state.windows;
                if windows.pending() > 0 {
                    skips += 1;
                    continue;
                }
                let expected = |values: &[f64]| {
                    let mut v: Vec<f64> = values.iter().map(|&x| x + 0.0).collect();
                    v.sort_by(f64::total_cmp);
                    v
                };
                let (sorted_r, sorted_t) = windows.sorted();
                if t.len() == w {
                    checks += 1;
                    assert_eq!(sorted_r, expected(&r), "i = {i}, reset = {reset}");
                    assert_eq!(sorted_t, expected(&t), "i = {i}, reset = {reset}");
                } else {
                    assert!(sorted_r.is_empty() && sorted_t.is_empty(), "i = {i}");
                }
            }
            assert!(checks > 20 && skips > 20, "checks {checks}, skips {skips}, reset = {reset}");
        }
    }

    #[test]
    fn explain_current_on_demand_matches_the_alarm_path() {
        let mut cfg = MonitorConfig::new(40, 0.05);
        cfg.reset_on_drift = false;
        cfg.explain_on_drift = false; // alarms carry no explanation...
        let mut mon = DriftMonitor::new(cfg).unwrap();
        assert!(mon.explain_current().is_none(), "nothing to explain while warming");
        assert!(mon.size_current().is_none());
        let mut checked = 0;
        for i in 0..400 {
            let x = if i < 200 { ((i * 13) % 11) as f64 } else { ((i * 13) % 11) as f64 + 20.0 };
            match mon.push(x) {
                MonitorEvent::Drift { explanation, .. } => {
                    assert!(explanation.is_none());
                    // ...but the public method explains the same windows on
                    // demand, matching a one-shot MOCHE run exactly.
                    let e = mon.explain_current().expect("failing windows must explain");
                    let moche = moche_core::Moche::new(0.05).unwrap();
                    let pref = {
                        let t = mon.test_window();
                        let sr = SpectralResidual::default();
                        PreferenceList::from_scores_desc(&sr.scores(&t)).unwrap()
                    };
                    let expected =
                        moche.explain(&mon.reference_window(), &mon.test_window(), &pref).unwrap();
                    assert_eq!(e, expected, "i = {i}");
                    assert_eq!(mon.size_current().unwrap(), e.phase1);
                    mon.recycle(e);
                    checked += 1;
                    if checked >= 3 {
                        return;
                    }
                }
                MonitorEvent::Stable => {
                    assert!(mon.explain_current().is_none(), "passing windows have no explanation");
                }
                MonitorEvent::Warming { .. } => {}
            }
        }
        assert!(checked > 0, "the level shift must alarm");
    }

    #[test]
    fn windows_track_the_last_2w_points() {
        let w = 20;
        let mut cfg = MonitorConfig::new(w, 0.001); // tiny alpha: never alarm
        cfg.reset_on_drift = false;
        let mut mon = DriftMonitor::new(cfg).unwrap();
        let series: Vec<f64> = (0..100).map(|i| f64::from(i % 13)).collect();
        for &x in &series {
            mon.push(x);
        }
        assert_eq!(mon.reference_window(), series[100 - 2 * w..100 - w].to_vec());
        assert_eq!(mon.test_window(), series[100 - w..].to_vec());
    }

    #[test]
    fn monitor_statistic_matches_batch() {
        // `polled` reads the exact outcome after every push; `plain` is
        // never polled, so its pushes skip checks, and must still raise
        // the same events.
        let w = 25;
        let mut cfg = MonitorConfig::new(w, 0.001);
        cfg.reset_on_drift = false;
        let mut polled = DriftMonitor::new(cfg).unwrap();
        let mut plain = DriftMonitor::new(cfg).unwrap();
        let series: Vec<f64> = (0..120).map(|i| ((i * 37) % 19) as f64 * 0.7).collect();
        for (i, &x) in series.iter().enumerate() {
            let event = polled.push(x);
            assert_eq!(
                std::mem::discriminant(&event),
                std::mem::discriminant(&plain.push(x)),
                "i = {i}"
            );
            if i + 1 >= 2 * w {
                let outcome = polled.outcome_current().expect("past warm-up");
                match event {
                    MonitorEvent::Drift { outcome: alarm, .. } => assert_eq!(alarm, outcome),
                    MonitorEvent::Stable => assert!(outcome.passes(), "i = {i}"),
                    MonitorEvent::Warming { .. } => panic!("past warm-up"),
                }
                let stat = outcome.statistic;
                let lo = i + 1 - 2 * w;
                let batch =
                    moche_core::ks_statistic(&series[lo..lo + w], &series[lo + w..i + 1]).unwrap();
                assert!((stat - batch).abs() < 1e-12, "i = {i}: {stat} vs {batch}");
            } else {
                assert!(polled.outcome_current().is_none(), "warming at i = {i}");
            }
        }
    }
}
