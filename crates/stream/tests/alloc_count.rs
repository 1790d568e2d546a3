//! Allocation-count gates for the monitor's warm alarm path.
//!
//! Mirrors `crates/core/tests/alloc_count.rs`: a counting global allocator
//! measures the *marginal* allocation cost of the steady state — two runs
//! differing only in length pay the identical warm-up (window ring, sorted
//! windows and their sort scratch, FFT planes, engine scratch), so the difference is the true per-cycle cost,
//! which must be exactly zero once every buffer has grown to its working
//! set.
//!
//! The counter is process-global and libtest runs sibling test threads
//! concurrently, so this binary contains exactly ONE #[test]: the explain
//! and size-only gates run as sequential phases inside it.

use moche_stream::{DriftMonitor, MonitorConfig, MonitorEvent};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus a counter bump; every
// `GlobalAlloc` contract obligation is discharged by `System` itself.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // delegates all allocation to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // delegates all allocation to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const W: usize = 60;
/// One period of the drifting stream: half a cycle low, half high, so
/// every cycle drives the windows through alarm territory twice.
const CYCLE: usize = 4 * W;

/// The observation at stream position `i`: a periodic base signal plus a
/// level shift toggling every half cycle. Deterministic, so every cycle
/// replays the same values and every buffer reaches a fixed working set.
fn observation(i: usize) -> f64 {
    let base = ((i * 13) % 11) as f64;
    if (i / (CYCLE / 2)).is_multiple_of(2) {
        base
    } else {
        base + 25.0
    }
}

/// Feeds `cycles` full periods into the monitor, recycling every
/// explanation, and returns how many alarms fired.
fn run_cycles(mon: &mut DriftMonitor, start: &mut usize, cycles: usize) -> usize {
    let mut alarms = 0;
    for _ in 0..cycles * CYCLE {
        match mon.push(observation(*start)) {
            MonitorEvent::Drift { explanation: Some(e), .. } => {
                assert!(e.outcome_after.passes());
                mon.recycle(e);
                alarms += 1;
            }
            MonitorEvent::Drift { .. } => alarms += 1,
            MonitorEvent::Stable | MonitorEvent::Warming { .. } => {}
        }
        *start += 1;
    }
    alarms
}

#[test]
fn warm_monitor_alarm_gates_run_sequentially() {
    warm_explain_alarms_allocate_nothing();
    warm_size_only_alarms_allocate_nothing();
    warm_alarms_with_checkpointing_configured_allocate_nothing();
}

/// The explain-on-drift steady state: slides, KS decisions, SR scoring,
/// index materialization, the explanation itself — all through recycled
/// buffers, exactly 0 marginal heap allocations after `recycle`.
fn warm_explain_alarms_allocate_nothing() {
    let mut cfg = MonitorConfig::new(W, 0.05);
    cfg.reset_on_drift = false;
    let mut mon = DriftMonitor::new(cfg).unwrap();
    let mut at = 0usize;
    // Warm-up: enough cycles for every buffer (window ring, reference index,
    // SR planes, engine workspace, output arena) to hit its high-water
    // mark across both shift directions.
    let warm_alarms = run_cycles(&mut mon, &mut at, 3);
    assert!(warm_alarms > 0, "the shifting stream must alarm during warm-up");

    let before = allocations();
    let alarms = run_cycles(&mut mon, &mut at, 2);
    let allocated = allocations() - before;
    assert!(alarms > 0, "the measured window must contain alarms");
    assert_eq!(
        allocated, 0,
        "warm monitor explain alarms must be allocation-free \
         ({alarms} alarms allocated {allocated} times)"
    );
}

/// The fault-tolerant deployment shape: a checkpoint cadence is configured
/// (the per-push `pushes() % every` decision runs, exactly as the CLI's
/// checkpoint loop runs it) but no checkpoint falls due inside the measured
/// window. Writing a snapshot allocates by design — fresh window vectors
/// plus the encoded byte buffer — so the guarantee is precisely scoped:
/// checkpointing costs nothing *between* checkpoints, even through alarms.
fn warm_alarms_with_checkpointing_configured_allocate_nothing() {
    let mut cfg = MonitorConfig::new(W, 0.05);
    cfg.reset_on_drift = false;
    let mut mon = DriftMonitor::new(cfg).unwrap();
    let mut at = 0usize;
    let warm_alarms = run_cycles(&mut mon, &mut at, 3);
    assert!(warm_alarms > 0, "the shifting stream must alarm during warm-up");

    // Prove the checkpoint path itself works for this monitor (outside the
    // measured window), then pick a cadence that cannot fall due during
    // the two measured cycles.
    let path = std::env::temp_dir().join("moche-alloc-gate.snap");
    mon.checkpoint(&path).expect("warm-up checkpoint");
    let every: u64 = mon.pushes() + 100 * CYCLE as u64;

    let before = allocations();
    let mut alarms = 0usize;
    let mut checkpoints = 0usize;
    for _ in 0..2 * CYCLE {
        match mon.push(observation(at)) {
            MonitorEvent::Drift { explanation: Some(e), .. } => {
                mon.recycle(e);
                alarms += 1;
            }
            MonitorEvent::Drift { .. } => alarms += 1,
            MonitorEvent::Stable | MonitorEvent::Warming { .. } => {}
        }
        if mon.pushes().is_multiple_of(every) {
            mon.checkpoint(&path).expect("cadence checkpoint");
            checkpoints += 1;
        }
        at += 1;
    }
    let allocated = allocations() - before;
    let _ = std::fs::remove_file(&path);
    assert!(alarms > 0, "the measured window must contain alarms");
    assert_eq!(checkpoints, 0, "the cadence must not fall due while measuring");
    assert_eq!(
        allocated, 0,
        "warm alarms with checkpointing configured must be allocation-free \
         ({alarms} alarms allocated {allocated} times)"
    );
}

/// The size-only steady state: Phase 1 per alarm, no Phase 2, no output —
/// also exactly 0 marginal allocations.
fn warm_size_only_alarms_allocate_nothing() {
    let mut cfg = MonitorConfig::new(W, 0.05);
    cfg.reset_on_drift = false;
    cfg.size_only = true;
    let mut mon = DriftMonitor::new(cfg).unwrap();
    let mut at = 0usize;
    let warm_alarms = run_cycles(&mut mon, &mut at, 3);
    assert!(warm_alarms > 0);

    let before = allocations();
    let alarms = run_cycles(&mut mon, &mut at, 2);
    let allocated = allocations() - before;
    assert!(alarms > 0);
    assert_eq!(
        allocated, 0,
        "warm monitor size-only alarms must be allocation-free \
         ({alarms} alarms allocated {allocated} times)"
    );
}
