//! A checkpoint is untrusted input: a tiny, valid-looking snapshot must not
//! make restore reserve memory for a window it does not hold.
//!
//! The snapshot below is 97 bytes: window `2·10⁹`, both windows empty. It
//! passes `validate()`, so restore builds a monitor for it. A recording
//! global allocator refuses every request above 1 MiB (the process aborts
//! rather than touch gigabytes) and records the largest one; restoring the
//! snapshot and pushing a few values must stay under that bound.
//!
//! The allocator is process-global, so this binary holds exactly one
//! `#[test]`.

use moche_stream::{DriftMonitor, MonitorSnapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::ptr::null_mut;
use std::sync::atomic::{AtomicUsize, Ordering};

const LIMIT: usize = 1 << 20;

struct RecordingAllocator;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: a pass-through to `System` for requests within `LIMIT`; larger
// requests are recorded and refused with a null pointer, which `GlobalAlloc`
// permits.
unsafe impl GlobalAlloc for RecordingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > LIMIT {
            return null_mut();
        }
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System` through
        // this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        if new_size > LIMIT {
            return null_mut();
        }
        // SAFETY: forwarded verbatim; `ptr` came from `System` through
        // this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: RecordingAllocator = RecordingAllocator;

#[test]
fn a_huge_window_with_empty_windows_restores_without_reserving_it() {
    let snapshot = MonitorSnapshot {
        window: 2_000_000_000,
        alpha: 0.05,
        explain_on_drift: true,
        size_only: false,
        reset_on_drift: true,
        sr_filter_window: 3,
        sr_score_window: 21,
        pushes: 0,
        alarms: 0,
        degraded_preferences: 0,
        reference: Vec::new(),
        test: Vec::new(),
    };
    let bytes = snapshot.to_bytes();
    assert_eq!(bytes.len(), 97);
    let decoded = MonitorSnapshot::from_bytes(&bytes).expect("the snapshot is well formed");
    decoded.validate().expect("empty windows of any size are a valid state");

    let mut monitor = DriftMonitor::restore(&decoded).expect("restore succeeds");
    for i in 0..100 {
        assert!(matches!(monitor.push(f64::from(i)), moche_stream::MonitorEvent::Warming { .. }));
    }
    assert_eq!(monitor.pushes(), 100);
    assert_eq!(monitor.reference_window().len(), 100);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest <= LIMIT, "one allocation asked for {largest} bytes");
}
