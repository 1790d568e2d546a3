//! Allocation-count gates for the zero-allocation guarantees.
//!
//! Each integration-test binary owns its process, so this file installs a
//! counting global allocator and asserts the *marginal* allocation cost of
//! the warm paths is exactly zero: a long and a short run pay the identical
//! warm-up (buffer growth, engine construction), so the difference divided
//! by the extra iterations is the true steady state.
//!
//! The counter is process-global and libtest runs sibling test threads
//! concurrently (whose harness activity would pollute a measurement
//! window), so this binary contains exactly ONE #[test]: the gates run as
//! sequential phases inside it.

use moche_core::{
    ExplainEngine, ExplanationArena, PreferenceList, ReferenceIndex, ScoreIntoFn,
    StreamingBatchExplainer, WindowSource,
};
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

fn failing_setup() -> (Vec<f64>, Vec<Vec<f64>>) {
    let reference: Vec<f64> = (0..400u32).map(|i| f64::from(i % 10)).collect();
    let windows: Vec<Vec<f64>> =
        (0..8).map(|w| (0..120).map(|i| f64::from(((i + w) % 7) as u32) + 5.0).collect()).collect();
    (reference, windows)
}

/// A slice-backed cycling [`WindowSource`] that copies into the recycled
/// buffer — the zero-allocation producer shape.
fn cycling_source(windows: &[Vec<f64>], count: usize) -> impl WindowSource + Send + '_ {
    let mut i = 0usize;
    move |buf: &mut Vec<f64>| {
        if i >= count {
            return false;
        }
        buf.clear();
        buf.extend_from_slice(&windows[i % windows.len()]);
        i += 1;
        true
    }
}

#[test]
fn zero_allocation_gates_run_sequentially() {
    warm_indexed_arena_explain_allocates_nothing();
    scored_stream_allocates_nothing_when_warm();
    identity_stream_allocates_nothing_when_warm_single_core();
    warm_ranking_and_reference_rebuild_allocate_nothing();
}

fn warm_indexed_arena_explain_allocates_nothing() {
    let (reference, windows) = failing_setup();
    let index = ReferenceIndex::new(&reference).unwrap();
    let mut engine = ExplainEngine::new(0.05).unwrap();
    let mut arena = ExplanationArena::new();
    let pref = PreferenceList::identity(windows[0].len());
    // Warm every buffer (engine scratch, arena storage, base splice).
    for w in &windows {
        let e = engine.explain_with_index_in(&index, w, &pref, &mut arena).unwrap();
        arena.recycle(e);
    }
    // This phase runs right after process start, and the counter is
    // process-global: libtest's main thread can still be allocating
    // (one-shot startup work) concurrently with the first measurement
    // window. Retry to tell that noise from a real leak — a per-window
    // regression allocates on every attempt and still fails.
    let mut allocated = u64::MAX;
    for _ in 0..3 {
        let before = allocations();
        for _ in 0..3 {
            for w in &windows {
                let e = engine.explain_with_index_in(&index, w, &pref, &mut arena).unwrap();
                arena.recycle(e);
            }
        }
        allocated = allocations() - before;
        if allocated == 0 {
            break;
        }
    }
    assert_eq!(allocated, 0, "warm explain_with_index_in must not allocate");
}

fn scored_stream_allocates_nothing_when_warm() {
    let (reference, windows) = failing_setup();
    let index = ReferenceIndex::new(&reference).unwrap();
    let streamer = StreamingBatchExplainer::new(0.05).unwrap().threads(1).buffer(4);
    // Score each window by its own values: the callback writes into the
    // worker-recycled PreferenceList and allocates nothing itself.
    let score: ScoreIntoFn<'_> = &|_, w, pref| pref.fill_from_scores_desc(w);
    let run = |count: usize| {
        let before = allocations();
        let summary =
            streamer.explain_source_scored(&index, cycling_source(&windows, count), score, |r| {
                assert!(r.result.is_ok());
            });
        assert_eq!(summary.windows, count);
        allocations() - before
    };
    let (short, long) = (12u64, 48u64);
    run(short as usize); // prime one-time lazy state
    let allocs_short = run(short as usize);
    let allocs_long = run(long as usize);
    assert_eq!(
        allocs_long.saturating_sub(allocs_short),
        0,
        "scored streams must join the zero-allocation steady state \
         (short run: {allocs_short}, long run: {allocs_long})"
    );
}

fn identity_stream_allocates_nothing_when_warm_single_core() {
    let (reference, windows) = failing_setup();
    let index = ReferenceIndex::new(&reference).unwrap();
    let streamer = StreamingBatchExplainer::new(0.05).unwrap().threads(1).buffer(4);
    let run = |count: usize| {
        let before = allocations();
        let summary = streamer.explain_source(&index, cycling_source(&windows, count), None, |r| {
            assert!(r.result.is_ok());
        });
        assert_eq!(summary.windows, count);
        allocations() - before
    };
    run(12);
    let allocs_short = run(12);
    let allocs_long = run(48);
    assert_eq!(
        allocs_long.saturating_sub(allocs_short),
        0,
        "single-core streaming steady state must stay allocation-free \
         (short run: {allocs_short}, long run: {allocs_long})"
    );
}

/// The two radix sorts outside the splice: ranking a window's scores into
/// a recycled [`PreferenceList`] (which sorts in its own buffer) and
/// re-sorting a reference into a recycled [`ReferenceIndex`] (which sorts
/// in the caller's scratch and its own distinct-value buffer).
fn warm_ranking_and_reference_rebuild_allocate_nothing() {
    let (reference, windows) = failing_setup();
    let mut pref = PreferenceList::identity(0);
    let mut index = ReferenceIndex::new(&reference).unwrap();
    let mut sort_scratch = Vec::new();
    let mut round = || {
        for w in &windows {
            pref.fill_from_scores_desc(w).unwrap();
            pref.fill_from_scores_asc(w).unwrap();
        }
        for shift in 0..4 {
            index.rebuild_from(&reference[shift..], &mut sort_scratch).unwrap();
        }
    };
    round(); // warm: both buffers grow to the working size once
    let mut allocated = u64::MAX;
    for _ in 0..3 {
        let before = allocations();
        for _ in 0..3 {
            round();
        }
        allocated = allocations() - before;
        if allocated == 0 {
            break;
        }
    }
    assert_eq!(allocated, 0, "warm rankings and reference rebuilds must not allocate");
}
