//! The one worker pipeline behind every multi-window front end: 1-D and
//! 2-D, eager batch and bounded-memory stream.
//!
//! A front end supplies a **kernel factory** (each worker builds one
//! [`WindowKernel`] and reuses it for every window), a **feed** producing
//! window handles (`AsRef<[Point]> + Send`: the batch front ends lend
//! borrowed `&[T]` windows, the stream front ends refill the drained
//! `Vec<T>` the pipeline hands back), and a **sink** called once per window
//! *in window order*, which may hand the output back for the kernel to
//! [`reclaim`](WindowKernel::reclaim). With one worker, or a feed that
//! ends after one window, the run is a plain loop on the caller's thread;
//! otherwise the caller's thread feeds and delivers while scoped workers,
//! each started when a window is fed for it, explain:
//!
//! ```text
//!   feed ──► job ring ──► workers ──► result ring ──► reorder ring ──► sink
//!    ▲   (id, window, reclaimed)  (id, window, result)                 │
//!    └───────── drained window + reclaimed output, one per delivery ◄──┘
//! ```
//!
//! At most `depth` windows are fed but not yet delivered, and every ring
//! holds `depth` slots, so no send blocks and memory stays `O(depth · m)`.
//! `depth` is the window count when the input length is known, otherwise
//! the buffer (default `max(2·workers, 4)`) plus one window per worker. The
//! rings are preallocated, so the warm steady state allocates nothing.
//!
//! Failure containment is written once, here: every window runs under
//! `catch_unwind` (a panic becomes that window's
//! [`MocheError::WorkerPanicked`] and the worker rebuilds its kernel); a
//! panicking feed ends the stream in order at every worker count; a
//! panicking sink closes both rings, lets the workers wind down, and is
//! re-raised once the scope has joined.

use crate::error::MocheError;
use crate::fault::{self, Fault};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, PoisonError};

/// Per-worker state that turns one window into one output.
pub trait WindowKernel {
    /// The element type of a window (`f64` in 1-D, a point in 2-D).
    type Point;
    /// What one window produces.
    type Output: Send;

    /// Processes window `window_id`.
    ///
    /// # Errors
    ///
    /// Whatever the explanation reports for this window; the error lands
    /// in that window's result and nowhere else.
    fn process(
        &mut self,
        window_id: usize,
        window: &[Self::Point],
    ) -> Result<Self::Output, MocheError>;

    /// Takes back an output the sink has consumed, so its storage can be
    /// reused by a later window. The default simply drops it.
    fn reclaim(&mut self, output: Self::Output) {
        drop(output);
    }
}

/// Aggregate statistics of one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamSummary {
    /// Total windows delivered.
    pub windows: usize,
    /// Windows that produced an output (an explanation, or a size in
    /// [`StreamMode::SizeOnly`](crate::streaming::StreamMode::SizeOnly)).
    pub explained: usize,
    /// Windows whose KS test passed (nothing to explain).
    pub passing: usize,
    /// Windows that failed with any other error.
    pub errors: usize,
    /// Windows whose computation panicked (caught and reported as
    /// [`MocheError::WorkerPanicked`]; also counted in
    /// [`errors`](Self::errors)). The panic was isolated to that window —
    /// the run itself completed.
    pub panics: usize,
    /// Threads that explained windows: never more than the windows, `1`
    /// when the run was sequential on the caller's thread, `0` when there
    /// was nothing to explain.
    pub threads: usize,
}

impl StreamSummary {
    fn tally<T>(&mut self, result: &Result<T, MocheError>) {
        self.windows += 1;
        match result {
            Ok(_) => self.explained += 1,
            Err(MocheError::TestAlreadyPasses { .. }) => self.passing += 1,
            Err(MocheError::WorkerPanicked { .. }) => {
                self.errors += 1;
                self.panics += 1;
            }
            Err(_) => self.errors += 1,
        }
    }
}

/// The worker-count and buffer configuration of a run; cheap to copy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pipeline {
    /// Caps the worker-thread count. `0` means "one per available core".
    pub threads: usize,
    /// Bounds the windows queued ahead of the workers on inputs of unknown
    /// length. `0` picks `max(2 × workers, 4)`.
    pub buffer: usize,
}

impl Pipeline {
    /// The most workers a run may start: the configured cap (or the core
    /// count for `0`), bounded by the job count when it is known, and
    /// never zero. `1` means the run is sequential.
    fn workers(&self, jobs: Option<usize>) -> usize {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cap = if self.threads == 0 { hw } else { self.threads };
        jobs.map_or(cap, |n| cap.min(n)).max(1)
    }

    /// The eager batch shape: lends every window of a resident slice to
    /// [`run`](Self::run) and collects the results in window order.
    /// `preferences` is the length of a per-window preference list, if one
    /// was supplied; a count that cannot pair with the windows fails every
    /// slot with [`MocheError::PreferenceCountMismatch`] instead.
    pub fn collect<K, W>(
        &self,
        windows: &[W],
        preferences: Option<usize>,
        kernel: impl Fn() -> K + Sync,
    ) -> Vec<Result<K::Output, MocheError>>
    where
        K: WindowKernel,
        W: AsRef<[K::Point]> + Sync,
    {
        if let Some(preferences) = preferences.filter(|&n| n != windows.len()) {
            let err = MocheError::PreferenceCountMismatch { windows: windows.len(), preferences };
            return windows.iter().map(|_| Err(err.clone())).collect();
        }
        let mut next = windows.iter();
        let mut results = Vec::with_capacity(windows.len());
        self.run(
            Some(windows.len()),
            kernel,
            |_| next.next(),
            |_, result| {
                results.push(result);
                None
            },
        );
        results
    }

    /// Runs every window `feed` produces through per-worker kernels and
    /// hands each result to `sink` in window order. `jobs` is the input
    /// length when known (it bounds the worker count and sizes the rings).
    ///
    /// A worker starts only when a window is fed for it, so no run has
    /// more workers than windows; a feed that ends after one window runs
    /// that window on the caller's thread. Once `feed` returns `None` it is
    /// never called again.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `sink` after every worker has stopped.
    /// Panics in the kernel and in `feed` are contained (see the module
    /// docs).
    pub fn run<K, H>(
        &self,
        jobs: Option<usize>,
        kernel: impl Fn() -> K + Sync,
        mut feed: impl FnMut(Option<H>) -> Option<H>,
        mut sink: impl FnMut(usize, Result<K::Output, MocheError>) -> Option<K::Output>,
    ) -> StreamSummary
    where
        K: WindowKernel,
        H: AsRef<[K::Point]> + Send,
    {
        let cap = self.workers(jobs);
        let mut summary = StreamSummary::default();
        // Two windows decide the shape: with fewer, or one worker, the
        // caller's thread runs them.
        let first = feed_caught(&mut feed, None);
        let second = if cap > 1 && first.is_some() { feed_caught(&mut feed, None) } else { None };
        let Some(second) = second else {
            let Some(mut window) = first else { return summary };
            let (mut state, mut reclaimed) = (kernel(), None);
            summary.threads = 1;
            loop {
                let id = summary.windows;
                let result = process_caught(&mut state, &kernel, id, window.as_ref(), reclaimed);
                summary.tally(&result);
                reclaimed = reclaimable(sink(id, result));
                if cap > 1 {
                    return summary; // the feed has already ended
                }
                match feed_caught(&mut feed, Some(window)) {
                    Some(next) => window = next,
                    None => return summary,
                }
            }
        };

        let buffer = if self.buffer == 0 { (2 * cap).max(4) } else { self.buffer };
        let depth = jobs.map_or(buffer + cap, |n| n.max(2));
        let (job_tx, job_rx) = mpsc::sync_channel::<Job<K, H>>(depth);
        let job_rx = Mutex::new(job_rx);
        let (done_tx, done_rx) = mpsc::sync_channel(depth);
        let mut started = 0usize;
        let delivery = std::thread::scope(|scope| {
            let (mut job_tx, mut done_tx) = (Some(job_tx), Some(done_tx));
            let (job_rx, kernel, started) = (&job_rx, &kernel, &mut started);
            let mut held = [first, Some(second)].into_iter().flatten();
            let mut fed = 0usize;
            let mut feed_one = move |spare: Option<H>, reclaimed: Option<K::Output>| {
                let Some(tx) = &job_tx else { return };
                let window = held.next().or_else(|| feed_caught(&mut feed, spare));
                match window.map(|window| tx.send((fed, window, reclaimed))) {
                    Some(Ok(())) => fed += 1,
                    // Exhausted: closing the job ring lets idle workers
                    // exit, and with the caller's result sender gone the
                    // delivery loop ends once they have.
                    _ => (job_tx, done_tx) = (None, None),
                }
                // One worker per window fed, up to the cap.
                if let Some(done) = done_tx.as_ref().filter(|_| *started < fed.min(cap)) {
                    let done = done.clone();
                    scope.spawn(move || work(job_rx, &done, kernel));
                    *started += 1;
                }
            };
            let delivery = catch_unwind(AssertUnwindSafe(|| {
                let mut ring: Vec<Option<_>> = (0..depth).map(|_| None).collect();
                for _ in 0..depth {
                    feed_one(None, None);
                }
                // Ends once the feed is exhausted and every worker has
                // returned its last window and exited.
                while let Ok((id, window, result)) = done_rx.recv() {
                    fault::failpoint("pipeline.reorder");
                    ring[id % depth] = Some((window, result));
                    while let Some((window, result)) = ring[summary.windows % depth].take() {
                        let id = summary.windows;
                        summary.tally(&result);
                        // Each delivery frees one slot: refill it with the
                        // drained window and the output the sink handed back.
                        feed_one(Some(window), reclaimable(sink(id, result)));
                    }
                }
            }));
            // Shut down (a no-op on the normal path): without a job sender
            // idle workers exit, without a result receiver busy ones stop at
            // their next send.
            drop(feed_one);
            drop(done_rx);
            delivery
        });
        if let Err(payload) = delivery {
            resume_unwind(payload);
        }
        summary.threads = started;
        summary
    }
}

/// A job for a worker: window id, window, and an output to reclaim.
type Job<K, H> = (usize, H, Option<<K as WindowKernel>::Output>);

/// A worker's answer: window id, the window handed back, and its result.
type Done<K, H> = (usize, H, Result<<K as WindowKernel>::Output, MocheError>);

/// One worker: explain jobs until the job ring closes or the delivery side
/// goes away.
fn work<K: WindowKernel, H: AsRef<[K::Point]>>(
    jobs: &Mutex<mpsc::Receiver<Job<K, H>>>,
    done: &mpsc::SyncSender<Done<K, H>>,
    kernel: &impl Fn() -> K,
) {
    let mut state = kernel();
    loop {
        // Kernel panics are caught per window and never poison this lock
        // mid-update; a poisoned flag carries no torn state, so recover the
        // guard.
        let job = jobs.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok((id, window, reclaimed)) = job else { break };
        let result = process_caught(&mut state, kernel, id, window.as_ref(), reclaimed);
        if done.send((id, window, result)).is_err() {
            break; // the delivery side is gone: stop
        }
    }
}

/// Runs one window under `catch_unwind`, first handing the kernel an
/// output to reclaim. A panicking kernel may be mid-mutation, so it is
/// rebuilt before the next window — correctness over the rare-path
/// allocation.
fn process_caught<K: WindowKernel>(
    state: &mut K,
    kernel: &impl Fn() -> K,
    id: usize,
    window: &[K::Point],
    reclaimed: Option<K::Output>,
) -> Result<K::Output, MocheError> {
    catch_unwind(AssertUnwindSafe(|| {
        if let Some(output) = reclaimed {
            state.reclaim(output);
        }
        fault::failpoint("pipeline.worker");
        state.process(id, window)
    }))
    .unwrap_or_else(|payload| {
        *state = kernel();
        Err(MocheError::WorkerPanicked {
            window: id,
            message: fault::panic_message(payload.as_ref()),
        })
    })
}

/// Pulls the next window. A panicking feed (caller code) or an injected
/// feeder fault reads as end-of-stream, on every path.
fn feed_caught<H>(feed: &mut impl FnMut(Option<H>) -> Option<H>, spare: Option<H>) -> Option<H> {
    catch_unwind(AssertUnwindSafe(|| {
        if fault::failpoint("pipeline.feeder") == Some(Fault::Error) {
            return None;
        }
        feed(spare)
    }))
    .ok()
    .flatten()
}

/// An output the sink handed back, unless an injected fault drops it
/// (costing a later allocation, never correctness).
fn reclaimable<O>(output: Option<O>) -> Option<O> {
    output.filter(|_| fault::failpoint("pipeline.reclaim") != Some(Fault::Error))
}

/// The stream feed shape: refill each drained buffer (or a fresh one while
/// the pipeline warms up) through `fill`, which returns `false` at the end
/// of the stream.
pub fn refill<P>(
    mut fill: impl FnMut(&mut Vec<P>) -> bool,
) -> impl FnMut(Option<Vec<P>>) -> Option<Vec<P>> {
    move |spare| {
        let mut window = spare.unwrap_or_default();
        fill(&mut window).then_some(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A one-shot signal between two kernels on different workers.
    type Gate = (Mutex<mpsc::Receiver<()>>, mpsc::Sender<()>);

    /// Doubles each value; windows with a negative first value fail. With
    /// a gate, window 0 finishes only once window `opens` has started —
    /// which, with `opens` workers, is after some window in `1..opens` has
    /// sent its result — so the reorder ring must hold results back.
    struct Doubler<'a> {
        gate: Option<(&'a Gate, usize)>,
    }

    impl WindowKernel for Doubler<'_> {
        type Point = i64;
        type Output = Vec<i64>;

        fn process(&mut self, window_id: usize, window: &[i64]) -> Result<Vec<i64>, MocheError> {
            if let Some(((rx, tx), opens)) = self.gate {
                if window_id == 0 {
                    rx.lock().unwrap().recv().unwrap();
                } else if window_id == opens {
                    tx.send(()).unwrap();
                }
            }
            match window.first() {
                Some(&v) if v < 0 => Err(MocheError::EmptyTest),
                _ => Ok(window.iter().map(|v| 2 * v).collect()),
            }
        }
    }

    fn windows(count: usize) -> Vec<Vec<i64>> {
        (0..count as i64).map(|w| if w % 5 == 4 { vec![-1] } else { vec![w, w + 1] }).collect()
    }

    #[test]
    fn results_arrive_in_window_order_at_every_worker_count() {
        let input = windows(23);
        for threads in [1, 2, 3] {
            let pipeline = Pipeline { threads, buffer: 0 };
            let (tx, rx) = mpsc::channel();
            let gate = (Mutex::new(rx), tx);
            let gate = (threads > 1).then_some((&gate, threads));
            let results = pipeline.collect(&input, None, || Doubler { gate });
            assert_eq!(results.len(), input.len());
            for (w, (got, window)) in results.iter().zip(&input).enumerate() {
                match got {
                    Ok(doubled) => assert_eq!(doubled, &vec![2 * window[0], 2 * window[1]]),
                    Err(e) => assert!(w % 5 == 4 && *e == MocheError::EmptyTest, "window {w}"),
                }
            }
        }
    }

    #[test]
    fn streams_stay_within_depth_and_recycle_buffers() {
        let input = windows(40);
        for (threads, buffer) in [(1, 0), (3, 1), (2, 0)] {
            let pipeline = Pipeline { threads, buffer };
            let depth = match (threads, buffer) {
                (1, _) => 1,
                (_, 0) => (2 * threads).max(4) + threads,
                _ => buffer + threads,
            };
            let (fed, delivered, fresh) = (Cell::new(0), Cell::new(0), Cell::new(0));
            let feed = |spare: Option<Vec<i64>>| {
                assert!(fed.get() - delivered.get() < depth, "at most {depth} windows in flight");
                let mut buf = spare.unwrap_or_else(|| {
                    fresh.set(fresh.get() + 1);
                    Vec::new()
                });
                let window = input.get(fed.get())?;
                buf.clear();
                buf.extend_from_slice(window);
                fed.set(fed.get() + 1);
                Some(buf)
            };
            let summary = pipeline.run(
                None,
                || Doubler { gate: None },
                feed,
                |id, result| {
                    assert_eq!(id, delivered.get(), "in-order delivery");
                    delivered.set(id + 1);
                    result.ok()
                },
            );
            assert_eq!((summary.windows, summary.threads), (input.len(), threads));
            assert_eq!((summary.explained, summary.errors), (32, 8));
            assert!(fresh.get() <= depth, "{} fresh buffers for depth {depth}", fresh.get());
        }
    }

    /// Runs `windows` as a feed of unknown length at `threads`, returning
    /// the summary, the delivered outputs and the kernels built.
    fn run_unknown_length(
        threads: usize,
        windows: &[Vec<i64>],
    ) -> (StreamSummary, Vec<Vec<i64>>, usize) {
        let built = std::sync::atomic::AtomicUsize::new(0);
        let kernel = || {
            built.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Doubler { gate: None }
        };
        let mut next = windows.iter();
        let mut delivered = Vec::new();
        let summary = Pipeline { threads, buffer: 0 }.run(
            None,
            kernel,
            |_| next.next(),
            |_, result| {
                delivered.push(result.unwrap());
                None
            },
        );
        (summary, delivered, built.into_inner())
    }

    #[test]
    fn a_one_window_feed_runs_on_the_callers_thread() {
        let (summary, delivered, built) = run_unknown_length(4, &[vec![3, 4]]);
        assert_eq!((summary.windows, summary.threads), (1, 1));
        assert_eq!(delivered, vec![vec![6, 8]]);
        assert_eq!(built, 1, "one kernel, no workers");
        let (summary, delivered, built) = run_unknown_length(4, &[]);
        assert_eq!(summary, StreamSummary::default());
        assert!(delivered.is_empty());
        assert_eq!(built, 0);
    }

    #[test]
    fn workers_start_only_for_windows_fed() {
        let (summary, delivered, built) = run_unknown_length(8, &[vec![1], vec![2]]);
        assert_eq!((summary.windows, summary.threads), (2, 2));
        assert_eq!(delivered, vec![vec![2], vec![4]]);
        assert_eq!(built, 2, "two windows start two workers");
        let (summary, _, built) = run_unknown_length(3, &windows(20)[..4]);
        assert_eq!((summary.threads, built), (3, 3), "never more than the cap");
    }

    #[test]
    fn a_panicking_feed_ends_the_stream_in_order_and_is_never_called_again() {
        // On its second pull, then later, once the workers are running.
        for (threads, fails_at) in [(1, 2), (4, 2), (4, 6)] {
            let pulls = Cell::new(0);
            let feed = |_: Option<Vec<i64>>| {
                pulls.set(pulls.get() + 1);
                assert!(pulls.get() < fails_at, "feed failed on pull {fails_at}");
                Some(vec![pulls.get()])
            };
            let mut delivered = Vec::new();
            let summary = Pipeline { threads, buffer: 0 }.run(
                None,
                || Doubler { gate: None },
                feed,
                |id, result| {
                    delivered.push((id, result.unwrap()));
                    None
                },
            );
            let fed = fails_at - 1;
            assert_eq!(summary.windows, fed as usize, "threads = {threads}");
            assert_eq!(summary.threads, (fed as usize).min(threads));
            let expected: Vec<_> = (0..fed).map(|w| (w as usize, vec![2 * (w + 1)])).collect();
            assert_eq!(delivered, expected, "in order (threads = {threads})");
            assert_eq!(pulls.get(), fails_at, "no pull after the panic (threads = {threads})");
        }
    }

    #[test]
    fn worker_count_follows_the_cap_and_the_job_count() {
        let capped = Pipeline { threads: 8, buffer: 0 };
        assert_eq!(capped.workers(Some(3)), 3);
        assert_eq!(capped.workers(Some(0)), 1);
        assert_eq!(capped.workers(None), 8);
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Pipeline::default().workers(None), hw);
    }

    #[test]
    fn preference_count_mismatch_fails_every_slot() {
        let input = windows(3);
        let results = Pipeline::default().collect(&input, Some(2), || Doubler { gate: None });
        assert_eq!(results.len(), 3);
        for result in results {
            assert_eq!(
                result,
                Err(MocheError::PreferenceCountMismatch { windows: 3, preferences: 2 })
            );
        }
    }
}
