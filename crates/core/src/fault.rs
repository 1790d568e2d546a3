//! Deterministic fault injection for the parallel and streaming paths.
//!
//! Crash-safety claims are only worth what their tests can provoke: "a
//! worker panic is isolated to its window" needs a way to *make* a worker
//! panic at window `k`, and "a torn checkpoint write is rejected on resume"
//! needs a writer that actually tears. External failpoint crates exist, but
//! this workspace vendors its dependencies, so the registry is hand-rolled:
//! a process-global map from **failpoint names** to armed fault
//! specifications, consulted by [`failpoint`] calls compiled into the
//! pipeline's interesting seams.
//!
//! The entire mechanism sits behind the `fault-injection` cargo feature.
//! Without it (the default), [`failpoint`] is an inlined `None` — zero
//! branches, zero atomics, zero cost in production builds — and the arming
//! API does not exist, so no production code path can depend on it.
//!
//! ## Injection points
//!
//! | Name | Location | Faults honoured |
//! |---|---|---|
//! | `pipeline.worker` | [`crate::pipeline`] per-window execution (every batch and stream front end, 1-D and 2-D) | `Panic` |
//! | `pipeline.feeder` | pipeline feed, before each window is pulled from the source | `Panic`, `Error` (end of stream) |
//! | `pipeline.reorder` | parallel in-order delivery, before reorder-ring insertion | `Panic` |
//! | `pipeline.reclaim` | delivery, before handing a consumed output back to a kernel | `Error` (drop instead of reclaim) |
//! | `checkpoint.write` | `moche_stream` snapshot writer | `Error` (fail the write), `TruncateWrite` (torn file) |
//! | `serve.accept` | `moche serve` connection accept loop | `Error` (simulated accept failure; the daemon logs and keeps listening) |
//! | `serve.shard_worker` | fleet shard push path (`moche_stream` `FleetShard::push`) | `Panic` (caught; the series is quarantined, the shard survives) |
//! | `serve.checkpoint` | fleet shard checkpoint writer | `Error` (fail the write), `TruncateWrite` (torn shard file at the final path) |
//! | `serve.read` | `moche serve` supervised connection read loop, before each socket read | `Error` (treated as a mid-frame stall: the connection is evicted and counted as a stalled read, deterministically, without waiting out a real deadline) |
//! | `serve.write` | `moche serve` reply writer, before each reply | `Error` (treated as a stalled write: the connection is evicted and counted, as if the peer never drained its receive buffer) |
//! | `serve.drain` | `moche serve` graceful-drain close of each surviving connection | `Error` (logged `DRAIN failpoint` marker; the drain proceeds — proves chaos tests exercise the real drain path) |
//!
//! Arming is deterministic: a spec fires on specific *hit counts* of its
//! point (`skip` hits pass through first, then `times` hits fire), so a
//! test can target exactly window `k` of a run and nothing else.
//!
//! ## Examples
//!
//! ```
//! # #[cfg(feature = "fault-injection")] {
//! use moche_core::fault;
//!
//! // Panic on the 3rd hit (skip 2, fire once) of a named point.
//! fault::arm("example.point", fault::Fault::Panic, 2, 1);
//! for i in 0..5 {
//!     let hit = std::panic::catch_unwind(|| fault::failpoint("example.point"));
//!     assert_eq!(hit.is_err(), i == 2, "only the 3rd hit panics");
//! }
//! fault::disarm("example.point");
//! # }
//! ```

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic at the failpoint (inside [`failpoint`] itself), with a message
    /// naming the point — exercises the `catch_unwind` isolation paths.
    Panic,
    /// Report a recoverable failure: [`failpoint`] returns
    /// `Some(Fault::Error)` and the call site degrades the way the real
    /// failure would (a disconnected channel, a failed write, ...).
    Error,
    /// For write-shaped points: persist only the first `n` bytes, then
    /// report success — a torn/truncated write, as left by a crash or a
    /// full disk, for the *reader's* rejection tests.
    TruncateWrite(usize),
}

/// Extracts a human-readable message from a caught panic payload (the
/// `Box<dyn Any>` that [`std::panic::catch_unwind`] returns). Shared by
/// every worker-isolation site so `WorkerPanicked` errors carry the
/// original `panic!` text when there is one.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(feature = "fault-injection")]
mod registry {
    use super::Fault;
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// One armed failpoint: pass `skip` hits through, then fire `remaining`
    /// times, then fall dormant (but stay registered until disarmed).
    struct Armed {
        fault: Fault,
        skip: usize,
        remaining: usize,
    }

    fn registry() -> &'static Mutex<HashMap<String, Armed>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Arms `name`: the next `skip` hits pass through untouched, the
    /// following `times` hits fire `fault`, later hits pass through again.
    /// Re-arming an already-armed point replaces its spec.
    pub fn arm(name: &str, fault: Fault, skip: usize, times: usize) {
        registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), Armed { fault, skip, remaining: times });
    }

    /// Disarms `name` (a no-op if it was never armed).
    pub fn disarm(name: &str) {
        registry().lock().unwrap_or_else(PoisonError::into_inner).remove(name);
    }

    /// The hit path: consult the registry, honour skip/times accounting,
    /// and panic in place for [`Fault::Panic`].
    pub fn failpoint(name: &str) -> Option<Fault> {
        // Panic-armed points unwind through this lock; recover the poison
        // so the registry keeps serving the rest of the test run.
        let mut map = registry().lock().unwrap_or_else(PoisonError::into_inner);
        let armed = map.get_mut(name)?;
        if armed.skip > 0 {
            armed.skip -= 1;
            return None;
        }
        if armed.remaining == 0 {
            return None;
        }
        armed.remaining -= 1;
        let fault = armed.fault;
        drop(map); // never panic while holding the registry lock
        if fault == Fault::Panic {
            // lint:allow(panic): panicking *is* the armed fault — test-only
            // (the registry only compiles under `fault-injection`)
            panic!("injected panic at failpoint '{name}'");
        }
        Some(fault)
    }
}

#[cfg(feature = "fault-injection")]
pub use registry::{arm, disarm, failpoint};

/// The production shape of [`failpoint`]: nothing is ever armed, so every
/// point is an inlined `None`.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn failpoint(_name: &str) -> Option<Fault> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_message_handles_common_payload_shapes() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(boxed.as_ref()), "static str");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(boxed.as_ref()), "owned");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(boxed.as_ref()), "non-string panic payload");
    }

    #[cfg(not(feature = "fault-injection"))]
    #[test]
    fn disabled_failpoints_never_fire() {
        assert_eq!(failpoint("anything"), None);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn skip_and_times_accounting_is_deterministic() {
        // A name no other test uses: tests in this binary share the
        // process-global registry.
        let name = "fault.unit.accounting";
        arm(name, Fault::Error, 2, 2);
        let fired: Vec<bool> = (0..6).map(|_| failpoint(name).is_some()).collect();
        assert_eq!(fired, [false, false, true, true, false, false]);
        disarm(name);
        assert_eq!(failpoint(name), None);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn truncate_spec_carries_its_length() {
        let name = "fault.unit.truncate";
        arm(name, Fault::TruncateWrite(17), 0, 1);
        assert_eq!(failpoint(name), Some(Fault::TruncateWrite(17)));
        assert_eq!(failpoint(name), None, "times = 1 means one firing");
        disarm(name);
    }
}
