//! Caller-owned recycled storage for explanation outputs.
//!
//! [`crate::engine::ExplainEngine`] reuses every *internal* buffer across
//! calls, but each returned [`Explanation`] still owns two freshly
//! allocated vectors (the selected indices and their values). On the
//! streaming workloads the ROADMAP targets — explanations produced,
//! consumed and dropped millions of times — those two allocations are the
//! last per-window heap traffic on the hot path.
//!
//! An [`ExplanationArena`] closes the loop: the engine's explain entry point
//! ([`explain_with_index_in`](crate::engine::ExplainEngine::explain_with_index_in))
//! writes the output into storage taken from the arena, and the caller hands
//! the buffers back with [`recycle`](ExplanationArena::recycle) once the
//! explanation has been consumed. A warm `(engine, arena)` pair explains
//! with **zero** heap allocations — a property gated by the
//! `BENCH_core.json` perf suite and pinned byte-identical to the
//! allocating path by `tests/proptest_indexed.rs`.
//!
//! ```
//! use moche_core::{ExplainEngine, ExplanationArena, PreferenceList, ReferenceIndex};
//!
//! let reference = vec![14.0, 14.0, 14.0, 14.0, 20.0, 20.0, 20.0, 20.0];
//! let index = ReferenceIndex::new(&reference).unwrap();
//! let mut engine = ExplainEngine::new(0.3).unwrap();
//! let mut arena = ExplanationArena::new();
//! for test in [vec![13.0, 13.0, 12.0, 20.0], vec![12.0, 13.0, 13.0, 20.0]] {
//!     let pref = PreferenceList::identity(test.len());
//!     let e = engine.explain_with_index_in(&index, &test, &pref, &mut arena).unwrap();
//!     assert_eq!(e.size(), 2);
//!     arena.recycle(e); // hand the output buffers back for the next call
//! }
//! ```

use crate::moche::Explanation;

/// Recycled output storage for [`Explanation`]s.
///
/// The arena is plain data (two vectors); moving it between threads is
/// cheap, which is how [`crate::streaming`] ships consumed output buffers
/// back to its worker threads.
#[derive(Debug, Clone, Default)]
pub struct ExplanationArena {
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl ExplanationArena {
    /// An arena with no storage yet; the first explanation written through
    /// it allocates, later ones reuse whatever was recycled.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena primed with a consumed explanation's buffers (shorthand for
    /// `new` + [`recycle`](Self::recycle)).
    pub fn recycled_from(explanation: Explanation) -> Self {
        let mut arena = Self::new();
        arena.recycle(explanation);
        arena
    }

    /// Whether the arena currently holds reusable storage. `false` on a
    /// fresh arena, or after its storage moved into an explanation: the
    /// next explanation written through it will allocate.
    pub fn has_storage(&self) -> bool {
        self.indices.capacity() > 0 || self.values.capacity() > 0
    }

    /// Reclaims a consumed explanation's output buffers so the next
    /// explanation written through this arena reuses them.
    pub fn recycle(&mut self, explanation: Explanation) {
        let Explanation { mut indices, mut values, .. } = explanation;
        indices.clear();
        values.clear();
        self.indices = indices;
        self.values = values;
    }

    /// Moves the storage out (cleared), leaving the arena empty.
    pub(crate) fn take(&mut self) -> (Vec<usize>, Vec<f64>) {
        let mut indices = std::mem::take(&mut self.indices);
        let mut values = std::mem::take(&mut self.values);
        indices.clear();
        values.clear();
        (indices, values)
    }

    /// Returns storage taken with [`take`](Self::take) that was not
    /// consumed (the engine's error paths).
    pub(crate) fn put(&mut self, indices: Vec<usize>, values: Vec<f64>) {
        self.indices = indices;
        self.values = values;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExplainEngine;
    use crate::preference::PreferenceList;
    use crate::ref_index::ReferenceIndex;

    #[test]
    fn recycle_retains_capacity() {
        let r = vec![14.0, 14.0, 14.0, 14.0, 20.0, 20.0, 20.0, 20.0];
        let t = vec![13.0, 13.0, 12.0, 20.0];
        let index = ReferenceIndex::new(&r).unwrap();
        let mut engine = ExplainEngine::new(0.3).unwrap();
        let mut arena = ExplanationArena::new();
        assert!(!arena.has_storage());
        let pref = PreferenceList::new(vec![3, 2, 1, 0]).unwrap();
        let e = engine.explain_with_index_in(&index, &t, &pref, &mut arena).unwrap();
        assert!(!arena.has_storage(), "buffers moved into the explanation");
        let cap = e.indices().len();
        arena.recycle(e);
        assert!(arena.has_storage());
        let (indices, values) = arena.take();
        assert!(indices.capacity() >= cap);
        assert!(values.capacity() >= cap);
        assert!(indices.is_empty() && values.is_empty());
    }

    #[test]
    fn recycled_from_is_new_plus_recycle() {
        let r = vec![14.0, 14.0, 14.0, 14.0, 20.0, 20.0, 20.0, 20.0];
        let t = vec![13.0, 13.0, 12.0, 20.0];
        let index = ReferenceIndex::new(&r).unwrap();
        let mut engine = ExplainEngine::new(0.3).unwrap();
        let pref = PreferenceList::identity(t.len());
        let mut arena = ExplanationArena::new();
        let e = engine.explain_with_index_in(&index, &t, &pref, &mut arena).unwrap();
        let primed = ExplanationArena::recycled_from(e);
        assert!(primed.has_storage());
    }

    #[test]
    fn error_paths_keep_the_storage() {
        let r = vec![14.0, 14.0, 14.0, 14.0, 20.0, 20.0, 20.0, 20.0];
        let t = vec![13.0, 13.0, 12.0, 20.0];
        let index = ReferenceIndex::new(&r).unwrap();
        let mut engine = ExplainEngine::new(0.3).unwrap();
        let mut arena = ExplanationArena::new();
        let pref = PreferenceList::new(vec![3, 2, 1, 0]).unwrap();
        let e = engine.explain_with_index_in(&index, &t, &pref, &mut arena).unwrap();
        arena.recycle(e);
        // A passing window errors before touching the arena.
        assert!(engine.explain_with_index_in(&index, &r, &pref, &mut arena).is_err());
        assert!(arena.has_storage(), "an error must not leak the recycled storage");
        // And the arena still works afterwards.
        let e = engine.explain_with_index_in(&index, &t, &pref, &mut arena).unwrap();
        assert_eq!(e.size(), 2);
    }
}
