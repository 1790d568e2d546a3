//! The precomputed reference rank index: amortizing the reference side of
//! the base-vector build across many test windows.
//!
//! The drift-monitoring deployment the paper targets (Section 6.1.1) tests
//! one large reference sample `R` against thousands of small sliding
//! windows `T`. [`BaseVector::build`] re-merges `R ∪ T` per window —
//! `O(n + m)` comparisons each time even though `R` never changes.
//! A [`ReferenceIndex`] does the reference-side work once: it stores the
//! distinct reference values together with their cumulative rank counts,
//! so a per-window build only has to *splice* the window's `O(q_T)`
//! distinct values into the precomputed structure.
//!
//! [`BaseVector::build_with_index_into_using`] — the one per-window builder
//! behind [`crate::ExplainEngine::explain_with_index_in`] and therefore
//! every batch, stream, monitor and fleet explanation — runs in
//! `O(m log m)` to sort the window, `O(q_T log q_R)` to locate the splice points, and copies the
//! untouched reference runs between them with `memcpy`-style chunk copies
//! instead of a per-element merge loop — the dominant `O(n)` term loses
//! its branch-per-element constant. The result is **byte-identical** to
//! [`BaseVector::build`] (enforced by `tests/proptest_indexed.rs`), so
//! every downstream phase (bounds, Phase 1, Phase 2) is oblivious to which
//! path built the base vector.

use crate::base_vector::{BaseVector, SortedReference};
use crate::error::{MocheError, SetKind};
use crate::ks::validate_finite;

mod sealed {
    /// Seals [`super::RankSource`]: the splice consumes the crate-internal
    /// cumulative-count plane, which outside implementations cannot
    /// produce consistently.
    pub trait Sealed {}
}

/// A read-only *rank source* over a reference sample: the distinct sorted
/// values and their cumulative rank counts, in the exact layout the
/// base-vector splice ([`BaseVector::build_with_index_into_using`])
/// consumes.
///
/// [`ReferenceIndex`] is the canonical implementation (built by sorting);
/// [`IncrementalRefIndex::materialize`] produces the same view from an
/// incrementally-maintained order-statistic structure without sorting.
/// The trait is sealed: every implementation must be byte-identical to
/// `ReferenceIndex::new` on the same multiset, a contract enforced by
/// `tests/proptest_indexed.rs`.
pub trait RankSource: sealed::Sealed {
    /// Total reference size `n` (with multiplicities).
    fn n(&self) -> usize;
    /// The distinct reference values, ascending.
    fn distinct(&self) -> &[f64];
    /// The cumulative counts as `f64`; implementation detail of the splice.
    #[doc(hidden)]
    fn cum_f64(&self) -> &[f64];
}

impl sealed::Sealed for ReferenceIndex {}

impl RankSource for ReferenceIndex {
    #[inline]
    fn n(&self) -> usize {
        ReferenceIndex::n(self)
    }

    #[inline]
    fn distinct(&self) -> &[f64] {
        ReferenceIndex::distinct(self)
    }

    #[inline]
    fn cum_f64(&self) -> &[f64] {
        ReferenceIndex::cum_f64(self)
    }
}

/// A reference sample preprocessed for repeated base-vector builds: the
/// distinct sorted values of `R` and their cumulative counts.
///
/// Build once per reference (`O(n log n)`), then splice per-window base
/// vectors into it with [`BaseVector::build_with_index_into_using`].
/// Shareable read-only across worker threads (see [`crate::batch`] and
/// [`crate::streaming`]).
///
/// # Examples
///
/// ```
/// use moche_core::{BaseVector, ReferenceIndex};
///
/// let reference = vec![14.0, 14.0, 14.0, 14.0, 20.0, 20.0, 20.0, 20.0];
/// let index = ReferenceIndex::new(&reference).unwrap();
/// assert_eq!(index.n(), 8);
/// assert_eq!(index.q_r(), 2); // distinct values 14 and 20
///
/// let test = vec![13.0, 13.0, 12.0, 20.0];
/// let (mut indexed, mut sort_scratch) = (BaseVector::empty(), Vec::new());
/// BaseVector::build_with_index_into_using(&index, &test, &mut indexed, &mut sort_scratch)
///     .unwrap();
/// let merged = BaseVector::build(&reference, &test).unwrap();
/// assert_eq!(indexed, merged);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceIndex {
    /// Distinct reference values, ascending.
    distinct: Vec<f64>,
    /// `cum_f64[j] = |{x in R : x <= distinct[j - 1]}|` (`cum_f64[0] = 0`),
    /// stored as `f64` so the splice can fill the [`BaseVector`] f64 plane
    /// with chunk copies instead of per-element conversions. Lossless:
    /// counts are integers `< 2^53`, and the integer consumers
    /// ([`rank`](Self::rank)) recover the exact `u64` with a cast — same
    /// argument as the `BaseVector` planes.
    cum_f64: Vec<f64>,
    /// Total reference size `n` (with multiplicities).
    n: usize,
}

impl ReferenceIndex {
    /// Validates, sorts and indexes a reference sample.
    ///
    /// # Errors
    ///
    /// Returns an error if the sample is empty or contains non-finite
    /// values.
    pub fn new(reference: &[f64]) -> Result<Self, MocheError> {
        Self::from_vec(reference.to_vec())
    }

    /// [`new`](Self::new) from an owned sample, sorting it in place —
    /// callers that already hold a `Vec` (e.g. a collected sliding window)
    /// skip the defensive copy.
    ///
    /// # Errors
    ///
    /// As for [`new`](Self::new).
    pub fn from_vec(mut reference: Vec<f64>) -> Result<Self, MocheError> {
        if reference.is_empty() {
            return Err(MocheError::EmptyReference);
        }
        validate_finite(SetKind::Reference, &reference)?;
        reference.sort_unstable_by(f64::total_cmp);
        Ok(Self::from_sorted_values(&reference))
    }

    /// Indexes an already-validated [`SortedReference`] in `O(n)`.
    pub fn from_sorted(reference: &SortedReference) -> Self {
        Self::from_sorted_values(reference.as_sorted())
    }

    fn from_sorted_values(sorted: &[f64]) -> Self {
        let mut index = Self { distinct: Vec::new(), cum_f64: Vec::new(), n: 0 };
        index.fill_from_sorted_values(sorted);
        index
    }

    /// Clears and refills every buffer from a sorted sample, retaining the
    /// allocations (the in-place rebuild path behind
    /// [`rebuild_from`](Self::rebuild_from)).
    fn fill_from_sorted_values(&mut self, sorted: &[f64]) {
        self.distinct.clear();
        self.distinct.reserve(sorted.len());
        self.cum_f64.clear();
        self.cum_f64.reserve(sorted.len() + 1);
        self.cum_f64.push(0.0f64);
        let mut i = 0usize;
        while i < sorted.len() {
            // The representative of a duplicate run is its first element in
            // total_cmp order, matching the merge in `BaseVector::build`.
            let v = sorted[i];
            let mut j = i + 1;
            while j < sorted.len() && sorted[j] <= v {
                j += 1;
            }
            self.distinct.push(v);
            self.cum_f64.push(j as f64);
            i = j;
        }
        self.n = sorted.len();
    }

    /// Rebuilds this index in place from a fresh (unsorted) reference
    /// sample, reusing every internal buffer plus the caller's sort scratch.
    /// A warm `(index, scratch)` pair re-indexes with zero heap allocations
    /// once the buffers have grown to the working size — the alarm path of
    /// a sliding-window monitor, where the reference changes per alarm.
    ///
    /// # Errors
    ///
    /// As for [`new`](Self::new); on error the index is left unchanged.
    pub fn rebuild_from(
        &mut self,
        reference: &[f64],
        sort_scratch: &mut Vec<f64>,
    ) -> Result<(), MocheError> {
        if reference.is_empty() {
            return Err(MocheError::EmptyReference);
        }
        validate_finite(SetKind::Reference, reference)?;
        sort_scratch.clear();
        sort_scratch.extend_from_slice(reference);
        sort_scratch.sort_unstable_by(f64::total_cmp);
        self.fill_from_sorted_values(sort_scratch);
        Ok(())
    }

    /// Total reference size `n` (with multiplicities).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of distinct reference values `q_R`.
    #[inline]
    pub fn q_r(&self) -> usize {
        self.distinct.len()
    }

    /// Always `false`: construction rejects empty samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.distinct.is_empty()
    }

    /// The distinct reference values, ascending.
    #[inline]
    pub fn distinct(&self) -> &[f64] {
        &self.distinct
    }

    /// The rank of `v` in the reference: `|{x in R : x <= v}|`, in
    /// `O(log q_R)`.
    pub fn rank(&self, v: f64) -> u64 {
        let pos = self.distinct.partition_point(|&u| u <= v);
        self.cum_f64[pos] as u64 // exact: counts are integers < 2^53
    }

    /// The cumulative counts as `f64` (see the field docs) — what the
    /// splice copies into the [`BaseVector`] `C_R` plane.
    #[inline]
    pub(crate) fn cum_f64(&self) -> &[f64] {
        &self.cum_f64
    }
}

impl BaseVector {
    /// Builds the base vector against a precomputed [`RankSource`]
    /// (canonically a [`ReferenceIndex`]) into `out`, splicing the window's
    /// distinct values into the source instead of re-merging `R ∪ T`.
    ///
    /// `O(m log m + q_T log q_R)` plus chunk copies of the reference runs;
    /// the result is byte-identical to [`BaseVector::build`] on the same
    /// inputs. The splice writes into `out`'s existing buffers (start from
    /// [`BaseVector::empty`] or any previous build) and sorts the window in
    /// the caller-owned `sort_scratch`, whose contents are overwritten on
    /// every call. A caller looping over windows of similar size therefore
    /// pays the page faults of the `O(n + m)` arrays once instead of per
    /// window, and a warm caller rebuilds with **zero** heap allocations.
    ///
    /// # Errors
    ///
    /// Returns an error if the test sample is empty or contains non-finite
    /// values; `out` is then left unchanged.
    pub fn build_with_index_into_using<S: RankSource + ?Sized>(
        index: &S,
        test: &[f64],
        out: &mut Self,
        sort_scratch: &mut Vec<f64>,
    ) -> Result<(), MocheError> {
        if test.is_empty() {
            return Err(MocheError::EmptyTest);
        }
        validate_finite(SetKind::Test, test)?;
        let mut buffers = out.take_buffers();
        let values = &mut buffers.values;
        let c_r_f64 = &mut buffers.c_r_f64;
        let c_t_f64 = &mut buffers.c_t_f64;
        let t_pos = &mut buffers.t_pos;
        values.clear();
        c_r_f64.clear();
        c_t_f64.clear();
        t_pos.clear();
        sort_scratch.clear();
        sort_scratch.extend_from_slice(test);
        sort_scratch.sort_unstable_by(f64::total_cmp);
        let t_sorted: &[f64] = sort_scratch;

        let distinct = index.distinct();
        let cum_f64 = index.cum_f64();
        values.reserve(distinct.len() + test.len());
        c_r_f64.reserve(distinct.len() + test.len() + 1);
        c_t_f64.reserve(distinct.len() + test.len() + 1);
        c_r_f64.push(0.0f64);
        c_t_f64.push(0.0f64);

        let mut rpos = 0usize; // next reference-distinct index to emit
        let mut consumed_t = 0u64;
        let mut gi = 0usize;
        while gi < t_sorted.len() {
            // One distinct test value per iteration; its representative is
            // the first element of the duplicate run, as in the merge.
            let tv = t_sorted[gi];
            let mut ge = gi + 1;
            while ge < t_sorted.len() && t_sorted[ge] <= tv {
                ge += 1;
            }

            // Copy the run of reference values strictly below tv as one
            // chunk: values and the C_R plane are memcpys of the
            // precomputed arrays, the C_T plane is a constant fill.
            let splice = rpos + distinct[rpos..].partition_point(|&u| u < tv);
            if splice > rpos {
                values.extend_from_slice(&distinct[rpos..splice]);
                c_r_f64.extend_from_slice(&cum_f64[rpos + 1..splice + 1]);
                c_t_f64.resize(c_t_f64.len() + (splice - rpos), consumed_t as f64);
                rpos = splice;
            }

            consumed_t += (ge - gi) as u64;
            if rpos < distinct.len() && distinct[rpos] == tv {
                // Shared value: same min-of-heads selection as the merge
                // (only observable for signed zeros).
                values.push(distinct[rpos].min(tv));
                rpos += 1;
            } else {
                values.push(tv);
            }
            c_r_f64.push(cum_f64[rpos]);
            c_t_f64.push(consumed_t as f64);
            gi = ge;
        }

        // Tail: every remaining reference value, in one chunk.
        if rpos < distinct.len() {
            let run = distinct.len() - rpos;
            values.extend_from_slice(&distinct[rpos..]);
            c_r_f64.extend_from_slice(&cum_f64[rpos + 1..]);
            c_t_f64.resize(c_t_f64.len() + run, consumed_t as f64);
        }

        t_pos.extend(test.iter().map(|&v| {
            let lt = values.partition_point(|&u| u < v);
            debug_assert!(values[lt] == v);
            lt + 1
        }));

        *out = Self::from_raw_parts(buffers, index.n(), test.len());
        Ok(())
    }
}

/// Treap arena index.
type Idx = u32;
const NIL: Idx = u32::MAX;

/// One distinct key of the order-statistic multiset: a value (keyed by
/// `total_cmp`, so `-0.0` and `0.0` are separate nodes until
/// materialization collapses them like the sorted merge does) and its
/// multiplicity.
#[derive(Debug, Clone)]
struct MultisetNode {
    value: f64,
    /// Live occurrences of this exact key (node is freed at 0).
    count: u32,
    priority: u64,
    left: Idx,
    right: Idx,
}

/// An incrementally-maintained [`RankSource`]: a sliding reference window
/// updated in `O(log w)` per slide and materialized into a
/// [`ReferenceIndex`] **without sorting**.
///
/// A treap-backed multiset absorbs each slide as one
/// [`remove`](Self::remove) plus one [`insert`](Self::insert) (`O(log w)`
/// expected, allocation-free once warm thanks to a node free list), and
/// [`materialize`](Self::materialize) walks it in order (`O(q_R)`, no
/// comparison sort) to refill a cached [`ReferenceIndex`] the base-vector
/// splice consumes unchanged. The materialized index is **byte-identical**
/// to [`ReferenceIndex::new`] on the same multiset — including signed-zero
/// representatives and duplicate collapsing — a property pinned by
/// `tests/proptest_indexed.rs`.
///
/// The drift monitor does not use it: an alarm re-sorts its captured
/// reference window with [`ReferenceIndex::rebuild_from`] (`O(w log w)`
/// per alarm) instead of paying `O(log w)` on every push and a second
/// per-series copy of the window.
///
/// # Examples
///
/// ```
/// use moche_core::{IncrementalRefIndex, ReferenceIndex};
///
/// let mut live = IncrementalRefIndex::new();
/// for v in [5.0, 1.0, 5.0, 3.0] {
///     live.insert(v);
/// }
/// assert_eq!(live.materialize().unwrap(), &ReferenceIndex::new(&[5.0, 1.0, 5.0, 3.0]).unwrap());
///
/// // One window slide: O(log w), no sort anywhere.
/// assert!(live.remove(1.0));
/// live.insert(7.0);
/// assert_eq!(live.materialize().unwrap(), &ReferenceIndex::new(&[5.0, 5.0, 3.0, 7.0]).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalRefIndex {
    nodes: Vec<MultisetNode>,
    free: Vec<Idx>,
    root: Idx,
    rng_state: u64,
    /// Total size with multiplicities.
    len: usize,
    /// Scratch stack for the iterative in-order materialization walk.
    traversal: Vec<Idx>,
    /// The materialized view, refilled in place when stale.
    cache: ReferenceIndex,
    /// Whether `cache` reflects the current multiset.
    stale: bool,
}

impl Default for IncrementalRefIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalRefIndex {
    /// Creates an empty multiset.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            rng_state: 0x5EED_0D15 | 1,
            len: 0,
            traversal: Vec::new(),
            cache: ReferenceIndex { distinct: Vec::new(), cum_f64: Vec::new(), n: 0 },
            stale: true,
        }
    }

    /// An empty multiset with every internal buffer sized for `capacity`
    /// elements, so a monitor holding at most `capacity` values never
    /// allocates after construction — not even on a worst-case treap shape.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut index = Self::new();
        index.nodes.reserve(capacity);
        index.free.reserve(capacity);
        index.traversal.reserve(capacity);
        index.cache.distinct.reserve(capacity + 1);
        index.cache.cum_f64.reserve(capacity + 2);
        index
    }

    /// Total number of stored values, with multiplicities.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the multiset is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the multiset, keeping every allocation for reuse.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.root = NIL;
        self.len = 0;
        self.stale = true;
    }

    fn next_priority(&mut self) -> u64 {
        // SplitMix64 (public domain, Steele et al.).
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn alloc(&mut self, value: f64) -> Idx {
        let priority = self.next_priority();
        let node = MultisetNode { value, count: 1, priority, left: NIL, right: NIL };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as Idx
        }
    }

    /// Splits `t` into (< value, >= value) in `total_cmp` order.
    fn split_lt(&mut self, t: Idx, value: f64) -> (Idx, Idx) {
        if t == NIL {
            return (NIL, NIL);
        }
        if self.nodes[t as usize].value.total_cmp(&value) == std::cmp::Ordering::Less {
            let right = self.nodes[t as usize].right;
            let (a, b) = self.split_lt(right, value);
            self.nodes[t as usize].right = a;
            (t, b)
        } else {
            let left = self.nodes[t as usize].left;
            let (a, b) = self.split_lt(left, value);
            self.nodes[t as usize].left = b;
            (a, t)
        }
    }

    /// Splits `t` into (<= value, > value) in `total_cmp` order.
    fn split_le(&mut self, t: Idx, value: f64) -> (Idx, Idx) {
        if t == NIL {
            return (NIL, NIL);
        }
        if self.nodes[t as usize].value.total_cmp(&value) != std::cmp::Ordering::Greater {
            let right = self.nodes[t as usize].right;
            let (a, b) = self.split_le(right, value);
            self.nodes[t as usize].right = a;
            (t, b)
        } else {
            let left = self.nodes[t as usize].left;
            let (a, b) = self.split_le(left, value);
            self.nodes[t as usize].left = b;
            (a, t)
        }
    }

    fn merge(&mut self, a: Idx, b: Idx) -> Idx {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.nodes[a as usize].priority >= self.nodes[b as usize].priority {
            let ar = self.nodes[a as usize].right;
            let merged = self.merge(ar, b);
            self.nodes[a as usize].right = merged;
            a
        } else {
            let bl = self.nodes[b as usize].left;
            let merged = self.merge(a, bl);
            self.nodes[b as usize].left = merged;
            b
        }
    }

    /// Inserts one occurrence of `value`: `O(log w)` expected, and
    /// allocation-free once the node arena has grown to the working set.
    ///
    /// # Panics
    ///
    /// Panics on non-finite values (the multiset is left unchanged —
    /// validation happens before any structural mutation).
    pub fn insert(&mut self, value: f64) {
        assert!(value.is_finite(), "reference values must be finite");
        let root = self.root;
        let (a, bc) = self.split_lt(root, value);
        let (b, c) = self.split_le(bc, value);
        let b = if b == NIL {
            self.alloc(value)
        } else {
            debug_assert!(self.nodes[b as usize].value.total_cmp(&value).is_eq());
            self.nodes[b as usize].count += 1;
            b
        };
        let left = self.merge(a, b);
        self.root = self.merge(left, c);
        self.len += 1;
        self.stale = true;
    }

    /// Removes one occurrence of `value` (matched bit-exactly under
    /// `total_cmp`, so `-0.0` only removes a stored `-0.0`). Returns
    /// `false` — leaving the multiset unchanged — if the value is absent.
    pub fn remove(&mut self, value: f64) -> bool {
        let root = self.root;
        let (a, bc) = self.split_lt(root, value);
        let (b, c) = self.split_le(bc, value);
        let found = b != NIL;
        let b = if found {
            let node = &mut self.nodes[b as usize];
            node.count -= 1;
            if node.count == 0 {
                self.free.push(b);
                NIL
            } else {
                b
            }
        } else {
            NIL
        };
        let left = self.merge(a, b);
        self.root = self.merge(left, c);
        if found {
            self.len -= 1;
            self.stale = true;
        }
        found
    }

    /// The current multiset as a [`ReferenceIndex`], byte-identical to
    /// [`ReferenceIndex::new`] over the same values — with **no sort**
    /// anywhere. Repeated calls between updates are `O(1)`; after an update
    /// the cached arrays are refilled by an `O(q_R)` in-order tree walk,
    /// with zero heap allocations once warm.
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::EmptyReference`] when the multiset is empty
    /// (an empty reference has no valid index).
    pub fn materialize(&mut self) -> Result<&ReferenceIndex, MocheError> {
        if self.len == 0 {
            return Err(MocheError::EmptyReference);
        }
        if self.stale {
            self.walk_into_cache();
            self.stale = false;
        }
        Ok(&self.cache)
    }

    /// The in-order treap walk, refilling the cached arrays from scratch.
    fn walk_into_cache(&mut self) {
        let nodes = &self.nodes;
        let cache = &mut self.cache;
        let stack = &mut self.traversal;
        cache.distinct.clear();
        cache.cum_f64.clear();
        cache.cum_f64.push(0.0f64);
        stack.clear();
        let mut total = 0u64;
        let mut cur = self.root;
        while cur != NIL || !stack.is_empty() {
            while cur != NIL {
                stack.push(cur);
                cur = nodes[cur as usize].left;
            }
            // lint:allow(panic): the outer loop condition (`cur != NIL ||
            // !stack.is_empty()`) plus the descent loop guarantee a frame
            let node = &nodes[stack.pop().expect("stack non-empty") as usize];
            total += u64::from(node.count);
            match cache.distinct.last() {
                // `total_cmp`-adjacent keys comparing equal (`-0.0`
                // then `0.0`) collapse into one distinct run whose
                // representative is the first key — exactly the merge
                // rule of `ReferenceIndex::new`.
                Some(&last) if last == node.value => {
                    // lint:allow(panic): `distinct.last()` just matched Some,
                    // and `cum_f64` grows in lockstep with `distinct`
                    *cache.cum_f64.last_mut().expect("cum non-empty") = total as f64;
                }
                _ => {
                    cache.distinct.push(node.value);
                    cache.cum_f64.push(total as f64);
                }
            }
            cur = node.right;
        }
        cache.n = total as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_example() -> (Vec<f64>, Vec<f64>) {
        (vec![14.0, 14.0, 14.0, 14.0, 20.0, 20.0, 20.0, 20.0], vec![13.0, 13.0, 12.0, 20.0])
    }

    /// A fresh spliced base vector of `test` against `index`.
    fn splice<S: RankSource + ?Sized>(index: &S, test: &[f64]) -> Result<BaseVector, MocheError> {
        let mut out = BaseVector::empty();
        BaseVector::build_with_index_into_using(index, test, &mut out, &mut Vec::new())
            .map(|()| out)
    }

    #[test]
    fn index_summarizes_the_reference() {
        let (r, _) = paper_example();
        let index = ReferenceIndex::new(&r).unwrap();
        assert_eq!(index.n(), 8);
        assert_eq!(index.q_r(), 2);
        assert!(!index.is_empty());
        assert_eq!(index.distinct(), &[14.0, 20.0]);
        assert_eq!(index.rank(13.0), 0);
        assert_eq!(index.rank(14.0), 4);
        assert_eq!(index.rank(19.0), 4);
        assert_eq!(index.rank(20.0), 8);
        assert_eq!(index.rank(99.0), 8);
    }

    #[test]
    fn from_sorted_and_from_vec_match_new() {
        let (r, _) = paper_example();
        let shared = SortedReference::new(&r).unwrap();
        assert_eq!(ReferenceIndex::from_sorted(&shared), ReferenceIndex::new(&r).unwrap());
        assert_eq!(ReferenceIndex::from_vec(r.clone()).unwrap(), ReferenceIndex::new(&r).unwrap());
        assert_eq!(ReferenceIndex::from_vec(Vec::new()).unwrap_err(), MocheError::EmptyReference);
    }

    #[test]
    fn indexed_build_matches_merged_on_the_paper_example() {
        let (r, t) = paper_example();
        let index = ReferenceIndex::new(&r).unwrap();
        let merged = BaseVector::build(&r, &t).unwrap();
        let indexed = splice(&index, &t).unwrap();
        assert_eq!(indexed, merged);
    }

    #[test]
    fn indexed_build_matches_merged_on_overlap_patterns() {
        // Every interleaving shape: test below, inside, between, equal to
        // and above the reference values, with duplicates everywhere.
        let r = vec![1.0, 1.0, 3.0, 5.0, 5.0, 5.0, 9.0];
        let index = ReferenceIndex::new(&r).unwrap();
        let tests: Vec<Vec<f64>> = vec![
            vec![0.0, 0.0],                 // all below
            vec![10.0, 11.0],               // all above
            vec![1.0, 5.0, 9.0],            // all shared
            vec![2.0, 4.0, 6.0],            // all between
            vec![0.0, 1.0, 4.0, 5.0, 12.0], // mixed
            vec![5.0, 5.0, 5.0, 5.0],       // one shared value, duplicated
            vec![3.0],                      // single shared point
            vec![-2.5],                     // single outside point
        ];
        for t in tests {
            let merged = BaseVector::build(&r, &t).unwrap();
            let indexed = splice(&index, &t).unwrap();
            assert_eq!(indexed, merged, "test window {t:?}");
        }
    }

    #[test]
    fn indexed_build_matches_merged_with_signed_zeros() {
        let r = vec![-0.0, 0.0, 1.0];
        let index = ReferenceIndex::new(&r).unwrap();
        for t in [vec![0.0, 2.0], vec![-0.0, 2.0], vec![-0.0, 0.0]] {
            let merged = BaseVector::build(&r, &t).unwrap();
            let indexed = splice(&index, &t).unwrap();
            assert_eq!(indexed, merged, "test window {t:?}");
            assert_eq!(
                indexed.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                merged.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "bitwise value mismatch for {t:?}"
            );
        }
    }

    #[test]
    fn rebuild_in_place_recycles_buffers_and_matches() {
        let r = vec![1.0, 1.0, 3.0, 5.0, 5.0, 5.0, 9.0];
        let index = ReferenceIndex::new(&r).unwrap();
        let (mut out, mut sort_scratch) = (BaseVector::empty(), Vec::new());
        for t in [vec![2.0, 4.0], vec![0.0, 5.0, 12.0], vec![9.0, 9.0, 9.0]] {
            BaseVector::build_with_index_into_using(&index, &t, &mut out, &mut sort_scratch)
                .unwrap();
            assert_eq!(out, BaseVector::build(&r, &t).unwrap(), "test window {t:?}");
        }
        // Validation errors leave the previous contents untouched.
        let before = out.clone();
        assert_eq!(
            BaseVector::build_with_index_into_using(&index, &[], &mut out, &mut sort_scratch)
                .unwrap_err(),
            MocheError::EmptyTest
        );
        assert!(BaseVector::build_with_index_into_using(
            &index,
            &[f64::NAN],
            &mut out,
            &mut sort_scratch
        )
        .is_err());
        assert_eq!(out, before);
    }

    #[test]
    fn rebuild_from_matches_fresh_index_and_recycles() {
        let mut index = ReferenceIndex::new(&[1.0, 2.0]).unwrap();
        let mut sort_scratch = Vec::new();
        let references: [&[f64]; 3] =
            [&[5.0, 1.0, 5.0, 3.0], &[-0.0, 0.0, 2.0], &[7.0, 7.0, 7.0, 7.0, 7.0]];
        for r in references {
            index.rebuild_from(r, &mut sort_scratch).unwrap();
            assert_eq!(index, ReferenceIndex::new(r).unwrap(), "reference {r:?}");
        }
        // A warm rebuild of a same-size reference must not grow any buffer.
        index.rebuild_from(&[9.0, 1.0, 4.0, 4.0, 2.0], &mut sort_scratch).unwrap();
        let caps = (index.distinct.capacity(), index.cum_f64.capacity());
        index.rebuild_from(&[8.0, 2.0, 3.0, 3.0, 1.0], &mut sort_scratch).unwrap();
        assert_eq!(
            (index.distinct.capacity(), index.cum_f64.capacity()),
            caps,
            "warm rebuild must reuse the buffers"
        );
        // Errors leave the previous contents untouched.
        let before = index.clone();
        assert_eq!(
            index.rebuild_from(&[], &mut sort_scratch).unwrap_err(),
            MocheError::EmptyReference
        );
        assert!(index.rebuild_from(&[f64::NAN], &mut sort_scratch).is_err());
        assert_eq!(index, before);
    }

    #[test]
    fn indexed_build_rejects_bad_test_input() {
        let index = ReferenceIndex::new(&[1.0, 2.0]).unwrap();
        assert_eq!(splice(&index, &[]).unwrap_err(), MocheError::EmptyTest);
        assert!(splice(&index, &[f64::NAN]).is_err());
    }

    #[test]
    fn index_rejects_bad_reference() {
        assert_eq!(ReferenceIndex::new(&[]).unwrap_err(), MocheError::EmptyReference);
        assert!(ReferenceIndex::new(&[1.0, f64::INFINITY]).is_err());
    }

    /// Bit-level equality, distinguishing `-0.0` from `0.0` where derived
    /// `PartialEq` would not.
    fn assert_bits_eq(a: &ReferenceIndex, b: &ReferenceIndex, ctx: &str) {
        assert_eq!(a.n(), b.n(), "{ctx}: n");
        assert_eq!(
            a.distinct().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.distinct().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{ctx}: distinct bits"
        );
        assert_eq!(a.cum_f64(), b.cum_f64(), "{ctx}: cumulative counts");
    }

    #[test]
    fn incremental_matches_sorted_construction() {
        let mut live = IncrementalRefIndex::new();
        let values = [5.0, 1.0, 5.0, 3.0, 1.0, 1.0, -2.5, 5.0];
        for (i, &v) in values.iter().enumerate() {
            live.insert(v);
            assert_eq!(live.len(), i + 1);
            assert_bits_eq(
                live.materialize().unwrap(),
                &ReferenceIndex::new(&values[..=i]).unwrap(),
                &format!("after {} inserts", i + 1),
            );
        }
    }

    #[test]
    fn incremental_slides_match_rebuilds() {
        // A sliding window over a repeating series: every slide is one
        // remove + one insert, and the materialized index must equal a
        // from-scratch sorted build of the window at every step.
        let series: Vec<f64> = (0..120).map(|i| ((i * 29) % 13) as f64 * 0.5).collect();
        let w = 30;
        let mut live = IncrementalRefIndex::with_capacity(w);
        for &v in &series[..w] {
            live.insert(v);
        }
        for step in 0..(series.len() - w) {
            assert!(live.remove(series[step]), "step {step}: oldest value present");
            live.insert(series[step + w]);
            assert_bits_eq(
                live.materialize().unwrap(),
                &ReferenceIndex::new(&series[step + 1..step + 1 + w]).unwrap(),
                &format!("step {step}"),
            );
        }
    }

    #[test]
    fn incremental_collapses_signed_zeros_like_the_sort() {
        for values in [
            vec![-0.0, 0.0, 1.0],
            vec![0.0, -0.0, 1.0],
            vec![0.0, 0.0, -0.0],
            vec![-0.0, -0.0],
            vec![1.0, 0.0, -1.0, -0.0, 0.0],
        ] {
            let mut live = IncrementalRefIndex::new();
            for &v in &values {
                live.insert(v);
            }
            assert_bits_eq(
                live.materialize().unwrap(),
                &ReferenceIndex::new(&values).unwrap(),
                &format!("values {values:?}"),
            );
        }
        // Removal is bit-exact: taking out the -0.0 leaves the 0.0 run.
        let mut live = IncrementalRefIndex::new();
        live.insert(-0.0);
        live.insert(0.0);
        assert!(live.remove(-0.0));
        assert_bits_eq(live.materialize().unwrap(), &ReferenceIndex::new(&[0.0]).unwrap(), "0.0");
    }

    #[test]
    fn incremental_remove_of_absent_value_is_a_clean_no_op() {
        let mut live = IncrementalRefIndex::new();
        live.insert(1.0);
        live.insert(2.0);
        assert!(!live.remove(3.0));
        assert!(!live.remove(f64::NAN), "NaN is never stored");
        assert!(!live.remove(-0.0), "only a positive zero would match bit-exactly");
        assert_eq!(live.len(), 2);
        assert_bits_eq(
            live.materialize().unwrap(),
            &ReferenceIndex::new(&[1.0, 2.0]).unwrap(),
            "unchanged",
        );
    }

    #[test]
    fn incremental_empty_and_clear() {
        let mut live = IncrementalRefIndex::new();
        assert!(live.is_empty());
        assert_eq!(live.materialize().unwrap_err(), MocheError::EmptyReference);
        live.insert(4.0);
        assert!(!live.is_empty());
        live.clear();
        assert!(live.is_empty());
        assert_eq!(live.len(), 0);
        assert_eq!(live.materialize().unwrap_err(), MocheError::EmptyReference);
        // Reusable after a clear.
        live.insert(7.0);
        assert_bits_eq(live.materialize().unwrap(), &ReferenceIndex::new(&[7.0]).unwrap(), "reuse");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn incremental_insert_rejects_non_finite() {
        IncrementalRefIndex::new().insert(f64::INFINITY);
    }

    #[test]
    fn incremental_updates_flip_signed_zero_representatives() {
        // The ±0.0 run's representative must flip across updates exactly
        // like a fresh sorted build's.
        let mut live = IncrementalRefIndex::new();
        live.insert(0.0);
        live.insert(1.0);
        live.materialize().unwrap();
        live.insert(-0.0); // -0.0 joins: representative flips to -0.0
        assert_bits_eq(
            live.materialize().unwrap(),
            &ReferenceIndex::new(&[0.0, 1.0, -0.0]).unwrap(),
            "after -0.0 joins",
        );
        assert!(live.remove(-0.0)); // last -0.0 leaves: back to 0.0
        assert_bits_eq(
            live.materialize().unwrap(),
            &ReferenceIndex::new(&[0.0, 1.0]).unwrap(),
            "after -0.0 leaves",
        );
        // Mixed run keeps -0.0 while one of two -0.0s remains.
        live.insert(-0.0);
        live.insert(-0.0);
        live.materialize().unwrap();
        assert!(live.remove(-0.0));
        assert_bits_eq(
            live.materialize().unwrap(),
            &ReferenceIndex::new(&[0.0, 1.0, -0.0]).unwrap(),
            "one -0.0 still present",
        );
        // Remove-then-reinsert of a whole run between materializations.
        assert!(live.remove(1.0));
        live.insert(1.0);
        live.insert(2.0);
        assert_bits_eq(
            live.materialize().unwrap(),
            &ReferenceIndex::new(&[0.0, 1.0, -0.0, 2.0]).unwrap(),
            "run deleted and re-created between materializations",
        );
    }

    #[test]
    fn incremental_is_allocation_stable_once_warm() {
        // Slide a window long enough to reach the working set, then check
        // that further slides + materializations never grow any buffer.
        let series: Vec<f64> = (0..300).map(|i| ((i * 17) % 23) as f64).collect();
        let w = 40;
        let mut live = IncrementalRefIndex::with_capacity(w);
        for &v in &series[..w] {
            live.insert(v);
        }
        for step in 0..100 {
            assert!(live.remove(series[step]));
            live.insert(series[step + w]);
            live.materialize().unwrap();
        }
        let caps = (
            live.nodes.capacity(),
            live.free.capacity(),
            live.traversal.capacity(),
            live.cache.distinct.capacity(),
            live.cache.cum_f64.capacity(),
        );
        for step in 100..(series.len() - w) {
            assert!(live.remove(series[step]));
            live.insert(series[step + w]);
            live.materialize().unwrap();
        }
        let after = (
            live.nodes.capacity(),
            live.free.capacity(),
            live.traversal.capacity(),
            live.cache.distinct.capacity(),
            live.cache.cum_f64.capacity(),
        );
        assert_eq!(caps, after, "warm slides must not grow any internal buffer");
    }

    #[test]
    fn incremental_index_feeds_the_splice() {
        // The materialized view is a first-class RankSource: the splice
        // consumes it exactly like a sorted-construction index.
        let r = vec![1.0, 1.0, 3.0, 5.0, 5.0, 5.0, 9.0];
        let t = vec![0.0, 1.0, 4.0, 5.0, 12.0];
        let mut live = IncrementalRefIndex::new();
        for &v in &r {
            live.insert(v);
        }
        let via_live = splice(live.materialize().unwrap(), &t).unwrap();
        assert_eq!(via_live, BaseVector::build(&r, &t).unwrap());
    }

    #[test]
    fn indexed_statistic_matches_direct() {
        let r: Vec<f64> = (0..500).map(|i| f64::from(i % 23)).collect();
        let t: Vec<f64> = (0..80).map(|i| f64::from(i % 17) + 3.5).collect();
        let index = ReferenceIndex::new(&r).unwrap();
        let b = splice(&index, &t).unwrap();
        let direct = crate::ks::ks_statistic(&r, &t).unwrap();
        assert!((b.statistic() - direct).abs() < 1e-15);
    }
}
