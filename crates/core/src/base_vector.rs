//! The base vector and the cumulative-count representation of `R` and `T`
//! (Section 4.2 of the paper).
//!
//! The base vector `V = <x_1, ..., x_q>` holds the distinct values of
//! `R ∪ T` in ascending order. Cumulative counts
//! `C_R[i] = |{x in R : x <= x_i}|` and `C_T[i] = |{x in T : x <= x_i}|`
//! fully determine the ECDFs of `R` and `T`, so every KS-test quantity used
//! by MOCHE can be computed from this structure without touching the raw
//! samples again.

use crate::error::{MocheError, SetKind};
use crate::ks::{validate_finite, KsConfig, KsOutcome};

/// The base vector of a (reference set, test set) pair together with the
/// cumulative counts `C_R` and `C_T` and the mapping from each original test
/// point to its position in the base vector.
///
/// Index convention: the paper indexes base-vector entries `1..=q` with the
/// sentinel `C[0] = 0`. This struct follows the same convention; cumulative
/// arrays have length `q + 1` and index `0` is the sentinel.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseVector {
    /// Distinct sorted values; `values[i - 1]` is the paper's `x_i`.
    values: Vec<f64>,
    /// `C_R[i] = |{x in R : x <= x_i}|` (with `C_R[0] = 0`), stored as the
    /// *f64 plane*: the counts are kept pre-converted to `f64`, because
    /// every Phase-1 probe evaluates `Γ(i, h) = C_T[i] - scale · C_R[i]` in
    /// the `f64` domain and would otherwise pay a per-element conversion on
    /// each of its ~dozen passes. Storing *only* the `f64` form (instead of
    /// `u64` plus a plane) keeps construction traffic identical to an
    /// integer representation. This is lossless: counts are bounded by
    /// `n + m < 2^53`, so every count is exactly representable and the
    /// integer accessors ([`c_r`](Self::c_r), [`c_t`](Self::c_t)) recover
    /// the exact `u64` with a cast.
    c_r_f64: Vec<f64>,
    /// `C_T` as an `f64` plane; see [`Self::c_r_f64`].
    c_t_f64: Vec<f64>,
    /// For each original test index, the (1-based) base-vector index of its
    /// value.
    t_pos: Vec<usize>,
    n: usize,
    m: usize,
}

/// A validated, pre-sorted reference sample, shareable across many
/// [`BaseVector`] builds.
///
/// The shared-reference workload (one reference distribution monitored
/// against thousands of test windows — see [`crate::batch`]) would re-sort
/// and re-validate the same `R` for every window if it went through
/// [`BaseVector::build`]. A `SortedReference` is that `O(n log n)` work
/// done once: the validated input [`crate::batch::BatchExplainer`] takes,
/// indexed in `O(n)` by [`crate::ReferenceIndex::from_sorted`].
#[derive(Debug, Clone, PartialEq)]
pub struct SortedReference {
    values: Vec<f64>,
}

impl SortedReference {
    /// Validates and sorts a reference sample.
    ///
    /// # Errors
    ///
    /// Returns an error if the sample is empty or contains non-finite
    /// values.
    pub fn new(reference: &[f64]) -> Result<Self, MocheError> {
        if reference.is_empty() {
            return Err(MocheError::EmptyReference);
        }
        validate_finite(SetKind::Reference, reference)?;
        let mut values = reference.to_vec();
        values.sort_unstable_by(f64::total_cmp);
        Ok(Self { values })
    }

    /// Number of reference points `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always `false`: construction rejects empty samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The sorted values.
    #[inline]
    pub fn as_sorted(&self) -> &[f64] {
        &self.values
    }
}

/// The backing buffers of a [`BaseVector`], moved out for in-place rebuilds
/// (the [`crate::ref_index`] splice path) and handed back via
/// [`BaseVector::from_raw_parts`].
pub(crate) struct RecycledBuffers {
    pub(crate) values: Vec<f64>,
    pub(crate) c_r_f64: Vec<f64>,
    pub(crate) c_t_f64: Vec<f64>,
    pub(crate) t_pos: Vec<usize>,
}

impl BaseVector {
    /// Builds the base vector and cumulative counts from raw samples.
    ///
    /// Runs in `O((n + m) log(n + m))` time. This is the paper's merge and
    /// the one-shot path of [`crate::Moche`]; many windows against one
    /// reference splice into a [`crate::ReferenceIndex`] instead
    /// ([`build_with_index_into_using`](Self::build_with_index_into_using)),
    /// with byte-identical results.
    ///
    /// # Errors
    ///
    /// Returns an error if either sample is empty or contains non-finite
    /// values.
    pub fn build(reference: &[f64], test: &[f64]) -> Result<Self, MocheError> {
        if reference.is_empty() {
            return Err(MocheError::EmptyReference);
        }
        // Check the test set before paying for the reference sort, and keep
        // the seed's error precedence (EmptyTest before NonFiniteValue).
        if test.is_empty() {
            return Err(MocheError::EmptyTest);
        }
        validate_finite(SetKind::Reference, reference)?;
        validate_finite(SetKind::Test, test)?;
        let mut r_sorted = reference.to_vec();
        r_sorted.sort_unstable_by(f64::total_cmp);
        let mut t_sorted = test.to_vec();
        t_sorted.sort_unstable_by(f64::total_cmp);

        // Merge the two sorted samples into distinct values + counts (the
        // counts go straight into the f64 planes; `i as f64` is exact for
        // in-memory sample sizes).
        let mut values = Vec::with_capacity(r_sorted.len() + t_sorted.len());
        let mut c_r_f64 = Vec::with_capacity(r_sorted.len() + t_sorted.len() + 1);
        let mut c_t_f64 = Vec::with_capacity(r_sorted.len() + t_sorted.len() + 1);
        c_r_f64.push(0.0f64);
        c_t_f64.push(0.0f64);
        let (mut i, mut j) = (0usize, 0usize);
        while i < r_sorted.len() || j < t_sorted.len() {
            let x = match (r_sorted.get(i), t_sorted.get(j)) {
                (Some(&a), Some(&b)) => a.min(b),
                (Some(&a), None) => a,
                (None, Some(&b)) => b,
                // lint:allow(panic): the loop condition guarantees one side
                // still has elements
                (None, None) => unreachable!(),
            };
            while i < r_sorted.len() && r_sorted[i] <= x {
                i += 1;
            }
            while j < t_sorted.len() && t_sorted[j] <= x {
                j += 1;
            }
            values.push(x);
            c_r_f64.push(i as f64);
            c_t_f64.push(j as f64);
        }

        // Map every original test point to its base-vector index.
        let t_pos = test
            .iter()
            .map(|&v| {
                // partition_point returns the count of values < v; the value
                // itself is at that offset, so the 1-based index is +1.
                let lt = values.partition_point(|&u| u < v);
                debug_assert!(values[lt] == v);
                lt + 1
            })
            .collect();

        Ok(Self { values, c_r_f64, c_t_f64, t_pos, n: r_sorted.len(), m: test.len() })
    }

    /// An empty placeholder whose only purpose is buffer recycling: pass it
    /// to [`build_with_index_into_using`](Self::build_with_index_into_using)
    /// to rebuild it in place without reallocating. Every query method
    /// reports a zero-size instance until then.
    pub fn empty() -> Self {
        Self {
            values: Vec::new(),
            c_r_f64: vec![0.0],
            c_t_f64: vec![0.0],
            t_pos: Vec::new(),
            n: 0,
            m: 0,
        }
    }

    /// Moves the backing buffers out (for in-place rebuilds), leaving
    /// `self` empty.
    pub(crate) fn take_buffers(&mut self) -> RecycledBuffers {
        self.n = 0;
        self.m = 0;
        RecycledBuffers {
            values: std::mem::take(&mut self.values),
            c_r_f64: std::mem::take(&mut self.c_r_f64),
            c_t_f64: std::mem::take(&mut self.c_t_f64),
            t_pos: std::mem::take(&mut self.t_pos),
        }
    }

    /// Assembles a base vector from already-built parts (the
    /// [`crate::ref_index`] splice path). The caller guarantees the arrays
    /// obey this struct's invariants.
    pub(crate) fn from_raw_parts(buffers: RecycledBuffers, n: usize, m: usize) -> Self {
        let RecycledBuffers { values, c_r_f64, c_t_f64, t_pos } = buffers;
        debug_assert_eq!(c_r_f64.len(), values.len() + 1);
        debug_assert_eq!(c_t_f64.len(), values.len() + 1);
        debug_assert_eq!(t_pos.len(), m);
        Self { values, c_r_f64, c_t_f64, t_pos, n, m }
    }

    /// Number of distinct values `q = |set(R ∪ T)|`.
    #[inline]
    pub fn q(&self) -> usize {
        self.values.len()
    }

    /// Size of the reference set.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Size of the test set.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The paper's `x_i` for `1 <= i <= q`.
    #[inline]
    pub fn value(&self, i: usize) -> f64 {
        self.values[i - 1]
    }

    /// All distinct values, ascending.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `C_R[i]` for `0 <= i <= q`. The cast from the f64 plane is exact
    /// (counts are integers `< 2^53`).
    #[inline]
    pub fn c_r(&self, i: usize) -> u64 {
        self.c_r_f64[i] as u64
    }

    /// `C_T[i]` for `0 <= i <= q`.
    #[inline]
    pub fn c_t(&self, i: usize) -> u64 {
        self.c_t_f64[i] as u64
    }

    /// `C_R` as an `f64` slice (length `q + 1`, sentinel at index 0): the
    /// plane the Phase-1 probe kernels stream over. Each element equals
    /// `c_r(i) as f64` exactly (counts are `< 2^53`).
    #[inline]
    pub fn c_r_plane(&self) -> &[f64] {
        &self.c_r_f64
    }

    /// `C_T` as an `f64` slice; see [`c_r_plane`](Self::c_r_plane).
    #[inline]
    pub fn c_t_plane(&self) -> &[f64] {
        &self.c_t_f64
    }

    /// Multiplicity of `x_i` in the reference set.
    #[inline]
    pub fn r_mult(&self, i: usize) -> u64 {
        // Exact: both counts are integers < 2^53, so the f64 difference is
        // the exact integer difference.
        (self.c_r_f64[i] - self.c_r_f64[i - 1]) as u64
    }

    /// Multiplicity of `x_i` in the test set.
    #[inline]
    pub fn t_mult(&self, i: usize) -> u64 {
        (self.c_t_f64[i] - self.c_t_f64[i - 1]) as u64
    }

    /// The (1-based) base-vector index of the original test point
    /// `test[orig]`.
    #[inline]
    pub fn test_point_index(&self, orig: usize) -> usize {
        self.t_pos[orig]
    }

    /// The KS statistic `D(R, T)` computed from the cumulative counts in
    /// `O(q)` time.
    pub fn statistic(&self) -> f64 {
        let (n, m) = (self.n as f64, self.m as f64);
        let mut d = 0.0f64;
        for (&cr, &ct) in self.c_r_f64[1..].iter().zip(&self.c_t_f64[1..]) {
            let diff = (cr / n - ct / m).abs();
            if diff > d {
                d = diff;
            }
        }
        d
    }

    /// Runs the KS test between `R` and `T` from the cumulative counts.
    pub fn outcome(&self, cfg: &KsConfig) -> KsOutcome {
        let statistic = self.statistic();
        KsOutcome {
            statistic,
            threshold: cfg.threshold(self.n, self.m),
            rejected: cfg.rejects(statistic, self.n, self.m),
            n: self.n,
            m: self.m,
        }
    }

    /// The KS statistic `D(R, T \ S)` where `S` is described by per-value
    /// removal counts (`removed[i]` = copies of `x_i` removed, `removed[0]`
    /// ignored). `O(q)` time.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `removed` is inconsistent with the test
    /// set's multiplicities or removes all of `T`.
    #[allow(clippy::needless_range_loop)] // three parallel arrays share the index
    pub fn statistic_after_removal(&self, removed: &[u64]) -> f64 {
        debug_assert_eq!(removed.len(), self.q() + 1);
        let h: u64 = removed[1..].iter().sum();
        let remaining = self.m as u64 - h;
        debug_assert!(remaining > 0, "cannot remove the entire test set");
        let (n, m_rem) = (self.n as f64, remaining as f64);
        let mut d = 0.0f64;
        let mut cum_removed = 0u64;
        for i in 1..=self.q() {
            debug_assert!(removed[i] <= self.t_mult(i), "removal exceeds multiplicity");
            cum_removed += removed[i];
            // `(C_T[i] - cum_removed) as f64` on integers < 2^53 equals the
            // f64 subtraction of their exact representations.
            let ft = (self.c_t_f64[i] - cum_removed as f64) / m_rem;
            let diff = (self.c_r_f64[i] / n - ft).abs();
            if diff > d {
                d = diff;
            }
        }
        d
    }

    /// Runs the KS test between `R` and `T \ S` (see
    /// [`statistic_after_removal`](Self::statistic_after_removal)).
    pub fn outcome_after_removal(&self, removed: &[u64], cfg: &KsConfig) -> KsOutcome {
        let h: usize = removed[1..].iter().sum::<u64>() as usize;
        let m_rem = self.m - h;
        let statistic = self.statistic_after_removal(removed);
        KsOutcome {
            statistic,
            threshold: cfg.threshold(self.n, m_rem),
            rejected: cfg.rejects(statistic, self.n, m_rem),
            n: self.n,
            m: m_rem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ks::ks_statistic;

    /// The running example of the paper (Example 3):
    /// `T = {13, 13, 12, 20}`, `R = {14, 14, 14, 14, 20, 20, 20, 20}`.
    pub(crate) fn paper_example() -> (Vec<f64>, Vec<f64>) {
        (vec![14.0, 14.0, 14.0, 14.0, 20.0, 20.0, 20.0, 20.0], vec![13.0, 13.0, 12.0, 20.0])
    }

    #[test]
    fn paper_example_base_vector() {
        let (r, t) = paper_example();
        let b = BaseVector::build(&r, &t).unwrap();
        assert_eq!(b.values(), &[12.0, 13.0, 14.0, 20.0]);
        assert_eq!(b.q(), 4);
        assert_eq!(b.n(), 8);
        assert_eq!(b.m(), 4);
        // C_T = <0, 1, 3, 3, 4>; C_R = <0, 0, 0, 4, 8>.
        assert_eq!((0..=4).map(|i| b.c_t(i)).collect::<Vec<_>>(), vec![0, 1, 3, 3, 4]);
        assert_eq!((0..=4).map(|i| b.c_r(i)).collect::<Vec<_>>(), vec![0, 0, 0, 4, 8]);
    }

    #[test]
    fn test_point_positions() {
        let (r, t) = paper_example();
        let b = BaseVector::build(&r, &t).unwrap();
        // t = [13, 13, 12, 20] -> base indices [2, 2, 1, 4].
        assert_eq!((0..4).map(|i| b.test_point_index(i)).collect::<Vec<_>>(), vec![2, 2, 1, 4]);
    }

    #[test]
    fn multiplicities() {
        let (r, t) = paper_example();
        let b = BaseVector::build(&r, &t).unwrap();
        assert_eq!((1..=4).map(|i| b.t_mult(i)).collect::<Vec<_>>(), vec![1, 2, 0, 1]);
        assert_eq!((1..=4).map(|i| b.r_mult(i)).collect::<Vec<_>>(), vec![0, 0, 4, 4]);
    }

    #[test]
    fn statistic_matches_direct_computation() {
        let (r, t) = paper_example();
        let b = BaseVector::build(&r, &t).unwrap();
        let direct = ks_statistic(&r, &t).unwrap();
        assert!((b.statistic() - direct).abs() < 1e-15);
    }

    #[test]
    fn statistic_after_empty_removal_matches_statistic() {
        let (r, t) = paper_example();
        let b = BaseVector::build(&r, &t).unwrap();
        let removed = vec![0u64; b.q() + 1];
        assert_eq!(b.statistic_after_removal(&removed), b.statistic());
    }

    #[test]
    fn statistic_after_removal_matches_recomputation() {
        let (r, t) = paper_example();
        let b = BaseVector::build(&r, &t).unwrap();
        // Remove S = {13, 13} (base index 2, twice) -> Example 3's subset.
        let mut removed = vec![0u64; b.q() + 1];
        removed[2] = 2;
        let t_after = vec![12.0, 20.0];
        let direct = ks_statistic(&r, &t_after).unwrap();
        assert!((b.statistic_after_removal(&removed) - direct).abs() < 1e-15);
    }

    #[test]
    fn outcome_after_removal_uses_reduced_m() {
        let (r, t) = paper_example();
        let b = BaseVector::build(&r, &t).unwrap();
        let cfg = KsConfig::new(0.3).unwrap();
        let mut removed = vec![0u64; b.q() + 1];
        removed[1] = 1; // remove the 12
        let o = b.outcome_after_removal(&removed, &cfg);
        assert_eq!(o.m, 3);
        assert_eq!(o.n, 8);
    }

    #[test]
    fn sorted_reference_sorts_once() {
        let shared = SortedReference::new(&[20.0, 14.0, 20.0, -0.5]).unwrap();
        assert_eq!(shared.len(), 4);
        assert!(!shared.is_empty());
        assert_eq!(shared.as_sorted(), &[-0.5, 14.0, 20.0, 20.0]);
    }

    #[test]
    fn sorted_reference_rejects_bad_input() {
        assert!(SortedReference::new(&[]).is_err());
        assert!(SortedReference::new(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn build_error_precedence_is_stable() {
        // EmptyTest outranks a non-finite reference, as in the seed.
        assert_eq!(BaseVector::build(&[1.0, f64::NAN], &[]).unwrap_err(), MocheError::EmptyTest);
        assert_eq!(BaseVector::build(&[], &[]).unwrap_err(), MocheError::EmptyReference);
    }

    #[test]
    fn build_rejects_bad_input() {
        assert!(BaseVector::build(&[], &[1.0]).is_err());
        assert!(BaseVector::build(&[1.0], &[]).is_err());
        assert!(BaseVector::build(&[f64::NAN], &[1.0]).is_err());
        assert!(BaseVector::build(&[1.0], &[f64::NEG_INFINITY]).is_err());
    }

    #[test]
    fn all_identical_values_collapse_to_single_entry() {
        let b = BaseVector::build(&[7.0; 5], &[7.0; 3]).unwrap();
        assert_eq!(b.q(), 1);
        assert_eq!(b.c_r(1), 5);
        assert_eq!(b.c_t(1), 3);
        assert_eq!(b.statistic(), 0.0);
    }

    #[test]
    fn negative_and_positive_values_sort_correctly() {
        let b = BaseVector::build(&[-1.5, 0.0, 2.0], &[-3.0, 0.0]).unwrap();
        assert_eq!(b.values(), &[-3.0, -1.5, 0.0, 2.0]);
        assert_eq!(b.test_point_index(0), 1);
        assert_eq!(b.test_point_index(1), 3);
    }

    #[test]
    fn f64_planes_mirror_the_integer_counts() {
        let r: Vec<f64> = (0..100).map(|i| f64::from(i % 13)).collect();
        let t: Vec<f64> = (0..57).map(|i| f64::from(i % 7) * 1.5).collect();
        let b = BaseVector::build(&r, &t).unwrap();
        assert_eq!(b.c_r_plane().len(), b.q() + 1);
        assert_eq!(b.c_t_plane().len(), b.q() + 1);
        for i in 0..=b.q() {
            assert_eq!(b.c_r_plane()[i], b.c_r(i) as f64);
            assert_eq!(b.c_t_plane()[i], b.c_t(i) as f64);
        }
    }

    #[test]
    fn cumulative_counts_are_monotone_and_total() {
        let r: Vec<f64> = (0..100).map(|i| f64::from(i % 13)).collect();
        let t: Vec<f64> = (0..57).map(|i| f64::from(i % 7) * 1.5).collect();
        let b = BaseVector::build(&r, &t).unwrap();
        for i in 1..=b.q() {
            assert!(b.c_r(i) >= b.c_r(i - 1));
            assert!(b.c_t(i) >= b.c_t(i - 1));
        }
        assert_eq!(b.c_r(b.q()), 100);
        assert_eq!(b.c_t(b.q()), 57);
    }
}
