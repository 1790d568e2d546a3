//! User preference lists over the test set (Section 3.3 of the paper).
//!
//! A preference list `L` is a total order on the points of the test set `T`:
//! a permutation of the original indices `0..m`, most preferred first. MOCHE
//! returns the explanation with the smallest lexicographical order under
//! `L`, which is the explanation "most consistent with the user's domain
//! knowledge".

use crate::error::{MocheError, PreferenceDefect};
use crate::radix::{key, Radix, MAX_POSITIONS};

/// A validated total order over the test points: `order[rank] = index`,
/// with rank 0 the most preferred point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreferenceList {
    order: Vec<usize>,
}

impl PreferenceList {
    /// Wraps an explicit order. `order` must be a permutation of `0..m`
    /// where `m = order.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::InvalidPreference`] on duplicates or
    /// out-of-range indices.
    pub fn new(order: Vec<usize>) -> Result<Self, MocheError> {
        let m = order.len();
        let mut seen = vec![false; m];
        for &idx in &order {
            if idx >= m {
                return Err(MocheError::InvalidPreference {
                    reason: PreferenceDefect::OutOfRange(idx),
                });
            }
            if seen[idx] {
                return Err(MocheError::InvalidPreference {
                    reason: PreferenceDefect::DuplicateIndex(idx),
                });
            }
            seen[idx] = true;
        }
        Ok(Self { order })
    }

    /// The identity order: point `i` has rank `i`.
    pub fn identity(m: usize) -> Self {
        Self { order: (0..m).collect() }
    }

    /// Rewrites this list into the identity order over `m` points, reusing
    /// the existing buffer. The recycled counterpart of
    /// [`identity`](Self::identity): a warm list re-fills with zero heap
    /// allocations once its buffer has grown to the working size.
    pub fn fill_identity(&mut self, m: usize) {
        self.order.clear();
        self.order.extend(0..m);
    }

    /// Rewrites this list from *descending* scores, reusing the existing
    /// buffer — the recycled counterpart (and shared implementation) of
    /// [`from_scores_desc`](Self::from_scores_desc): zero heap allocations
    /// when warm. This is the shape streaming `score` callbacks use to
    /// keep scored streams on the zero-allocation path (see
    /// [`ScoreIntoFn`](crate::batch::ScoreIntoFn)).
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::InvalidPreference`] if any score is NaN; the
    /// list is left unchanged.
    pub fn fill_from_scores_desc(&mut self, scores: &[f64]) -> Result<(), MocheError> {
        // The complemented key reverses `total_cmp` order.
        self.fill_ranked(scores, |s| !key(s))
    }

    /// Rewrites this list from *ascending* scores; the recycled counterpart
    /// of [`from_scores_asc`](Self::from_scores_asc). See
    /// [`fill_from_scores_desc`](Self::fill_from_scores_desc).
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::InvalidPreference`] if any score is NaN; the
    /// list is left unchanged.
    pub fn fill_from_scores_asc(&mut self, scores: &[f64]) -> Result<(), MocheError> {
        self.fill_ranked(scores, key)
    }

    /// Rewrites this list as the indices of `scores` in ascending
    /// `rank_key` order, ties by ascending index: one stable radix sort
    /// from the identity order, inside the `m` slots of the order buffer.
    fn fill_ranked(
        &mut self,
        scores: &[f64],
        rank_key: impl Fn(f64) -> u64,
    ) -> Result<(), MocheError> {
        if let Some(pos) = scores.iter().position(|s| s.is_nan()) {
            return Err(MocheError::InvalidPreference {
                reason: PreferenceDefect::NonFiniteScore(pos),
            });
        }
        let m = scores.len();
        self.order.clear();
        if m > MAX_POSITIONS {
            // More points than half a `usize` can number (2^32 - 1 on
            // 64-bit targets): the same order by comparison sort.
            self.order.extend(0..m);
            self.order.sort_unstable_by_key(|&i| (rank_key(scores[i]), i));
            return Ok(());
        }
        self.order.resize(m, 0);
        let radix = Radix::new(scores.iter().map(|&s| rank_key(s)));
        radix.sort_positions(&mut self.order, |i| rank_key(scores[i]));
        Ok(())
    }

    /// The reverse of the identity order.
    pub fn reversed(m: usize) -> Self {
        Self { order: (0..m).rev().collect() }
    }

    /// Ranks points by *descending* score (highest score = most preferred),
    /// breaking ties by ascending original index (a deterministic stand-in
    /// for the paper's "sorted arbitrarily").
    ///
    /// This is how the paper derives preference lists from outlier scores
    /// (Spectral Residual) or from attribute orderings (health-authority
    /// population, age group).
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::InvalidPreference`] if any score is NaN.
    pub fn from_scores_desc(scores: &[f64]) -> Result<Self, MocheError> {
        let mut list = Self { order: Vec::new() };
        list.fill_from_scores_desc(scores)?;
        Ok(list)
    }

    /// Ranks points by *ascending* score (lowest score = most preferred).
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::InvalidPreference`] if any score is NaN.
    pub fn from_scores_asc(scores: &[f64]) -> Result<Self, MocheError> {
        let mut list = Self { order: Vec::new() };
        list.fill_from_scores_asc(scores)?;
        Ok(list)
    }

    /// A uniformly random order drawn with a small embedded SplitMix64-based
    /// Fisher-Yates shuffle. Deterministic for a given `(m, seed)` pair, so
    /// experiments remain reproducible without pulling an RNG dependency
    /// into the core crate.
    pub fn random(m: usize, seed: u64) -> Self {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            // SplitMix64 (public domain, Steele et al.).
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut order: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        Self { order }
    }

    /// Number of points ordered by this list.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The underlying order: `as_order()[rank] = original index`.
    #[inline]
    pub fn as_order(&self) -> &[usize] {
        &self.order
    }

    /// The rank of each original index: `ranks()[index] = rank`.
    pub fn ranks(&self) -> Vec<usize> {
        let mut ranks = Vec::new();
        self.ranks_into(&mut ranks);
        ranks
    }

    /// Fills `out` with the rank of each original index (`out[index] =
    /// rank`), reusing its buffer — the recycled counterpart of
    /// [`ranks`](Self::ranks). A warm buffer of the working size is
    /// rewritten with zero heap allocations.
    pub fn ranks_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.resize(self.order.len(), 0);
        for (rank, &idx) in self.order.iter().enumerate() {
            out[idx] = rank;
        }
    }

    /// Checks that this list orders exactly `expected` points — the shared
    /// boundary validation of every explain path (the 1-D engine, the
    /// brute-force oracle, and the 2-D explainers in `moche-multidim`).
    ///
    /// # Errors
    ///
    /// Returns [`MocheError::PreferenceLengthMismatch`] when the lengths
    /// differ.
    pub fn check_length(&self, expected: usize) -> Result<(), MocheError> {
        if self.len() != expected {
            return Err(MocheError::PreferenceLengthMismatch { expected, actual: self.len() });
        }
        Ok(())
    }

    /// Compares two explanations (as sets of original indices) in the
    /// lexicographical order induced by this list (Definition 2). Smaller
    /// means more comprehensible. Sets of different sizes are compared by
    /// the prefix rule of the paper's footnote (a proper prefix precedes).
    pub fn lex_cmp(&self, a: &[usize], b: &[usize]) -> std::cmp::Ordering {
        let ranks = self.ranks();
        let mut ra: Vec<usize> = a.iter().map(|&i| ranks[i]).collect();
        let mut rb: Vec<usize> = b.iter().map(|&i| ranks[i]).collect();
        ra.sort_unstable();
        rb.sort_unstable();
        ra.cmp(&rb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn validates_permutations() {
        assert!(PreferenceList::new(vec![2, 0, 1]).is_ok());
        assert!(matches!(
            PreferenceList::new(vec![0, 0, 1]),
            Err(MocheError::InvalidPreference { reason: PreferenceDefect::DuplicateIndex(0) })
        ));
        assert!(matches!(
            PreferenceList::new(vec![0, 3]),
            Err(MocheError::InvalidPreference { reason: PreferenceDefect::OutOfRange(3) })
        ));
        assert!(PreferenceList::new(vec![]).is_ok());
    }

    #[test]
    fn identity_and_reversed() {
        assert_eq!(PreferenceList::identity(3).as_order(), &[0, 1, 2]);
        assert_eq!(PreferenceList::reversed(3).as_order(), &[2, 1, 0]);
    }

    #[test]
    fn scores_desc_orders_highest_first() {
        let l = PreferenceList::from_scores_desc(&[0.5, 2.0, 1.0]).unwrap();
        assert_eq!(l.as_order(), &[1, 2, 0]);
    }

    #[test]
    fn scores_asc_orders_lowest_first() {
        let l = PreferenceList::from_scores_asc(&[0.5, 2.0, 1.0]).unwrap();
        assert_eq!(l.as_order(), &[0, 2, 1]);
    }

    #[test]
    fn score_ties_break_by_index() {
        let l = PreferenceList::from_scores_desc(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(l.as_order(), &[0, 1, 2]);
        let l = PreferenceList::from_scores_asc(&[1.0, 1.0]).unwrap();
        assert_eq!(l.as_order(), &[0, 1]);
    }

    #[test]
    fn nan_scores_rejected() {
        assert!(PreferenceList::from_scores_desc(&[1.0, f64::NAN]).is_err());
        assert!(PreferenceList::from_scores_asc(&[f64::NAN]).is_err());
    }

    #[test]
    fn fill_variants_match_allocating_constructors() {
        let mut recycled = PreferenceList::identity(0);
        recycled.fill_identity(5);
        assert_eq!(recycled, PreferenceList::identity(5));
        // Ties, negatives, infinities and signed zeros: the unstable sort
        // with the index tie-break must reproduce the stable sort exactly.
        let scores = [1.0, -3.5, 1.0, f64::INFINITY, 0.0, -0.0, 1.0, f64::NEG_INFINITY];
        recycled.fill_from_scores_desc(&scores).unwrap();
        assert_eq!(recycled, PreferenceList::from_scores_desc(&scores).unwrap());
        recycled.fill_from_scores_asc(&scores).unwrap();
        assert_eq!(recycled, PreferenceList::from_scores_asc(&scores).unwrap());
        // NaN rejection leaves the previous contents untouched.
        let before = recycled.clone();
        assert!(recycled.fill_from_scores_desc(&[1.0, f64::NAN]).is_err());
        assert!(recycled.fill_from_scores_asc(&[f64::NAN]).is_err());
        assert_eq!(recycled, before);
    }

    #[test]
    fn fill_reuses_the_buffer() {
        let mut recycled = PreferenceList::identity(64);
        let cap = recycled.order.capacity();
        for round in 0..4u64 {
            let scores: Vec<f64> =
                (0..64).map(|i| f64::from((i * 7 + round as u32) % 13)).collect();
            recycled.fill_from_scores_desc(&scores).unwrap();
            recycled.fill_identity(32);
            recycled.fill_from_scores_asc(&scores[..40]).unwrap();
        }
        assert_eq!(recycled.order.capacity(), cap, "warm fills must not reallocate");
    }

    #[test]
    fn random_is_deterministic_permutation() {
        let a = PreferenceList::random(100, 7);
        let b = PreferenceList::random(100, 7);
        let c = PreferenceList::random(100, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Must be a permutation.
        let mut sorted = a.as_order().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ranks_invert_order() {
        let l = PreferenceList::new(vec![2, 0, 1]).unwrap();
        assert_eq!(l.ranks(), vec![1, 2, 0]);
    }

    #[test]
    fn ranks_into_matches_ranks_and_reuses_the_buffer() {
        let l = PreferenceList::new(vec![2, 0, 1]).unwrap();
        let mut out = vec![9usize; 64];
        let cap = out.capacity();
        l.ranks_into(&mut out);
        assert_eq!(out, l.ranks());
        assert_eq!(out.capacity(), cap, "warm fills must not reallocate");
    }

    #[test]
    fn check_length_reports_both_lengths() {
        let l = PreferenceList::identity(3);
        assert!(l.check_length(3).is_ok());
        match l.check_length(5) {
            Err(MocheError::PreferenceLengthMismatch { expected: 5, actual: 3 }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lex_cmp_follows_definition_2() {
        // L = [2, 0, 1]: point 2 is most preferred.
        let l = PreferenceList::new(vec![2, 0, 1]).unwrap();
        // {2} precedes {0}: rank 0 < rank 1.
        assert_eq!(l.lex_cmp(&[2], &[0]), Ordering::Less);
        // {2, 1} vs {2, 0}: first elements tie, then rank 2 vs rank 1.
        assert_eq!(l.lex_cmp(&[2, 1], &[2, 0]), Ordering::Greater);
        // Prefix precedes longer sequence.
        assert_eq!(l.lex_cmp(&[2], &[2, 0]), Ordering::Less);
        // Equal sets are equal.
        assert_eq!(l.lex_cmp(&[0, 1], &[1, 0]), Ordering::Equal);
    }

    #[test]
    fn random_small_sizes() {
        assert_eq!(PreferenceList::random(0, 1).len(), 0);
        assert_eq!(PreferenceList::random(1, 1).as_order(), &[0]);
    }
}
