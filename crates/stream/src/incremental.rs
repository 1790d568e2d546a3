//! The incremental two-sample Kolmogorov-Smirnov test.
//!
//! Maintains the KS statistic between a reference multiset `R` and a test
//! multiset `T` under point insertions and removals on *both* sides, in
//! `O(log N)` expected time per update (each window slide is a handful of
//! updates instead of a full `O(N log N)` recomputation). The drift
//! monitor, whose windows always have equal size, keeps the same treap
//! directly with fixed `±1` weights (see [`crate::monitor`]).
//!
//! ### How
//!
//! Give each reference observation weight `+m` and each test observation
//! weight `-n` in a single ordered structure (a [`WeightedTreap`]). The
//! prefix sum at sorted position `x` is then
//!
//! ```text
//! m·|{r <= x}| - n·|{t <= x}| = n·m·(F_R(x) - F_T(x))
//! ```
//!
//! so `D = max_x |prefix(x)| / (n·m)`, which the treap's aggregates expose
//! at the root. Because the weights bake in the *current* sizes `n` and
//! `m`, the structure is built for a fixed `(n, m)` pair — exactly the
//! paired fixed-width sliding windows of the paper's Section 6.1.1. Updates
//! that keep the sizes constant (slide = one removal + one insertion per
//! side) are `O(log N)`; changing the sizes triggers a transparent
//! `O(N log N)` rebuild, amortized away in steady state.

use crate::treap::WeightedTreap;
use moche_core::{KsConfig, KsOutcome, MocheError};

/// Incrementally maintained two-sample KS test.
///
/// # Examples
///
/// ```
/// use moche_stream::IncrementalKs;
///
/// let mut iks = IncrementalKs::new();
/// for i in 0..50 {
///     iks.insert_reference(f64::from(i % 10));
/// }
/// let mut handles: Vec<_> =
///     (0..50).map(|i| iks.insert_test(f64::from(i % 10))).collect();
/// assert_eq!(iks.statistic().unwrap(), 0.0); // identical distributions
///
/// // Slide one test observation to an outlying value: O(log N).
/// handles[0] = iks.slide_test(handles[0], 99.0).unwrap();
/// assert!(iks.statistic().unwrap() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalKs {
    treap: WeightedTreap,
    /// Live reference elements as (value, uid).
    reference: Vec<(f64, u64)>,
    /// Live test elements as (value, uid).
    test: Vec<(f64, u64)>,
    next_uid: u64,
    /// The (n, m) the current weights encode.
    built_n: usize,
    built_m: usize,
    dirty: bool,
}

/// A handle to an observation inside the incremental structure, returned by
/// the insert methods and accepted by the remove methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObsId(u64);

impl Default for IncrementalKs {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalKs {
    /// Creates an empty structure.
    pub fn new() -> Self {
        Self {
            treap: WeightedTreap::new(0x1C5B),
            reference: Vec::new(),
            test: Vec::new(),
            next_uid: 0,
            built_n: 0,
            built_m: 0,
            dirty: true,
        }
    }

    /// Number of reference observations.
    pub fn n(&self) -> usize {
        self.reference.len()
    }

    /// Number of test observations.
    pub fn m(&self) -> usize {
        self.test.len()
    }

    /// Inserts a reference observation. Changing `n` invalidates the baked
    /// weights, so the next [`statistic`](Self::statistic) call rebuilds;
    /// use [`slide_reference`](Self::slide_reference) for the `O(log N)`
    /// constant-size path.
    ///
    /// # Panics
    ///
    /// Panics on non-finite values.
    pub fn insert_reference(&mut self, value: f64) -> ObsId {
        assert!(value.is_finite(), "observations must be finite");
        let uid = self.next_uid;
        self.next_uid += 1;
        self.reference.push((value, uid));
        self.dirty = true;
        ObsId(uid)
    }

    /// Inserts a test observation (see [`insert_reference`](Self::insert_reference)
    /// about rebuilds).
    ///
    /// # Panics
    ///
    /// Panics on non-finite values.
    pub fn insert_test(&mut self, value: f64) -> ObsId {
        assert!(value.is_finite(), "observations must be finite");
        let uid = self.next_uid;
        self.next_uid += 1;
        self.test.push((value, uid));
        self.dirty = true;
        ObsId(uid)
    }

    /// Removes a reference observation by handle. Returns `false` if the
    /// handle is unknown (already removed or from the other side).
    pub fn remove_reference(&mut self, id: ObsId) -> bool {
        let Some(pos) = self.reference.iter().position(|&(_, uid)| uid == id.0) else {
            return false;
        };
        self.reference.swap_remove(pos);
        self.dirty = true;
        true
    }

    /// Removes a test observation by handle.
    pub fn remove_test(&mut self, id: ObsId) -> bool {
        let Some(pos) = self.test.iter().position(|&(_, uid)| uid == id.0) else {
            return false;
        };
        self.test.swap_remove(pos);
        self.dirty = true;
        true
    }

    /// Replaces one test observation with another **keeping `m` constant**
    /// — the steady-state sliding operation; `O(log N)` with no rebuild.
    ///
    /// Returns the new handle, or an error-like `None` if the old handle is
    /// unknown.
    pub fn slide_test(&mut self, old: ObsId, new_value: f64) -> Option<ObsId> {
        assert!(new_value.is_finite(), "observations must be finite");
        let pos = self.test.iter().position(|&(_, uid)| uid == old.0)?;
        let (old_value, _) = self.test[pos];
        let uid = self.next_uid;
        self.next_uid += 1;
        self.test[pos] = (new_value, uid);
        if !self.dirty {
            let n = self.built_n as i32; // statistic() checked n·m fits
            self.treap.update(old_value, n, -1); // undo the old -n element
            self.treap.update(new_value, -n, 1);
        }
        Some(ObsId(uid))
    }

    /// Replaces one reference observation with another keeping `n`
    /// constant; `O(log N)`.
    pub fn slide_reference(&mut self, old: ObsId, new_value: f64) -> Option<ObsId> {
        assert!(new_value.is_finite(), "observations must be finite");
        let pos = self.reference.iter().position(|&(_, uid)| uid == old.0)?;
        let (old_value, _) = self.reference[pos];
        let uid = self.next_uid;
        self.next_uid += 1;
        self.reference[pos] = (new_value, uid);
        if !self.dirty {
            let m = self.built_m as i32; // statistic() checked n·m fits
            self.treap.update(old_value, -m, -1); // undo the old +m element
            self.treap.update(new_value, m, 1);
        }
        Some(ObsId(uid))
    }

    /// Reloads the treap for the current sizes; `statistic` checked that
    /// `n·m` fits `i32`.
    fn rebuild(&mut self) {
        let n = self.reference.len() as i32;
        let m = self.test.len() as i32;
        self.treap = WeightedTreap::new(0x1C5B ^ self.next_uid);
        for &(value, _) in &self.reference {
            self.treap.update(value, m, 1);
        }
        for &(value, _) in &self.test {
            self.treap.update(value, -n, 1);
        }
        self.built_n = self.reference.len();
        self.built_m = self.test.len();
        self.dirty = false;
    }

    /// The current KS statistic `D(R, T)`. Rebuilds lazily if sizes changed
    /// since the last evaluation.
    ///
    /// # Errors
    ///
    /// Returns an error if either side is empty, and
    /// [`MocheError::SamplesTooLarge`] if `n·m` exceeds `i32::MAX` (the
    /// treap's exact prefix sums reach `n·m`).
    pub fn statistic(&mut self) -> Result<f64, MocheError> {
        let (n, m) = (self.reference.len(), self.test.len());
        if n == 0 {
            return Err(MocheError::EmptyReference);
        }
        if m == 0 {
            return Err(MocheError::EmptyTest);
        }
        if n.checked_mul(m).is_none_or(|nm| i32::try_from(nm).is_err()) {
            return Err(MocheError::SamplesTooLarge { n, m });
        }
        if self.dirty || self.built_n != self.reference.len() || self.built_m != self.test.len() {
            self.rebuild();
        }
        let nm = (self.built_n as f64) * (self.built_m as f64);
        Ok(self.treap.max_abs_prefix() as f64 / nm)
    }

    /// Runs the full KS decision at the configured significance level.
    ///
    /// # Errors
    ///
    /// As for [`statistic`](Self::statistic).
    pub fn outcome(&mut self, cfg: &KsConfig) -> Result<KsOutcome, MocheError> {
        let statistic = self.statistic()?;
        let (n, m) = (self.n(), self.m());
        Ok(KsOutcome {
            statistic,
            threshold: cfg.threshold(n, m),
            rejected: cfg.rejects(statistic, n, m),
            n,
            m,
        })
    }

    /// Current reference values (unordered).
    pub fn reference_values(&self) -> Vec<f64> {
        self.reference.iter().map(|&(v, _)| v).collect()
    }

    /// Current test values (unordered).
    pub fn test_values(&self) -> Vec<f64> {
        self.test.iter().map(|&(v, _)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moche_core::ks_statistic;

    #[test]
    fn matches_batch_statistic_after_bulk_load() {
        let r: Vec<f64> = (0..60).map(|i| f64::from(i % 10)).collect();
        let t: Vec<f64> = (0..40).map(|i| f64::from(i % 7) + 2.0).collect();
        let mut iks = IncrementalKs::new();
        for &v in &r {
            iks.insert_reference(v);
        }
        for &v in &t {
            iks.insert_test(v);
        }
        let inc = iks.statistic().unwrap();
        let batch = ks_statistic(&r, &t).unwrap();
        assert!((inc - batch).abs() < 1e-12, "incremental {inc} vs batch {batch}");
    }

    #[test]
    fn slide_keeps_statistic_exact() {
        // Slide a test window across a series and compare against batch
        // recomputation at every step.
        let series: Vec<f64> = (0..200).map(|i| ((i * 29) % 23) as f64 * 0.5).collect();
        let w = 40;
        let mut iks = IncrementalKs::new();
        let mut ref_ids: Vec<ObsId> =
            series[..w].iter().map(|&v| iks.insert_reference(v)).collect();
        let mut test_ids: Vec<ObsId> =
            series[w..2 * w].iter().map(|&v| iks.insert_test(v)).collect();
        // Prime the structure.
        let _ = iks.statistic().unwrap();

        for step in 0..80 {
            // Slide by one: the oldest reference leaves, the oldest test
            // point becomes reference, the next series point becomes test.
            let leaving_ref = ref_ids.remove(0);
            let promoted = test_ids.remove(0);
            let promoted_value = series[w + step];
            assert!(iks.remove_test(promoted));
            // n and m each momentarily change; re-adding restores them.
            assert!(iks.remove_reference(leaving_ref));
            ref_ids.push(iks.insert_reference(promoted_value));
            test_ids.push(iks.insert_test(series[2 * w + step]));

            let inc = iks.statistic().unwrap();
            let batch = ks_statistic(
                &series[step + 1..step + 1 + w],
                &series[w + step + 1..w + step + 1 + 2 * w - w],
            )
            .unwrap();
            assert!((inc - batch).abs() < 1e-12, "step {step}: {inc} vs {batch}");
        }
    }

    #[test]
    fn slide_test_is_constant_size_fast_path() {
        let r: Vec<f64> = (0..50).map(|i| f64::from(i % 10)).collect();
        let t0: Vec<f64> = (0..50).map(|i| f64::from(i % 10)).collect();
        let mut iks = IncrementalKs::new();
        for &v in &r {
            iks.insert_reference(v);
        }
        let mut ids: Vec<ObsId> = t0.iter().map(|&v| iks.insert_test(v)).collect();
        let _ = iks.statistic().unwrap();

        // Replace every test point by a shifted value one at a time; after
        // each replacement the statistic must equal the batch value.
        let mut current = t0.clone();
        for i in 0..50 {
            let new_value = current[i] + 5.0;
            ids[i] = iks.slide_test(ids[i], new_value).unwrap();
            current[i] = new_value;
            let inc = iks.statistic().unwrap();
            let batch = ks_statistic(&r, &current).unwrap();
            assert!((inc - batch).abs() < 1e-12, "i = {i}");
        }
    }

    #[test]
    fn slide_reference_fast_path() {
        let mut iks = IncrementalKs::new();
        let ids: Vec<ObsId> = (0..30).map(|i| iks.insert_reference(f64::from(i))).collect();
        for i in 0..30 {
            iks.insert_test(f64::from(i) + 3.0);
        }
        let _ = iks.statistic().unwrap();
        let new_id = iks.slide_reference(ids[0], 100.0).unwrap();
        let inc = iks.statistic().unwrap();
        let mut r: Vec<f64> = (1..30).map(f64::from).collect();
        r.push(100.0);
        let t: Vec<f64> = (0..30).map(|i| f64::from(i) + 3.0).collect();
        let batch = ks_statistic(&r, &t).unwrap();
        assert!((inc - batch).abs() < 1e-12);
        assert!(iks.remove_reference(new_id));
    }

    #[test]
    fn outcome_matches_config_decision() {
        let cfg = KsConfig::new(0.05).unwrap();
        let mut iks = IncrementalKs::new();
        for i in 0..100 {
            iks.insert_reference(f64::from(i % 10));
            iks.insert_test(f64::from(i % 10) + 6.0);
        }
        let o = iks.outcome(&cfg).unwrap();
        assert!(o.rejected, "disjoint-ish samples must fail");
        assert_eq!(o.n, 100);
        assert_eq!(o.m, 100);
    }

    #[test]
    fn empty_sides_error() {
        let mut iks = IncrementalKs::new();
        assert!(matches!(iks.statistic(), Err(MocheError::EmptyReference)));
        iks.insert_reference(1.0);
        assert!(matches!(iks.statistic(), Err(MocheError::EmptyTest)));
    }

    #[test]
    fn samples_whose_product_overflows_i32_error() {
        // 50,000 · 50,000 = 2.5e9 > i32::MAX: the `+m`/`-n` weights could
        // not be summed exactly, so both readers refuse with a typed error.
        let mut iks = IncrementalKs::new();
        for i in 0..50_000 {
            iks.insert_reference(f64::from(i));
            iks.insert_test(f64::from(i));
        }
        let too_large = MocheError::SamplesTooLarge { n: 50_000, m: 50_000 };
        assert_eq!(iks.statistic(), Err(too_large.clone()));
        let cfg = KsConfig::new(0.05).unwrap();
        assert!(matches!(iks.outcome(&cfg), Err(e) if e == too_large));
        // 40,000 · 50,000 fits again.
        iks.reference.truncate(40_000);
        assert_eq!(iks.statistic(), Ok(0.2));
    }

    #[test]
    fn unknown_handles_are_rejected() {
        let mut iks = IncrementalKs::new();
        let r = iks.insert_reference(1.0);
        let t = iks.insert_test(2.0);
        assert!(!iks.remove_reference(t), "test handle on reference side");
        assert!(!iks.remove_test(r), "reference handle on test side");
        assert!(iks.remove_reference(r));
        assert!(iks.remove_test(t));
    }

    #[test]
    fn duplicate_values_are_fine() {
        let mut iks = IncrementalKs::new();
        for _ in 0..20 {
            iks.insert_reference(5.0);
            iks.insert_test(5.0);
        }
        assert_eq!(iks.statistic().unwrap(), 0.0);
    }
}
