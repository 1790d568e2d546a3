//! The drift monitor's per-series KS state: the last `2w` observations in
//! arrival order, and both windows as sorted vectors that are brought up
//! to date only when a push could cross the rejection threshold.
//!
//! ## Why skipping is exact
//!
//! With `|R| = |T| = w` the statistic is `g / w`, where the *gap*
//! `g = max_x |P(x)|` and `P(x) = #{r <= x} - #{t <= x}`. A steady push
//! moves the oldest reference value out, promotes the oldest test value
//! into the reference, and appends the new value to the test window, so it
//! changes `P(x)` by `-[x >= oldest] + 2·[x >= promoted] - [x >= new]`,
//! which lies in `[-2, 2]`. The decision rejects exactly when
//! `g >= reject_at`, the least rejecting gap ([`reject_at`]). So after a
//! check reads `g < reject_at`, the next `⌊(reject_at - 1 - g) / 2⌋`
//! pushes cannot reject, and they only append to the ring; the push after
//! them checks again. The budget is capped at `w - 1`, so at most `w`
//! values are pending at a check.
//!
//! ## A check
//!
//! With `s` values pending, the ring holds `2w + s` values. Its slices
//! `[0, s)` (left the reference), `[w, w + s)` (promoted from the test
//! window to the reference) and `[2w, 2w + s)` (entered the test window)
//! are copied into a scratch buffer and sorted. Both sorted windows are
//! updated in place in `O(w)` (see `replace_sorted`). Then the `s` oldest
//! values leave the ring, and one merge walk over the two sorted windows
//! reads the new gap.

use moche_core::KsConfig;
use std::collections::VecDeque;

/// What a push decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Fewer than `2w` observations since the last reset.
    Warming,
    /// The windows are full and the KS test passes.
    Passes,
    /// The windows are full and the KS test rejects; [`SortedWindows::gap`]
    /// is exact.
    Rejects,
}

/// The least gap `g` in `0..=w` whose statistic `g / w` the test rejects
/// at `|R| = |T| = w`, or `w + 1` when none does (at `w = 2` and
/// `α = 0.05`, for one). `rejects` is monotone in the statistic, and the
/// statistic in `g`, so a binary search finds it.
pub(crate) fn reject_at(ks_cfg: &KsConfig, w: usize) -> usize {
    let (mut lo, mut hi) = (0, w + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if ks_cfg.rejects(mid as f64 / w as f64, w, w) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Both windows of one series: the arrival-order ring and the lazily
/// checked sorted windows. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct SortedWindows {
    w: usize,
    reject_at: usize,
    /// The last `2w` observations as of the last check (fewer while
    /// warming), then the observations pushed since it. Nothing sized by
    /// `w` is reserved until the ring holds `2w` values.
    ring: VecDeque<f64>,
    /// The reference window's values with `+ 0.0` applied, sorted, exact
    /// as of the last check. Empty until the windows are first full.
    reference: Vec<f64>,
    /// The test window's values, likewise.
    test: Vec<f64>,
    /// The gap read by the last check.
    gap: usize,
    /// Pushes that may still skip the check.
    skip: usize,
}

impl SortedWindows {
    /// Empty windows of size `w` that reject at gap `reject_at`.
    pub(crate) fn new(w: usize, reject_at: usize) -> Self {
        Self {
            w,
            reject_at,
            ring: VecDeque::new(),
            reference: Vec::new(),
            test: Vec::new(),
            gap: 0,
            skip: 0,
        }
    }

    /// Observations held since the last reset, up to `2w`.
    pub(crate) fn len(&self) -> usize {
        self.ring.len().min(2 * self.w)
    }

    /// Whether both windows are full.
    pub(crate) fn is_full(&self) -> bool {
        !self.reference.is_empty()
    }

    /// The gap read by the last check: exact after a push that returned
    /// [`Verdict::Rejects`] and after [`settle`](Self::settle).
    pub(crate) fn gap(&self) -> usize {
        self.gap
    }

    /// Whether the windows are full and the test rejects them. A push that
    /// skipped its check cannot reject, so the last check's decision is the
    /// current one.
    pub(crate) fn rejects(&self) -> bool {
        self.is_full() && self.gap >= self.reject_at
    }

    /// Where the current reference window starts in the ring.
    fn start(&self) -> usize {
        self.ring.len().saturating_sub(2 * self.w)
    }

    /// The reference window, oldest first.
    pub(crate) fn reference(&self) -> impl Iterator<Item = &f64> {
        let start = self.start();
        self.ring.range(start..(start + self.w).min(self.ring.len()))
    }

    /// The test window, oldest first.
    pub(crate) fn test(&self) -> impl Iterator<Item = &f64> {
        let mid = (self.start() + self.w).min(self.ring.len());
        self.ring.range(mid..)
    }

    /// Appends one observation and decides the windows it completes.
    /// `scratch` holds the sorted arrivals of a check.
    pub(crate) fn push(&mut self, value: f64, scratch: &mut Vec<f64>) -> Verdict {
        self.ring.push_back(value);
        if !self.is_full() {
            if self.ring.len() < 2 * self.w {
                return Verdict::Warming;
            }
            self.load();
        } else if self.skip > 0 {
            self.skip -= 1;
            return Verdict::Passes;
        } else {
            self.check(scratch);
        }
        if self.gap >= self.reject_at {
            Verdict::Rejects
        } else {
            Verdict::Passes
        }
    }

    /// Brings the sorted windows up to date and returns the exact gap, or
    /// `None` while warming. `O(w)`.
    pub(crate) fn settle(&mut self, scratch: &mut Vec<f64>) -> Option<usize> {
        if !self.is_full() {
            return None;
        }
        if self.ring.len() > 2 * self.w {
            self.check(scratch);
        }
        Some(self.gap)
    }

    /// Drops both windows, keeping every allocation.
    pub(crate) fn clear(&mut self) {
        self.ring.clear();
        self.reference.clear();
        self.test.clear();
        self.gap = 0;
        self.skip = 0;
    }

    /// Refills cleared windows from a reference and a test window, oldest
    /// first (the test window empty unless the reference is full).
    pub(crate) fn fill(&mut self, reference: &[f64], test: &[f64]) {
        self.ring.extend(reference);
        self.ring.extend(test);
        if self.ring.len() == 2 * self.w {
            self.load();
        }
    }

    /// Sorts the just-completed windows and reads their gap. Runs once per
    /// warm-up, when `2w` values exist: the only place that reserves
    /// storage sized by `w`.
    fn load(&mut self) {
        let w = self.w;
        // The most values a check can find pending: the largest budget,
        // read at gap 0, plus the checking push itself.
        let pending = (self.reject_at.saturating_sub(1) / 2).min(w - 1) + 1;
        self.ring.reserve_exact(pending);
        self.reference.reserve_exact(w);
        self.test.reserve_exact(w);
        self.reference.extend(self.ring.range(..w).map(|&x| x + 0.0));
        self.test.extend(self.ring.range(w..).map(|&x| x + 0.0));
        self.reference.sort_unstable_by(f64::total_cmp);
        self.test.sort_unstable_by(f64::total_cmp);
        self.read_gap();
    }

    /// Moves the pending values into the sorted windows and reads the gap.
    fn check(&mut self, scratch: &mut Vec<f64>) {
        let (w, s) = (self.w, self.ring.len() - 2 * self.w);
        scratch.clear();
        scratch.extend(self.ring.range(..s).map(|&x| x + 0.0));
        scratch.extend(self.ring.range(w..w + s).map(|&x| x + 0.0));
        scratch.extend(self.ring.range(2 * w..).map(|&x| x + 0.0));
        let (departed, rest) = scratch.split_at_mut(s);
        let (promoted, entered) = rest.split_at_mut(s);
        departed.sort_unstable_by(f64::total_cmp);
        promoted.sort_unstable_by(f64::total_cmp);
        entered.sort_unstable_by(f64::total_cmp);
        replace_sorted(&mut self.reference, departed, promoted);
        replace_sorted(&mut self.test, promoted, entered);
        self.ring.drain(..s);
        self.read_gap();
    }

    /// Reads the gap of the (current) sorted windows and sets the budget.
    fn read_gap(&mut self) {
        self.gap = ks_gap(&self.reference, &self.test);
        self.skip = match self.reject_at.checked_sub(self.gap + 1) {
            Some(room) => (room / 2).min(self.w - 1),
            None => 0,
        };
    }

    /// Observations pushed since the last check.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        self.ring.len().saturating_sub(2 * self.w)
    }

    /// Both sorted windows, for tests that compare them with the ring.
    #[cfg(test)]
    pub(crate) fn sorted(&self) -> (&[f64], &[f64]) {
        (&self.reference, &self.test)
    }
}

/// Up to this many pending values a check pairs them (see
/// [`replace_sorted`]).
const PAIRED_UP_TO: usize = 8;

/// Replaces the sorted multiset `del` in the sorted `v`, which holds it,
/// by the sorted `add` of the same size.
///
/// Up to [`PAIRED_UP_TO`] values, the `k`-th smallest leaving value is
/// replaced by the `k`-th smallest arriving one, each pair one block move
/// of the values between their positions. That moves few values when they
/// travel little, as in a stationary stream, but a pair can move up to
/// `w`. More values go in one removal pass and one merge pass from the
/// back, which move at most `2w` together, so a check stays `O(w)`.
fn replace_sorted(v: &mut Vec<f64>, del: &[f64], add: &[f64]) {
    if del.len() <= PAIRED_UP_TO {
        // No later, larger departure sits below where the last pair
        // changed the window.
        let mut lo = 0;
        for (&d, &a) in del.iter().zip(add) {
            lo = replace_one(v, lo, d, a);
        }
    } else {
        remove_sorted(v, del);
        insert_sorted(v, add);
    }
}

/// Replaces one `d` in the sorted `v`, which holds it at or above `lo`, by
/// `a`: the values between the two positions move one slot, in one block.
/// Returns the lower of the two positions.
fn replace_one(v: &mut [f64], lo: usize, d: f64, a: f64) -> usize {
    let from = lo + v[lo..].partition_point(|&x| x < d);
    debug_assert!(v[from] == d, "a departing value is missing from its window");
    if a > d {
        let to = from + v[from..].partition_point(|&x| x <= a);
        v.copy_within(from + 1..to, from);
        v[to - 1] = a;
        from
    } else {
        let to = v[..from].partition_point(|&x| x <= a);
        v.copy_within(to..from, to + 1);
        v[to] = a;
        to
    }
}

/// Removes the sorted multiset `del` from the sorted `v`, which holds it:
/// the runs between removed values move down in blocks.
fn remove_sorted(v: &mut Vec<f64>, del: &[f64]) {
    let Some(&first) = del.first() else { return };
    let mut write = v.partition_point(|&x| x < first);
    let mut read = write;
    for &d in del {
        let at = read + v[read..].partition_point(|&x| x < d);
        debug_assert!(v[at] == d, "a departing value is missing from its window");
        v.copy_within(read..at, write);
        write += at - read;
        read = at + 1;
    }
    let kept = write + (v.len() - read);
    v.copy_within(read.., write);
    v.truncate(kept);
}

/// Merges the sorted `add` into the sorted `v` from the back: each run of
/// old values above an arrival moves up in one block.
fn insert_sorted(v: &mut Vec<f64>, add: &[f64]) {
    let mut end = v.len();
    v.resize(end + add.len(), 0.0);
    for (k, &a) in add.iter().enumerate().rev() {
        let at = v[..end].partition_point(|&x| x <= a);
        v.copy_within(at..end, at + k + 1);
        v[at + k] = a;
        end = at;
    }
}

/// `max_x |#{r <= x} - #{t <= x}|` over two sorted windows of equal size.
///
/// One merge walk that evaluates `|i - j|` after every step. A step
/// advances `i` past a smaller reference value, `j` past a smaller test
/// value, and both past equal values, so inside a tie group `i - j` first
/// stays put and then moves monotonically to its value after the group:
/// every evaluated point lies between two legal evaluation points, and no
/// tie grouping is needed. A walk stops when one window runs out, because
/// the rest moves monotonically to `(w, w)`.
///
/// The walk is split at a tie-group start, the first position of the
/// reference median's value in both windows, and the two independent
/// halves are interleaved so that their loads overlap.
fn ks_gap(r: &[f64], t: &[f64]) -> usize {
    let w = r.len();
    let split = r[w / 2];
    let (i, j) = (r.partition_point(|&x| x < split), t.partition_point(|&x| x < split));
    let (mut low, mut high) = (Lane::new(0, 0, i, j), Lane::new(i, j, w, w));
    loop {
        let steps = low.room().min(high.room());
        if steps == 0 {
            break;
        }
        for _ in 0..steps {
            low.step(r, t);
            high.step(r, t);
        }
    }
    low.finish(r, t);
    high.finish(r, t);
    low.best.max(high.best)
}

/// One stretch of the merge walk, from a legal evaluation point to the
/// start of the next stretch.
struct Lane {
    i: usize,
    j: usize,
    i_end: usize,
    j_end: usize,
    best: usize,
}

impl Lane {
    fn new(i: usize, j: usize, i_end: usize, j_end: usize) -> Self {
        Self { i, j, i_end, j_end, best: i.abs_diff(j) }
    }

    /// Steps the lane can take without running past either end.
    fn room(&self) -> usize {
        (self.i_end - self.i).min(self.j_end - self.j)
    }

    #[inline(always)]
    fn step(&mut self, r: &[f64], t: &[f64]) {
        let (x, y) = (r[self.i], t[self.j]);
        self.i += usize::from(x <= y);
        self.j += usize::from(y <= x);
        self.best = self.best.max(self.i.abs_diff(self.j));
    }

    /// Walks until one window's stretch runs out.
    fn finish(&mut self, r: &[f64], t: &[f64]) {
        loop {
            let steps = self.room();
            if steps == 0 {
                return;
            }
            for _ in 0..steps {
                self.step(r, t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gap by definition: `|R(x) - T(x)|` at every value of either
    /// window, counting ties on both sides.
    fn gap_oracle(r: &[f64], t: &[f64]) -> usize {
        r.iter()
            .chain(t)
            .map(|&x| {
                let below = |s: &[f64]| s.iter().filter(|&&v| v <= x).count();
                below(r).abs_diff(below(t))
            })
            .max()
            .unwrap_or(0)
    }

    fn sorted(values: &[f64]) -> Vec<f64> {
        let mut v: Vec<f64> = values.iter().map(|&x| x + 0.0).collect();
        v.sort_unstable_by(f64::total_cmp);
        v
    }

    #[test]
    fn reject_at_is_the_least_rejecting_gap() {
        for alpha in [0.001, 0.05, 0.2, 0.27] {
            let ks = KsConfig::new(alpha).unwrap();
            for w in 2..=4096usize {
                let least = (0..=w).find(|&g| ks.rejects(g as f64 / w as f64, w, w));
                assert_eq!(reject_at(&ks, w), least.unwrap_or(w + 1), "w = {w}, alpha = {alpha}");
            }
        }
        // No gap rejects two points per window at the usual level.
        assert_eq!(reject_at(&KsConfig::new(0.05).unwrap(), 2), 3);
    }

    #[test]
    fn the_walk_reads_the_gap_on_tie_heavy_windows() {
        // With few levels the split value starts a tie group that both
        // windows share.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |levels: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % levels) as f64 - (levels / 2) as f64
        };
        for w in [1usize, 2, 3, 7, 31, 32, 33, 64, 1000] {
            for levels in [1u64, 2, 5, 40, 1 << 20] {
                let r: Vec<f64> = (0..w).map(|_| next(levels)).collect();
                let t: Vec<f64> =
                    (0..w).map(|_| next(levels) + f64::from(u8::from(w % 3 == 0))).collect();
                let (r, t) = (sorted(&r), sorted(&t));
                assert_eq!(ks_gap(&r, &t), gap_oracle(&r, &t), "w = {w}, levels = {levels}");
            }
        }
    }

    #[test]
    fn signed_zeros_tie_in_the_sorted_windows() {
        let (r, t) = (sorted(&[-0.0, 1.0]), sorted(&[0.0, 1.0]));
        assert_eq!(ks_gap(&r, &t), 0);
    }

    #[test]
    fn replacing_keeps_the_window_a_sorted_multiset() {
        let mut v = sorted(&[1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 5.0, 8.0]);
        for (d, a, expected) in [
            (2.0, 6.0, [1.0, 2.0, 3.0, 5.0, 5.0, 5.0, 6.0, 8.0]),
            (8.0, 0.0, [0.0, 1.0, 2.0, 3.0, 5.0, 5.0, 5.0, 6.0]),
            (5.0, 5.0, [0.0, 1.0, 2.0, 3.0, 5.0, 5.0, 5.0, 6.0]),
            (5.0, 2.0, [0.0, 1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 6.0]),
            (0.0, 9.0, [1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 6.0, 9.0]),
            (6.0, 5.5, [1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 5.5, 9.0]),
        ] {
            replace_one(&mut v, 0, d, a);
            assert_eq!(v, expected, "replacing {d} by {a}");
        }
    }

    #[test]
    fn paired_and_two_pass_replacement_agree_with_a_rebuilt_window() {
        // Both sides of PAIRED_UP_TO, on tie-heavy multisets.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |levels: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % levels) as f64
        };
        for s in [1usize, 2, PAIRED_UP_TO, PAIRED_UP_TO + 1, 40] {
            for levels in [3u64, 50, 1 << 20] {
                let values: Vec<f64> = (0..64).map(|_| next(levels)).collect();
                let add = sorted(&(0..s).map(|_| next(levels)).collect::<Vec<_>>());
                let del = sorted(&values[5..5 + s]);
                let mut v = sorted(&values);
                replace_sorted(&mut v, &del, &add);
                let mut rebuilt: Vec<f64> = values[..5].to_vec();
                rebuilt.extend(&values[5 + s..]);
                rebuilt.extend(&add);
                assert_eq!(v, sorted(&rebuilt), "s = {s}, levels = {levels}");
            }
        }
    }
}
