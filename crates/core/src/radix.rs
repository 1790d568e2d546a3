//! A stable least-significant-digit radix sort in `f64::total_cmp` order:
//! the one sort behind the explain path (the window side of the base-vector
//! splice, the score ranking of a preference list, and the reference sorts
//! of [`crate::SortedReference`] and [`crate::ReferenceIndex`]).
//!
//! [`key`] maps an `f64` to a `u64` whose unsigned order *is*
//! `f64::total_cmp` order, so sorting by key sorts by `total_cmp`, signed
//! zeros included (`-0.0` before `0.0`). Eight 8-bit digit passes sort any
//! key set in `O(8 m)`; a pass whose digit every key shares is a no-op and
//! is skipped, so an all-equal window costs one histogram pass. Each pass
//! scatters stably, so elements with equal keys keep their input order.
//!
//! The sort never allocates. [`Radix::sort`] ping-pongs between two
//! caller-owned buffers; callers choose where the input starts from
//! [`Radix::ends_in_back`], so the output lands in the buffer they want.
//! [`Radix::sort_positions`] ranks positions inside one buffer, between
//! the two halves of its slots.

/// Number of 8-bit digits in a `u64` key.
const DIGITS: usize = 8;

/// Width in bits of half a `usize`: [`Radix::sort_positions`] keeps one
/// position in each half of a slot.
const HALF: u32 = usize::BITS / 2;

/// The largest position count [`Radix::sort_positions`] can sort: every
/// position must fit in half a `usize` (2^32 - 1 on 64-bit targets).
pub(crate) const MAX_POSITIONS: usize = usize::MAX >> HALF;

/// The `f64::total_cmp` order as an unsigned key: negative values have all
/// bits flipped (so larger magnitudes sort first), non-negative values only
/// the sign bit (so they sort above every negative value).
#[inline]
pub(crate) fn key(v: f64) -> u64 {
    let bits = v.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | (1 << 63))
}

#[inline]
fn digit(key: u64, d: usize) -> usize {
    ((key >> (8 * d)) & 0xFF) as usize
}

/// The digit histograms of one key set, and which of its passes must run.
pub(crate) struct Radix {
    counts: [[usize; 256]; DIGITS],
    /// Bit `d` is set when digit `d` differs between some keys.
    live: u8,
}

impl Radix {
    /// Histograms every digit of `keys` in one pass.
    pub(crate) fn new(keys: impl Iterator<Item = u64>) -> Self {
        let mut counts = [[0usize; 256]; DIGITS];
        let mut len = 0usize;
        for k in keys {
            for (d, count) in counts.iter_mut().enumerate() {
                count[digit(k, d)] += 1;
            }
            len += 1;
        }
        let mut live = 0u8;
        for (d, count) in counts.iter().enumerate() {
            if len > 0 && !count.contains(&len) {
                live |= 1 << d;
            }
        }
        Self { counts, live }
    }

    /// How many scatter passes [`sort`](Self::sort) runs.
    fn passes(&self) -> u32 {
        self.live.count_ones()
    }

    /// The digits whose pass must run, least significant first.
    fn live_digits(&self) -> impl Iterator<Item = usize> + '_ {
        (0..DIGITS).filter(|&d| self.live & (1 << d) != 0)
    }

    /// Where each bucket of digit `d` starts in the pass's output.
    fn offsets(&self, d: usize) -> [usize; 256] {
        let mut offsets = [0usize; 256];
        let mut sum = 0usize;
        for (offset, &count) in offsets.iter_mut().zip(&self.counts[d]) {
            *offset = sum;
            sum += count;
        }
        offsets
    }

    /// Whether [`sort`](Self::sort) leaves its result in `back` (an odd
    /// number of passes) rather than in `front`. Callers that need the
    /// result in a given buffer start the input in the other one when this
    /// holds.
    pub(crate) fn ends_in_back(&self) -> bool {
        self.passes() & 1 == 1
    }

    /// Sorts the elements in `front` by `key`, stably, running the
    /// non-trivial passes back and forth between `front` and `back` (equal
    /// lengths, the histogrammed key set in `front`). The result is in
    /// `back` if [`ends_in_back`](Self::ends_in_back) and in `front`
    /// otherwise; the other buffer holds garbage.
    pub(crate) fn sort<T: Copy>(&self, front: &mut [T], back: &mut [T], key: impl Fn(T) -> u64) {
        debug_assert_eq!(front.len(), back.len());
        let (mut src, mut dst) = (front, back);
        for d in self.live_digits() {
            let mut offsets = self.offsets(d);
            for &x in src.iter() {
                let b = digit(key(x), d);
                dst[offsets[b]] = x;
                offsets[b] += 1;
            }
            std::mem::swap(&mut src, &mut dst);
        }
    }

    /// Fills `slots` with the positions `0..slots.len()` sorted by
    /// `key(position)`, stably, using no memory beyond `slots`: the low and
    /// high halves of every slot are the two buffers the passes alternate
    /// between, so ranking `m` points costs the `m` output slots alone.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is longer than [`MAX_POSITIONS`].
    pub(crate) fn sort_positions(&self, slots: &mut [usize], key: impl Fn(usize) -> u64) {
        assert!(slots.len() <= MAX_POSITIONS, "positions must fit in half a usize");
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = i;
        }
        let mut src_shift = 0;
        for d in self.live_digits() {
            let mut offsets = self.offsets(d);
            let dst_shift = HALF - src_shift;
            let keep = !(MAX_POSITIONS << dst_shift);
            for i in 0..slots.len() {
                let x = (slots[i] >> src_shift) & MAX_POSITIONS;
                let b = digit(key(x), d);
                let to = offsets[b];
                slots[to] = (slots[to] & keep) | (x << dst_shift);
                offsets[b] += 1;
            }
            src_shift = dst_shift;
        }
        for slot in slots {
            *slot = (*slot >> src_shift) & MAX_POSITIONS;
        }
    }
}

/// Sorts `values` ascending in `f64::total_cmp` order, using `scratch`
/// (overwritten, resized to `values.len()`) as the second buffer. Warm
/// scratch of the working size makes this allocation-free.
pub(crate) fn sort_f64(values: &mut [f64], scratch: &mut Vec<f64>) {
    let radix = Radix::new(values.iter().map(|&v| key(v)));
    scratch.clear();
    if radix.ends_in_back() {
        // Start in the scratch so the odd last pass lands in `values`.
        scratch.extend_from_slice(values);
        radix.sort(scratch, values, key);
    } else {
        scratch.resize(values.len(), 0.0);
        radix.sort(values, scratch, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn awkward() -> Vec<f64> {
        vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            f64::from_bits(1.0f64.to_bits() + 1),
            f64::from_bits(1.0f64.to_bits() - 1),
            -1.0,
            1.0,
            -0.0,
        ]
    }

    #[test]
    fn key_order_is_total_cmp_order() {
        let vs = awkward();
        for &a in &vs {
            for &b in &vs {
                assert_eq!(key(a).cmp(&key(b)), a.total_cmp(&b), "{a:e} vs {b:e}");
            }
        }
    }

    #[test]
    fn sort_f64_matches_total_cmp_sort_bitwise() {
        let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut scratch = Vec::new();
        for len in 0..=awkward().len() {
            let mut got = awkward()[..len].to_vec();
            got.reverse();
            let mut expected = got.clone();
            expected.sort_unstable_by(f64::total_cmp);
            sort_f64(&mut got, &mut scratch);
            assert_eq!(bits(&got), bits(&expected), "len {len}");
        }
    }

    #[test]
    fn shared_digits_skip_their_passes() {
        // All equal: no pass runs, and the input is left as it is.
        assert_eq!(Radix::new([key(2.5); 7].into_iter()).passes(), 0);
        assert_eq!(Radix::new(std::iter::empty()).passes(), 0);
        // Keys that differ only in the lowest byte need one pass.
        let low = [1.0f64, f64::from_bits(1.0f64.to_bits() + 3)];
        assert_eq!(Radix::new(low.iter().map(|&v| key(v))).passes(), 1);
    }

    #[test]
    fn sort_is_stable() {
        // Positions sorted by a key with ties keep ascending positions.
        let keys = [3u64, 1, 3, 0, 1, 3, 256, 0];
        let radix = Radix::new(keys.iter().copied());
        let mut front: Vec<usize> = (0..keys.len()).collect();
        let mut back = vec![0usize; keys.len()];
        radix.sort(&mut front, &mut back, |p| keys[p]);
        let out = if radix.ends_in_back() { back } else { front };
        assert_eq!(out, vec![3, 7, 1, 4, 0, 2, 5, 6]);
        // The same order from the two halves of one buffer.
        let mut slots = vec![usize::MAX; keys.len()];
        radix.sort_positions(&mut slots, |p| keys[p]);
        assert_eq!(slots, out);
    }
}
