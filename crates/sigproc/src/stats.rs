//! Descriptive statistics and rolling-window helpers shared by the
//! signal-processing substrates and the experiment harness.

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (`1/n` normalization). Returns 0 for slices shorter
/// than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mu = mean(xs);
    xs.iter().map(|x| (x - mu) * (x - mu)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// The standard-deviation threshold below which a window counts as
/// constant. Shared by [`z_normalize`] and the matrix profile so their
/// degenerate-window conventions agree exactly.
pub const SD_CONSTANT_EPS: f64 = 1e-9;

/// Z-normalizes a slice: subtract the mean, divide by the standard
/// deviation. A (near-)constant slice maps to all zeros, the convention used
/// by matrix-profile implementations.
pub fn z_normalize(xs: &[f64]) -> Vec<f64> {
    let mu = mean(xs);
    let sd = std_dev(xs);
    if sd < SD_CONSTANT_EPS {
        return vec![0.0; xs.len()];
    }
    xs.iter().map(|x| (x - mu) / sd).collect()
}

/// Refills `prefix` with the running sums of `xs` (`prefix[0] = 0`),
/// reusing its allocation — the shared substrate of the rolling-average
/// `_into` variants.
fn prefix_sums_into(xs: &[f64], prefix: &mut Vec<f64>) {
    prefix.clear();
    prefix.reserve(xs.len() + 1);
    prefix.push(0.0f64);
    for &x in xs {
        // lint:allow(panic): `prefix` starts with a pushed 0.0, never empty
        prefix.push(prefix.last().unwrap() + x);
    }
}

/// Simple moving average with a centered window of `w` points (clamped at
/// the edges), matching the average filter `h_q(f)` of the Spectral Residual
/// transform when applied to spectra.
pub fn moving_average(xs: &[f64], w: usize) -> Vec<f64> {
    let mut out = xs.to_vec();
    moving_average_in_place(&mut out, w, &mut Vec::new());
    out
}

/// [`moving_average`] overwriting `xs` with its averages: `prefix` is an
/// opaque scratch area (overwritten every call). Warm buffers recompute
/// with zero heap allocations — the per-alarm shape of the Spectral
/// Residual transform, which filters its log spectrum in place.
///
/// # Panics
///
/// Panics if `w == 0`.
pub fn moving_average_in_place(xs: &mut [f64], w: usize, prefix: &mut Vec<f64>) {
    assert!(w >= 1, "window must be positive");
    let n = xs.len();
    let half = w / 2;
    // The averages read only the prefix sums, so they may overwrite `xs`.
    prefix_sums_into(xs, prefix);
    for (i, x) in xs.iter_mut().enumerate() {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        *x = (prefix[hi] - prefix[lo]) / (hi - lo) as f64;
    }
}

/// Trailing moving average: position `i` averages the `w` points ending at
/// `i` (fewer near the start). Used by the Spectral Residual score
/// normalization.
pub fn trailing_average(xs: &[f64], w: usize) -> Vec<f64> {
    let mut prefix = Vec::new();
    let mut out = Vec::new();
    trailing_average_into(xs, w, &mut prefix, &mut out);
    out
}

/// [`trailing_average`] writing into caller-owned buffers: `prefix` is an
/// opaque scratch area, `out` receives the averages, and a warm pair
/// recomputes with zero heap allocations.
///
/// # Panics
///
/// Panics if `w == 0`.
pub fn trailing_average_into(xs: &[f64], w: usize, prefix: &mut Vec<f64>, out: &mut Vec<f64>) {
    assert!(w >= 1, "window must be positive");
    let n = xs.len();
    prefix_sums_into(xs, prefix);
    out.clear();
    out.reserve(n);
    out.extend((0..n).map(|i| {
        let lo = (i + 1).saturating_sub(w);
        (prefix[i + 1] - prefix[lo]) / (i + 1 - lo) as f64
    }));
}

/// Rolling mean and standard deviation of every length-`w` window of `xs`
/// (one pass over globally-centered data: subtracting the global mean
/// before the sum/sum-of-squares recurrence avoids the catastrophic
/// cancellation that the raw recurrence suffers when values are large
/// relative to their spread). Returns `(means, stds)` of length
/// `xs.len() - w + 1`.
///
/// # Panics
///
/// Panics if `w == 0` or `w > xs.len()`.
pub fn rolling_mean_std(xs: &[f64], w: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(w >= 1 && w <= xs.len(), "invalid window {w} for length {}", xs.len());
    let n = xs.len() - w + 1;
    let center = mean(xs);
    let mut means = Vec::with_capacity(n);
    let mut stds = Vec::with_capacity(n);
    let mut sum = 0.0f64;
    let mut sumsq = 0.0f64;
    // Length of the run of equal values ending at the current position:
    // lets exactly-constant windows report exactly zero deviation, which
    // the recurrence cannot guarantee under rounding.
    let mut run = 0usize;
    for i in 0..xs.len() {
        run = if i > 0 && xs[i] == xs[i - 1] { run + 1 } else { 1 };
        let x = xs[i] - center;
        sum += x;
        sumsq += x * x;
        if i + 1 >= w {
            if i + 1 > w {
                let out = xs[i - w] - center;
                sum -= out;
                sumsq -= out * out;
            }
            if run >= w {
                means.push(xs[i]);
                stds.push(0.0);
            } else {
                let mu = sum / w as f64;
                let var = (sumsq / w as f64 - mu * mu).max(0.0);
                means.push(mu + center);
                stds.push(var.sqrt());
            }
        }
    }
    (means, stds)
}

/// The `p`-quantile (`0 <= p <= 1`) using linear interpolation between order
/// statistics (type-7, the numpy default).
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `[0, 1]`.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
    let mut sorted = xs.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let idx = p * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = idx - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The five-number summary (plus mean) used to draw the paper's Figure 6
/// box plots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxPlotStats {
    /// Smallest observation.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl BoxPlotStats {
    /// Computes the summary of a non-empty sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn from(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "box plot of empty sample");
        let mut sorted = xs.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        Self {
            min: sorted[0],
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            // lint:allow(panic): non-emptiness is asserted at entry and is
            // this constructor's documented contract
            max: *sorted.last().unwrap(),
            mean: mean(&sorted),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(std_dev(&xs), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn z_normalize_standardizes() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let z = z_normalize(&xs);
        assert!(mean(&z).abs() < 1e-12);
        assert!((std_dev(&z) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn z_normalize_constant_is_zero() {
        assert_eq!(z_normalize(&[3.0; 4]), vec![0.0; 4]);
    }

    #[test]
    fn moving_average_flat_signal() {
        let xs = [2.0; 10];
        assert_eq!(moving_average(&xs, 3), vec![2.0; 10]);
    }

    #[test]
    fn moving_average_centered_window() {
        let xs = [0.0, 0.0, 9.0, 0.0, 0.0];
        let ma = moving_average(&xs, 3);
        assert_eq!(ma, vec![0.0, 3.0, 3.0, 3.0, 0.0]);
    }

    #[test]
    fn trailing_average_ramps_in() {
        let xs = [4.0, 8.0, 0.0, 4.0];
        let ta = trailing_average(&xs, 2);
        assert_eq!(ta, vec![4.0, 6.0, 4.0, 2.0]);
    }

    #[test]
    fn into_variants_match_and_recycle() {
        let xs: Vec<f64> = (0..40).map(|i| ((i * 31) % 13) as f64 * 0.25 - 1.0).collect();
        let mut prefix = Vec::new();
        let mut out = Vec::new();
        for w in [1usize, 2, 3, 7, 40, 100] {
            out.clear();
            out.extend_from_slice(&xs);
            moving_average_in_place(&mut out, w, &mut prefix);
            assert_eq!(out, moving_average(&xs, w), "moving w = {w}");
            trailing_average_into(&xs, w, &mut prefix, &mut out);
            assert_eq!(out, trailing_average(&xs, w), "trailing w = {w}");
        }
        // Warm buffers must not grow on same-shape recomputation.
        let caps = (prefix.capacity(), out.capacity());
        moving_average_in_place(&mut out, 5, &mut prefix);
        trailing_average_into(&xs, 5, &mut prefix, &mut out);
        assert_eq!((prefix.capacity(), out.capacity()), caps, "warm buffers must be reused");
    }

    #[test]
    fn rolling_stats_match_direct() {
        let xs: Vec<f64> = (0..50).map(|i| ((i * 37) % 11) as f64).collect();
        let w = 7;
        let (means, stds) = rolling_mean_std(&xs, w);
        assert_eq!(means.len(), xs.len() - w + 1);
        for i in 0..means.len() {
            let win = &xs[i..i + w];
            assert!((means[i] - mean(win)).abs() < 1e-9, "mean at {i}");
            assert!((stds[i] - std_dev(win)).abs() < 1e-9, "std at {i}");
        }
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn box_plot_stats_summary() {
        let xs = [6.0, 2.0, 1.0, 3.0, 4.0, 5.0, 7.0];
        let b = BoxPlotStats::from(&xs);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 7.0);
        assert_eq!(b.median, 4.0);
        assert_eq!(b.mean, 4.0);
        assert!(b.q1 < b.median && b.median < b.q3);
    }

    #[test]
    #[should_panic(expected = "invalid window")]
    fn rolling_rejects_oversized_window() {
        let _ = rolling_mean_std(&[1.0, 2.0], 3);
    }
}
