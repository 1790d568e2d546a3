//! The Spectral Residual (SR) saliency transform for time-series anomaly
//! detection, after Ren et al., *Time-Series Anomaly Detection Service at
//! Microsoft*, KDD 2019.
//!
//! The MOCHE paper derives preference lists for its time-series experiments
//! by ranking test-window points by their SR outlying score (Section 6.1.1).
//! The transform:
//!
//! 1. extend the series by `extension` extrapolated points (the SR paper's
//!    trick to score the tail reliably);
//! 2. take the FFT; split the spectrum into amplitude `A(f)` and phase
//!    `P(f)`;
//! 3. compute the *log spectral residual* `R(f) = log A(f) - h_q * log A(f)`
//!    where `h_q` is a length-`q` average filter;
//! 4. invert with the original phase: the *saliency map*
//!    `S(x) = |IFFT(exp(R(f) + i P(f)))|`;
//! 5. score each point by its relative saliency
//!    `score(x) = (S(x) - avg) / avg` against a trailing average.

use crate::complex::Complex;
use crate::fft::{ifft_with, rfft_into, Twiddles};
use crate::stats::{moving_average_in_place, trailing_average_into};
use std::fmt;

/// Reusable scratch for the Spectral Residual transform. It holds:
///
/// - the FFT twiddle table, built for the largest padded length seen and
///   read by stride for every smaller one;
/// - the spectrum (forward transform, then the residual inverse);
/// - the log-amplitude plane, filtered in place into `h_q * log A(f)`;
/// - the prefix sums behind both rolling averages;
/// - the saliency map and its trailing average.
///
/// The series and its extrapolated tail are read straight into the
/// transform, so there is no copy of the extended series. One scratch
/// serves any series length, and results do not depend on what it served
/// before. A warm scratch makes [`SpectralResidual::scores_into`] and
/// [`SpectralResidual::saliency_into`] perform **zero** heap allocations:
/// `moche_stream::DriftMonitor` keeps one per monitor, and `moche batch`
/// one per worker thread.
#[derive(Debug, Clone, Default)]
pub struct SaliencyScratch {
    /// FFT twiddle factors.
    twiddles: Twiddles,
    /// FFT buffer (forward spectrum, then the residual inverse).
    spectrum: Vec<Complex>,
    /// `log A(f)`, then `h_q * log A(f)`.
    smoothed: Vec<f64>,
    /// Prefix sums behind the rolling averages.
    prefix: Vec<f64>,
    /// Saliency map (scores only; `saliency_into` writes to the caller).
    saliency: Vec<f64>,
    /// Trailing average of the saliency map.
    trailing: Vec<f64>,
}

impl SaliencyScratch {
    /// An empty scratch; the first transform through it allocates, later
    /// ones of the same (or smaller) series length reuse every buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Whether a bin's squared modulus takes the polar-free path: at or above
/// the `1e-12` amplitude clamp, and finite. Other bins (clamped, or so
/// large that `|z|²` overflows) keep the polar formulas.
#[inline]
fn polar_free(norm_sqr: f64) -> bool {
    (1e-24..=f64::MAX).contains(&norm_sqr)
}

/// `ln max(|z|, 1e-12)`, as `½·ln|z|²` on the polar-free path.
#[inline]
fn log_amplitude(z: Complex) -> f64 {
    let norm_sqr = z.norm_sqr();
    if polar_free(norm_sqr) {
        0.5 * norm_sqr.ln()
    } else {
        z.abs().max(1e-12).ln()
    }
}

/// The Spectral Residual pipeline numerically broke down: the saliency map
/// contains a non-finite value (FFT overflow on extreme inputs), so the
/// derived outlying scores would be meaningless.
///
/// Returned by [`SpectralResidual::scores_into`]; callers degrade to a
/// neutral preference (identity order) rather than ranking by garbage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaliencyOverflow {
    /// Position of the first non-finite saliency value.
    pub index: usize,
    /// The offending saliency value (`NaN` or infinite).
    pub saliency: f64,
}

impl fmt::Display for SaliencyOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "spectral residual overflowed: saliency at position {} is {}",
            self.index, self.saliency
        )
    }
}

impl std::error::Error for SaliencyOverflow {}

/// Configuration of the Spectral Residual transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpectralResidual {
    /// Size of the average filter applied to the log spectrum (`q` in the SR
    /// paper; 3 there and in the reference implementation).
    pub filter_window: usize,
    /// Window of the trailing average used to turn saliency into scores
    /// (`z` in the SR paper; 21 in the reference implementation).
    pub score_window: usize,
    /// Number of extrapolated points appended before the transform (`κ`; 5
    /// in the SR paper).
    pub extension: usize,
    /// How many trailing points are used to fit the extrapolation line.
    pub extension_lookback: usize,
}

impl Default for SpectralResidual {
    fn default() -> Self {
        Self { filter_window: 3, score_window: 21, extension: 5, extension_lookback: 5 }
    }
}

impl SpectralResidual {
    /// Computes the saliency map of `series` (same length as the input).
    ///
    /// # Panics
    ///
    /// Panics if the series is shorter than 4 points or contains non-finite
    /// values.
    pub fn saliency(&self, series: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.saliency_into(series, &mut SaliencyScratch::new(), &mut out);
        out
    }

    /// [`saliency`](Self::saliency) through caller-owned scratch, writing
    /// the map into `out`. Results are identical; a warm
    /// `(scratch, out)` pair recomputes with zero heap allocations.
    ///
    /// # Panics
    ///
    /// As for [`saliency`](Self::saliency).
    pub fn saliency_into(&self, series: &[f64], scratch: &mut SaliencyScratch, out: &mut Vec<f64>) {
        assert!(series.len() >= 4, "spectral residual needs at least 4 points");
        assert!(series.iter().all(|v| v.is_finite()), "series must be finite");

        // Steps 1–2: FFT (zero-padded to a power of two) of the series
        // followed by its tail, extended by the SR paper's gradient
        // extrapolation.
        let tail = std::iter::repeat_n(self.estimate_next(series), self.extension);
        rfft_into(series.iter().copied().chain(tail), &mut scratch.twiddles, &mut scratch.spectrum);

        // Step 3: log-amplitude residual; the filter runs in place.
        scratch.smoothed.clear();
        scratch.smoothed.extend(scratch.spectrum.iter().map(|&z| log_amplitude(z)));
        moving_average_in_place(&mut scratch.smoothed, self.filter_window, &mut scratch.prefix);
        // Step 4: rebuild with residual amplitude and original phase. The
        // residual is `ln|z| - s`, so `exp(residual)·e^{i arg z}` is
        // `z·exp(-s)`; clamped bins keep the polar form.
        for (z, &s) in scratch.spectrum.iter_mut().zip(&scratch.smoothed) {
            *z = if polar_free(z.norm_sqr()) {
                z.scale((-s).exp())
            } else {
                Complex::from_polar((log_amplitude(*z) - s).exp(), z.arg())
            };
        }
        ifft_with(&mut scratch.spectrum, &mut scratch.twiddles);
        out.clear();
        out.reserve(series.len());
        out.extend(scratch.spectrum[..series.len()].iter().map(|z| z.norm_sqr().sqrt()));
    }

    /// Computes the per-point outlying score: relative deviation of the
    /// saliency map from its trailing average. Larger scores mean more
    /// anomalous points.
    ///
    /// No numerical validation is applied: on pathological inputs (values
    /// near `f64::MAX`, where the FFT overflows) the scores can silently
    /// degenerate. Use [`scores_into`](Self::scores_into) to detect that.
    pub fn scores(&self, series: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.scores_raw_into(series, &mut SaliencyScratch::new(), &mut out);
        out
    }

    /// [`scores`](Self::scores) through caller-owned scratch, writing the
    /// scores into `out` — and **validating** them: if the saliency map
    /// contains a non-finite value (FFT overflow on extreme but finite
    /// inputs), the transform has numerically broken down and every score
    /// derived from it is meaningless, so the call is rejected instead of
    /// returning garbage. On success the scores are identical to
    /// [`scores`](Self::scores); a warm `(scratch, out)` pair recomputes
    /// with zero heap allocations.
    ///
    /// # Errors
    ///
    /// Returns [`SaliencyOverflow`] (leaving `out` empty, never partially
    /// filled) when the saliency map is non-finite.
    ///
    /// # Panics
    ///
    /// As for [`saliency`](Self::saliency).
    pub fn scores_into(
        &self,
        series: &[f64],
        scratch: &mut SaliencyScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), SaliencyOverflow> {
        self.scores_raw_into(series, scratch, out);
        if let Some(index) = scratch.saliency.iter().position(|s| !s.is_finite()) {
            let saliency = scratch.saliency[index];
            out.clear();
            return Err(SaliencyOverflow { index, saliency });
        }
        Ok(())
    }

    /// The unvalidated score pipeline shared by [`scores`](Self::scores)
    /// and [`scores_into`](Self::scores_into).
    fn scores_raw_into(&self, series: &[f64], scratch: &mut SaliencyScratch, out: &mut Vec<f64>) {
        let mut saliency = std::mem::take(&mut scratch.saliency);
        self.saliency_into(series, scratch, &mut saliency);
        trailing_average_into(
            &saliency,
            self.score_window,
            &mut scratch.prefix,
            &mut scratch.trailing,
        );
        out.clear();
        out.reserve(saliency.len());
        out.extend(saliency.iter().zip(&scratch.trailing).map(|(&s, &a)| {
            if a > 1e-12 {
                (s - a) / a
            } else {
                0.0
            }
        }));
        scratch.saliency = saliency;
    }

    /// The SR paper's estimate of the next point: the last value plus the
    /// mean slope over the lookback window.
    fn estimate_next(&self, series: &[f64]) -> f64 {
        let n = series.len();
        let lb = self.extension_lookback.min(n - 1).max(1);
        let last = series[n - 1];
        let mut grad_sum = 0.0;
        for i in 1..=lb {
            grad_sum += (last - series[n - 1 - i]) / i as f64;
        }
        last + grad_sum / lb as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_series(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.1).sin() * 5.0 + 10.0).collect()
    }

    #[test]
    fn spike_gets_the_top_score() {
        let mut series = smooth_series(200);
        series[120] += 40.0;
        let sr = SpectralResidual::default();
        let scores = sr.scores(&series);
        let argmax =
            scores.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap();
        assert!(
            (118..=122).contains(&argmax),
            "expected the spike at 120 to dominate, got index {argmax}"
        );
    }

    #[test]
    fn multiple_spikes_rank_above_normal_points() {
        let mut series = smooth_series(300);
        for &i in &[50usize, 150, 250] {
            series[i] += 30.0;
        }
        let sr = SpectralResidual::default();
        let scores = sr.scores(&series);
        let mut ranked: Vec<usize> = (0..series.len()).collect();
        ranked.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then_with(|| a.cmp(&b)));
        let top: Vec<usize> = ranked[..9].to_vec();
        for &spike in &[50usize, 150, 250] {
            assert!(
                top.iter().any(|&i| i.abs_diff(spike) <= 2),
                "spike {spike} missing from top-9 {top:?}"
            );
        }
    }

    #[test]
    fn saliency_preserves_length() {
        let series = smooth_series(123);
        let sr = SpectralResidual::default();
        assert_eq!(sr.saliency(&series).len(), 123);
        assert_eq!(sr.scores(&series).len(), 123);
    }

    #[test]
    fn constant_series_is_unremarkable() {
        let series = vec![5.0; 100];
        let sr = SpectralResidual::default();
        let scores = sr.scores(&series);
        // No point should stand out strongly on a constant series.
        let max = scores.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max < 5.0, "max score {max} on constant series");
    }

    #[test]
    fn scores_are_finite() {
        let mut series = smooth_series(64);
        series[10] = 0.0;
        series[11] = 100.0;
        let sr = SpectralResidual::default();
        for s in sr.scores(&series) {
            assert!(s.is_finite());
        }
    }

    #[test]
    fn no_extension_variant_works() {
        let series = smooth_series(50);
        let sr = SpectralResidual { extension: 0, ..Default::default() };
        assert_eq!(sr.saliency(&series).len(), 50);
    }

    #[test]
    fn estimate_next_extrapolates_linear_trend() {
        let series: Vec<f64> = (0..20).map(|i| 2.0 * i as f64).collect();
        let sr = SpectralResidual::default();
        let est = sr.estimate_next(&series);
        assert!((est - 40.0).abs() < 1e-9, "est = {est}");
    }

    #[test]
    fn into_variants_match_allocating_paths_bit_exactly() {
        let mut series = smooth_series(150);
        series[40] += 25.0;
        series[90] -= 60.0;
        let sr = SpectralResidual::default();
        let mut scratch = SaliencyScratch::new();
        let mut out = Vec::new();
        for len in [150usize, 64, 17, 4] {
            sr.saliency_into(&series[..len], &mut scratch, &mut out);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&sr.saliency(&series[..len])), "saliency len {len}");
            sr.scores_into(&series[..len], &mut scratch, &mut out).unwrap();
            assert_eq!(bits(&out), bits(&sr.scores(&series[..len])), "scores len {len}");
        }
    }

    fn capacities(scratch: &SaliencyScratch) -> [usize; 6] {
        [
            scratch.twiddles.capacity(),
            scratch.spectrum.capacity(),
            scratch.smoothed.capacity(),
            scratch.prefix.capacity(),
            scratch.saliency.capacity(),
            scratch.trailing.capacity(),
        ]
    }

    #[test]
    fn warm_scratch_reuses_every_buffer() {
        let series = smooth_series(100);
        let sr = SpectralResidual::default();
        let mut scratch = SaliencyScratch::new();
        let mut out = Vec::new();
        sr.scores_into(&series, &mut scratch, &mut out).unwrap();
        let caps = (capacities(&scratch), out.capacity());
        for len in [100, 60, 17, 100] {
            sr.scores_into(&series[..len], &mut scratch, &mut out).unwrap();
        }
        let after = (capacities(&scratch), out.capacity());
        assert_eq!(caps, after, "warm scores_into must not grow any buffer");
    }

    #[test]
    fn scores_do_not_depend_on_what_the_scratch_served_before() {
        let mut series = smooth_series(1000);
        series[333] += 17.0;
        let sr = SpectralResidual::default();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut out = Vec::new();
        for len in [1000usize, 700, 64, 5] {
            let window = &series[..len];
            sr.scores_into(window, &mut SaliencyScratch::new(), &mut out).unwrap();
            let cold = bits(&out);
            // Warm at the same padded length.
            let mut same = SaliencyScratch::new();
            sr.scores_into(window, &mut same, &mut out).unwrap();
            sr.scores_into(window, &mut same, &mut out).unwrap();
            assert_eq!(bits(&out), cold, "len {len}, warm at the same length");
            // Warm at a larger length: the twiddle table serves by stride.
            let mut larger = SaliencyScratch::new();
            sr.scores_into(&series, &mut larger, &mut out).unwrap();
            sr.scores_into(&smooth_series(5000), &mut larger, &mut out).unwrap();
            sr.scores_into(window, &mut larger, &mut out).unwrap();
            assert_eq!(bits(&out), cold, "len {len}, warm at a larger length");
        }
    }

    #[test]
    fn scratch_at_w10k_is_no_larger_than_the_extended_series_layout() {
        // The layout this scratch replaced kept a copy of the extended
        // series, the spectrum, separate log-amplitude and smoothed planes,
        // the prefix sums, the saliency map and its trailing average.
        let (w, n) = (10_000usize, 16_384usize);
        let f64s = |count: usize| count * std::mem::size_of::<f64>();
        let replaced =
            f64s(w + 5) + n * std::mem::size_of::<Complex>() + f64s(2 * n + n + 1) + f64s(2 * w);
        let mut scratch = SaliencyScratch::new();
        let mut out = Vec::new();
        SpectralResidual::default().scores_into(&smooth_series(w), &mut scratch, &mut out).unwrap();
        let caps = capacities(&scratch);
        let bytes = caps[0] * std::mem::size_of::<Complex>()
            + caps[1] * std::mem::size_of::<Complex>()
            + f64s(caps[2] + caps[3] + caps[4] + caps[5]);
        assert!(bytes <= replaced, "scratch holds {bytes} B, the replaced layout {replaced} B");
    }

    #[test]
    fn extreme_finite_series_score_like_their_unscaled_shape() {
        // SR is scale-free: scaling a series shifts every log amplitude by
        // the same constant, which the residual cancels. At 1e156 the
        // spectrum's |z|² overflows, so those bins must take the polar
        // path instead of breaking the transform down.
        let mut series = smooth_series(64);
        series[20] += 9.0;
        let sr = SpectralResidual::default();
        let scaled: Vec<f64> = series.iter().map(|v| v * 1e156).collect();
        let mut out = Vec::new();
        sr.scores_into(&scaled, &mut SaliencyScratch::new(), &mut out).unwrap();
        for (a, b) in out.iter().zip(sr.scores(&series)) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn overflowing_series_is_rejected_not_garbage() {
        // Finite inputs near f64::MAX overflow the FFT butterflies: the
        // saliency map degenerates to non-finite values and every derived
        // score is meaningless. scores() silently returns them (all-zero
        // here); scores_into() must reject instead.
        let huge = vec![1.5e308, 1.5e308, 1.5e308, 1.5e308, 1.5e308, 1.5e308];
        let sr = SpectralResidual::default();
        assert!(sr.saliency(&huge).iter().any(|s| !s.is_finite()), "setup: FFT must overflow");
        let mut scratch = SaliencyScratch::new();
        let mut out = Vec::new();
        let err = sr.scores_into(&huge, &mut scratch, &mut out).unwrap_err();
        assert!(!err.saliency.is_finite());
        assert!(out.is_empty(), "rejected scores must not leak into out");
        assert!(err.to_string().contains("overflowed"));
        // The scratch stays usable for well-behaved series afterwards.
        let series = smooth_series(64);
        sr.scores_into(&series, &mut scratch, &mut out).unwrap();
        assert_eq!(out, sr.scores(&series));
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn too_short_series_panics() {
        let sr = SpectralResidual::default();
        let _ = sr.saliency(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_series_panics() {
        let sr = SpectralResidual::default();
        let _ = sr.saliency(&[1.0, f64::NAN, 2.0, 3.0]);
    }
}
