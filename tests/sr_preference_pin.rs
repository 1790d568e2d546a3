//! The Spectral Residual preference-rank pin.
//!
//! The paper ranks test points by their SR outlying score (§6.1.1), and
//! MOCHE's explanation is exact only for a given ranking: new SR rounding
//! that swapped two near-tied scores would change outputs. This test keeps
//! the original SR transform, verbatim, as an oracle (the recurrence FFT
//! plus `hypot`, `arg` and `from_polar`) and checks on a seeded corpus that
//! the production transform ranks every window in the same order, with
//! scores equal to a tight relative tolerance.
//!
//! A window whose order flips is a finding to report, not a tolerance to
//! widen.

use moche::data::dist::{normal, uniform};
use moche::data::nab::{generate_family, NabFamily};
use moche::data::rng::rng_from_seed;
use moche::data::sliding::failed_windows;
use moche::sigproc::SpectralResidual;
use moche::{KsConfig, PreferenceList};
use rand::rngs::StdRng;

/// The SR transform as it was before the table-driven FFT: the oracle.
mod oracle {
    use moche::sigproc::Complex;

    fn next_pow2(n: usize) -> usize {
        n.max(1).next_power_of_two()
    }

    fn transform(buf: &mut [Complex], inverse: bool) {
        let n = buf.len();
        assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
        if n <= 1 {
            return;
        }

        // Bit-reversal permutation.
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if i < j {
                buf.swap(i, j);
            }
        }

        // Butterflies.
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2usize;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::from_polar(1.0, ang);
            let mut start = 0usize;
            while start < n {
                let mut w = Complex::ONE;
                for k in 0..len / 2 {
                    let u = buf[start + k];
                    let v = buf[start + k + len / 2] * w;
                    buf[start + k] = u + v;
                    buf[start + k + len / 2] = u - v;
                    w = w * wlen;
                }
                start += len;
            }
            len <<= 1;
        }
    }

    fn rfft(x: &[f64]) -> Vec<Complex> {
        let n = next_pow2(x.len());
        let mut buf: Vec<Complex> = x.iter().map(|&v| Complex::real(v)).collect();
        buf.resize(n, Complex::ZERO);
        transform(&mut buf, false);
        buf
    }

    fn ifft_in_place(buf: &mut [Complex]) {
        transform(buf, true);
        let n = buf.len() as f64;
        for z in buf.iter_mut() {
            *z = *z / n;
        }
    }

    fn prefix_sums(xs: &[f64]) -> Vec<f64> {
        let mut prefix = vec![0.0f64];
        for &x in xs {
            prefix.push(prefix[prefix.len() - 1] + x);
        }
        prefix
    }

    fn moving_average(xs: &[f64], w: usize) -> Vec<f64> {
        let n = xs.len();
        let half = w / 2;
        let prefix = prefix_sums(xs);
        (0..n)
            .map(|i| {
                let lo = i.saturating_sub(half);
                let hi = (i + half + 1).min(n);
                (prefix[hi] - prefix[lo]) / (hi - lo) as f64
            })
            .collect()
    }

    fn trailing_average(xs: &[f64], w: usize) -> Vec<f64> {
        let prefix = prefix_sums(xs);
        (0..xs.len())
            .map(|i| {
                let lo = (i + 1).saturating_sub(w);
                (prefix[i + 1] - prefix[lo]) / (i + 1 - lo) as f64
            })
            .collect()
    }

    fn estimate_next(series: &[f64], lookback: usize) -> f64 {
        let n = series.len();
        let lb = lookback.min(n - 1).max(1);
        let last = series[n - 1];
        let mut grad_sum = 0.0;
        for i in 1..=lb {
            grad_sum += (last - series[n - 1 - i]) / i as f64;
        }
        last + grad_sum / lb as f64
    }

    /// Outlying scores under the default configuration (`q = 3`, `z = 21`,
    /// `κ = 5`, lookback 5).
    pub fn scores(series: &[f64]) -> Vec<f64> {
        let mut extended = series.to_vec();
        let est = estimate_next(series, 5);
        extended.extend(std::iter::repeat_n(est, 5));
        let mut spectrum = rfft(&extended);
        let log_amp: Vec<f64> = spectrum.iter().map(|z| z.abs().max(1e-12).ln()).collect();
        let smoothed = moving_average(&log_amp, 3);
        for (i, z) in spectrum.iter_mut().enumerate() {
            let residual = log_amp[i] - smoothed[i];
            let phase = z.arg();
            *z = Complex::from_polar(residual.exp(), phase);
        }
        ifft_in_place(&mut spectrum);
        let saliency: Vec<f64> = spectrum[..series.len()].iter().map(|z| z.abs()).collect();
        let trailing = trailing_average(&saliency, 21);
        saliency
            .iter()
            .zip(&trailing)
            .map(|(&s, &a)| if a > 1e-12 { (s - a) / a } else { 0.0 })
            .collect()
    }
}

/// The largest relative score difference the pin accepts. A score is
/// `s/a - 1` (saliency over its trailing average), so one near zero is the
/// difference of two nearly equal numbers: differences are taken relative
/// to the larger of the two scores' magnitudes and 1, the scale of `s/a`.
const MAX_RELATIVE_DIFFERENCE: f64 = 1e-8;

/// Rounds to four decimals, as the windows files of `moche batch` carry.
fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

/// Windows shaped like the `batch_explain` workload: standard normal values
/// with one contiguous segment, covering 0–8% of the window, shifted up.
fn contaminated_windows(rng: &mut StdRng, count: usize, w: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            let mut window: Vec<f64> = (0..w).map(|_| round4(normal(rng, 0.0, 1.0))).collect();
            let level = (i as f64 + uniform(rng, 0.0, 1.0)) / count as f64;
            let len = ((w as f64 * 0.08 * level).ceil() as usize).min(w);
            let start = (uniform(rng, 0.0, 1.0) * (w - len + 1) as f64) as usize;
            let mean = uniform(rng, 2.5, 4.0);
            for v in &mut window[start..start + len] {
                *v = round4(mean + 0.5 * normal(rng, 0.0, 1.0));
            }
            window
        })
        .collect()
}

/// Windows shaped like the `serve_drift` alarms: golden-ratio rotation
/// noise around a level that flips once inside the window.
fn level_flip_windows(rng: &mut StdRng, count: usize, w: usize) -> Vec<Vec<f64>> {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    (0..count)
        .map(|_| {
            let offset = uniform(rng, 0.0, 1.0);
            let base = uniform(rng, -100.0, 100.0);
            let scale = uniform(rng, 0.5, 20.0);
            let shift = scale * uniform(rng, 0.4, 1.0);
            let flip = (uniform(rng, 0.0, 1.0) * w as f64) as usize;
            (0..w)
                .map(|i| {
                    let u = (offset + i as f64 * GOLDEN).fract();
                    base + scale * (u - 0.5) + if i >= flip { shift } else { 0.0 }
                })
                .collect()
        })
        .collect()
}

/// The test windows of every failed sliding-window KS test on the NAB
/// series that `tests/end_to_end.rs` samples its cases from (same
/// families, seed, window and stride).
fn nab_windows() -> Vec<Vec<f64>> {
    let cfg = KsConfig::new(0.05).unwrap();
    let mut out = Vec::new();
    for family in [NabFamily::Art, NabFamily::Aws, NabFamily::Kc] {
        for series in generate_family(family, 77) {
            out.extend(failed_windows(&series, 150, &cfg, 75).into_iter().map(|f| f.test));
        }
    }
    out
}

/// Checks one window and returns its largest relative score difference.
fn pin(label: &str, window: &[f64]) -> f64 {
    let old = oracle::scores(window);
    let new = SpectralResidual::default().scores(window);
    assert_eq!(old.len(), new.len());
    let mut worst = 0.0f64;
    for (i, (&a, &b)) in old.iter().zip(&new).enumerate() {
        let rel = (a - b).abs() / a.abs().max(b.abs()).max(1.0);
        assert!(rel <= MAX_RELATIVE_DIFFERENCE, "{label}: score {i} moved {rel:e} ({a} vs {b})");
        worst = worst.max(rel);
    }
    let old_order = PreferenceList::from_scores_desc(&old).unwrap();
    let new_order = PreferenceList::from_scores_desc(&new).unwrap();
    if let Some(rank) =
        old_order.as_order().iter().zip(new_order.as_order()).position(|(a, b)| a != b)
    {
        panic!(
            "{label}: the preference order flips at rank {rank} ({} vs {})",
            old_order.as_order()[rank],
            new_order.as_order()[rank]
        );
    }
    worst
}

fn pin_all(label: &str, windows: &[Vec<f64>]) {
    assert!(!windows.is_empty(), "{label}: empty corpus");
    let worst = windows
        .iter()
        .enumerate()
        .map(|(i, w)| pin(&format!("{label} window {i}"), w))
        .fold(0.0f64, f64::max);
    eprintln!("{label}: {} windows, largest relative score difference {worst:e}", windows.len());
}

#[test]
fn batch_shaped_windows_keep_their_sr_ranking() {
    let mut rng = rng_from_seed(0x5eed_0001);
    pin_all("w=10000 contaminated", &contaminated_windows(&mut rng, 64, 10_000));
}

#[test]
fn level_flip_windows_keep_their_sr_ranking() {
    let mut rng = rng_from_seed(0x5eed_0002);
    pin_all("w=1000 level flip", &level_flip_windows(&mut rng, 256, 1000));
}

#[test]
fn short_windows_keep_their_sr_ranking() {
    let mut rng = rng_from_seed(0x5eed_0003);
    let mut windows = contaminated_windows(&mut rng, 512, 64);
    windows.extend(level_flip_windows(&mut rng, 512, 64));
    pin_all("w=64", &windows);
}

#[test]
fn nab_windows_keep_their_sr_ranking() {
    pin_all("NAB failed tests", &nab_windows());
}

#[test]
fn the_oracle_is_the_transform_it_replaced() {
    // A spike dominates the oracle's scores, as it does the production
    // transform's (`spectral_residual.rs::spike_gets_the_top_score`), and
    // the oracle's FFT is not the production one: its recurrence twiddles
    // round differently.
    let mut series: Vec<f64> = (0..200).map(|i| (i as f64 * 0.1).sin() * 5.0 + 10.0).collect();
    series[120] += 40.0;
    let scores = oracle::scores(&series);
    let top = scores.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
    assert!((118..=122).contains(&top), "oracle top score at {top}");
    let new = SpectralResidual::default().scores(&series);
    assert_ne!(
        scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        new.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
    );
}
