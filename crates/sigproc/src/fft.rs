//! An iterative radix-2 Cooley-Tukey fast Fourier transform.
//!
//! Built as a substrate for the Spectral Residual saliency transform (which
//! the paper uses to derive preference lists from time series). One kernel
//! does every transform: bit-reversal, then butterflies whose twiddle
//! factors are read from a table of `exp(-2πik/n)`, `k < n/2`, each entry
//! computed from its own angle (no `w = w * wlen` recurrence, so no
//! accumulated rounding). `O(n log n)` time, in place, power-of-two
//! lengths.
//!
//! A table built for length `N` also serves every smaller power of two `n`
//! by reading every `N/n`-th entry; those entries are bit-identical to a
//! table built for `n`, so a transform's result does not depend on which
//! table served it. The Spectral Residual scratch keeps one table for the
//! largest length it has seen.
//!
//! A real signal of padded length `n` is transformed through one complex
//! FFT of length `n/2` (even samples as real parts, odd samples as
//! imaginary parts) whose output is unpacked into the full spectrum in
//! place ([`rfft`]).

use crate::complex::Complex;

/// Returns the smallest power of two `>= n` (and `>= 1`).
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Twiddle factors `exp(-2πik/N)`, `k < N/2`, for the largest transform
/// length `N` the table has been asked to cover. Serves any power of two
/// `n <= N` by stride `N/n` (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct Twiddles {
    table: Vec<Complex>,
}

impl Twiddles {
    /// Makes the table cover transforms of length `n` (a power of two): a
    /// table that already does is left as it is, a smaller one is rebuilt
    /// for `n` in its own buffer.
    fn cover(&mut self, n: usize) {
        let half = n / 2;
        if self.table.len() >= half {
            return;
        }
        self.table.clear();
        self.table.extend(
            (0..half).map(|k| {
                Complex::from_polar(1.0, -2.0 * std::f64::consts::PI * k as f64 / n as f64)
            }),
        );
    }

    /// The table's capacity in entries.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.table.capacity()
    }
}

/// In-place forward FFT. `buf.len()` must be a power of two.
///
/// Computes `X[k] = Σ_j x[j] e^{-2πi jk / n}` (unnormalized).
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fft_in_place(buf: &mut [Complex]) {
    transform(buf, &mut Twiddles::default(), false);
}

/// In-place inverse FFT, normalized by `1/n` so that
/// `ifft(fft(x)) == x`. `buf.len()` must be a power of two.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn ifft_in_place(buf: &mut [Complex]) {
    ifft_with(buf, &mut Twiddles::default());
}

/// [`ifft_in_place`] reading its twiddles from (and growing) `twiddles`.
pub(crate) fn ifft_with(buf: &mut [Complex], twiddles: &mut Twiddles) {
    transform(buf, twiddles, true);
    // `1/n` is a power of two, so scaling by it is exactly division by n.
    let inv_n = 1.0 / buf.len() as f64;
    for z in buf.iter_mut() {
        *z = z.scale(inv_n);
    }
}

/// The one FFT kernel: bit-reversal, then radix-2 butterflies with
/// twiddles read by stride from `twiddles` (conjugated for the inverse).
fn transform(buf: &mut [Complex], twiddles: &mut Twiddles, inverse: bool) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
    if n <= 1 {
        return;
    }
    twiddles.cover(n);

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            buf.swap(i, j);
        }
    }

    // Butterflies. Negating the imaginary part conjugates exactly.
    let table = &twiddles.table;
    let sign = if inverse { -1.0 } else { 1.0 };
    let mut len = 2usize;
    while len <= n {
        let half = len / 2;
        let stride = 2 * table.len() / len;
        for block in buf.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(half);
            for ((u, v), w) in lo.iter_mut().zip(hi.iter_mut()).zip(table.iter().step_by(stride)) {
                let t = *v * Complex::new(w.re, sign * w.im);
                *v = *u - t;
                *u += t;
            }
        }
        len <<= 1;
    }
}

/// Forward FFT of a real signal, zero-padded to the next power of two.
/// Returns the full complex spectrum (length `next_pow2(x.len())`).
pub fn rfft(x: &[f64]) -> Vec<Complex> {
    let mut buf = Vec::new();
    rfft_into(x.iter().copied(), &mut Twiddles::default(), &mut buf);
    buf
}

/// [`rfft`] of the samples `x` yields, into caller-owned buffers: `buf`
/// receives the full spectrum and `twiddles` grows to cover its length.
/// The samples are packed as `x[2j] + i·x[2j+1]` into one complex FFT of
/// half the padded length `n`, whose output is unpacked in place, one
/// pair of bins `(k, n/2 - k)` at a time. A warm pair of buffers
/// recomputes with zero heap allocations.
pub(crate) fn rfft_into(
    x: impl IntoIterator<Item = f64>,
    twiddles: &mut Twiddles,
    buf: &mut Vec<Complex>,
) {
    let mut x = x.into_iter();
    buf.clear();
    buf.reserve(next_pow2(x.size_hint().0));
    let mut len = 0usize;
    while let Some(re) = x.next() {
        let im = x.next();
        len += 1 + usize::from(im.is_some());
        buf.push(Complex::new(re, im.unwrap_or(0.0)));
    }
    let n = next_pow2(len);
    buf.resize(n, Complex::ZERO);
    if n == 1 {
        // The spectrum of one sample is that sample.
        return;
    }
    let m = n / 2;
    twiddles.cover(n);
    transform(&mut buf[..m], twiddles, false);

    // With Z the half-length spectrum, the even and odd samples' spectra
    // are E[k] = (Z[k] + conj Z[m-k]) / 2 and O[k] = (Z[k] - conj Z[m-k]) / 2i,
    // and X[k] = E[k] + W^k O[k], X[k+m] = E[k] - W^k O[k] (W = e^{-2πi/n}).
    // A real signal's spectrum is conjugate-symmetric, which fills the
    // mirror bins X[n-k] and X[m-k].
    let table = &twiddles.table;
    let stride = 2 * table.len() / n;
    let z0 = buf[0];
    buf[0] = Complex::real(z0.re + z0.im);
    buf[m] = Complex::real(z0.re - z0.im);
    for k in 1..m / 2 {
        let (a, b) = (buf[k], buf[m - k].conj());
        let even = (a + b).scale(0.5);
        let d = a - b;
        let t = table[k * stride] * Complex::new(0.5 * d.im, -0.5 * d.re);
        let (lo, hi) = (even + t, even - t);
        buf[k] = lo;
        buf[n - k] = lo.conj();
        buf[m + k] = hi;
        buf[m - k] = hi.conj();
    }
    if m >= 2 {
        // The self-paired bin k = m/2, where W^k = -i: X[m/2] = conj Z[m/2].
        let z = buf[m / 2];
        buf[m / 2] = z.conj();
        buf[m + m / 2] = z;
    }
}

/// Inverse FFT returning only real parts, truncated to `out_len` samples.
pub fn irfft(spectrum: &[Complex], out_len: usize) -> Vec<f64> {
    let mut buf = spectrum.to_vec();
    ifft_in_place(&mut buf);
    buf.truncate(out_len);
    buf.iter().map(|z| z.re).collect()
}

/// Reference `O(n^2)` DFT used by the tests as an oracle.
#[cfg(test)]
fn dft_naive(x: &[Complex]) -> Vec<Complex> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &v) in x.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                acc += v * Complex::from_polar(1.0, ang);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "index {i}: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1000), 1024);
        assert_eq!(next_pow2(1024), 1024);
    }

    #[test]
    fn matches_naive_dft() {
        let x: Vec<Complex> =
            (0..16).map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos())).collect();
        let mut fast = x.clone();
        fft_in_place(&mut fast);
        let slow = dft_naive(&x);
        assert_close(&fast, &slow, 1e-10);
    }

    #[test]
    fn roundtrip_identity() {
        let x: Vec<Complex> =
            (0..64).map(|i| Complex::new((i as f64).sqrt(), (i as f64 * 0.1).sin())).collect();
        let mut buf = x.clone();
        fft_in_place(&mut buf);
        ifft_in_place(&mut buf);
        assert_close(&buf, &x, 1e-10);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let x: Vec<Complex> =
            (0..32).map(|i| Complex::real((i as f64 * 0.37).sin() * 2.0)).collect();
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut buf = x.clone();
        fft_in_place(&mut buf);
        let freq_energy: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut buf = vec![Complex::ZERO; 8];
        buf[0] = Complex::ONE;
        fft_in_place(&mut buf);
        for z in &buf {
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_signal_concentrates_at_dc() {
        let mut buf = vec![Complex::ONE; 16];
        fft_in_place(&mut buf);
        assert!((buf[0].re - 16.0).abs() < 1e-10);
        for z in &buf[1..] {
            assert!(z.abs() < 1e-10);
        }
    }

    #[test]
    fn single_tone_peaks_at_its_bin() {
        let n = 64;
        let freq = 5;
        let x: Vec<Complex> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                Complex::real((2.0 * std::f64::consts::PI * freq as f64 * t).cos())
            })
            .collect();
        let mut buf = x;
        fft_in_place(&mut buf);
        let mags: Vec<f64> = buf.iter().map(|z| z.abs()).collect();
        let peak =
            mags.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap();
        assert!(peak == freq || peak == n - freq, "peak at bin {peak}");
    }

    #[test]
    fn rfft_pads_and_irfft_truncates() {
        let x = vec![1.0, 2.0, 3.0]; // padded to 4
        let spec = rfft(&x);
        assert_eq!(spec.len(), 4);
        let back = irfft(&spec, 3);
        assert_eq!(back.len(), 3);
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn rfft_into_matches_rfft_and_recycles() {
        let x: Vec<f64> = (0..50).map(|i| (i as f64 * 0.37).sin() * 2.0).collect();
        let mut twiddles = Twiddles::default();
        let mut buf = Vec::new();
        rfft_into(x.iter().copied(), &mut twiddles, &mut buf);
        assert_eq!(buf, rfft(&x));
        let caps = (buf.capacity(), twiddles.capacity());
        rfft_into(x[..33].iter().copied(), &mut twiddles, &mut buf); // same padded length (64)
        assert_eq!(buf, rfft(&x[..33]));
        rfft_into(x[..9].iter().copied(), &mut twiddles, &mut buf); // smaller: table by stride
        assert_eq!(buf, rfft(&x[..9]));
        assert_eq!((buf.capacity(), twiddles.capacity()), caps, "warm rfft_into must reuse both");
    }

    #[test]
    fn real_input_transform_matches_naive_dft_at_every_length() {
        // n = 1, 2 and 4 are the edge cases of the packing (no pairs, no
        // self-paired bin), and every n >= 4 has the self-pair k = n/4.
        for bits in 0..=12 {
            let n = 1usize << bits;
            let x: Vec<f64> =
                (0..n).map(|i| (i as f64 * 0.61).sin() + (i as f64 * 0.13).cos() * 0.5).collect();
            let complex: Vec<Complex> = x.iter().map(|&v| Complex::real(v)).collect();
            assert_close(&rfft(&x), &dft_naive(&complex), 1e-8);
            // A padded length: the zeros past x.len() are packed too.
            let short = &x[..n - n / 4];
            let mut padded: Vec<Complex> = short.iter().map(|&v| Complex::real(v)).collect();
            padded.resize(n, Complex::ZERO);
            assert_close(&rfft(short), &dft_naive(&padded), 1e-8);
        }
    }

    #[test]
    fn strided_twiddles_equal_a_table_built_for_the_length() {
        let mut big = Twiddles::default();
        big.cover(1 << 12);
        for bits in 1..12 {
            let n = 1usize << bits;
            let mut own = Twiddles::default();
            own.cover(n);
            let stride = (1usize << 12) / n;
            let strided: Vec<u64> = big
                .table
                .iter()
                .step_by(stride)
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                .collect();
            let direct: Vec<u64> =
                own.table.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]).collect();
            assert_eq!(strided, direct, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_length_panics() {
        let mut buf = vec![Complex::ZERO; 6];
        fft_in_place(&mut buf);
    }

    #[test]
    fn tiny_lengths() {
        let mut one = vec![Complex::real(3.5)];
        fft_in_place(&mut one);
        assert_eq!(one[0], Complex::real(3.5));
        let mut two = vec![Complex::real(1.0), Complex::real(2.0)];
        fft_in_place(&mut two);
        assert!((two[0].re - 3.0).abs() < 1e-12);
        assert!((two[1].re + 1.0).abs() < 1e-12);
    }
}
