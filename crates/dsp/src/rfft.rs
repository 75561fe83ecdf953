//! Real-input FFT and its inverse.
//!
//! Mobile-traffic time series are real signals; the paper works with the
//! one-sided spectrum of `F = T/2 + 1` bins (§2.2.4 writes
//! `F' = T'/2 + 1`). `rfft` maps `N` real samples to `N/2 + 1` complex
//! bins; `irfft` reverses it given the intended output length (needed to
//! disambiguate even/odd `N`).

use crate::complex::Complex;
use crate::fft::FftPlan;

/// Number of one-sided spectrum bins for a real signal of length `n`.
#[inline]
pub fn rfft_len(n: usize) -> usize {
    n / 2 + 1
}

/// Forward real FFT: `n` real samples → `n/2 + 1` complex bins.
///
/// Bin 0 is DC; for even `n` the last bin is the Nyquist component.
/// Unnormalized (matches [`crate::fft::fft`]).
///
/// # Panics
/// Panics if `x` is empty.
pub fn rfft(x: &[f64]) -> Vec<Complex> {
    assert!(!x.is_empty(), "rfft needs at least one sample");
    let mut buf: Vec<Complex> = x.iter().map(|&v| Complex::real(v)).collect();
    FftPlan::forward(x.len()).process(&mut buf);
    buf.truncate(rfft_len(x.len()));
    buf
}

/// Inverse real FFT: one-sided spectrum → real signal of length `n`.
///
/// `spec.len()` must equal `n/2 + 1`. Reconstructs the conjugate-
/// symmetric full spectrum, applies the inverse DFT and discards the
/// (numerically negligible) imaginary parts.
///
/// # Panics
/// Panics if `spec.len() != n/2 + 1` or `n == 0`.
pub fn irfft(spec: &[Complex], n: usize) -> Vec<f64> {
    assert!(n > 0, "irfft output length must be positive");
    assert_eq!(
        spec.len(),
        rfft_len(n),
        "one-sided spectrum length {} does not match output length {} (want {})",
        spec.len(),
        n,
        rfft_len(n)
    );
    let mut full = vec![Complex::ZERO; n];
    full[..spec.len()].copy_from_slice(spec);
    // Conjugate symmetry: X[n-k] = conj(X[k]) for k = 1..ceil(n/2).
    for k in 1..n - spec.len() + 1 {
        let src = spec[k];
        full[n - k] = src.conj();
    }
    FftPlan::inverse(n).process(&mut full);
    full.into_iter().map(|z| z.re).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| {
                let t = t as f64;
                1.5 + (2.0 * std::f64::consts::PI * t / 24.0).sin()
                    + 0.3 * (2.0 * std::f64::consts::PI * t / 7.0).cos()
                    + 0.05 * (t * 0.91).sin()
            })
            .collect()
    }

    #[test]
    fn bin_count_is_half_plus_one() {
        assert_eq!(rfft_len(168), 85);
        assert_eq!(rfft_len(24), 13);
        assert_eq!(rfft_len(7), 4);
        assert_eq!(rfft(&signal(168)).len(), 85);
    }

    #[test]
    fn roundtrip_even_length() {
        let x = signal(168);
        let back = irfft(&rfft(&x), 168);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn roundtrip_odd_length() {
        let x = signal(167);
        let back = irfft(&rfft(&x), 167);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn dc_bin_is_sum() {
        let x = signal(100);
        let spec = rfft(&x);
        let sum: f64 = x.iter().sum();
        assert!((spec[0].re - sum).abs() < 1e-8);
        assert!(spec[0].im.abs() < 1e-10);
    }

    #[test]
    fn constant_signal_is_pure_dc() {
        let x = vec![3.0; 50];
        let spec = rfft(&x);
        assert!((spec[0].re - 150.0).abs() < 1e-9);
        for bin in &spec[1..] {
            assert!(bin.abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn rfft_rejects_empty_input() {
        let _ = rfft(&[]);
    }

    #[test]
    #[should_panic(expected = "does not match output length")]
    fn irfft_rejects_mismatched_length() {
        let spec = vec![Complex::ZERO; 10];
        let _ = irfft(&spec, 168);
    }
}
