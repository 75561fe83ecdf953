//! Spectrum utilities: magnitudes, the paper's quantile mask `M^q`, and
//! reconstruction from the significant frequency components.
//!
//! §2.2.3 defines the masked spectrum target used by the L1 loss:
//! `y^q = m ⊙ FFT(x)` with `m = 1(|FFT(x)| > y_q)`, where `y_q` is the
//! `q`-quantile of the magnitude spectrum. Fig. 1e shows that keeping a
//! handful of significant components already reconstructs the traffic
//! well; [`reconstruct_top_k`] reproduces that figure.

use crate::complex::Complex;
use crate::rfft::{irfft, rfft};

/// Magnitudes `|X[k]|` of a complex spectrum.
pub fn magnitude(spec: &[Complex]) -> Vec<f64> {
    spec.iter().map(|z| z.abs()).collect()
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a slice (see [`quantile_in_place`],
/// run on a copy).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_in_place(&mut values.to_vec(), q)
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, found by sorting them in
/// place, so that no copy is made.
///
/// Uses the nearest-rank definition: the element at index
/// `round(q·(len − 1))` of the sorted values. An empty input returns 0.
///
/// # Panics
/// Panics if the values include a NaN.
pub fn quantile_in_place(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let idx = ((q.clamp(0.0, 1.0)) * (values.len() - 1) as f64).round() as usize;
    values[idx]
}

/// Applies the paper's mask `M^q`: zeroes every bin whose magnitude is
/// not strictly above the `q`-quantile of the magnitude spectrum.
///
/// Returns the masked spectrum together with the boolean mask.
pub fn mask_quantile(spec: &[Complex], q: f64) -> (Vec<Complex>, Vec<bool>) {
    let mags = magnitude(spec);
    let thr = quantile(&mags, q);
    let mask: Vec<bool> = mags.iter().map(|&m| m > thr).collect();
    let masked = spec
        .iter()
        .zip(&mask)
        .map(|(&z, &keep)| if keep { z } else { Complex::ZERO })
        .collect();
    (masked, mask)
}

/// Indices of the `k` largest-magnitude bins, sorted by descending
/// magnitude. `k` is clamped to the spectrum length.
pub fn top_k_indices(spec: &[Complex], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..spec.len()).collect();
    idx.sort_by(|&a, &b| {
        spec[b]
            .abs()
            .partial_cmp(&spec[a].abs())
            .expect("NaN magnitude")
    });
    idx.truncate(k.min(spec.len()));
    idx
}

/// Reconstructs a real signal of length `n` from only the `k` most
/// significant one-sided spectrum components of `x` (all other bins
/// zeroed). Reproduces the paper's Fig. 1e experiment.
///
/// The DC bin counts toward `k` if it is among the largest components
/// (for traffic it always is, so `k = 5` means DC plus the four dominant
/// periodicities).
pub fn reconstruct_top_k(x: &[f64], k: usize) -> Vec<f64> {
    let spec = rfft(x);
    let keep = top_k_indices(&spec, k);
    let mut masked = vec![Complex::ZERO; spec.len()];
    for i in keep {
        masked[i] = spec[i];
    }
    irfft(&masked, x.len())
}

/// Total spectral energy `Σ|X[k]|²` of a one-sided spectrum, counting
/// interior bins twice (they represent conjugate pairs in the full
/// spectrum). `n` is the underlying signal length.
pub fn one_sided_energy(spec: &[Complex], n: usize) -> f64 {
    let mut e = 0.0;
    for (k, z) in spec.iter().enumerate() {
        let double = k != 0 && !(n.is_multiple_of(2) && k == spec.len() - 1);
        e += z.norm_sqr() * if double { 2.0 } else { 1.0 };
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weekly_traffic(n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| {
                let t = t as f64;
                let daily = (2.0 * std::f64::consts::PI * t / 24.0 - 1.0).sin();
                let weekly = 0.4 * (2.0 * std::f64::consts::PI * t / 168.0).cos();
                let noise = 0.02 * ((t * 7.13).sin() + (t * 3.71).cos());
                2.0 + daily + weekly + noise
            })
            .collect()
    }

    #[test]
    fn quantile_basics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn mask_keeps_only_above_threshold() {
        let x = weekly_traffic(168);
        let spec = rfft(&x);
        let (masked, mask) = mask_quantile(&spec, 0.75);
        let kept = mask.iter().filter(|&&b| b).count();
        // q = 0.75 keeps roughly a quarter of the bins.
        assert!(kept > 0 && kept <= spec.len() / 2 + 2);
        for (m, keep) in masked.iter().zip(&mask) {
            if !keep {
                assert_eq!(*m, Complex::ZERO);
            }
        }
    }

    #[test]
    fn top_k_finds_dominant_bins() {
        let x = weekly_traffic(168);
        let spec = rfft(&x);
        let top = top_k_indices(&spec, 3);
        // DC (bin 0), daily (bin 7 of 168h = 168/24), weekly (bin 1).
        assert!(top.contains(&0));
        assert!(top.contains(&7));
        assert!(top.contains(&1));
    }

    #[test]
    fn top_k_reconstruction_captures_most_energy() {
        let x = weekly_traffic(168);
        let rec = reconstruct_top_k(&x, 5);
        let err: f64 = x.iter().zip(&rec).map(|(a, b)| (a - b).powi(2)).sum();
        let energy: f64 = x.iter().map(|v| v * v).sum();
        // Fig. 1e: 5 significant components ≈ the full signal.
        assert!(err / energy < 0.01, "relative error {}", err / energy);
    }

    #[test]
    fn reconstruction_with_all_bins_is_exact() {
        let x = weekly_traffic(96);
        let rec = reconstruct_top_k(&x, rfft(&x).len());
        for (a, b) in x.iter().zip(&rec) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn one_sided_energy_matches_parseval() {
        for n in [24usize, 49, 168] {
            let x = weekly_traffic(n);
            let spec = rfft(&x);
            let time_energy: f64 = x.iter().map(|v| v * v).sum();
            let freq_energy = one_sided_energy(&spec, n) / n as f64;
            assert!(
                (time_energy - freq_energy).abs() < 1e-6 * time_energy,
                "n={n}: {time_energy} vs {freq_energy}"
            );
        }
    }
}
