//! Signal-processing substrate for the SpectraGAN reproduction.
//!
//! The paper's defining idea is to generate mobile-traffic *spectra* and
//! convert them to time series via the inverse Fourier transform. This
//! crate provides everything spectral that the rest of the workspace
//! relies on, implemented from scratch:
//!
//! * [`Complex`] — minimal complex arithmetic on `f64`.
//! * [`FftPlan`] — the discrete Fourier transform for *any* length,
//!   planned once per length (iterative radix-2 Cooley–Tukey for powers
//!   of two, Bluestein's chirp-z algorithm otherwise); [`fft()`] /
//!   [`ifft`] are its one-shot forms.
//! * [`rfft`] / [`irfft`] — the real-input transforms used on traffic
//!   time series (`N` reals ↔ `N/2 + 1` complex bins).
//! * [`spectrum`] — magnitude spectra, the paper's quantile mask
//!   `M^q` (§2.2.3), and reconstruction from the significant components
//!   (Fig. 1e).
//! * [`expand`] — the k-multiple frequency expansion used to generate
//!   time series longer than the training window (§2.2.4, Fig. 4,
//!   Appendix C).
//! * [`autocorr`] — autocorrelation used by the AC-L1 fidelity metric.

pub mod autocorr;
pub mod complex;
pub mod expand;
pub mod fft;
pub mod rfft;
pub mod spectrum;
pub mod stft;
pub mod window;

pub use autocorr::{autocorrelation, cross_correlation, lead_lag};
pub use complex::Complex;
pub use expand::{expand_spectrum, expand_spectrum_fractional};
pub use fft::{fft, ifft, FftPlan};
pub use rfft::{irfft, rfft};
pub use spectrum::{magnitude, mask_quantile, reconstruct_top_k, top_k_indices};
pub use stft::{periodogram, power_concentration, spectral_entropy, stft, Spectrogram};
pub use window::Window;
