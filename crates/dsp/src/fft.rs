//! Discrete Fourier transforms for arbitrary lengths.
//!
//! One implementation, [`FftPlan`], planned once per length and
//! direction, with two algorithms, both from scratch:
//!
//! * iterative radix-2 Cooley–Tukey for power-of-two lengths, and
//! * Bluestein's chirp-z transform for everything else (it re-expresses
//!   a length-`N` DFT as a circular convolution of length `≥ 2N − 1`,
//!   which is then done with the radix-2 path).
//!
//! Traffic time series in the paper are *not* powers of two (one week of
//! hourly data is `T = 168`), so the Bluestein path is exercised by every
//! experiment, not just edge cases.
//!
//! A plan computes everything that depends only on the length once: the
//! bit-reversal swap list, every stage's twiddle factors, and for
//! Bluestein the chirp and the transformed chirp filter. Transforming
//! many series of one length (every pixel of a training patch) then
//! costs two power-of-two FFTs per series and no allocation. [`fft`],
//! [`ifft`], [`crate::rfft()`] and [`crate::irfft()`] are one-shot
//! wrappers that build a plan and run it once.
//!
//! # Output bits
//!
//! Training targets, golden fixtures and checkpoints depend on every
//! bit of these transforms, so the plan performs, for every output
//! element, the floating-point operations of the unplanned algorithm in
//! the same order; it only computes each shared operand once. Each
//! butterfly multiplies by its twiddle, the first one (`1 + 0i`)
//! included, because that product turns `inf` into `NaN` and `−0` into
//! `+0`. Each stage's twiddles come from the running product
//! `w ← w·e^{±2πi/len}`, rounded at every step, never from
//! `cis(j·angle)`, whose values differ in the last bits.
//! `crates/dsp/tests/fft_reference.rs` keeps the unplanned loops and
//! checks every transform against them bit for bit.
//!
//! Conventions: `fft` computes `X[k] = Σ_n x[n]·e^{-2πikn/N}` with no
//! normalization; `ifft` applies the `1/N` factor, so `ifft(fft(x)) = x`.

use crate::complex::Complex;

/// Computes the forward DFT of `x` (any length, including 0 and 1).
///
/// Unnormalized: `X[k] = Σ_n x[n]·e^{-2πikn/N}`.
pub fn fft(x: &[Complex]) -> Vec<Complex> {
    let mut buf = x.to_vec();
    FftPlan::forward(x.len()).process(&mut buf);
    buf
}

/// Computes the inverse DFT of `x`, including the `1/N` normalization,
/// so that `ifft(fft(x)) == x` up to floating-point error.
pub fn ifft(x: &[Complex]) -> Vec<Complex> {
    let mut buf = x.to_vec();
    FftPlan::inverse(x.len()).process(&mut buf);
    buf
}

/// A DFT of one length and direction with every length-dependent table
/// computed once. [`FftPlan::process`] transforms any number of
/// buffers of that length in place without allocating.
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    inverse: bool,
    algo: Algo,
}

#[derive(Debug)]
enum Algo {
    /// Lengths 0 and 1: the transform is the identity.
    Identity,
    Radix2(Radix2),
    Bluestein(Bluestein),
}

impl FftPlan {
    /// Plans the unnormalized forward transform of length `n`.
    pub fn forward(n: usize) -> Self {
        FftPlan::new(n, false)
    }

    /// Plans the inverse transform of length `n`, including the `1/N`
    /// normalization.
    pub fn inverse(n: usize) -> Self {
        FftPlan::new(n, true)
    }

    fn new(n: usize, inverse: bool) -> Self {
        let algo = if n <= 1 {
            Algo::Identity
        } else if n.is_power_of_two() {
            Algo::Radix2(Radix2::new(n))
        } else {
            Algo::Bluestein(Bluestein::new(n, inverse))
        };
        FftPlan { n, inverse, algo }
    }

    /// Transforms `buf` in place.
    ///
    /// # Panics
    /// Panics if `buf.len()` is not the planned length.
    pub fn process(&mut self, buf: &mut [Complex]) {
        assert_eq!(
            buf.len(),
            self.n,
            "buffer of length {} given to a length-{} FFT plan",
            buf.len(),
            self.n
        );
        match &mut self.algo {
            Algo::Identity => {}
            Algo::Radix2(r) => {
                r.run(buf, self.inverse);
                if self.inverse {
                    let scale = 1.0 / self.n as f64;
                    for z in buf.iter_mut() {
                        *z = z.scale(scale);
                    }
                }
            }
            Algo::Bluestein(b) => b.run(buf, self.inverse),
        }
    }
}

/// Tables of an iterative radix-2 transform of one power-of-two length,
/// in both directions (Bluestein's convolution needs both).
#[derive(Debug)]
struct Radix2 {
    /// The bit-reversal permutation as index pairs `(i, j)`, `i < j`,
    /// exchanged in this order.
    swaps: Vec<(usize, usize)>,
    /// Forward twiddles of every stage: the stage whose butterflies span
    /// `2h` elements keeps its `h` factors at offset `h − 1`.
    forward: Vec<Complex>,
    /// Inverse twiddles, laid out as `forward`.
    inverse: Vec<Complex>,
}

impl Radix2 {
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i, j));
            }
        }
        Radix2 {
            swaps,
            forward: twiddles(n, -1.0),
            inverse: twiddles(n, 1.0),
        }
    }

    /// Unnormalized in both directions.
    fn run(&self, buf: &mut [Complex], inverse: bool) {
        for &(i, j) in &self.swaps {
            buf.swap(i, j);
        }
        let table = if inverse {
            &self.inverse
        } else {
            &self.forward
        };
        let mut half = 1;
        while half < buf.len() {
            let tw = &table[half - 1..2 * half - 1];
            for chunk in buf.chunks_exact_mut(2 * half) {
                let (lo, hi) = chunk.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                    let u = *a;
                    let v = *b * w;
                    *a = u + v;
                    *b = u - v;
                }
            }
            half <<= 1;
        }
    }
}

/// Every stage's twiddle factors for a length-`n` radix-2 transform:
/// per stage of span `len`, the running product `w ← w·e^{sign·2πi/len}`
/// from `w = 1`, one factor per butterfly.
fn twiddles(n: usize, sign: f64) -> Vec<Complex> {
    let mut table = Vec::with_capacity(n - 1);
    let mut len = 2;
    while len <= n {
        let wlen = Complex::cis(sign * 2.0 * std::f64::consts::PI / len as f64);
        let mut w = Complex::ONE;
        for _ in 0..len / 2 {
            table.push(w);
            w *= wlen;
        }
        len <<= 1;
    }
    table
}

/// Bluestein's algorithm: DFT of arbitrary length `n` via a circular
/// convolution of power-of-two length `m ≥ 2n − 1`.
#[derive(Debug)]
struct Bluestein {
    /// Chirp `c[k] = e^{sign·iπk²/n}`.
    chirp: Vec<Complex>,
    /// Forward transform of the length-`m` filter `conj(c)`, laid out
    /// symmetrically (`b[m−k] = b[k]`) for the circular convolution.
    filter: Vec<Complex>,
    conv: Radix2,
    /// Convolution buffer of length `m`.
    work: Vec<Complex>,
}

impl Bluestein {
    fn new(n: usize, inverse: bool) -> Self {
        let sign = if inverse { 1.0 } else { -1.0 };
        // Compute k² mod 2n to keep the phase argument small and
        // precise for large k.
        let chirp: Vec<Complex> = (0..n)
            .map(|k| {
                let k2 = (k as u64 * k as u64) % (2 * n as u64);
                Complex::cis(sign * std::f64::consts::PI * k2 as f64 / n as f64)
            })
            .collect();
        let m = (2 * n - 1).next_power_of_two();
        let conv = Radix2::new(m);
        let mut filter = vec![Complex::ZERO; m];
        for k in 0..n {
            filter[k] = chirp[k].conj();
        }
        for k in 1..n {
            filter[m - k] = chirp[k].conj();
        }
        conv.run(&mut filter, false);
        Bluestein {
            chirp,
            filter,
            conv,
            work: vec![Complex::ZERO; m],
        }
    }

    fn run(&mut self, buf: &mut [Complex], inverse: bool) {
        let Bluestein {
            chirp,
            filter,
            conv,
            work,
        } = self;
        let n = buf.len();
        for ((a, &x), &c) in work.iter_mut().zip(buf.iter()).zip(chirp.iter()) {
            *a = x * c;
        }
        work[n..].fill(Complex::ZERO);
        conv.run(work, false);
        for (a, &b) in work.iter_mut().zip(filter.iter()) {
            *a *= b;
        }
        conv.run(work, true);
        let inv_m = 1.0 / work.len() as f64;
        let norm = if inverse { 1.0 / n as f64 } else { 1.0 };
        for ((out, &a), &c) in buf.iter_mut().zip(work.iter()).zip(chirp.iter()) {
            *out = (a.scale(inv_m) * c).scale(norm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive O(N²) DFT used as the test oracle.
    fn dft_naive(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (i, &xi) in x.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * i) as f64 / n as f64;
                    acc += xi * Complex::cis(ang);
                }
                acc
            })
            .collect()
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).abs() < tol, "bin {i}: {x:?} vs {y:?} (tol {tol})");
        }
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new(i as f64 * 0.3 - 1.0, (i as f64).sin()))
            .collect()
    }

    #[test]
    fn empty_and_singleton_are_identity() {
        assert!(fft(&[]).is_empty());
        let one = [Complex::new(2.5, -1.0)];
        assert_eq!(fft(&one), one.to_vec());
        assert_eq!(ifft(&one), one.to_vec());
    }

    #[test]
    fn matches_naive_dft_power_of_two() {
        for n in [2usize, 4, 8, 16, 64, 256] {
            let x = ramp(n);
            assert_close(&fft(&x), &dft_naive(&x), 1e-8 * n as f64);
        }
    }

    #[test]
    fn matches_naive_dft_arbitrary_lengths() {
        // 168 = one week of hourly samples, the length every SpectraGAN
        // experiment uses; the others stress Bluestein with primes.
        for n in [3usize, 5, 7, 12, 24, 97, 168, 336] {
            let x = ramp(n);
            assert_close(&fft(&x), &dft_naive(&x), 1e-7 * n as f64);
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        for n in [1usize, 2, 7, 24, 168, 256, 501] {
            let x = ramp(n);
            assert_close(&ifft(&fft(&x)), &x, 1e-9 * (n.max(4)) as f64);
        }
    }

    /// One plan transforms buffer after buffer with the one-shot
    /// wrapper's bits: its tables and work buffer carry nothing from
    /// one call into the next.
    #[test]
    fn a_plan_is_reusable() {
        for n in [8usize, 168] {
            let mut fwd = FftPlan::forward(n);
            let mut inv = FftPlan::inverse(n);
            for shift in 0..3 {
                let x: Vec<Complex> = ramp(n + shift)[shift..].to_vec();
                let mut buf = x.clone();
                fwd.process(&mut buf);
                assert_eq!(buf, fft(&x));
                inv.process(&mut buf);
                assert_eq!(buf, ifft(&fft(&x)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "length-24 FFT plan")]
    fn a_plan_rejects_other_lengths() {
        FftPlan::forward(24).process(&mut ramp(25));
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 24];
        x[0] = Complex::ONE;
        for bin in fft(&x) {
            assert!((bin - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_single_bin() {
        let n = 48;
        let k0 = 5;
        let x: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * std::f64::consts::PI * (k0 * t) as f64 / n as f64))
            .collect();
        let spec = fft(&x);
        for (k, bin) in spec.iter().enumerate() {
            if k == k0 {
                assert!((bin.re - n as f64).abs() < 1e-8);
                assert!(bin.im.abs() < 1e-8);
            } else {
                assert!(bin.abs() < 1e-8, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        for n in [30usize, 64, 168] {
            let x = ramp(n);
            let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
            let freq_energy: f64 = fft(&x).iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
            assert!((time_energy - freq_energy).abs() < 1e-7 * time_energy.max(1.0));
        }
    }

    #[test]
    fn linearity() {
        let n = 21;
        let x = ramp(n);
        let y: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).cos(), 0.2))
            .collect();
        let sum: Vec<Complex> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        let fx = fft(&x);
        let fy = fft(&y);
        let fsum = fft(&sum);
        let expect: Vec<Complex> = fx.iter().zip(&fy).map(|(a, b)| *a + *b).collect();
        assert_close(&fsum, &expect, 1e-9);
    }
}
