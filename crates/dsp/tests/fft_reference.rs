//! The planned FFT against the unplanned transform it replaced, bit
//! for bit.
//!
//! `reference` below keeps the original iterative radix-2 loop and
//! Bluestein transform verbatim: the twiddle of each butterfly is the
//! running product `w *= wlen`, and each Bluestein call rebuilds its
//! chirp and transforms its filter. Training targets, golden fixtures
//! and checkpoints depend on every output bit of `fft`, `ifft`, `rfft`
//! and `irfft`, so each is compared against this oracle with NaNs
//! treated as equal, on every length from 0 to 700 and on inputs that
//! include ±0, ±inf, NaN and subnormals.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spectragan_dsp::{fft, ifft, irfft, rfft, Complex, FftPlan};

mod reference {
    use spectragan_dsp::Complex;

    pub fn fft(x: &[Complex]) -> Vec<Complex> {
        let mut buf = x.to_vec();
        fft_in_place(&mut buf, false);
        buf
    }

    pub fn ifft(x: &[Complex]) -> Vec<Complex> {
        let mut buf = x.to_vec();
        fft_in_place(&mut buf, true);
        buf
    }

    pub fn rfft(x: &[f64]) -> Vec<Complex> {
        let buf: Vec<Complex> = x.iter().map(|&v| Complex::real(v)).collect();
        let full = fft(&buf);
        full[..x.len() / 2 + 1].to_vec()
    }

    pub fn irfft(spec: &[Complex], n: usize) -> Vec<f64> {
        assert!(n > 0, "irfft output length must be positive");
        assert_eq!(spec.len(), n / 2 + 1);
        let mut full = vec![Complex::ZERO; n];
        full[..spec.len()].copy_from_slice(spec);
        for k in 1..n - spec.len() + 1 {
            let src = spec[k];
            full[n - k] = src.conj();
        }
        ifft(&full).into_iter().map(|z| z.re).collect()
    }

    fn fft_in_place(buf: &mut [Complex], inverse: bool) {
        let n = buf.len();
        if n <= 1 {
            return;
        }
        if n.is_power_of_two() {
            radix2_in_place(buf, inverse);
            if inverse {
                let scale = 1.0 / n as f64;
                for z in buf.iter_mut() {
                    *z = z.scale(scale);
                }
            }
        } else {
            let out = bluestein(buf, inverse);
            buf.copy_from_slice(&out);
        }
    }

    /// Iterative radix-2 Cooley–Tukey, unnormalized in both directions.
    fn radix2_in_place(buf: &mut [Complex], inverse: bool) {
        let n = buf.len();
        debug_assert!(n.is_power_of_two());

        // Bit-reversal permutation.
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                buf.swap(i, j);
            }
        }

        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::cis(ang);
            for chunk in buf.chunks_exact_mut(len) {
                let mut w = Complex::ONE;
                let (lo, hi) = chunk.split_at_mut(len / 2);
                for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                    let u = *a;
                    let v = *b * w;
                    *a = u + v;
                    *b = u - v;
                    w *= wlen;
                }
            }
            len <<= 1;
        }
    }

    /// Bluestein's algorithm: DFT of arbitrary length `n` via a circular
    /// convolution of power-of-two length `m ≥ 2n − 1`.
    fn bluestein(x: &[Complex], inverse: bool) -> Vec<Complex> {
        let n = x.len();
        let sign = if inverse { 1.0 } else { -1.0 };

        // Chirp c[k] = e^{sign·iπk²/n}. Compute k² mod 2n to keep the phase
        // argument small and precise for large k.
        let chirp: Vec<Complex> = (0..n)
            .map(|k| {
                let k2 = (k as u64 * k as u64) % (2 * n as u64);
                Complex::cis(sign * std::f64::consts::PI * k2 as f64 / n as f64)
            })
            .collect();

        let m = (2 * n - 1).next_power_of_two();
        let mut a = vec![Complex::ZERO; m];
        let mut b = vec![Complex::ZERO; m];

        for k in 0..n {
            a[k] = x[k] * chirp[k];
            b[k] = chirp[k].conj();
        }
        // b must be symmetric for circular convolution: b[m-k] = b[k].
        for k in 1..n {
            b[m - k] = chirp[k].conj();
        }

        radix2_in_place(&mut a, false);
        radix2_in_place(&mut b, false);
        for (ai, bi) in a.iter_mut().zip(b.iter()) {
            *ai *= *bi;
        }
        radix2_in_place(&mut a, true);
        let inv_m = 1.0 / m as f64;

        let norm = if inverse { 1.0 / n as f64 } else { 1.0 };
        (0..n)
            .map(|k| (a[k].scale(inv_m) * chirp[k]).scale(norm))
            .collect()
    }
}

/// Lengths the pipeline uses or that sit on an algorithm's edge: one
/// day and one week of hourly samples and their neighbours, two weeks,
/// every power of two, and primes (Bluestein with no small factor).
const NAMED_LENGTHS: [usize; 30] = [
    0, 1, 2, 3, 4, 5, 7, 8, 16, 24, 31, 32, 64, 97, 127, 128, 167, 168, 169, 256, 257, 336, 509,
    512, 521, 613, 672, 673, 691, 700,
];

fn same_f64(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn same_complex(a: &[Complex], b: &[Complex]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("lengths {} vs {}", a.len(), b.len()));
    }
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        if !(same_f64(x.re, y.re) && same_f64(x.im, y.im)) {
            return Err(format!("element {k}: {x:?} vs reference {y:?}"));
        }
    }
    Ok(())
}

fn same_real(a: &[f64], b: &[f64]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("lengths {} vs {}", a.len(), b.len()));
    }
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        if !same_f64(*x, *y) {
            return Err(format!("element {k}: {x:?} vs reference {y:?}"));
        }
    }
    Ok(())
}

/// One value of an input family:
/// * 0 — finite values over many magnitudes, subnormals and ±0;
/// * 1 — as 0, with rare ±inf and NaN;
/// * 2 — only ±0, so that every sign of zero depends on each multiply;
/// * 3 — as 2, with rare ±inf and NaN.
fn value(rng: &mut StdRng, family: u8) -> f64 {
    let special = family % 2 == 1 && rng.gen_range(0u32..64) == 0;
    if special {
        return match rng.gen_range(0u32..3) {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            _ => f64::NAN,
        };
    }
    let sign = if rng.gen_range(0u32..2) == 0 {
        1.0
    } else {
        -1.0
    };
    if family >= 2 {
        return sign * 0.0;
    }
    sign * match rng.gen_range(0u32..8) {
        0 => 0.0,
        1 => f64::from_bits(rng.gen_range(1u64..1 << 52)),
        2 => f64::MIN_POSITIVE * rng.gen_range(0.5..4.0),
        3 => rng.gen_range(0.0..1e-300),
        4 => rng.gen_range(0.0..1e300),
        _ => rng.gen_range(0.0..100.0),
    }
}

fn reals(n: usize, seed: u64, family: u8) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| value(&mut rng, family)).collect()
}

fn complexes(n: usize, seed: u64, family: u8) -> Vec<Complex> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Complex::new(value(&mut rng, family), value(&mut rng, family)))
        .collect()
}

/// Checks every transform of length `n` on inputs of one family drawn
/// from `seed`, and one forward and one inverse plan over three
/// different buffers each.
fn check_length(n: usize, seed: u64, family: u8) -> Result<(), String> {
    let x = complexes(n, seed, family);
    same_complex(&fft(&x), &reference::fft(&x)).map_err(|e| format!("fft n={n}: {e}"))?;
    same_complex(&ifft(&x), &reference::ifft(&x)).map_err(|e| format!("ifft n={n}: {e}"))?;
    let mut forward = FftPlan::forward(n);
    let mut inverse = FftPlan::inverse(n);
    for round in 1..=3u64 {
        let y = complexes(n, seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15), family);
        let mut buf = y.clone();
        forward.process(&mut buf);
        same_complex(&buf, &reference::fft(&y))
            .map_err(|e| format!("forward plan n={n} round {round}: {e}"))?;
        let mut buf = y.clone();
        inverse.process(&mut buf);
        same_complex(&buf, &reference::ifft(&y))
            .map_err(|e| format!("inverse plan n={n} round {round}: {e}"))?;
    }
    if n > 0 {
        let r = reals(n, seed, family);
        same_complex(&rfft(&r), &reference::rfft(&r)).map_err(|e| format!("rfft n={n}: {e}"))?;
        let spec = complexes(n / 2 + 1, seed.rotate_left(17), family);
        same_real(&irfft(&spec, n), &reference::irfft(&spec, n))
            .map_err(|e| format!("irfft n={n}: {e}"))?;
    }
    Ok(())
}

#[test]
fn every_length_up_to_700_matches_the_reference() {
    for n in 0..=700usize {
        let family = (n % 4) as u8;
        if let Err(e) = check_length(n, n as u64, family) {
            panic!("family {family}: {e}");
        }
    }
}

proptest! {
    /// Random lengths, half of them drawn from the named ones, with
    /// inputs of every family.
    #[test]
    fn transforms_match_the_reference(pick in 0usize..1402, seed in 0u64..u64::MAX, family in 0u8..4) {
        let n = if pick <= 700 { pick } else { NAMED_LENGTHS[pick % NAMED_LENGTHS.len()] };
        let checked = check_length(n, seed, family);
        prop_assert!(checked.is_ok(), "family {}: {}", family, checked.unwrap_err());
    }
}
