//! Criterion microbenches for the DSP substrate: FFT across the sizes
//! the pipeline actually uses (168 = one hourly week, 672 = 15-min
//! week, powers of two for the radix-2 path), real FFT round-trips,
//! masking, k-multiple expansion, and the masked-spectrum training
//! target of one patch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spectragan_core::fourier::masked_spec_rows;
use spectragan_core::SpectraGanConfig;
use spectragan_dsp::{expand_spectrum, fft, irfft, mask_quantile, rfft, Complex};
use spectragan_tensor::Tensor;
use std::hint::black_box;

fn signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|t| {
            1.0 + (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin()
                + 0.2 * (t as f64 * 0.7).cos()
        })
        .collect()
}

fn bench_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft");
    for n in [128usize, 168, 256, 672, 1024] {
        let x: Vec<Complex> = signal(n).into_iter().map(Complex::real).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &x, |b, x| {
            b.iter(|| fft(black_box(x)))
        });
    }
    g.finish();
}

fn bench_rfft_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("rfft_roundtrip");
    for n in [168usize, 672] {
        let x = signal(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &x, |b, x| {
            b.iter(|| {
                let s = rfft(black_box(x));
                irfft(&s, x.len())
            })
        });
    }
    g.finish();
}

fn bench_mask_and_expand(c: &mut Criterion) {
    let x = signal(168);
    let spec = rfft(&x);
    c.bench_function("mask_quantile_q75_168", |b| {
        b.iter(|| mask_quantile(black_box(&spec), 0.75))
    });
    c.bench_function("expand_spectrum_k3_168", |b| {
        b.iter(|| expand_spectrum(black_box(&spec), 168, 3))
    });
}

/// One `default_hourly` training patch (8×8 pixels of one hourly
/// week), each pixel a scaled copy of the test signal: the unit of work
/// sample preparation repeats for every patch of every training city.
fn bench_masked_spec_rows(c: &mut Criterion) {
    let cfg = SpectraGanConfig::default_hourly();
    let (t, side) = (cfg.train_len, cfg.patch_traffic);
    let x = signal(t);
    let data = (0..t * side * side)
        .map(|i| (x[i / (side * side)] * (1.0 + (i % (side * side)) as f64 / 64.0)) as f32)
        .collect();
    let patch = Tensor::from_vec(data, [t, side, side]);
    c.bench_function("masked_spec_rows_8x8_168", |b| {
        b.iter(|| masked_spec_rows(black_box(&patch), cfg.q))
    });
}

criterion_group!(
    benches,
    bench_fft,
    bench_rfft_roundtrip,
    bench_mask_and_expand,
    bench_masked_spec_rows
);
criterion_main!(benches);
