//! Criterion microbenches for the neural substrate: conv2d
//! forward/backward at model shapes, an LSTM step and a fused LSTM
//! sequence, and a full SpectraGAN training step.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spectragan_core::{SpectraGan, SpectraGanConfig, TrainConfig};
use spectragan_nn::{Binding, Conv2d, Lstm, ParamStore};
use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};
use spectragan_tensor::{Tape, Tensor};
use std::hint::black_box;

fn bench_conv2d(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let x = Tensor::randn([3, 27, 16, 16], &mut rng);
    let w = Tensor::randn([12, 27, 3, 3], &mut rng);
    c.bench_function("conv2d_forward_27ch_16px", |b| {
        b.iter(|| black_box(&x).conv2d(black_box(&w), 1))
    });
    let mut store = ParamStore::new();
    let conv = Conv2d::new(&mut store, 27, 12, 3, 1, &mut rng);
    c.bench_function("conv2d_fwd_bwd_27ch_16px", |b| {
        b.iter(|| {
            let tape = Tape::new();
            let bind = Binding::new(&tape, &store);
            let xv = tape.leaf(x.clone());
            let loss = conv.forward(&bind, &xv).mean();
            tape.backward(&loss)
        })
    });
}

fn bench_lstm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut store = ParamStore::new();
    let lstm = Lstm::new(&mut store, 24, 16, &mut rng);
    let x = Tensor::randn([192, 24], &mut rng);
    c.bench_function("lstm_step_infer_192rows", |b| {
        let (h, cst) = lstm.zero_state_infer(192);
        b.iter(|| lstm.step_infer(&store, black_box(&x), &h, &cst))
    });
    // The time discriminator's shape: a 48-step series window plus a
    // 23-wide context at every step, as one fused sequence node.
    let series = Tensor::randn([192, 48], &mut rng);
    let ctx = Tensor::randn([192, 23], &mut rng);
    c.bench_function("lstm_48steps_fwd_bwd_192rows", |b| {
        b.iter(|| {
            let tape = Tape::new();
            let bind = Binding::new(&tape, &store);
            let sv = tape.leaf(series.clone());
            let cv = tape.leaf(ctx.clone());
            let loss = lstm.last_hidden(&bind, &sv, &cv).mean();
            tape.backward(&loss)
        })
    });
}

fn bench_train_step(c: &mut Criterion) {
    let ds = DatasetConfig {
        weeks: 1,
        steps_per_hour: 1,
        size_scale: 0.5,
    };
    let city = generate_city(
        &CityConfig {
            name: "B".into(),
            height: 40,
            width: 40,
            seed: 1,
        },
        &ds,
    );
    c.bench_function("spectragan_train_step", |b| {
        // One optimizer step (fresh model per iteration batch to keep
        // the cost measured stable); batch 3 patches at T = 168.
        let mut model = SpectraGan::new(SpectraGanConfig::default_hourly(), 0);
        let tc = TrainConfig {
            steps: 1,
            batch_patches: 3,
            lr: 2e-3,
            seed: 0,
        };
        let cities = vec![city.clone()];
        b.iter(|| model.train(black_box(&cities), &tc).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_conv2d, bench_lstm, bench_train_step
}
criterion_main!(benches);
