//! Criterion microbenches for the neural substrate: conv2d
//! forward/backward at model shapes, an LSTM step, fused LSTM
//! sequences of both feeds, the tape-free rollout, and a full
//! SpectraGAN training step.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spectragan_core::{SpectraGan, SpectraGanConfig, TrainConfig};
use spectragan_nn::{Binding, Conv2d, Linear, Lstm, ParamStore};
use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};
use spectragan_tensor::{pool, Tape, Tensor};
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
    // The residual generator `G^t`'s train shape: 3 patches of 8×8
    // pixels, 168 steps through a one-output head, as one fused node.
    let head = Linear::new(&mut store, 16, 1, &mut rng);
    c.bench_function("lstm_rollout_168steps_fwd_bwd_192rows", |b| {
        b.iter(|| {
            let tape = Tape::new();
            let bind = Binding::new(&tape, &store);
            let xw = lstm.precompute_input(&bind, &tape.leaf(x.clone()));
            let loss = lstm.rollout(&bind, &xw, &head, 168).mean();
            tape.backward(&loss)
        })
    });
}

/// The tape-free rollout at gen-city's shape (a 40×40 region's 1,600
/// pixel rows, 336 steps), on one thread so the kernel alone is timed.
fn bench_rollout_infer(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut store = ParamStore::new();
    let lstm = Lstm::new(&mut store, 24, 16, &mut rng);
    let head = Linear::new(&mut store, 16, 1, &mut rng);
    let xw = Tensor::randn([1600, 24], &mut rng).matmul(store.get(lstm.wx_param()));
    pool::set_threads(Some(1));
    c.bench_function("lstm_rollout_infer_336steps_1600rows", |b| {
        b.iter(|| lstm.rollout_infer(&store, black_box(&xw), &head, 336))
    });
    pool::set_threads(None);
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
    targets = bench_conv2d, bench_lstm, bench_rollout_infer, bench_train_step
}
criterion_main!(benches);
