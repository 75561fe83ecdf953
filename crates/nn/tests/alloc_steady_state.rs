//! Buffer-pool regression test: a constant-shape training loop must be
//! served entirely from the arena after warm-up.
//!
//! Every training step builds the same graph with the same shapes, so
//! once the pool holds one step's worth of buffers (plus the optimizer
//! moments), subsequent steps should hit the pool on every tensor —
//! zero fresh heap allocations per step. The graph includes one fused
//! LSTM sequence of each feed, whose saved records, gate gradients and
//! per-step weight gradients come from the same pool. A regression here (an op
//! building temporaries with `Vec::with_capacity` instead of the arena,
//! or a tape that drops buffers instead of recycling them) shows up as
//! a nonzero `fresh_allocs` count.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spectragan_nn::{Activation, Adam, Binding, Conv2d, Linear, Lstm, Mlp, ParamStore};
use spectragan_tensor::{arena, Tape, Tensor};

#[test]
fn steady_state_training_steps_allocate_nothing_fresh() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let conv = Conv2d::new(&mut store, 2, 4, 3, 1, &mut rng);
    let mlp = Mlp::new(
        &mut store,
        &[4 * 8 * 8, 16, 1],
        Activation::LeakyRelu,
        Activation::Identity,
        &mut rng,
    );
    let gen_lstm = Lstm::new(&mut store, 3, 4, &mut rng);
    let gen_head = Linear::new(&mut store, 4, 1, &mut rng);
    let disc_lstm = Lstm::new(&mut store, 1 + 2, 4, &mut rng);
    let mut opt = Adam::new(1e-3);

    // Hoisted tape, as the real training loops use it.
    let tape = Tape::new();
    let step = |rng: &mut StdRng, store: &mut ParamStore, opt: &mut Adam| {
        tape.reset_keep_capacity();
        let bind = Binding::new(&tape, store);
        let x = tape.leaf(Tensor::randn([2, 2, 8, 8], rng));
        let h = conv.forward(&bind, &x).leaky_relu(0.2);
        let rows = h.reshape([2, 4 * 8 * 8]);
        let feats = tape.leaf(Tensor::randn([6, 3], rng));
        let xw = gen_lstm.precompute_input(&bind, &feats);
        let series = gen_lstm.rollout(&bind, &xw, &gen_head, 10);
        let ctx = tape.leaf(Tensor::randn([6, 2], rng));
        let h = disc_lstm.last_hidden(&bind, &series.narrow(1, 2, 5), &ctx);
        let loss = mlp
            .forward(&bind, &rows)
            .square()
            .mean()
            .add(&h.square().mean());
        let grads = tape.backward(&loss);
        let bound = bind.bound();
        opt.step(store, &bound, &grads);
    };

    // Warm-up: populate the pool (and Adam's moment tensors, which are
    // created on the first update).
    for _ in 0..3 {
        step(&mut rng, &mut store, &mut opt);
    }
    // Release the last warm-up step's graph so its buffers are back in
    // the pool before counting starts.
    tape.reset_keep_capacity();

    arena::stats_take();
    let steps = 5;
    for _ in 0..steps {
        step(&mut rng, &mut store, &mut opt);
    }
    let stats = arena::stats_take();
    assert!(
        stats.reused > 0,
        "expected pool traffic, got none — is the arena wired in?"
    );
    assert_eq!(
        stats.fresh_allocs, 0,
        "steady-state steps allocated fresh buffers ({} allocs, {} bytes over {steps} steps) — \
         some op is bypassing the pool or the tape is dropping buffers",
        stats.fresh_allocs, stats.fresh_bytes
    );
}
