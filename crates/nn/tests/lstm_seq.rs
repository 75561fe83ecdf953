//! Bit-for-bit equality of the fused LSTM sequence node with the
//! per-step composition it replaces.
//!
//! [`Lstm::rollout`] and [`Lstm::last_hidden`] record one tape node for
//! a whole sequence. The reference is the step loop they replaced, kept
//! as the public per-step API: [`Lstm::step_projected`] with
//! [`Linear::forward`] joined by [`Var::concat`], and [`Lstm::step`]
//! over `Var::concat(&[series.narrow(1, t, 1), ctx], 1)`. Under the
//! scalar backend every property compares the bits of the node's value
//! and of every gradient the graph produces: `Wx`, `Wh`, `b`, the
//! head's weight and bias, and the `xw`, series and context inputs.
//! Weights, inputs and the upstream gradient are seeded with `±0.0`,
//! `±inf` and NaN, whose results depend on order and sign where finite
//! data may not. NaN payloads are not compared.
//!
//! The graphs also cover what training does with the node: a
//! discriminator LSTM run twice on shared weights and a shared context
//! that a third node reads in between, once on a window of the series,
//! and an `xw` that another node reads after the rollout — so gradient
//! slots are both created and added to by the node. Each fused graph
//! runs at 1, 2 and 4 threads; two fixed cases are large enough to
//! cross the pool's serial cutoff.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spectragan_nn::{Binding, Linear, Lstm, ParamStore, Tape, Tensor, Var};
use spectragan_tensor::{pool, set_backend, BackendKind};
use std::sync::Mutex;

/// Backend and thread overrides are process-global; serialize.
static LOCK: Mutex<()> = Mutex::new(());

const THREADS: [usize; 3] = [1, 2, 4];

/// Normal draws times `scale`, with roughly one element in
/// `1/special_rate` replaced by `±0.0`, `±inf` or NaN
/// (`special_rate == 0` keeps them finite).
fn seeded(shape: &[usize], scale: f32, special_rate: u32, rng: &mut StdRng) -> Tensor {
    const SPECIALS: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let mut t = Tensor::randn(shape.to_vec(), rng).scale(scale);
    if special_rate > 0 {
        for v in t.data_mut() {
            if rng.gen_range(0..special_rate) == 0 {
                *v = SPECIALS[rng.gen_range(0..SPECIALS.len())];
            }
        }
    }
    t
}

/// An LSTM with a one-output head, every parameter re-drawn by
/// [`seeded`].
fn model(
    input: usize,
    hidden: usize,
    special_rate: u32,
    rng: &mut StdRng,
) -> (ParamStore, Lstm, Linear) {
    let mut store = ParamStore::new();
    let lstm = Lstm::new(&mut store, input, hidden, rng);
    let head = Linear::new(&mut store, hidden, 1, rng);
    let ids: Vec<_> = store.ids().collect();
    for id in ids {
        let shape = store.shape(id).dims().to_vec();
        *store.get_mut(id) = seeded(&shape, 0.5, special_rate, rng);
    }
    (store, lstm, head)
}

/// The node's value, then each parameter's gradient in store order,
/// then each input's gradient, as bit patterns (NaN as one pattern).
type Bits = Vec<Vec<u32>>;

fn bits(t: Option<&Tensor>) -> Vec<u32> {
    t.map_or_else(Vec::new, |t| {
        t.data()
            .iter()
            .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
            .collect()
    })
}

fn collect(
    value: &Var,
    bind: &Binding<'_>,
    store: &ParamStore,
    loss: &Var,
    inputs: &[&Var],
) -> Bits {
    let grads = bind.tape().backward(loss);
    let bound = bind.bound();
    let mut out = vec![bits(Some(&value.value()))];
    for id in store.ids() {
        let var = bound.iter().find(|(b, _)| *b == id).map(|(_, v)| v);
        out.push(bits(var.and_then(|v| grads.get(v))));
    }
    for v in inputs {
        out.push(bits(grads.get(v)));
    }
    out
}

/// Names the first differing entry of two [`Bits`].
fn diff(got: &Bits, want: &Bits, names: &[&str]) -> Option<String> {
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        if g.len() != w.len() {
            return Some(format!("{}: {} vs {} elements", names[k], g.len(), w.len()));
        }
        if let Some(i) = g.iter().zip(w).position(|(a, b)| a != b) {
            return Some(format!(
                "{} element {i}: {:e} ({:#010x}), reference {:e} ({:#010x})",
                names[k],
                f32::from_bits(g[i]),
                g[i],
                f32::from_bits(w[i]),
                w[i]
            ));
        }
    }
    None
}

const PARAMS: [&str; 5] = ["Wx", "Wh", "b", "head w", "head b"];

/// Shape (a): `Lstm::rollout` against the `step_projected` loop, with
/// `xw` optionally read again after the rollout.
fn check_rollout(
    n: usize,
    hidden: usize,
    t: usize,
    special_rate: u32,
    seed: u64,
    xw_read_after: bool,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let input = 3;
    let (store, lstm, head) = model(input, hidden, special_rate, &mut rng);
    let rows = seeded(&[n, input], 1.0, special_rate, &mut rng);
    let g_out = seeded(&[n, t], 1.0, special_rate, &mut rng);
    let g_xw = seeded(&[n, 4 * hidden], 1.0, special_rate, &mut rng);
    let run = |fused: bool| -> Bits {
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let rows_v = tape.leaf(rows.clone());
        let xw = lstm.precompute_input(&bind, &rows_v);
        let out = if fused {
            lstm.rollout(&bind, &xw, &head, t)
        } else {
            let mut state = lstm.zero_state(&bind, n);
            let mut outs = Vec::with_capacity(t);
            for _ in 0..t {
                state = lstm.step_projected(&bind, &xw, &state);
                outs.push(head.forward(&bind, &state.h));
            }
            Var::concat(&outs, 1)
        };
        let mut loss = out.mul(&tape.leaf(g_out.clone())).sum();
        if xw_read_after {
            loss = loss.add(&xw.mul(&tape.leaf(g_xw.clone())).sum());
        }
        collect(&out, &bind, &store, &loss, &[&xw, &rows_v])
    };
    let names = [&["value"][..], &PARAMS, &["xw", "rows"]].concat();
    sweep(run, &names, &format!("rollout n={n} hidden={hidden} t={t} specials={special_rate} seed={seed} xw_read_after={xw_read_after}"))
}

/// Shape (b) as training uses it: `Lstm::last_hidden` twice on shared
/// weights and a shared context node, the second time on a window of
/// the same series, with a third node reading the context between the
/// two; against the `step` loop.
fn check_last_hidden(
    n: usize,
    hidden: usize,
    t: usize,
    c: usize,
    special_rate: u32,
    seed: u64,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (store, lstm, _) = model(1 + c, hidden, special_rate, &mut rng);
    let series = seeded(&[n, t], 1.0, special_rate, &mut rng);
    let ctx = seeded(&[n, c], 1.0, special_rate, &mut rng);
    let g1 = seeded(&[n, hidden], 1.0, special_rate, &mut rng);
    let g2 = seeded(&[n, hidden], 1.0, special_rate, &mut rng);
    let g3 = seeded(&[n, c], 1.0, special_rate, &mut rng);
    let win = rng.gen_range(1..=t);
    let w0 = rng.gen_range(0..=t - win);
    let run = |fused: bool| -> Bits {
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let series_v = tape.leaf(series.clone());
        let ctx_leaf = tape.leaf(ctx.clone());
        let ctx_v = ctx_leaf.tanh();
        let encode = |s: &Var| -> Var {
            if fused {
                lstm.last_hidden(&bind, s, &ctx_v)
            } else {
                let mut state = lstm.zero_state(&bind, n);
                for step in 0..s.shape().dim(1) {
                    let inp = Var::concat(&[s.narrow(1, step, 1), ctx_v.clone()], 1);
                    state = lstm.step(&bind, &inp, &state);
                }
                state.h
            }
        };
        let h1 = encode(&series_v);
        let third = ctx_v.mul(&tape.leaf(g3.clone())).sum();
        let h2 = encode(&series_v.narrow(1, w0, win));
        let loss = h1
            .mul(&tape.leaf(g1.clone()))
            .sum()
            .add(&third)
            .add(&h2.mul(&tape.leaf(g2.clone())).sum());
        let mut out = collect(&h1, &bind, &store, &loss, &[&series_v, &ctx_leaf]);
        out.push(bits(Some(&h2.value())));
        out
    };
    let names = [
        &["value"][..],
        &PARAMS,
        &["series", "ctx", "windowed value"],
    ]
    .concat();
    sweep(run, &names, &format!("last_hidden n={n} hidden={hidden} t={t} c={c} window={w0}+{win} specials={special_rate} seed={seed}"))
}

/// Runs the reference once and the fused graph at every thread count in
/// [`THREADS`], under the scalar backend.
fn sweep(run: impl Fn(bool) -> Bits, names: &[&str], case: &str) -> Result<(), String> {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_backend(Some(BackendKind::Scalar));
    pool::set_threads(Some(1));
    let want = run(false);
    let mut outcome = Ok(());
    for threads in THREADS {
        pool::set_threads(Some(threads));
        if let Some(d) = diff(&run(true), &want, names) {
            outcome = Err(format!("{case}, threads={threads}: {d}"));
            break;
        }
    }
    pool::set_threads(None);
    set_backend(None);
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rollout_matches_the_step_loop(
        (n, hidden, t) in (1usize..=6, 1usize..=8, 1usize..=12),
        special_rate in 0u32..3,
        xw_read_after in 0u32..2,
        seed in 0u64..1_000_000,
    ) {
        let special_rate = [0, 24, 5][special_rate as usize];
        let r = check_rollout(n, hidden, t, special_rate, seed, xw_read_after == 1);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn last_hidden_matches_the_step_loop(
        (n, hidden, t) in (1usize..=6, 1usize..=8, 1usize..=12),
        c in 1usize..=5,
        special_rate in 0u32..3,
        seed in 0u64..1_000_000,
    ) {
        let special_rate = [0, 24, 5][special_rate as usize];
        let r = check_last_hidden(n, hidden, t, c, special_rate, seed);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

/// Shapes large enough for every pass of the node to cross the pool's
/// serial cutoff, so 2 and 4 threads really split rows and steps.
#[test]
fn parallel_passes_match_the_step_loop() {
    check_rollout(96, 16, 40, 40, 1, true).unwrap();
    check_last_hidden(96, 16, 24, 12, 40, 2).unwrap();
}

/// An upstream gradient of signed zeros: every gate gradient is `±0.0`
/// before the `+ 0.0` that `narrow`'s scatter applied.
#[test]
fn zero_upstream_gradients_keep_their_signs() {
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let (store, lstm, head) = model(2, 3, 0, &mut rng);
        let rows = seeded(&[2, 2], 1.0, 0, &mut rng);
        let run = |fused: bool| -> Bits {
            let tape = Tape::new();
            let bind = Binding::new(&tape, &store);
            let xw = lstm.precompute_input(&bind, &tape.leaf(rows.clone()));
            let out = if fused {
                lstm.rollout(&bind, &xw, &head, 1)
            } else {
                let state = lstm.step_projected(&bind, &xw, &lstm.zero_state(&bind, 2));
                Var::concat(&[head.forward(&bind, &state.h)], 1)
            };
            let loss = out.mul(&tape.leaf(Tensor::zeros([2, 1]).scale(-1.0))).sum();
            collect(&out, &bind, &store, &loss, &[&xw])
        };
        let names = [&["value"][..], &PARAMS, &["xw"]].concat();
        sweep(run, &names, &format!("zero upstream seed={seed}")).unwrap();
    }
}
