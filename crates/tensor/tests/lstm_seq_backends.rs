//! Gradient and thread-count checks of the fused LSTM sequence node.
//!
//! * Central finite differences confirm the hand-written backward
//!   through time of both feeds ([`Var::lstm_rollout`],
//!   [`Var::lstm_last_hidden`]), following the tape's own
//!   `grad_check`.
//! * At `default_hourly` shapes (hidden 16, 12 context channels, the
//!   generator's 168 steps and the discriminator's 48-step window),
//!   values and gradients are bit-identical at 1, 2 and 4 threads.
//!
//! The node's bit-for-bit contract with the per-step chain is
//! `spectragan-nn`'s `tests/lstm_seq.rs`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spectragan_tensor::{pool, Tape, Tensor, Var};
use std::rc::Rc;
use std::sync::Mutex;

/// The thread override is process-global; serialize.
static LOCK: Mutex<()> = Mutex::new(());

/// Which feed a graph uses, with its row count, hidden width, steps and
/// context width.
#[derive(Clone, Copy, Debug)]
enum Feed {
    Rollout {
        n: usize,
        hs: usize,
        t: usize,
    },
    LastHidden {
        n: usize,
        hs: usize,
        t: usize,
        c: usize,
    },
}

/// The node's operands, in the order [`graph`] takes them, plus a
/// fixed upstream weighting of its value.
fn operands(feed: Feed, rng: &mut StdRng) -> Vec<Tensor> {
    let w = |shape: &[usize], fan: usize, rng: &mut StdRng| {
        Tensor::randn(shape.to_vec(), rng).scale(1.0 / (fan as f32).sqrt())
    };
    match feed {
        Feed::Rollout { n, hs, t } => vec![
            Tensor::randn([n, 4 * hs], rng).scale(0.5),
            w(&[hs, 4 * hs], hs, rng),
            Tensor::randn([4 * hs], rng).scale(0.1),
            w(&[hs, 1], hs, rng),
            Tensor::randn([1], rng).scale(0.1),
            Tensor::randn([n, t], rng),
        ],
        Feed::LastHidden { n, hs, t, c } => vec![
            Tensor::randn([n, t], rng),
            Tensor::randn([n, c], rng),
            w(&[1 + c, 4 * hs], 1 + c, rng),
            w(&[hs, 4 * hs], hs, rng),
            Tensor::randn([4 * hs], rng).scale(0.1),
            Tensor::randn([n, hs], rng),
        ],
    }
}

/// `sum(node ⊙ weighting)` over the operands' leaves; returns the node
/// and the loss.
fn graph(feed: Feed, v: &[Var]) -> (Var, Var) {
    let node = match feed {
        Feed::Rollout { t, .. } => v[0].lstm_rollout(&v[1], &v[2], &v[3], &v[4], t),
        Feed::LastHidden { .. } => v[0].lstm_last_hidden(&v[1], &v[2], &v[3], &v[4]),
    };
    let loss = node.mul(&v[5]).sum();
    (node, loss)
}

/// The node's value and the gradient of every differentiable operand.
fn value_and_grads(feed: Feed, inputs: &[Tensor]) -> Vec<Tensor> {
    let tape = Tape::new();
    let vars: Vec<Var> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
    let (node, loss) = graph(feed, &vars);
    let grads = tape.backward(&loss);
    let mut out = vec![Rc::unwrap_or_clone(node.value())];
    out.extend(
        vars[..5]
            .iter()
            .map(|v| grads.get(v).expect("operand gradient").clone()),
    );
    out
}

/// Central-difference check of every operand element, as the tape's
/// `grad_check` does it.
fn grad_check(feed: Feed, inputs: &[Tensor]) {
    let analytic = value_and_grads(feed, inputs);
    let eps = 3e-3f32;
    let eval = |vi: usize, e: usize, delta: f32| -> f32 {
        let tape = Tape::new();
        let vars: Vec<Var> = inputs
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut t = t.clone();
                if i == vi {
                    t.data_mut()[e] += delta;
                }
                tape.leaf(t)
            })
            .collect();
        graph(feed, &vars).1.value().item()
    };
    for vi in 0..5 {
        for e in 0..inputs[vi].numel() {
            let numeric = (eval(vi, e, eps) - eval(vi, e, -eps)) / (2.0 * eps);
            let a = analytic[1 + vi].data()[e];
            let tol = 2e-2 * numeric.abs().max(a.abs()).max(1.0);
            assert!(
                (a - numeric).abs() < tol,
                "{feed:?} operand {vi} elem {e}: analytic {a} vs numeric {numeric}"
            );
        }
    }
}

#[test]
fn finite_differences_match_the_backward() {
    let mut rng = StdRng::seed_from_u64(7);
    for feed in [
        Feed::Rollout { n: 2, hs: 3, t: 5 },
        Feed::Rollout { n: 1, hs: 2, t: 1 },
        Feed::LastHidden {
            n: 2,
            hs: 3,
            t: 4,
            c: 2,
        },
        Feed::LastHidden {
            n: 3,
            hs: 2,
            t: 1,
            c: 1,
        },
    ] {
        grad_check(feed, &operands(feed, &mut rng));
    }
}

fn bits(ts: &[Tensor]) -> Vec<Vec<u32>> {
    ts.iter()
        .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn ignores_the_thread_count_at_default_hourly_shapes() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(11);
    for feed in [
        Feed::Rollout {
            n: 192,
            hs: 16,
            t: 168,
        },
        Feed::LastHidden {
            n: 192,
            hs: 16,
            t: 48,
            c: 12,
        },
    ] {
        let inputs = operands(feed, &mut rng);
        pool::set_threads(Some(1));
        let serial = value_and_grads(feed, &inputs);
        for threads in [2, 4] {
            pool::set_threads(Some(threads));
            let again = value_and_grads(feed, &inputs);
            assert!(
                bits(&again) == bits(&serial),
                "{feed:?}: {threads} threads differ from 1 thread"
            );
        }
    }
    pool::set_threads(None);
}
