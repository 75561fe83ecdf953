//! The typed op set of the autodiff tape and its backward interpreter.
//!
//! Every differentiable operation is a variant of [`Op`]: parent node
//! indices plus whatever scalars the backward pass needs. Backward is
//! one interpreter, [`backward_node`], instead of per-node boxed
//! closures — ops are data, the reverse walk dispatches on the enum.
//!
//! **Determinism contract.** For each variant the interpreter computes
//! the *identical floating-point expressions* in the *identical order*
//! as the closure engine it replaced: per-parent contributions are
//! produced in the old parent order and accumulated with the same
//! `add_assign`-or-move rule, so the refactor is bit-invisible (the
//! golden fixtures in `spectragan-core` pin this down).
//!
//! The two fused variants ([`Op::MatmulBiasAct`], [`Op::Conv2dBias`])
//! collapse the dominant 2–3-node chains of the models into one node.
//! Their forward kernels run the *same* matmul/conv kernel followed by
//! an in-place bias add (and activation) with the same per-element
//! operation order as the unfused chain, and their backward recovers
//! the pre-activation gradient from the node's own output — valid
//! bitwise because `relu`/`leaky_relu` masks satisfy `y > 0 ⟺ x > 0`
//! for positive slopes and the smooth activations' derivatives are
//! functions of the output. Fused and unfused compositions are
//! therefore bit-equal in both directions (asserted by tests).
//!
//! [`Op::LstmSeq`] is a whole LSTM recurrence as one node; its kernels
//! and the order its backward keeps live in [`crate::lstm_seq`].

use crate::lstm_seq::SeqInput;
use crate::math;
use crate::tensor::Tensor;
use std::rc::Rc;

/// Activation fused into [`Op::MatmulBiasAct`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusedAct {
    /// No activation.
    Identity,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with the given (positive) negative slope.
    LeakyRelu(f32),
}

/// A tape node's operation: parent indices plus backward scalars.
#[derive(Debug, Clone)]
pub enum Op {
    /// Input node; backward stops here.
    Leaf,
    /// `a + b` elementwise.
    Add(usize, usize),
    /// `a - b` elementwise.
    Sub(usize, usize),
    /// `a ⊙ b` elementwise.
    Mul(usize, usize),
    /// `a / b` elementwise.
    Div(usize, usize),
    /// `x · s` for scalar `s`.
    Scale(usize, f32),
    /// `x + s` for scalar `s`.
    AddScalar(usize),
    /// `[N, M] + [M]` broadcast over rows.
    AddRowVec { x: usize, b: usize },
    /// `[N, C, H, W] + [C]` broadcast over channels.
    AddChannelBias { x: usize, b: usize },
    /// Logistic sigmoid.
    Sigmoid(usize),
    /// Hyperbolic tangent.
    Tanh(usize),
    /// Rectified linear unit.
    Relu(usize),
    /// Leaky ReLU with negative slope.
    LeakyRelu(usize, f32),
    /// Elementwise exponential.
    Exp(usize),
    /// Numerically-stable softplus.
    Softplus(usize),
    /// `sqrt(x + eps)` (backward needs only the output).
    SqrtEps(usize),
    /// Elementwise absolute value.
    Abs(usize),
    /// Clamp into `[lo, hi]`.
    Clamp { x: usize, lo: f32, hi: f32 },
    /// Elementwise square.
    Square(usize),
    /// `[m, k] @ [k, n]`.
    Matmul(usize, usize),
    /// Matmul with a constant (non-differentiated) right operand.
    MatmulConst { x: usize, m: Rc<Tensor> },
    /// 2-D cross-correlation, stride 1, zero padding `pad`.
    Conv2d { x: usize, w: usize, pad: usize },
    /// Reshape (backward restores the parent's shape).
    Reshape(usize),
    /// Axis permutation; `inverse` is the backward permutation.
    Permute { x: usize, inverse: Vec<usize> },
    /// 2×2 average pooling, stride 2.
    AvgPool2(usize),
    /// Contiguous slice along `axis` starting at `start`.
    Narrow { x: usize, axis: usize, start: usize },
    /// Concatenation of `parts` along `axis`.
    Concat { parts: Vec<usize>, axis: usize },
    /// Sum of all elements.
    Sum(usize),
    /// Mean of all elements.
    Mean(usize),
    /// Mean absolute error against a constant target.
    L1To { x: usize, target: Rc<Tensor> },
    /// Mean squared error against a constant target.
    MseTo { x: usize, target: Rc<Tensor> },
    /// `mean(softplus(x) − y·x)` against a constant label.
    BceWithLogits { x: usize, y: f32 },
    /// Fused `act(a @ w + b)` (one node instead of three).
    MatmulBiasAct {
        a: usize,
        w: usize,
        b: usize,
        act: FusedAct,
    },
    /// Fused `conv2d(x, w, pad) + b` (one node instead of two).
    Conv2dBias {
        x: usize,
        w: usize,
        b: usize,
        pad: usize,
    },
    /// A whole LSTM sequence from the zero state (see
    /// [`crate::lstm_seq`]): `input` feeds a cell with recurrent weight
    /// `wh` and bias `b`; `saved` holds every row-step's activated
    /// gates, cell state, `tanh(c)` and hidden state.
    LstmSeq {
        input: SeqInput,
        wh: usize,
        b: usize,
        saved: Rc<Tensor>,
    },
}

impl Op {
    /// The op's stable lowercase name: its forward and backward spans
    /// carry it, so it keys the `op_stats` rows of `train_log.jsonl`.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::Div(..) => "div",
            Op::Scale(..) => "scale",
            Op::AddScalar(..) => "add_scalar",
            Op::AddRowVec { .. } => "add_rowvec",
            Op::AddChannelBias { .. } => "add_channel_bias",
            Op::Sigmoid(..) => "sigmoid",
            Op::Tanh(..) => "tanh",
            Op::Relu(..) => "relu",
            Op::LeakyRelu(..) => "leaky_relu",
            Op::Exp(..) => "exp",
            Op::Softplus(..) => "softplus",
            Op::SqrtEps(..) => "sqrt_eps",
            Op::Abs(..) => "abs",
            Op::Clamp { .. } => "clamp",
            Op::Square(..) => "square",
            Op::Matmul(..) => "matmul",
            Op::MatmulConst { .. } => "matmul_const",
            Op::Conv2d { .. } => "conv2d",
            Op::Reshape(..) => "reshape",
            Op::Permute { .. } => "permute",
            Op::AvgPool2(..) => "avg_pool2",
            Op::Narrow { .. } => "narrow",
            Op::Concat { .. } => "concat",
            Op::Sum(..) => "sum",
            Op::Mean(..) => "mean",
            Op::L1To { .. } => "l1_to",
            Op::MseTo { .. } => "mse_to",
            Op::BceWithLogits { .. } => "bce_with_logits",
            Op::MatmulBiasAct { .. } => "matmul_bias_act",
            Op::Conv2dBias { .. } => "conv2d_bias",
            Op::LstmSeq { .. } => "lstm_seq",
        }
    }

    /// Whether `pred` holds for any parent of the node.
    pub(crate) fn any_parent(&self, pred: impl Fn(usize) -> bool) -> bool {
        match self {
            Op::Leaf => false,
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b) | Op::Matmul(a, b) => {
                pred(*a) || pred(*b)
            }
            Op::AddRowVec { x, b } | Op::AddChannelBias { x, b } => pred(*x) || pred(*b),
            Op::Scale(x, _)
            | Op::AddScalar(x)
            | Op::Sigmoid(x)
            | Op::Tanh(x)
            | Op::Relu(x)
            | Op::LeakyRelu(x, _)
            | Op::Exp(x)
            | Op::Softplus(x)
            | Op::SqrtEps(x)
            | Op::Abs(x)
            | Op::Square(x)
            | Op::Reshape(x)
            | Op::AvgPool2(x)
            | Op::Sum(x)
            | Op::Mean(x)
            | Op::Clamp { x, .. }
            | Op::MatmulConst { x, .. }
            | Op::Permute { x, .. }
            | Op::Narrow { x, .. }
            | Op::L1To { x, .. }
            | Op::MseTo { x, .. }
            | Op::BceWithLogits { x, .. } => pred(*x),
            Op::Conv2d { x, w, .. } => pred(*x) || pred(*w),
            Op::Concat { parts, .. } => parts.iter().any(|&p| pred(p)),
            Op::MatmulBiasAct { a: x, w, b, .. } | Op::Conv2dBias { x, w, b, .. } => {
                pred(*x) || pred(*w) || pred(*b)
            }
            Op::LstmSeq { input, wh, b, .. } => pred(*wh) || pred(*b) || input.any(pred),
        }
    }
}

/// Numerically stable `ln(1 + e^x)`: [`math::exp`], then libm's
/// `ln_1p` in the middle range.
pub fn softplus_scalar(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        math::exp(x)
    } else {
        math::exp(x).ln_1p()
    }
}

/// Applies a fused activation to a slice, with the same expressions as
/// the standalone activation ops, so fused and unfused compositions
/// are bit-equal.
pub(crate) fn apply_act_slice(y: &mut [f32], act: FusedAct) {
    match act {
        FusedAct::Identity => {}
        FusedAct::Sigmoid => math::sigmoid_slice(y),
        FusedAct::Tanh => math::tanh_slice(y),
        FusedAct::Relu => {
            for v in y {
                *v = v.max(0.0);
            }
        }
        FusedAct::LeakyRelu(alpha) => {
            for v in y {
                *v = if *v > 0.0 { *v } else { alpha * *v };
            }
        }
    }
}

/// Applies a fused activation in place over a whole tensor.
pub(crate) fn apply_act_inplace(y: &mut Tensor, act: FusedAct) {
    apply_act_slice(y.data_mut(), act);
}

/// Forward kernel of [`Op::MatmulBiasAct`]: validates shapes, then runs
/// the plain matmul kernel, the bias added in `add_rowvec`'s loop
/// order, and the activation in place — bit-equal to the unfused
/// three-node chain.
pub(crate) fn matmul_bias_act_forward(a: &Tensor, w: &Tensor, b: &Tensor, act: FusedAct) -> Tensor {
    crate::tensor::matmul_check(a, w);
    let m = w.shape().dim(1);
    assert_eq!(
        b.shape().dims(),
        &[m],
        "bias shape {} does not match row width {m}",
        b.shape()
    );
    let mut y = a.matmul(w);
    for row in y.data_mut().chunks_exact_mut(m.max(1)) {
        for (v, &bv) in row.iter_mut().zip(b.data()) {
            *v += bv;
        }
    }
    apply_act_inplace(&mut y, act);
    y
}

/// Forward kernel of [`Op::Conv2dBias`]: validates shapes, then runs
/// the plain conv2d kernel and adds the bias in `add_channel_bias`'s
/// loop order.
pub(crate) fn conv2d_bias_forward(x: &Tensor, w: &Tensor, b: &Tensor, pad: usize) -> Tensor {
    crate::conv::conv2d_out_shape(x.shape(), w.shape(), pad);
    let c = w.shape().dim(0);
    assert_eq!(
        b.shape().dims(),
        &[c],
        "bias shape {} does not match channels {c}",
        b.shape()
    );
    let mut y = x.conv2d(w, pad);
    crate::conv::add_channel_bias_inplace(&mut y, b);
    y
}

/// Pre-activation gradient of a fused activation, from the upstream
/// gradient `g` and the *activated output* `y`. The relu family uses
/// the output-sign mask, which equals the input-sign mask bitwise
/// (`y > 0 ⟺ x > 0` for `alpha > 0`); the smooth activations'
/// derivatives are the standalone ops' output-based expressions.
fn act_backward(g: &Tensor, y: &Tensor, act: FusedAct) -> Tensor {
    match act {
        FusedAct::Identity => g.clone(),
        FusedAct::Sigmoid => g.zip(y, |gi, yv| gi * yv * (1.0 - yv)),
        FusedAct::Tanh => g.zip(y, |gi, yv| gi * (1.0 - yv * yv)),
        FusedAct::Relu => g.zip(y, |gi, yv| if yv > 0.0 { gi } else { 0.0 }),
        FusedAct::LeakyRelu(alpha) => g.zip(y, |gi, yv| if yv > 0.0 { gi } else { alpha * gi }),
    }
}

/// Column sums of `g: [N, M] → [M]` in `add_rowvec`'s backward loop
/// order (rows outer).
fn rowvec_bias_grad(g: &Tensor) -> Tensor {
    let (n, m) = (g.shape().dim(0), g.shape().dim(1));
    let mut gb = Tensor::zeros([m]);
    for row in 0..n {
        for col in 0..m {
            gb.data_mut()[col] += g.data()[row * m + col];
        }
    }
    gb
}

/// Per-channel sums of `g: [N, C, H, W] → [C]` in `add_channel_bias`'s
/// backward loop order.
fn channel_bias_grad(g: &Tensor) -> Tensor {
    let (n, c) = (g.shape().dim(0), g.shape().dim(1));
    let hw = g.shape().dim(2) * g.shape().dim(3);
    let mut gb = Tensor::zeros([c]);
    for bi in 0..n {
        for ci in 0..c {
            let base = (bi * c + ci) * hw;
            gb.data_mut()[ci] += g.data()[base..base + hw].iter().sum::<f32>();
        }
    }
    gb
}

/// Accumulates a parent contribution with the tape's move-or-add rule
/// (first writer moves, later writers `add_assign` in visit order),
/// computing it only when `need` marks the parent.
#[inline]
fn acc(
    grads: &mut [Option<Tensor>],
    need: &[bool],
    parent: usize,
    contrib: impl FnOnce() -> Tensor,
) {
    if !need[parent] {
        return;
    }
    let contrib = contrib();
    match &mut grads[parent] {
        Some(existing) => existing.add_assign(&contrib),
        slot @ None => *slot = Some(contrib),
    }
}

/// Runs the backward step of node `id`: computes each marked parent's
/// gradient contribution from the upstream gradient `g` and
/// accumulates it into `grads`, preserving the closure engine's exact
/// expressions and accumulation order. `values[i]` is node `i`'s
/// forward value; `values[id]` is this node's own output. A parent
/// that `need` does not mark gets no contribution, and none is
/// computed for it.
pub(crate) fn backward_node(
    op: &Op,
    id: usize,
    values: &[Rc<Tensor>],
    g: &Tensor,
    grads: &mut [Option<Tensor>],
    need: &[bool],
) {
    let val = |i: usize| -> &Tensor { &values[i] };
    match op {
        Op::Leaf => {}
        Op::Add(a, b) => {
            acc(grads, need, *a, || g.clone());
            acc(grads, need, *b, || g.clone());
        }
        Op::Sub(a, b) => {
            acc(grads, need, *a, || g.clone());
            acc(grads, need, *b, || g.scale(-1.0));
        }
        Op::Mul(a, b) => {
            acc(grads, need, *a, || g.mul(val(*b)));
            acc(grads, need, *b, || g.mul(val(*a)));
        }
        Op::Div(a, b) => {
            acc(grads, need, *a, || g.zip(val(*b), |gi, yi| gi / yi));
            acc(grads, need, *b, || {
                g.zip(val(*a), |gi, xi| gi * xi)
                    .zip(val(*b), |t, yi| -t / (yi * yi))
            });
        }
        Op::Scale(x, s) => {
            let s = *s;
            acc(grads, need, *x, || g.scale(s));
        }
        Op::AddScalar(x) => acc(grads, need, *x, || g.clone()),
        Op::AddRowVec { x, b } => {
            acc(grads, need, *x, || g.clone());
            acc(grads, need, *b, || rowvec_bias_grad(g));
        }
        Op::AddChannelBias { x, b } => {
            acc(grads, need, *x, || g.clone());
            acc(grads, need, *b, || channel_bias_grad(g));
        }
        Op::Sigmoid(x) => acc(grads, need, *x, || {
            g.zip(val(id), |gi, y| gi * y * (1.0 - y))
        }),
        Op::Tanh(x) => acc(grads, need, *x, || {
            g.zip(val(id), |gi, y| gi * (1.0 - y * y))
        }),
        Op::Relu(x) => acc(grads, need, *x, || {
            g.zip(val(*x), |gi, xi| if xi > 0.0 { gi } else { 0.0 })
        }),
        Op::LeakyRelu(x, alpha) => {
            let alpha = *alpha;
            acc(grads, need, *x, || {
                g.zip(val(*x), |gi, xi| if xi > 0.0 { gi } else { alpha * gi })
            });
        }
        Op::Exp(x) => acc(grads, need, *x, || g.mul(val(id))),
        Op::Softplus(x) => acc(grads, need, *x, || {
            g.zip(val(*x), |gi, xi| gi / (1.0 + math::exp(-xi)))
        }),
        Op::SqrtEps(x) => acc(grads, need, *x, || g.zip(val(id), |gi, y| gi * 0.5 / y)),
        Op::Abs(x) => acc(grads, need, *x, || {
            g.zip(val(*x), |gi, xi| {
                if xi > 0.0 {
                    gi
                } else if xi < 0.0 {
                    -gi
                } else {
                    0.0
                }
            })
        }),
        Op::Clamp { x, lo, hi } => {
            let (lo, hi) = (*lo, *hi);
            acc(grads, need, *x, || {
                g.zip(val(*x), |gi, xi| if xi > lo && xi < hi { gi } else { 0.0 })
            });
        }
        Op::Square(x) => acc(grads, need, *x, || g.zip(val(*x), |gi, xi| 2.0 * gi * xi)),
        Op::Matmul(a, b) => {
            acc(grads, need, *a, || g.matmul_bt(val(*b)));
            acc(grads, need, *b, || val(*a).matmul_tb(g));
        }
        Op::MatmulConst { x, m } => acc(grads, need, *x, || g.matmul_bt(m)),
        Op::Conv2d { x, w, pad } => {
            acc(grads, need, *x, || {
                Tensor::conv2d_grad_input(g, val(*w), val(*x).shape(), *pad)
            });
            acc(grads, need, *w, || {
                Tensor::conv2d_grad_weight(g, val(*x), val(*w).shape(), *pad)
            });
        }
        Op::Reshape(x) => acc(grads, need, *x, || g.reshape(val(*x).shape().clone())),
        Op::Permute { x, inverse } => acc(grads, need, *x, || g.permute(inverse)),
        Op::AvgPool2(x) => {
            let in_shape = val(*x).shape();
            let (n, c) = (in_shape.dim(0), in_shape.dim(1));
            let (h, w) = (in_shape.dim(2), in_shape.dim(3));
            let (oh, ow) = (h / 2, w / 2);
            let mut out = Tensor::zeros(in_shape.clone());
            for b in 0..n {
                for ch in 0..c {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let gv = 0.25 * g.at(&[b, ch, oy, ox]);
                            let base = ((b * c + ch) * h + 2 * oy) * w + 2 * ox;
                            out.data_mut()[base] += gv;
                            out.data_mut()[base + 1] += gv;
                            out.data_mut()[base + w] += gv;
                            out.data_mut()[base + w + 1] += gv;
                        }
                    }
                }
            }
            acc(grads, need, *x, || out);
        }
        Op::Narrow { x, axis, start } => {
            // Scatter the slice gradient back into a zero tensor.
            let full = val(*x).shape().clone();
            let len = g.shape().dim(*axis);
            let mut out = Tensor::zeros(full.clone());
            let dims = full.dims();
            let outer: usize = dims[..*axis].iter().product();
            let inner: usize = dims[*axis + 1..].iter().product();
            for o in 0..outer {
                let dst = (o * dims[*axis] + start) * inner;
                let src = o * len * inner;
                out.data_mut()[dst..dst + len * inner]
                    .copy_from_slice(&g.data()[src..src + len * inner]);
            }
            acc(grads, need, *x, || out);
        }
        Op::Concat { parts, axis } => {
            let mut start = 0usize;
            for &p in parts {
                let len = val(p).shape().dim(*axis);
                acc(grads, need, p, || g.narrow(*axis, start, len));
                start += len;
            }
        }
        Op::Sum(x) => acc(grads, need, *x, || {
            Tensor::full(val(*x).shape().clone(), g.item())
        }),
        Op::Mean(x) => {
            let n = val(*x).numel() as f32;
            acc(grads, need, *x, || {
                Tensor::full(val(*x).shape().clone(), g.item() / n)
            });
        }
        Op::L1To { x, target } => {
            let n = val(*x).numel() as f32;
            let gi = g.item() / n;
            acc(grads, need, *x, || {
                val(*x).zip(target, |a, b| {
                    if a > b {
                        gi
                    } else if a < b {
                        -gi
                    } else {
                        0.0
                    }
                })
            });
        }
        Op::MseTo { x, target } => {
            let n = val(*x).numel() as f32;
            let gi = 2.0 * g.item() / n;
            acc(grads, need, *x, || val(*x).zip(target, |a, b| gi * (a - b)));
        }
        Op::BceWithLogits { x, y } => {
            let n = val(*x).numel() as f32;
            let gi = g.item() / n;
            let y = *y;
            // d/dx [softplus(x) − y·x] = σ(x) − y.
            acc(grads, need, *x, || {
                val(*x).map(|xi| gi * (math::sigmoid(xi) - y))
            });
        }
        Op::MatmulBiasAct { a, w, b, act } => {
            let gpre = act_backward(g, val(id), *act);
            acc(grads, need, *a, || gpre.matmul_bt(val(*w)));
            acc(grads, need, *w, || val(*a).matmul_tb(&gpre));
            acc(grads, need, *b, || rowvec_bias_grad(&gpre));
        }
        Op::Conv2dBias { x, w, b, pad } => {
            acc(grads, need, *x, || {
                Tensor::conv2d_grad_input(g, val(*w), val(*x).shape(), *pad)
            });
            acc(grads, need, *w, || {
                Tensor::conv2d_grad_weight(g, val(*x), val(*w).shape(), *pad)
            });
            acc(grads, need, *b, || channel_bias_grad(g));
        }
        Op::LstmSeq {
            input,
            wh,
            b,
            saved,
        } => crate::lstm_seq::backward(input, *wh, *b, saved, values, g, grads, need),
    }
}
