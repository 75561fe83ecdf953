//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records a dynamic computation graph: every differentiable
//! op appends one node holding its result value and a typed
//! [`Op`] describing how the node was produced (parent indices plus the
//! scalars backward needs). [`Tape::backward`] seeds the output
//! gradient and walks nodes in reverse creation order — a valid reverse
//! topological order by construction, since an op can only consume
//! already-created nodes — dispatching each node through the single
//! backward interpreter in [`crate::ops`].
//!
//! [`Var`] is a cheap handle (tape pointer + node index). Values are
//! stored as `Rc<Tensor>`, so revisiting an operand in backward never
//! copies the buffer. Buffers themselves come from the thread-local
//! [`crate::arena`] pool; [`Tape::reset_keep_capacity`] clears the
//! node arena while *returning* every activation buffer to the pool,
//! so a hoisted tape re-runs the next step allocation-free.
//!
//! The op set is exactly what the SpectraGAN models need: arithmetic,
//! activations, matmul, conv2d, bias broadcasts, concat/narrow/reshape,
//! reductions, GAN losses — plus the fused `matmul+bias+activation` and
//! `conv2d+bias` kernels the layer stack emits, and whole LSTM
//! sequences ([`crate::lstm_seq`]). Every op has a finite-difference
//! gradient check, in this module's tests or, for the LSTM sequence,
//! in `tests/lstm_seq_backends.rs`.

use crate::lstm_seq::SeqInput;
use crate::math;
use crate::ops::{self, Op};
use crate::shape::Shape;
use crate::tensor::Tensor;
use spectragan_obs as obs;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

pub use crate::ops::FusedAct;

pub(crate) struct Node {
    value: Rc<Tensor>,
    op: Op,
}

/// A recording of a differentiable computation.
///
/// Create leaves with [`Tape::leaf`], combine them with the ops on
/// [`Var`], then call [`Tape::backward`] on a scalar output.
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    /// Peak node count seen by [`Tape::reset_keep_capacity`], used to
    /// pre-size the arena on the first push after a reset.
    high_water: Cell<usize>,
}

impl Tape {
    /// Creates an empty tape, wrapped for shared ownership by [`Var`]s.
    pub fn new() -> Rc<Tape> {
        Rc::new(Tape::default())
    }

    /// Creates a tape whose node arena is pre-sized for `nodes` ops.
    pub fn with_capacity(nodes: usize) -> Rc<Tape> {
        Rc::new(Tape {
            nodes: RefCell::new(Vec::with_capacity(nodes)),
            high_water: Cell::new(nodes),
        })
    }

    /// Registers `value` as a leaf (no parents) and returns its handle.
    pub fn leaf(self: &Rc<Self>, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Number of nodes currently recorded.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Clears all nodes but keeps the node arena's capacity (sized to
    /// the peak node count seen so far), and releases every node's
    /// tensor buffer back to the [`crate::arena`] pool. Steady-state
    /// training graphs have constant shape, so a hoisted tape that is
    /// reset between steps re-records the next step without touching
    /// the allocator.
    ///
    /// Outstanding [`Var`]s from before the reset must not be used
    /// afterwards (their indices would name future nodes); the training
    /// loop drops all of them with the step scope.
    pub fn reset_keep_capacity(&self) {
        let mut nodes = self.nodes.borrow_mut();
        self.high_water.set(self.high_water.get().max(nodes.len()));
        nodes.clear();
    }

    fn push(self: &Rc<Self>, value: Tensor, op: Op) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        if nodes.capacity() == 0 {
            // First push after creation or a reset on a fresh tape:
            // size the arena from the best estimate we have.
            nodes.reserve(self.high_water.get().max(64));
        }
        nodes.push(Node {
            value: Rc::new(value),
            op,
        });
        Var {
            tape: Rc::clone(self),
            id: nodes.len() - 1,
        }
    }

    /// Runs reverse-mode differentiation from `root`, which must be a
    /// scalar (one-element) node, and returns the gradients of every
    /// node with respect to it.
    ///
    /// # Panics
    /// Panics if `root` is not scalar or belongs to another tape.
    pub fn backward(self: &Rc<Self>, root: &Var) -> Gradients {
        self.walk(root, &vec![true; root.id + 1])
    }

    /// [`Tape::backward`] for the gradients of the `wrt` vars alone.
    ///
    /// Only nodes that depend on a `wrt` var are walked, and a node's
    /// backward computes no contribution to a parent that does not: a
    /// skipped node has no path to a `wrt` var, so every requested
    /// gradient is bit-identical to [`Tape::backward`]'s. Gradients of
    /// the nodes that were not walked read `None`.
    ///
    /// # Panics
    /// As [`Tape::backward`], and if a `wrt` var belongs to another tape.
    pub fn backward_for<'v>(
        self: &Rc<Self>,
        root: &Var,
        wrt: impl IntoIterator<Item = &'v Var>,
    ) -> Gradients {
        let mut need = vec![false; root.id + 1];
        for v in wrt {
            assert!(
                Rc::ptr_eq(self, &v.tape),
                "backward_for called with a Var from a different tape"
            );
            if let Some(n) = need.get_mut(v.id) {
                *n = true;
            }
        }
        {
            let nodes = self.nodes.borrow();
            for id in 0..need.len() {
                if !need[id] {
                    need[id] = nodes[id].op.any_parent(|p| need[p]);
                }
            }
        }
        self.walk(root, &need)
    }

    /// The reverse walk from `root` over the nodes `need` marks.
    fn walk(self: &Rc<Self>, root: &Var, need: &[bool]) -> Gradients {
        assert!(
            Rc::ptr_eq(self, &root.tape),
            "backward called with a Var from a different tape"
        );
        let nodes = self.nodes.borrow();
        assert_eq!(
            nodes[root.id].value.numel(),
            1,
            "backward root must be scalar, got shape {}",
            nodes[root.id].value.shape()
        );
        // The values slice lets the interpreter read any parent's
        // forward value (and the node's own output) by index.
        let values: Vec<Rc<Tensor>> = nodes.iter().map(|n| Rc::clone(&n.value)).collect();
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        grads[root.id] = Some(Tensor::full(nodes[root.id].value.shape().clone(), 1.0));

        for id in (0..=root.id).rev() {
            if !need[id] {
                continue;
            }
            let Some(grad_out) = grads[id].take() else {
                continue;
            };
            let op = &nodes[id].op;
            let _span = obs::span_cat(op.name(), obs::OP_BWD);
            ops::backward_node(op, id, &values, &grad_out, &mut grads, need);
            grads[id] = Some(grad_out);
        }
        Gradients { grads }
    }
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the backward root with respect to `var`, or `None`
    /// if `var` did not influence the root.
    pub fn get(&self, var: &Var) -> Option<&Tensor> {
        self.grads.get(var.id).and_then(|g| g.as_ref())
    }
}

/// A handle to one node of a [`Tape`].
///
/// Cloning a `Var` clones the handle, not the tensor.
#[derive(Clone)]
pub struct Var {
    tape: Rc<Tape>,
    id: usize,
}

impl Var {
    /// The node's value (cheap `Rc` clone).
    pub fn value(&self) -> Rc<Tensor> {
        Rc::clone(&self.tape.nodes.borrow()[self.id].value)
    }

    /// Shape of the node's value.
    pub fn shape(&self) -> Shape {
        self.value().shape().clone()
    }

    /// The tape this variable belongs to.
    pub fn tape(&self) -> &Rc<Tape> {
        &self.tape
    }

    fn unary(&self, value: Tensor, op: Op) -> Var {
        self.tape.push(value, op)
    }

    fn binary(&self, other: &Var, value: Tensor, op: Op) -> Var {
        assert!(
            Rc::ptr_eq(&self.tape, &other.tape),
            "binary op on Vars from different tapes"
        );
        self.tape.push(value, op)
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Elementwise sum.
    pub fn add(&self, other: &Var) -> Var {
        let _s = obs::span_cat("add", obs::OP_FWD);
        let v = self.value().add(&other.value());
        self.binary(other, v, Op::Add(self.id, other.id))
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Var) -> Var {
        let _s = obs::span_cat("sub", obs::OP_FWD);
        let v = self.value().sub(&other.value());
        self.binary(other, v, Op::Sub(self.id, other.id))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Var) -> Var {
        let _s = obs::span_cat("mul", obs::OP_FWD);
        let v = self.value().mul(&other.value());
        self.binary(other, v, Op::Mul(self.id, other.id))
    }

    /// Multiplication by a constant scalar.
    pub fn scale(&self, s: f32) -> Var {
        let _t = obs::span_cat("scale", obs::OP_FWD);
        let v = self.value().scale(s);
        self.unary(v, Op::Scale(self.id, s))
    }

    /// Addition of a constant scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Var {
        let _t = obs::span_cat("add_scalar", obs::OP_FWD);
        let v = self.value().map(|x| x + s);
        self.unary(v, Op::AddScalar(self.id))
    }

    /// Negation.
    pub fn neg(&self) -> Var {
        self.scale(-1.0)
    }

    /// Adds a row vector `bias [M]` to every row of a `[N, M]` matrix.
    pub fn add_rowvec(&self, bias: &Var) -> Var {
        let _t = obs::span_cat("add_rowvec", obs::OP_FWD);
        let x = self.value();
        assert_eq!(x.shape().ndim(), 2, "add_rowvec lhs must be rank 2");
        let (n, m) = (x.shape().dim(0), x.shape().dim(1));
        let b = bias.value();
        assert_eq!(
            b.shape().dims(),
            &[m],
            "bias shape {} does not match row width {m}",
            b.shape()
        );
        let mut out = (*x).clone();
        for row in 0..n {
            for col in 0..m {
                out.data_mut()[row * m + col] += b.data()[col];
            }
        }
        self.binary(
            bias,
            out,
            Op::AddRowVec {
                x: self.id,
                b: bias.id,
            },
        )
    }

    /// Adds a per-channel bias `[C]` to a `[N, C, H, W]` tensor.
    pub fn add_channel_bias(&self, bias: &Var) -> Var {
        let _t = obs::span_cat("add_channel_bias", obs::OP_FWD);
        let x = self.value();
        assert_eq!(x.shape().ndim(), 4, "add_channel_bias input must be rank 4");
        let (n, c, h, w) = (
            x.shape().dim(0),
            x.shape().dim(1),
            x.shape().dim(2),
            x.shape().dim(3),
        );
        let b = bias.value();
        assert_eq!(
            b.shape().dims(),
            &[c],
            "bias shape {} does not match channels {c}",
            b.shape()
        );
        let hw = h * w;
        let mut out = (*x).clone();
        for bi in 0..n {
            for ci in 0..c {
                let base = (bi * c + ci) * hw;
                let bv = b.data()[ci];
                for v in &mut out.data_mut()[base..base + hw] {
                    *v += bv;
                }
            }
        }
        self.binary(
            bias,
            out,
            Op::AddChannelBias {
                x: self.id,
                b: bias.id,
            },
        )
    }

    // ------------------------------------------------------------------
    // Activations
    // ------------------------------------------------------------------

    /// Logistic sigmoid `1 / (1 + e^{-x})` ([`math::sigmoid`]).
    pub fn sigmoid(&self) -> Var {
        let _t = obs::span_cat("sigmoid", obs::OP_FWD);
        let v = self.value().map(math::sigmoid);
        self.unary(v, Op::Sigmoid(self.id))
    }

    /// Hyperbolic tangent ([`math::tanh`]).
    pub fn tanh(&self) -> Var {
        let _t = obs::span_cat("tanh", obs::OP_FWD);
        let v = self.value().map(math::tanh);
        self.unary(v, Op::Tanh(self.id))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        let _t = obs::span_cat("relu", obs::OP_FWD);
        let v = self.value().map(|v| v.max(0.0));
        self.unary(v, Op::Relu(self.id))
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&self, alpha: f32) -> Var {
        let _t = obs::span_cat("leaky_relu", obs::OP_FWD);
        let v = self.value().map(|v| if v > 0.0 { v } else { alpha * v });
        self.unary(v, Op::LeakyRelu(self.id, alpha))
    }

    /// Elementwise exponential ([`math::exp`]).
    pub fn exp(&self) -> Var {
        let _t = obs::span_cat("exp", obs::OP_FWD);
        let v = self.value().map(math::exp);
        self.unary(v, Op::Exp(self.id))
    }

    /// Numerically-stable softplus `ln(1 + e^x)`.
    pub fn softplus(&self) -> Var {
        let _t = obs::span_cat("softplus", obs::OP_FWD);
        let v = self.value().map(ops::softplus_scalar);
        self.unary(v, Op::Softplus(self.id))
    }

    /// Elementwise division `self / other` (no zero handling — caller
    /// guarantees the denominator is bounded away from zero).
    pub fn div(&self, other: &Var) -> Var {
        let _t = obs::span_cat("div", obs::OP_FWD);
        let v = self.value().zip(&other.value(), |x, y| x / y);
        self.binary(other, v, Op::Div(self.id, other.id))
    }

    /// Elementwise square root of a positive tensor, stabilized as
    /// `sqrt(x + eps)`.
    pub fn sqrt_eps(&self, eps: f32) -> Var {
        let _t = obs::span_cat("sqrt_eps", obs::OP_FWD);
        let v = self.value().map(|x| (x + eps).sqrt());
        self.unary(v, Op::SqrtEps(self.id))
    }

    /// Elementwise absolute value (subgradient 0 at the kink).
    pub fn abs(&self) -> Var {
        let _t = obs::span_cat("abs", obs::OP_FWD);
        let v = self.value().map(f32::abs);
        self.unary(v, Op::Abs(self.id))
    }

    /// Clamps every element into `[lo, hi]`; the gradient is passed
    /// through inside the interval and zeroed outside (straight-through
    /// at the boundary is not used).
    pub fn clamp(&self, lo: f32, hi: f32) -> Var {
        assert!(lo <= hi, "clamp bounds reversed");
        let _t = obs::span_cat("clamp", obs::OP_FWD);
        let v = self.value().map(|e| e.clamp(lo, hi));
        self.unary(v, Op::Clamp { x: self.id, lo, hi })
    }

    /// Elementwise square (cheaper than `mul` with itself: one parent).
    pub fn square(&self) -> Var {
        let _t = obs::span_cat("square", obs::OP_FWD);
        let v = self.value().map(|e| e * e);
        self.unary(v, Op::Square(self.id))
    }

    // ------------------------------------------------------------------
    // Linear algebra & convolution
    // ------------------------------------------------------------------

    /// Matrix product `[m, k] @ [k, n] → [m, n]`.
    pub fn matmul(&self, other: &Var) -> Var {
        let _t = obs::span_cat("matmul", obs::OP_FWD);
        let v = self.value().matmul(&other.value());
        self.binary(other, v, Op::Matmul(self.id, other.id))
    }

    /// Matrix product with a *constant* right operand — records a single
    /// parent, so gradients never flow into `matrix`. Used for the fixed
    /// inverse-rFFT basis in the spectrum generator.
    pub fn matmul_const(&self, matrix: &Tensor) -> Var {
        let _t = obs::span_cat("matmul_const", obs::OP_FWD);
        let v = self.value().matmul(matrix);
        self.unary(
            v,
            Op::MatmulConst {
                x: self.id,
                m: Rc::new(matrix.clone()),
            },
        )
    }

    /// 2-D cross-correlation (see [`Tensor::conv2d`]) with trainable
    /// input and weight, stride 1, zero padding `pad`.
    pub fn conv2d(&self, weight: &Var, pad: usize) -> Var {
        let _t = obs::span_cat("conv2d", obs::OP_FWD);
        let v = self.value().conv2d(&weight.value(), pad);
        self.binary(
            weight,
            v,
            Op::Conv2d {
                x: self.id,
                w: weight.id,
                pad,
            },
        )
    }

    // ------------------------------------------------------------------
    // Fused kernels
    // ------------------------------------------------------------------

    /// Fused `act(self @ w + bias)` — the linear-layer chain as a single
    /// node. Bit-equal (forward and backward) to
    /// `self.matmul(w).add_rowvec(bias)` followed by the activation;
    /// see [`crate::ops`] for why.
    pub fn matmul_bias_act(&self, w: &Var, bias: &Var, act: FusedAct) -> Var {
        assert!(
            Rc::ptr_eq(&self.tape, &w.tape) && Rc::ptr_eq(&self.tape, &bias.tape),
            "fused op on Vars from different tapes"
        );
        let _t = obs::span_cat("matmul_bias_act", obs::OP_FWD);
        let v = ops::matmul_bias_act_forward(&self.value(), &w.value(), &bias.value(), act);
        self.tape.push(
            v,
            Op::MatmulBiasAct {
                a: self.id,
                w: w.id,
                b: bias.id,
                act,
            },
        )
    }

    /// Fused `conv2d(self, w, pad) + bias` — the conv-layer chain as a
    /// single node, bit-equal to `self.conv2d(w, pad)
    /// .add_channel_bias(bias)`.
    pub fn conv2d_bias(&self, w: &Var, bias: &Var, pad: usize) -> Var {
        assert!(
            Rc::ptr_eq(&self.tape, &w.tape) && Rc::ptr_eq(&self.tape, &bias.tape),
            "fused op on Vars from different tapes"
        );
        let _t = obs::span_cat("conv2d_bias", obs::OP_FWD);
        let v = ops::conv2d_bias_forward(&self.value(), &w.value(), &bias.value(), pad);
        self.tape.push(
            v,
            Op::Conv2dBias {
                x: self.id,
                w: w.id,
                b: bias.id,
                pad,
            },
        )
    }

    // ------------------------------------------------------------------
    // Whole LSTM sequences
    // ------------------------------------------------------------------

    /// Runs an LSTM for `steps` steps from the zero state on the
    /// time-constant input projection `self = x·Wx: [N, 4H]`, with
    /// recurrent weight `wh: [H, 4H]`, bias `b: [4H]` and the
    /// one-output head `(head_w: [H, 1], head_b: [1])` read at every
    /// step; returns the head series `[N, steps]` as one
    /// [`Op::LstmSeq`] node. Bit-equal under the scalar backend, value
    /// and gradients, to the per-step chain it replaces (see
    /// [`crate::lstm_seq`]).
    ///
    /// # Panics
    /// Panics on mismatched shapes or tapes, on zero steps, or when two
    /// operands are the same node.
    pub fn lstm_rollout(&self, wh: &Var, b: &Var, head_w: &Var, head_b: &Var, steps: usize) -> Var {
        let input = SeqInput::Projected {
            xw: self.id,
            head_w: head_w.id,
            head_b: head_b.id,
        };
        self.lstm_seq(input, &[self, wh, b, head_w, head_b], wh, b, steps)
    }

    /// Runs an LSTM over the columns of `self = series: [N, T]` from
    /// the zero state, feeding step `t` the input `[series[:, t], ctx]`
    /// through `wx: [1 + C, 4H]`, with recurrent weight `wh: [H, 4H]`
    /// and bias `b: [4H]`; returns the last hidden state `[N, H]` as
    /// one [`Op::LstmSeq`] node. Same contract as [`Var::lstm_rollout`].
    ///
    /// # Panics
    /// As [`Var::lstm_rollout`], and unless `series` and `ctx` are
    /// rank 2 with the same row count.
    pub fn lstm_last_hidden(&self, ctx: &Var, wx: &Var, wh: &Var, b: &Var) -> Var {
        let input = SeqInput::Series {
            series: self.id,
            ctx: ctx.id,
            wx: wx.id,
        };
        let shape = self.shape();
        assert_eq!(shape.ndim(), 2, "LSTM series must be [N, T], got {shape}");
        self.lstm_seq(input, &[self, ctx, wx, wh, b], wh, b, shape.dim(1))
    }

    fn lstm_seq(&self, input: SeqInput, operands: &[&Var], wh: &Var, b: &Var, steps: usize) -> Var {
        for v in operands {
            assert!(
                Rc::ptr_eq(&self.tape, &v.tape),
                "LSTM sequence on Vars from different tapes"
            );
        }
        let _t = obs::span_cat("lstm_seq", obs::OP_FWD);
        let values: Vec<(usize, Rc<Tensor>)> = operands.iter().map(|v| (v.id, v.value())).collect();
        let value = |id: usize| -> &Tensor {
            let (_, v) = values
                .iter()
                .find(|(i, _)| *i == id)
                .expect("operand of this node");
            v
        };
        let (out, saved) = crate::lstm_seq::forward(&input, value, wh.id, b.id, steps);
        self.tape.push(
            out,
            Op::LstmSeq {
                input,
                wh: wh.id,
                b: b.id,
                saved: Rc::new(saved),
            },
        )
    }

    // ------------------------------------------------------------------
    // Structure
    // ------------------------------------------------------------------

    /// Reshape preserving element count.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Var {
        let _t = obs::span_cat("reshape", obs::OP_FWD);
        let v = self.value().reshape(shape.into());
        self.unary(v, Op::Reshape(self.id))
    }

    /// Permutes axes (see [`Tensor::permute`]); the gradient applies
    /// the inverse permutation.
    pub fn permute(&self, perm: &[usize]) -> Var {
        let _t = obs::span_cat("permute", obs::OP_FWD);
        let v = self.value().permute(perm);
        let mut inverse = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p] = i;
        }
        self.unary(
            v,
            Op::Permute {
                x: self.id,
                inverse,
            },
        )
    }

    /// 2×2 average pooling, stride 2 (see [`Tensor::avg_pool2`]); the
    /// gradient spreads each pooled gradient over its 2×2 window.
    pub fn avg_pool2(&self) -> Var {
        let _t = obs::span_cat("avg_pool2", obs::OP_FWD);
        let v = self.value().avg_pool2();
        self.unary(v, Op::AvgPool2(self.id))
    }

    /// Contiguous slice `start..start+len` along `axis`.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Var {
        let _t = obs::span_cat("narrow", obs::OP_FWD);
        let v = self.value().narrow(axis, start, len);
        self.unary(
            v,
            Op::Narrow {
                x: self.id,
                axis,
                start,
            },
        )
    }

    /// Concatenates variables along `axis`.
    ///
    /// # Panics
    /// Panics on an empty list or mismatched tapes/shapes.
    pub fn concat(parts: &[Var], axis: usize) -> Var {
        assert!(!parts.is_empty(), "concat of zero Vars");
        let _t = obs::span_cat("concat", obs::OP_FWD);
        let tape = Rc::clone(&parts[0].tape);
        for p in parts {
            assert!(
                Rc::ptr_eq(&p.tape, &tape),
                "concat on Vars from different tapes"
            );
        }
        let values: Vec<Rc<Tensor>> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&Tensor> = values.iter().map(|v| v.as_ref()).collect();
        let out = Tensor::concat(&refs, axis);
        tape.push(
            out,
            Op::Concat {
                parts: parts.iter().map(|p| p.id).collect(),
                axis,
            },
        )
    }

    // ------------------------------------------------------------------
    // Reductions & losses
    // ------------------------------------------------------------------

    /// Sum of all elements (scalar output).
    pub fn sum(&self) -> Var {
        let _t = obs::span_cat("sum", obs::OP_FWD);
        let v = Tensor::scalar(self.value().sum());
        self.unary(v, Op::Sum(self.id))
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&self) -> Var {
        let _t = obs::span_cat("mean", obs::OP_FWD);
        let v = Tensor::scalar(self.value().mean());
        self.unary(v, Op::Mean(self.id))
    }

    /// Mean absolute error against a constant target.
    pub fn l1_to(&self, target: &Tensor) -> Var {
        let _t = obs::span_cat("l1_to", obs::OP_FWD);
        let x = self.value();
        assert_eq!(
            x.shape(),
            target.shape(),
            "l1_to target shape {} vs value {}",
            target.shape(),
            x.shape()
        );
        let v = Tensor::scalar(x.zip(target, |a, b| (a - b).abs()).mean());
        self.unary(
            v,
            Op::L1To {
                x: self.id,
                target: Rc::new(target.clone()),
            },
        )
    }

    /// Mean squared error against a constant target.
    pub fn mse_to(&self, target: &Tensor) -> Var {
        let _t = obs::span_cat("mse_to", obs::OP_FWD);
        let x = self.value();
        assert_eq!(
            x.shape(),
            target.shape(),
            "mse_to target shape {} vs value {}",
            target.shape(),
            x.shape()
        );
        let v = Tensor::scalar(x.zip(target, |a, b| (a - b) * (a - b)).mean());
        self.unary(
            v,
            Op::MseTo {
                x: self.id,
                target: Rc::new(target.clone()),
            },
        )
    }

    /// Binary cross-entropy with logits against a constant label `y`
    /// (broadcast scalar): `mean(softplus(x) − y·x)`.
    ///
    /// This is the standard numerically-stable GAN discriminator /
    /// generator loss; `y = 1` for "real", `y = 0` for "fake".
    pub fn bce_with_logits(&self, y: f32) -> Var {
        let _t = obs::span_cat("bce_with_logits", obs::OP_FWD);
        let x = self.value();
        let v = Tensor::scalar(x.map(|xi| ops::softplus_scalar(xi) - y * xi).mean());
        self.unary(v, Op::BceWithLogits { x: self.id, y })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Central-difference gradient check: builds the graph with `f`,
    /// runs backward, and compares against finite differences on every
    /// input tensor.
    fn grad_check(inputs: &[Tensor], f: impl Fn(&Rc<Tape>, &[Var]) -> Var) {
        let tape = Tape::new();
        let vars: Vec<Var> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
        let out = f(&tape, &vars);
        assert_eq!(out.value().numel(), 1, "grad_check output must be scalar");
        let grads = tape.backward(&out);

        let eps = 3e-3f32;
        for (vi, input) in inputs.iter().enumerate() {
            let analytic = grads
                .get(&vars[vi])
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(input.shape().clone()));
            for e in 0..input.numel() {
                let mut plus = input.clone();
                plus.data_mut()[e] += eps;
                let mut minus = input.clone();
                minus.data_mut()[e] -= eps;

                let eval = |perturbed: &Tensor| -> f32 {
                    let t2 = Tape::new();
                    let vs: Vec<Var> = inputs
                        .iter()
                        .enumerate()
                        .map(|(i, t)| {
                            t2.leaf(if i == vi {
                                perturbed.clone()
                            } else {
                                t.clone()
                            })
                        })
                        .collect();
                    f(&t2, &vs).value().item()
                };
                let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
                let a = analytic.data()[e];
                let tol = 2e-2 * numeric.abs().max(a.abs()).max(1.0);
                assert!(
                    (a - numeric).abs() < tol,
                    "input {vi} elem {e}: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn backward_of_simple_expression() {
        // z = sum(a*b + a) → dz/da = b + 1, dz/db = a.
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], [2]));
        let b = tape.leaf(Tensor::from_vec(vec![3.0, -4.0], [2]));
        let z = a.mul(&b).add(&a).sum();
        assert_eq!(z.value().item(), 1.0 * 3.0 + 1.0 + 2.0 * -4.0 + 2.0);
        let g = tape.backward(&z);
        assert_eq!(g.get(&a).unwrap().data(), &[4.0, -3.0]);
        assert_eq!(g.get(&b).unwrap().data(), &[1.0, 2.0]);
    }

    #[test]
    fn grad_of_unused_leaf_is_none() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::scalar(1.0));
        let b = tape.leaf(Tensor::scalar(2.0));
        let z = a.scale(3.0).sum();
        let g = tape.backward(&z);
        assert!(g.get(&b).is_none());
        assert_eq!(g.get(&a).unwrap().item(), 3.0);
    }

    #[test]
    fn diamond_dependency_accumulates() {
        // z = sum(a + a) → dz/da = 2.
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 1.0], [2]));
        let z = a.add(&a).sum();
        let g = tape.backward(&z);
        assert_eq!(g.get(&a).unwrap().data(), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "must be scalar")]
    fn backward_rejects_non_scalar_root() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::zeros([2]));
        tape.backward(&a);
    }

    #[test]
    fn reset_keep_capacity_clears_nodes() {
        let tape = Tape::new();
        for _ in 0..10 {
            let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], [2]));
            let z = a.square().sum();
            let g = tape.backward(&z);
            assert_eq!(g.get(&a).unwrap().data(), &[2.0, 4.0]);
            assert_eq!(tape.len(), 3);
            tape.reset_keep_capacity();
            assert!(tape.is_empty());
        }
    }

    #[test]
    fn gc_arithmetic() {
        let mut r = rng();
        let a = Tensor::randn([2, 3], &mut r);
        let b = Tensor::randn([2, 3], &mut r);
        grad_check(&[a, b], |_, v| {
            v[0].mul(&v[1])
                .add(&v[0])
                .sub(&v[1].scale(0.5))
                .add_scalar(1.0)
                .mean()
        });
    }

    #[test]
    fn gc_activations() {
        let mut r = rng();
        let a = Tensor::randn([8], &mut r);
        grad_check(std::slice::from_ref(&a), |_, v| v[0].sigmoid().sum());
        grad_check(std::slice::from_ref(&a), |_, v| v[0].tanh().sum());
        grad_check(std::slice::from_ref(&a), |_, v| v[0].softplus().sum());
        grad_check(std::slice::from_ref(&a), |_, v| v[0].exp().mean());
        // Shift away from 0 where relu is non-differentiable.
        let shifted = a.map(|x| x + if x >= 0.0 { 0.5 } else { -0.5 });
        grad_check(std::slice::from_ref(&shifted), |_, v| v[0].relu().sum());
        grad_check(&[shifted], |_, v| v[0].leaky_relu(0.2).sum());
    }

    #[test]
    fn gc_matmul() {
        let mut r = rng();
        let a = Tensor::randn([3, 4], &mut r);
        let b = Tensor::randn([4, 2], &mut r);
        grad_check(&[a.clone(), b.clone()], |_, v| v[0].matmul(&v[1]).sum());
        grad_check(&[a], |_, v| v[0].matmul_const(&b).mean());
    }

    #[test]
    fn gc_conv2d() {
        let mut r = rng();
        let x = Tensor::randn([1, 2, 5, 5], &mut r);
        let w = Tensor::randn([3, 2, 3, 3], &mut r);
        for pad in [0usize, 1] {
            grad_check(&[x.clone(), w.clone()], move |_, v| {
                v[0].conv2d(&v[1], pad).mean()
            });
        }
    }

    #[test]
    fn gc_bias_broadcasts() {
        let mut r = rng();
        let x = Tensor::randn([3, 4], &mut r);
        let b = Tensor::randn([4], &mut r);
        grad_check(&[x, b], |_, v| v[0].add_rowvec(&v[1]).sum());
        let x4 = Tensor::randn([2, 3, 2, 2], &mut r);
        let c = Tensor::randn([3], &mut r);
        grad_check(&[x4, c], |_, v| v[0].add_channel_bias(&v[1]).sum());
    }

    #[test]
    fn gc_structure_ops() {
        let mut r = rng();
        let a = Tensor::randn([2, 6], &mut r);
        let b = Tensor::randn([2, 3], &mut r);
        grad_check(std::slice::from_ref(&a), |_, v| {
            v[0].reshape([3, 4]).sigmoid().sum()
        });
        grad_check(std::slice::from_ref(&a), |_, v| v[0].narrow(1, 2, 3).sum());
        grad_check(&[a, b], |_, v| {
            Var::concat(&[v[0].clone(), v[1].clone()], 1).tanh().sum()
        });
    }

    #[test]
    fn gc_elementwise_extras() {
        let mut r = rng();
        let a = Tensor::randn([6], &mut r);
        // Denominator bounded away from zero.
        let b = Tensor::randn([6], &mut r).map(|v| v.signum() * (v.abs() + 1.0));
        grad_check(&[a.clone(), b], |_, v| v[0].div(&v[1]).sum());
        let pos = a.map(|v| v.abs() + 0.5);
        grad_check(&[pos], |_, v| v[0].sqrt_eps(1e-6).sum());
        // Keep away from the |·| kink and clamp boundaries.
        let shifted = a.map(|v| if v >= 0.0 { v + 0.3 } else { v - 0.3 });
        grad_check(std::slice::from_ref(&shifted), |_, v| v[0].abs().sum());
        grad_check(std::slice::from_ref(&shifted), |_, v| {
            v[0].clamp(-0.8, 0.8).square().sum()
        });
        grad_check(&[shifted], |_, v| v[0].square().mean());
    }

    #[test]
    fn clamp_zeroes_gradient_outside_range() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![-2.0, 0.0, 2.0], [3]));
        let loss = x.clamp(-1.0, 1.0).sum();
        let g = tape.backward(&loss);
        assert_eq!(g.get(&x).unwrap().data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn gc_permute_and_pool() {
        let mut r = rng();
        let x = Tensor::randn([2, 3, 4, 4], &mut r);
        grad_check(std::slice::from_ref(&x), |_, v| {
            v[0].permute(&[0, 2, 3, 1]).sigmoid().sum()
        });
        grad_check(&[x], |_, v| v[0].avg_pool2().tanh().sum());
    }

    #[test]
    fn gc_losses() {
        let mut r = rng();
        let x = Tensor::randn([2, 5], &mut r);
        let t = Tensor::randn([2, 5], &mut r);
        grad_check(std::slice::from_ref(&x), {
            let t = t.clone();
            move |_, v| v[0].mse_to(&t)
        });
        // l1 is non-differentiable at 0 — nudge apart.
        let apart = x.zip(&t, |a, b| if (a - b).abs() < 0.1 { a + 0.3 } else { a });
        grad_check(&[apart], {
            let t = t.clone();
            move |_, v| v[0].l1_to(&t)
        });
        grad_check(std::slice::from_ref(&x), |_, v| v[0].bce_with_logits(1.0));
        grad_check(&[x], |_, v| v[0].bce_with_logits(0.0));
    }

    #[test]
    fn gc_composed_mlp() {
        // A miniature MLP forward pass, checking the whole chain.
        let mut r = rng();
        let x = Tensor::randn([2, 3], &mut r);
        let w1 = Tensor::randn([3, 4], &mut r);
        let b1 = Tensor::randn([4], &mut r);
        let w2 = Tensor::randn([4, 1], &mut r);
        grad_check(&[x, w1, b1, w2], |_, v| {
            v[0].matmul(&v[1])
                .add_rowvec(&v[2])
                .tanh()
                .matmul(&v[3])
                .bce_with_logits(1.0)
        });
    }

    #[test]
    fn gc_fused_matmul_bias_act() {
        let mut r = rng();
        // Shift inputs away from relu kinks (as the unfused checks do).
        let x = Tensor::randn([3, 4], &mut r).map(|v| v + v.signum() * 0.2);
        let w = Tensor::randn([4, 5], &mut r);
        let b = Tensor::randn([5], &mut r);
        for act in [
            FusedAct::Identity,
            FusedAct::Sigmoid,
            FusedAct::Tanh,
            FusedAct::Relu,
            FusedAct::LeakyRelu(0.2),
        ] {
            grad_check(&[x.clone(), w.clone(), b.clone()], move |_, v| {
                v[0].matmul_bias_act(&v[1], &v[2], act).mean()
            });
        }
    }

    #[test]
    fn gc_fused_conv2d_bias() {
        let mut r = rng();
        let x = Tensor::randn([1, 2, 5, 5], &mut r);
        let w = Tensor::randn([3, 2, 3, 3], &mut r);
        let b = Tensor::randn([3], &mut r);
        for pad in [0usize, 1] {
            grad_check(&[x.clone(), w.clone(), b.clone()], move |_, v| {
                v[0].conv2d_bias(&v[1], &v[2], pad).mean()
            });
        }
    }

    /// The fused kernels must be **bitwise** equal to their unfused
    /// compositions, forward and backward — this is what lets the layer
    /// stack switch to them without perturbing the golden fixtures.
    #[test]
    fn fused_matches_unfused_bitwise() {
        let mut r = rng();
        let x = Tensor::randn([4, 6], &mut r);
        let w = Tensor::randn([6, 3], &mut r);
        let b = Tensor::randn([3], &mut r);
        for act in [
            FusedAct::Identity,
            FusedAct::Sigmoid,
            FusedAct::Tanh,
            FusedAct::Relu,
            FusedAct::LeakyRelu(0.2),
        ] {
            let run = |fused: bool| -> Vec<u32> {
                let tape = Tape::new();
                let (xv, wv, bv) = (
                    tape.leaf(x.clone()),
                    tape.leaf(w.clone()),
                    tape.leaf(b.clone()),
                );
                let y = if fused {
                    xv.matmul_bias_act(&wv, &bv, act)
                } else {
                    let pre = xv.matmul(&wv).add_rowvec(&bv);
                    match act {
                        FusedAct::Identity => pre,
                        FusedAct::Sigmoid => pre.sigmoid(),
                        FusedAct::Tanh => pre.tanh(),
                        FusedAct::Relu => pre.relu(),
                        FusedAct::LeakyRelu(a) => pre.leaky_relu(a),
                    }
                };
                let loss = y.bce_with_logits(1.0);
                let grads = tape.backward(&loss);
                y.value()
                    .data()
                    .iter()
                    .chain(grads.get(&xv).unwrap().data())
                    .chain(grads.get(&wv).unwrap().data())
                    .chain(grads.get(&bv).unwrap().data())
                    .map(|v| v.to_bits())
                    .collect()
            };
            assert_eq!(run(true), run(false), "act {act:?} diverges");
        }

        // conv2d + bias.
        let x4 = Tensor::randn([2, 2, 6, 6], &mut r);
        let w4 = Tensor::randn([3, 2, 3, 3], &mut r);
        let b4 = Tensor::randn([3], &mut r);
        for pad in [0usize, 1] {
            let run = |fused: bool| -> Vec<u32> {
                let tape = Tape::new();
                let (xv, wv, bv) = (
                    tape.leaf(x4.clone()),
                    tape.leaf(w4.clone()),
                    tape.leaf(b4.clone()),
                );
                let y = if fused {
                    xv.conv2d_bias(&wv, &bv, pad)
                } else {
                    xv.conv2d(&wv, pad).add_channel_bias(&bv)
                };
                let loss = y.mean();
                let grads = tape.backward(&loss);
                y.value()
                    .data()
                    .iter()
                    .chain(grads.get(&xv).unwrap().data())
                    .chain(grads.get(&wv).unwrap().data())
                    .chain(grads.get(&bv).unwrap().data())
                    .map(|v| v.to_bits())
                    .collect()
            };
            assert_eq!(run(true), run(false), "pad {pad} diverges");
        }
    }

    /// `backward_for` on a graph shaped like a GAN train step: a
    /// generator encoder (`conv2d_bias`) on a data leaf feeds both the
    /// generator's projected LSTM and, as context, the discriminator's
    /// series LSTM; the discriminator also has an encoder of its own on
    /// the data leaf, and scores a real leaf, a detached fake leaf and
    /// the fake itself through `matmul_bias_act` heads. Each loss's
    /// gradients for its own network's parameters must be bit-equal to
    /// the whole-graph backward's, and the data leaf must get none.
    #[test]
    fn backward_for_matches_backward_on_a_gan_step() {
        let mut r = rng();
        let (steps, hs, ch) = (7usize, 5usize, 3usize);
        let tape = Tape::new();
        let mut leaf = |shape: &[usize], scale: f32| {
            tape.leaf(Tensor::randn(shape.to_vec(), &mut r).scale(scale))
        };
        let data = leaf(&[1, 2, 3, 3], 1.0);
        let real = leaf(&[9, steps], 1.0);
        let gen = [
            leaf(&[ch, 2, 3, 3], 0.4),
            leaf(&[ch], 0.1),
            leaf(&[ch, 4 * hs], 0.5),
            leaf(&[4 * hs], 0.1),
            leaf(&[hs, 4 * hs], 0.5),
            leaf(&[4 * hs], 0.1),
            leaf(&[hs, 1], 0.5),
            leaf(&[1], 0.1),
        ];
        let disc = [
            leaf(&[2, 2, 3, 3], 0.4),
            leaf(&[2], 0.1),
            leaf(&[1 + ch, 4 * hs], 0.5),
            leaf(&[hs, 4 * hs], 0.5),
            leaf(&[4 * hs], 0.1),
            leaf(&[hs + 2, 1], 0.5),
            leaf(&[1], 0.1),
        ];
        let rows = |x: &Var, c: usize| x.permute(&[0, 2, 3, 1]).reshape([9, c]);
        let ctx = rows(&data.conv2d_bias(&gen[0], &gen[1], 1).tanh(), ch);
        let xw = ctx.matmul_bias_act(&gen[2], &gen[3], FusedAct::Identity);
        let fake = xw.lstm_rollout(&gen[4], &gen[5], &gen[6], &gen[7], steps);
        let fake_det = tape.leaf(fake.value().as_ref().clone());
        let d_feat = rows(&data.conv2d_bias(&disc[0], &disc[1], 1), 2);
        let score = |series: &Var| {
            let h = series.lstm_last_hidden(&ctx, &disc[2], &disc[3], &disc[4]);
            Var::concat(&[h, d_feat.clone()], 1).matmul_bias_act(
                &disc[5],
                &disc[6],
                FusedAct::Identity,
            )
        };
        let d_loss = score(&real)
            .bce_with_logits(1.0)
            .add(&score(&fake_det).bce_with_logits(0.0));
        let g_loss = score(&fake)
            .bce_with_logits(1.0)
            .add(&fake.l1_to(&real.value()).scale(10.0));
        let bits = |t: Option<&Tensor>| -> Vec<u32> {
            t.expect("a gradient")
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        for (loss, params) in [(&d_loss, &disc[..]), (&g_loss, &gen[..])] {
            let all = tape.backward(loss);
            let some = tape.backward_for(loss, params);
            for (k, p) in params.iter().enumerate() {
                assert_eq!(bits(some.get(p)), bits(all.get(p)), "parameter {k}");
            }
            assert!(all.get(&data).is_some());
            assert!(some.get(&data).is_none(), "the data leaf got a gradient");
        }
    }

    /// With obs on, every op's forward span and the backward span of
    /// its node carry the same name ([`Op::name`]), so each op folds
    /// into one `op_table` row with as many backward calls as forward
    /// calls. The graph runs all 34 ops, fused ones included.
    #[test]
    fn op_spans_pair_forward_and_backward_names() {
        let mut r = rng();
        let _obs = obs::ObsGuard::new(true);
        let root = obs::span("op_spans_test").expect("obs is on");
        let tape = Tape::new();
        let mut leaf = |shape: &[usize]| tape.leaf(Tensor::randn(shape.to_vec(), &mut r));
        let (data, w_conv, b_conv) = (leaf(&[1, 2, 4, 4]), leaf(&[3, 2, 3, 3]), leaf(&[3]));
        let (w_mm, b_mm) = (leaf(&[3, 3]), leaf(&[3]));
        let (wh, b_seq, head_w, head_b) = (leaf(&[1, 4]), leaf(&[4]), leaf(&[1, 1]), leaf(&[1]));
        let target = Tensor::randn([4, 3], &mut r);

        let conv = data
            .conv2d_bias(&w_conv, &b_conv, 1)
            .add(&data.conv2d(&w_conv, 1).add_channel_bias(&b_conv));
        let rows = conv.avg_pool2().permute(&[0, 2, 3, 1]).reshape([4, 3]);
        let m = rows.matmul(&w_mm).add_rowvec(&b_mm);
        let fused = rows.matmul_bias_act(&w_mm, &b_mm, FusedAct::Tanh);
        let num = m
            .sigmoid()
            .add(&m.tanh())
            .add(&m.relu().sub(&m.leaky_relu(0.2)))
            .add(&m.softplus().mul(&m.exp().scale(0.5)));
        let den = m.square().add_scalar(1.0).sqrt_eps(1e-6);
        let g = num
            .div(&den)
            .abs()
            .clamp(-5.0, 5.0)
            .matmul_const(&target.narrow(0, 0, 3));
        let xw = Var::concat(&[g, fused], 1).narrow(1, 0, 4);
        let seq = xw.lstm_rollout(&wh, &b_seq, &head_w, &head_b, 3);
        let loss = seq
            .sum()
            .add(&seq.mean())
            .add(&seq.l1_to(&target))
            .add(&seq.mse_to(&target))
            .add(&seq.bce_with_logits(1.0));
        tape.backward(&loss);
        let id = root.id();
        drop(root);

        // Tests on other threads may record spans meanwhile; this
        // graph's op spans are exactly the children of `root`.
        let mine: Vec<obs::SpanEvent> = obs::drain_events()
            .into_iter()
            .filter(|e| e.parent == id)
            .collect();
        let table = obs::op_table(&mine);
        assert_eq!(table.len(), 35, "34 ops plus leaf: {table:?}");
        for row in &table {
            if row.op == "leaf" {
                assert_eq!((row.fwd_calls, row.bwd_calls), (0, 9), "{row:?}");
            } else {
                assert!(row.fwd_calls > 0, "{row:?}");
                assert_eq!(row.fwd_calls, row.bwd_calls, "{row:?}");
            }
        }
        for fused in ["matmul_bias_act", "conv2d_bias", "lstm_seq"] {
            assert!(table.iter().any(|r| r.op == fused), "no {fused} row");
        }
    }

    #[test]
    fn bce_with_logits_matches_closed_form() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(0.0));
        // softplus(0) − 1·0 = ln 2.
        let loss = x.bce_with_logits(1.0);
        assert!((loss.value().item() - std::f32::consts::LN_2).abs() < 1e-5);
    }
}
