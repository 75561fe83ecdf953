//! Feed-forward layers: [`Linear`], [`Conv2d`] and the [`Mlp`] stack.

use crate::init;
use crate::param::{Binding, ParamId, ParamStore};
use rand::Rng;
use spectragan_tensor::{math, FusedAct, Tensor, Var};

/// Activation applied between layers of an [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Leaky ReLU with slope 0.2 (the GAN default).
    LeakyRelu,
    /// ReLU.
    Relu,
    /// tanh.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// No activation.
    Identity,
}

impl Activation {
    /// Applies the activation to a variable.
    pub fn apply(self, x: &Var) -> Var {
        match self {
            Activation::LeakyRelu => x.leaky_relu(0.2),
            Activation::Relu => x.relu(),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => x.sigmoid(),
            Activation::Identity => x.clone(),
        }
    }

    /// The fused-kernel equivalent, bit-equal to [`Activation::apply`].
    pub fn fused(self) -> FusedAct {
        match self {
            Activation::LeakyRelu => FusedAct::LeakyRelu(0.2),
            Activation::Relu => FusedAct::Relu,
            Activation::Tanh => FusedAct::Tanh,
            Activation::Sigmoid => FusedAct::Sigmoid,
            Activation::Identity => FusedAct::Identity,
        }
    }
}

/// Fully-connected layer `y = x·W + b` with `x: [N, in]`, `y: [N, out]`.
#[derive(Debug, Clone)]
pub struct Linear {
    pub(crate) w: ParamId,
    pub(crate) b: ParamId,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Registers a new Xavier-initialized linear layer in `store`.
    pub fn new(
        store: &mut ParamStore,
        in_features: usize,
        out_features: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self::new_scaled(store, in_features, out_features, 1.0, rng)
    }

    /// Like [`Linear::new`] but with the Xavier weights multiplied by
    /// `gain`. Output heads of generators use a small gain (e.g. 0.1)
    /// so the model starts from a near-zero signal and the explicit
    /// loss shapes it, instead of starting from large random output
    /// that the adversary can latch onto.
    pub fn new_scaled(
        store: &mut ParamStore,
        in_features: usize,
        out_features: usize,
        gain: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let w = store.register(
            format!("linear.w[{in_features}x{out_features}]"),
            init::xavier_uniform([in_features, out_features], in_features, out_features, rng)
                .scale(gain),
        );
        let b = store.register(
            format!("linear.b[{out_features}]"),
            Tensor::zeros([out_features]),
        );
        Linear {
            w,
            b,
            in_features,
            out_features,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Applies the layer to `x: [N, in]`.
    pub fn forward(&self, bind: &Binding<'_>, x: &Var) -> Var {
        self.forward_act(bind, x, Activation::Identity)
    }

    /// Applies the layer followed by `act` as one fused tape node
    /// (bit-equal to `act.apply(&self.forward(bind, x))`, one node and
    /// two fewer intermediate buffers).
    pub fn forward_act(&self, bind: &Binding<'_>, x: &Var, act: Activation) -> Var {
        x.matmul_bias_act(&bind.var(self.w), &bind.var(self.b), act.fused())
    }

    /// Tape-free forward pass for inference.
    pub fn forward_infer(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        let mut y = x.matmul(store.get(self.w));
        let b = store.get(self.b);
        let (n, m) = (y.shape().dim(0), y.shape().dim(1));
        for row in 0..n {
            for col in 0..m {
                y.data_mut()[row * m + col] += b.data()[col];
            }
        }
        y
    }
}

/// 2-D convolution layer (stride 1, configurable symmetric zero padding).
#[derive(Debug, Clone)]
pub struct Conv2d {
    w: ParamId,
    b: ParamId,
    pad: usize,
}

impl Conv2d {
    /// Registers a He-initialized conv layer: `in_ch → out_ch`, square
    /// `k×k` kernel, zero padding `pad` on all sides.
    pub fn new(
        store: &mut ParamStore,
        in_ch: usize,
        out_ch: usize,
        k: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let (fan_in, _) = init::conv_fans(out_ch, in_ch, k, k);
        let w = store.register(
            format!("conv.w[{out_ch}x{in_ch}x{k}x{k}]"),
            init::he_uniform([out_ch, in_ch, k, k], fan_in, rng),
        );
        let b = store.register(format!("conv.b[{out_ch}]"), Tensor::zeros([out_ch]));
        Conv2d { w, b, pad }
    }

    /// Applies the layer to `x: [N, Cin, H, W]` as one fused
    /// conv2d+bias tape node.
    pub fn forward(&self, bind: &Binding<'_>, x: &Var) -> Var {
        x.conv2d_bias(&bind.var(self.w), &bind.var(self.b), self.pad)
    }

    /// Tape-free forward pass for inference.
    pub fn forward_infer(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        let mut y = x.conv2d(store.get(self.w), self.pad);
        let b = store.get(self.b);
        let (n, c) = (y.shape().dim(0), y.shape().dim(1));
        let hw = y.shape().dim(2) * y.shape().dim(3);
        for bi in 0..n {
            for ci in 0..c {
                let base = (bi * c + ci) * hw;
                let bv = b.data()[ci];
                for v in &mut y.data_mut()[base..base + hw] {
                    *v += bv;
                }
            }
        }
        y
    }
}

/// A stack of [`Linear`] layers with a shared hidden activation and a
/// configurable output activation — the paper's spectrum discriminator
/// `R^s` is exactly this shape.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden: Activation,
    output: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[64, 32, 1]`
    /// creates `64→32→1`.
    ///
    /// # Panics
    /// Panics if fewer than two widths are given.
    pub fn new(
        store: &mut ParamStore,
        widths: &[usize],
        hidden: Activation,
        output: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            widths.len() >= 2,
            "Mlp needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(store, w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            hidden,
            output,
        }
    }

    /// Tape-free forward pass for inference.
    pub fn forward_infer(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward_infer(store, &h);
            let act = if i == last { self.output } else { self.hidden };
            h = match act {
                Activation::LeakyRelu => h.map(|v| if v > 0.0 { v } else { 0.2 * v }),
                Activation::Relu => h.map(|v| v.max(0.0)),
                Activation::Tanh => h.map(math::tanh),
                Activation::Sigmoid => h.map(math::sigmoid),
                Activation::Identity => h,
            };
        }
        h
    }

    /// Applies the stack to `x: [N, widths[0]]`; each layer+activation
    /// pair is a single fused tape node.
    pub fn forward(&self, bind: &Binding<'_>, x: &Var) -> Var {
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i == last { self.output } else { self.hidden };
            h = layer.forward_act(bind, &h, act);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spectragan_tensor::Tape;

    #[test]
    fn linear_shapes_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, 3, 2, &mut rng);
        assert_eq!(layer.in_features(), 3);
        assert_eq!(layer.out_features(), 2);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let x = tape.leaf(Tensor::zeros([4, 3]));
        let y = layer.forward(&bind, &x);
        assert_eq!(y.shape().dims(), &[4, 2]);
        // Zero input → output equals bias (zero-initialized).
        assert!(y.value().data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn conv2d_preserves_spatial_dims_with_same_padding() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let layer = Conv2d::new(&mut store, 3, 8, 3, 1, &mut rng);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let x = tape.leaf(Tensor::zeros([2, 3, 10, 10]));
        let y = layer.forward(&bind, &x);
        assert_eq!(y.shape().dims(), &[2, 8, 10, 10]);
    }

    #[test]
    fn mlp_output_activation_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            &[5, 8, 1],
            Activation::LeakyRelu,
            Activation::Sigmoid,
            &mut rng,
        );
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let x = tape.leaf(Tensor::randn([6, 5], &mut rng));
        let y = mlp.forward(&bind, &x);
        assert_eq!(y.shape().dims(), &[6, 1]);
        assert!(y.value().data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn infer_matches_tape_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, 4, 3, &mut rng);
        let conv = Conv2d::new(&mut store, 2, 3, 3, 1, &mut rng);
        let mlp = Mlp::new(
            &mut store,
            &[4, 6, 2],
            Activation::LeakyRelu,
            Activation::Sigmoid,
            &mut rng,
        );
        let x2 = Tensor::randn([5, 4], &mut rng);
        let x4 = Tensor::randn([2, 2, 6, 6], &mut rng);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let a = lin.forward(&bind, &tape.leaf(x2.clone()));
        let b = conv.forward(&bind, &tape.leaf(x4.clone()));
        let c = mlp.forward(&bind, &tape.leaf(x2.clone()));
        for (tape_out, infer_out) in [
            (a.value(), lin.forward_infer(&store, &x2)),
            (b.value(), conv.forward_infer(&store, &x4)),
            (c.value(), mlp.forward_infer(&store, &x2)),
        ] {
            for (p, q) in tape_out.data().iter().zip(infer_out.data()) {
                assert!((p - q).abs() < 1e-6);
            }
        }
    }

    /// End-to-end sanity: a linear layer can fit a known linear map.
    #[test]
    fn linear_regression_converges() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, 2, 1, &mut rng);
        let mut opt = Adam::new(5e-2);
        // Target: y = 2·x0 − 3·x1 + 1.
        let xs = Tensor::randn([64, 2], &mut rng);
        let mut ys = Tensor::zeros([64, 1]);
        for i in 0..64 {
            ys.data_mut()[i] = 2.0 * xs.data()[2 * i] - 3.0 * xs.data()[2 * i + 1] + 1.0;
        }
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let tape = Tape::new();
            let bind = Binding::new(&tape, &store);
            let x = tape.leaf(xs.clone());
            let loss = layer.forward(&bind, &x).mse_to(&ys);
            last = loss.value().item();
            let grads = tape.backward(&loss);
            let bound = bind.bound();
            opt.step(&mut store, &bound, &grads);
        }
        assert!(last < 1e-3, "did not converge: loss {last}");
    }
}
