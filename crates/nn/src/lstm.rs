//! LSTM layer.
//!
//! The paper uses "batched LSTM" networks for the residual time-series
//! generator `G^t` and the time-domain discriminator `R^t` (§2.2.2-3).
//! This is a standard single-layer LSTM with the usual gate equations:
//!
//! ```text
//! i = σ(x·Wxi + h·Whi + bi)      f = σ(x·Wxf + h·Whf + bf)
//! g = tanh(x·Wxg + h·Whg + bg)   o = σ(x·Wxo + h·Who + bo)
//! c' = f ⊙ c + i ⊙ g             h' = o ⊙ tanh(c')
//! ```
//!
//! The four gates are fused into single `[in, 4·hidden]` / `[hidden,
//! 4·hidden]` weight matrices in i, f, g, o order. The forget-gate bias
//! is initialized to 1, the standard trick to keep memory open early in
//! training.

use crate::init;
use crate::layers::Linear;
use crate::param::{Binding, ParamId, ParamStore};
use rand::Rng;
use spectragan_tensor::{lstm_seq, math, Tensor, Var};

/// Hidden and cell state of an LSTM, each `[N, hidden]`.
#[derive(Clone)]
pub struct LstmState {
    /// Hidden state `h`.
    pub h: Var,
    /// Cell state `c`.
    pub c: Var,
}

/// A single-layer LSTM.
#[derive(Debug, Clone)]
pub struct Lstm {
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
    input_size: usize,
    hidden_size: usize,
}

impl Lstm {
    /// Registers a new LSTM with Xavier-initialized weights.
    pub fn new(
        store: &mut ParamStore,
        input_size: usize,
        hidden_size: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let wx = store.register(
            format!("lstm.wx[{input_size}x{}]", 4 * hidden_size),
            init::xavier_uniform([input_size, 4 * hidden_size], input_size, hidden_size, rng),
        );
        let wh = store.register(
            format!("lstm.wh[{hidden_size}x{}]", 4 * hidden_size),
            init::xavier_uniform(
                [hidden_size, 4 * hidden_size],
                hidden_size,
                hidden_size,
                rng,
            ),
        );
        // Bias layout [i | f | g | o]; forget gate biased to 1.
        let mut bias = Tensor::zeros([4 * hidden_size]);
        for v in &mut bias.data_mut()[hidden_size..2 * hidden_size] {
            *v = 1.0;
        }
        let b = store.register(format!("lstm.b[{}]", 4 * hidden_size), bias);
        Lstm {
            wx,
            wh,
            b,
            input_size,
            hidden_size,
        }
    }

    /// Input feature width.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Handle of the input weight `Wx` (e.g. to pre-project a
    /// time-constant input once outside an inference loop).
    pub fn wx_param(&self) -> ParamId {
        self.wx
    }

    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Zero initial state for a batch of `n` sequences on `bind`'s tape.
    pub fn zero_state(&self, bind: &Binding<'_>, n: usize) -> LstmState {
        LstmState {
            h: bind.tape().leaf(Tensor::zeros([n, self.hidden_size])),
            c: bind.tape().leaf(Tensor::zeros([n, self.hidden_size])),
        }
    }

    /// One time step: consumes `x: [N, input]` and the previous state,
    /// returns the next state.
    pub fn step(&self, bind: &Binding<'_>, x: &Var, state: &LstmState) -> LstmState {
        let hs = self.hidden_size;
        let gates = x
            .matmul(&bind.var(self.wx))
            .add(&state.h.matmul(&bind.var(self.wh)))
            .add_rowvec(&bind.var(self.b));
        let i = gates.narrow(1, 0, hs).sigmoid();
        let f = gates.narrow(1, hs, hs).sigmoid();
        let g = gates.narrow(1, 2 * hs, hs).tanh();
        let o = gates.narrow(1, 3 * hs, hs).sigmoid();
        let c = f.mul(&state.c).add(&i.mul(&g));
        let h = o.mul(&c.tanh());
        LstmState { h, c }
    }

    /// Precomputes the input projection `x·Wx` once, for inputs that do
    /// not change across time steps (the residual generator `G^t` feeds
    /// the same context features at every step — hoisting this matmul
    /// out of the time loop removes `T − 1` of the `T` input products).
    pub fn precompute_input(&self, bind: &Binding<'_>, x: &Var) -> Var {
        x.matmul(&bind.var(self.wx))
    }

    /// One time step given the precomputed input projection `xw = x·Wx`
    /// (see [`Lstm::precompute_input`]).
    pub fn step_projected(&self, bind: &Binding<'_>, xw: &Var, state: &LstmState) -> LstmState {
        let hs = self.hidden_size;
        let gates = xw
            .add(&state.h.matmul(&bind.var(self.wh)))
            .add_rowvec(&bind.var(self.b));
        let i = gates.narrow(1, 0, hs).sigmoid();
        let f = gates.narrow(1, hs, hs).sigmoid();
        let g = gates.narrow(1, 2 * hs, hs).tanh();
        let o = gates.narrow(1, 3 * hs, hs).sigmoid();
        let c = f.mul(&state.c).add(&i.mul(&g));
        let h = o.mul(&c.tanh());
        LstmState { h, c }
    }

    /// Tape-free step for inference: `(h, c) → (h', c')` given input
    /// `x: [N, input]` as plain tensors.
    pub fn step_infer(
        &self,
        store: &ParamStore,
        x: &Tensor,
        h: &Tensor,
        c: &Tensor,
    ) -> (Tensor, Tensor) {
        self.step_infer_projected(store, &x.matmul(store.get(self.wx)), h, c)
    }

    /// Tape-free step for inference with a precomputed input projection.
    pub fn step_infer_projected(
        &self,
        store: &ParamStore,
        xw: &Tensor,
        h: &Tensor,
        c: &Tensor,
    ) -> (Tensor, Tensor) {
        let hs = self.hidden_size;
        let mut gates = xw.add(&h.matmul(store.get(self.wh)));
        let b = store.get(self.b);
        let n = gates.shape().dim(0);
        for row in 0..n {
            for col in 0..4 * hs {
                gates.data_mut()[row * 4 * hs + col] += b.data()[col];
            }
        }
        let mut h_new = Tensor::zeros([n, hs]);
        let mut c_new = Tensor::zeros([n, hs]);
        for row in 0..n {
            for k in 0..hs {
                let g_row = &gates.data()[row * 4 * hs..(row + 1) * 4 * hs];
                let i = math::sigmoid(g_row[k]);
                let f = math::sigmoid(g_row[hs + k]);
                let g = math::tanh(g_row[2 * hs + k]);
                let o = math::sigmoid(g_row[3 * hs + k]);
                let c_val = f * c.data()[row * hs + k] + i * g;
                c_new.data_mut()[row * hs + k] = c_val;
                h_new.data_mut()[row * hs + k] = o * math::tanh(c_val);
            }
        }
        (h_new, c_new)
    }

    /// Zero initial state as plain tensors (for inference).
    pub fn zero_state_infer(&self, n: usize) -> (Tensor, Tensor) {
        (
            Tensor::zeros([n, self.hidden_size]),
            Tensor::zeros([n, self.hidden_size]),
        )
    }

    /// Runs `steps` steps from the zero state on the time-constant
    /// input projection `xw: [N, 4·hidden]` (see
    /// [`Lstm::precompute_input`]), reading each step's hidden state
    /// through the one-output `head`: returns the series `[N, steps]`
    /// as one tape node ([`Var::lstm_rollout`]). Under the scalar
    /// backend its value and gradients are bit-identical to the step
    /// loop of [`Lstm::step_projected`] and [`Linear::forward`] joined
    /// by [`Var::concat`].
    ///
    /// # Panics
    /// Panics unless `xw` is `[N, 4·hidden]`, `head` maps `hidden`
    /// features to one output and `steps > 0`.
    pub fn rollout(&self, bind: &Binding<'_>, xw: &Var, head: &Linear, steps: usize) -> Var {
        xw.lstm_rollout(
            &bind.var(self.wh),
            &bind.var(self.b),
            &bind.var(head.w),
            &bind.var(head.b),
            steps,
        )
    }

    /// Runs the LSTM from the zero state over the columns of `series:
    /// [N, T]`, feeding step `t` the input `[series[:, t], ctx]` (so
    /// `input_size` is `1 + C` for `ctx: [N, C]`), and returns the last
    /// hidden state `[N, hidden]` as one tape node
    /// ([`Var::lstm_last_hidden`]). Under the scalar backend its value
    /// and gradients are bit-identical to the step loop of
    /// [`Lstm::step`] over `Var::concat(&[series.narrow(1, t, 1),
    /// ctx], 1)`.
    ///
    /// # Panics
    /// Panics on mismatched shapes or an empty series.
    pub fn last_hidden(&self, bind: &Binding<'_>, series: &Var, ctx: &Var) -> Var {
        series.lstm_last_hidden(
            ctx,
            &bind.var(self.wx),
            &bind.var(self.wh),
            &bind.var(self.b),
        )
    }

    /// Tape-free rollout of `t_out` steps from the zero state, each
    /// step's hidden state projected through the one-output `head`:
    /// returns `[N, t_out]`, row `r` holding row `r`'s series, given
    /// the precomputed input projection `xw: [N, 4·hidden]` (a
    /// time-constant input, see [`Lstm::precompute_input`]).
    ///
    /// This is the forward kernel of [`Lstm::rollout`] without a tape
    /// ([`spectragan_tensor::lstm_seq::rollout`]): each row runs all of
    /// its steps in scratch of its own, and rows are spread over the
    /// pool. Under the scalar backend the result is bit-identical to
    /// the step loop of [`Lstm::step_infer_projected`] and
    /// [`Linear::forward_infer`], at any thread count; under any
    /// backend it is bit-identical across thread counts and to the
    /// taped rollout's value.
    ///
    /// # Panics
    /// Panics unless `xw` is `[N, 4·hidden]` and `head` maps `hidden`
    /// features to one output.
    pub fn rollout_infer(
        &self,
        store: &ParamStore,
        xw: &Tensor,
        head: &Linear,
        t_out: usize,
    ) -> Tensor {
        let g4 = 4 * self.hidden_size;
        assert!(
            xw.shape().ndim() == 2 && xw.shape().dim(1) == g4,
            "rollout_infer: input projection {} is not [N, {g4}]",
            xw.shape()
        );
        assert!(
            head.in_features() == self.hidden_size && head.out_features() == 1,
            "rollout_infer: head maps {} → {}, expected {} → 1",
            head.in_features(),
            head.out_features(),
            self.hidden_size
        );
        lstm_seq::rollout(
            xw,
            store.get(self.wh),
            store.get(self.b),
            store.get(head.w),
            store.get(head.b).data()[0],
            t_out,
        )
    }

    /// Runs the LSTM over a sequence of inputs, returning the hidden
    /// state after every step.
    pub fn forward_seq(&self, bind: &Binding<'_>, xs: &[Var], init: Option<LstmState>) -> Vec<Var> {
        assert!(!xs.is_empty(), "forward_seq on empty sequence");
        let n = xs[0].shape().dim(0);
        let mut state = init.unwrap_or_else(|| self.zero_state(bind, n));
        let mut out = Vec::with_capacity(xs.len());
        for x in xs {
            state = self.step(bind, x, &state);
            out.push(state.h.clone());
        }
        out
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
    fn step_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, 3, 5, &mut rng);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let x = tape.leaf(Tensor::randn([2, 3], &mut rng));
        let s = lstm.step(&bind, &x, &lstm.zero_state(&bind, 2));
        assert_eq!(s.h.shape().dims(), &[2, 5]);
        assert_eq!(s.c.shape().dims(), &[2, 5]);
    }

    #[test]
    fn hidden_state_is_bounded_by_tanh() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, 4, 8, &mut rng);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let xs: Vec<Var> = (0..20)
            .map(|_| tape.leaf(Tensor::randn([3, 4], &mut rng).scale(5.0)))
            .collect();
        let hs = lstm.forward_seq(&bind, &xs, None);
        for h in hs {
            assert!(h.value().max() <= 1.0 && h.value().min() >= -1.0);
        }
    }

    #[test]
    fn zero_input_keeps_state_near_zero_initially() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, 2, 4, &mut rng);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let x = tape.leaf(Tensor::zeros([1, 2]));
        let s = lstm.step(&bind, &x, &lstm.zero_state(&bind, 1));
        // With zero input/state, gates are pure bias; c' = i(b)·g(b) and
        // g(bias 0) = 0, so the new cell is exactly 0.
        assert!(s.c.value().data().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn infer_matches_tape_step() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, 3, 5, &mut rng);
        let x = Tensor::randn([2, 3], &mut rng);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let mut state = lstm.zero_state(&bind, 2);
        let xw = lstm.precompute_input(&bind, &tape.leaf(x.clone()));
        state = lstm.step_projected(&bind, &xw, &state);
        state = lstm.step_projected(&bind, &xw, &state);

        let (mut h, mut c) = lstm.zero_state_infer(2);
        for _ in 0..2 {
            let (h2, c2) = lstm.step_infer(&store, &x, &h, &c);
            h = h2;
            c = c2;
        }
        for (p, q) in state.h.value().data().iter().zip(h.data()) {
            assert!((p - q).abs() < 1e-6);
        }
        for (p, q) in state.c.value().data().iter().zip(c.data()) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    /// The LSTM can learn a tiny memory task: output the *first* input
    /// of the sequence at the last step.
    #[test]
    fn learns_to_remember_first_input() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, 1, 8, &mut rng);
        let head = crate::layers::Linear::new(&mut store, 8, 1, &mut rng);
        let mut opt = Adam::new(2e-2);
        let seq_len = 5;
        let batch = 16;

        let mut last = f32::INFINITY;
        for epoch in 0..200 {
            let mut step_rng = StdRng::seed_from_u64(1000 + epoch);
            let first = Tensor::randn([batch, 1], &mut step_rng);
            let tape = Tape::new();
            let bind = Binding::new(&tape, &store);
            let mut xs = vec![tape.leaf(first.clone())];
            for _ in 1..seq_len {
                xs.push(tape.leaf(Tensor::randn([batch, 1], &mut step_rng)));
            }
            let hs = lstm.forward_seq(&bind, &xs, None);
            let pred = head.forward(&bind, hs.last().unwrap());
            let loss = pred.mse_to(&first);
            last = loss.value().item();
            let grads = tape.backward(&loss);
            let bound = bind.bound();
            opt.step(&mut store, &bound, &grads);
        }
        assert!(last < 0.1, "memory task did not converge: {last}");
    }
}
