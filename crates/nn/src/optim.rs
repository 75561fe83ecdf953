//! Optimizers: [`Adam`] (the paper's choice for GAN training) and
//! plain [`Sgd`], both with optional global-norm gradient clipping.
//!
//! Optimizer state is keyed by [`ParamId`], so one optimizer instance
//! can drive any subset of a [`ParamStore`] — which is how the GAN
//! trainer alternates generator and discriminator updates from separate
//! optimizers over one shared store.

use crate::param::{Binding, ParamId, ParamStore};
use serde::{Deserialize, Serialize};
use spectragan_obs as obs;
use spectragan_tensor::{Gradients, Tensor, Var};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Cached metric handles for optimizer steps. Recording self-gates on
/// [`obs::enabled`]; disabled cost is one relaxed load per step.
struct OptimMetrics {
    /// Pre-clip global gradient L2 norm of the most recent step.
    grad_norm: &'static obs::Gauge,
    /// Optimizer steps taken.
    steps: &'static obs::Counter,
    /// Steps whose gradients were rescaled by the clip.
    clips: &'static obs::Counter,
}

fn optim_metrics() -> &'static OptimMetrics {
    static M: OnceLock<OptimMetrics> = OnceLock::new();
    M.get_or_init(|| OptimMetrics {
        grad_norm: obs::gauge("spectragan_optim_grad_norm"),
        steps: obs::counter("spectragan_optim_steps_total"),
        clips: obs::counter("spectragan_optim_clip_total"),
    })
}

/// Serializable snapshot of one parameter's Adam moments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdamParamState {
    /// The parameter's registration index ([`ParamId::index`]).
    pub index: usize,
    /// First-moment estimate `m`.
    pub m: Tensor,
    /// Second-moment estimate `v`.
    pub v: Tensor,
    /// Per-parameter step count `t` (drives bias correction).
    pub t: u64,
}

/// Serializable snapshot of a whole [`Adam`] instance's mutable state —
/// everything beyond the constructor hyper-parameters. Restoring it
/// into a freshly built optimizer resumes the exact update sequence:
/// checkpoint/resume training is bit-identical to an uninterrupted run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AdamState {
    /// Per-parameter moments, sorted by parameter index so the snapshot
    /// (and anything hashed or diffed from it) is deterministic.
    pub entries: Vec<AdamParamState>,
}

/// Adam optimizer (Kingma & Ba) with bias correction.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    clip_norm: Option<f32>,
    /// Per-parameter `(m, v, t)` moments.
    state: HashMap<ParamId, (Tensor, Tensor, u64)>,
}

impl Adam {
    /// Creates Adam with the given learning rate and the standard
    /// `β₁ = 0.9, β₂ = 0.999, ε = 1e-8`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: None,
            state: HashMap::new(),
        }
    }

    /// GAN-style Adam (`β₁ = 0.5`), the setting conditional-GAN papers
    /// including Pix2Pix use for stability.
    pub fn gan(lr: f32) -> Self {
        Adam {
            beta1: 0.5,
            ..Adam::new(lr)
        }
    }

    /// Enables global-norm gradient clipping at `max_norm`.
    pub fn with_clip_norm(mut self, max_norm: f32) -> Self {
        self.clip_norm = Some(max_norm);
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Exports the optimizer's mutable state (moments and step counts)
    /// for checkpointing. Entries are sorted by parameter index, so two
    /// optimizers in the same state export identical snapshots.
    pub fn export_state(&self) -> AdamState {
        let mut entries: Vec<AdamParamState> = self
            .state
            .iter()
            .map(|(id, (m, v, t))| AdamParamState {
                index: id.index(),
                m: m.clone(),
                v: v.clone(),
                t: *t,
            })
            .collect();
        entries.sort_by_key(|e| e.index);
        AdamState { entries }
    }

    /// Replaces the optimizer's mutable state with a snapshot from
    /// [`Adam::export_state`]. Hyper-parameters (lr, betas, clipping)
    /// are untouched — the caller reconstructs those from its own
    /// configuration — so resuming requires building the optimizer the
    /// same way the original run did.
    pub fn import_state(&mut self, snapshot: &AdamState) {
        self.state.clear();
        for e in &snapshot.entries {
            self.state
                .insert(ParamId(e.index), (e.m.clone(), e.v.clone(), e.t));
        }
    }

    /// Applies one update using the gradients of the given bound
    /// parameters (from [`crate::param::Binding::bound`], which ends the
    /// store borrow so the store can be mutated here). Parameters
    /// without a gradient are skipped.
    pub fn step(
        &mut self,
        store: &mut ParamStore,
        bound: &[(ParamId, spectragan_tensor::Var)],
        grads: &Gradients,
    ) {
        self.apply_updates(store, collect_updates(bound, grads));
    }

    /// The apply phase of [`Adam::step`], decoupled from the tape:
    /// takes already-collected `(param, gradient)` updates — in bound
    /// (ascending-index) order, as [`collect_updates`] produces them —
    /// clips, and applies the Adam rule. `step` is exactly
    /// `apply_updates(store, collect_updates(bound, grads))`, so a
    /// caller that inspects or folds the gradients between the two
    /// (the GAN trainer's divergence guard and gradient accumulation)
    /// and feeds the identical update list through here updates the
    /// store bit-identically to the fused path.
    pub fn apply_updates(&mut self, store: &mut ParamStore, mut updates: Vec<(ParamId, Tensor)>) {
        apply_clip(&mut updates, self.clip_norm);
        for (id, g) in updates {
            let (m, v, t) = self.state.entry(id).or_insert_with(|| {
                let shape = store.get(id).shape().clone();
                (Tensor::zeros(shape.clone()), Tensor::zeros(shape), 0)
            });
            *t += 1;
            let (b1, b2) = (self.beta1, self.beta2);
            for ((mi, vi), &gi) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(g.data())
            {
                *mi = b1 * *mi + (1.0 - b1) * gi;
                *vi = b2 * *vi + (1.0 - b2) * gi * gi;
            }
            let bc1 = 1.0 - b1.powi(*t as i32);
            let bc2 = 1.0 - b2.powi(*t as i32);
            let lr = self.lr;
            let eps = self.eps;
            let param = store.get_mut(id);
            for ((pi, &mi), &vi) in param.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                *pi -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
    }
}

/// Plain stochastic gradient descent.
pub struct Sgd {
    lr: f32,
    clip_norm: Option<f32>,
}

impl Sgd {
    /// Creates SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            clip_norm: None,
        }
    }

    /// Enables global-norm gradient clipping at `max_norm`.
    pub fn with_clip_norm(mut self, max_norm: f32) -> Self {
        self.clip_norm = Some(max_norm);
        self
    }

    /// Applies one descent step (see [`Adam::step`] for semantics).
    pub fn step(
        &mut self,
        store: &mut ParamStore,
        bound: &[(ParamId, spectragan_tensor::Var)],
        grads: &Gradients,
    ) {
        self.apply_updates(store, collect_updates(bound, grads));
    }

    /// The apply phase of [`Sgd::step`]; same contract as
    /// [`Adam::apply_updates`].
    pub fn apply_updates(&mut self, store: &mut ParamStore, mut updates: Vec<(ParamId, Tensor)>) {
        apply_clip(&mut updates, self.clip_norm);
        for (id, g) in updates {
            store.get_mut(id).axpy(-self.lr, &g);
        }
    }
}

/// Collects the compute phase's output in the form the apply phase
/// consumes: one `(param, gradient)` pair per bound parameter that has
/// a gradient, in bound order — ascending [`ParamId::index`], which is
/// what makes the clip's float-sum order (and therefore the whole
/// update) reproducible from the list alone.
pub fn collect_updates(
    bound: &[(ParamId, spectragan_tensor::Var)],
    grads: &Gradients,
) -> Vec<(ParamId, Tensor)> {
    let mut updates: Vec<(ParamId, Tensor)> = Vec::new();
    for (id, var) in bound {
        if let Some(g) = grads.get(var) {
            updates.push((*id, g.clone()));
        }
    }
    updates
}

/// `(param, gradient)` pairs in bound order, as [`collect_updates`]
/// lists them.
type Updates = Vec<(ParamId, Tensor)>;

/// One GAN step's compute phase over one tape: the parameters `bind`
/// bound below index `gen_end` are the generator's and get `g_loss`'s
/// gradients, the rest are the discriminator's and get `d_loss`'s.
/// Returns `(d_updates, g_updates)` as [`collect_updates`] lists them.
///
/// Each backward walks only the nodes that depend on its own network's
/// parameters ([`Tape::backward_for`](spectragan_tensor::Tape::backward_for)),
/// so neither computes the other network's gradients, and every
/// gradient it returns is bit-identical to a whole-graph backward's.
pub fn gan_updates(
    bind: &Binding<'_>,
    gen_end: usize,
    d_loss: &Var,
    g_loss: &Var,
) -> (Updates, Updates) {
    let (g_bound, d_bound): (Vec<_>, Vec<_>) = bind
        .bound()
        .into_iter()
        .partition(|(id, _)| id.index() < gen_end);
    let tape = bind.tape();
    let d_updates = collect_updates(
        &d_bound,
        &tape.backward_for(d_loss, d_bound.iter().map(|(_, v)| v)),
    );
    let g_updates = collect_updates(
        &g_bound,
        &tape.backward_for(g_loss, g_bound.iter().map(|(_, v)| v)),
    );
    (d_updates, g_updates)
}

/// Scales all gradients so their joint L2 norm does not exceed
/// `max_norm` (no-op when `None` or already within bounds). Also
/// feeds the grad-norm/clip-rate observability gauges; the norm is
/// computed only when clipping or observability needs it, and reading
/// it never changes the update math.
fn apply_clip(updates: &mut [(ParamId, Tensor)], clip: Option<f32>) {
    let observing = obs::enabled();
    if clip.is_none() && !observing {
        return;
    }
    let total: f32 = updates
        .iter()
        .flat_map(|(_, g)| g.data())
        .map(|&v| v * v)
        .sum::<f32>()
        .sqrt();
    let mut clipped = false;
    if let Some(max_norm) = clip {
        if total > max_norm && total > 0.0 {
            clipped = true;
            let s = max_norm / total;
            for (_, g) in updates.iter_mut() {
                *g = g.scale(s);
            }
        }
    }
    if observing {
        let m = optim_metrics();
        m.grad_norm.set(total as f64);
        m.steps.inc(1);
        if clipped {
            m.clips.inc(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectragan_tensor::Tape;

    use crate::param::Binding;

    /// Minimizes `(w − 3)²` with each optimizer.
    fn converge<F: FnMut(&mut ParamStore, &[(ParamId, spectragan_tensor::Var)], &Gradients)>(
        mut step: F,
    ) -> f32 {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(0.0));
        for _ in 0..500 {
            let tape = Tape::new();
            let bind = Binding::new(&tape, &store);
            let wv = bind.var(w);
            let loss = wv.add_scalar(-3.0).mul(&wv.add_scalar(-3.0)).sum();
            let grads = tape.backward(&loss);
            let bound = bind.bound();
            step(&mut store, &bound, &grads);
        }
        store.get(w).item()
    }

    #[test]
    fn adam_converges_to_minimum() {
        let mut opt = Adam::new(5e-2);
        let w = converge(|s, b, g| opt.step(s, b, g));
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn sgd_converges_to_minimum() {
        let mut opt = Sgd::new(1e-1);
        let w = converge(|s, b, g| opt.step(s, b, g));
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(0.0));
        let mut opt = Sgd::new(1.0).with_clip_norm(0.5);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let wv = bind.var(w);
        // Loss 100·w → gradient 100, clipped to 0.5.
        let loss = wv.scale(100.0).sum();
        let grads = tape.backward(&loss);
        let bound = bind.bound();
        opt.step(&mut store, &bound, &grads);
        assert!((store.get(w).item() + 0.5).abs() < 1e-6);
    }

    /// Resuming from an exported state continues the exact update
    /// sequence: (K steps, snapshot, L steps) equals (K+L steps),
    /// bit-for-bit, and the snapshot survives a JSON roundtrip.
    #[test]
    fn state_snapshot_resumes_bit_identically() {
        let steps = |k: usize, l: usize, via_json: bool| -> Vec<u32> {
            let mut store = ParamStore::new();
            let w = store.register("w", Tensor::from_vec(vec![0.0, 1.0, -2.0], [3]));
            let mut opt = Adam::gan(5e-2).with_clip_norm(5.0);
            let one = |opt: &mut Adam, store: &mut ParamStore| {
                let tape = Tape::new();
                let bind = Binding::new(&tape, store);
                let wv = bind.var(w);
                let loss = wv.add_scalar(-3.0).mul(&wv.add_scalar(-3.0)).sum();
                let grads = tape.backward(&loss);
                let bound = bind.bound();
                opt.step(store, &bound, &grads);
            };
            for _ in 0..k {
                one(&mut opt, &mut store);
            }
            let mut resumed = Adam::gan(5e-2).with_clip_norm(5.0);
            let snap = opt.export_state();
            let snap = if via_json {
                let json = serde_json::to_string(&snap).unwrap();
                serde_json::from_str(&json).unwrap()
            } else {
                snap
            };
            resumed.import_state(&snap);
            for _ in 0..l {
                one(&mut resumed, &mut store);
            }
            store.get(w).data().iter().map(|v| v.to_bits()).collect()
        };
        let uninterrupted = steps(7, 0, false);
        assert_eq!(steps(3, 4, false), uninterrupted);
        assert_eq!(steps(5, 2, true), uninterrupted);
        assert_ne!(
            steps(6, 0, false),
            uninterrupted,
            "sanity: fewer steps differ"
        );
    }

    #[test]
    fn exported_state_is_sorted_and_complete() {
        let mut store = ParamStore::new();
        let ids: Vec<_> = (0..4)
            .map(|i| store.register(format!("p{i}"), Tensor::scalar(i as f32)))
            .collect();
        let mut opt = Adam::new(0.1);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        // Bind in reverse so the HashMap sees a scrambled insert order.
        let mut loss = bind.var(ids[3]).sum();
        for &id in ids[..3].iter().rev() {
            loss = loss.add(&bind.var(id).sum());
        }
        let grads = tape.backward(&loss);
        let bound = bind.bound();
        opt.step(&mut store, &bound, &grads);
        let snap = opt.export_state();
        let indices: Vec<_> = snap.entries.iter().map(|e| e.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
        assert!(snap.entries.iter().all(|e| e.t == 1));
    }

    /// `step` and `collect_updates` → `apply_updates` are the same
    /// computation, bit-for-bit — the contract the GAN trainer's
    /// split compute/apply phases rely on.
    #[test]
    fn split_collect_apply_matches_fused_step() {
        let run = |split: bool| -> Vec<u32> {
            let mut store = ParamStore::new();
            let w = store.register("w", Tensor::from_vec(vec![0.5, -1.5, 2.5], [3]));
            let mut opt = Adam::gan(5e-2).with_clip_norm(0.75);
            for _ in 0..6 {
                let tape = Tape::new();
                let bind = Binding::new(&tape, &store);
                let wv = bind.var(w);
                let loss = wv.add_scalar(-3.0).mul(&wv.add_scalar(-3.0)).sum();
                let grads = tape.backward(&loss);
                let bound = bind.bound();
                if split {
                    let updates = collect_updates(&bound, &grads);
                    opt.apply_updates(&mut store, updates);
                } else {
                    opt.step(&mut store, &bound, &grads);
                }
            }
            store.get(w).data().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn unbound_params_are_untouched() {
        let mut store = ParamStore::new();
        let used = store.register("used", Tensor::scalar(1.0));
        let unused = store.register("unused", Tensor::scalar(7.0));
        let mut opt = Adam::new(0.1);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let loss = bind.var(used).sum();
        let grads = tape.backward(&loss);
        let bound = bind.bound();
        opt.step(&mut store, &bound, &grads);
        assert_eq!(store.get(unused).item(), 7.0);
        assert!(store.get(used).item() < 1.0);
    }
}
