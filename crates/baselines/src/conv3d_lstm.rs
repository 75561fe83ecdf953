//! Conv{3D+LSTM}-lite — a black-box spatiotemporal conditional GAN
//! (§3.3).
//!
//! Represents the spatiotemporal-generation state of the art (Saxena &
//! Cao style Conv3D + ConvLSTM): it reuses the same context encoder as
//! SpectraGAN (as the paper does), then rolls a pixel-batched LSTM
//! whose per-step hidden states are *convolutionally mixed* into each
//! output frame — local spatial dynamics from convolution, long-term
//! correlations from recurrence, but **no spectral inductive bias**:
//! all computation is correlated and agnostic to the periodic structure
//! of traffic, the weakness §4.1 attributes to this family.

use crate::util::{lrelu, randn1, stack};
use crate::BaselineTrainConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spectragan_geo::{City, ContextMap, GridSpec, PatchLayout, PatchSpec, TrafficMap};
use spectragan_nn::{Adam, Binding, Conv2d, Linear, Lstm, ParamStore, Tape, Tensor, Var};

/// Hyper-parameters (geometry kept in line with the core model).
#[derive(Debug, Clone, Copy)]
pub struct Conv3dLstmConfig {
    /// Context attribute count.
    pub context_channels: usize,
    /// Traffic patch side.
    pub patch_traffic: usize,
    /// Generation stride.
    pub patch_stride: usize,
    /// Training series length.
    pub train_len: usize,
    /// Noise dimension.
    pub noise_dim: usize,
    /// Encoder channels.
    pub encoder_channels: usize,
    /// LSTM hidden size.
    pub hidden: usize,
    /// L1 weight.
    pub lambda: f32,
    /// Random time window the discriminator sees per step (0 = full).
    pub disc_time_window: usize,
}

impl Conv3dLstmConfig {
    /// CPU-scale defaults.
    pub fn default_hourly() -> Self {
        Conv3dLstmConfig {
            context_channels: 27,
            patch_traffic: 8,
            patch_stride: 4,
            train_len: 168,
            noise_dim: 4,
            encoder_channels: 12,
            hidden: 16,
            lambda: 10.0,
            disc_time_window: 48,
        }
    }

    /// Tiny test configuration.
    pub fn tiny() -> Self {
        Conv3dLstmConfig {
            context_channels: 27,
            patch_traffic: 4,
            patch_stride: 2,
            train_len: 24,
            noise_dim: 2,
            encoder_channels: 6,
            hidden: 6,
            lambda: 10.0,
            disc_time_window: 0,
        }
    }

    fn patch_context(&self) -> usize {
        2 * self.patch_traffic
    }

    fn pixels(&self) -> usize {
        self.patch_traffic * self.patch_traffic
    }
}

/// The Conv{3D+LSTM}-lite model.
pub struct Conv3dLstmLite {
    cfg: Conv3dLstmConfig,
    store: ParamStore,
    enc1: Conv2d,
    enc2: Conv2d,
    lstm: Lstm,
    mix: Conv2d,
    d_enc1: Conv2d,
    d_enc2: Conv2d,
    d_lstm: Lstm,
    d_head: Linear,
    gen_param_end: usize,
}

impl Conv3dLstmLite {
    /// Builds the model with fresh weights.
    pub fn new(cfg: Conv3dLstmConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let (c, ch) = (cfg.context_channels, cfg.encoder_channels);
        let enc1 = Conv2d::new(&mut store, c, ch, 3, 1, &mut rng);
        let enc2 = Conv2d::new(&mut store, ch, ch, 3, 1, &mut rng);
        let lstm = Lstm::new(&mut store, ch + cfg.noise_dim, cfg.hidden, &mut rng);
        let mix = Conv2d::new(&mut store, cfg.hidden, 1, 3, 1, &mut rng);
        let gen_param_end = store.len();
        let d_enc1 = Conv2d::new(&mut store, c, ch, 3, 1, &mut rng);
        let d_enc2 = Conv2d::new(&mut store, ch, ch, 3, 1, &mut rng);
        let d_lstm = Lstm::new(&mut store, 1 + ch, cfg.hidden, &mut rng);
        let d_head = Linear::new(&mut store, cfg.hidden, 1, &mut rng);
        Conv3dLstmLite {
            cfg,
            store,
            enc1,
            enc2,
            lstm,
            mix,
            d_enc1,
            d_enc2,
            d_lstm,
            d_head,
            gen_param_end,
        }
    }

    /// Generator on the tape: per-step frames `[P, 1, H_t, W_t]`,
    /// concatenated to series rows `[N_px, T]`.
    fn gen_forward(&self, bind: &Binding<'_>, ctx: &Var, z: &Var, t: usize) -> Var {
        let cfg = &self.cfg;
        let h = self.enc1.forward(bind, ctx).leaky_relu(0.2).avg_pool2();
        let h = self.enc2.forward(bind, &h).leaky_relu(0.2);
        let hz = Var::concat(&[h, z.clone()], 1);
        let d = hz.shape();
        let (p, c_in, ht, wt) = (d.dim(0), d.dim(1), d.dim(2), d.dim(3));
        let rows = hz.permute(&[0, 2, 3, 1]).reshape([p * ht * wt, c_in]);
        let xw = self.lstm.precompute_input(bind, &rows);
        let mut state = self.lstm.zero_state(bind, p * ht * wt);
        let mut outs = Vec::with_capacity(t);
        for _ in 0..t {
            state = self.lstm.step_projected(bind, &xw, &state);
            // Hidden rows → spatial layout → conv mix → frame rows.
            let hid = state
                .h
                .reshape([p, ht, wt, cfg.hidden])
                .permute(&[0, 3, 1, 2]);
            let frame = self.mix.forward(bind, &hid); // [P,1,ht,wt]
            outs.push(frame.permute(&[0, 2, 3, 1]).reshape([p * ht * wt, 1]));
        }
        Var::concat(&outs, 1)
    }

    fn disc_ctx_rows(&self, bind: &Binding<'_>, ctx: &Var) -> Var {
        let h = self.d_enc1.forward(bind, ctx).leaky_relu(0.2).avg_pool2();
        let h = self.d_enc2.forward(bind, &h).leaky_relu(0.2);
        let d = h.shape();
        let (p, c, ht, wt) = (d.dim(0), d.dim(1), d.dim(2), d.dim(3));
        h.permute(&[0, 2, 3, 1]).reshape([p * ht * wt, c])
    }

    fn disc_logits(&self, bind: &Binding<'_>, series: &Var, ctx_rows: &Var) -> Var {
        let h = self.d_lstm.last_hidden(bind, series, ctx_rows);
        self.d_head.forward(bind, &h)
    }

    /// Adversarial training with an L1 term (the usual conditional-GAN
    /// recipe for this architecture family).
    pub fn train(&mut self, cities: &[City], tc: &BaselineTrainConfig) {
        let cfg = self.cfg;
        let mut rng = StdRng::seed_from_u64(tc.seed);
        let mut samples: Vec<(Tensor, Tensor)> = Vec::new();
        for city in cities {
            assert!(city.traffic.len_t() >= cfg.train_len);
            let ctx = city.context.standardized();
            let layout = PatchLayout::new(
                city.grid(),
                PatchSpec::new(cfg.patch_traffic, cfg.patch_context(), cfg.patch_traffic),
            );
            for &pos in layout.positions() {
                let c = layout.extract_context(&ctx, pos);
                let x = layout.extract_traffic(&city.traffic, pos, 0, cfg.train_len);
                // Series rows [px, T].
                let rows = x.permute(&[1, 2, 0]).reshape([cfg.pixels(), cfg.train_len]);
                samples.push((c, rows));
            }
        }
        let mut opt_g = Adam::gan(tc.lr).with_clip_norm(5.0);
        let mut opt_d = Adam::gan(tc.lr).with_clip_norm(5.0);
        let tape = Tape::new();
        for _ in 0..tc.steps {
            tape.reset_keep_capacity();
            let batch: Vec<&(Tensor, Tensor)> = (0..tc.batch)
                .map(|_| &samples[rng.gen_range(0..samples.len())])
                .collect();
            let ctx_batch = stack(&batch.iter().map(|(c, _)| c).collect::<Vec<_>>());
            let real_rows = {
                let refs: Vec<&Tensor> = batch.iter().map(|(_, r)| r).collect();
                Tensor::concat(&refs, 0)
            };
            let mut z = Tensor::zeros([
                tc.batch,
                cfg.noise_dim,
                cfg.patch_traffic,
                cfg.patch_traffic,
            ]);
            for p in 0..tc.batch {
                for d in 0..cfg.noise_dim {
                    let v = randn1(&mut rng);
                    let hw = cfg.pixels();
                    for e in 0..hw {
                        z.data_mut()[(p * cfg.noise_dim + d) * hw + e] = v;
                    }
                }
            }
            let bind = Binding::new(&tape, &self.store);
            let ctx_var = tape.leaf(ctx_batch);
            let fake = self.gen_forward(&bind, &ctx_var, &tape.leaf(z), cfg.train_len);
            let ctx_rows = self.disc_ctx_rows(&bind, &ctx_var);
            let real_var = tape.leaf(real_rows.clone());
            let fake_det = tape.leaf(fake.value().as_ref().clone());
            let t_full = cfg.train_len;
            let win = if cfg.disc_time_window == 0 {
                t_full
            } else {
                cfg.disc_time_window.min(t_full)
            };
            let w0 = if win < t_full {
                rng.gen_range(0..=t_full - win)
            } else {
                0
            };
            let d_loss = self
                .disc_logits(&bind, &real_var.narrow(1, w0, win), &ctx_rows)
                .bce_with_logits(1.0)
                .add(
                    &self
                        .disc_logits(&bind, &fake_det.narrow(1, w0, win), &ctx_rows)
                        .bce_with_logits(0.0),
                );
            let g_loss = self
                .disc_logits(&bind, &fake.narrow(1, w0, win), &ctx_rows)
                .bce_with_logits(1.0)
                .add(&fake.l1_to(&real_rows).scale(cfg.lambda));
            let grads_d = tape.backward(&d_loss);
            let grads_g = tape.backward(&g_loss);
            let bound = bind.bound();
            let boundary = self.gen_param_end;
            let (g_bound, d_bound): (Vec<_>, Vec<_>) =
                bound.into_iter().partition(|(id, _)| id.index() < boundary);
            opt_d.step(&mut self.store, &d_bound, &grads_d);
            opt_g.step(&mut self.store, &g_bound, &grads_g);
        }
    }

    /// Tape-free generation with sliding-window sewing (same pipeline
    /// shape as the core model; shared noise across patches).
    pub fn generate(&self, context: &ContextMap, t_out: usize, seed: u64) -> TrafficMap {
        let cfg = self.cfg;
        let grid = GridSpec::new(context.height(), context.width());
        let layout = PatchLayout::new(
            grid,
            PatchSpec::new(cfg.patch_traffic, cfg.patch_context(), cfg.patch_stride),
        );
        let ctx_std = context.standardized();
        let mut rng = StdRng::seed_from_u64(seed);
        let z_vec: Vec<f32> = (0..cfg.noise_dim).map(|_| randn1(&mut rng)).collect();
        let side = cfg.patch_traffic;
        let px = cfg.pixels();
        // Stream each patch straight into the running sew sums instead
        // of materializing every overlapping patch for the whole city.
        let mut acc = layout.sew_accumulator(t_out);
        for &pos in layout.positions().to_vec().iter() {
            let ctx_t = layout.extract_context(&ctx_std, pos);
            let d = ctx_t.shape().dims().to_vec();
            let ctx_b = ctx_t.reshape([1, d[0], d[1], d[2]]);
            let h = lrelu(self.enc1.forward_infer(&self.store, &ctx_b)).avg_pool2();
            let h = lrelu(self.enc2.forward_infer(&self.store, &h));
            let mut z = Tensor::zeros([1, cfg.noise_dim, side, side]);
            for (dd, &zv) in z_vec.iter().enumerate() {
                for e in 0..px {
                    z.data_mut()[dd * px + e] = zv;
                }
            }
            let hz = Tensor::concat(&[&h, &z], 1);
            let c_in = hz.shape().dim(1);
            let rows = hz.permute(&[0, 2, 3, 1]).reshape([px, c_in]);
            let xw = rows.matmul(self.store.get(self.lstm.wx_param()));
            let (mut hh, mut cc) = self.lstm.zero_state_infer(px);
            let mut patch = Tensor::zeros([t_out, side, side]);
            for t in 0..t_out {
                let (h2, c2) = self.lstm.step_infer_projected(&self.store, &xw, &hh, &cc);
                hh = h2;
                cc = c2;
                let hid = hh
                    .reshape([1, side, side, cfg.hidden])
                    .permute(&[0, 3, 1, 2]);
                let frame = self.mix.forward_infer(&self.store, &hid);
                for yy in 0..side {
                    for xx in 0..side {
                        *patch.at_mut(&[t, yy, xx]) = frame.at(&[0, 0, yy, xx]).max(0.0);
                    }
                }
            }
            acc.push(&patch);
        }
        let mut map = acc.finish();
        for v in map.data_mut() {
            *v = v.max(0.0);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};

    fn city(seed: u64) -> City {
        let ds = DatasetConfig {
            weeks: 1,
            steps_per_hour: 1,
            size_scale: 0.36,
        };
        generate_city(
            &CityConfig {
                name: "C3".into(),
                height: 33,
                width: 33,
                seed,
            },
            &ds,
        )
    }

    #[test]
    fn trains_and_generates() {
        let c = city(1);
        let mut model = Conv3dLstmLite::new(Conv3dLstmConfig::tiny(), 0);
        let tc = BaselineTrainConfig {
            steps: 3,
            batch: 1,
            lr: 1e-3,
            seed: 0,
        };
        model.train(std::slice::from_ref(&c), &tc);
        let out = model.generate(&c.context, 30, 0);
        assert_eq!(out.len_t(), 30);
        assert_eq!(out.height(), c.traffic.height());
        assert!(out.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn output_conv_couples_neighbouring_pixels() {
        // Unlike DoppelGANger, per-step conv mixing makes neighbouring
        // pixels correlated even under spatially uniform context.
        let model = Conv3dLstmLite::new(Conv3dLstmConfig::tiny(), 2);
        let mut uniform = ContextMap::zeros(27, 8, 8);
        for v in uniform.data_mut() {
            *v = 0.3;
        }
        let out = model.generate(&uniform, 24, 1);
        let a = out.pixel_series(3, 3);
        let b = out.pixel_series(3, 4);
        let pcc = spectragan_metrics::pearson(&a, &b);
        assert!(pcc.abs() > 0.5 || a == b, "no spatial coupling: {pcc}");
    }
}
