//! Pix2Pix-lite — a spatial-only conditional GAN (§3.3).
//!
//! Adapts the image-to-image translation recipe of Isola et al. [38] to
//! traffic: a convolutional generator maps a (wider) context window
//! plus noise to a single traffic *frame*; training pairs each context
//! patch with a randomly chosen real frame (adversarial + L1, the
//! Pix2Pix loss). The model has **no notion of time**: generation
//! draws a pool of frames per patch and assigns each time step one of
//! them at random, so maps look right but all temporal structure is
//! absent — matching the Fig. 7/8 behaviour (good SSIM, worst AC-L1).

use crate::util::{lrelu, randn1, stack};
use crate::BaselineTrainConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spectragan_geo::{City, ContextMap, GridSpec, PatchLayout, PatchSpec, TrafficMap};
use spectragan_nn::layers::Activation;
use spectragan_nn::{gan_updates, Adam, Binding, Conv2d, Mlp, ParamStore, Tape, Tensor, Var};

/// Geometry/width hyper-parameters (kept in line with the core model).
#[derive(Debug, Clone, Copy)]
pub struct Pix2PixConfig {
    /// Context attribute count.
    pub context_channels: usize,
    /// Traffic patch side.
    pub patch_traffic: usize,
    /// Generation stride.
    pub patch_stride: usize,
    /// Noise dimension.
    pub noise_dim: usize,
    /// Encoder channels.
    pub encoder_channels: usize,
    /// Feature channels before the output head.
    pub gen_channels: usize,
    /// L1 weight.
    pub lambda: f32,
    /// Distinct frames drawn per patch at generation time.
    pub frame_pool: usize,
}

impl Pix2PixConfig {
    /// CPU-scale defaults.
    pub fn default_hourly() -> Self {
        Pix2PixConfig {
            context_channels: 27,
            patch_traffic: 8,
            patch_stride: 4,
            noise_dim: 4,
            encoder_channels: 12,
            gen_channels: 24,
            lambda: 10.0,
            frame_pool: 16,
        }
    }

    /// Tiny test configuration.
    pub fn tiny() -> Self {
        Pix2PixConfig {
            context_channels: 27,
            patch_traffic: 4,
            patch_stride: 2,
            noise_dim: 2,
            encoder_channels: 6,
            gen_channels: 8,
            lambda: 10.0,
            frame_pool: 4,
        }
    }

    fn patch_context(&self) -> usize {
        2 * self.patch_traffic
    }
}

/// The Pix2Pix-lite model.
pub struct Pix2PixLite {
    cfg: Pix2PixConfig,
    store: ParamStore,
    enc1: Conv2d,
    enc2: Conv2d,
    feat: Conv2d,
    head: Conv2d,
    d_enc1: Conv2d,
    d_enc2: Conv2d,
    d_mlp: Mlp,
    gen_param_end: usize,
}

impl Pix2PixLite {
    /// Builds the model with fresh weights.
    pub fn new(cfg: Pix2PixConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let (c, ch, cs, z) = (
            cfg.context_channels,
            cfg.encoder_channels,
            cfg.gen_channels,
            cfg.noise_dim,
        );
        let enc1 = Conv2d::new(&mut store, c, ch, 3, 1, &mut rng);
        let enc2 = Conv2d::new(&mut store, ch, ch, 3, 1, &mut rng);
        let feat = Conv2d::new(&mut store, ch + z, cs, 3, 1, &mut rng);
        let head = Conv2d::new(&mut store, cs, 1, 3, 1, &mut rng);
        let gen_param_end = store.len();
        let d_enc1 = Conv2d::new(&mut store, c, ch, 3, 1, &mut rng);
        let d_enc2 = Conv2d::new(&mut store, ch, ch, 3, 1, &mut rng);
        let d_mlp = Mlp::new(
            &mut store,
            &[1 + ch, 2 * ch, 1],
            Activation::LeakyRelu,
            Activation::Identity,
            &mut rng,
        );
        Pix2PixLite {
            cfg,
            store,
            enc1,
            enc2,
            feat,
            head,
            d_enc1,
            d_enc2,
            d_mlp,
            gen_param_end,
        }
    }

    /// Generator forward on the tape: context `[P, C, Hc, Wc]` + noise
    /// `[P, Z, Ht, Wt]` → frame `[P, 1, Ht, Wt]`.
    fn gen_forward(&self, bind: &Binding<'_>, ctx: &Var, z: &Var) -> Var {
        let h = self.enc1.forward(bind, ctx).leaky_relu(0.2).avg_pool2();
        let h = self.enc2.forward(bind, &h).leaky_relu(0.2);
        let hz = Var::concat(&[h, z.clone()], 1);
        let f = self.feat.forward(bind, &hz).leaky_relu(0.2);
        self.head.forward(bind, &f)
    }

    /// Discriminator: per-pixel logits for a frame under its context.
    fn disc_logits(&self, bind: &Binding<'_>, frame: &Var, ctx: &Var) -> Var {
        let h = self.d_enc1.forward(bind, ctx).leaky_relu(0.2).avg_pool2();
        let h = self.d_enc2.forward(bind, &h).leaky_relu(0.2);
        let joint = Var::concat(&[frame.clone(), h], 1);
        let d = joint.shape();
        let (p, c, ht, wt) = (d.dim(0), d.dim(1), d.dim(2), d.dim(3));
        let rows = joint.permute(&[0, 2, 3, 1]).reshape([p * ht * wt, c]);
        self.d_mlp.forward(bind, &rows)
    }

    /// Trains on random (context window, real frame) pairs.
    pub fn train(&mut self, cities: &[City], tc: &BaselineTrainConfig) {
        let cfg = self.cfg;
        let mut rng = StdRng::seed_from_u64(tc.seed);
        // Pre-extract layouts and standardized contexts.
        let prepped: Vec<(PatchLayout, spectragan_geo::ContextMap, &TrafficMap)> = cities
            .iter()
            .map(|c| {
                (
                    PatchLayout::new(
                        c.grid(),
                        PatchSpec::new(cfg.patch_traffic, cfg.patch_context(), cfg.patch_traffic),
                    ),
                    c.context.standardized(),
                    &c.traffic,
                )
            })
            .collect();
        let mut opt_g = Adam::gan(tc.lr).with_clip_norm(5.0);
        let mut opt_d = Adam::gan(tc.lr).with_clip_norm(5.0);
        let tape = Tape::new();
        for _ in 0..tc.steps {
            tape.reset_keep_capacity();
            let mut ctxs = Vec::new();
            let mut frames = Vec::new();
            for _ in 0..tc.batch {
                let (layout, ctx, traffic) = &prepped[rng.gen_range(0..prepped.len())];
                let pos = layout.positions()[rng.gen_range(0..layout.positions().len())];
                let t = rng.gen_range(0..traffic.len_t());
                ctxs.push(layout.extract_context(ctx, pos));
                frames.push(layout.extract_traffic(traffic, pos, t, t + 1));
            }
            let ctx_batch = stack(&ctxs.iter().collect::<Vec<_>>());
            let frame_batch = stack(&frames.iter().collect::<Vec<_>>());
            let mut z = Tensor::zeros([
                tc.batch,
                cfg.noise_dim,
                cfg.patch_traffic,
                cfg.patch_traffic,
            ]);
            for v in z.data_mut() {
                *v = randn1(&mut rng);
            }

            let bind = Binding::new(&tape, &self.store);
            let ctx_var = tape.leaf(ctx_batch);
            let fake = self.gen_forward(&bind, &ctx_var, &tape.leaf(z));
            let real_var = tape.leaf(frame_batch.clone());
            let fake_det = tape.leaf(fake.value().as_ref().clone());
            let d_loss = self
                .disc_logits(&bind, &real_var, &ctx_var)
                .bce_with_logits(1.0)
                .add(
                    &self
                        .disc_logits(&bind, &fake_det, &ctx_var)
                        .bce_with_logits(0.0),
                );
            let g_loss = self
                .disc_logits(&bind, &fake, &ctx_var)
                .bce_with_logits(1.0)
                .add(&fake.l1_to(&frame_batch).scale(cfg.lambda));
            let (d_updates, g_updates) = gan_updates(&bind, self.gen_param_end, &d_loss, &g_loss);
            opt_d.apply_updates(&mut self.store, d_updates);
            opt_g.apply_updates(&mut self.store, g_updates);
        }
    }

    /// Tape-free frame generation for one batch of context patches.
    fn infer_frames(&self, ctx: &Tensor, z: &Tensor) -> Tensor {
        let h = lrelu(self.enc1.forward_infer(&self.store, ctx)).avg_pool2();
        let h = lrelu(self.enc2.forward_infer(&self.store, &h));
        let hz = Tensor::concat(&[&h, z], 1);
        let f = lrelu(self.feat.forward_infer(&self.store, &hz));
        self.head.forward_infer(&self.store, &f)
    }

    /// Generates `t_out` steps: a pool of frames per patch, one frame
    /// chosen per time step at random (no temporal model by design).
    pub fn generate(&self, context: &ContextMap, t_out: usize, seed: u64) -> TrafficMap {
        let cfg = self.cfg;
        let grid = GridSpec::new(context.height(), context.width());
        let layout = PatchLayout::new(
            grid,
            PatchSpec::new(cfg.patch_traffic, cfg.patch_context(), cfg.patch_stride),
        );
        let ctx_std = context.standardized();
        let mut rng = StdRng::seed_from_u64(seed);
        let side = cfg.patch_traffic;
        let pool = cfg.frame_pool.max(1);
        // Stream each patch straight into the running sew sums instead
        // of materializing every overlapping patch for the whole city.
        let mut acc = layout.sew_accumulator(t_out);
        for &pos in layout.positions().to_vec().iter() {
            let ctx_t = layout.extract_context(&ctx_std, pos);
            let ctx_b = stack(&vec![&ctx_t; pool]);
            let mut z = Tensor::zeros([pool, cfg.noise_dim, side, side]);
            for v in z.data_mut() {
                *v = randn1(&mut rng);
            }
            let frames = self.infer_frames(&ctx_b, &z); // [pool, 1, s, s]
            let mut patch = Tensor::zeros([t_out, side, side]);
            for t in 0..t_out {
                let pick = rng.gen_range(0..pool);
                for yy in 0..side {
                    for xx in 0..side {
                        *patch.at_mut(&[t, yy, xx]) = frames.at(&[pick, 0, yy, xx]).max(0.0);
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
                name: "P".into(),
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
        let mut model = Pix2PixLite::new(Pix2PixConfig::tiny(), 0);
        model.train(std::slice::from_ref(&c), &BaselineTrainConfig::smoke());
        let out = model.generate(&c.context, 12, 0);
        assert_eq!(out.len_t(), 12);
        assert_eq!(out.height(), c.traffic.height());
        assert!(out.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn output_has_no_diurnal_autocorrelation() {
        let c = city(2);
        let mut model = Pix2PixLite::new(Pix2PixConfig::tiny(), 0);
        model.train(std::slice::from_ref(&c), &BaselineTrainConfig::smoke());
        let out = model.generate(&c.context, 96, 1);
        let series = out.city_series();
        let ac = spectragan_dsp_autocorr(&series);
        // Real traffic has strong lag-24 correlation; Pix2Pix must not.
        assert!(ac < 0.5, "unexpected diurnal structure: {ac}");
    }

    fn spectragan_dsp_autocorr(series: &[f64]) -> f64 {
        spectragan_dsp::autocorrelation(series, 25)[24]
    }
}
