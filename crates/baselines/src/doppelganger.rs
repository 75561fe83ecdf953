//! DoppelGANger-lite — per-pixel conditional time-series GAN (§3.3).
//!
//! Lin et al.'s DoppelGANger generates networked time series with a
//! batched RNN conditioned on per-series metadata. It has no spatial
//! dimension, so the paper applies one independent instance per pixel,
//! conditioned on that pixel's own context attributes. This
//! reproduction batches pixels through one shared conditional LSTM
//! generator/discriminator pair (equivalent to weight-tied independent
//! instances, which is also how DoppelGANger amortizes training), and
//! draws *independent* noise per pixel at generation time — the source
//! of the salt-and-pepper spatial artifacts in Fig. 7.

use crate::util::randn1;
use crate::BaselineTrainConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spectragan_geo::{City, ContextMap, TrafficMap};
use spectragan_nn::{Activation, Adam, Binding, Linear, Lstm, ParamStore, Tape, Tensor, Var};

/// Hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct DoppelGangerConfig {
    /// Context attribute count (per pixel).
    pub context_channels: usize,
    /// Training series length.
    pub train_len: usize,
    /// Noise dimension.
    pub noise_dim: usize,
    /// Conditioning embedding width.
    pub embed: usize,
    /// LSTM hidden size (generator and discriminator).
    pub hidden: usize,
    /// Random time window the discriminator sees per step (0 = full
    /// series); same temporal-patch trick as the core model.
    pub disc_time_window: usize,
}

impl DoppelGangerConfig {
    /// CPU-scale defaults.
    pub fn default_hourly() -> Self {
        DoppelGangerConfig {
            context_channels: 27,
            train_len: 168,
            noise_dim: 4,
            embed: 12,
            hidden: 16,
            disc_time_window: 48,
        }
    }

    /// Tiny test configuration.
    pub fn tiny() -> Self {
        DoppelGangerConfig {
            context_channels: 27,
            train_len: 24,
            noise_dim: 2,
            embed: 6,
            hidden: 6,
            disc_time_window: 0,
        }
    }
}

/// The DoppelGANger-lite model.
pub struct DoppelGangerLite {
    cfg: DoppelGangerConfig,
    store: ParamStore,
    g_embed: Linear,
    g_lstm: Lstm,
    g_head: Linear,
    d_embed: Linear,
    d_lstm: Lstm,
    d_head: Linear,
    gen_param_end: usize,
}

/// One pixel's training record: standardized context + series.
struct PixelSample {
    ctx: Vec<f32>,
    series: Vec<f32>,
}

impl DoppelGangerLite {
    /// Builds the model with fresh weights.
    pub fn new(cfg: DoppelGangerConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let g_embed = Linear::new(
            &mut store,
            cfg.context_channels + cfg.noise_dim,
            cfg.embed,
            &mut rng,
        );
        let g_lstm = Lstm::new(&mut store, cfg.embed, cfg.hidden, &mut rng);
        let g_head = Linear::new(&mut store, cfg.hidden, 1, &mut rng);
        let gen_param_end = store.len();
        let d_embed = Linear::new(&mut store, cfg.context_channels, cfg.embed, &mut rng);
        let d_lstm = Lstm::new(&mut store, 1 + cfg.embed, cfg.hidden, &mut rng);
        let d_head = Linear::new(&mut store, cfg.hidden, 1, &mut rng);
        DoppelGangerLite {
            cfg,
            store,
            g_embed,
            g_lstm,
            g_head,
            d_embed,
            d_lstm,
            d_head,
            gen_param_end,
        }
    }

    fn collect_pixels(cities: &[City]) -> Vec<PixelSample> {
        let mut out = Vec::new();
        for city in cities {
            let ctx = city.context.standardized();
            for y in 0..city.traffic.height() {
                for x in 0..city.traffic.width() {
                    let c: Vec<f32> = (0..ctx.channels()).map(|k| ctx.at(k, y, x)).collect();
                    let s: Vec<f32> = (0..city.traffic.len_t())
                        .map(|t| city.traffic.at(t, y, x))
                        .collect();
                    out.push(PixelSample { ctx: c, series: s });
                }
            }
        }
        out
    }

    /// Generator forward: conditioning rows `[N, C+Z]` → series
    /// `[N, T]` on the tape.
    fn gen_forward(&self, bind: &Binding<'_>, cond: &Var, t: usize) -> Var {
        let feat = self.g_embed.forward_act(bind, cond, Activation::LeakyRelu);
        let xw = self.g_lstm.precompute_input(bind, &feat);
        self.g_lstm.rollout(bind, &xw, &self.g_head, t)
    }

    /// Discriminator logits for series rows under per-pixel context.
    fn disc_logits(&self, bind: &Binding<'_>, series: &Var, ctx: &Var) -> Var {
        let emb = self.d_embed.forward_act(bind, ctx, Activation::LeakyRelu);
        let h = self.d_lstm.last_hidden(bind, series, &emb);
        self.d_head.forward(bind, &h)
    }

    /// Adversarial training on pixel batches. `tc.batch` is interpreted
    /// as *dozens* of pixels (batch × 32 pixel rows per step) so the
    /// budget is comparable to the patch models.
    pub fn train(&mut self, cities: &[City], tc: &BaselineTrainConfig) {
        let pixels = Self::collect_pixels(cities);
        assert!(!pixels.is_empty(), "no training pixels");
        let t = self.cfg.train_len;
        let rows_per_step = tc.batch * 32;
        let mut rng = StdRng::seed_from_u64(tc.seed);
        let mut opt_g = Adam::gan(tc.lr).with_clip_norm(5.0);
        let mut opt_d = Adam::gan(tc.lr).with_clip_norm(5.0);
        let tape = Tape::new();
        for _ in 0..tc.steps {
            tape.reset_keep_capacity();
            let c = self.cfg.context_channels;
            let z_dim = self.cfg.noise_dim;
            let mut cond = Tensor::zeros([rows_per_step, c + z_dim]);
            let mut ctx_only = Tensor::zeros([rows_per_step, c]);
            let mut real = Tensor::zeros([rows_per_step, t]);
            for i in 0..rows_per_step {
                let px = &pixels[rng.gen_range(0..pixels.len())];
                assert!(
                    px.series.len() >= t,
                    "training series shorter than train_len"
                );
                cond.data_mut()[i * (c + z_dim)..i * (c + z_dim) + c].copy_from_slice(&px.ctx);
                for d in 0..z_dim {
                    cond.data_mut()[i * (c + z_dim) + c + d] = randn1(&mut rng);
                }
                ctx_only.data_mut()[i * c..(i + 1) * c].copy_from_slice(&px.ctx);
                real.data_mut()[i * t..(i + 1) * t].copy_from_slice(&px.series[..t]);
            }
            let bind = Binding::new(&tape, &self.store);
            let cond_var = tape.leaf(cond);
            let ctx_var = tape.leaf(ctx_only);
            let fake = self.gen_forward(&bind, &cond_var, t);
            let real_var = tape.leaf(real.clone());
            let fake_det = tape.leaf(fake.value().as_ref().clone());
            let win = if self.cfg.disc_time_window == 0 {
                t
            } else {
                self.cfg.disc_time_window.min(t)
            };
            let w0 = if win < t {
                rng.gen_range(0..=t - win)
            } else {
                0
            };
            let d_loss = self
                .disc_logits(&bind, &real_var.narrow(1, w0, win), &ctx_var)
                .bce_with_logits(1.0)
                .add(
                    &self
                        .disc_logits(&bind, &fake_det.narrow(1, w0, win), &ctx_var)
                        .bce_with_logits(0.0),
                );
            // DoppelGANger trains purely adversarially.
            let g_loss = self
                .disc_logits(&bind, &fake.narrow(1, w0, win), &ctx_var)
                .bce_with_logits(1.0);
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

    /// Generates `t_out` steps for every pixel of the target region,
    /// each pixel independently conditioned and independently noised.
    pub fn generate(&self, context: &ContextMap, t_out: usize, seed: u64) -> TrafficMap {
        let mut out = self.generate_raw(context, t_out, seed);
        for v in out.data_mut() {
            *v = v.max(0.0);
        }
        out
    }

    /// Like [`DoppelGangerLite::generate`] but without the final
    /// non-negativity clamp (used by tests to observe raw outputs).
    fn generate_raw(&self, context: &ContextMap, t_out: usize, seed: u64) -> TrafficMap {
        let (h, w) = (context.height(), context.width());
        let ctx = context.standardized();
        let c = self.cfg.context_channels;
        let z_dim = self.cfg.noise_dim;
        let mut rng = StdRng::seed_from_u64(seed);
        let n = h * w;
        let mut cond = Tensor::zeros([n, c + z_dim]);
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                for k in 0..c {
                    cond.data_mut()[i * (c + z_dim) + k] = ctx.at(k, y, x);
                }
                for d in 0..z_dim {
                    cond.data_mut()[i * (c + z_dim) + c + d] = randn1(&mut rng);
                }
            }
        }
        // Tape-free rollout: one `[n, t_out]` series row per pixel,
        // scattered into the time-major map.
        let feat = crate::util::lrelu(self.g_embed.forward_infer(&self.store, &cond));
        let xw = feat.matmul(self.store.get(self.g_lstm.wx_param()));
        let rows = self
            .g_lstm
            .rollout_infer(&self.store, &xw, &self.g_head, t_out);
        let mut out = TrafficMap::zeros(t_out, h, w);
        for i in 0..n {
            for t in 0..t_out {
                out.data_mut()[t * n + i] = rows.data()[i * t_out + t];
            }
        }
        out
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
                name: "D".into(),
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
        let mut model = DoppelGangerLite::new(DoppelGangerConfig::tiny(), 0);
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
    fn pixels_get_independent_noise() {
        // Two pixels with identical context must still differ, because
        // each draws its own noise — the defining spatial weakness.
        let c = city(2);
        let model = DoppelGangerLite::new(DoppelGangerConfig::tiny(), 1);
        let _ = c;
        let mut uniform = ContextMap::zeros(27, 6, 6);
        for v in uniform.data_mut() {
            *v = 0.5;
        }
        // Raw (unclamped) outputs expose the per-pixel noise directly.
        let out = model.generate_raw(&uniform, 24, 3);
        let a = out.pixel_series(0, 0);
        let b = out.pixel_series(0, 1);
        assert_ne!(a, b, "identical-context pixels should differ via noise");
    }
}
