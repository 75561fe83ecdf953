//! The SpectraGAN networks: generator (encoder `E^G`, spectrum
//! generator `G^s`, time-series generator `G^t`) and the adversarial
//! side (encoder `E^R`, spectrum discriminator `R^s`, time
//! discriminator `R^t`), per Fig. 3 of the paper.
//!
//! Internally, everything after the encoder works on *pixel rows*: a
//! batch of `P` patches of side `H_t` becomes `N_px = P·H_t²` rows, so
//! the spectrum head is a per-pixel linear map and the two LSTMs are
//! batched across pixels — the paper's "batched LSTM".

use crate::config::{SpectraGanConfig, Variant};
use crate::fourier::{expand_rows_to_steps, irfft_basis};
use rand::Rng;
use spectragan_nn::layers::Activation;
use spectragan_nn::{Binding, Conv2d, Linear, Lstm, Mlp, ParamStore, Tensor, Var};
use spectragan_obs as obs;
use spectragan_tensor::ops::softplus_scalar;

/// Output of one generator forward pass.
pub struct GenOut {
    /// Spectrum rows `[N_px, 2F]` (absent for the time-only variants).
    pub spec: Option<Var>,
    /// Generated traffic series rows `[N_px, T]` (the sum
    /// `x̃ = x̃^s + x̃^t` for the full model).
    pub series: Var,
}

/// The generator half of SpectraGAN.
pub struct Generator {
    cfg: SpectraGanConfig,
    enc1: Conv2d,
    enc2: Conv2d,
    spec_feat: Option<Conv2d>,
    spec_head: Option<Linear>,
    time_feat: Option<Conv2d>,
    time_lstm: Option<Lstm>,
    time_head: Option<Linear>,
    amp_head: Option<Linear>,
    /// Constant inverse-rFFT basis `[2F, T]`.
    basis: Tensor,
}

impl Generator {
    /// Registers all generator parameters in `store`.
    pub fn new(cfg: SpectraGanConfig, store: &mut ParamStore, rng: &mut impl Rng) -> Self {
        let (c, ch, cs) = (cfg.context_channels, cfg.encoder_channels, cfg.gen_channels);
        let enc1 = Conv2d::new(store, c, ch, 3, 1, rng);
        let enc2 = Conv2d::new(store, ch, ch, 3, 1, rng);
        let feat_in = ch + cfg.noise_dim;
        let (mut spec_feat, mut spec_head) = (None, None);
        if cfg.variant.has_spectrum() {
            spec_feat = Some(Conv2d::new(store, feat_in, cs, 3, 1, rng));
            // Small-gain head: start from a silent spectrum and let the
            // masked L1 raise the significant components.
            spec_head = Some(Linear::new_scaled(store, cs, 2 * cfg.f_bins(), 0.1, rng));
        }
        let (mut time_feat, mut time_lstm, mut time_head, mut amp_head) = (None, None, None, None);
        if cfg.variant.has_time() {
            time_feat = Some(Conv2d::new(store, feat_in, cs, 3, 1, rng));
            time_lstm = Some(Lstm::new(store, cs, cfg.lstm_hidden, rng));
            // Small-gain head: the residual must stay a *residual*
            // (Fig. 1f) rather than drown the spectral signal.
            time_head = Some(Linear::new_scaled(store, cfg.lstm_hidden, 1, 0.1, rng));
            if cfg.variant == Variant::TimeOnlyPlus {
                amp_head = Some(Linear::new(store, cs, 2, rng));
            }
        }
        Generator {
            cfg,
            enc1,
            enc2,
            spec_feat,
            spec_head,
            time_feat,
            time_lstm,
            time_head,
            amp_head,
            basis: irfft_basis(cfg.train_len),
        }
    }

    /// Encoder `E^G`: context window `[P, C, H_c, W_c]` → hidden
    /// `[P, C_h, H_t, W_t]`. The wide-context variants pool 2× between
    /// the convolutions; the pixel-context variant has nothing to pool.
    fn encode(&self, bind: &Binding<'_>, ctx: &Var) -> Var {
        let mut h = self.enc1.forward(bind, ctx).leaky_relu(0.2);
        if self.cfg.patch_context() > self.cfg.patch_traffic {
            h = h.avg_pool2();
        }
        self.enc2.forward(bind, &h).leaky_relu(0.2)
    }

    /// `[P, C, H_t, W_t]`-shaped feature map → pixel rows `[N_px, C]`.
    fn to_rows(feat: &Var) -> Var {
        let d = feat.shape();
        let (p, c, h, w) = (d.dim(0), d.dim(1), d.dim(2), d.dim(3));
        feat.permute(&[0, 2, 3, 1]).reshape([p * h * w, c])
    }

    /// Full differentiable forward pass at the training length.
    ///
    /// `ctx` is `[P, C, H_c, W_c]`; `z` is `[P, Z, H_t, W_t]` noise.
    pub fn forward(&self, bind: &Binding<'_>, ctx: &Var, z: &Var) -> GenOut {
        let h = self.encode(bind, ctx);
        let hz = Var::concat(&[h, z.clone()], 1);
        let t = self.cfg.train_len;

        let mut spec_rows = None;
        let mut series: Option<Var> = None;
        if let (Some(feat), Some(head)) = (&self.spec_feat, &self.spec_head) {
            let rows = Self::to_rows(&feat.forward(bind, &hz).leaky_relu(0.2));
            let spec = head.forward(bind, &rows);
            let xs = spec.matmul_const(&self.basis);
            spec_rows = Some(spec);
            series = Some(xs);
        }
        if let (Some(feat), Some(lstm), Some(head)) =
            (&self.time_feat, &self.time_lstm, &self.time_head)
        {
            let rows = Self::to_rows(&feat.forward(bind, &hz).leaky_relu(0.2));
            let xw = lstm.precompute_input(bind, &rows);
            let mut xt = lstm.rollout(bind, &xw, head, t);
            if let Some(amp) = &self.amp_head {
                let a = amp.forward(bind, &rows);
                let ones_row = Tensor::ones([1, t]);
                let scale = a.narrow(1, 0, 1).softplus().matmul_const(&ones_row);
                let offset = a.narrow(1, 1, 1).matmul_const(&ones_row);
                xt = xt.mul(&scale).add(&offset);
            }
            series = Some(match series {
                Some(s) => s.add(&xt),
                None => xt,
            });
        }
        GenOut {
            spec: spec_rows,
            series: series.expect("at least one generator path is active"),
        }
    }

    /// Tape-free generation of `k · train_len` steps for a batch of
    /// context patches: [`Generator::infer_steps`] at `t_out = k·T`.
    /// Returns series rows `[N_px, k·T]`.
    pub fn infer(&self, store: &ParamStore, ctx: &Tensor, z: &Tensor, k: usize) -> Tensor {
        self.infer_steps(store, ctx, z, k * self.cfg.train_len)
    }

    /// Tape-free generation of exactly `t_out` steps for a batch of
    /// context patches: spectrum rows are expanded by
    /// `k = ceil(t_out / T)` before the inverse FFT (§2.2.4) and only
    /// the first `t_out` steps are synthesized, while the residual LSTM
    /// simply runs `t_out` steps. Returns series rows `[N_px, t_out]`.
    ///
    /// The result is bit-identical to the first `t_out` columns of
    /// [`Generator::infer`] at that `k`: the rollout starts from the
    /// zero state and step `j` reads only earlier steps, and the
    /// spectral matmul sums each element in an order that does not
    /// depend on how many columns are kept.
    ///
    /// Four obs spans cover the stages: `infer.encode` (the encoder
    /// convs), `infer.spectral` (spectrum features, head and expanded
    /// basis matmul), `infer.time_feat` (the time-feature conv) and
    /// `infer.rollout` (the LSTM rollout, the amplitude head and the
    /// sum of the two paths).
    pub fn infer_steps(
        &self,
        store: &ParamStore,
        ctx: &Tensor,
        z: &Tensor,
        t_out: usize,
    ) -> Tensor {
        let lrelu = |t: Tensor| t.map(|v| if v > 0.0 { v } else { 0.2 * v });
        let sp = obs::span_cat("infer.encode", "generate");
        let mut h = lrelu(self.enc1.forward_infer(store, ctx));
        if self.cfg.patch_context() > self.cfg.patch_traffic {
            h = h.avg_pool2();
        }
        let h = lrelu(self.enc2.forward_infer(store, &h));
        let hz = Tensor::concat(&[&h, z], 1);
        drop(sp);
        let to_rows = |feat: &Tensor| -> Tensor {
            let d = feat.shape().clone();
            feat.permute(&[0, 2, 3, 1])
                .reshape([d.dim(0) * d.dim(2) * d.dim(3), d.dim(1)])
        };

        let mut series: Option<Tensor> = None;
        if let (Some(feat), Some(head)) = (&self.spec_feat, &self.spec_head) {
            let _sp = obs::span_cat("infer.spectral", "generate");
            let rows = to_rows(&lrelu(feat.forward_infer(store, &hz)));
            let spec = head.forward_infer(store, &rows);
            // The shared cache keeps one expanded basis per (t, k)
            // across chunks.
            series = Some(expand_rows_to_steps(&spec, self.cfg.train_len, t_out));
        }
        if let (Some(feat), Some(lstm), Some(head)) =
            (&self.time_feat, &self.time_lstm, &self.time_head)
        {
            let rows = {
                let _sp = obs::span_cat("infer.time_feat", "generate");
                to_rows(&lrelu(feat.forward_infer(store, &hz)))
            };
            let _sp = obs::span_cat("infer.rollout", "generate");
            let n_px = rows.shape().dim(0);
            let xw = rows.matmul(store.get(lstm.wx_param()));
            let mut xt = lstm.rollout_infer(store, &xw, head, t_out);
            if let Some(amp) = &self.amp_head {
                let a = amp.forward_infer(store, &rows);
                for px in 0..n_px {
                    let scale = softplus_scalar(a.data()[px * 2]);
                    let offset = a.data()[px * 2 + 1];
                    for v in &mut xt.data_mut()[px * t_out..(px + 1) * t_out] {
                        *v = *v * scale + offset;
                    }
                }
            }
            series = Some(match series {
                Some(s) => s.add(&xt),
                None => xt,
            });
        }
        series.expect("at least one generator path is active")
    }
}

/// The adversarial half: conditional discriminators `R^s` and `R^t`
/// with their own context encoder `E^R`.
pub struct Discriminators {
    cfg: SpectraGanConfig,
    enc1: Conv2d,
    enc2: Conv2d,
    spec_mlp: Option<Mlp>,
    time_lstm: Lstm,
    time_head: Linear,
}

impl Discriminators {
    /// Registers all discriminator parameters in `store`.
    pub fn new(cfg: SpectraGanConfig, store: &mut ParamStore, rng: &mut impl Rng) -> Self {
        let (c, ch, hd) = (cfg.context_channels, cfg.encoder_channels, cfg.disc_hidden);
        let enc1 = Conv2d::new(store, c, ch, 3, 1, rng);
        let enc2 = Conv2d::new(store, ch, ch, 3, 1, rng);
        let spec_mlp = cfg.variant.has_spectrum().then(|| {
            Mlp::new(
                store,
                &[2 * cfg.f_bins() + ch, 2 * hd, 1],
                Activation::LeakyRelu,
                Activation::Identity,
                rng,
            )
        });
        let time_lstm = Lstm::new(store, 1 + ch, hd, rng);
        let time_head = Linear::new(store, hd, 1, rng);
        Discriminators {
            cfg,
            enc1,
            enc2,
            spec_mlp,
            time_lstm,
            time_head,
        }
    }

    /// Encoder `E^R` → pixel rows `[N_px, C_h]` of context features.
    pub fn encode_rows(&self, bind: &Binding<'_>, ctx: &Var) -> Var {
        let mut h = self.enc1.forward(bind, ctx).leaky_relu(0.2);
        if self.cfg.patch_context() > self.cfg.patch_traffic {
            h = h.avg_pool2();
        }
        let h = self.enc2.forward(bind, &h).leaky_relu(0.2);
        Generator::to_rows(&h)
    }

    /// `R^s`: logits `[N_px, 1]` for spectrum rows under their context.
    pub fn spec_logits(&self, bind: &Binding<'_>, spec_rows: &Var, ctx_rows: &Var) -> Var {
        let mlp = self
            .spec_mlp
            .as_ref()
            .expect("spectrum discriminator absent for this variant");
        let joint = Var::concat(&[spec_rows.clone(), ctx_rows.clone()], 1);
        mlp.forward(bind, &joint)
    }

    /// `R^t`: logits `[N_px, 1]` for traffic series rows `[N_px, T]`
    /// under their context, via an LSTM over time.
    pub fn time_logits(&self, bind: &Binding<'_>, series_rows: &Var, ctx_rows: &Var) -> Var {
        let h = self.time_lstm.last_hidden(bind, series_rows, ctx_rows);
        self.time_head.forward(bind, &h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spectragan_tensor::Tape;

    fn setup(variant: Variant) -> (SpectraGanConfig, ParamStore, Generator, Discriminators) {
        let cfg = SpectraGanConfig::tiny().with_variant(variant);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let gen = Generator::new(cfg, &mut store, &mut rng);
        let disc = Discriminators::new(cfg, &mut store, &mut rng);
        (cfg, store, gen, disc)
    }

    fn demo_inputs(cfg: &SpectraGanConfig, p: usize) -> (Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(1);
        let ctx = Tensor::randn(
            [
                p,
                cfg.context_channels,
                cfg.patch_context(),
                cfg.patch_context(),
            ],
            &mut rng,
        );
        let z = Tensor::randn(
            [p, cfg.noise_dim, cfg.patch_traffic, cfg.patch_traffic],
            &mut rng,
        );
        (ctx, z)
    }

    #[test]
    fn forward_shapes_full_variant() {
        let (cfg, store, gen, disc) = setup(Variant::Full);
        let (ctx, z) = demo_inputs(&cfg, 2);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let out = gen.forward(&bind, &tape.leaf(ctx.clone()), &tape.leaf(z));
        let n_px = 2 * cfg.pixels_per_patch();
        assert_eq!(out.series.shape().dims(), &[n_px, cfg.train_len]);
        assert_eq!(
            out.spec.as_ref().unwrap().shape().dims(),
            &[n_px, 2 * cfg.f_bins()]
        );
        let ctx_rows = disc.encode_rows(&bind, &tape.leaf(ctx));
        assert_eq!(ctx_rows.shape().dims(), &[n_px, cfg.encoder_channels]);
        let sl = disc.spec_logits(&bind, out.spec.as_ref().unwrap(), &ctx_rows);
        assert_eq!(sl.shape().dims(), &[n_px, 1]);
        let tl = disc.time_logits(&bind, &out.series, &ctx_rows);
        assert_eq!(tl.shape().dims(), &[n_px, 1]);
    }

    #[test]
    fn variant_paths_exist_or_not() {
        for (variant, has_spec) in [
            (Variant::SpecOnly, true),
            (Variant::TimeOnly, false),
            (Variant::TimeOnlyPlus, false),
        ] {
            let (cfg, store, gen, _) = setup(variant);
            let (ctx, z) = demo_inputs(&cfg, 1);
            let tape = Tape::new();
            let bind = Binding::new(&tape, &store);
            let out = gen.forward(&bind, &tape.leaf(ctx), &tape.leaf(z));
            assert_eq!(out.spec.is_some(), has_spec, "{variant:?}");
            assert_eq!(
                out.series.shape().dims(),
                &[cfg.pixels_per_patch(), cfg.train_len]
            );
        }
    }

    #[test]
    fn pixel_context_variant_uses_narrow_window() {
        let (cfg, store, gen, _) = setup(Variant::PixelContext);
        assert_eq!(cfg.patch_context(), cfg.patch_traffic);
        let (ctx, z) = demo_inputs(&cfg, 1);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let out = gen.forward(&bind, &tape.leaf(ctx), &tape.leaf(z));
        assert_eq!(
            out.series.shape().dims(),
            &[cfg.pixels_per_patch(), cfg.train_len]
        );
    }

    #[test]
    fn infer_matches_forward_at_k1() {
        // The tape-free inference path must agree with the training
        // forward pass for every variant (they are separate code paths
        // over the same weights).
        for variant in [
            Variant::Full,
            Variant::SpecOnly,
            Variant::TimeOnly,
            Variant::TimeOnlyPlus,
            Variant::PixelContext,
        ] {
            let (cfg, store, gen, _) = setup(variant);
            let (ctx, z) = demo_inputs(&cfg, 2);
            let tape = Tape::new();
            let bind = Binding::new(&tape, &store);
            let out = gen.forward(&bind, &tape.leaf(ctx.clone()), &tape.leaf(z.clone()));
            let inferred = gen.infer(&store, &ctx, &z, 1);
            assert_eq!(inferred.shape().dims(), out.series.shape().dims());
            for (a, b) in inferred.data().iter().zip(out.series.value().data()) {
                assert!((a - b).abs() < 2e-3, "{variant:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn infer_k2_doubles_duration_and_repeats_spectrum_part() {
        let (cfg, store, gen, _) = setup(Variant::SpecOnly);
        let (ctx, z) = demo_inputs(&cfg, 1);
        let short = gen.infer(&store, &ctx, &z, 1);
        let long = gen.infer(&store, &ctx, &z, 2);
        assert_eq!(long.shape().dim(1), 2 * cfg.train_len);
        // Spec-only output is exactly periodic after expansion.
        let t = cfg.train_len;
        for px in 0..cfg.pixels_per_patch() {
            for i in 0..t {
                let a = long.at(&[px, i]);
                let b = long.at(&[px, t + i]);
                assert!((a - b).abs() < 1e-3, "px {px} i {i}: {a} vs {b}");
                assert!((a - short.at(&[px, i])).abs() < 2e-3);
            }
        }
    }

    #[test]
    fn noise_changes_output() {
        let (cfg, store, gen, _) = setup(Variant::Full);
        let (ctx, z1) = demo_inputs(&cfg, 1);
        let mut rng = StdRng::seed_from_u64(99);
        let z2 = Tensor::randn(
            [1, cfg.noise_dim, cfg.patch_traffic, cfg.patch_traffic],
            &mut rng,
        );
        let a = gen.infer(&store, &ctx, &z1, 1);
        let b = gen.infer(&store, &ctx, &z2, 1);
        let diff: f32 = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 1e-3, "noise had no effect");
    }
}
