//! train: one op is one `SpectraGan::train` call of [`STEPS`] steps
//! with the CLI's settings (`batch_patches` 3, lr 2e-3) on two 32×32
//! one-week hourly cities. The unit of work in the metrics is one
//! optimizer step. [`replay`] is the op's traced form: sample
//! preparation, then each step stage by stage on a replica model.

use crate::inputs::{config, mix, Inputs};
use crate::replay::{gauss, Pair};
use crate::trace::Tracer;
use crate::{reset_lazy_state, secs, stats, Outcome, MIB, SETUPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spectragan_core::fourier::{masked_spec_rows, patch_to_rows};
use spectragan_core::model::{Discriminators, Generator};
use spectragan_core::{SpectraGan, SpectraGanConfig, TrainConfig, TrainStats};
use spectragan_geo::{City, PatchLayout, PatchSpec};
use spectragan_nn::{collect_updates, Adam, Binding, ParamStore, Tape, Tensor};
use spectragan_tensor::arena;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Steps per `train` call: few enough that a run holds
/// [`stats::MIN_OPS`] calls.
pub const STEPS: usize = 2;

/// The CLI's training settings with `steps` steps and an op seed.
pub fn train_config(steps: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        steps,
        batch_patches: 3,
        lr: 2e-3,
        seed,
    }
}

/// Every loss of every step must be finite.
pub fn check_stats(stats: &TrainStats, steps: usize) -> Result<(), String> {
    for (name, losses) in [
        ("d_loss", &stats.d_loss),
        ("g_adv", &stats.g_adv),
        ("l1", &stats.l1),
    ] {
        if losses.len() != steps {
            return Err(format!("{} {name} values for {steps} steps", losses.len()));
        }
        if let Some(v) = losses.iter().find(|v| !v.is_finite()) {
            return Err(format!("{name} = {v}"));
        }
    }
    Ok(())
}

/// Every weight of the model must be finite.
pub fn check_weights(model: &SpectraGan) -> Result<(), String> {
    for (_, name, t) in model.store().iter() {
        if t.data().iter().any(|v| !v.is_finite()) {
            return Err(format!("parameter {name} holds a non-finite weight"));
        }
    }
    Ok(())
}

pub fn run(inp: &Inputs, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let cities = &inp.train_cities;
    // Set-up: model init plus one warm-up call.
    let mut setups = Vec::new();
    let mut model = None;
    for s in 0..SETUPS {
        drop(model.take());
        reset_lazy_state();
        let t = Instant::now();
        let mut m = SpectraGan::new(config(), inp.model_seed);
        let r = m.train(cities, &train_config(STEPS, mix(seed, 300 + s)));
        setups.push(secs(t));
        out.op(r
            .map_err(|e| e.to_string())
            .and_then(|st| check_stats(&st, STEPS)));
        model = Some(m);
    }
    let mut model = model.expect("at least one set-up ran");

    // Timed phase: until the window closes and the median has enough
    // samples.
    let mut step_s = Vec::new();
    let mut peaks = Vec::new();
    let start = Instant::now();
    while step_s.len() < stats::MIN_OPS || secs(start) < seconds {
        let tc = train_config(STEPS, mix(seed, 3000 + step_s.len() as u64));
        let region = arena::PeakRegion::begin();
        let t = Instant::now();
        let r = model.train(cities, &tc);
        step_s.push(secs(t) / STEPS as f64);
        peaks.push(region.end() as f64);
        out.op(r
            .map_err(|e| e.to_string())
            .and_then(|st| check_stats(&st, STEPS)));
    }
    let wall = secs(start);
    out.op(check_weights(&model));

    let steps = (step_s.len() * STEPS) as f64;
    eprintln!("  train: {steps} steps in {wall:.2} s");
    out.metric("setup_s", "s", stats::mean(&setups))?;
    out.metric("ops_per_s", "1/s", stats::throughput(steps, wall))?;
    out.metric("latency_ms_p50", "ms", stats::p50(&step_s).map(|s| s * 1e3))?;
    out.metric(
        "peak_arena_mib",
        "MiB",
        stats::mean(&peaks).map(|b| b / MIB),
    )
}

/// A training sample as `SpectraGan::train` prepares it: context
/// window, real series rows and masked spectrum rows.
struct Sample {
    ctx: Tensor,
    series: Tensor,
    spec: Tensor,
}

fn samples(cfg: &SpectraGanConfig, cities: &[City]) -> Vec<Sample> {
    let mut out = Vec::new();
    for city in cities {
        let ctx = city.context.standardized();
        let layout = PatchLayout::new(
            city.grid(),
            PatchSpec::new(cfg.patch_traffic, cfg.patch_context(), cfg.patch_traffic),
        );
        for &pos in layout.positions() {
            let traffic = layout.extract_traffic(&city.traffic, pos, 0, cfg.train_len);
            out.push(Sample {
                ctx: layout.extract_context(&ctx, pos),
                series: patch_to_rows(&traffic),
                spec: masked_spec_rows(&traffic, cfg.q),
            });
        }
    }
    out
}

/// Stacks per-sample tensors along a new leading batch axis.
fn stack(parts: &[&Tensor]) -> Tensor {
    let mut dims = vec![1usize];
    dims.extend_from_slice(parts[0].shape().dims());
    let reshaped: Vec<Tensor> = parts.iter().map(|p| p.reshape(dims.clone())).collect();
    let refs: Vec<&Tensor> = reshaped.iter().collect();
    Tensor::concat(&refs, 0)
}

/// The trainable replica: both halves built with the public
/// constructors in `SpectraGan::new`'s order, plus its optimizers.
struct TrainReplica {
    cfg: SpectraGanConfig,
    store: ParamStore,
    gen: Generator,
    disc: Discriminators,
    gen_end: usize,
    opt_g: Adam,
    opt_d: Adam,
    tape: Rc<Tape>,
}

impl TrainReplica {
    fn new(cfg: SpectraGanConfig, seed: u64, lr: f32) -> TrainReplica {
        let rng = &mut StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let gen = Generator::new(cfg, &mut store, rng);
        let gen_end = store.len();
        let disc = Discriminators::new(cfg, &mut store, rng);
        TrainReplica {
            cfg,
            store,
            gen,
            disc,
            gen_end,
            opt_g: Adam::gan(lr).with_clip_norm(5.0),
            opt_d: Adam::gan(lr).with_clip_norm(5.0),
            tape: Tape::new(),
        }
    }

    /// One optimizer step, stage by stage, as the trainer runs it.
    fn step(&mut self, t: &mut Tracer, samples: &[Sample], batch: usize, rng: &mut StdRng) {
        let cfg = self.cfg;
        let tape = &self.tape;
        let (ctx_batch, series_real, spec_real, z) = t.span("train.minibatch", |_| {
            tape.reset_keep_capacity();
            let picked: Vec<&Sample> = (0..batch)
                .map(|_| &samples[rng.gen_range(0..samples.len())])
                .collect();
            let ctx = stack(&picked.iter().map(|s| &s.ctx).collect::<Vec<_>>());
            let series = Tensor::concat(&picked.iter().map(|s| &s.series).collect::<Vec<_>>(), 0);
            let spec = Tensor::concat(&picked.iter().map(|s| &s.spec).collect::<Vec<_>>(), 0);
            let side = cfg.patch_traffic;
            let mut z = Tensor::zeros([batch, cfg.noise_dim, side, side]);
            for p in 0..batch {
                for d in 0..cfg.noise_dim {
                    let base = (p * cfg.noise_dim + d) * side * side;
                    z.data_mut()[base..base + side * side].fill(gauss(rng));
                }
            }
            (ctx, series, spec, z)
        });
        let bind = Binding::new(tape, &self.store);
        let ctx_var = tape.leaf(ctx_batch);
        let z_var = tape.leaf(z);
        let out = t.span("model.g_forward", |_| {
            self.gen.forward(&bind, &ctx_var, &z_var)
        });
        let win = cfg.disc_time_window.min(cfg.train_len);
        let w0 = rng.gen_range(0..=cfg.train_len - win);
        let (d_loss, g_loss) = t.span("model.d_forward", |_| {
            let disc = &self.disc;
            let ctx_rows = disc.encode_rows(&bind, &ctx_var);
            let real_win = tape.leaf(series_real.clone()).narrow(1, w0, win);
            let fake_det = tape.leaf(out.series.value().as_ref().clone());
            let spec_fake = out
                .spec
                .as_ref()
                .expect("the full model has a spectrum path");
            let real_spec = tape.leaf(spec_real.clone());
            let fake_spec_det = tape.leaf(spec_fake.value().as_ref().clone());
            let d_loss = disc
                .time_logits(&bind, &real_win, &ctx_rows)
                .bce_with_logits(1.0)
                .add(
                    &disc
                        .time_logits(&bind, &fake_det.narrow(1, w0, win), &ctx_rows)
                        .bce_with_logits(0.0),
                )
                .add(
                    &disc
                        .spec_logits(&bind, &real_spec, &ctx_rows)
                        .bce_with_logits(1.0),
                )
                .add(
                    &disc
                        .spec_logits(&bind, &fake_spec_det, &ctx_rows)
                        .bce_with_logits(0.0),
                );
            let g_adv = disc
                .time_logits(&bind, &out.series.narrow(1, w0, win), &ctx_rows)
                .bce_with_logits(1.0)
                .add(
                    &disc
                        .spec_logits(&bind, spec_fake, &ctx_rows)
                        .bce_with_logits(1.0),
                );
            let l1 = out
                .series
                .l1_to(&series_real)
                .add(&spec_fake.l1_to(&spec_real));
            let g_loss = g_adv.add(&l1.scale(cfg.lambda));
            black_box((
                d_loss.value().item(),
                g_adv.value().item(),
                l1.value().item(),
            ));
            (d_loss, g_loss)
        });
        t.count("tensor.tape_nodes", tape.len() as f64);
        let (grads_d, grads_g) = t.span("tensor.backward", |_| {
            (tape.backward(&d_loss), tape.backward(&g_loss))
        });
        let gen_end = self.gen_end;
        let (d_up, g_up) = t.span("nn.adam", |_| {
            let (g_bound, d_bound): (Vec<_>, Vec<_>) = bind
                .bound()
                .into_iter()
                .partition(|(id, _)| id.index() < gen_end);
            (
                collect_updates(&d_bound, &grads_d),
                collect_updates(&g_bound, &grads_g),
            )
        });
        drop(bind);
        t.span("nn.adam", |_| {
            self.opt_d.apply_updates(&mut self.store, d_up);
            self.opt_g.apply_updates(&mut self.store, g_up);
        });
    }
}

/// train: per op one real `train` call of [`STEPS`] steps, and its
/// replay: `train` with zero steps (the sample preparation), then
/// [`STEPS`] steps stage by stage.
pub fn replay(
    tr: &mut Tracer,
    inp: &Inputs,
    seed: u64,
    window: Option<f64>,
    out: &mut Outcome,
) -> Result<Vec<Pair>, String> {
    let cfg = config();
    let cities = &inp.train_cities;
    let tc0 = train_config(0, seed);
    let samples = samples(&cfg, cities);
    let mut replica = TrainReplica::new(cfg, inp.model_seed, tc0.lr);
    let mut rng = StdRng::seed_from_u64(mix(seed, 9100));
    // Warm-up: one real call and one replayed step.
    let mut model = SpectraGan::new(cfg, inp.model_seed);
    out.op(model
        .train(cities, &train_config(STEPS, mix(seed, 9000)))
        .map_err(|e| e.to_string())
        .and_then(|st| check_stats(&st, STEPS)));
    tr.op("train.warmup", |t| {
        replica.step(t, &samples, tc0.batch_patches, &mut rng)
    });

    let mut pairs = Vec::new();
    let start = Instant::now();
    while pairs.len() < 3 || window.is_some_and(|w| secs(start) < w) {
        let tc = train_config(STEPS, mix(seed, 9001 + pairs.len() as u64));
        let t0 = Instant::now();
        let r = model.train(cities, &tc);
        let real_s = secs(t0);
        out.op(r
            .map_err(|e| e.to_string())
            .and_then(|st| check_stats(&st, STEPS)));

        let mut fresh = SpectraGan::new(cfg, inp.model_seed);
        arena::stats_take();
        let prepared = tr.op("train", |t| {
            let r = t.span("train.prepare", |_| fresh.train(cities, &tc0));
            // Each `train` call starts from a new tape.
            replica.tape = Tape::new();
            for _ in 0..STEPS {
                replica.step(t, &samples, tc0.batch_patches, &mut rng);
            }
            t.count(
                "tensor.fresh_allocs",
                arena::stats_take().fresh_allocs as f64,
            );
            r
        });
        out.op(prepared.map(drop).map_err(|e| e.to_string()));
        let (traced_s, stage_s) = tr.op_walls("train")[pairs.len()];
        pairs.push(Pair {
            real_s,
            traced_s,
            stage_s,
        });
    }
    out.op(check_weights(&model));
    Ok(pairs)
}
