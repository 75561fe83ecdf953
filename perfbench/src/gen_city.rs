//! gen-city: the `spectragan generate` path on one 24×24 city for two
//! weeks (t_out = 336, k = 2). One op is one
//! `generate_batched_report` call with a fresh noise seed; the model is
//! loaded once with `load_model_auto`. [`replay`] is the op's traced
//! form, stage by stage through a replica of the generator's layers.

use crate::inputs::{config, mix, Inputs, GEN_SIDE};
use crate::replay::{gauss, Pair};
use crate::trace::Tracer;
use crate::{check_map, reset_lazy_state, same_bits, secs, stats, Outcome, MIB, SETUPS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spectragan_core::fourier::{expand_rows_to_series, rows_to_patch};
use spectragan_core::model::Generator;
use spectragan_core::weights::load_model_auto;
use spectragan_core::{PreparedContext, SpectraGanConfig, Variant};
use spectragan_geo::io::load_context;
use spectragan_geo::{ContextMap, GridSpec, PatchLayout, PatchSpec, SewAccumulator, TrafficMap};
use spectragan_nn::{Conv2d, Linear, Lstm, ParamStore, Tensor};
use spectragan_tensor::{arena, pool};
use std::hint::black_box;
use std::time::Instant;

/// Steps generated per op: two training weeks, so k = 2.
pub const T_OUT: usize = 336;
/// Patches per generator chunk, as the CLI uses.
pub const GEN_BATCH: usize = 16;

pub fn run(inp: &Inputs, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    // Set-up: open the model, read the context, one warm-up op.
    let mut setups = Vec::new();
    let mut loaded = None;
    for s in 0..SETUPS {
        drop(loaded.take());
        reset_lazy_state();
        let t = Instant::now();
        let model = load_model_auto(&inp.model_path).map_err(|e| e.to_string())?;
        let ctx = load_context(&inp.gen_context).map_err(|e| e.to_string())?;
        let (map, _) =
            model.generate_batched_report(&ctx, T_OUT, mix(seed, 100 + s), true, GEN_BATCH);
        setups.push(secs(t));
        out.op(check_map(&map, T_OUT, GEN_SIDE, GEN_SIDE));
        loaded = Some((model, ctx));
    }
    let (model, ctx) = loaded.expect("at least one set-up ran");

    // Timed phase: back-to-back ops until the window closes and the
    // median has enough samples.
    let mut latencies = Vec::new();
    let mut peaks = Vec::new();
    let mut first = None;
    let start = Instant::now();
    while latencies.len() < stats::MIN_OPS || secs(start) < seconds {
        let op_seed = mix(seed, 1000 + latencies.len() as u64);
        let t = Instant::now();
        let (map, report) = model.generate_batched_report(&ctx, T_OUT, op_seed, true, GEN_BATCH);
        latencies.push(secs(t));
        peaks.push(report.peak_arena_bytes as f64);
        out.op(check_map(&map, T_OUT, GEN_SIDE, GEN_SIDE));
        first.get_or_insert((op_seed, map));
    }
    let wall = secs(start);

    // Determinism: the first timed seed regenerated on one thread.
    let (op_seed, map) = first.expect("at least one timed op ran");
    pool::set_threads(Some(1));
    let (again, _) = model.generate_batched_report(&ctx, T_OUT, op_seed, true, GEN_BATCH);
    pool::set_threads(None);
    out.op(same_bits(&map, &again).map_err(|e| format!("1-thread regeneration: {e}")));

    let ops = latencies.len() as f64;
    eprintln!(
        "  gen-city: {ops} ops in {wall:.2} s, {:.4} Mpx·step/s; set-ups {:.3?}",
        ops * (GEN_SIDE * GEN_SIDE * T_OUT) as f64 / 1e6 / wall,
        setups
    );
    out.metric("setup_s", "s", stats::mean(&setups))?;
    out.metric("ops_per_s", "1/s", stats::throughput(ops, wall))?;
    out.metric(
        "latency_ms_p50",
        "ms",
        stats::p50(&latencies).map(|s| s * 1e3),
    )?;
    out.metric(
        "peak_arena_mib",
        "MiB",
        stats::mean(&peaks).map(|b| b / MIB),
    )
}

/// The generator's layers, registered as `Generator::new` registers
/// them for the full variant inside `SpectraGan::new(cfg, seed)`.
struct GenReplica {
    cfg: SpectraGanConfig,
    store: ParamStore,
    enc1: Conv2d,
    enc2: Conv2d,
    spec_feat: Conv2d,
    spec_head: Linear,
    time_feat: Conv2d,
    lstm: Lstm,
    time_head: Linear,
}

impl GenReplica {
    fn new(cfg: SpectraGanConfig, seed: u64) -> GenReplica {
        assert_eq!(
            cfg.variant,
            Variant::Full,
            "the replica mirrors the full model"
        );
        let rng = &mut StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let s = &mut store;
        let (c, ch, cs) = (cfg.context_channels, cfg.encoder_channels, cfg.gen_channels);
        let feat_in = ch + cfg.noise_dim;
        let enc1 = Conv2d::new(s, c, ch, 3, 1, rng);
        let enc2 = Conv2d::new(s, ch, ch, 3, 1, rng);
        let spec_feat = Conv2d::new(s, feat_in, cs, 3, 1, rng);
        let spec_head = Linear::new_scaled(s, cs, 2 * cfg.f_bins(), 0.1, rng);
        let time_feat = Conv2d::new(s, feat_in, cs, 3, 1, rng);
        let lstm = Lstm::new(s, cs, cfg.lstm_hidden, rng);
        let time_head = Linear::new_scaled(s, cfg.lstm_hidden, 1, 0.1, rng);
        GenReplica {
            cfg,
            store,
            enc1,
            enc2,
            spec_feat,
            spec_head,
            time_feat,
            lstm,
            time_head,
        }
    }

    /// `Generator::infer`, stage by stage: series rows `[N_px, k·T]`.
    fn infer(&self, t: &mut Tracer, ctx: &Tensor, z: &Tensor, k: usize) -> Tensor {
        let st = &self.store;
        let lrelu = |x: Tensor| x.map(|v| if v > 0.0 { v } else { 0.2 * v });
        let to_rows = |feat: &Tensor| -> Tensor {
            let d = feat.shape().clone();
            feat.permute(&[0, 2, 3, 1])
                .reshape([d.dim(0) * d.dim(2) * d.dim(3), d.dim(1)])
        };
        let (spec_rows, time_rows) = t.span("nn.conv_infer", |_| {
            let h = lrelu(self.enc1.forward_infer(st, ctx)).avg_pool2();
            let h = lrelu(self.enc2.forward_infer(st, &h));
            let hz = Tensor::concat(&[&h, z], 1);
            (
                to_rows(&lrelu(self.spec_feat.forward_infer(st, &hz))),
                to_rows(&lrelu(self.time_feat.forward_infer(st, &hz))),
            )
        });
        let spec = t.span("nn.spec_head", |_| {
            self.spec_head.forward_infer(st, &spec_rows)
        });
        let t_len = self.cfg.train_len;
        let series = t.span("fourier.expand", |_| expand_rows_to_series(&spec, t_len, k));
        let n_px = time_rows.shape().dim(0);
        let t_out = k * t_len;
        let (xw, mut hh, mut cc) = t.span("nn.lstm_input", |_| {
            let xw = st.infer_matmul(&time_rows, self.lstm.wx_param());
            let (h, c) = self.lstm.zero_state_infer(n_px);
            (xw, h, c)
        });
        let mut steps = Tensor::zeros([t_out, n_px]);
        for step in 0..t_out {
            let (h2, c2) = t.span("nn.lstm_step", |_| {
                self.lstm.step_infer_projected(st, &xw, &hh, &cc)
            });
            hh = h2;
            cc = c2;
            t.span("nn.head", |_| {
                let o = self.time_head.forward_infer(st, &hh);
                steps.data_mut()[step * n_px..(step + 1) * n_px].copy_from_slice(o.data());
            });
        }
        t.count("nn.lstm_steps", t_out as f64);
        t.span("model.combine", |_| series.add(&steps.transpose2()))
    }
}

/// The context batch of one chunk of patch positions.
fn extract(layout: &PatchLayout, ctx_std: &ContextMap, chunk: &[(usize, usize)]) -> Tensor {
    let parts: Vec<Tensor> = chunk
        .iter()
        .map(|&pos| {
            let t = layout.extract_context(ctx_std, pos);
            let d = t.shape().dims().to_vec();
            t.reshape([1, d[0], d[1], d[2]])
        })
        .collect();
    let refs: Vec<&Tensor> = parts.iter().collect();
    Tensor::concat(&refs, 0)
}

/// The shared city noise broadcast over `p` patches.
fn noise(cfg: &SpectraGanConfig, z_vec: &[f32], p: usize) -> Tensor {
    let side = cfg.patch_traffic;
    let mut z = Tensor::zeros([p, cfg.noise_dim, side, side]);
    for pi in 0..p {
        for (d, &nv) in z_vec.iter().enumerate() {
            let base = (pi * cfg.noise_dim + d) * side * side;
            z.data_mut()[base..base + side * side].fill(nv);
        }
    }
    z
}

/// Moves every finished band into `map`, clamped to non-negative.
fn drain(acc: &mut SewAccumulator<'_>, map: &mut TrafficMap) {
    while let Some(mut band) = acc.emit_band() {
        for v in &mut band.data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        band.write_into(map);
    }
}

/// The traced gen-city op on one pool thread: per op the real op, its
/// stage-by-stage replay, and `Generator::infer` timed on every chunk.
/// The replay runs at least three times, and for `window` seconds when
/// given.
pub fn replay(
    tr: &mut Tracer,
    inp: &Inputs,
    seed: u64,
    window: Option<f64>,
    out: &mut Outcome,
) -> Result<Vec<Pair>, String> {
    pool::set_threads(Some(1));
    let r = replay_pinned(tr, inp, seed, window, out);
    pool::set_threads(None);
    r
}

fn replay_pinned(
    tr: &mut Tracer,
    inp: &Inputs,
    seed: u64,
    window: Option<f64>,
    out: &mut Outcome,
) -> Result<Vec<Pair>, String> {
    let cfg = config();
    let model = load_model_auto(&inp.model_path).map_err(|e| e.to_string())?;
    let ctx = load_context(&inp.gen_context).map_err(|e| e.to_string())?;
    let replica = GenReplica::new(cfg, inp.model_seed);
    let mut gen_store = ParamStore::new();
    let generator = Generator::new(
        cfg,
        &mut gen_store,
        &mut StdRng::seed_from_u64(inp.model_seed),
    );
    // Warm-up, so the real op and the replay both find the k = 2 basis
    // cached and the arena holding chunk-sized buffers.
    let (warm, _) = model.generate_batched_report(&ctx, T_OUT, mix(seed, 8001), true, GEN_BATCH);
    out.op(check_map(&warm, T_OUT, GEN_SIDE, GEN_SIDE));

    let ctx_std = ctx.standardized();
    let k = T_OUT.div_ceil(cfg.train_len).max(1);
    let grid = GridSpec::new(ctx.height(), ctx.width());
    let layout = PatchLayout::new(
        grid,
        PatchSpec::new(cfg.patch_traffic, cfg.patch_context(), cfg.patch_stride),
    );
    let positions = layout.positions();
    let (side, px) = (cfg.patch_traffic, cfg.pixels_per_patch());

    let mut pairs = Vec::new();
    let start = Instant::now();
    while pairs.len() < 3 || window.is_some_and(|w| secs(start) < w) {
        let op_seed = mix(seed, 8100 + pairs.len() as u64);
        let t = Instant::now();
        let (real, _) = model.generate_batched_report(&ctx, T_OUT, op_seed, true, GEN_BATCH);
        let real_s = secs(t);
        out.op(check_map(&real, T_OUT, GEN_SIDE, GEN_SIDE));

        let mut rng = StdRng::seed_from_u64(op_seed);
        let z_vec: Vec<f32> = (0..cfg.noise_dim).map(|_| gauss(&mut rng)).collect();
        arena::stats_take();
        let replayed = tr.op("gen-city", |t| {
            t.span("generate.prepare", |_| drop(PreparedContext::new(&ctx)));
            let mut acc = layout.sew_accumulator(T_OUT);
            let mut map = TrafficMap::zeros(T_OUT, grid.height, grid.width);
            for chunk in positions.chunks(GEN_BATCH) {
                let ctx_batch = t.span("geo.extract", |_| extract(&layout, &ctx_std, chunk));
                let z = t.span("generate.noise", |_| noise(&cfg, &z_vec, chunk.len()));
                let rows = t.span("model.replica", |t| replica.infer(t, &ctx_batch, &z, k));
                let patches: Vec<Tensor> = t.span("generate.rows_to_patch", |_| {
                    (0..chunk.len())
                        .map(|pi| {
                            let r = rows.narrow(0, pi * px, px).narrow(1, 0, T_OUT);
                            rows_to_patch(&r, side, side)
                        })
                        .collect()
                });
                t.span("geo.sew", |_| {
                    for p in &patches {
                        acc.push(p);
                    }
                    drop(patches);
                    drain(&mut acc, &mut map);
                });
            }
            t.span("geo.sew", |_| drain(&mut acc, &mut map));
            t.count(
                "tensor.fresh_allocs",
                arena::stats_take().fresh_allocs as f64,
            );
            map
        });
        // Per-layer figures are only trusted while the replica computes
        // what the program computes.
        out.op(same_bits(&real, &replayed).map_err(|e| format!("replica drifted: {e}")));

        tr.op("gen-city.infer", |t| {
            for chunk in positions.chunks(GEN_BATCH) {
                let ctx_batch = extract(&layout, &ctx_std, chunk);
                let z = noise(&cfg, &z_vec, chunk.len());
                black_box(t.span("model.infer", |_| {
                    generator.infer(&gen_store, &ctx_batch, &z, k)
                }));
            }
        });

        let (traced_s, stage_s) = tr.op_walls("gen-city")[pairs.len()];
        pairs.push(Pair {
            real_s,
            traced_s,
            stage_s,
        });
    }
    Ok(pairs)
}
