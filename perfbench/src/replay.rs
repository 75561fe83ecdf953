//! The traced run: replays each workload's op stage by stage through
//! the public functions of `core::{weights, generate, model, fourier,
//! train}`, `nn`, `tensor`, `geo` and `serve`, with a span around each
//! call, and reports the per-layer metrics.
//!
//! Every traced run replays all three ops, so it reports every
//! per-layer metric; the run's own workload is replayed again while
//! its window lasts, and `trace.coverage`, `trace.overhead_ms` and
//! `tensor.fresh_allocs` refer to it.
//!
//! `Generator`'s layers are private, so the gen-city replay builds the
//! same layers with the same `nn` constructors, shapes, order and RNG
//! stream (its weights equal the served model's) and times each stage
//! of `Generator::infer` on them. It runs on one pool thread, where the
//! stages add up to the op's wall time, and is compared against the
//! real op on one thread.

use crate::inputs::{config, Inputs};
use crate::serve_mix;
use crate::trace::Tracer;
use crate::train::{self, STEPS};
use crate::{gen_city, secs, stats, Outcome, Workload};
use rand::rngs::StdRng;
use rand::Rng;
use spectragan_core::weights::WeightStore;
use spectragan_nn::Tensor;
use spectragan_tensor::{backend, pool};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One replayed op next to the real op it replays.
pub struct Pair {
    /// Wall time of the real op, untraced.
    pub real_s: f64,
    /// Wall time of the traced op.
    pub traced_s: f64,
    /// Summed time of the replayed stages.
    pub stage_s: f64,
}

pub fn run(
    w: Workload,
    inp: &Inputs,
    seed: u64,
    seconds: f64,
    trace_path: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    // The run's own workload is replayed for the whole window (at least
    // three times); the others three times.
    let window = |kind: Workload| (w == kind).then_some(seconds);
    let mut tr = Tracer::new();

    weights_load(&mut tr, inp)?;
    let gen = gen_city::replay(&mut tr, inp, seed, window(Workload::GenCity), out)?;
    let serve = serve_mix::replay(&mut tr, inp, seed, window(Workload::ServeMix), out)?;
    let train = train::replay(&mut tr, inp, seed, window(Workload::Train), out)?;

    let (pairs, kind) = match w {
        Workload::GenCity => (&gen, "gen-city"),
        Workload::ServeMix => (&serve, "serve-mix"),
        Workload::Train => (&train, "train"),
    };
    for (name, p) in [("gen-city", &gen), ("serve-mix", &serve), ("train", &train)] {
        let cov: Vec<f64> = p
            .iter()
            .filter_map(|p| stats::coverage(p.stage_s, p.real_s))
            .collect();
        eprintln!(
            "  trace {name}: coverage {:.3}, overhead {:.1} ms ({} ops)",
            stats::median(&cov).unwrap_or(f64::NAN),
            stats::median(&p.iter().map(|p| p.traced_s - p.real_s).collect::<Vec<_>>())
                .unwrap_or(f64::NAN)
                * 1e3,
            p.len()
        );
    }

    let ms = |v: Vec<f64>| stats::median(&v).map(|s| s * 1e3);
    let us = |v: Vec<f64>| stats::median(&v).map(|s| s * 1e6);
    let gen_ms = |name| ms(tr.per_op_s("gen-city", name));
    let step_ms = |name| stats::median(&tr.per_op_s("train", name)).map(|s| s * 1e3 / STEPS as f64);
    let count = |kind, name| stats::median(&tr.per_op_count(kind, name));
    let matmul_rec = micro(200, || {
        let a = filled([1024, 16], 0.01);
        let b = filled([16, 64], 0.02);
        move || {
            black_box(a.matmul(&b));
        }
    });
    let pool_call = micro(500, || {
        let mut data = vec![0.0f32; pool::threads()];
        move || pool::par_chunks_mut(&mut data, 1, |i, c| c[0] = black_box(i as f32))
    });
    let coverage: Vec<f64> = pairs
        .iter()
        .filter_map(|p| stats::coverage(p.stage_s, p.real_s))
        .collect();
    let metrics = [
        (
            "weights.load_ms",
            "ms",
            ms(tr.per_op_s("load", "weights.load")),
        ),
        ("generate.prepare_ms", "ms", gen_ms("generate.prepare")),
        ("geo.extract_ms", "ms", gen_ms("geo.extract")),
        (
            "model.infer_ms",
            "ms",
            ms(tr.per_op_s("gen-city.infer", "model.infer")),
        ),
        ("nn.conv_infer_ms", "ms", gen_ms("nn.conv_infer")),
        ("fourier.expand_ms", "ms", gen_ms("fourier.expand")),
        ("nn.lstm_step_ms", "ms", gen_ms("nn.lstm_step")),
        ("nn.lstm_steps", "count", count("gen-city", "nn.lstm_steps")),
        ("nn.head_ms", "ms", gen_ms("nn.head")),
        ("tensor.matmul_rec_us", "us", us(matmul_rec)),
        ("geo.sew_ms", "ms", gen_ms("geo.sew")),
        (
            "tensor.fresh_allocs",
            "count",
            count(kind, "tensor.fresh_allocs"),
        ),
        (
            "serve.registry_load_ms",
            "ms",
            ms(tr.each_s("serve.load", "serve.registry_load")),
        ),
        (
            "serve.head_ms",
            "ms",
            ms(tr.per_op_s("serve-mix", "serve.head")),
        ),
        (
            "serve.offline_ms",
            "ms",
            ms(tr.per_op_s("serve-mix", "serve.offline")),
        ),
        (
            "geo.encode_band_us",
            "us",
            us(tr.each_s("serve-mix", "geo.encode_band")),
        ),
        ("tensor.pool_call_us", "us", us(pool_call)),
        (
            "train.prepare_ms",
            "ms",
            ms(tr.per_op_s("train", "train.prepare")),
        ),
        ("model.g_forward_ms", "ms", step_ms("model.g_forward")),
        ("model.d_forward_ms", "ms", step_ms("model.d_forward")),
        ("tensor.backward_ms", "ms", step_ms("tensor.backward")),
        (
            "tensor.tape_nodes",
            "count",
            count("train", "tensor.tape_nodes").map(|n| n / STEPS as f64),
        ),
        ("tensor.conv_grad_us", "us", us(conv_grad_micro())),
        ("nn.adam_ms", "ms", step_ms("nn.adam")),
        ("trace.coverage", "ratio", stats::median(&coverage)),
        (
            "trace.overhead_ms",
            "ms",
            ms(pairs.iter().map(|p| p.traced_s - p.real_s).collect()),
        ),
    ];
    for (name, unit, value) in metrics {
        out.metric(name, unit, value)?;
    }
    tr.write(trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    eprintln!("  trace written to {}", trace_path.display());
    Ok(())
}

/// A deterministic tensor of `shape` with small varied values.
fn filled<const N: usize>(shape: [usize; N], step: f32) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        (0..n).map(|i| ((i % 97) as f32 - 48.0) * step).collect(),
        shape,
    )
}

/// Median-ready per-call seconds of `reps` calls of the closure `make`
/// builds, after a few warm-up calls.
fn micro<F: FnMut()>(reps: usize, make: impl FnOnce() -> F) -> Vec<f64> {
    let mut f = make();
    for _ in 0..5 {
        f();
    }
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            secs(t)
        })
        .collect()
}

/// `conv2d_grad_input` + `conv2d_grad_weight` at the first encoder
/// conv's training shape: batch 3, 27 → 12 channels, 16×16, 3×3.
fn conv_grad_micro() -> Vec<f64> {
    let cfg = config();
    let side = cfg.patch_context();
    let input = filled([3, cfg.context_channels, side, side], 0.01);
    let weight = filled([cfg.encoder_channels, cfg.context_channels, 3, 3], 0.02);
    let grad_out = filled([3, cfg.encoder_channels, side, side], 0.03);
    let be = backend::active();
    micro(50, || {
        move || {
            black_box(be.conv2d_grad_input(&grad_out, &weight, input.shape(), 1));
            black_box(be.conv2d_grad_weight(&grad_out, &input, weight.shape(), 1));
        }
    })
}

/// `weights.load`: `WeightStore::open` + `validate_all` + `load_model`
/// on the run's container, five times.
fn weights_load(tr: &mut Tracer, inp: &Inputs) -> Result<(), String> {
    for _ in 0..5 {
        tr.op("load", |t| {
            t.span("weights.load", |_| {
                let store = WeightStore::open(&inp.model_path)?;
                store.validate_all()?;
                store.load_model()
            })
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// One standard-normal draw, the Box–Muller transform generation uses.
pub fn gauss(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}
