//! Perf smoke gate for CI: times the hot nn kernels, a short training
//! run, a full-city generation sweep, the observability layer's
//! disabled-mode overhead, and the weight-storage sweep (JSON model
//! file vs f32 `SGWT` container), prints fixed-width tables and writes
//! the numbers to `BENCH_pr10.json` so regressions show up in the job
//! summary rather than only in local Criterion runs.
//!
//! ```text
//! cargo run --release -p spectragan-bench --bin perf_gate
//! ```
//!
//! This is a *smoke* gate: one process, a handful of seconds, absolute
//! numbers that drift with runner hardware. The useful signals are the
//! relative ones — fused vs. unfused kernel time, fresh allocations per
//! steady-state training step (which must stay ~0; the hard assertion
//! lives in `spectragan-nn`'s `alloc_steady_state` test), peak arena
//! bytes during city generation (hard assertion in `spectragan-core`'s
//! `streaming_generation` test).
//!
//! Two checks here *are* hard:
//!
//! * the `conv2d_bias_fwd_bwd_27ch_16px` microbench must take at most
//!   [`MAX_CONV_US`] µs per iteration, a bound the loop-nest conv
//!   kernels the im2col GEMM replaced do not meet, so a change that
//!   loses its speed fails here;
//! * the projected per-step cost of the disabled observability layer
//!   must stay under [`MAX_DISABLED_OBS_OVERHEAD_PCT`] of a training
//!   step. The projection multiplies
//!   the measured cost of one disabled gate probe by a counted (not
//!   guessed) number of gate sites per step, so it cannot be fooled by
//!   wall-clock noise the way a naive off-vs-on comparison can.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use spectragan_core::{SpectraGan, SpectraGanConfig, TrainConfig};
use spectragan_nn::{Binding, Conv2d, Linear, ParamStore};
use spectragan_obs as obs;
use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};
use spectragan_tensor::{arena, FusedAct, Tape, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Hard ceiling on the projected disabled-mode obs cost per training
/// step, as a percentage of the step itself.
const MAX_DISABLED_OBS_OVERHEAD_PCT: f64 = 2.0;

/// Hard ceiling on the `conv2d_bias_fwd_bwd_27ch_16px` microbench, in
/// µs per iteration.
const MAX_CONV_US: f64 = 2000.0;

/// The microbench the hard conv gate keys on.
const CONV_GATE_BENCH: &str = "conv2d_bias_fwd_bwd_27ch_16px";

#[derive(Serialize)]
struct MicroRow {
    name: String,
    iters: u64,
    micros_per_iter: f64,
}

#[derive(Serialize)]
struct TrainGate {
    steps: usize,
    ms_per_step: f64,
    fresh_allocs_per_step: f64,
    fresh_kib_per_step: f64,
    reused_buffers_per_step: f64,
    pooled_mib: f64,
}

#[derive(Serialize)]
struct GenRow {
    city: String,
    t_out: usize,
    wall_s: f64,
    mpx_steps_per_s: f64,
    peak_arena_mib: f64,
}

#[derive(Serialize)]
struct ObsGate {
    ns_per_disabled_span: f64,
    ns_per_disabled_counter: f64,
    ns_per_disabled_hist: f64,
    ns_per_enabled_check: f64,
    spans_per_step: f64,
    pool_tasks_per_step: f64,
    gate_sites_per_step: f64,
    ms_per_step_off: f64,
    ms_per_step_on: f64,
    projected_overhead_pct: f64,
}

/// One model-storage format's load latency and residency profile.
#[derive(Serialize)]
struct WeightsRow {
    format: String,
    file_bytes: u64,
    /// Open + validate + build the model (best of 3). For SGWT this
    /// includes every section checksum; layer payloads still load
    /// lazily.
    load_ms: f64,
    /// Weight bytes resident immediately after load (before any
    /// generation touches a layer).
    resident_after_load: usize,
    /// Weight bytes resident after generating a city — the steady
    /// serving footprint.
    resident_after_generate: usize,
    mapped: bool,
}

#[derive(Serialize)]
struct WeightsGate {
    rows: Vec<WeightsRow>,
}

#[derive(Serialize)]
struct Report {
    micro: Vec<MicroRow>,
    train: TrainGate,
    generate: Vec<GenRow>,
    obs: ObsGate,
    weights: WeightsGate,
}

/// Times `f` over `iters` iterations after `warmup` unrecorded ones.
fn bench(name: &str, warmup: u64, iters: u64, mut f: impl FnMut()) -> MicroRow {
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let micros = start.elapsed().as_secs_f64() * 1e6 / iters as f64;
    MicroRow {
        name: name.to_string(),
        iters,
        micros_per_iter: micros,
    }
}

fn micro_benches() -> Vec<MicroRow> {
    let mut rng = StdRng::seed_from_u64(0);
    let mut rows = Vec::new();

    // conv2d at the model's encoder shape.
    let x = Tensor::randn([3, 27, 16, 16], &mut rng);
    let w = Tensor::randn([12, 27, 3, 3], &mut rng);
    rows.push(bench("conv2d_forward_27ch_16px", 3, 20, || {
        black_box(black_box(&x).conv2d(black_box(&w), 1));
    }));

    let mut store = ParamStore::new();
    let conv = Conv2d::new(&mut store, 27, 12, 3, 1, &mut rng);
    let tape = Tape::new();
    rows.push(bench(CONV_GATE_BENCH, 3, 20, || {
        tape.reset_keep_capacity();
        let bind = Binding::new(&tape, &store);
        let xv = tape.leaf(x.clone());
        let loss = conv.forward(&bind, &xv).mean();
        black_box(tape.backward(&loss));
    }));

    // Fused vs. unfused linear chain at discriminator-MLP shape.
    let mut store = ParamStore::new();
    let lin = Linear::new(&mut store, 256, 128, &mut rng);
    let xr = Tensor::randn([192, 256], &mut rng);
    let tape = Tape::new();
    rows.push(bench("linear_fused_fwd_bwd_192x256", 5, 50, || {
        tape.reset_keep_capacity();
        let bind = Binding::new(&tape, &store);
        let xv = tape.leaf(xr.clone());
        let loss = lin
            .forward_act(&bind, &xv, spectragan_nn::Activation::LeakyRelu)
            .mean();
        black_box(tape.backward(&loss));
    }));
    rows.push(bench("linear_unfused_fwd_bwd_192x256", 5, 50, || {
        tape.reset_keep_capacity();
        let bind = Binding::new(&tape, &store);
        let xv = tape.leaf(xr.clone());
        // Same math as the fused row, node by node.
        let loss = lin.forward(&bind, &xv).leaky_relu(0.2).mean();
        black_box(tape.backward(&loss));
    }));

    // Raw fused kernel (no layer indirection), to pin the op cost.
    let a = Tensor::randn([192, 256], &mut rng);
    let wm = Tensor::randn([256, 128], &mut rng);
    let b = Tensor::randn([128], &mut rng);
    let tape = Tape::new();
    rows.push(bench("matmul_bias_act_fwd_192x256x128", 5, 50, || {
        tape.reset_keep_capacity();
        let av = tape.leaf(a.clone());
        let wv = tape.leaf(wm.clone());
        let bv = tape.leaf(b.clone());
        black_box(av.matmul_bias_act(&wv, &bv, FusedAct::LeakyRelu(0.2)));
    }));
    rows
}

fn train_gate() -> TrainGate {
    // Start from an empty pool so `pooled_mib` counts only this run's
    // buffers, not those parked by a generation sweep run before it.
    arena::clear();
    let ds = DatasetConfig {
        weeks: 1,
        steps_per_hour: 1,
        size_scale: 0.36,
    };
    let city = generate_city(
        &CityConfig {
            name: "PG".into(),
            height: 17,
            width: 17,
            seed: 4,
        },
        &ds,
    );
    let mut model = SpectraGan::new(SpectraGanConfig::tiny(), 0);
    let tc = TrainConfig {
        steps: 10,
        batch_patches: 2,
        lr: 3e-3,
        seed: 7,
    };
    // Warm-up run fills the buffer pool; the measured runs should then
    // be served from it. Best-of-three keeps one scheduler hiccup from
    // skewing the step time.
    model
        .train(std::slice::from_ref(&city), &tc)
        .expect("warm-up training failed");
    let mut best = f64::INFINITY;
    let mut stats = arena::ArenaStats::default();
    for _ in 0..3 {
        arena::stats_take();
        let start = Instant::now();
        model
            .train(std::slice::from_ref(&city), &tc)
            .expect("measured training failed");
        let elapsed = start.elapsed().as_secs_f64();
        stats = arena::stats_take();
        best = best.min(elapsed);
    }
    let steps = tc.steps;
    TrainGate {
        steps,
        ms_per_step: best * 1e3 / steps as f64,
        fresh_allocs_per_step: stats.fresh_allocs as f64 / steps as f64,
        fresh_kib_per_step: stats.fresh_bytes as f64 / 1024.0 / steps as f64,
        reused_buffers_per_step: stats.reused as f64 / steps as f64,
        pooled_mib: arena::pooled_bytes() as f64 / (1024.0 * 1024.0),
    }
}

/// Overhead gate for the observability layer.
///
/// Disabled-mode cost is projected, not wall-clocked: each disabled
/// gate is one relaxed atomic load, far below the noise floor of a
/// step timing, so the gate (a) microbenches the disabled primitives
/// to get ns/probe, (b) runs an instrumented training run to *count*
/// gate sites per step (emitted spans from the drained sink, pool
/// tasks from the metrics registry), and (c) hard-asserts
/// `sites × ns/probe` under [`MAX_DISABLED_OBS_OVERHEAD_PCT`] of the
/// measured disabled-mode step. Off-vs-on step times are reported as
/// an informative cross-check only.
///
/// Tape ops are obs spans too (one per forward op and one per node the
/// backward walks), so they count among the emitted spans; the per-op
/// probes they replaced were never counted.
fn obs_gate(ms_per_step_off: f64) -> ObsGate {
    assert!(!obs::enabled(), "gate must start with obs disabled");

    // (a) Disabled primitives. `span` returns `None` after one relaxed
    // load; registry handles self-gate the same way.
    let iters = 4_000_000u64;
    let t = Instant::now();
    for _ in 0..iters {
        black_box(obs::span(black_box("gate_probe")));
    }
    let ns_span = t.elapsed().as_secs_f64() * 1e9 / iters as f64;
    let c = obs::counter("perf_gate_probe_total");
    let t = Instant::now();
    for _ in 0..iters {
        c.inc(black_box(1));
    }
    let ns_counter = t.elapsed().as_secs_f64() * 1e9 / iters as f64;
    let h = obs::histogram("perf_gate_probe_ns");
    let t = Instant::now();
    for _ in 0..iters {
        h.record(black_box(7));
    }
    let ns_hist = t.elapsed().as_secs_f64() * 1e9 / iters as f64;
    let t = Instant::now();
    for _ in 0..iters {
        black_box(obs::enabled());
    }
    let ns_check = t.elapsed().as_secs_f64() * 1e9 / iters as f64;

    // (b) Count gate sites with the layer live. The guard keeps the
    // flag on across the run; `train` itself leaves draining to us, so
    // the sink holds every span of the run afterwards.
    let ds = DatasetConfig {
        weeks: 1,
        steps_per_hour: 1,
        size_scale: 0.36,
    };
    let city = generate_city(
        &CityConfig {
            name: "OG".into(),
            height: 17,
            width: 17,
            seed: 4,
        },
        &ds,
    );
    let tc = TrainConfig {
        steps: 10,
        batch_patches: 2,
        lr: 3e-3,
        seed: 7,
    };
    let mut model = SpectraGan::new(SpectraGanConfig::tiny(), 0);
    model
        .train(std::slice::from_ref(&city), &tc)
        .expect("obs gate warm-up failed");

    let guard = obs::ObsGuard::new(true);
    obs::drain_events();
    obs::reset_metrics();
    let start = Instant::now();
    model
        .train(std::slice::from_ref(&city), &tc)
        .expect("obs gate instrumented run failed");
    let ms_per_step_on = start.elapsed().as_secs_f64() * 1e3 / tc.steps as f64;
    let events = obs::drain_events();
    let pool_tasks = obs::counter("spectragan_pool_tasks_total").get();
    drop(guard);

    let steps = tc.steps as f64;
    let spans_per_step = events.len() as f64 / steps;
    let pool_tasks_per_step = pool_tasks as f64 / steps;

    // (c) Project. Disabled sites per step: every span open is one
    // probe; every pool task passes up to three timer gates (claim /
    // task / fold-wait); a fixed handful covers optimizer, IO and
    // checkpoint gates. Cost each at the *most expensive* disabled
    // probe measured, for a conservative bound.
    let gate_sites_per_step = spans_per_step + 3.0 * pool_tasks_per_step + 16.0;
    let worst_ns = ns_span.max(ns_counter).max(ns_hist).max(ns_check);
    let projected_overhead_pct = gate_sites_per_step * worst_ns / (ms_per_step_off * 1e6) * 100.0;
    assert!(
        projected_overhead_pct < MAX_DISABLED_OBS_OVERHEAD_PCT,
        "disabled obs layer projects to {projected_overhead_pct:.3}% of a \
         {ms_per_step_off:.1} ms step ({gate_sites_per_step:.0} sites × \
         {worst_ns:.1} ns) — over the {MAX_DISABLED_OBS_OVERHEAD_PCT}% budget"
    );

    ObsGate {
        ns_per_disabled_span: ns_span,
        ns_per_disabled_counter: ns_counter,
        ns_per_disabled_hist: ns_hist,
        ns_per_enabled_check: ns_check,
        spans_per_step,
        pool_tasks_per_step,
        gate_sites_per_step,
        ms_per_step_off,
        ms_per_step_on,
        projected_overhead_pct,
    }
}

/// Full-city generation sweep: untrained weights (throughput and peak
/// memory do not depend on weight values), tiny config, three city ×
/// duration shapes that cover k = 1 and long spectral expansion.
fn gen_gate() -> Vec<GenRow> {
    let ds = DatasetConfig {
        weeks: 1,
        steps_per_hour: 1,
        // Unit scale so the requested city extents are the real ones.
        size_scale: 1.0,
    };
    let model = SpectraGan::new(SpectraGanConfig::tiny(), 0);
    let mut rows = Vec::new();
    for (side, t_out) in [(64usize, 24usize), (64, 72), (128, 336)] {
        let city = generate_city(
            &CityConfig {
                name: format!("GG{side}"),
                height: side,
                width: side,
                seed: 11,
            },
            &ds,
        );
        let (map, report) = model.generate_batched_report(&city.context, t_out, 5, true, 16);
        let px_steps = (map.len_t() * map.height() * map.width()) as f64;
        rows.push(GenRow {
            city: format!("{side}x{side}"),
            t_out,
            wall_s: report.wall_s,
            mpx_steps_per_s: px_steps / report.wall_s / 1e6,
            peak_arena_mib: report.peak_arena_bytes as f64 / (1024.0 * 1024.0),
        });
    }
    rows
}

/// Weight-storage sweep: load latency and resident weight bytes for
/// the JSON model file vs. an f32 `SGWT` container, measured around a
/// real generation so lazy sections get their first touch. Runs the
/// paper-scale `default_hourly` config.
fn weights_gate() -> WeightsGate {
    use spectragan_core::weights::{self, Precision, WeightStore};

    let dir = std::env::temp_dir().join(format!("sg_perf_weights_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create weights gate dir");
    let model = SpectraGan::new(SpectraGanConfig::default_hourly(), 0);
    let json_path = dir.join("model.json");
    std::fs::write(&json_path, model.to_model_json()).expect("write model.json");
    let f32_path = dir.join("model_f32.sgwt");
    weights::save_weights(&model, &f32_path, Precision::F32).expect("write f32 sgwt");

    let ds = DatasetConfig {
        weeks: 1,
        steps_per_hour: 1,
        size_scale: 1.0,
    };
    let city = generate_city(
        &CityConfig {
            name: "WG".into(),
            height: 33,
            width: 33,
            seed: 11,
        },
        &ds,
    );

    let mut rows = Vec::new();
    let mut measure =
        |format: &str, path: &std::path::Path, load: &dyn Fn() -> (SpectraGan, bool)| {
            let mut best = f64::INFINITY;
            let mut loaded = None;
            for _ in 0..3 {
                let start = Instant::now();
                let out = load();
                best = best.min(start.elapsed().as_secs_f64() * 1e3);
                loaded = Some(out);
            }
            let (m, mapped) = loaded.expect("at least one load");
            let resident_after_load = m.store().resident_weight_bytes();
            black_box(m.generate_batched_report(&city.context, 24, 5, true, 16));
            rows.push(WeightsRow {
                format: format.to_string(),
                file_bytes: std::fs::metadata(path).expect("stat model file").len(),
                load_ms: best,
                resident_after_load,
                resident_after_generate: m.store().resident_weight_bytes(),
                mapped,
            });
        };
    measure("json", &json_path, &|| {
        let json = std::fs::read_to_string(&json_path).expect("read model.json");
        (
            SpectraGan::from_model_json(&json).expect("parse model.json"),
            false,
        )
    });
    measure("sgwt-f32", &f32_path, &|| {
        let store = WeightStore::open(&f32_path).expect("open sgwt");
        store.validate_all().expect("validate sgwt");
        let mapped = store.is_mapped();
        (store.load_model().expect("load sgwt model"), mapped)
    });
    let _ = std::fs::remove_dir_all(&dir);
    WeightsGate { rows }
}

fn print_micro(micro: &[MicroRow]) {
    println!("perf gate — kernel microbenches");
    println!("{:<36} {:>8} {:>14}", "bench", "iters", "us/iter");
    for r in micro {
        println!("{:<36} {:>8} {:>14.1}", r.name, r.iters, r.micros_per_iter);
    }
    println!();
}

fn print_train(t: &TrainGate) {
    println!("perf gate — 10-step training run (after warm-up)");
    println!("{:<28} {:>12}", "ms/step", format!("{:.1}", t.ms_per_step));
    println!(
        "{:<28} {:>12}",
        "fresh allocs/step",
        format!("{:.1}", t.fresh_allocs_per_step)
    );
    println!(
        "{:<28} {:>12}",
        "fresh KiB/step",
        format!("{:.1}", t.fresh_kib_per_step)
    );
    println!(
        "{:<28} {:>12}",
        "reused buffers/step",
        format!("{:.0}", t.reused_buffers_per_step)
    );
    println!(
        "{:<28} {:>12}",
        "pooled MiB",
        format!("{:.1}", t.pooled_mib)
    );
    println!();
}

fn print_generate(generate: &[GenRow]) {
    println!("perf gate — full-city generation (streaming sew)");
    println!(
        "{:<10} {:>7} {:>10} {:>14} {:>16}",
        "city", "t_out", "wall s", "Mpx·steps/s", "peak arena MiB"
    );
    for r in generate {
        println!(
            "{:<10} {:>7} {:>10.2} {:>14.2} {:>16.1}",
            r.city, r.t_out, r.wall_s, r.mpx_steps_per_s, r.peak_arena_mib
        );
    }
    println!();
}

fn main() {
    let micro = micro_benches();
    let train = train_gate();
    let generate = gen_gate();
    let obs = obs_gate(train.ms_per_step);
    let weights = weights_gate();

    print_micro(&micro);
    print_train(&train);
    print_generate(&generate);

    let conv = micro
        .iter()
        .find(|r| r.name == CONV_GATE_BENCH)
        .expect("conv gate bench missing from sweep");
    assert!(
        conv.micros_per_iter <= MAX_CONV_US,
        "{CONV_GATE_BENCH} took {:.1} us/iter — over the {MAX_CONV_US} us/iter bound",
        conv.micros_per_iter
    );

    println!("perf gate — observability overhead");
    println!(
        "{:<28} {:>12}",
        "disabled span ns/probe",
        format!("{:.2}", obs.ns_per_disabled_span)
    );
    println!(
        "{:<28} {:>12}",
        "gate sites/step",
        format!("{:.0}", obs.gate_sites_per_step)
    );
    println!(
        "{:<28} {:>12}",
        "ms/step off | on",
        format!("{:.1} | {:.1}", obs.ms_per_step_off, obs.ms_per_step_on)
    );
    println!(
        "{:<28} {:>12}",
        "projected overhead %",
        format!("{:.4}", obs.projected_overhead_pct)
    );

    println!();
    println!("perf gate — weight storage (load + generate, default_hourly model)");
    println!(
        "{:<10} {:>10} {:>10} {:>14} {:>14} {:>7}",
        "format", "file B", "load ms", "resident@load", "resident@gen", "mapped"
    );
    for r in &weights.rows {
        println!(
            "{:<10} {:>10} {:>10.2} {:>14} {:>14} {:>7}",
            r.format,
            r.file_bytes,
            r.load_ms,
            r.resident_after_load,
            r.resident_after_generate,
            r.mapped
        );
    }

    let report = Report {
        micro,
        train,
        generate,
        obs,
        weights,
    };
    let json = serde_json::to_string(&report).expect("serialize report");
    std::fs::write("BENCH_pr10.json", json).expect("write BENCH_pr10.json");
    eprintln!("wrote BENCH_pr10.json");
}
