//! Adversarial training (§2.2.3, Eq. 1).
//!
//! Each step alternates a discriminator update and a generator update
//! on one minibatch of patches sampled from the training cities:
//!
//! * **D loss** — `BCE(R^t(x, c), 1) + BCE(R^t(x̃⊥, c), 0)` plus the
//!   spectrum terms for variants that have `G^s`, where `x̃⊥` is the
//!   generator output *detached* from the tape (re-inserted as a leaf)
//!   so discriminator gradients never reach the generator.
//! * **G loss** — `BCE(R^t(x̃, c), 1) [+ BCE(R^s(ỹ^s, c), 1)] + λ·L1`,
//!   with the L1 term against the real series and the quantile-masked
//!   real spectrum (exactly which L1 terms apply depends on the
//!   variant; Time-only is adversarial-only, matching §4.2).
//!
//! Both sides are updated with GAN-flavoured Adam (`β₁ = 0.5`).
//!
//! # Crash safety and determinism
//!
//! Each step's RNG stream is derived from `(seed, step, lane)` with a
//! SplitMix64-style mixer — there is no long-lived RNG whose position
//! would have to be serialized. Together with the checkpointed weights,
//! optimizer moments and loss traces (see [`crate::checkpoint`]), this
//! gives the **bit-identical restart contract**: a run killed at any
//! step and resumed from its last checkpoint produces exactly the same
//! final weights as an uninterrupted run, at any thread count.
//!
//! The *lane* is the divergence guard's retry index: when a step's loss
//! goes NaN/inf or a gradient norm blows up, the update is **not**
//! applied (the step-start state — the last good state — is untouched),
//! the event is logged, and the step re-runs with the next RNG lane,
//! i.e. a different minibatch and noise draw. A step whose every lane
//! diverges aborts the run with [`CoreError::Diverged`], leaving the
//! last good checkpoint on disk.

use crate::checkpoint::{self, Checkpoint, LogRecord};
use crate::config::{SpectraGanConfig, TrainConfig, Variant};
use crate::error::CoreError;
use crate::fourier::{patch_to_rows, write_masked_spec_rows};
use crate::model::{Discriminators, Generator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spectragan_geo::io::atomic_write;
use spectragan_geo::{City, ContextMap, PatchLayout, PatchSpec};
use spectragan_nn::{gan_updates, Adam, Binding, ParamId, ParamStore, Tape, Tensor};
use spectragan_obs as obs;
use spectragan_tensor::pool;
use std::path::Path;
use std::rc::Rc;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

fn guard_retries_counter() -> &'static obs::Counter {
    static C: OnceLock<&'static obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::counter("spectragan_train_guard_retries_total"))
}

/// One step attempt's losses, gradient norms and updates: what the
/// compute phase returns and the apply phase consumes.
///
/// Update lists hold `(parameter, gradient)` in ascending parameter
/// order, as [`spectragan_nn::collect_updates`] produces them. That order fixes the
/// float summation order of the gradient norms and of the optimizer's
/// global-norm clip.
struct StepGrads {
    /// Discriminator loss.
    d_loss: f32,
    /// Generator adversarial loss.
    g_adv: f32,
    /// Explicit L1 loss (0 for variants without one).
    l1: f32,
    /// Global L2 norm of the discriminator update (pre-clip).
    grad_norm_d: f32,
    /// Global L2 norm of the generator update (pre-clip).
    grad_norm_g: f32,
    /// Discriminator parameter gradients.
    d_updates: Vec<(ParamId, Tensor)>,
    /// Generator parameter gradients.
    g_updates: Vec<(ParamId, Tensor)>,
}

/// One training sample: a context window with its traffic patch in both
/// representations.
struct Sample {
    /// Context window `[C, H_c, W_c]` (standardized).
    ctx: Tensor,
    /// Real traffic series rows `[px, T]`.
    series: Tensor,
    /// Masked real spectrum rows `[px, 2F]` (empty tensor when the
    /// variant has no spectrum path).
    spec: Tensor,
}

/// Loss traces recorded during training (serialized into checkpoints
/// so a resumed run returns the full history).
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct TrainStats {
    /// Discriminator loss per step.
    pub d_loss: Vec<f32>,
    /// Generator adversarial loss per step.
    pub g_adv: Vec<f32>,
    /// Explicit L1 loss per step (0 for variants without one).
    pub l1: Vec<f32>,
}

/// Options for [`SpectraGan::train_with`]: checkpointing, resume and
/// the divergence guard. [`TrainOptions::default`] trains exactly like
/// the plain [`SpectraGan::train`] — no run directory, guard enabled at
/// a generous threshold.
pub struct TrainOptions<'a> {
    /// Run directory for checkpoints and `train_log.jsonl`; `None`
    /// disables all persistence.
    pub run_dir: Option<&'a Path>,
    /// Write a checkpoint every this many completed steps (0 = only
    /// the final checkpoint, when `run_dir` is set).
    pub checkpoint_every: usize,
    /// Resume from this checkpoint: weights, optimizer moments, stats
    /// and the step counter are restored before the loop starts.
    pub resume_from: Option<&'a Checkpoint>,
    /// Divergence threshold on each update's global gradient norm
    /// (pre-clip). Non-finite losses or norms always trigger the guard;
    /// set to `f32::INFINITY` to guard on non-finiteness only.
    pub guard_grad_norm: f32,
    /// How many alternative RNG lanes to try when a step diverges
    /// before giving up with [`CoreError::Diverged`].
    pub guard_max_retries: u32,
    /// Crash injection for end-to-end kill tests: abort the process
    /// (as an OOM-kill would) immediately after this many steps
    /// complete — after the step's checkpoint, if one is due.
    pub abort_at_step: Option<usize>,
    /// Enable the unified observability layer for this run without
    /// writing extra files: every log record carries the step's
    /// aggregated span tree and its per-op table (`op_stats`), and
    /// `metrics.prom` is written to the run directory at the end.
    /// Implied by `trace`/`metrics_snapshot`. Off by default — the
    /// disabled layer costs one relaxed atomic load per site.
    pub obs: bool,
    /// Write a Chrome trace-event JSON file of the whole run here
    /// (loadable in `chrome://tracing` / Perfetto). Implies `obs`.
    pub trace: Option<&'a Path>,
    /// Write a Prometheus-style text snapshot of all metrics here when
    /// the run finishes. Implies `obs`.
    pub metrics_snapshot: Option<&'a Path>,
    /// Gradient-accumulation micro-rounds per step: gradients of
    /// `grad_accum` independent minibatches (RNG lanes derived from the
    /// step) are averaged before one optimizer update. 1 (the default)
    /// is the historical single-minibatch step, bit-for-bit.
    pub grad_accum: usize,
}

impl Default for TrainOptions<'_> {
    fn default() -> Self {
        TrainOptions {
            run_dir: None,
            checkpoint_every: 0,
            resume_from: None,
            guard_grad_norm: 1e4,
            guard_max_retries: 3,
            abort_at_step: None,
            obs: false,
            trace: None,
            metrics_snapshot: None,
            grad_accum: 1,
        }
    }
}

impl TrainOptions<'_> {
    /// Whether the unified observability layer should be on for this
    /// run.
    fn obs_on(&self) -> bool {
        self.obs || self.trace.is_some() || self.metrics_snapshot.is_some()
    }
}

/// Derives the RNG seed of one training step's `lane`-th attempt from
/// the run seed (SplitMix64 finalizer, the same construction
/// generation uses for per-patch noise). Making the stream a pure
/// function of `(seed, step, lane)` is what lets checkpoints omit RNG
/// state entirely.
fn step_seed(seed: u64, step: u64, lane: u64) -> u64 {
    let mut z =
        seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Global L2 norm of a collected update list (pre-clip). Updates are in
/// ascending parameter-index order, so the summation order — and hence
/// the exact float result — matches the historical in-tape norm.
fn norm_of(updates: &[(ParamId, Tensor)]) -> f32 {
    updates
        .iter()
        .flat_map(|(_, g)| g.data().iter())
        .map(|&v| v * v)
        .sum::<f32>()
        .sqrt()
}

/// A trainable SpectraGAN instance: parameters plus both network
/// halves.
pub struct SpectraGan {
    cfg: SpectraGanConfig,
    store: ParamStore,
    gen: Generator,
    disc: Discriminators,
    /// Parameters with index < this belong to the generator.
    gen_param_end: usize,
}

impl SpectraGan {
    /// Builds a model with freshly initialized weights.
    pub fn new(cfg: SpectraGanConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let gen = Generator::new(cfg, &mut store, &mut rng);
        let gen_param_end = store.len();
        let disc = Discriminators::new(cfg, &mut store, &mut rng);
        SpectraGan {
            cfg,
            store,
            gen,
            disc,
            gen_param_end,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &SpectraGanConfig {
        &self.cfg
    }

    /// The parameter store (e.g. for inspecting weight counts).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Read access for the generation pipeline.
    pub(crate) fn parts(&self) -> (&SpectraGanConfig, &ParamStore, &Generator) {
        (&self.cfg, &self.store, &self.gen)
    }

    /// Mutable store access for the weight-container loader, which
    /// swaps dense parameters for lazily mapped sections.
    pub(crate) fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Serializes all weights to JSON.
    pub fn weights_json(&self) -> String {
        self.store.to_json()
    }

    /// Serializes the *whole model* — configuration and weights — into
    /// a single JSON document (the `.spectragan.json` model-file format
    /// used by the CLI).
    pub fn to_model_json(&self) -> String {
        #[derive(serde::Serialize)]
        struct ModelFile<'a> {
            format: &'static str,
            config: &'a SpectraGanConfig,
            store: &'a ParamStore,
        }
        serde_json::to_string(&ModelFile {
            format: "spectragan-model-v1",
            config: &self.cfg,
            store: &self.store,
        })
        .expect("model serialization cannot fail")
    }

    /// Reconstructs a model from [`SpectraGan::to_model_json`] output.
    pub fn from_model_json(json: &str) -> Result<Self, CoreError> {
        #[derive(serde::Deserialize)]
        struct ModelFile {
            format: String,
            config: SpectraGanConfig,
            store: ParamStore,
        }
        let file: ModelFile = serde_json::from_str(json)
            .map_err(|e| CoreError::Model(format!("malformed model file: {e}")))?;
        if file.format != "spectragan-model-v1" {
            return Err(CoreError::Model(format!(
                "unsupported model format '{}'",
                file.format
            )));
        }
        let mut model = SpectraGan::new(file.config, 0);
        model.load_store(&file.store)?;
        Ok(model)
    }

    /// Rebuilds a model from a training [`Checkpoint`]: architecture
    /// from its config, weights from its store. Optimizer state stays
    /// in the checkpoint for [`SpectraGan::train_with`] to restore.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Self, CoreError> {
        let mut model = SpectraGan::new(ckpt.config, 0);
        model.load_store(&ckpt.store)?;
        Ok(model)
    }

    /// Loads weights saved by [`SpectraGan::weights_json`] into this
    /// (architecturally identical) model.
    pub fn load_weights_json(&mut self, json: &str) -> Result<(), CoreError> {
        let other = ParamStore::from_json(json)
            .map_err(|e| CoreError::Model(format!("malformed weights: {e}")))?;
        self.load_store(&other)
    }

    /// Copies `other`'s values into this model's store after validating
    /// parameter count and every shape, so malformed files surface as
    /// [`CoreError::Model`] rather than a panic.
    fn load_store(&mut self, other: &ParamStore) -> Result<(), CoreError> {
        if self.store.len() != other.len() {
            return Err(CoreError::Model(format!(
                "weight count mismatch: file has {}, architecture needs {}",
                other.len(),
                self.store.len()
            )));
        }
        for ((_, name, mine), (_, _, theirs)) in self.store.iter().zip(other.iter()) {
            if mine.shape() != theirs.shape() {
                return Err(CoreError::Model(format!(
                    "shape mismatch for parameter '{name}': file has {:?}, architecture needs \
                     {:?}",
                    theirs.shape().dims(),
                    mine.shape().dims()
                )));
            }
        }
        self.store.copy_values_from(other);
        Ok(())
    }

    /// Extracts training samples from the cities: every training patch
    /// of every city, with its series rows and masked-spectrum target.
    /// Fails with a typed error when the city list is empty, a series
    /// is too short or holds a NaN or infinite value within the
    /// training window, or no grid yields a single patch.
    ///
    /// The cities are validated serially, in list order, so the error
    /// names the first bad city at any thread count. Then one
    /// index-addressed task per (city, patch position) runs on the
    /// pool. Each task fills only its own sample, whose tensors the
    /// calling thread allocated: the samples belong to the caller's
    /// buffer pool, and a worker's temporaries stay in the worker's.
    fn prepare(&self, cities: &[City]) -> Result<Vec<Sample>, CoreError> {
        let cfg = &self.cfg;
        if cities.is_empty() {
            return Err(CoreError::NoTrainingData("the city list is empty".into()));
        }
        let t = cfg.train_len;
        for city in cities {
            if city.traffic.len_t() < t {
                return Err(CoreError::SeriesTooShort {
                    city: city.name.clone(),
                    have: city.traffic.len_t(),
                    need: t,
                });
            }
            let (h, w) = (city.traffic.height(), city.traffic.width());
            let window = &city.traffic.data()[..t * h * w];
            if let Some(i) = window.iter().position(|v| !v.is_finite()) {
                return Err(CoreError::NonFiniteTraffic {
                    city: city.name.clone(),
                    t: i / (h * w),
                    y: i / w % h,
                    x: i % w,
                    value: window[i],
                });
            }
        }
        let patch = PatchSpec::new(cfg.patch_traffic, cfg.patch_context(), cfg.patch_traffic);
        let contexts: Vec<ContextMap> = cities.iter().map(|c| c.context.standardized()).collect();
        let layouts: Vec<PatchLayout> = cities
            .iter()
            .map(|c| PatchLayout::new(c.grid(), patch))
            .collect();
        let tasks: Vec<(usize, (usize, usize))> = layouts
            .iter()
            .enumerate()
            .flat_map(|(c, layout)| layout.positions().iter().map(move |&pos| (c, pos)))
            .collect();
        if tasks.is_empty() {
            return Err(CoreError::NoTrainingData(format!(
                "no training patches extracted from {} cities (grids smaller than the {}-pixel \
                 context window?)",
                cities.len(),
                cfg.patch_context()
            )));
        }
        let spec_needed = cfg.variant.has_spectrum();
        let px = cfg.patch_traffic * cfg.patch_traffic;
        let side = cfg.patch_context();
        let mut samples: Vec<Sample> = tasks
            .iter()
            .map(|&(c, _)| Sample {
                ctx: Tensor::zeros([contexts[c].channels(), side, side]),
                series: Tensor::zeros([px, t]),
                spec: if spec_needed {
                    Tensor::zeros([px, 2 * (t / 2 + 1)])
                } else {
                    Tensor::zeros([0])
                },
            })
            .collect();
        let slots: Vec<Mutex<&mut Sample>> = samples.iter_mut().map(Mutex::new).collect();
        pool::par_map(tasks.len(), |i| {
            let (c, pos) = tasks[i];
            let mut sample = slots[i].lock().expect("only task i locks slot i");
            let layout = &layouts[c];
            let ctx = layout.extract_context(&contexts[c], pos);
            sample.ctx.data_mut().copy_from_slice(ctx.data());
            let rows = patch_to_rows(&layout.extract_traffic(&cities[c].traffic, pos, 0, t));
            if spec_needed {
                write_masked_spec_rows(rows.data(), t, cfg.q, sample.spec.data_mut());
            }
            sample.series.data_mut().copy_from_slice(rows.data());
        });
        drop(slots);
        Ok(samples)
    }

    /// Stacks per-sample tensors along a new leading batch axis.
    fn stack(parts: &[&Tensor]) -> Tensor {
        let mut dims = vec![1usize];
        dims.extend_from_slice(parts[0].shape().dims());
        let reshaped: Vec<Tensor> = parts.iter().map(|p| p.reshape(dims.clone())).collect();
        let refs: Vec<&Tensor> = reshaped.iter().collect();
        Tensor::concat(&refs, 0)
    }

    /// Runs adversarial training on the given cities (no persistence;
    /// see [`SpectraGan::train_with`] for checkpoint/resume).
    pub fn train(&mut self, cities: &[City], tc: &TrainConfig) -> Result<TrainStats, CoreError> {
        self.train_with(cities, tc, &TrainOptions::default())
    }

    /// Builds the serializable snapshot of the training state after
    /// `step` completed steps.
    fn snapshot(
        &self,
        step: usize,
        tc: &TrainConfig,
        opt_g: &Adam,
        opt_d: &Adam,
        stats: &TrainStats,
        opts: &TrainOptions<'_>,
    ) -> Checkpoint {
        Checkpoint {
            format: checkpoint::CHECKPOINT_FORMAT.to_string(),
            step,
            config: self.cfg,
            train: *tc,
            store: self.store.clone(),
            opt_g: opt_g.export_state(),
            opt_d: opt_d.export_state(),
            stats: stats.clone(),
            grad_accum: opts.grad_accum,
        }
    }

    /// Runs adversarial training with checkpointing, resume and the
    /// divergence guard (see the module docs for the restart contract).
    pub fn train_with(
        &mut self,
        cities: &[City],
        tc: &TrainConfig,
        opts: &TrainOptions<'_>,
    ) -> Result<TrainStats, CoreError> {
        if opts.grad_accum == 0 {
            return Err(CoreError::Checkpoint(
                "grad_accum is 0; gradient accumulation must run at least 1 micro-round".into(),
            ));
        }
        let obs_on = opts.obs_on();
        let _obs_guard = obs::ObsGuard::new(obs_on);
        let sp = obs::span_cat("prepare", "train");
        let samples = self.prepare(cities)?;
        drop(sp);
        let mut opt_g = Adam::gan(tc.lr).with_clip_norm(5.0);
        let mut opt_d = Adam::gan(tc.lr).with_clip_norm(5.0);
        let mut stats = TrainStats::default();
        let mut start_step = 0usize;
        if let Some(ck) = opts.resume_from {
            ck.validate_against(&self.cfg, tc)?;
            // The accumulation factor is part of the step's
            // arithmetic and must match.
            if ck.grad_accum != opts.grad_accum {
                return Err(CoreError::Checkpoint(format!(
                    "checkpoint was trained with grad_accum {}, this run asks for {}",
                    ck.grad_accum, opts.grad_accum
                )));
            }
            self.load_store(&ck.store)?;
            opt_g.import_state(&ck.opt_g);
            opt_d.import_state(&ck.opt_d);
            stats = ck.stats.clone();
            start_step = ck.step.min(tc.steps);
            if let Some(dir) = opts.run_dir {
                // Drop stale post-checkpoint log lines so the resumed
                // replay of those steps is not recorded twice.
                checkpoint::truncate_log(dir, start_step)?;
            }
        }
        let cfg = self.cfg;
        // Chrome-trace export needs the raw events of the whole run;
        // span stats per step only need that step's batch.
        let mut trace_events: Vec<obs::SpanEvent> = Vec::new();
        // One tape for the whole run: resetting between steps keeps the
        // node arena's capacity and returns every activation buffer to
        // the pool, so steady-state steps are allocation-free.
        let tape = Tape::new();
        for step in start_step..tc.steps {
            let step_start = Instant::now();
            let mut applied: Option<LogRecord> = None;
            let mut last_reason = String::new();
            for lane in 0..=opts.guard_max_retries {
                let sp_step = obs::span_cat("train_step", "train");
                let grads = self.compute_grads(
                    &tape,
                    &samples,
                    tc,
                    step as u64,
                    lane,
                    opts.grad_accum,
                    cfg,
                );
                let reason = health_reason(
                    grads.d_loss,
                    grads.g_adv,
                    grads.l1,
                    grads.grad_norm_d,
                    grads.grad_norm_g,
                    opts.guard_grad_norm,
                );
                let outcome = StepOutcome {
                    d_loss: grads.d_loss,
                    g_adv: grads.g_adv,
                    l1: grads.l1,
                    grad_norm_d: grads.grad_norm_d,
                    grad_norm_g: grads.grad_norm_g,
                    reason,
                };
                if outcome.reason.is_none() {
                    self.apply_grads(grads, &mut opt_g, &mut opt_d);
                }
                drop(sp_step);
                let wall_ms = step_start.elapsed().as_secs_f64() * 1e3;
                let (op_stats, spans) = if obs_on {
                    let events = obs::drain_events();
                    let tables = (
                        Some(obs::op_table(&events)),
                        Some(obs::aggregate_spans(&events)),
                    );
                    if opts.trace.is_some() {
                        trace_events.extend(events);
                    }
                    tables
                } else {
                    (None, None)
                };
                match &outcome.reason {
                    Some(reason) => {
                        // The update was NOT applied: weights and
                        // optimizer moments are still the last good
                        // state. Log the event and re-roll the lane.
                        guard_retries_counter().inc(1);
                        if let Some(dir) = opts.run_dir {
                            checkpoint::append_log(
                                dir,
                                &outcome.record(
                                    step,
                                    wall_ms,
                                    Some(reason.clone()),
                                    op_stats,
                                    spans,
                                    opts,
                                ),
                            )?;
                        }
                        last_reason = reason.clone();
                    }
                    None => {
                        applied = Some(outcome.record(step, wall_ms, None, op_stats, spans, opts));
                        break;
                    }
                }
            }
            let Some(record) = applied else {
                return Err(CoreError::Diverged {
                    step,
                    retries: opts.guard_max_retries,
                    reason: last_reason,
                });
            };
            stats.d_loss.push(record.d_loss);
            stats.g_adv.push(record.g_adv);
            stats.l1.push(record.l1);
            if let Some(dir) = opts.run_dir {
                checkpoint::append_log(dir, &record)?;
            }

            // ---- Persistence ------------------------------------------
            let completed = step + 1;
            if let Some(dir) = opts.run_dir {
                let due = opts.checkpoint_every > 0 && completed % opts.checkpoint_every == 0;
                if due || completed == tc.steps {
                    let sp = obs::span_cat("checkpoint", "train");
                    checkpoint::save(
                        dir,
                        &self.snapshot(completed, tc, &opt_g, &opt_d, &stats, opts),
                    )?;
                    drop(sp);
                }
            }
            if opts.abort_at_step == Some(completed) {
                // Crash injection for kill/resume end-to-end tests: die
                // the way an OOM-kill would, with no unwinding.
                eprintln!("aborting at step {completed} (crash injection)");
                std::process::abort();
            }
        }

        // ---- Observability exports -----------------------------------
        if obs_on {
            // Pick up spans recorded after the last per-step drain
            // (the final checkpoint span).
            let tail = obs::drain_events();
            if let Some(path) = opts.trace {
                trace_events.extend(tail);
                let json = obs::chrome_trace(&trace_events);
                atomic_write(path, json.as_bytes())
                    .map_err(|e| CoreError::Checkpoint(format!("{}: {e}", path.display())))?;
            }
            let prom = obs::prometheus_snapshot();
            if let Some(path) = opts.metrics_snapshot {
                atomic_write(path, prom.as_bytes())
                    .map_err(|e| CoreError::Checkpoint(format!("{}: {e}", path.display())))?;
            }
            if let Some(dir) = opts.run_dir {
                let path = dir.join("metrics.prom");
                atomic_write(&path, prom.as_bytes())
                    .map_err(|e| CoreError::Checkpoint(format!("{}: {e}", path.display())))?;
            }
        }
        Ok(stats)
    }

    /// Phase 1 (compute): runs all `grad_accum` forward/backward
    /// micro-rounds of one step attempt and folds them into one
    /// [`StepGrads`] — averaged losses, averaged gradients in ascending
    /// parameter-index order, and the post-fold gradient norms.
    ///
    /// Micro-round `r` draws its minibatch from RNG lane
    /// `lane + (r << 32)`: round 0 is bit-for-bit the historical
    /// single-minibatch step, and the guard's retry lanes (low 32 bits)
    /// can never collide with accumulation rounds.
    #[allow(clippy::too_many_arguments)]
    fn compute_grads(
        &self,
        tape: &Rc<Tape>,
        samples: &[Sample],
        tc: &TrainConfig,
        step: u64,
        lane: u32,
        grad_accum: usize,
        cfg: SpectraGanConfig,
    ) -> StepGrads {
        let mut acc: Option<StepGrads> = None;
        for round in 0..grad_accum {
            let round_lane = lane as u64 + ((round as u64) << 32);
            let fresh = self.forward_backward(tape, samples, tc, step, round_lane, cfg);
            match &mut acc {
                // Round 0's tensors are kept untouched: with
                // `grad_accum == 1` no accumulation arithmetic runs at
                // all (even `+ 0.0` could flip a -0.0 bit).
                None => acc = Some(fresh),
                Some(a) => {
                    a.d_loss += fresh.d_loss;
                    a.g_adv += fresh.g_adv;
                    a.l1 += fresh.l1;
                    for ((_, at), (_, ft)) in a.d_updates.iter_mut().zip(&fresh.d_updates) {
                        at.axpy(1.0, ft);
                    }
                    for ((_, at), (_, ft)) in a.g_updates.iter_mut().zip(&fresh.g_updates) {
                        at.axpy(1.0, ft);
                    }
                }
            }
        }
        let mut acc = acc.expect("grad_accum >= 1");
        if grad_accum > 1 {
            let s = 1.0 / grad_accum as f32;
            acc.d_loss *= s;
            acc.g_adv *= s;
            acc.l1 *= s;
            for (_, t) in acc.d_updates.iter_mut().chain(acc.g_updates.iter_mut()) {
                *t = t.scale(s);
            }
        }
        // The norms are a property of the folded update the optimizer
        // will see, so they are computed after accumulation.
        acc.grad_norm_d = norm_of(&acc.d_updates);
        acc.grad_norm_g = norm_of(&acc.g_updates);
        acc
    }

    /// Phase 2 (apply): feeds a healthy attempt's gradients through
    /// both optimizers, discriminator first — the historical update
    /// order.
    fn apply_grads(&mut self, grads: StepGrads, opt_g: &mut Adam, opt_d: &mut Adam) {
        let sp = obs::span_cat("optimizer", "train");
        opt_d.apply_updates(&mut self.store, grads.d_updates);
        opt_g.apply_updates(&mut self.store, grads.g_updates);
        drop(sp);
    }

    /// One forward/backward micro-round: minibatch assembly, losses and
    /// gradients. Touches no optimizer state — that is the apply
    /// phase's job, after the guard.
    fn forward_backward(
        &self,
        tape: &Rc<Tape>,
        samples: &[Sample],
        tc: &TrainConfig,
        step: u64,
        round_lane: u64,
        cfg: SpectraGanConfig,
    ) -> StepGrads {
        // Drop the previous round's graph; buffers go back to the
        // pool and the node arena keeps its capacity. (The collected
        // gradient tensors returned below are deep copies and survive
        // this reset on the next round.)
        tape.reset_keep_capacity();
        let mut rng = StdRng::seed_from_u64(step_seed(tc.seed, step, round_lane));
        // ---- Minibatch assembly -----------------------------------
        let sp = obs::span_cat("minibatch", "train");
        let batch: Vec<&Sample> = (0..tc.batch_patches)
            .map(|_| &samples[rng.gen_range(0..samples.len())])
            .collect();
        let ctx_batch = Self::stack(&batch.iter().map(|s| &s.ctx).collect::<Vec<_>>());
        let series_real = {
            let refs: Vec<&Tensor> = batch.iter().map(|s| &s.series).collect();
            Tensor::concat(&refs, 0)
        };
        let spec_real = if cfg.variant.has_spectrum() {
            let refs: Vec<&Tensor> = batch.iter().map(|s| &s.spec).collect();
            Some(Tensor::concat(&refs, 0))
        } else {
            None
        };
        // Per-patch noise vector, broadcast spatially.
        let mut z = Tensor::zeros([
            tc.batch_patches,
            cfg.noise_dim,
            cfg.patch_traffic,
            cfg.patch_traffic,
        ]);
        for p in 0..tc.batch_patches {
            for d in 0..cfg.noise_dim {
                let v: f32 = {
                    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                    let u2: f32 = rng.gen_range(0.0..1.0);
                    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
                };
                let hw = cfg.patch_traffic * cfg.patch_traffic;
                let base = (p * cfg.noise_dim + d) * hw;
                for e in 0..hw {
                    z.data_mut()[base + e] = v;
                }
            }
        }
        drop(sp);
        // ---- Forward ------------------------------------------------
        let sp = obs::span_cat("forward", "train");
        let bind = Binding::new(tape, &self.store);
        let ctx_var = tape.leaf(ctx_batch.clone());
        let z_var = tape.leaf(z);
        let out = self.gen.forward(&bind, &ctx_var, &z_var);
        let ctx_rows = self.disc.encode_rows(&bind, &ctx_var);
        let real_series_var = tape.leaf(series_real.clone());

        // The time discriminator judges a random window of the
        // series (temporal patch discriminator; cfg.disc_time_window
        // = 0 disables windowing). Real and fake views share the
        // window so the critic compares like with like.
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

        // ---- Discriminator loss (detached fakes) -------------------
        let fake_series_det = tape.leaf(out.series.value().as_ref().clone());
        let real_win = real_series_var.narrow(1, w0, win);
        let mut d_loss = self
            .disc
            .time_logits(&bind, &real_win, &ctx_rows)
            .bce_with_logits(1.0)
            .add(
                &self
                    .disc
                    .time_logits(&bind, &fake_series_det.narrow(1, w0, win), &ctx_rows)
                    .bce_with_logits(0.0),
            );
        if let (Some(spec_fake), Some(spec_real)) = (&out.spec, &spec_real) {
            let real_spec_var = tape.leaf(spec_real.clone());
            let fake_spec_det = tape.leaf(spec_fake.value().as_ref().clone());
            d_loss = d_loss
                .add(
                    &self
                        .disc
                        .spec_logits(&bind, &real_spec_var, &ctx_rows)
                        .bce_with_logits(1.0),
                )
                .add(
                    &self
                        .disc
                        .spec_logits(&bind, &fake_spec_det, &ctx_rows)
                        .bce_with_logits(0.0),
                );
        }

        // ---- Generator loss ----------------------------------------
        let mut g_adv = self
            .disc
            .time_logits(&bind, &out.series.narrow(1, w0, win), &ctx_rows)
            .bce_with_logits(1.0);
        if let Some(spec_fake) = &out.spec {
            g_adv = g_adv.add(
                &self
                    .disc
                    .spec_logits(&bind, spec_fake, &ctx_rows)
                    .bce_with_logits(1.0),
            );
        }
        let l1 = match cfg.variant {
            Variant::TimeOnly => None,
            Variant::TimeOnlyPlus => Some(out.series.l1_to(&series_real)),
            _ => {
                let time_l1 = out.series.l1_to(&series_real);
                match (&out.spec, &spec_real) {
                    (Some(sf), Some(sr)) => Some(time_l1.add(&sf.l1_to(sr))),
                    _ => Some(time_l1),
                }
            }
        };
        let g_loss = match &l1 {
            Some(l) => g_adv.add(&l.scale(cfg.lambda)),
            None => g_adv.clone(),
        };

        let dv = d_loss.value().item();
        let gv = g_adv.value().item();
        let l1v = l1.as_ref().map(|l| l.value().item()).unwrap_or(0.0);
        drop(sp);

        // ---- Gradients ----------------------------------------------
        let sp = obs::span_cat("backward", "train");
        let (d_updates, g_updates) = gan_updates(&bind, self.gen_param_end, &d_loss, &g_loss);
        drop(sp);
        StepGrads {
            d_loss: dv,
            g_adv: gv,
            l1: l1v,
            // Filled in by `compute_grads` after accumulation folds.
            grad_norm_d: 0.0,
            grad_norm_g: 0.0,
            d_updates,
            g_updates,
        }
    }
}

/// Losses and gradient norms of one step attempt. `reason` is `Some`
/// when the divergence guard tripped (the update was not applied).
struct StepOutcome {
    d_loss: f32,
    g_adv: f32,
    l1: f32,
    grad_norm_d: f32,
    grad_norm_g: f32,
    reason: Option<String>,
}

impl StepOutcome {
    fn record(
        &self,
        step: usize,
        wall_ms: f64,
        event: Option<String>,
        op_stats: Option<Vec<obs::OpStat>>,
        spans: Option<Vec<obs::SpanStat>>,
        opts: &TrainOptions<'_>,
    ) -> LogRecord {
        LogRecord {
            step,
            d_loss: self.d_loss,
            g_adv: self.g_adv,
            l1: self.l1,
            grad_norm_d: self.grad_norm_d,
            grad_norm_g: self.grad_norm_g,
            wall_ms,
            grad_accum: opts.grad_accum,
            event,
            op_stats,
            spans,
        }
    }
}

/// The divergence-guard health check: `Some(reason)` when any loss is
/// non-finite or a global gradient norm is non-finite or above `guard`.
fn health_reason(d: f32, g: f32, l1: f32, gnd: f32, gng: f32, guard: f32) -> Option<String> {
    if !d.is_finite() {
        return Some(format!("d_loss = {d}"));
    }
    if !g.is_finite() {
        return Some(format!("g_adv = {g}"));
    }
    if !l1.is_finite() {
        return Some(format!("l1 = {l1}"));
    }
    if !gnd.is_finite() || gnd > guard {
        return Some(format!("discriminator grad norm {gnd} (guard {guard})"));
    }
    if !gng.is_finite() || gng > guard {
        return Some(format!("generator grad norm {gng} (guard {guard})"));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};

    fn tiny_city(seed: u64) -> City {
        let ds = DatasetConfig {
            weeks: 1,
            steps_per_hour: 1,
            size_scale: 0.36,
        };
        generate_city(
            &CityConfig {
                name: format!("T{seed}"),
                height: 33,
                width: 33,
                seed,
            },
            &ds,
        )
    }

    fn tiny_cfg() -> SpectraGanConfig {
        // train_len 24 with 1 week of hourly data available.
        SpectraGanConfig::tiny()
    }

    #[test]
    fn training_runs_and_reduces_l1() {
        let city = tiny_city(5);
        let mut model = SpectraGan::new(tiny_cfg(), 0);
        let tc = TrainConfig {
            steps: 30,
            batch_patches: 2,
            lr: 3e-3,
            seed: 1,
        };
        let stats = model.train(&[city], &tc).unwrap();
        assert_eq!(stats.d_loss.len(), 30);
        let head: f32 = stats.l1[..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = stats.l1[25..].iter().sum::<f32>() / 5.0;
        assert!(tail < head, "L1 did not decrease: head {head} tail {tail}");
        assert!(stats.d_loss.iter().all(|v| v.is_finite()));
        assert!(stats.g_adv.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn all_variants_train_one_step() {
        let city = tiny_city(6);
        for variant in [
            Variant::Full,
            Variant::SpecOnly,
            Variant::TimeOnly,
            Variant::TimeOnlyPlus,
            Variant::PixelContext,
        ] {
            let mut model = SpectraGan::new(tiny_cfg().with_variant(variant), 0);
            let tc = TrainConfig {
                steps: 2,
                batch_patches: 1,
                lr: 1e-3,
                seed: 2,
            };
            let stats = model.train(std::slice::from_ref(&city), &tc).unwrap();
            assert_eq!(stats.d_loss.len(), 2, "{variant:?}");
            assert!(stats.d_loss[0].is_finite(), "{variant:?}");
        }
    }

    #[test]
    fn model_file_roundtrip() {
        let a = SpectraGan::new(tiny_cfg(), 8);
        let json = a.to_model_json();
        let b = SpectraGan::from_model_json(&json).unwrap();
        let city = tiny_city(8);
        assert_eq!(
            a.generate(&city.context, 24, 1).data(),
            b.generate(&city.context, 24, 1).data()
        );
        assert!(SpectraGan::from_model_json("{}").is_err());
        assert!(SpectraGan::from_model_json("not json").is_err());
    }

    #[test]
    fn weights_roundtrip_through_json() {
        let mut a = SpectraGan::new(tiny_cfg(), 1);
        let mut b = SpectraGan::new(tiny_cfg(), 2);
        let json = a.weights_json();
        b.load_weights_json(&json).unwrap();
        // After loading, generation from identical inputs matches.
        let city = tiny_city(7);
        let ga = a.generate(&city.context, 24, 9);
        let gb = b.generate(&city.context, 24, 9);
        assert_eq!(ga.data(), gb.data());
        // Re-loading into a model trained differently also matches.
        let tc = TrainConfig {
            steps: 1,
            batch_patches: 1,
            lr: 1e-3,
            seed: 3,
        };
        a.train(std::slice::from_ref(&city), &tc).unwrap();
        a.load_weights_json(&json).unwrap();
        let ga2 = a.generate(&city.context, 24, 9);
        assert_eq!(ga2.data(), gb.data());
    }
}
