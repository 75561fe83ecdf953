//! Full-city generation (§2.2.4): arbitrary spatial size via
//! overlapping patches with shared noise, sewn by per-pixel averaging
//! (Eq. 2); arbitrary duration via k-multiple spectral expansion plus a
//! longer residual-LSTM rollout.

use crate::error::CoreError;
use crate::train::SpectraGan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spectragan_geo::{ContextMap, GridSpec, PatchLayout, PatchSpec, TrafficBand, TrafficMap};
use spectragan_obs as obs;
use spectragan_tensor::{arena, Tensor};
use std::time::Instant;

/// How many patches to push through the generator at once.
const GEN_BATCH: usize = 16;

/// Resource report of one [`SpectraGan::generate_batched_report`]
/// run. The peak is measured with a per-run scoped
/// [`arena::PeakRegion`], so back-to-back generations in one process
/// report independent peaks instead of inheriting an earlier run's
/// high-water mark.
#[derive(Debug, Clone, Copy)]
pub struct GenReport {
    /// Wall-clock seconds the run took.
    pub wall_s: f64,
    /// Peak arena bytes allocated above the level at run start.
    pub peak_arena_bytes: u64,
}

/// A context map pre-processed for repeated generation: the
/// standardization pass (per-channel mean/variance) is done once and
/// shared across every request that targets the same city, instead of
/// being recomputed per call. A serving front-end caches one of these
/// per registered city.
///
/// Generation through a `PreparedContext` is bit-identical to passing
/// the raw [`ContextMap`]: both paths run the exact same
/// `standardized()` pass, this type just memoizes its result.
#[derive(Debug, Clone)]
pub struct PreparedContext {
    ctx_std: ContextMap,
}

impl PreparedContext {
    /// Standardizes `context` once for reuse across requests.
    pub fn new(context: &ContextMap) -> Self {
        PreparedContext {
            ctx_std: context.standardized(),
        }
    }

    /// Grid height in pixels.
    pub fn height(&self) -> usize {
        self.ctx_std.height()
    }

    /// Grid width in pixels.
    pub fn width(&self) -> usize {
        self.ctx_std.width()
    }

    /// Number of context attribute channels.
    pub fn channels(&self) -> usize {
        self.ctx_std.channels()
    }
}

impl SpectraGan {
    /// Generates `t_out` steps of synthetic traffic for a previously
    /// unseen region described by `context`.
    ///
    /// `seed` determines the noise vector; the *same* noise is shared
    /// across all patches of the city — §2.2.4 shows that per-patch
    /// noise plus Eq. 2 averaging would collapse to the expected
    /// traffic and oversmooth the maps.
    ///
    /// The output is clamped to non-negative values and generated at
    /// the training granularity; `t_out` beyond the training length is
    /// produced by expanding the spectrum by `k = ceil(t_out / T)` and
    /// rolling the residual LSTM longer. Exactly `t_out` steps are
    /// synthesized (see [`crate::model::Generator::infer_steps`]).
    pub fn generate(&self, context: &ContextMap, t_out: usize, seed: u64) -> TrafficMap {
        self.generate_opts(context, t_out, seed, true)
    }

    /// Like [`SpectraGan::generate`], but with the noise-sharing policy
    /// exposed: `shared_noise = false` draws a *fresh* noise vector per
    /// patch, the configuration §2.2.4 warns against (the Eq. 2
    /// averaging then acts as an expectation and oversmooths the maps).
    /// Kept public to power the noise ablation bench.
    pub fn generate_opts(
        &self,
        context: &ContextMap,
        t_out: usize,
        seed: u64,
        shared_noise: bool,
    ) -> TrafficMap {
        self.generate_batched(context, t_out, seed, shared_noise, GEN_BATCH)
    }

    /// The fully-parameterized generation entry point: `gen_batch`
    /// patches per generator chunk.
    ///
    /// Generation is **streaming and memory-bounded**: chunks of
    /// patches run in parallel on the [`spectragan_tensor::pool`] pool
    /// and are folded into a [`spectragan_geo::SewAccumulator`] in
    /// chunk-index order via
    /// [`par_fold_ordered`](spectragan_tensor::pool::par_fold_ordered),
    /// then dropped — at most `2 × threads` chunks of patch tensors
    /// exist at any moment, independent of city size and overlap.
    /// Chunk `i` always covers the same patches and folds at the same
    /// index, and fresh noise is derived from `(seed, global patch
    /// index)` rather than a shared sequential stream — so the output
    /// is bit-identical for a given seed at every thread count and
    /// batch size, and bit-identical to the batch sew it replaced.
    pub fn generate_batched(
        &self,
        context: &ContextMap,
        t_out: usize,
        seed: u64,
        shared_noise: bool,
        gen_batch: usize,
    ) -> TrafficMap {
        self.generate_batched_report(context, t_out, seed, shared_noise, gen_batch)
            .0
    }

    /// [`SpectraGan::generate_batched`] plus a [`GenReport`] with the
    /// run's wall time and per-run-scoped peak arena bytes. The
    /// traffic output is byte-identical to `generate_batched`'s.
    ///
    /// # Panics
    /// Panics on an invalid request (`t_out == 0`, `gen_batch == 0`,
    /// or a context that does not fit the model). Paths that take a
    /// request from outside the program — the CLI and the server —
    /// use [`SpectraGan::try_generate_batched_report`], which returns
    /// [`CoreError::InvalidRequest`] instead.
    pub fn generate_batched_report(
        &self,
        context: &ContextMap,
        t_out: usize,
        seed: u64,
        shared_noise: bool,
        gen_batch: usize,
    ) -> (TrafficMap, GenReport) {
        match self.try_generate_batched_report(context, t_out, seed, shared_noise, gen_batch) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking form of [`SpectraGan::generate_batched_report`]:
    /// malformed requests come back as
    /// [`CoreError::InvalidRequest`] instead of killing the thread.
    /// For valid inputs the output is bit-identical to the panicking
    /// wrappers (they delegate here).
    pub fn try_generate_batched_report(
        &self,
        context: &ContextMap,
        t_out: usize,
        seed: u64,
        shared_noise: bool,
        gen_batch: usize,
    ) -> Result<(TrafficMap, GenReport), CoreError> {
        let prepared = PreparedContext::new(context);
        self.try_generate_prepared_report(&prepared, t_out, seed, shared_noise, gen_batch)
    }

    /// Like [`SpectraGan::try_generate_batched_report`] but over a
    /// [`PreparedContext`], so a server can standardize each city's
    /// context once and share it across requests. Bit-identical to the
    /// raw-context path.
    pub fn try_generate_prepared_report(
        &self,
        prepared: &PreparedContext,
        t_out: usize,
        seed: u64,
        shared_noise: bool,
        gen_batch: usize,
    ) -> Result<(TrafficMap, GenReport), CoreError> {
        let (map, report) =
            self.generate_inner(prepared, t_out, seed, shared_noise, gen_batch, true, None)?;
        Ok((map.expect("collect mode returns a map"), report))
    }

    /// Streaming generation: averaged city rows are handed to `sink`
    /// as [`TrafficBand`]s the moment no in-flight patch can touch
    /// them anymore — a serving front-end forwards each band as one
    /// chunk of a chunked HTTP response while later patches are still
    /// being generated. Concatenating the bands row-wise reproduces
    /// [`SpectraGan::generate_batched`]'s map bit-for-bit at any
    /// thread count.
    ///
    /// `sink` returns `false` to stop receiving bands (client gone);
    /// generation still runs to completion — the ordered fold cannot
    /// be abandoned mid-flight — but no further bands are built or
    /// delivered.
    pub fn try_generate_stream(
        &self,
        prepared: &PreparedContext,
        t_out: usize,
        seed: u64,
        shared_noise: bool,
        gen_batch: usize,
        sink: &mut dyn FnMut(TrafficBand) -> bool,
    ) -> Result<GenReport, CoreError> {
        let (_, report) = self.generate_inner(
            prepared,
            t_out,
            seed,
            shared_noise,
            gen_batch,
            false,
            Some(sink),
        )?;
        Ok(report)
    }

    /// Validates a generation request without running it, so a server
    /// can reject bad input with a typed 4xx *before* committing to a
    /// streamed response. Exactly the checks the generation entry
    /// points perform.
    pub fn validate_generate(
        &self,
        prepared: &PreparedContext,
        t_out: usize,
        gen_batch: usize,
    ) -> Result<(), CoreError> {
        let cfg = self.config();
        if t_out == 0 {
            return Err(CoreError::InvalidRequest(
                "cannot generate an empty series (t_out = 0)".into(),
            ));
        }
        if gen_batch == 0 {
            return Err(CoreError::InvalidRequest(
                "gen_batch must be positive".into(),
            ));
        }
        if prepared.channels() != cfg.context_channels {
            return Err(CoreError::InvalidRequest(format!(
                "context has {} channels, the model expects {}",
                prepared.channels(),
                cfg.context_channels
            )));
        }
        let side = cfg.patch_traffic;
        if prepared.height() < side || prepared.width() < side {
            return Err(CoreError::InvalidRequest(format!(
                "context grid {}×{} is smaller than one {side}-pixel patch",
                prepared.height(),
                prepared.width()
            )));
        }
        Ok(())
    }

    /// The generation core shared by every public entry point: chunks
    /// of patches run on the pool, fold into a sew accumulator in
    /// chunk order, and completed row bands are drained immediately —
    /// into the output map (`collect`), to the `stream` sink, or both.
    #[allow(clippy::too_many_arguments)]
    fn generate_inner(
        &self,
        prepared: &PreparedContext,
        t_out: usize,
        seed: u64,
        shared_noise: bool,
        gen_batch: usize,
        collect: bool,
        stream: Option<&mut dyn FnMut(TrafficBand) -> bool>,
    ) -> Result<(Option<TrafficMap>, GenReport), CoreError> {
        self.validate_generate(prepared, t_out, gen_batch)?;
        let start = Instant::now();
        let peak_region = arena::PeakRegion::begin();
        let sp_run = obs::span_cat("generate", "generate");
        // Instantaneous backend marker, mirroring train_step: dropped
        // immediately so it never parents the run's real spans.
        drop(obs::span_cat(
            spectragan_tensor::backend::kind().name(),
            "backend",
        ));
        let (cfg, store, gen) = self.parts();
        let ctx_std = &prepared.ctx_std;
        let grid = GridSpec::new(ctx_std.height(), ctx_std.width());
        let layout = PatchLayout::new(
            grid,
            PatchSpec::new(cfg.patch_traffic, cfg.patch_context(), cfg.patch_stride),
        );

        // One noise vector for the whole city, spatially constant.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut z_vec = vec![0.0f32; cfg.noise_dim];
        for v in &mut z_vec {
            *v = gauss(&mut rng);
        }

        let positions = layout.positions();
        let px = cfg.pixels_per_patch();
        let side = cfg.patch_traffic;
        let n_chunks = positions.len().div_ceil(gen_batch);
        // Enough in-flight chunks to keep every worker busy while the
        // consumer folds, small enough to bound patch memory.
        let window = (spectragan_tensor::pool::threads() * 2).max(2);
        let mut acc = layout.sew_accumulator(t_out);
        let mut out_map = collect.then(|| TrafficMap::zeros(t_out, grid.height, grid.width));
        let mut stream = stream;
        let mut stream_live = true;
        // Drains every band whose rows are final, clamps it to
        // non-negative traffic, and routes it to the map and/or sink.
        let drain_bands = |acc: &mut spectragan_geo::SewAccumulator<'_>,
                           out_map: &mut Option<TrafficMap>,
                           stream: &mut Option<&mut dyn FnMut(TrafficBand) -> bool>,
                           stream_live: &mut bool| {
            while let Some(mut band) = acc.emit_band() {
                for v in &mut band.data {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
                if let Some(map) = out_map.as_mut() {
                    band.write_into(map);
                }
                if *stream_live {
                    if let Some(sink) = stream.as_mut() {
                        *stream_live = sink(band);
                    }
                }
            }
        };
        spectragan_tensor::pool::par_fold_ordered(
            n_chunks,
            window,
            |ci| {
                let sp = obs::span_cat("patch_chunk", "generate");
                let chunk = &positions[ci * gen_batch..((ci + 1) * gen_batch).min(positions.len())];
                let p = chunk.len();
                // Stack context patches.
                let ctx_parts: Vec<Tensor> = chunk
                    .iter()
                    .map(|&pos| {
                        let t = layout.extract_context(ctx_std, pos);
                        let d = t.shape().dims().to_vec();
                        t.reshape([1, d[0], d[1], d[2]])
                    })
                    .collect();
                let refs: Vec<&Tensor> = ctx_parts.iter().collect();
                let ctx_batch = Tensor::concat(&refs, 0);
                // Broadcast the shared noise (or derive per-patch noise
                // from the global patch index when the ablation asks
                // for it).
                let mut z = Tensor::zeros([p, cfg.noise_dim, side, side]);
                for pi in 0..p {
                    let patch_noise: Vec<f32> = if shared_noise {
                        z_vec.clone()
                    } else {
                        let patch_index = (ci * gen_batch + pi) as u64;
                        let mut patch_rng =
                            StdRng::seed_from_u64(per_patch_seed(seed, patch_index));
                        (0..cfg.noise_dim).map(|_| gauss(&mut patch_rng)).collect()
                    };
                    for (d, &nv) in patch_noise.iter().enumerate() {
                        let base = (pi * cfg.noise_dim + d) * side * side;
                        for e in 0..side * side {
                            z.data_mut()[base + e] = nv;
                        }
                    }
                }
                let rows = gen.infer_steps(store, &ctx_batch, &z, t_out);
                let out = (0..p)
                    .map(|pi| {
                        let patch_rows = rows.narrow(0, pi * px, px);
                        crate::fourier::rows_to_patch(&patch_rows, side, side)
                    })
                    .collect::<Vec<Tensor>>();
                drop(sp);
                out
            },
            |_, patches| {
                // Fold in chunk order and drop the chunk's tensors
                // right away (their buffers go back to the arena),
                // then hand out whatever rows just became final.
                let _sp = obs::span_cat("sew_fold", "generate");
                for patch in &patches {
                    acc.push(patch);
                }
                drop(patches);
                drain_bands(&mut acc, &mut out_map, &mut stream, &mut stream_live);
            },
        );
        let sp = obs::span_cat("sew_finish", "generate");
        drain_bands(&mut acc, &mut out_map, &mut stream, &mut stream_live);
        assert_eq!(
            acc.emitted_rows(),
            grid.height,
            "streamed bands must cover every row"
        );
        drop(sp);
        drop(sp_run);
        let peak_arena_bytes = peak_region.end();
        obs::gauge("spectragan_generate_peak_arena_bytes").set(peak_arena_bytes as f64);
        let report = GenReport {
            wall_s: start.elapsed().as_secs_f64(),
            peak_arena_bytes,
        };
        Ok((out_map, report))
    }
}

/// One standard-normal draw via Box–Muller (the same transform the
/// training path uses, kept here so generation does not depend on the
/// trainer's RNG plumbing).
fn gauss(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Mixes the generation seed with a patch index (SplitMix64 finalizer)
/// so every patch owns a decorrelated noise stream that does not depend
/// on batch size, iteration order or thread count.
fn per_patch_seed(seed: u64, patch_index: u64) -> u64 {
    let mut z = seed ^ patch_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SpectraGanConfig, TrainConfig};
    use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};

    fn tiny_city(seed: u64, scale: f64) -> spectragan_geo::City {
        let ds = DatasetConfig {
            weeks: 1,
            steps_per_hour: 1,
            size_scale: scale,
        };
        generate_city(
            &CityConfig {
                name: format!("G{seed}"),
                height: 33,
                width: 33,
                seed,
            },
            &ds,
        )
    }

    #[test]
    fn generates_requested_shape_and_nonnegative() {
        let model = SpectraGan::new(SpectraGanConfig::tiny(), 3);
        let city = tiny_city(1, 0.36);
        let out = model.generate(&city.context, 24, 7);
        assert_eq!(out.len_t(), 24);
        assert_eq!(out.height(), city.traffic.height());
        assert_eq!(out.width(), city.traffic.width());
        assert!(out.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn generates_longer_than_training_length() {
        let model = SpectraGan::new(SpectraGanConfig::tiny(), 3);
        let city = tiny_city(2, 0.36);
        // train_len = 24; ask for 3 weeks-equivalent (72 = 3×24).
        let out = model.generate(&city.context, 72, 7);
        assert_eq!(out.len_t(), 72);
        // Non-multiple lengths are truncated from the next multiple.
        let odd = model.generate(&city.context, 30, 7);
        assert_eq!(odd.len_t(), 30);
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let model = SpectraGan::new(SpectraGanConfig::tiny(), 4);
        let city = tiny_city(3, 0.36);
        let a = model.generate(&city.context, 24, 11);
        let b = model.generate(&city.context, 24, 11);
        assert_eq!(a.data(), b.data());
        let c = model.generate(&city.context, 24, 12);
        assert_ne!(a.data(), c.data(), "different seeds must differ");
    }

    /// Full-city generation — including a non-multiple `t_out`, which
    /// exercises the exact-`t_out` narrowing — is bit-identical at
    /// every worker count.
    #[test]
    fn generation_is_thread_count_invariant() {
        let model = SpectraGan::new(SpectraGanConfig::tiny(), 10);
        let city = tiny_city(6, 0.36);
        spectragan_tensor::pool::set_threads(Some(1));
        let reference = model.generate(&city.context, 30, 17);
        assert_eq!(reference.len_t(), 30);
        for t in [2, 3, 5, 8] {
            spectragan_tensor::pool::set_threads(Some(t));
            let got = model.generate(&city.context, 30, 17);
            assert_eq!(got.data(), reference.data(), "threads={t}");
        }
        spectragan_tensor::pool::set_threads(None);
    }

    #[test]
    fn fresh_noise_ablation_is_thread_and_seed_deterministic() {
        let model = SpectraGan::new(SpectraGanConfig::tiny(), 9);
        let city = tiny_city(5, 0.36);
        spectragan_tensor::pool::set_threads(Some(1));
        let serial = model.generate_opts(&city.context, 24, 21, false);
        spectragan_tensor::pool::set_threads(Some(4));
        let parallel = model.generate_opts(&city.context, 24, 21, false);
        spectragan_tensor::pool::set_threads(None);
        assert_eq!(
            serial.data(),
            parallel.data(),
            "fresh noise must not depend on threads"
        );
        let other = model.generate_opts(&city.context, 24, 22, false);
        assert_ne!(serial.data(), other.data(), "different seeds must differ");
    }

    #[test]
    fn handles_city_sizes_other_than_training() {
        // Train-free structural test: generate for two different grid
        // sizes with one model (the arbitrary-size requirement).
        let model = SpectraGan::new(SpectraGanConfig::tiny(), 5);
        for scale in [0.36, 0.55] {
            let city = tiny_city(4, scale);
            let out = model.generate(&city.context, 24, 1);
            assert_eq!(out.height(), city.traffic.height());
            assert_eq!(out.width(), city.traffic.width());
        }
    }

    /// End-to-end smoke: short training then generation produces maps
    /// whose spatial distribution correlates with the real city better
    /// than noise (weak but meaningful signal for a smoke test).
    #[test]
    fn trained_model_generates_plausible_spatial_pattern() {
        // Train on four cities (the leave-one-out protocol trains on
        // eight) so the context→traffic mapping generalizes rather than
        // memorizing one city's patch layouts — with a single small
        // city the GAN memorizes and test-city correlation collapses.
        let train_cities: Vec<_> = [10u64, 12, 13, 14]
            .iter()
            .map(|&s| tiny_city(s, 0.45))
            .collect();
        let test_city = tiny_city(11, 0.45);
        let mut model = SpectraGan::new(SpectraGanConfig::tiny(), 6);
        let tc = TrainConfig {
            steps: 120,
            batch_patches: 3,
            lr: 4e-3,
            seed: 0,
        };
        model.train(&train_cities, &tc).unwrap();
        let synth = model.generate(&test_city.context, 24, 3);
        let real_mean = test_city.traffic.mean_map();
        let synth_mean = synth.mean_map();
        let pcc = spectragan_metrics_free_pearson(&real_mean, &synth_mean);
        assert!(pcc > 0.2, "spatial correlation too weak: {pcc}");
    }

    /// Every malformed request comes back as a typed
    /// [`CoreError::InvalidRequest`] from the `try_` entry points —
    /// the server's request path must never hit a panic.
    #[test]
    fn invalid_requests_return_typed_errors() {
        let model = SpectraGan::new(SpectraGanConfig::tiny(), 3);
        let city = tiny_city(20, 0.36);
        let bad =
            |r: Result<(spectragan_geo::TrafficMap, GenReport), CoreError>, needle: &str| match r {
                Err(CoreError::InvalidRequest(why)) => {
                    assert!(why.contains(needle), "{why:?} should mention {needle:?}")
                }
                other => panic!("expected InvalidRequest, got {other:?}"),
            };
        bad(
            model.try_generate_batched_report(&city.context, 0, 7, true, 8),
            "t_out",
        );
        bad(
            model.try_generate_batched_report(&city.context, 24, 7, true, 0),
            "gen_batch",
        );
        // Wrong channel count.
        let skinny = spectragan_geo::ContextMap::zeros(2, 33, 33);
        bad(
            model.try_generate_batched_report(&skinny, 24, 7, true, 8),
            "channels",
        );
        // Grid smaller than one traffic patch.
        let cfg = model.config();
        let tiny_grid = spectragan_geo::ContextMap::zeros(cfg.context_channels, 1, 1);
        bad(
            model.try_generate_batched_report(&tiny_grid, 24, 7, true, 8),
            "patch",
        );
    }

    /// The legacy panicking wrapper still panics on bad input — it
    /// delegates to the typed path and re-raises.
    #[test]
    #[should_panic(expected = "cannot generate an empty series")]
    fn panicking_wrapper_still_panics_on_empty_series() {
        let model = SpectraGan::new(SpectraGanConfig::tiny(), 3);
        let city = tiny_city(21, 0.36);
        let _ = model.generate(&city.context, 0, 7);
    }

    /// The prepared-context path and the band-streaming path both
    /// reproduce the batch API's bytes exactly — the serve front-end
    /// relies on this for its byte-identity guarantee.
    #[test]
    fn prepared_and_streamed_paths_match_batch_bytes() {
        let model = SpectraGan::new(SpectraGanConfig::tiny(), 8);
        let city = tiny_city(22, 0.36);
        let (reference, _) = model.generate_batched_report(&city.context, 30, 13, true, 5);

        let prepared = PreparedContext::new(&city.context);
        let (via_prepared, _) = model
            .try_generate_prepared_report(&prepared, 30, 13, true, 5)
            .unwrap();
        assert_eq!(via_prepared.data(), reference.data());

        // Reassemble the stream into a map and compare bit-for-bit,
        // checking the bands tile the grid exactly once, in order.
        for threads in [1, 4] {
            spectragan_tensor::pool::set_threads(Some(threads));
            let mut assembled =
                spectragan_geo::TrafficMap::zeros(30, city.context.height(), city.context.width());
            let mut next_row = 0usize;
            model
                .try_generate_stream(&prepared, 30, 13, true, 5, &mut |band| {
                    assert_eq!(band.y0, next_row, "bands must arrive in row order");
                    assert!(band.rows > 0);
                    next_row += band.rows;
                    band.write_into(&mut assembled);
                    true
                })
                .unwrap();
            assert_eq!(next_row, city.context.height(), "threads={threads}");
            assert_eq!(assembled.data(), reference.data(), "threads={threads}");
        }
        spectragan_tensor::pool::set_threads(None);
    }

    /// A sink that gives up (client disconnect) stops deliveries but
    /// the run still completes and reports cleanly.
    #[test]
    fn stream_sink_can_stop_early_without_error() {
        let model = SpectraGan::new(SpectraGanConfig::tiny(), 8);
        let city = tiny_city(23, 0.36);
        let prepared = PreparedContext::new(&city.context);
        let mut delivered = 0usize;
        let report = model
            .try_generate_stream(&prepared, 24, 13, true, 5, &mut |_| {
                delivered += 1;
                false
            })
            .unwrap();
        assert_eq!(delivered, 1, "sink declined after the first band");
        assert!(report.wall_s >= 0.0);
    }

    /// Local Pearson helper to avoid a dev-dependency cycle with the
    /// metrics crate.
    fn spectragan_metrics_free_pearson(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for (&x, &y) in a.iter().zip(b) {
            cov += (x - ma) * (y - mb);
            va += (x - ma) * (x - ma);
            vb += (y - mb) * (y - mb);
        }
        if va <= 0.0 || vb <= 0.0 {
            return 0.0;
        }
        cov / (va.sqrt() * vb.sqrt())
    }
}
