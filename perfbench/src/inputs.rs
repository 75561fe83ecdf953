//! Benchmark inputs, synthesized from the run's seed and written to a
//! work directory inside the checkout before any clock starts.
//!
//! Every workload uses the `default_hourly` config with untrained
//! weights saved as an f32 SGWT container (`spectragan train`'s model
//! shape). Cities come from `synthdata`, one week at hourly resolution.

use spectragan_core::weights::{save_weights, Precision};
use spectragan_core::{SpectraGan, SpectraGanConfig};
use spectragan_geo::io::save_context;
use spectragan_geo::City;
use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};
use std::path::{Path, PathBuf};

/// gen-city: one 24×24 city (25 patches, chunks of 16 and 9).
pub const GEN_SIDE: usize = 24;
/// serve-mix: three cities with near-equal patch counts (20, 20, 21).
pub const SERVE_CITIES: [(&str, usize, usize); 3] =
    [("c20x24", 20, 24), ("c24x20", 24, 20), ("c16x32", 16, 32)];
/// train: two 32×32 cities.
pub const TRAIN_SIDE: usize = 32;

/// SplitMix64 finalizer: derives independent streams from one seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The model configuration every workload runs.
pub fn config() -> SpectraGanConfig {
    SpectraGanConfig::default_hourly()
}

/// A work directory that is removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(path: PathBuf) -> std::io::Result<WorkDir> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything the workloads read, already on disk or in memory.
pub struct Inputs {
    /// Seed of the untrained model (`SpectraGan::new(config(), seed)`).
    pub model_seed: u64,
    /// Serve models directory: `model.sgwt` plus one `.sgcm` per city.
    pub models_dir: PathBuf,
    /// The f32 SGWT container inside `models_dir`.
    pub model_path: PathBuf,
    /// gen-city's context map.
    pub gen_context: PathBuf,
    /// train's cities.
    pub train_cities: Vec<City>,
}

fn city(name: &str, height: usize, width: usize, seed: u64) -> City {
    let ds = DatasetConfig {
        weeks: 1,
        steps_per_hour: 1,
        size_scale: 1.0,
    };
    let cfg = CityConfig {
        name: name.to_string(),
        height,
        width,
        seed,
    };
    generate_city(&cfg, &ds)
}

/// Synthesizes and writes the inputs for `seed` under `dir`.
pub fn make(dir: &Path, seed: u64) -> Result<Inputs, String> {
    let models_dir = dir.join("models");
    std::fs::create_dir_all(&models_dir).map_err(|e| format!("{}: {e}", models_dir.display()))?;
    let model_seed = mix(seed, 1);
    let model = SpectraGan::new(config(), model_seed);
    let model_path = models_dir.join("model.sgwt");
    save_weights(&model, &model_path, Precision::F32).map_err(|e| e.to_string())?;

    for (i, (name, h, w)) in SERVE_CITIES.iter().enumerate() {
        let c = city(name, *h, *w, mix(seed, 10 + i as u64));
        save_context(&c.context, models_dir.join(format!("{name}.sgcm")))
            .map_err(|e| e.to_string())?;
    }
    let gen_context = dir.join("gen.sgcm");
    let c = city("gen", GEN_SIDE, GEN_SIDE, mix(seed, 20));
    save_context(&c.context, &gen_context).map_err(|e| e.to_string())?;

    let train_cities = (0..2)
        .map(|i| {
            city(
                &format!("train{i}"),
                TRAIN_SIDE,
                TRAIN_SIDE,
                mix(seed, 30 + i),
            )
        })
        .collect();
    Ok(Inputs {
        model_seed,
        models_dir,
        model_path,
        gen_context,
        train_cities,
    })
}
