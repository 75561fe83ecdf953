//! Lazy multi-city model registry.
//!
//! The models directory holds, per city, a context map `<city>.sgcm`
//! and a model — per-city (`<city>.sgwt` / `<city>.json`) or shared
//! (`model.sgwt` / `model.json`) across every city (the usual case:
//! one SpectraGAN trained on many cities, applied to each city's
//! context). `SGWT` weight containers are preferred over JSON at each
//! tier: they open via `mmap`, validate every section checksum at
//! load (a corrupt container is rejected at registration, never on a
//! request), and keep only the touched layers resident — the
//! per-city resident footprint is reported by
//! [`Registry::status`]. Nothing is loaded at boot;
//! a city's weights and *standardized* context tensor are read on the
//! first request that names it and shared — one `Arc` — by every
//! request thereafter, so concurrent requests for one city reuse a
//! single context standardization and a single weight set.
//!
//! Loading happens under a per-city lock, never the registry-wide one:
//! a cold multi-second model load for CITY A does not stall a warm
//! request for CITY B.

use spectragan_core::{weights, PreparedContext, SpectraGan};
use spectragan_geo::io::load_context;
use spectragan_obs as obs;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A city ready to serve: weights plus its standardized context.
pub struct CityEntry {
    /// City name (the `.sgcm` stem).
    pub name: String,
    /// The generator.
    pub model: SpectraGan,
    /// Standardized context, shared across requests.
    pub prepared: PreparedContext,
    /// Whether the weights are served out of a memory-mapped `SGWT`
    /// container (vs. heap-resident JSON weights).
    pub mapped: bool,
}

/// One city's load state, as reported by `GET /cities`.
#[derive(serde::Serialize)]
pub struct CityStatus {
    /// City name.
    pub name: String,
    /// Whether the model has been loaded (first request seen).
    pub loaded: bool,
    /// Whether the weights are memory-mapped from an `SGWT` container.
    pub mapped: bool,
    /// Bytes of weight storage currently resident for this city: its
    /// materialized f32 layers. Grows as lazy layers are first
    /// touched; 0 until the city is loaded.
    pub resident_weight_bytes: usize,
}

/// Why a city could not be served.
#[derive(Debug)]
pub enum RegistryError {
    /// The name fails validation (path traversal, odd characters).
    BadName(String),
    /// No `<city>.sgcm` in the models directory.
    UnknownCity(String),
    /// The context or model file exists but failed to load.
    Load(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::BadName(name) => write!(f, "invalid city name {name:?}"),
            RegistryError::UnknownCity(name) => write!(f, "unknown city {name:?}"),
            RegistryError::Load(why) => write!(f, "model load failed: {why}"),
        }
    }
}

/// One city's lazily-filled slot. The per-city mutex serializes the
/// first load; afterwards every `get` clones the `Arc` under a
/// momentary lock.
struct CitySlot {
    entry: Mutex<Option<Arc<CityEntry>>>,
}

/// The registry itself. Cheap to share behind an `Arc`.
pub struct Registry {
    dir: PathBuf,
    slots: Mutex<HashMap<String, Arc<CitySlot>>>,
}

impl Registry {
    /// Creates a registry over `dir`. The directory is not scanned
    /// until [`Registry::cities`] or a request needs it.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Registry {
            dir: dir.into(),
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// The models directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// City names available for serving: the `.sgcm` stems present in
    /// the models directory, sorted.
    pub fn cities(&self) -> Vec<String> {
        let mut names = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if let Some(stem) = name.strip_suffix(".sgcm") {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        names
    }

    /// Per-city load state: which cities are loaded, whether their
    /// weights are mapped, and how many weight bytes are resident.
    /// Never blocks behind an in-flight model load — a city mid-load
    /// reports as not loaded yet.
    pub fn status(&self) -> Vec<CityStatus> {
        let slots = self.slots.lock().expect("registry lock poisoned");
        self.cities()
            .into_iter()
            .map(|name| {
                let entry = slots
                    .get(&name)
                    .and_then(|slot| slot.entry.try_lock().ok().and_then(|e| e.clone()));
                match entry {
                    Some(e) => CityStatus {
                        name,
                        loaded: true,
                        mapped: e.mapped,
                        resident_weight_bytes: e.model.store().resident_weight_bytes(),
                    },
                    None => CityStatus {
                        name,
                        loaded: false,
                        mapped: false,
                        resident_weight_bytes: 0,
                    },
                }
            })
            .collect()
    }

    /// The city's entry, loading it on first touch.
    pub fn get(&self, city: &str) -> Result<Arc<CityEntry>, RegistryError> {
        if !valid_city_name(city) {
            return Err(RegistryError::BadName(city.to_string()));
        }
        let slot = {
            let mut slots = self.slots.lock().expect("registry lock poisoned");
            Arc::clone(slots.entry(city.to_string()).or_insert_with(|| {
                Arc::new(CitySlot {
                    entry: Mutex::new(None),
                })
            }))
        };
        // Per-city lock: a concurrent first request for the same city
        // waits for this load instead of duplicating it; requests for
        // other cities proceed on their own slots.
        let mut entry = slot.entry.lock().expect("city slot poisoned");
        if let Some(loaded) = entry.as_ref() {
            return Ok(Arc::clone(loaded));
        }
        let loaded = Arc::new(self.load_city(city)?);
        *entry = Some(Arc::clone(&loaded));
        obs::counter("spectragan_serve_model_loads_total").inc(1);
        Ok(loaded)
    }

    fn load_city(&self, city: &str) -> Result<CityEntry, RegistryError> {
        let _sp = obs::span_cat("model_load", "serve");
        let ctx_path = self.dir.join(format!("{city}.sgcm"));
        if !ctx_path.exists() {
            return Err(RegistryError::UnknownCity(city.to_string()));
        }
        let context = load_context(&ctx_path)
            .map_err(|e| RegistryError::Load(format!("{}: {e}", ctx_path.display())))?;
        // Per-city models win over the shared one; at each tier the
        // SGWT container wins over JSON.
        let candidates = [
            format!("{city}.sgwt"),
            format!("{city}.json"),
            "model.sgwt".to_string(),
            "model.json".to_string(),
        ];
        let model_path = candidates
            .iter()
            .map(|n| self.dir.join(n))
            .find(|p| p.exists())
            .ok_or_else(|| {
                RegistryError::Load(format!(
                    "no model for {city:?}: none of {} exist in {}",
                    candidates.join(", "),
                    self.dir.display()
                ))
            })?;
        let err = |e: &dyn std::fmt::Display| {
            RegistryError::Load(format!("{}: {e}", model_path.display()))
        };
        let is_sgwt = weights::is_weight_container(&model_path).map_err(|e| err(&e))?;
        let (model, mapped) = if is_sgwt {
            let store = weights::WeightStore::open(&model_path).map_err(|e| err(&e))?;
            // Every section checksum is verified here, at load, so a
            // corrupt container surfaces as a typed registration
            // error instead of a panic inside a request.
            store.validate_all().map_err(|e| err(&e))?;
            let mapped = store.is_mapped();
            (store.load_model().map_err(|e| err(&e))?, mapped)
        } else {
            let json = std::fs::read_to_string(&model_path).map_err(|e| err(&e))?;
            (
                SpectraGan::from_model_json(&json).map_err(|e| err(&e))?,
                false,
            )
        };
        Ok(CityEntry {
            name: city.to_string(),
            model,
            prepared: PreparedContext::new(&context),
            mapped,
        })
    }
}

/// City names come off the wire; confine them to one path segment of
/// ordinary characters so they can never escape the models directory.
fn valid_city_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ' '))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn city_names_are_confined_to_one_segment() {
        assert!(valid_city_name("city_1"));
        assert!(valid_city_name("CITY A"));
        assert!(!valid_city_name(""));
        assert!(!valid_city_name("../etc/passwd"));
        assert!(!valid_city_name("a/b"));
        assert!(!valid_city_name(".hidden"));
        assert!(!valid_city_name("x\0y"));
    }

    #[test]
    fn unknown_and_invalid_cities_are_typed_errors() {
        let dir = std::env::temp_dir().join(format!("sg_registry_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let reg = Registry::new(&dir);
        assert!(matches!(
            reg.get("no_such_city"),
            Err(RegistryError::UnknownCity(_))
        ));
        assert!(matches!(reg.get("../x"), Err(RegistryError::BadName(_))));
        assert!(reg.cities().is_empty());
    }
}
