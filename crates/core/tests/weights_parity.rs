//! End-to-end gates for the `SGWT` weight container:
//!
//! * **Containers are invisible.** Generation from a model loaded out
//!   of an `SGWT` container is bit-identical to generation from the
//!   same model loaded out of the JSON model file — the container is a
//!   storage change, never a numerics change. Checked per backend, for
//!   both the offline map and the streamed bands a server forwards as
//!   SGBD chunks.
//! * **Reduced-precision containers are refused.** The f16 (version 1,
//!   dtype 1) and int8 (version 2) containers earlier releases wrote
//!   fail to open with a typed error naming the dtype or version. The
//!   fixtures under `tests/fixtures/` are those releases' encodings of
//!   `SpectraGan::new(SpectraGanConfig::tiny(), 7)`.

use spectragan_core::weights::{self, Precision, WeightStore};
use spectragan_core::{CoreError, PreparedContext, SpectraGan, SpectraGanConfig};
use spectragan_geo::TrafficMap;
use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};
use spectragan_tensor::{set_backend, BackendKind};

/// `set_backend` is process-global; serialize the tests in this binary
/// (other integration test files run as separate processes).
static BACKEND_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_city(seed: u64) -> spectragan_geo::City {
    let ds = DatasetConfig {
        weeks: 1,
        steps_per_hour: 1,
        size_scale: 0.36,
    };
    generate_city(
        &CityConfig {
            name: format!("W{seed}"),
            height: 33,
            width: 33,
            seed,
        },
        &ds,
    )
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("spectragan-weights-parity");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

/// Generates via the band-streaming path (the bytes a server chunks
/// into SGBD frames) and reassembles the bands into a map.
fn generate_streamed(model: &SpectraGan, city: &spectragan_geo::City, t: usize) -> TrafficMap {
    let prepared = PreparedContext::new(&city.context);
    let mut assembled = TrafficMap::zeros(t, city.context.height(), city.context.width());
    let mut next_row = 0usize;
    model
        .try_generate_stream(&prepared, t, 7, true, 16, &mut |band| {
            assert_eq!(band.y0, next_row, "bands must arrive in row order");
            next_row += band.rows;
            band.write_into(&mut assembled);
            true
        })
        .unwrap();
    assert_eq!(next_row, city.context.height(), "bands must tile the city");
    assembled
}

fn bits(m: &TrafficMap) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn sgwt_f32_generation_is_bit_identical_to_json_path() {
    let _g = lock();
    let model = SpectraGan::new(SpectraGanConfig::tiny(), 11);
    let city = tiny_city(5);

    let json_path = tmp("parity.json");
    std::fs::write(&json_path, model.to_model_json()).unwrap();
    let sgwt_path = tmp("parity.sgwt");
    weights::save_weights(&model, &sgwt_path, Precision::F32).unwrap();

    let from_json = weights::load_model_auto(&json_path).unwrap();
    let from_sgwt = weights::load_model_auto(&sgwt_path).unwrap();

    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        set_backend(Some(kind));
        let a = from_json.generate(&city.context, 24, 7);
        let b = from_sgwt.generate(&city.context, 24, 7);
        assert_eq!(a.len_t(), b.len_t());
        assert_eq!(
            bits(&a),
            bits(&b),
            "{kind:?}: f32 container changed generation"
        );
        // The streamed (served) bytes are the same bytes.
        let streamed = generate_streamed(&from_sgwt, &city, 24);
        assert_eq!(
            bits(&a),
            bits(&streamed),
            "{kind:?}: f32 streamed bands diverged"
        );
    }
    set_backend(None);

    std::fs::remove_file(&json_path).ok();
    std::fs::remove_file(&sgwt_path).ok();
}

/// The f16 and int8 containers earlier releases wrote, with the text
/// their refusal must carry.
const LEGACY_CONTAINERS: [(&str, &str); 2] = [
    ("tiny_seed7_f16_v1.sgwt", "unsupported dtype 1 (f16)"),
    (
        "tiny_seed7_int8_v2.sgwt",
        "unsupported weight container version 2",
    ),
];

fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn reduced_precision_containers_are_refused_with_a_typed_error() {
    for (name, expect) in LEGACY_CONTAINERS {
        let path = fixture(name);
        assert!(weights::is_weight_container(&path).unwrap(), "{name}");
        let opened = WeightStore::open(&path);
        let auto = weights::load_model_auto(&path);
        for (what, err) in [
            ("open", opened.map(|_| ()).unwrap_err()),
            ("load_model_auto", auto.map(|_| ()).unwrap_err()),
        ] {
            assert!(matches!(err, CoreError::Model(_)), "{name} {what}: {err:?}");
            let msg = err.to_string();
            assert!(msg.contains(expect), "{name} {what}: {msg}");
            assert!(msg.contains("f32"), "{name} {what}: {msg}");
        }
    }
}
