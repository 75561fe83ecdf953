//! Generation hash fixtures: the bits of whole-city generation, pinned.
//!
//! `tests/fixtures/generation_hashes.txt` holds one FNV-1a hash of the
//! output bits of [`SpectraGan::generate_batched_report`] per variant ×
//! `t_out` × backend × thread count, for freshly initialized
//! `default_hourly` models on a 12×12 city, the smallest grid synthdata
//! builds (four patches, one chunk each). `t_out` 24 runs inside one training period and 200 crosses
//! into the second (`k = 2`). A change that moves one generated bit on
//! either backend fails here, whatever it touched: the encoder, the
//! spectral path, the LSTM rollout or the sew.
//!
//! Re-record (only when the *intended* numerics change) with:
//!
//! ```text
//! GOLDEN_RECORD=1 cargo test -p spectragan-core --test generation_fixtures
//! ```

use spectragan_core::{SpectraGan, SpectraGanConfig, Variant};
use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};
use spectragan_tensor::{pool, set_backend, BackendKind};

const VARIANTS: [(&str, Variant); 5] = [
    ("full", Variant::Full),
    ("spec_only", Variant::SpecOnly),
    ("time_only", Variant::TimeOnly),
    ("time_only_plus", Variant::TimeOnlyPlus),
    ("pixel_context", Variant::PixelContext),
];

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/generation_hashes.txt")
}

/// 64-bit FNV-1a over the little-endian bytes of every value's bits.
fn fnv1a(data: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One line per (variant, backend, threads, t_out): `name hash`.
fn hash_lines() -> Vec<String> {
    let ds = DatasetConfig {
        weeks: 1,
        steps_per_hour: 1,
        size_scale: 1.0,
    };
    let city = generate_city(
        &CityConfig {
            name: "F12".into(),
            height: 12,
            width: 12,
            seed: 6,
        },
        &ds,
    );
    let mut lines = Vec::new();
    for (name, variant) in VARIANTS {
        let model = SpectraGan::new(SpectraGanConfig::default_hourly().with_variant(variant), 4);
        for (backend_name, backend) in
            [("scalar", BackendKind::Scalar), ("simd", BackendKind::Simd)]
        {
            set_backend(Some(backend));
            for threads in [1, 2] {
                pool::set_threads(Some(threads));
                for t_out in [24, 200] {
                    let (map, _) = model.generate_batched_report(&city.context, t_out, 23, true, 1);
                    lines.push(format!(
                        "{name}/{backend_name}/t{threads}/{t_out} {:016x}",
                        fnv1a(map.data())
                    ));
                }
            }
        }
    }
    pool::set_threads(None);
    set_backend(None);
    lines
}

#[test]
fn generation_matches_recorded_hashes() {
    let got = hash_lines();
    let path = fixture_path();
    if std::env::var("GOLDEN_RECORD").is_ok() {
        std::fs::write(&path, got.join("\n") + "\n").unwrap();
        eprintln!("recorded {} ({} hashes)", path.display(), got.len());
        return;
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); see module docs", path.display()));
    let want: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(
        want.len(),
        got.len(),
        "fixture covers a different run matrix"
    );
    let diverged: Vec<String> = want
        .iter()
        .zip(&got)
        .filter(|(w, g)| w.trim() != g.as_str())
        .map(|(w, g)| format!("want {w}, got {g}"))
        .collect();
    assert!(
        diverged.is_empty(),
        "{} of {} generations moved:\n{}",
        diverged.len(),
        got.len(),
        diverged.join("\n")
    );
}
