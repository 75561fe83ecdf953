//! Golden bit-equality suite for the autodiff engine.
//!
//! The fixture under `tests/fixtures/` holds the exact weight bits of a
//! short training run recorded with the pre-refactor (boxed-closure)
//! tape, at 1 and at 4 pool threads. The typed-op engine must reproduce
//! those bits exactly — not approximately — because the checkpoint and
//! resume contracts from PR 1/2 are defined in terms of byte equality.
//!
//! `tiny` trains its time discriminator on the whole series. A second
//! pair of fixtures (`golden_window8_t*.bits`, recorded with the
//! per-step LSTM tape before the fused sequence op replaced it) trains
//! `tiny` with `disc_time_window = 8`, so every step draws a window
//! offset and the discriminator reads a narrowed slice of the series.
//!
//! Re-record (only when the *intended* numerics change, never to paper
//! over a regression) with:
//!
//! ```text
//! GOLDEN_RECORD=1 cargo test -p spectragan-core --test golden_bits
//! ```

use spectragan_core::{SpectraGan, SpectraGanConfig, TrainConfig};
use spectragan_geo::City;
use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};
use spectragan_tensor::{pool, set_backend, BackendKind};

/// `pool::set_threads` is process-global; serialize the two sweeps.
static POOL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

const STEPS: usize = 5;

fn fixture_path(name: &str, threads: usize) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}_t{threads}.bits"))
}

fn tiny_city(seed: u64) -> City {
    let ds = DatasetConfig {
        weeks: 1,
        steps_per_hour: 1,
        size_scale: 0.36,
    };
    generate_city(
        &CityConfig {
            name: format!("G{seed}"),
            height: 17,
            width: 17,
            seed,
        },
        &ds,
    )
}

/// Trains `cfg` for [`STEPS`] steps and returns every weight as its
/// raw bit pattern, in deterministic store order.
fn trained_bits(cfg: SpectraGanConfig) -> Vec<u32> {
    let cities = [tiny_city(3), tiny_city(8)];
    let mut model = SpectraGan::new(cfg, 0);
    let tc = TrainConfig {
        steps: STEPS,
        batch_patches: 2,
        lr: 3e-3,
        seed: 17,
    };
    model.train(&cities, &tc).expect("training failed");
    model
        .store()
        .iter()
        .flat_map(|(_, _, t)| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

fn bits_to_text(bits: &[u32]) -> String {
    let mut s = String::with_capacity(bits.len() * 9);
    for b in bits {
        s.push_str(&format!("{b:08x}\n"));
    }
    s
}

fn text_to_bits(text: &str) -> Vec<u32> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| u32::from_str_radix(l.trim(), 16).expect("bad fixture line"))
        .collect()
}

fn check_or_record(name: &str, cfg: SpectraGanConfig, threads: usize) {
    // The fixtures were recorded against the reference kernels; pin the
    // Scalar backend explicitly so this byte-equality contract holds
    // even when the suite runs under `SPECTRAGAN_BACKEND=simd`.
    set_backend(Some(BackendKind::Scalar));
    pool::set_threads(Some(threads));
    let bits = trained_bits(cfg);
    pool::set_threads(None);
    set_backend(None);
    let path = fixture_path(name, threads);
    if std::env::var("GOLDEN_RECORD").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, bits_to_text(&bits)).unwrap();
        eprintln!("recorded {} ({} weights)", path.display(), bits.len());
        return;
    }
    let fixture =
        text_to_bits(&std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing fixture {} ({e}); see module docs", path.display())
        }));
    assert_eq!(
        fixture.len(),
        bits.len(),
        "{name}: weight count changed vs fixture at {threads} threads"
    );
    let diverged: Vec<usize> = (0..bits.len()).filter(|&i| bits[i] != fixture[i]).collect();
    assert!(
        diverged.is_empty(),
        "{name}: {} of {} weights diverge from the recorded engine at {threads} threads \
         (first at index {}: {:08x} vs {:08x})",
        diverged.len(),
        bits.len(),
        diverged[0],
        bits[diverged[0]],
        fixture[diverged[0]],
    );
}

/// `tiny` with an 8-step time-discriminator window.
fn windowed() -> SpectraGanConfig {
    SpectraGanConfig {
        disc_time_window: 8,
        ..SpectraGanConfig::tiny()
    }
}

#[test]
fn golden_bits_one_thread() {
    let _g = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    check_or_record("golden_pr3", SpectraGanConfig::tiny(), 1);
}

#[test]
fn golden_bits_four_threads() {
    let _g = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    check_or_record("golden_pr3", SpectraGanConfig::tiny(), 4);
}

#[test]
fn golden_window_bits_one_thread() {
    let _g = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    check_or_record("golden_window8", windowed(), 1);
}

#[test]
fn golden_window_bits_four_threads() {
    let _g = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    check_or_record("golden_window8", windowed(), 4);
}
