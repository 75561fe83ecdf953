//! The paper's central claim as a gate. Table 2 ranks SpectraGAN first
//! among the generative models on M-TV and AC-L1; this test trains it
//! and the DoppelGANger, Conv{3D+LSTM} and Pix2Pix baselines through
//! the §4.1 leave-one-city-out protocol on the synthetic Country 1 and
//! requires the same ranking:
//!
//! * AC-L1: SpectraGAN is first in every fold, by a margin;
//! * M-TV: SpectraGAN is first on the fold mean.
//!
//! SSIM and TSTR are not gated: the paper does not rank SpectraGAN
//! first on them either.
//!
//! The gates come from the spread of the ratios over six dataset seeds
//! (EXPERIMENTS.md, "Fidelity gate"); `margin_sweep` re-measures it. The budget keeps the gate under a minute in release; debug
//! builds skip it.
//!
//! ```text
//! cargo test --release -p spectragan-bench --test paper_shape
//! cargo test --release -p spectragan-bench --test paper_shape -- --ignored --nocapture
//! ```

use spectragan_bench::{leave_one_out, FoldResult, ModelKind, Scale};
use spectragan_geo::City;
use spectragan_synthdata::{country1_configs, generate_city, generate_city_variant};

/// Training steps per model.
const STEPS: usize = 100;
/// Leave-one-out folds (CITY A and CITY B held out in turn).
const FOLDS: usize = 2;
/// Every fold: best baseline AC-L1 ≥ `AC_L1_RATIO` × SpectraGAN's. Over
/// dataset seeds 0–5 the ratio read 2.21–3.93 (12 folds); a model
/// without the spectral path reads about 1.0.
const AC_L1_RATIO: f64 = 1.5;
/// Fold mean: best baseline M-TV > `M_TV_RATIO` × SpectraGAN's. Over
/// dataset seeds 0–5 the ratio read 0.94–1.94 (1.94 at seed 0), too
/// wide a spread to demand more than the rank itself.
const M_TV_RATIO: f64 = 1.0;

fn scale() -> Scale {
    Scale {
        train_steps: STEPS,
        max_folds: FOLDS,
        ..Scale::fast()
    }
}

/// Country 1 and its DATA-reference realizations, each city's seed
/// offset by `dataset_seed` (0 is the committed corpus).
fn country(dataset_seed: u64, scale: &Scale) -> (Vec<City>, Vec<City>) {
    let ds = scale.dataset();
    let configs: Vec<_> = country1_configs()
        .into_iter()
        .map(|mut c| {
            c.seed ^= dataset_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            c
        })
        .collect();
    let cities = configs.iter().map(|c| generate_city(c, &ds)).collect();
    let reference = configs
        .iter()
        .map(|c| generate_city_variant(c, &ds, 0xDA7A))
        .collect();
    (cities, reference)
}

const BASELINES: [ModelKind; 3] = [
    ModelKind::DoppelGanger,
    ModelKind::Conv3dLstm,
    ModelKind::Pix2Pix,
];

/// The ranked ratios of one run: per fold, best baseline AC-L1 over
/// the candidate's, and best baseline fold-mean M-TV over the
/// candidate's. A ratio above 1 ranks the candidate first.
struct Ratios {
    ac_l1: Vec<(String, f64)>,
    m_tv_mean: f64,
}

fn ratios(candidate: ModelKind, results: &[FoldResult]) -> Ratios {
    let metric = |city: Option<&str>, model: ModelKind, f: fn(&FoldResult) -> f64| {
        let rows: Vec<f64> = results
            .iter()
            .filter(|r| r.model == model.name() && city.is_none_or(|c| r.test_city == c))
            .map(f)
            .collect();
        assert!(!rows.is_empty(), "no {} rows", model.name());
        rows.iter().sum::<f64>() / rows.len() as f64
    };
    let best = |city: Option<&str>, f: fn(&FoldResult) -> f64| {
        BASELINES
            .iter()
            .map(|&b| metric(city, b, f))
            .fold(f64::INFINITY, f64::min)
    };
    let mut cities: Vec<&str> = results.iter().map(|r| r.test_city.as_str()).collect();
    cities.dedup();
    let ac = |r: &FoldResult| r.metrics.ac_l1;
    let tv = |r: &FoldResult| r.metrics.m_tv;
    Ratios {
        ac_l1: cities
            .iter()
            .map(|&c| {
                let ratio = best(Some(c), ac) / metric(Some(c), candidate, ac);
                (c.to_string(), ratio)
            })
            .collect(),
        m_tv_mean: best(None, tv) / metric(None, candidate, tv),
    }
}

fn run(candidate: ModelKind, dataset_seed: u64) -> Ratios {
    let scale = scale();
    let (cities, reference) = country(dataset_seed, &scale);
    let mut kinds = vec![candidate];
    kinds.extend(BASELINES);
    let results = leave_one_out(&cities, &reference, &kinds, &scale, false);
    ratios(candidate, &results)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "trains five models; run in release")]
fn spectragan_ranks_first_on_ac_l1_and_m_tv() {
    let r = run(ModelKind::SpectraGan, 0);
    assert_eq!(r.ac_l1.len(), FOLDS);
    for (city, ratio) in &r.ac_l1 {
        assert!(
            *ratio >= AC_L1_RATIO,
            "{city}: best baseline AC-L1 is {ratio:.3}× SpectraGAN's, below the {AC_L1_RATIO} gate"
        );
    }
    assert!(
        r.m_tv_mean > M_TV_RATIO,
        "fold-mean best baseline M-TV is {:.3}× SpectraGAN's, not above the {M_TV_RATIO} gate",
        r.m_tv_mean
    );
}

/// Prints the gated ratios over dataset seeds 0–5, the spread the
/// margins above are set from.
#[test]
#[ignore = "six gate runs; re-measures the margins"]
fn margin_sweep() {
    for seed in 0..6 {
        let r = run(ModelKind::SpectraGan, seed);
        let ac: Vec<String> = r.ac_l1.iter().map(|(c, x)| format!("{c} {x:.3}")).collect();
        println!(
            "dataset seed {seed}: AC-L1 ratio [{}], M-TV mean ratio {:.3}",
            ac.join(", "),
            r.m_tv_mean
        );
    }
}
