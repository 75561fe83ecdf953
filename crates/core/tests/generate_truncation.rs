//! Generation synthesizes exactly the requested `t_out` steps, and
//! that is exact: the output is bit-identical to synthesizing the
//! whole `k = ceil(t_out / T)`-fold expansion and cutting it to
//! `t_out`, which is what generation did before.
//!
//! Both halves of the generator make this hold. The residual LSTM
//! starts from the zero state and step `j` reads only earlier steps,
//! so a `t_out`-step rollout is the prefix of a `k·T`-step one. The
//! spectral path multiplies by the first `t_out` columns of the
//! expanded basis, and the matmul sums each output element in an order
//! that does not depend on the column count.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spectragan_core::model::Generator;
use spectragan_core::{PreparedContext, SpectraGan, SpectraGanConfig, Variant};
use spectragan_geo::TrafficMap;
use spectragan_nn::{ParamStore, Tensor};
use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};
use spectragan_tensor::pool;
use std::sync::Mutex;

/// The thread override is process-global; serialize.
static LOCK: Mutex<()> = Mutex::new(());

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// `Generator::infer_steps(t_out)` equals `Generator::infer(k)` cut to
/// `t_out`, for every variant, at lengths on both sides of one and two
/// training periods, at 1 and 2 threads.
#[test]
fn t_out_steps_are_the_prefix_of_the_k_fold_generation() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let base = SpectraGanConfig::tiny();
    let t = base.train_len;
    for variant in [
        Variant::Full,
        Variant::SpecOnly,
        Variant::TimeOnly,
        Variant::TimeOnlyPlus,
        Variant::PixelContext,
    ] {
        let cfg = base.with_variant(variant);
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let gen = Generator::new(cfg, &mut store, &mut rng);
        let side = cfg.patch_context();
        let ctx = Tensor::randn([2, cfg.context_channels, side, side], &mut rng);
        let px = cfg.patch_traffic;
        let z = Tensor::randn([2, cfg.noise_dim, px, px], &mut rng);
        for threads in [1, 2] {
            pool::set_threads(Some(threads));
            for t_out in [1, t - 1, t, t + 1, 2 * t - 1, 2 * t] {
                let full = gen.infer(&store, &ctx, &z, t_out.div_ceil(t));
                let got = gen.infer_steps(&store, &ctx, &z, t_out);
                assert_eq!(got.shape().dims(), &[2 * px * px, t_out]);
                assert!(
                    bits(got.data()) == bits(full.narrow(1, 0, t_out).data()),
                    "{variant:?}, threads={threads}, t_out={t_out}"
                );
            }
        }
    }
    pool::set_threads(None);
}

/// Within one `k` band, a city generated at `t1` steps is the first
/// `t1` steps of the same city generated at `t2`, through both the
/// collecting and the streaming entry points.
#[test]
fn shorter_generation_is_a_prefix_within_one_k_band() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let model = SpectraGan::new(SpectraGanConfig::default_hourly(), 4);
    let ds = DatasetConfig {
        weeks: 1,
        steps_per_hour: 1,
        size_scale: 1.0,
    };
    let city = generate_city(
        &CityConfig {
            name: "P12".into(),
            height: 12,
            width: 14,
            seed: 8,
        },
        &ds,
    );
    let prepared = PreparedContext::new(&city.context);
    let collect = |t_out| {
        let (map, _) = model
            .try_generate_prepared_report(&prepared, t_out, 31, true, 3)
            .unwrap();
        map
    };
    let stream = |t_out| {
        let mut map = TrafficMap::zeros(t_out, city.context.height(), city.context.width());
        model
            .try_generate_stream(&prepared, t_out, 31, true, 3, &mut |band| {
                band.write_into(&mut map);
                true
            })
            .unwrap();
        map
    };
    pool::set_threads(Some(2));
    for (t1, t2) in [(24, 168), (169, 336)] {
        let long = collect(t2);
        let prefix = long.slice_time(0, t1);
        let short = collect(t1);
        assert_eq!(short.len_t(), t1);
        assert!(
            bits(short.data()) == bits(prefix.data()),
            "collected {t1} steps differ from the first {t1} of {t2}"
        );
        assert!(
            bits(stream(t1).data()) == bits(prefix.data()),
            "streamed {t1} steps differ from the first {t1} of {t2}"
        );
    }
    pool::set_threads(None);
}
