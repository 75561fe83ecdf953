//! The generator at paper scale (`default_hourly`, k = 2: two weeks of
//! 336 hourly steps) under both kernel backends: the simd backend's
//! conv and matmul kernels keep its output within 1e-4 of the scalar
//! reference (the rollout and its activations are shared). (Per-backend thread-count invariance is checked
//! by `crates/nn/tests/rollout.rs` and, for whole generations, by the
//! suite's own runs under each backend.)

use rand::rngs::StdRng;
use rand::SeedableRng;
use spectragan_core::model::Generator;
use spectragan_core::SpectraGanConfig;
use spectragan_nn::{ParamStore, Tensor};
use spectragan_tensor::{set_backend, BackendKind};

#[test]
fn simd_stays_within_1e4_of_scalar_over_two_weeks() {
    let cfg = SpectraGanConfig::default_hourly();
    let k = 2;
    let mut rng = StdRng::seed_from_u64(21);
    let mut store = ParamStore::new();
    let gen = Generator::new(cfg, &mut store, &mut rng);
    let side = cfg.patch_context();
    let ctx = Tensor::randn([1, cfg.context_channels, side, side], &mut rng);
    let t = cfg.patch_traffic;
    let z = Tensor::randn([1, cfg.noise_dim, t, t], &mut rng);
    let infer = |backend| {
        set_backend(Some(backend));
        let out = gen.infer(&store, &ctx, &z, k);
        set_backend(None);
        out
    };
    let scalar = infer(BackendKind::Scalar);
    let simd = infer(BackendKind::Simd);
    let steps = k * cfg.train_len;
    assert_eq!(scalar.shape().dims(), &[t * t, steps]);
    assert_eq!(scalar.shape(), simd.shape());
    let max_abs = scalar
        .data()
        .iter()
        .zip(simd.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    eprintln!("simd vs scalar over {steps} steps: max |Δ| = {max_abs:e}");
    assert!(
        max_abs < 1e-4,
        "simd generator output is {max_abs:e} from scalar over {steps} steps"
    );
}
