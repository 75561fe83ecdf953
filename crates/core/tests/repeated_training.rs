//! Repeated `SpectraGan::train` calls on the same cities reach a steady
//! state in the calling thread's buffer pool. Sample preparation runs
//! on the pool's workers, but the caller allocates every sample tensor,
//! so no buffer a worker allocated is returned to the caller's pool,
//! where no later call would take it back and the pool would grow with
//! every call.

use spectragan_core::{SpectraGan, SpectraGanConfig, TrainConfig};
use spectragan_geo::City;
use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};
use spectragan_tensor::{arena, pool};

fn tiny_city(seed: u64) -> City {
    let ds = DatasetConfig {
        weeks: 1,
        steps_per_hour: 1,
        size_scale: 0.36,
    };
    generate_city(
        &CityConfig {
            name: format!("RT{seed}"),
            height: 17,
            width: 17,
            seed,
        },
        &ds,
    )
}

#[test]
fn repeated_train_calls_keep_the_callers_pool_steady() {
    let cities = [tiny_city(3), tiny_city(4)];
    let tc = TrainConfig {
        steps: 2,
        batch_patches: 2,
        lr: 3e-3,
        seed: 11,
    };
    for threads in [1usize, 2] {
        pool::set_threads(Some(threads));
        arena::clear();
        let mut model = SpectraGan::new(SpectraGanConfig::tiny(), 0);
        let pooled: Vec<usize> = (0..3)
            .map(|_| {
                model.train(&cities, &tc).expect("training failed");
                arena::pooled_bytes()
            })
            .collect();
        pool::set_threads(None);
        assert_eq!(
            pooled[1], pooled[2],
            "{threads} threads: pooled bytes after each of three calls: {pooled:?}"
        );
    }
}
