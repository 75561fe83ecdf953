//! Property-based tests for the spatial substrate.

use proptest::prelude::*;
use spectragan_geo::{ContextMap, GridSpec, PatchLayout, PatchSpec, TrafficMap};
use spectragan_tensor::Tensor;

proptest! {
    /// Sliding-window positions cover every pixel for any grid at
    /// least one patch large, for any stride.
    #[test]
    fn layout_covers_grid(h in 8usize..30, w in 8usize..30, stride in 1usize..8) {
        let spec = PatchSpec::new(8, 16, stride);
        let layout = PatchLayout::new(GridSpec::new(h, w), spec);
        let mut covered = vec![false; h * w];
        for &(y, x) in layout.positions() {
            prop_assert!(y + 8 <= h && x + 8 <= w, "patch exits the grid");
            for dy in 0..8 {
                for dx in 0..8 {
                    covered[(y + dy) * w + (x + dx)] = true;
                }
            }
        }
        prop_assert!(covered.iter().all(|&c| c));
    }

    /// Extract-then-sew is the identity on any traffic map (every
    /// generated value for a pixel equals the original).
    #[test]
    fn extract_sew_identity(h in 8usize..20, w in 8usize..20, t in 1usize..6, stride in 1usize..8, seed in 0u64..100) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..t * h * w).map(|_| rand::Rng::gen_range(&mut rng, 0.0..1.0)).collect();
        let map = TrafficMap::from_vec(data, t, h, w);
        let layout = PatchLayout::new(map.grid(), PatchSpec::new(8, 16, stride));
        let patches: Vec<Tensor> = layout
            .positions()
            .to_vec()
            .into_iter()
            .map(|pos| layout.extract_traffic(&map, pos, 0, t))
            .collect();
        let sewn = layout.sew(&patches);
        for (a, b) in sewn.data().iter().zip(map.data()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    /// Streaming sew (push patches one at a time, drop immediately) is
    /// bit-identical to batch sew for any overlap regime — stride 8
    /// (none), 4 (2×) and 2 (4×) — and any patch length, including odd
    /// lengths that do not divide the batch sizes generation uses.
    #[test]
    fn streaming_sew_bitwise_equals_batch(
        h in 8usize..24,
        w in 8usize..24,
        t in 1usize..9,
        stride_sel in 0usize..3,
        seed in 0u64..100,
    ) {
        use rand::SeedableRng;
        let stride = [8usize, 4, 2][stride_sel];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let layout = PatchLayout::new(GridSpec::new(h, w), PatchSpec::new(8, 16, stride));
        let patches: Vec<Tensor> = (0..layout.positions().len())
            .map(|_| {
                let data: Vec<f32> =
                    (0..t * 64).map(|_| rand::Rng::gen_range(&mut rng, -2.0..2.0)).collect();
                Tensor::from_vec(data, [t, 8, 8])
            })
            .collect();
        let batch = layout.sew(&patches);
        let mut acc = layout.sew_accumulator(t);
        for p in &patches {
            acc.push(p);
        }
        let streamed = acc.finish();
        prop_assert_eq!(batch.data(), streamed.data());
    }

    /// Context extraction agrees with the map inside bounds and is zero
    /// outside, for every layout position and one arbitrary position,
    /// which may put the window partly or wholly outside the city.
    #[test]
    fn context_padding_is_exact(h in 8usize..16, w in 8usize..16, seed in 0u64..50, (ey, ex) in (0usize..40, 0usize..40)) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ctx = ContextMap::zeros(3, h, w);
        for v in ctx.data_mut() {
            *v = rand::Rng::gen_range(&mut rng, -1.0..1.0f32);
        }
        let spec = PatchSpec::new(8, 16, 4);
        let layout = PatchLayout::new(GridSpec::new(h, w), spec);
        for &(py, px) in layout.positions().iter().chain([(ey, ex)].iter()) {
            let patch = layout.extract_context(&ctx, (py, px));
            let m = spec.margin() as isize;
            for ch in 0..3 {
                for dy in 0..16usize {
                    for dx in 0..16usize {
                        let sy = py as isize - m + dy as isize;
                        let sx = px as isize - m + dx as isize;
                        let got = patch.at(&[ch, dy, dx]);
                        if sy >= 0 && sx >= 0 && (sy as usize) < h && (sx as usize) < w {
                            prop_assert_eq!(got, ctx.at(ch, sy as usize, sx as usize));
                        } else {
                            prop_assert_eq!(got, 0.0);
                        }
                    }
                }
            }
        }
    }

    /// Time aggregation conserves total traffic over complete groups.
    #[test]
    fn aggregation_conserves_mass(t in 4usize..24, k in 1usize..5, seed in 0u64..50) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..t * 4).map(|_| rand::Rng::gen_range(&mut rng, 0.0..1.0)).collect();
        let map = TrafficMap::from_vec(data, t, 2, 2);
        let agg = map.aggregate_time(k);
        let groups = t / k;
        let mass_in: f32 = map.data()[..groups * k * 4].iter().sum();
        let mass_out: f32 = agg.data().iter().sum();
        prop_assert!((mass_in - mass_out).abs() < 1e-3 * mass_in.max(1.0));
    }

    /// Peak normalization brings any non-zero map into [0, 1] with max
    /// exactly 1.
    #[test]
    fn normalization_bounds(t in 1usize..5, seed in 0u64..50) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..t * 9).map(|_| rand::Rng::gen_range(&mut rng, 0.0..10.0)).collect();
        prop_assume!(data.iter().any(|&v| v > 0.0));
        let mut map = TrafficMap::from_vec(data, t, 3, 3);
        map.normalize_peak();
        let max = map.data().iter().cloned().fold(0.0f32, f32::max);
        prop_assert!((max - 1.0).abs() < 1e-6);
        prop_assert!(map.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
