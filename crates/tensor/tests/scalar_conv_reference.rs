//! Bit-for-bit equality of the conv kernels with the historical loop
//! nests they replaced.
//!
//! The kernels' contract is the per-element summation order of the
//! original kernels, not their loop structure. The three reference
//! functions below are those original loop nests, kept verbatim (run
//! tile by tile on one thread), and every property compares the bits
//! of the kernels' output against them: same operands, same order,
//! same `+0.0` start. Inputs are seeded with `±0.0`, `±inf` and NaN,
//! whose results depend on order and sign where finite data may not.
//! NaN payloads are not compared — the compiler may commute the
//! operands of a multiply, which only ever changes a NaN's payload.
//!
//! The golden fixtures only reach the tiny model's shapes; these
//! properties cover ragged shapes, padding at least as wide as the
//! kernel, kernels that just fit the padded input, and calls on both
//! sides of the pool's serial cutoff at 1, 2 and 4 threads. The forward
//! pass and the input gradient are compiled twice, a baseline entry and
//! an AVX2 one; the public calls run the one the CPU supports, and
//! `both_entries_match_the_historical_loop_nests` holds each to the
//! loop nests.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spectragan_tensor::{conv2d_grad_input_per_entry, conv2d_per_entry, pool, Tensor};

/// `pool::set_threads` is process-global; serialize the sweeps.
static POOL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

const THREADS: [usize; 3] = [1, 2, 4];

/// The historical forward loop nest, one output plane per tile.
fn reference_conv2d(input: &Tensor, weight: &Tensor, pad: usize) -> Tensor {
    let (n, cin, h, w) = dims4(input);
    let (cout, _, kh, kw) = dims4(weight);
    let (oh, ow) = (h + 2 * pad - kh + 1, w + 2 * pad - kw + 1);
    let mut out = Tensor::zeros([n, cout, oh, ow]);
    if out.numel() == 0 {
        return out;
    }
    for (tile, plane) in out.data_mut().chunks_mut(oh * ow).enumerate() {
        let b = tile / cout;
        let oc = tile % cout;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ic in 0..cin {
                    for ky in 0..kh {
                        let iy = oy + ky;
                        if iy < pad || iy - pad >= h {
                            continue;
                        }
                        let iy = iy - pad;
                        let in_base = ((b * cin + ic) * h + iy) * w;
                        let w_base = ((oc * cin + ic) * kh + ky) * kw;
                        for kx in 0..kw {
                            let ix = ox + kx;
                            if ix < pad || ix - pad >= w {
                                continue;
                            }
                            acc += input.data()[in_base + (ix - pad)] * weight.data()[w_base + kx];
                        }
                    }
                }
                plane[oy * ow + ox] = acc;
            }
        }
    }
    out
}

/// The historical input-gradient loop nest, one input plane per tile.
fn reference_grad_input(grad_out: &Tensor, weight: &Tensor, input: &Tensor, pad: usize) -> Tensor {
    let (_, cin, h, w) = dims4(input);
    let (_, cout, oh, ow) = dims4(grad_out);
    let (_, _, kh, kw) = dims4(weight);
    let mut grad_in = Tensor::zeros(input.shape().clone());
    if grad_in.numel() == 0 {
        return grad_in;
    }
    for (tile, plane) in grad_in.data_mut().chunks_mut(h * w).enumerate() {
        let b = tile / cin;
        let ic = tile % cin;
        for oc in 0..cout {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_out.data()[((b * cout + oc) * oh + oy) * ow + ox];
                    for ky in 0..kh {
                        let iy = oy + ky;
                        if iy < pad || iy - pad >= h {
                            continue;
                        }
                        let row = (iy - pad) * w;
                        let w_base = ((oc * cin + ic) * kh + ky) * kw;
                        for kx in 0..kw {
                            let ix = ox + kx;
                            if ix < pad || ix - pad >= w {
                                continue;
                            }
                            plane[row + (ix - pad)] += g * weight.data()[w_base + kx];
                        }
                    }
                }
            }
        }
    }
    grad_in
}

/// The historical weight-gradient loop nest, one kernel per tile.
fn reference_grad_weight(grad_out: &Tensor, input: &Tensor, weight: &Tensor, pad: usize) -> Tensor {
    let (n, cin, h, w) = dims4(input);
    let (_, cout, oh, ow) = dims4(grad_out);
    let (_, _, kh, kw) = dims4(weight);
    let mut grad_w = Tensor::zeros(weight.shape().clone());
    if grad_w.numel() == 0 {
        return grad_w;
    }
    for (oc, kernel) in grad_w.data_mut().chunks_mut(cin * kh * kw).enumerate() {
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_out.data()[((b * cout + oc) * oh + oy) * ow + ox];
                    for ic in 0..cin {
                        for ky in 0..kh {
                            let iy = oy + ky;
                            if iy < pad || iy - pad >= h {
                                continue;
                            }
                            let iy = iy - pad;
                            let in_base = ((b * cin + ic) * h + iy) * w;
                            let k_base = (ic * kh + ky) * kw;
                            for kx in 0..kw {
                                let ix = ox + kx;
                                if ix < pad || ix - pad >= w {
                                    continue;
                                }
                                kernel[k_base + kx] += g * input.data()[in_base + (ix - pad)];
                            }
                        }
                    }
                }
            }
        }
    }
    grad_w
}

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    let s = t.shape();
    (s.dim(0), s.dim(1), s.dim(2), s.dim(3))
}

/// One conv call's geometry: `(n, cin, cout, h, w, kh, kw, pad)`.
type Geometry = (usize, usize, usize, usize, usize, usize, usize, usize);

/// Normal draws with roughly one element in `1/special_rate` replaced
/// by `±0.0`, `±inf` or NaN (`special_rate == 0` keeps them finite).
fn seeded(shape: [usize; 4], special_rate: u32, rng: &mut StdRng) -> Tensor {
    const SPECIALS: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let mut t = Tensor::randn(shape, rng);
    if special_rate > 0 {
        for v in t.data_mut() {
            if rng.gen_range(0..special_rate) == 0 {
                *v = SPECIALS[rng.gen_range(0..SPECIALS.len())];
            }
        }
    }
    t
}

/// Bitwise equality, except that any NaN equals any NaN.
fn bit_mismatch(got: &Tensor, want: &Tensor) -> Option<(usize, f32, f32)> {
    assert_eq!(got.shape(), want.shape());
    got.data()
        .iter()
        .zip(want.data())
        .position(|(a, b)| a.to_bits() != b.to_bits() && !(a.is_nan() && b.is_nan()))
        .map(|i| (i, got.data()[i], want.data()[i]))
}

/// Runs all three kernels at every thread count in [`THREADS`] against
/// the references; returns a description of the first mismatch.
fn check(geometry: Geometry, special_rate: u32, seed: u64) -> Result<(), String> {
    let (n, cin, cout, h, w, kh, kw, pad) = geometry;
    let (oh, ow) = (h + 2 * pad - kh + 1, w + 2 * pad - kw + 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let input = seeded([n, cin, h, w], special_rate, &mut rng);
    let weight = seeded([cout, cin, kh, kw], special_rate, &mut rng);
    let grad_out = seeded([n, cout, oh, ow], special_rate, &mut rng);
    let want = [
        reference_conv2d(&input, &weight, pad),
        reference_grad_input(&grad_out, &weight, &input, pad),
        reference_grad_weight(&grad_out, &input, &weight, pad),
    ];
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut outcome = Ok(());
    for threads in THREADS {
        pool::set_threads(Some(threads));
        let got = [
            input.conv2d(&weight, pad),
            Tensor::conv2d_grad_input(&grad_out, &weight, input.shape(), pad),
            Tensor::conv2d_grad_weight(&grad_out, &input, weight.shape(), pad),
        ];
        let names = ["conv2d", "conv2d_grad_input", "conv2d_grad_weight"];
        for ((name, got), want) in names.iter().zip(&got).zip(&want) {
            if let Some((i, a, b)) = bit_mismatch(got, want) {
                outcome = Err(format!(
                    "{name} at {geometry:?}, threads={threads}, special_rate={special_rate}: \
                     element {i} is {a:e} ({:#010x}), reference {b:e} ({:#010x})",
                    a.to_bits(),
                    b.to_bits()
                ));
            }
        }
        if outcome.is_err() {
            break;
        }
    }
    pool::set_threads(None);
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn scalar_conv_kernels_match_the_historical_loop_nests(
        (n, cin, cout) in (1usize..=3, 1usize..=8, 1usize..=8),
        (h, w) in (1usize..=12, 1usize..=12),
        (kh, kw, pad) in (1usize..=5, 1usize..=5, 0usize..=2),
        special_rate in 0u32..3,
        seed in 0u64..1_000_000,
    ) {
        prop_assume!(h + 2 * pad >= kh && w + 2 * pad >= kw);
        let special_rate = [0, 64, 6][special_rate as usize];
        let r = check((n, cin, cout, h, w, kh, kw, pad), special_rate, seed);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

/// Every small geometry where padding is at least as wide as the
/// kernel or the kernel just fits the padded input (`h + 2·pad == kh`),
/// including empty input planes, with non-finite inputs.
#[test]
fn edge_geometries_match_the_historical_loop_nests() {
    let mut seed = 0u64;
    for pad in 0..=2usize {
        for (h, w) in [(1usize, 1usize), (1, 3), (2, 1), (3, 2), (0, 2), (2, 0)] {
            for kh in 1..=5usize {
                for kw in 1..=5usize {
                    let fits = h + 2 * pad >= kh && w + 2 * pad >= kw;
                    let edge = pad >= kh.min(kw) || h + 2 * pad == kh || w + 2 * pad == kw;
                    if !fits || !edge {
                        continue;
                    }
                    seed += 1;
                    check((2, 3, 2, h, w, kh, kw, pad), 4, seed).unwrap();
                }
            }
        }
    }
}

/// Calls large enough to leave the pool's serial cutoff, so the tiles
/// really spread over 2 and 4 threads.
#[test]
fn parallel_calls_match_the_historical_loop_nests() {
    for geometry in [(3, 8, 8, 16, 16, 5, 5, 2), (3, 12, 12, 21, 15, 3, 3, 1)] {
        let (n, cin, cout, h, w, kh, kw, pad) = geometry;
        let (oh, ow) = (h + 2 * pad - kh + 1, w + 2 * pad - kw + 1);
        assert!(n * cout * oh * ow * cin * kh * kw >= pool::MIN_PARALLEL_MACS);
        for (seed, special_rate) in [(1, 0), (2, 64)] {
            check(geometry, special_rate, seed).unwrap();
        }
    }
}

/// The baseline and the AVX2 entry of the forward pass and the input
/// gradient, each against the loop nests, on random geometries (wide
/// padding and non-finite values included) at one thread. Without AVX2
/// the baseline entry is checked alone.
#[test]
fn both_entries_match_the_historical_loop_nests() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pool::set_threads(Some(1));
    let mut rng = StdRng::seed_from_u64(0xe47);
    let mut cases = 0;
    while cases < 200 {
        let (kh, kw, pad) = (
            rng.gen_range(1..=5),
            rng.gen_range(1..=5),
            rng.gen_range(0..=3),
        );
        let (h, w) = (rng.gen_range(0..=9), rng.gen_range(0..=9));
        if h + 2 * pad < kh || w + 2 * pad < kw {
            continue;
        }
        cases += 1;
        let (n, cin, cout) = (
            rng.gen_range(1..=2),
            rng.gen_range(1..=9),
            rng.gen_range(1..=6),
        );
        let special_rate = [0, 32, 5][cases % 3];
        let geometry = (n, cin, cout, h, w, kh, kw, pad);
        let (oh, ow) = (h + 2 * pad - kh + 1, w + 2 * pad - kw + 1);
        let input = seeded([n, cin, h, w], special_rate, &mut rng);
        let weight = seeded([cout, cin, kh, kw], special_rate, &mut rng);
        let grad_out = seeded([n, cout, oh, ow], special_rate, &mut rng);
        let fwd = reference_conv2d(&input, &weight, pad);
        let gi = reference_grad_input(&grad_out, &weight, &input, pad);
        let got_fwd = conv2d_per_entry(&input, &weight, pad);
        let got_gi = conv2d_grad_input_per_entry(&grad_out, &weight, input.shape(), pad);
        for (name, want, got) in [
            ("conv2d", &fwd, got_fwd),
            ("conv2d_grad_input", &gi, got_gi),
        ] {
            for (entry, got) in got {
                if let Some((i, a, b)) = bit_mismatch(&got, want) {
                    panic!(
                        "{name}, {entry} entry, at {geometry:?}, special_rate={special_rate}: \
                         element {i} is {a:e}, reference {b:e}"
                    );
                }
            }
        }
    }
    pool::set_threads(None);
}
