//! `spectragan_tensor::math` against the `f64` libm result rounded to
//! `f32`, which is what "correctly rounded" means here.
//!
//! The normal suite checks a strided sample of all bit patterns and the
//! special values. The ignored `exhaustive_*` tests check every one of
//! the 2^32 inputs (about 40 s per function on two threads):
//!
//! ```text
//! cargo test --release -p spectragan-tensor --test math -- --ignored
//! ```

use spectragan_tensor::math;
use spectragan_tensor::pool;

fn ref_exp(x: f32) -> f32 {
    f64::from(x).exp() as f32
}

fn ref_tanh(x: f32) -> f32 {
    f64::from(x).tanh() as f32
}

fn ref_sigmoid(x: f32) -> f32 {
    (1.0 / (1.0 + (-f64::from(x)).exp())) as f32
}

type F = fn(f32) -> f32;

const FUNCTIONS: [(&str, F, F); 3] = [
    ("exp", math::exp, ref_exp),
    ("tanh", math::tanh, ref_tanh),
    ("sigmoid", math::sigmoid, ref_sigmoid),
];

/// Equal bits, or both NaN.
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Mismatches over the bit patterns `start, start + stride, …` below
/// 2^32, split across the pool; returns the count and up to 5 examples.
fn mismatches(f: F, reference: F, stride: u64) -> (u64, Vec<(f32, f32, f32)>) {
    const CHUNKS: u64 = 256;
    let per_chunk = (1u64 << 32) / CHUNKS;
    let parts = pool::par_map(CHUNKS as usize, |c| {
        let lo = c as u64 * per_chunk;
        let first = lo.div_ceil(stride) * stride;
        let mut count = 0u64;
        let mut examples = Vec::new();
        for bits in (first..lo + per_chunk).step_by(stride as usize) {
            let x = f32::from_bits(bits as u32);
            let (got, want) = (f(x), reference(x));
            if !same(got, want) {
                count += 1;
                if examples.len() < 5 {
                    examples.push((x, got, want));
                }
            }
        }
        (count, examples)
    });
    let count = parts.iter().map(|p| p.0).sum();
    let examples = parts.into_iter().flat_map(|p| p.1).take(5).collect();
    (count, examples)
}

fn assert_no_mismatch(name: &str, f: F, reference: F, stride: u64) {
    let (count, examples) = mismatches(f, reference, stride);
    assert_eq!(
        count, 0,
        "{name}: {count} mismatches; (x, got, want) e.g. {examples:?}"
    );
}

#[test]
fn sampled_inputs_are_correctly_rounded() {
    // A prime stride visits every exponent and sign, ~430k inputs each.
    for (name, f, reference) in FUNCTIONS {
        assert_no_mismatch(name, f, reference, 10_007);
    }
}

#[test]
fn dense_range_is_correctly_rounded() {
    // Every activation's working range, densely.
    for (name, f, reference) in FUNCTIONS {
        for i in -200_000..=200_000 {
            let x = i as f32 * 1e-4;
            assert!(same(f(x), reference(x)), "{name}({x})");
        }
    }
}

#[test]
fn special_values() {
    for (name, f, _) in FUNCTIONS {
        assert!(f(f32::NAN).is_nan(), "{name}(NaN)");
        assert!(f(-f32::NAN).is_nan(), "{name}(-NaN)");
    }
    assert_eq!(math::tanh(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(math::tanh(-0.0).to_bits(), (-0.0f32).to_bits());
    assert_eq!(math::tanh(f32::INFINITY), 1.0);
    assert_eq!(math::tanh(f32::NEG_INFINITY), -1.0);
    assert_eq!(math::tanh(f32::MAX), 1.0);
    assert_eq!(math::tanh(f32::MIN_POSITIVE), f32::MIN_POSITIVE);
    assert_eq!(math::exp(0.0), 1.0);
    assert_eq!(math::exp(-0.0), 1.0);
    assert_eq!(math::exp(f32::INFINITY), f32::INFINITY);
    assert_eq!(math::exp(f32::NEG_INFINITY).to_bits(), 0);
    assert_eq!(math::exp(88.8), f32::INFINITY);
    assert_eq!(math::exp(88.7), ref_exp(88.7));
    assert_eq!(math::sigmoid(0.0), 0.5);
    assert_eq!(math::sigmoid(f32::INFINITY), 1.0);
    assert_eq!(math::sigmoid(f32::NEG_INFINITY).to_bits(), 0);
    assert_eq!(math::sigmoid(-200.0).to_bits(), 0);
    // Subnormal outputs round once, from the f64 value.
    for x in [-87.5f32, -95.0, -100.0, -103.0, -103.9] {
        for (name, got) in [("exp", math::exp(x)), ("sigmoid", math::sigmoid(x))] {
            assert!(got.is_subnormal(), "{name}({x}) = {got:e}");
        }
        assert_eq!(math::exp(x).to_bits(), ref_exp(x).to_bits(), "exp({x})");
        assert_eq!(
            math::sigmoid(x).to_bits(),
            ref_sigmoid(x).to_bits(),
            "sigmoid({x})"
        );
    }
    assert_eq!(math::exp(-104.0).to_bits(), 0);
}

#[test]
fn slice_helpers_match_the_scalar_functions() {
    let xs: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) * 0.037).collect();
    let mut t = xs.clone();
    let mut s = xs.clone();
    math::tanh_slice(&mut t);
    math::sigmoid_slice(&mut s);
    for ((&x, &tv), &sv) in xs.iter().zip(&t).zip(&s) {
        assert_eq!(tv.to_bits(), math::tanh(x).to_bits());
        assert_eq!(sv.to_bits(), math::sigmoid(x).to_bits());
    }
}

#[test]
#[ignore = "all 2^32 inputs; run in release"]
fn exhaustive_exp() {
    assert_no_mismatch("exp", math::exp, ref_exp, 1);
}

#[test]
#[ignore = "all 2^32 inputs; run in release"]
fn exhaustive_tanh() {
    assert_no_mismatch("tanh", math::tanh, ref_tanh, 1);
}

#[test]
#[ignore = "all 2^32 inputs; run in release"]
fn exhaustive_sigmoid() {
    assert_no_mismatch("sigmoid", math::sigmoid, ref_sigmoid, 1);
}
