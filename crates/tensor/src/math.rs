//! The `f32` `exp`, `tanh` and logistic `sigmoid` behind every
//! activation in the workspace, written here instead of borrowed from
//! the C library.
//!
//! Each function widens its argument to `f64`, evaluates there and
//! rounds to `f32` once. On all 2^32 inputs the result equals the
//! `f64` libm value rounded to `f32` (`tests/math.rs` checks a sample
//! in the normal suite and every input in an ignored test), so the
//! output bits are the same on every host. The evaluation uses only
//! IEEE `+ − × ÷`, bit operations and compare-selects: no libm call, no
//! fused multiply-add (Rust never contracts `a * b + c`), and no branch
//! on the argument. A loop over a slice therefore lowers to packed
//! instructions, and [`tanh_slice`] and [`sigmoid_slice`] are
//! `#[inline(always)]` so that a kernel's AVX2 entry compiles them with
//! its own features. Every entry computes the same bits.
//!
//! The core is `e^y = 2^k · (1 + p(r))`:
//!
//! * `k = round(y·log₂e)`, by adding and subtracting `1.5·2^52`;
//! * `r = (y − k·ln2_hi) − k·ln2_lo`, so `|r| ≤ ln2/2`, where
//!   `k·ln2_hi` and the first subtraction are exact;
//! * `p(r)` is the degree-12 Taylor polynomial of `e^r − 1`;
//! * `2^k` is built from exponent bits.
//!
//! Then `exp(x) = 2^k·(1 + p)`, `tanh(x) = sign(x)·m/(m + 2)` with
//! `m = e^{2|x|} − 1 = 2^k·p + (2^k − 1)`, and
//! `sigmoid(x) = 1/(1 + e^{−x})`. The argument is clamped to
//! `±CLAMP`, past which every result has saturated in `f32`; the clamp
//! is a compare-select, so NaN passes through to a NaN result.

const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// `ln 2` split so that `k·LN2_HI` is exact for `|k| < 2^21`.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
/// `1.5·2^52`: adding it rounds a small `f64` to an integer, which then
/// sits in the low mantissa bits.
const SHIFT: f64 = 6_755_399_441_055_744.0;
/// `e^110` overflows `f32` and `e^−110` underflows it, as do the tanh
/// and sigmoid expressions built on them.
const CLAMP: f64 = 110.0;

/// `1/n!` for `n = 1..=12`, each rounded once (`n!` is exact in `f64`).
const INV_FACT: [f64; 12] = {
    let mut c = [0.0; 12];
    let mut fact = 1.0;
    let mut n = 0;
    while n < 12 {
        fact *= (n + 1) as f64;
        c[n] = 1.0 / fact;
        n += 1;
    }
    c
};

/// `(2^k, e^r − 1)` with `e^y = 2^k·(1 + (e^r − 1))`, `y` clamped.
#[inline(always)]
fn exp_parts(y: f64) -> (f64, f64) {
    let y = if y > CLAMP { CLAMP } else { y };
    let y = if y < -CLAMP { -CLAMP } else { y };
    let t = y * LOG2_E + SHIFT;
    let k = t - SHIFT;
    let r = (y - k * LN2_HI) - k * LN2_LO;
    // `t.to_bits()` is `SHIFT.to_bits() + k` and `SHIFT`'s low 12 bits
    // are clear, so keeping those 12 bits of `+ 1023` is `k + 1023`.
    let two_k = f64::from_bits(t.to_bits().wrapping_add(1023) << 52);
    // Σ_{n=1..12} r^n/n! = r·q(r), q evaluated by Estrin's scheme: a
    // shallower dependency chain than Horner's, for the short slices of
    // one LSTM row.
    let c = &INV_FACT;
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let b0 = (c[0] + c[1] * r) + (c[2] + c[3] * r) * r2;
    let b1 = (c[4] + c[5] * r) + (c[6] + c[7] * r) * r2;
    let b2 = (c[8] + c[9] * r) + (c[10] + c[11] * r) * r2;
    (two_k, r * ((b0 + b1 * r4) + b2 * r8))
}

/// `e^x`, correctly rounded (see the module docs).
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    let (two_k, p) = exp_parts(f64::from(x));
    (two_k * (1.0 + p)) as f32
}

/// `tanh(x)`, correctly rounded; odd, so `tanh(−0) = −0`.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let (two_k, p) = exp_parts(2.0 * f64::from(x.abs()));
    let m = two_k * p + (two_k - 1.0);
    let t = (m / (m + 2.0)) as f32;
    f32::from_bits(t.to_bits() | (x.to_bits() & 0x8000_0000))
}

/// The logistic sigmoid `1/(1 + e^{−x})`, correctly rounded.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    let (two_k, p) = exp_parts(-f64::from(x));
    (1.0 / (1.0 + two_k * (1.0 + p))) as f32
}

/// [`tanh`] in place over a slice.
#[inline(always)]
pub fn tanh_slice(y: &mut [f32]) {
    for v in y {
        *v = tanh(*v);
    }
}

/// [`sigmoid`] in place over a slice.
#[inline(always)]
pub fn sigmoid_slice(y: &mut [f32]) {
    for v in y {
        *v = sigmoid(*v);
    }
}
