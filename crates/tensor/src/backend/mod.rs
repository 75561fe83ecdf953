//! Backend-abstracted compute kernels for the conv2d and matmul
//! families.
//!
//! Every heavy kernel call in the workspace ([`Tensor::matmul`],
//! [`Tensor::conv2d`], the conv gradients and the two fused kernels)
//! funnels through the [`Backend`] trait, so `nn`, `core` and
//! `baselines` pick a kernel implementation up without call-site
//! changes:
//!
//! * [`scalar`] — the reference backend. Every output element is summed
//!   in the pre-backend kernels' order, so every golden fixture,
//!   checkpoint kill/resume artifact and determinism sweep recorded
//!   against them stays bit-identical.
//! * [`simd`] — im2col + cache-blocked GEMM with
//!   autovectorizer-friendly microkernel inner loops (plain indexed
//!   slices the compiler lowers to packed `f32` lanes; `std::arch`
//!   intrinsics can be slotted into the same microkernels later).
//!   Results agree with [`scalar`] to floating-point reassociation
//!   tolerance (≤ 1e-5 relative; see `tests/backend_parity.rs`), and
//!   are *themselves* bit-identical at any thread count — the
//!   determinism contract is per backend, not cross backend.
//!
//! Selection mirrors the `SPECTRAGAN_THREADS` pattern of
//! [`crate::pool`], in priority order:
//!
//! 1. [`set_backend`] (programmatic override, used by parity tests and
//!    the perf gate to sweep backends in-process),
//! 2. the `SPECTRAGAN_BACKEND` environment variable (`scalar` or
//!    `simd`; unrecognized values are ignored),
//! 3. the default, [`BackendKind::Scalar`] — the bit-exact contracts
//!    hold unless a faster backend is asked for explicitly.
//!
//! Shape validation happens once, in the dispatching `Tensor`/op entry
//! points (see [`conv2d_check`] / [`conv2d_out_shape`]), so kernels may
//! assume well-formed shapes and both backends reject malformed calls
//! with identical messages — including the zero-size-kernel case that
//! previously surfaced as a misleading subtraction overflow.

pub mod scalar;
pub mod simd;

use crate::ops::FusedAct;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Which kernel implementation the dispatch layer routes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Bit-exact reference kernels (the default).
    Scalar,
    /// im2col + cache-blocked GEMM kernels, tolerance-equal to scalar.
    Simd,
}

impl BackendKind {
    /// Stable lowercase name used in logs, spans and bench tables.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }

    /// Parses `SPECTRAGAN_BACKEND`-style names (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(BackendKind::Scalar),
            "simd" => Some(BackendKind::Simd),
            _ => None,
        }
    }
}

/// The kernel families a backend must provide. Implementations may
/// assume shapes were validated by the dispatching entry point.
///
/// The two fused methods have defaults composing the unfused kernel
/// with the shared bias/activation epilogues — exactly the composition
/// the scalar backend is contracted to (bit-equal to the historical
/// fused kernels); faster backends override them to fuse the epilogue
/// into the GEMM output pass. Activations are not a backend method:
/// every backend, and every epilogue, uses [`crate::math`].
pub trait Backend: Sync {
    /// Which [`BackendKind`] this is.
    fn kind(&self) -> BackendKind;

    /// `[m, k] @ [k, n] → [m, n]`.
    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor;

    /// `a @ bᵀ` for `a: [m, k]`, `b: [n, k]` → `[m, n]`. The backward
    /// pass's right-operand gradient shape; the default composes the
    /// materialized transpose with [`Backend::matmul`] exactly as the
    /// historical interpreter did, so the scalar backend stays
    /// bit-identical. Faster backends read `b`'s rows directly.
    fn matmul_bt(&self, a: &Tensor, b: &Tensor) -> Tensor {
        self.matmul(a, &b.transpose2())
    }

    /// `aᵀ @ b` for `a: [m, k]`, `b: [m, n]` → `[k, n]`. The backward
    /// pass's left-operand gradient shape; same contract as
    /// [`Backend::matmul_bt`].
    fn matmul_tb(&self, a: &Tensor, b: &Tensor) -> Tensor {
        self.matmul(&a.transpose2(), b)
    }

    /// Fused `act(a @ w + bias)` with `bias: [n]` broadcast over rows.
    fn matmul_bias_act(&self, a: &Tensor, w: &Tensor, bias: &Tensor, act: FusedAct) -> Tensor {
        let mut y = self.matmul(a, w);
        add_row_bias_inplace(&mut y, bias);
        crate::ops::apply_act_inplace(&mut y, act);
        y
    }

    /// 2-D cross-correlation, stride 1, zero padding `pad`.
    fn conv2d(&self, input: &Tensor, weight: &Tensor, pad: usize) -> Tensor;

    /// Fused `conv2d(input, weight, pad) + bias` with `bias: [Cout]`
    /// broadcast over channels.
    fn conv2d_bias(&self, input: &Tensor, weight: &Tensor, bias: &Tensor, pad: usize) -> Tensor {
        let mut y = self.conv2d(input, weight, pad);
        add_channel_bias_inplace(&mut y, bias);
        y
    }

    /// Gradient of `conv2d` w.r.t. the input.
    fn conv2d_grad_input(
        &self,
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &Shape,
        pad: usize,
    ) -> Tensor;

    /// Gradient of `conv2d` w.r.t. the weight.
    fn conv2d_grad_weight(
        &self,
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &Shape,
        pad: usize,
    ) -> Tensor;
}

/// The `SPECTRAGAN_BACKEND` knob, sharing the override/env/default
/// resolution contract of [`crate::envctl`]. [`BackendKind`] maps to
/// the knob's non-zero `usize` codes via [`BackendKind::code`].
static BACKEND: crate::envctl::EnvCtl = crate::envctl::EnvCtl::new("SPECTRAGAN_BACKEND");

impl BackendKind {
    /// The non-zero [`crate::envctl`] code for this backend.
    fn code(self) -> usize {
        match self {
            BackendKind::Scalar => 1,
            BackendKind::Simd => 2,
        }
    }

    /// Inverse of [`BackendKind::code`].
    fn from_code(code: usize) -> BackendKind {
        match code {
            1 => BackendKind::Scalar,
            2 => BackendKind::Simd,
            _ => unreachable!("envctl only stores codes minted by BackendKind::code"),
        }
    }
}

/// Overrides the backend for subsequent kernel calls. `Some(kind)`
/// forces that backend; `None` restores the environment/default
/// resolution. Mirrors [`crate::pool::set_threads`].
pub fn set_backend(kind: Option<BackendKind>) {
    BACKEND.set(kind.map(BackendKind::code));
}

/// The backend kernel calls will use right now: the [`set_backend`]
/// override, else `SPECTRAGAN_BACKEND`, else [`BackendKind::Scalar`].
/// The environment/default resolution is cached on first use (see
/// [`crate::envctl`]) — this runs on every dispatched kernel call.
pub fn kind() -> BackendKind {
    BackendKind::from_code(BACKEND.get(
        |s| BackendKind::parse(s).map(BackendKind::code),
        || BackendKind::Scalar.code(),
    ))
}

/// The active backend as a trait object (statics, so dispatch is one
/// relaxed atomic load plus a vtable call).
pub fn active() -> &'static dyn Backend {
    static SCALAR: scalar::ScalarBackend = scalar::ScalarBackend;
    static SIMD: simd::SimdBackend = simd::SimdBackend;
    match kind() {
        BackendKind::Scalar => &SCALAR,
        BackendKind::Simd => &SIMD,
    }
}

/// The validated geometry of one conv2d-family call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvDims {
    pub n: usize,
    pub cin: usize,
    pub h: usize,
    pub w: usize,
    pub cout: usize,
    pub kh: usize,
    pub kw: usize,
    pub oh: usize,
    pub ow: usize,
}

impl ConvDims {
    /// Multiply-adds of one conv2d-family call over this geometry
    /// (padded taps included), the size [`crate::pool`] cutoffs take.
    pub(crate) fn macs(&self) -> usize {
        [self.cout, self.oh, self.ow, self.cin, self.kh, self.kw]
            .iter()
            .fold(self.n, |acc, &d| acc.saturating_mul(d))
    }
}

/// Unpacks a rank-4 shape, with a contextual panic message.
pub(crate) fn dims4(s: &Shape, what: &str) -> (usize, usize, usize, usize) {
    assert_eq!(s.ndim(), 4, "{what} must be rank 4, got {s}");
    (s.dim(0), s.dim(1), s.dim(2), s.dim(3))
}

/// Validates the kernel dims shared by every conv2d entry point:
/// zero-size kernels are a documented shape error, not an arithmetic
/// underflow inside the output-extent computation.
fn check_kernel_nonempty(kh: usize, kw: usize) {
    assert!(
        kh > 0 && kw > 0,
        "conv2d kernel must have positive extent, got {kh}x{kw}"
    );
}

/// Validates a forward conv2d call and returns its geometry.
///
/// # Panics
/// Panics on rank/channel mismatches, zero-size kernels, or kernels
/// larger than the padded input.
pub(crate) fn conv2d_out_shape(input: &Shape, weight: &Shape, pad: usize) -> ConvDims {
    let (n, cin, h, w) = dims4(input, "conv2d input");
    let (cout, cin_w, kh, kw) = dims4(weight, "conv2d weight");
    assert_eq!(cin, cin_w, "conv2d channels: input {cin} vs weight {cin_w}");
    check_kernel_nonempty(kh, kw);
    let oh = (h + 2 * pad)
        .checked_sub(kh - 1)
        .expect("kernel taller than padded input");
    let ow = (w + 2 * pad)
        .checked_sub(kw - 1)
        .expect("kernel wider than padded input");
    ConvDims {
        n,
        cin,
        h,
        w,
        cout,
        kh,
        kw,
        oh,
        ow,
    }
}

/// Validates a grad-input call and returns its geometry.
pub(crate) fn conv2d_grad_input_dims(
    grad_out: &Shape,
    weight: &Shape,
    input_shape: &Shape,
    _pad: usize,
) -> ConvDims {
    let (n, cout, oh, ow) = dims4(grad_out, "conv2d grad_out");
    let (cout_w, cin, kh, kw) = dims4(weight, "conv2d weight");
    assert_eq!(cout, cout_w, "conv2d grad channels mismatch");
    check_kernel_nonempty(kh, kw);
    assert_eq!(input_shape.dim(0), n, "conv2d grad batch mismatch");
    assert_eq!(input_shape.dim(1), cin, "conv2d grad channel mismatch");
    ConvDims {
        n,
        cin,
        h: input_shape.dim(2),
        w: input_shape.dim(3),
        cout,
        kh,
        kw,
        oh,
        ow,
    }
}

/// Validates a grad-weight call and returns its geometry.
pub(crate) fn conv2d_grad_weight_dims(
    grad_out: &Shape,
    input: &Shape,
    weight_shape: &Shape,
    _pad: usize,
) -> ConvDims {
    let (n, cout, oh, ow) = dims4(grad_out, "conv2d grad_out");
    let (n_i, cin, h, w) = dims4(input, "conv2d input");
    assert_eq!(n, n_i, "conv2d grad batch mismatch");
    assert_eq!(
        weight_shape.dim(0),
        cout,
        "conv2d grad out-channel mismatch"
    );
    assert_eq!(weight_shape.dim(1), cin, "conv2d grad in-channel mismatch");
    let kh = weight_shape.dim(2);
    let kw = weight_shape.dim(3);
    check_kernel_nonempty(kh, kw);
    ConvDims {
        n,
        cin,
        h,
        w,
        cout,
        kh,
        kw,
        oh,
        ow,
    }
}

/// Adds a `[m]` bias to every row of a `[n, m]` tensor, in the exact
/// loop order of the historical fused matmul epilogue.
pub(crate) fn add_row_bias_inplace(y: &mut Tensor, bias: &Tensor) {
    let (n, m) = (y.shape().dim(0), y.shape().dim(1));
    debug_assert_eq!(bias.numel(), m);
    for row in 0..n {
        for col in 0..m {
            y.data_mut()[row * m + col] += bias.data()[col];
        }
    }
}

/// Adds a `[c]` bias to every channel plane of a `[n, c, h, w]` tensor,
/// in the exact loop order of the historical fused conv epilogue.
pub(crate) fn add_channel_bias_inplace(y: &mut Tensor, bias: &Tensor) {
    let (n, c) = (y.shape().dim(0), y.shape().dim(1));
    debug_assert_eq!(bias.numel(), c);
    let hw = y.shape().dim(2) * y.shape().dim(3);
    for bi in 0..n {
        for ci in 0..c {
            let base = (bi * c + ci) * hw;
            let bv = bias.data()[ci];
            for v in &mut y.data_mut()[base..base + hw] {
                *v += bv;
            }
        }
    }
}

/// Serializes this crate's unit tests that set or depend on the
/// global backend override.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_beats_environment_and_default() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_backend(Some(BackendKind::Simd));
        assert_eq!(kind(), BackendKind::Simd);
        assert_eq!(active().kind(), BackendKind::Simd);
        set_backend(Some(BackendKind::Scalar));
        assert_eq!(kind(), BackendKind::Scalar);
        set_backend(None);
        // No env var in the test harness → scalar default.
        if std::env::var("SPECTRAGAN_BACKEND").is_err() {
            assert_eq!(kind(), BackendKind::Scalar);
        }
    }

    #[test]
    fn names_roundtrip_through_parse() {
        for k in [BackendKind::Scalar, BackendKind::Simd] {
            assert_eq!(BackendKind::parse(k.name()), Some(k));
        }
        assert_eq!(BackendKind::parse(" SIMD \n"), Some(BackendKind::Simd));
        assert_eq!(BackendKind::parse("avx1024"), None);
    }
}
