//! Dense `f32` tensors with tape-based reverse-mode automatic
//! differentiation — the deep-learning substrate of the SpectraGAN
//! reproduction.
//!
//! The paper trains its models with a GPU deep-learning framework; this
//! crate is the from-scratch CPU equivalent, scoped to exactly what the
//! SpectraGAN architecture needs:
//!
//! * [`Tensor`] — a contiguous row-major `f32` array with a shape, plus
//!   the non-differentiable numerics (creation, elementwise maps,
//!   matmul, conv2d, reductions).
//! * [`Tape`] / [`Var`] — a dynamic computation graph. Every
//!   differentiable op appends a node holding the result and a typed
//!   [`Op`] (parent indices plus the scalars backward needs).
//!   [`Tape::backward`] walks nodes in reverse creation order — always
//!   a valid reverse topological order — dispatching each through a
//!   single backward interpreter ([`ops`]), so gradient code is data,
//!   not a heap of boxed closures.
//! * [`arena`] — a thread-local buffer pool. Tensor storage is taken
//!   from and returned to it ([`Tensor`]'s `Drop` recycles), so the
//!   constant-shape training loop runs allocation-free after warm-up.
//! * [`math`] — the `f32` `exp`, `tanh` and `sigmoid` every activation
//!   uses: correctly rounded, libm-free and branch-free, so their bits
//!   do not depend on the host's C library and their loops vectorize.
//! * Instrumentation — every op's forward, and every node the backward
//!   walks, is a `spectragan-obs` span named by [`Op::name`], costing
//!   one relaxed atomic load per op while the obs layer is off.
//!
//! Differentiable ops live on [`Var`]: arithmetic, activations, matmul,
//! 2-D convolution, reductions, losses, concat/reshape/slice, plus the
//! fused `matmul+bias+activation` and `conv2d+bias` kernels the layer
//! stack emits and the whole-sequence LSTM node of [`lstm_seq`] (all
//! bit-equal to their unfused compositions). The inverse
//! real FFT the generator needs is *linear*, so it is expressed as a
//! matmul with a constant basis matrix (built in `spectragan-core`)
//! rather than a bespoke op.
//!
//! Design notes (following the smoltcp ethos the workspace adopts):
//! simplicity and robustness over cleverness — no type-level shape
//! tricks, shapes are checked at runtime with precise panic messages,
//! and every op has a numerical gradient check in the test suite.
//!
//! Heavy kernels — the conv2d family (an im2col GEMM that adds each
//! product in the historical loop nests' order), the matmul and the
//! LSTM sequence — are one kernel set: nothing selects between
//! implementations. They run on the deterministic pool in [`pool`], and
//! results are bit-identical at every thread count because work is
//! split into index-addressed tiles with unchanged per-tile summation
//! order.

pub mod arena;
pub mod backend;
mod conv;
mod isa;
pub mod lstm_seq;
pub mod math;
pub mod ops;
pub mod pool;
pub mod shape;
pub mod tape;
pub mod tensor;

pub use arena::ArenaStats;
#[doc(hidden)]
pub use conv::{conv2d_grad_input_per_entry, conv2d_per_entry};
pub use ops::{FusedAct, Op};
pub use shape::Shape;
pub use tape::{Gradients, Tape, Var};
pub use tensor::Tensor;
