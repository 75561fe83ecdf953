//! The name and a handle of the one kernel set, kept for the benchmark
//! package.
//!
//! `tensor` has one set of kernels (the conv family in `conv.rs`, the
//! matmul in [`Tensor::matmul`], the LSTM sequence in
//! [`crate::lstm_seq`]) and nothing selects between kernels. The
//! benchmark package (`perfbench/`) still prints [`kind`]'s name in its
//! host line and times the conv gradients through [`active`]. Both are
//! seams for that package alone: delete them with its last use.

use crate::shape::Shape;
use crate::tensor::Tensor;

/// The kernel set's name in benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The one kernel set, bit-exact with the historical loop nests.
    Scalar,
}

impl BackendKind {
    /// `"scalar"`, the name earlier benchmark records carry.
    pub fn name(self) -> &'static str {
        "scalar"
    }
}

/// The kernel set's name: always [`BackendKind::Scalar`].
pub fn kind() -> BackendKind {
    BackendKind::Scalar
}

/// A handle on the conv gradients, as [`active`] returns it.
#[derive(Debug, Clone, Copy)]
pub struct Kernels;

impl Kernels {
    /// [`Tensor::conv2d_grad_input`].
    pub fn conv2d_grad_input(
        &self,
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &Shape,
        pad: usize,
    ) -> Tensor {
        Tensor::conv2d_grad_input(grad_out, weight, input_shape, pad)
    }

    /// [`Tensor::conv2d_grad_weight`].
    pub fn conv2d_grad_weight(
        &self,
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &Shape,
        pad: usize,
    ) -> Tensor {
        Tensor::conv2d_grad_weight(grad_out, input, weight_shape, pad)
    }
}

/// The conv gradients' handle.
pub fn active() -> Kernels {
    Kernels
}
