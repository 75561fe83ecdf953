//! The raw dense tensor type and its (non-differentiable) numerics.
//!
//! [`Tensor`] is a contiguous, row-major `f32` buffer plus a [`Shape`].
//! The differentiable layer ([`crate::tape`]) builds on these routines:
//! the backward interpreter ultimately calls plain `Tensor` math, so the
//! convolution/matmul gradients live here too ([`Tensor::conv2d`],
//! [`Tensor::conv2d_grad_input`], [`Tensor::conv2d_grad_weight`]).
//!
//! Buffers come from the thread-local [`crate::arena`] pool: every
//! constructor asks the arena for storage and `Drop` returns it, so
//! shapes that recur step to step (all of training) are served without
//! touching the allocator.

use crate::arena;
use crate::shape::Shape;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major `f32` tensor.
#[derive(PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: arena::clone_buf(&self.data),
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        arena::recycle(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Creates a tensor from a flat buffer and shape.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.numel()`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer of {} elements cannot have shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: arena::take_zeroed(n),
        }
    }

    /// All-ones tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Tensor filled with a constant.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: arena::take_filled(n, value),
        }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::new(&[]),
            data: arena::take_filled(1, value),
        }
    }

    /// Standard-normal random tensor (Box–Muller over the supplied RNG,
    /// so any `rand::Rng` works without distribution adapters).
    pub fn randn(shape: impl Into<Shape>, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let mut data = arena::take(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos());
            if data.len() < n {
                data.push(r * theta.sin());
            }
        }
        Tensor { shape, data }
    }

    /// Uniform random tensor in `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let mut data = arena::take(n);
        data.extend((0..n).map(|_| rng.gen_range(lo..hi)));
        Tensor { shape, data }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total element count.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the flat buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Element at a multi-index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-index.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// The single value of a rank-0 or one-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() on tensor of shape {}", self.shape);
        self.data[0]
    }

    /// Returns a reshaped copy sharing no storage; element count must
    /// be preserved.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            self.numel(),
            shape.numel(),
            "cannot reshape {} into {shape}",
            self.shape
        );
        Tensor {
            shape,
            data: arena::clone_buf(&self.data),
        }
    }

    // ------------------------------------------------------------------
    // Elementwise
    // ------------------------------------------------------------------

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = arena::take(self.data.len());
        data.extend(self.data.iter().map(|&v| f(v)));
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Elementwise combination of two same-shape tensors.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "elementwise op on mismatched shapes {} vs {}",
            self.shape, other.shape
        );
        let mut data = arena::take(self.data.len());
        data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// `self + other` elementwise.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// `self - other` elementwise.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// `self * other` elementwise (Hadamard product).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// `self * s` for a scalar `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// In-place accumulation `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "add_assign on mismatched shapes {} vs {}",
            self.shape, other.shape
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scaled accumulation `self += s * other` (axpy).
    pub fn axpy(&mut self, s: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "axpy on mismatched shapes {} vs {}",
            self.shape, other.shape
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Panics
    /// Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product of two rank-2 tensors: `[m, k] @ [k, n] → [m, n]`.
    ///
    /// Each output element is summed in ascending inner index from
    /// `+0.0`, skipping the terms whose left operand is exactly zero
    /// (the value path's one-hot conditioning rows make these common);
    /// the `n` loop is an axpy over one row of `other`.
    ///
    /// # Panics
    /// Panics unless both operands are rank 2 with matching inner dims.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        matmul_check(self, other);
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let n = other.shape.dim(1);
        let mut out = arena::take_zeroed(m * n);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let o_row = &mut out[i * n..(i + 1) * n];
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &other.data[p * n..(p + 1) * n];
                for (o, &bv) in o_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        Tensor::from_vec(out, [m, n])
    }

    /// `self @ otherᵀ` for rank-2 tensors: `[m, k] @ [n, k]ᵀ → [m, n]`.
    ///
    /// Computed as `self.matmul(&other.transpose2())`.
    ///
    /// # Panics
    /// Panics unless both operands are rank 2 with matching inner dims.
    pub fn matmul_bt(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.shape.ndim(),
            2,
            "matmul_bt lhs must be rank 2, got {}",
            self.shape
        );
        assert_eq!(
            other.shape.ndim(),
            2,
            "matmul_bt rhs must be rank 2, got {}",
            other.shape
        );
        assert_eq!(
            self.shape.dim(1),
            other.shape.dim(1),
            "matmul_bt inner dims differ: {} vs {}ᵀ",
            self.shape,
            other.shape
        );
        self.matmul(&other.transpose2())
    }

    /// `selfᵀ @ other` for rank-2 tensors: `[m, k]ᵀ @ [m, n] → [k, n]`.
    ///
    /// Computed as `self.transpose2().matmul(other)`.
    ///
    /// # Panics
    /// Panics unless both operands are rank 2 with matching inner dims.
    pub fn matmul_tb(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.shape.ndim(),
            2,
            "matmul_tb lhs must be rank 2, got {}",
            self.shape
        );
        assert_eq!(
            other.shape.ndim(),
            2,
            "matmul_tb rhs must be rank 2, got {}",
            other.shape
        );
        assert_eq!(
            self.shape.dim(0),
            other.shape.dim(0),
            "matmul_tb inner dims differ: {}ᵀ vs {}",
            self.shape,
            other.shape
        );
        self.transpose2().matmul(other)
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(
            self.shape.ndim(),
            2,
            "transpose2 needs rank 2, got {}",
            self.shape
        );
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = arena::take_zeroed(m * n);
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, [n, m])
    }

    // ------------------------------------------------------------------
    // 2-D convolution (NCHW, stride 1, symmetric zero padding)
    // ------------------------------------------------------------------

    /// Cross-correlation of `input [N, Cin, H, W]` with
    /// `weight [Cout, Cin, KH, KW]`, stride 1, zero padding `pad` on all
    /// sides. Output is `[N, Cout, H + 2·pad − KH + 1, W + 2·pad − KW + 1]`.
    ///
    /// Each output element sums its taps in `(ic, ky, kx)` order from
    /// `+0.0`, skipping taps that land in the padding: the historical
    /// loop nest's bits, at any thread count.
    ///
    /// # Panics
    /// Panics on rank/channel mismatches, zero-extent kernels, or
    /// kernels larger than the padded input.
    pub fn conv2d(&self, weight: &Tensor, pad: usize) -> Tensor {
        crate::conv::conv2d(self, weight, pad)
    }

    /// Gradient of [`Tensor::conv2d`] with respect to the input, given
    /// the upstream gradient `grad_out [N, Cout, OH, OW]`. Each input
    /// element receives its terms in `(oc, oy, ox)` order from `+0.0`.
    ///
    /// # Panics
    /// Panics on rank/channel mismatches, zero-extent kernels, or a
    /// `grad_out` plane that is not the forward output of
    /// (`input_shape`, `weight`, `pad`).
    pub fn conv2d_grad_input(
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &Shape,
        pad: usize,
    ) -> Tensor {
        crate::conv::conv2d_grad_input(grad_out, weight, input_shape, pad)
    }

    /// Gradient of [`Tensor::conv2d`] with respect to the weight. Each
    /// weight element receives its terms in `(b, oy, ox)` order from
    /// `+0.0`.
    ///
    /// # Panics
    /// As [`Tensor::conv2d_grad_input`].
    pub fn conv2d_grad_weight(
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &Shape,
        pad: usize,
    ) -> Tensor {
        crate::conv::conv2d_grad_weight(grad_out, input, weight_shape, pad)
    }
    // ------------------------------------------------------------------
    // Structural ops
    // ------------------------------------------------------------------

    /// Copies a contiguous range `start..start+len` along `axis`.
    ///
    /// # Panics
    /// Panics if `axis` or the range is out of bounds.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Tensor {
        let dims = self.shape.dims();
        assert!(
            axis < dims.len(),
            "narrow axis {axis} out of range for {}",
            self.shape
        );
        assert!(
            start + len <= dims[axis],
            "narrow range {start}..{} exceeds dim {} of {}",
            start + len,
            dims[axis],
            self.shape
        );
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out_dims = dims.to_vec();
        out_dims[axis] = len;
        let mut out = arena::take(outer * len * inner);
        for o in 0..outer {
            let base = (o * dims[axis] + start) * inner;
            out.extend_from_slice(&self.data[base..base + len * inner]);
        }
        Tensor::from_vec(out, out_dims)
    }

    /// Permutes axes: `perm[i]` is the source axis that becomes output
    /// axis `i` (e.g. `[0, 2, 3, 1]` turns NCHW into NHWC).
    ///
    /// # Panics
    /// Panics unless `perm` is a permutation of `0..ndim`.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        let dims = self.shape.dims();
        let nd = dims.len();
        assert_eq!(perm.len(), nd, "permute rank mismatch");
        let mut seen = vec![false; nd];
        for &p in perm {
            assert!(p < nd && !seen[p], "permute {perm:?} is not a permutation");
            seen[p] = true;
        }
        let out_dims: Vec<usize> = perm.iter().map(|&p| dims[p]).collect();
        let in_strides = self.shape.strides();
        // The input stride of each output axis.
        let src_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        let n = self.numel();
        let mut out = arena::take(n);
        if n > 0 {
            // Walk the output one innermost row at a time; an odometer
            // over the outer axes carries the row's input offset.
            let (inner, inner_stride) = match nd {
                0 => (1, 0),
                _ => (out_dims[nd - 1], src_strides[nd - 1]),
            };
            let mut idx = vec![0usize; nd.saturating_sub(1)];
            let mut base = 0usize;
            for _ in 0..n / inner {
                out.extend((0..inner).map(|i| self.data[base + i * inner_stride]));
                for d in (0..idx.len()).rev() {
                    idx[d] += 1;
                    base += src_strides[d];
                    if idx[d] < out_dims[d] {
                        break;
                    }
                    base -= src_strides[d] * out_dims[d];
                    idx[d] = 0;
                }
            }
        }
        Tensor {
            shape: Shape::new(&out_dims),
            data: out,
        }
    }

    /// 2×2 average pooling with stride 2 on an `[N, C, H, W]` tensor
    /// (`H`, `W` must be even).
    pub fn avg_pool2(&self) -> Tensor {
        let (n, c, h, w) = dims4(self, "avg_pool2 input");
        assert!(
            h % 2 == 0 && w % 2 == 0,
            "avg_pool2 needs even spatial dims, got {h}x{w}"
        );
        let (oh, ow) = (h / 2, w / 2);
        let mut out = Tensor::zeros([n, c, oh, ow]);
        for b in 0..n {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let base = ((b * c + ch) * h + 2 * oy) * w + 2 * ox;
                        let s = self.data[base]
                            + self.data[base + 1]
                            + self.data[base + w]
                            + self.data[base + w + 1];
                        *out.at_mut(&[b, ch, oy, ox]) = 0.25 * s;
                    }
                }
            }
        }
        out
    }

    /// Concatenates tensors along `axis`; all other dims must match.
    ///
    /// # Panics
    /// Panics on an empty list, rank mismatch, or non-`axis` dim mismatch.
    pub fn concat(parts: &[&Tensor], axis: usize) -> Tensor {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let first = parts[0].shape.dims();
        assert!(axis < first.len(), "concat axis {axis} out of range");
        let mut axis_total = 0;
        for p in parts {
            let d = p.shape.dims();
            assert_eq!(d.len(), first.len(), "concat rank mismatch");
            for (i, (&a, &b)) in d.iter().zip(first).enumerate() {
                assert!(i == axis || a == b, "concat dim {i} mismatch: {a} vs {b}");
            }
            axis_total += d[axis];
        }
        let outer: usize = first[..axis].iter().product();
        let inner: usize = first[axis + 1..].iter().product();
        let mut out_dims = first.to_vec();
        out_dims[axis] = axis_total;
        let mut out = arena::take(outer * axis_total * inner);
        for o in 0..outer {
            for p in parts {
                let len = p.shape.dims()[axis];
                let base = o * len * inner;
                out.extend_from_slice(&p.data[base..base + len * inner]);
            }
        }
        Tensor::from_vec(out, out_dims)
    }
}

/// Validates the operands of a plain matrix product: both rank 2 with
/// matching inner dims. Shared by [`Tensor::matmul`] and the fused
/// matmul entry points in [`crate::ops`].
pub(crate) fn matmul_check(a: &Tensor, b: &Tensor) {
    assert_eq!(
        a.shape().ndim(),
        2,
        "matmul lhs must be rank 2, got {}",
        a.shape()
    );
    assert_eq!(
        b.shape().ndim(),
        2,
        "matmul rhs must be rank 2, got {}",
        b.shape()
    );
    assert_eq!(
        a.shape().dim(1),
        b.shape().dim(0),
        "matmul inner dims differ: {} vs {}",
        a.shape(),
        b.shape()
    );
}

/// Unpacks a rank-4 shape, with a contextual panic message.
fn dims4(t: &Tensor, what: &str) -> (usize, usize, usize, usize) {
    assert_eq!(
        t.shape().ndim(),
        4,
        "{what} must be rank 4, got {}",
        t.shape()
    );
    (
        t.shape().dim(0),
        t.shape().dim(1),
        t.shape().dim(2),
        t.shape().dim(3),
    )
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "[{:.4}, {:.4}, … ; mean {:.4}]",
                self.data[0],
                self.data[1],
                self.mean()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors_have_expected_contents() {
        assert!(Tensor::zeros([2, 2]).data().iter().all(|&v| v == 0.0));
        assert!(Tensor::ones([3]).data().iter().all(|&v| v == 1.0));
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
        assert_eq!(Tensor::full([2], -1.0).data(), &[-1.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "cannot have shape")]
    fn from_vec_checks_length() {
        Tensor::from_vec(vec![1.0; 5], [2, 3]);
    }

    #[test]
    fn randn_is_roughly_standard_normal() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn([10_000], &mut rng);
        assert!(t.mean().abs() < 0.05, "mean {}", t.mean());
        let var = t.map(|v| v * v).mean() - t.mean().powi(2);
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], [3]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        let mut c = a.clone();
        c.axpy(0.5, &b);
        assert_eq!(c.data(), &[3.0, 4.5, 6.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.0], [2, 2]);
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.mean(), 0.5);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -2.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        // [[1,2],[3,4]] @ [[5,6],[7,8]] = [[19,22],[43,50]]
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]);
        assert_eq!(a.matmul(&b).data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::randn([3, 3], &mut rng);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], [3, 3]);
        let prod = a.matmul(&eye);
        for (x, y) in prod.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::randn([4, 7], &mut rng);
        assert_eq!(a.transpose2().transpose2(), a);
        assert_eq!(a.transpose2().shape().dims(), &[7, 4]);
    }

    #[test]
    fn conv2d_identity_kernel() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn([1, 1, 5, 5], &mut rng);
        let w = Tensor::from_vec(vec![1.0], [1, 1, 1, 1]);
        let y = x.conv2d(&w, 0);
        assert_eq!(y.shape().dims(), &[1, 1, 5, 5]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv2d_box_filter_sums_neighbourhood() {
        let x = Tensor::ones([1, 1, 4, 4]);
        let w = Tensor::ones([1, 1, 3, 3]);
        let y = x.conv2d(&w, 1); // same padding
        assert_eq!(y.shape().dims(), &[1, 1, 4, 4]);
        // Interior pixels see the full 3×3 window; corners see 2×2.
        assert_eq!(y.at(&[0, 0, 1, 1]), 9.0);
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0);
        assert_eq!(y.at(&[0, 0, 0, 1]), 6.0);
    }

    #[test]
    fn conv2d_multi_channel_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::randn([2, 3, 8, 8], &mut rng);
        let w = Tensor::randn([5, 3, 3, 3], &mut rng);
        let y = x.conv2d(&w, 1);
        assert_eq!(y.shape().dims(), &[2, 5, 8, 8]);
        let y_valid = x.conv2d(&w, 0);
        assert_eq!(y_valid.shape().dims(), &[2, 5, 6, 6]);
    }

    /// The convolution gradients must satisfy the adjoint identity
    /// `⟨conv(x, w), g⟩ = ⟨x, grad_input(g, w)⟩ = ⟨w, grad_weight(g, x)⟩`.
    #[test]
    fn conv2d_gradients_satisfy_adjoint_identity() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::randn([2, 3, 6, 6], &mut rng);
        let w = Tensor::randn([4, 3, 3, 3], &mut rng);
        for pad in [0usize, 1] {
            let y = x.conv2d(&w, pad);
            let g = Tensor::randn(y.shape().clone(), &mut rng);
            let lhs: f32 = y.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
            let gi = Tensor::conv2d_grad_input(&g, &w, x.shape(), pad);
            let rhs_x: f32 = x.data().iter().zip(gi.data()).map(|(a, b)| a * b).sum();
            let gw = Tensor::conv2d_grad_weight(&g, &x, w.shape(), pad);
            let rhs_w: f32 = w.data().iter().zip(gw.data()).map(|(a, b)| a * b).sum();
            assert!(
                (lhs - rhs_x).abs() < 1e-2 * lhs.abs().max(1.0),
                "pad {pad}: {lhs} vs {rhs_x}"
            );
            assert!(
                (lhs - rhs_w).abs() < 1e-2 * lhs.abs().max(1.0),
                "pad {pad}: {lhs} vs {rhs_w}"
            );
        }
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), [2, 3]);
        let b = a.reshape([3, 2]);
        assert_eq!(b.data(), a.data());
        assert_eq!(b.shape().dims(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_checks_numel() {
        Tensor::zeros([2, 3]).reshape([4, 2]);
    }

    #[test]
    fn narrow_extracts_rows_and_cols() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32).collect(), [3, 4]);
        let rows = a.narrow(0, 1, 2);
        assert_eq!(rows.shape().dims(), &[2, 4]);
        assert_eq!(rows.data(), &[4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0]);
        let cols = a.narrow(1, 1, 2);
        assert_eq!(cols.shape().dims(), &[3, 2]);
        assert_eq!(cols.data(), &[1.0, 2.0, 5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn concat_inverts_narrow() {
        let a = Tensor::from_vec((0..24).map(|i| i as f32).collect(), [2, 3, 4]);
        for axis in 0..3 {
            let d = a.shape().dim(axis);
            let first = a.narrow(axis, 0, 1);
            let rest = a.narrow(axis, 1, d - 1);
            let back = Tensor::concat(&[&first, &rest], axis);
            assert_eq!(back, a, "axis {axis}");
        }
    }

    #[test]
    fn permute_nchw_to_nhwc_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn([2, 3, 4, 5], &mut rng);
        let p = x.permute(&[0, 2, 3, 1]);
        assert_eq!(p.shape().dims(), &[2, 4, 5, 3]);
        assert_eq!(p.at(&[1, 2, 3, 0]), x.at(&[1, 0, 2, 3]));
        let back = p.permute(&[0, 3, 1, 2]);
        assert_eq!(back, x);
    }

    #[test]
    fn permute_transpose_matches_transpose2() {
        let mut rng = StdRng::seed_from_u64(10);
        let x = Tensor::randn([3, 7], &mut rng);
        assert_eq!(x.permute(&[1, 0]), x.transpose2());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_rejects_duplicates() {
        Tensor::zeros([2, 3]).permute(&[0, 0]);
    }

    #[test]
    fn avg_pool2_averages_blocks() {
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), [1, 1, 4, 4]);
        let y = x.avg_pool2();
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        // Block (0,0) = {0,1,4,5} → 2.5.
        assert_eq!(y.at(&[0, 0, 0, 0]), 2.5);
        assert_eq!(y.at(&[0, 0, 1, 1]), 12.5);
    }

    #[test]
    #[should_panic(expected = "dim 1 mismatch")]
    fn concat_checks_other_dims() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 4]);
        Tensor::concat(&[&a, &b], 0);
    }
}
