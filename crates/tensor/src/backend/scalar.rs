//! The bit-exact reference backend.
//!
//! The contract is the historical kernels' **per-element summation
//! order**: every output element starts from `+0.0` and receives its
//! contributions in the same order, with the same operands, as the
//! loop nests [`Tensor`] had before the backend split — so every golden
//! fixture, kill/resume artifact and determinism sweep recorded since
//! reproduces byte-identically against this backend. Output tiles go
//! through [`crate::pool::par_chunks_mut_macs`], so small calls stay on
//! the calling thread.
//!
//! Within that contract the conv loops are reordered so the innermost
//! loop runs over contiguous memory and vectorizes:
//!
//! * `conv2d` sums each output element's taps in `(ic, ky, kx)` order;
//!   looping `oy → ic → ky → kx → ox` over each `kx`'s valid `ox`
//!   range keeps that order and makes the `ox` loop an axpy over one
//!   input row into one output row.
//! * `conv2d_grad_input` adds into each input element in `(oc, oy, ox)`
//!   order. For fixed `(oc, oy)` the kernel row is fixed and ascending
//!   `ox` means descending `kx`, so `oc → oy → ky → kx (descending) →
//!   ix` keeps the order with `ix` innermost.
//! * `conv2d_grad_weight` adds into each weight element in `(b, oy, ox)`
//!   order and nothing else writes it in between, so the `(ic, ky, kx)`
//!   loops may be permuted freely inside that walk. A channel-last copy
//!   of the input makes the innermost loop run over contiguous input
//!   channels into a `[kh·kw, cin]` accumulator per output channel,
//!   which is written back into the `[cin, kh, kw]` layout at the end.
//!
//! The one deliberate change from the historical kernels: the conv
//! gradients no longer skip contributions whose upstream gradient is
//! exactly `±0.0`. The skip was a throughput hack that silently masked
//! non-finite values — `0 · inf = NaN` was dropped instead of
//! propagated, so a blown-up activation whose gradient happened to zero
//! out could slip past the train-loop divergence guard. Accumulating
//! unconditionally is bit-identical for finite data (adding `±0.0` to
//! an accumulator that is never `-0.0` cannot flip a bit) and surfaces
//! NaN where it belongs; the golden fixtures confirm the first claim,
//! and `non_finite_gradients_propagate` in the tensor tests the second.

use super::{
    conv2d_grad_input_dims, conv2d_grad_weight_dims, conv2d_out_shape, Backend, BackendKind,
};
use crate::arena;
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::ops::Range;

/// Reference scalar kernels (see module docs).
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Scalar
    }

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let n = b.shape().dim(1);
        let mut out = arena::take_zeroed(m * n);
        for i in 0..m {
            let a_row = &a.data()[i * k..(i + 1) * k];
            let o_row = &mut out[i * n..(i + 1) * n];
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b.data()[p * n..(p + 1) * n];
                for (o, &bv) in o_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        Tensor::from_vec(out, [m, n])
    }

    fn conv2d(&self, input: &Tensor, weight: &Tensor, pad: usize) -> Tensor {
        let d = conv2d_out_shape(input.shape(), weight.shape(), pad);
        let (cin, h, w) = (d.cin, d.h, d.w);
        let (cout, kh, kw) = (d.cout, d.kh, d.kw);
        let (oh, ow) = (d.oh, d.ow);
        let mut out = Tensor::zeros([d.n, cout, oh, ow]);
        if out.numel() == 0 {
            return out;
        }
        let (x, wt) = (input.data(), weight.data());
        crate::pool::par_chunks_mut_macs(out.data_mut(), oh * ow, d.macs(), |tile, plane| {
            let b = tile / cout;
            let oc = tile % cout;
            for (oy, o_row) in plane.chunks_exact_mut(ow).enumerate() {
                for ic in 0..cin {
                    for ky in 0..kh {
                        let Some(iy) = in_row(oy + ky, pad, h) else {
                            continue;
                        };
                        let x_row = &x[((b * cin + ic) * h + iy) * w..][..w];
                        let w_row = &wt[((oc * cin + ic) * kh + ky) * kw..][..kw];
                        for (kx, &wv) in w_row.iter().enumerate() {
                            let ox = valid_ox(kx, pad, w, ow);
                            if ox.is_empty() {
                                continue;
                            }
                            let src = &x_row[ox.start + kx - pad..ox.end + kx - pad];
                            for (o, &xv) in o_row[ox].iter_mut().zip(src) {
                                *o += xv * wv;
                            }
                        }
                    }
                }
            }
        });
        out
    }

    fn conv2d_grad_input(
        &self,
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &Shape,
        pad: usize,
    ) -> Tensor {
        let d = conv2d_grad_input_dims(grad_out.shape(), weight.shape(), input_shape, pad);
        let (cin, h, w) = (d.cin, d.h, d.w);
        let (cout, kh, kw) = (d.cout, d.kh, d.kw);
        let (oh, ow) = (d.oh, d.ow);
        let mut grad_in = Tensor::zeros(input_shape.clone());
        if grad_in.numel() == 0 {
            return grad_in;
        }
        let (g, wt) = (grad_out.data(), weight.data());
        crate::pool::par_chunks_mut_macs(grad_in.data_mut(), h * w, d.macs(), |tile, plane| {
            let b = tile / cin;
            let ic = tile % cin;
            for oc in 0..cout {
                for oy in 0..oh {
                    let g_row = &g[((b * cout + oc) * oh + oy) * ow..][..ow];
                    for ky in 0..kh {
                        let Some(iy) = in_row(oy + ky, pad, h) else {
                            continue;
                        };
                        let p_row = &mut plane[iy * w..][..w];
                        let w_row = &wt[((oc * cin + ic) * kh + ky) * kw..][..kw];
                        // Ascending ox reaches one input column through
                        // descending kx.
                        for (kx, &wv) in w_row.iter().enumerate().rev() {
                            let ox = valid_ox(kx, pad, w, ow);
                            if ox.is_empty() {
                                continue;
                            }
                            let dst = &mut p_row[ox.start + kx - pad..ox.end + kx - pad];
                            for (p, &gv) in dst.iter_mut().zip(&g_row[ox]) {
                                *p += gv * wv;
                            }
                        }
                    }
                }
            }
        });
        grad_in
    }

    fn conv2d_grad_weight(
        &self,
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &Shape,
        pad: usize,
    ) -> Tensor {
        let d = conv2d_grad_weight_dims(grad_out.shape(), input.shape(), weight_shape, pad);
        let (n, cin, h, w) = (d.n, d.cin, d.h, d.w);
        let (cout, kh, kw) = (d.cout, d.kh, d.kw);
        let (oh, ow) = (d.oh, d.ow);
        let khw = kh * kw;
        let mut grad_w = Tensor::zeros(weight_shape.clone());
        if grad_w.numel() == 0 {
            return grad_w;
        }
        // Scratch lives on the calling thread's arena (see the simd
        // backend's allocation note): `xt` is the input channel-last,
        // `[n, h, w, cin]`; `acc` is `[cout, kh·kw, cin]`.
        let hw = h * w;
        let mut xt = arena::take_zeroed(n * hw * cin);
        for b in 0..n {
            for ic in 0..cin {
                let plane = &input.data()[(b * cin + ic) * hw..][..hw];
                for (px, &v) in plane.iter().enumerate() {
                    xt[(b * hw + px) * cin + ic] = v;
                }
            }
        }
        let mut acc = arena::take_zeroed(cout * khw * cin);
        let g = grad_out.data();
        crate::pool::par_chunks_mut_macs(&mut acc, khw * cin, d.macs(), |oc, acc| {
            for b in 0..n {
                for oy in 0..oh {
                    let g_row = &g[((b * cout + oc) * oh + oy) * ow..][..ow];
                    for ky in 0..kh {
                        let Some(iy) = in_row(oy + ky, pad, h) else {
                            continue;
                        };
                        let x_row = &xt[(b * hw + iy * w) * cin..][..w * cin];
                        for kx in 0..kw {
                            let a_row = &mut acc[(ky * kw + kx) * cin..][..cin];
                            for ox in valid_ox(kx, pad, w, ow) {
                                let gv = g_row[ox];
                                let x_px = &x_row[(ox + kx - pad) * cin..][..cin];
                                for (a, &xv) in a_row.iter_mut().zip(x_px) {
                                    *a += gv * xv;
                                }
                            }
                        }
                    }
                }
            }
        });
        for (oc, kernel) in grad_w.data_mut().chunks_exact_mut(cin * khw).enumerate() {
            let src = &acc[oc * khw * cin..][..khw * cin];
            for (ic, taps) in kernel.chunks_exact_mut(khw).enumerate() {
                for (t, v) in taps.iter_mut().enumerate() {
                    *v = src[t * cin + ic];
                }
            }
        }
        arena::recycle(acc);
        arena::recycle(xt);
        grad_w
    }
}

/// The input row `oy + ky − pad` a kernel row reads, or `None` when it
/// falls in the padding.
fn in_row(oy_plus_ky: usize, pad: usize, h: usize) -> Option<usize> {
    oy_plus_ky.checked_sub(pad).filter(|&iy| iy < h)
}

/// The output columns whose tap `kx` lands inside a `w`-wide input row
/// under padding `pad` (`pad ≤ ox + kx < w + pad`), clipped to the `ow`
/// output columns. Empty when the tap only ever reads padding; only a
/// non-empty range may be shifted by `kx − pad` into the input row.
fn valid_ox(kx: usize, pad: usize, w: usize, ow: usize) -> Range<usize> {
    let lo = pad.saturating_sub(kx);
    let hi = (w + pad).saturating_sub(kx).min(ow);
    lo..hi.max(lo)
}
