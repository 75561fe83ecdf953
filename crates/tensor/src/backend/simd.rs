//! The im2col + cache-blocked GEMM backend.
//!
//! Every conv2d-family kernel is lowered onto one of two microkernels
//! whose inner loops are plain indexed slice arithmetic the
//! autovectorizer turns into packed `f32` lanes (and into which
//! `std::arch` intrinsics can later be slotted without changing the
//! surrounding blocking):
//!
//! * [`gemm_row`] — an axpy-style `C[j] += Σ_k A[k]·B[k][j]` pass,
//!   k-blocked by 4 so each output element gets four fused
//!   multiply-adds per iteration of the vectorized `j` loop;
//! * [`dot`] — a 4-accumulator dot product (one accumulator per SSE
//!   lane) used by the weight gradient.
//!
//! Layout: a batch image is unrolled by [`im2col`] into a
//! `[Cin·KH·KW, OH·OW]` column matrix (patches are columns, so the GEMM
//! writes each output plane contiguously); the forward pass is then
//! `weight[Cout, K] @ col[K, N]`, the input gradient is
//! `weightᵀ[K, Cout] @ g[Cout, N]` folded back with [`col2im_plane`],
//! and the weight gradient is `g[Cout, N] @ colᵀ[N, K]` computed as
//! row-times-row dots.
//!
//! **Determinism.** Results differ from the scalar backend only by
//! float reassociation (≤ 1e-5 relative — see `tests/backend_parity.rs`)
//! but are bit-identical *per backend* at any thread count: every
//! parallel region is a [`crate::pool::par_chunks_mut_macs`] over
//! disjoint output rows/planes, and the per-element accumulation order
//! inside a row is a pure function of the shapes. Each region passes
//! its multiply-add count (element count for the transpose and col2im
//! passes), so calls below [`crate::pool::MIN_PARALLEL_MACS`] skip the
//! thread spawn and run on the calling thread.
//!
//! **Allocation.** All scratch (the column matrix, the transposed
//! weight, the gradient columns) is taken from and recycled to the
//! *calling thread's* arena — never inside a worker closure, whose
//! thread-local arena would die with the scoped pool — so steady-state
//! training stays at zero fresh allocations on this backend too.

use super::{
    conv2d_grad_input_dims, conv2d_grad_weight_dims, conv2d_out_shape, Backend, BackendKind,
    ConvDims,
};
use crate::arena;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// im2col + blocked-GEMM kernels (see module docs).
pub struct SimdBackend;

/// Largest rhs (in elements, 64 KiB of f32) for which the
/// transpose-free `matmul_bt` / `matmul_tb` paths run. Below this the
/// whole rhs stays cache-resident across the repeated passes those
/// paths make and skipping the transpose round-trip wins; above it
/// they fall back to one materialized transpose plus the vectorized
/// gemm microkernel.
const TRANSPOSE_FREE_MAX_ELEMS: usize = 16 * 1024;

/// `c_row[j] += Σ_k a_row[k] · b[k·n + j]`, k-blocked by 4.
///
/// `b` holds rows of length `n` back to back; `c_row.len() == n`. The
/// four row slices and the output row all have length exactly `n`, so
/// the inner `j` loops bounds-check once and vectorize.
fn gemm_row(a_row: &[f32], b: &[f32], n: usize, c_row: &mut [f32]) {
    debug_assert_eq!(c_row.len(), n);
    let k = a_row.len();
    debug_assert_eq!(b.len(), k * n);
    let mut kk = 0;
    while kk + 4 <= k {
        let a0 = a_row[kk];
        let a1 = a_row[kk + 1];
        let a2 = a_row[kk + 2];
        let a3 = a_row[kk + 3];
        // Skip all-zero k-blocks: one-hot conditioning rows make these
        // common in the matmul inputs this path carries, and the skip
        // matches the scalar matmul's historical `a == 0.0` shortcut.
        // Gradient kernels must NOT route through here — use
        // [`gemm_row_dense`] so `0 · inf = NaN` propagates.
        if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
            kk += 4;
            continue;
        }
        let b0 = &b[kk * n..kk * n + n];
        let b1 = &b[(kk + 1) * n..(kk + 1) * n + n];
        let b2 = &b[(kk + 2) * n..(kk + 2) * n + n];
        let b3 = &b[(kk + 3) * n..(kk + 3) * n + n];
        // Zipped iterators so the loop carries no bounds checks and
        // lowers to packed fused multiply-adds.
        for ((((c, &v0), &v1), &v2), &v3) in c_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            *c += a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
        }
        kk += 4;
    }
    while kk < k {
        let a0 = a_row[kk];
        if a0 != 0.0 {
            let b0 = &b[kk * n..kk * n + n];
            for (c, &v0) in c_row.iter_mut().zip(b0) {
                *c += a0 * v0;
            }
        }
        kk += 1;
    }
}

/// [`gemm_row`] without the zero-block skips: every contribution is
/// accumulated, so `0 · inf = NaN` propagates. The conv family uses
/// this for both forward and gradient passes — value-dependent skips
/// in gradient kernels are exactly the masking bug this backend split
/// fixed, and the forward pass follows the scalar reference, which
/// never skips either.
fn gemm_row_dense(a_row: &[f32], b: &[f32], n: usize, c_row: &mut [f32]) {
    debug_assert_eq!(c_row.len(), n);
    let k = a_row.len();
    debug_assert_eq!(b.len(), k * n);
    let mut kk = 0;
    while kk + 4 <= k {
        let a0 = a_row[kk];
        let a1 = a_row[kk + 1];
        let a2 = a_row[kk + 2];
        let a3 = a_row[kk + 3];
        let b0 = &b[kk * n..kk * n + n];
        let b1 = &b[(kk + 1) * n..(kk + 1) * n + n];
        let b2 = &b[(kk + 2) * n..(kk + 2) * n + n];
        let b3 = &b[(kk + 3) * n..(kk + 3) * n + n];
        for ((((c, &v0), &v1), &v2), &v3) in c_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            *c += a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
        }
        kk += 4;
    }
    while kk < k {
        let a0 = a_row[kk];
        let b0 = &b[kk * n..kk * n + n];
        for (c, &v0) in c_row.iter_mut().zip(b0) {
            *c += a0 * v0;
        }
        kk += 1;
    }
}

/// 4-accumulator dot product (one accumulator per packed lane).
fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        acc[0] += x[0] * y[0];
        acc[1] += x[1] * y[1];
        acc[2] += x[2] * y[2];
        acc[3] += x[3] * y[3];
    }
    let mut s = (acc[0] + acc[2]) + (acc[1] + acc[3]);
    for (x, y) in ra.iter().zip(rb) {
        s += x * y;
    }
    s
}

/// Unrolls one batch image `img: [Cin, H, W]` into
/// `col: [Cin·KH·KW, OH·OW]`: row `(ic·KH + ky)·KW + kx`, column
/// `oy·OW + ox` holds `img[ic, oy+ky−pad, ox+kx−pad]` (0 outside the
/// image). Out-of-image cells are written explicitly so a recycled
/// buffer needs no pre-zeroing.
fn im2col(img: &[f32], d: &ConvDims, pad: usize, col: &mut [f32]) {
    let (h, w, oh, ow) = (d.h, d.w, d.oh, d.ow);
    let np = oh * ow;
    let mut r = 0usize;
    for ic in 0..d.cin {
        let plane = &img[ic * h * w..(ic + 1) * h * w];
        for ky in 0..d.kh {
            for kx in 0..d.kw {
                let dst_row = &mut col[r * np..(r + 1) * np];
                // Valid ox range: pad ≤ ox + kx < w + pad.
                let lo = pad.saturating_sub(kx);
                let hi = (w + pad).saturating_sub(kx).min(ow);
                for oy in 0..oh {
                    let dst = &mut dst_row[oy * ow..(oy + 1) * ow];
                    let iy = oy + ky;
                    if iy < pad || iy - pad >= h || lo >= hi {
                        dst.fill(0.0);
                        continue;
                    }
                    let src_base = (iy - pad) * w + (lo + kx - pad);
                    dst[..lo].fill(0.0);
                    dst[lo..hi].copy_from_slice(&plane[src_base..src_base + (hi - lo)]);
                    dst[hi..].fill(0.0);
                }
                r += 1;
            }
        }
    }
}

/// Folds gradient columns for one input channel back into its `[H, W]`
/// plane: the inverse scatter of [`im2col`], accumulating overlaps in
/// the fixed `ky → kx → oy → ox` order.
fn col2im_plane(gcol: &[f32], d: &ConvDims, pad: usize, plane: &mut [f32]) {
    let (h, w, oh, ow) = (d.h, d.w, d.oh, d.ow);
    let np = oh * ow;
    let mut r = 0usize;
    for ky in 0..d.kh {
        for kx in 0..d.kw {
            let src_row = &gcol[r * np..(r + 1) * np];
            let lo = pad.saturating_sub(kx);
            let hi = (w + pad).saturating_sub(kx).min(ow);
            for oy in 0..oh {
                let iy = oy + ky;
                if iy < pad || iy - pad >= h || lo >= hi {
                    continue;
                }
                let src = &src_row[oy * ow + lo..oy * ow + hi];
                let dst_base = (iy - pad) * w + (lo + kx - pad);
                let dst = &mut plane[dst_base..dst_base + (hi - lo)];
                for (dv, sv) in dst.iter_mut().zip(src) {
                    *dv += sv;
                }
            }
            r += 1;
        }
    }
}

impl Backend for SimdBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Simd
    }

    // `matmul_bias_act` and `conv2d_bias` stay on the trait defaults:
    // the bias/activation epilogues are O(N) next to the O(K·N) GEMM,
    // and composing them outside the kernel keeps fused-vs-unfused
    // bitwise equality per backend (the tape tests assert it).

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let n = b.shape().dim(1);
        let mut out = Tensor::zeros([m, n]);
        if out.numel() == 0 || k == 0 {
            return out;
        }
        crate::pool::par_chunks_mut_macs(out.data_mut(), n, m * k * n, |i, c_row| {
            gemm_row(&a.data()[i * k..(i + 1) * k], b.data(), n, c_row);
        });
        out
    }

    fn matmul_bt(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let n = b.shape().dim(0);
        // Large rhs: materialize bᵀ once and go through the gemm
        // microkernel — its axpy inner loop vectorizes, while a dot
        // product's loop-carried accumulator cannot, so the dot path
        // below only wins while `b` is small enough that skipping the
        // transpose round-trip matters more than vector width.
        if b.numel() > TRANSPOSE_FREE_MAX_ELEMS {
            return self.matmul(a, &b.transpose2());
        }
        let mut out = Tensor::zeros([m, n]);
        if out.numel() == 0 || k == 0 {
            return out;
        }
        // out[i, j] = ⟨a_row_i, b_row_j⟩ — both rows contiguous, so no
        // transpose needs materializing.
        crate::pool::par_chunks_mut_macs(out.data_mut(), n, m * k * n, |i, c_row| {
            let a_row = &a.data()[i * k..(i + 1) * k];
            for (j, c) in c_row.iter_mut().enumerate() {
                *c = dot(a_row, &b.data()[j * k..(j + 1) * k]);
            }
        });
        out
    }

    fn matmul_tb(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let n = b.shape().dim(1);
        // Large rhs: the gather path below re-streams all of `b` once
        // per output row (k passes), which falls off a cliff as soon
        // as `b` outgrows cache — transpose `a` and gemm instead.
        if b.numel() > TRANSPOSE_FREE_MAX_ELEMS {
            return self.matmul(&a.transpose2(), b);
        }
        let mut out = Tensor::zeros([k, n]);
        if out.numel() == 0 || m == 0 {
            return out;
        }
        // out[p, :] = Σ_i a[i, p] · b[i, :] — an axpy over b's rows
        // with the a-column gathered at stride k.
        crate::pool::par_chunks_mut_macs(out.data_mut(), n, m * k * n, |p, c_row| {
            for i in 0..m {
                let av = a.data()[i * k + p];
                if av == 0.0 {
                    continue;
                }
                let b_row = &b.data()[i * n..(i + 1) * n];
                for (c, &bv) in c_row.iter_mut().zip(b_row) {
                    *c += av * bv;
                }
            }
        });
        out
    }

    fn conv2d(&self, input: &Tensor, weight: &Tensor, pad: usize) -> Tensor {
        let d = conv2d_out_shape(input.shape(), weight.shape(), pad);
        let kdim = d.cin * d.kh * d.kw;
        let np = d.oh * d.ow;
        let mut out = Tensor::zeros([d.n, d.cout, d.oh, d.ow]);
        if out.numel() == 0 || kdim == 0 {
            return out;
        }
        let mut col = arena::take_zeroed(kdim * np);
        let img_len = d.cin * d.h * d.w;
        for b in 0..d.n {
            im2col(
                &input.data()[b * img_len..(b + 1) * img_len],
                &d,
                pad,
                &mut col,
            );
            let out_b = &mut out.data_mut()[b * d.cout * np..(b + 1) * d.cout * np];
            crate::pool::par_chunks_mut_macs(out_b, np, d.cout * kdim * np, |oc, c_row| {
                gemm_row_dense(&weight.data()[oc * kdim..(oc + 1) * kdim], &col, np, c_row);
            });
        }
        arena::recycle(col);
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
        let kdim = d.cin * d.kh * d.kw;
        let np = d.oh * d.ow;
        let mut grad_in = Tensor::zeros(input_shape.clone());
        if grad_in.numel() == 0 {
            return grad_in;
        }
        if np == 0 || d.cout == 0 || kdim == 0 {
            return grad_in;
        }
        // Transposed weight: row k of wt is weight[:, k] (length Cout).
        let mut wt = arena::take_zeroed(kdim * d.cout);
        for oc in 0..d.cout {
            let w_row = &weight.data()[oc * kdim..(oc + 1) * kdim];
            for (kidx, &wv) in w_row.iter().enumerate() {
                wt[kidx * d.cout + oc] = wv;
            }
        }
        let mut gcol = arena::take_zeroed(kdim * np);
        let img_len = d.cin * d.h * d.w;
        let khw = d.kh * d.kw;
        for b in 0..d.n {
            let g_b = &grad_out.data()[b * d.cout * np..(b + 1) * d.cout * np];
            crate::pool::par_chunks_mut_macs(&mut gcol, np, kdim * d.cout * np, |kidx, row| {
                row.fill(0.0);
                gemm_row_dense(&wt[kidx * d.cout..(kidx + 1) * d.cout], g_b, np, row);
            });
            let gin_b = &mut grad_in.data_mut()[b * img_len..(b + 1) * img_len];
            crate::pool::par_chunks_mut_macs(gin_b, d.h * d.w, kdim * np, |ic, plane| {
                col2im_plane(&gcol[ic * khw * np..(ic + 1) * khw * np], &d, pad, plane);
            });
        }
        arena::recycle(gcol);
        arena::recycle(wt);
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
        let kdim = d.cin * d.kh * d.kw;
        let np = d.oh * d.ow;
        let mut grad_w = Tensor::zeros(weight_shape.clone());
        if grad_w.numel() == 0 {
            return grad_w;
        }
        if np == 0 || d.n == 0 {
            return grad_w;
        }
        let mut col = arena::take_zeroed(kdim * np);
        let mut colt = arena::take_zeroed(np * kdim);
        let img_len = d.cin * d.h * d.w;
        let image_macs = d.cout * np * kdim;
        for b in 0..d.n {
            im2col(
                &input.data()[b * img_len..(b + 1) * img_len],
                &d,
                pad,
                &mut col,
            );
            // Transpose to [OH·OW, Cin·KH·KW] so the accumulation below
            // runs as an axpy over contiguous rows — a dot over `col`'s
            // rows would serialize on its accumulator instead of
            // vectorizing.
            crate::pool::par_chunks_mut_macs(&mut colt, kdim, kdim * np, |p, t_row| {
                for (kidx, t) in t_row.iter_mut().enumerate() {
                    *t = col[kidx * np + p];
                }
            });
            let g_b = &grad_out.data()[b * d.cout * np..(b + 1) * d.cout * np];
            crate::pool::par_chunks_mut_macs(grad_w.data_mut(), kdim, image_macs, |oc, w_row| {
                // grad_w[oc, :] += Σ_p g[oc, p] · colᵀ[p, :]. No skip on
                // zero g: 0 · inf must surface as NaN, not vanish.
                let g_row = &g_b[oc * np..(oc + 1) * np];
                for (p, &gv) in g_row.iter().enumerate() {
                    let t_row = &colt[p * kdim..(p + 1) * kdim];
                    for (w, &cv) in w_row.iter_mut().zip(t_row) {
                        *w += gv * cv;
                    }
                }
            });
        }
        arena::recycle(colt);
        arena::recycle(col);
        grad_w
    }
}
