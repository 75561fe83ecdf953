//! The conv2d family: forward, input gradient and weight gradient of a
//! stride-1 cross-correlation with symmetric zero padding.
//!
//! The contract is the historical loop nests' **per-element summation
//! order**: every output element starts from `+0.0` and receives its
//! contributions in the same order, with the same operands, as the loop
//! nests `tests/scalar_conv_reference.rs` keeps verbatim. So every
//! golden fixture, kill/resume artifact and determinism sweep recorded
//! against them reproduces byte for byte.
//!
//! **The ordered GEMM.** The forward pass and the input gradient are
//! one kernel. Each image is unrolled by [`im2col`] into a
//! `[C·KH·KW, OH·OW]` column matrix, and each output row is the product
//! of one kernel row with it ([`ordered_block`]), [`ROWS`] rows × 16
//! columns of sums held in registers across every tap. The GEMM adds
//! every product into its sum on its own, in ascending `(c, ky, kx)`
//! order: `t += a0·x0; t += a1·x1; …`, never `t += a0·x0 + a1·x1 + …`,
//! which rounds differently. Each element then sums what the loop nest
//! sums, in the same order, from `+0.0`:
//!
//! * the forward pass sums each output element's taps in `(ic, ky, kx)`
//!   order, the GEMM's row order;
//! * the input gradient adds into each input element in `(oc, oy, ox)`
//!   order. It is the same correlation run on `grad_out` with the
//!   kernel flipped and its two channel axes swapped, under padding
//!   `KH − 1 − pad`: ascending flipped `ky` is ascending `oy`, and
//!   ascending flipped `kx` is ascending `ox`. When `pad ≥ KH` that
//!   padding is negative, which crops `grad_out` instead.
//!
//! **Padded taps.** The loop nests skip a tap that lands in the
//! padding. The column matrix holds `+0.0` there, and a finite weight
//! times it adds `±0.0`, which cannot change a sum that started from
//! `+0.0` (no sum of such terms is ever `−0.0`). A `±inf` or NaN weight
//! times `0.0` is NaN, though, where the loop nest gives a number. So a
//! call whose kernel holds a non-finite weight adds tap by tap
//! ([`tap`]), each tap only at the output positions that read the
//! image. Only a diverged model has such a weight.
//!
//! **Entries.** The GEMM is compiled twice, a baseline entry and an
//! AVX2 entry without FMA ([`crate::isa`]); both give the same bits.
//!
//! **The weight gradient** keeps its own kernel. It adds into each
//! weight element in `(b, oy, ox)` order and nothing else writes it in
//! between, so the `(ic, ky, kx)` loops may be permuted inside that
//! walk. A channel-last copy of the input makes the innermost loop run
//! over contiguous input channels into a `[KH·KW, Cin]` accumulator per
//! output channel, which is written back into the `[Cin, KH, KW]`
//! layout at the end.
//!
//! **Non-finite gradients.** None of the kernels skips a term whose
//! upstream gradient is exactly `±0.0`: such a skip drops `0 · inf =
//! NaN`, which would let a blown-up activation slip past the train
//! loop's divergence guard. Accumulating unconditionally is
//! bit-identical for finite data.
//!
//! **Parallelism and scratch.** The GEMM hands out blocks of [`ROWS`]
//! output rows of one image at a time, and the weight gradient one
//! output channel's kernel, through the pool's `*_macs` calls, so small
//! calls stay on the calling thread and results do not depend on the
//! thread count. Scratch (one column matrix, reused image after image, and
//! the flipped kernel) comes from the calling thread's [`arena`] before
//! the pool call and goes back to it after, never from a worker's.

use crate::arena;
use crate::isa::Isa;
use crate::pool;
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::ops::Range;

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
    /// (padded taps included), the size [`pool`] cutoffs take.
    fn macs(&self) -> usize {
        [self.cout, self.oh, self.ow, self.cin, self.kh, self.kw]
            .iter()
            .fold(self.n, |acc, &d| acc.saturating_mul(d))
    }
}

/// Unpacks a rank-4 shape, with a contextual panic message.
fn dims4(s: &Shape, what: &str) -> (usize, usize, usize, usize) {
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

/// Validates that a gradient call's `grad_out` plane is the forward
/// output of its input, kernel and padding: `oh == h + 2·pad − kh + 1`,
/// and the same for `ow`.
fn check_grad_out_plane(d: &ConvDims, pad: usize) {
    let extent = |len: usize, k: usize| (len + 2 * pad + 1).checked_sub(k);
    let (Some(oh), Some(ow)) = (extent(d.h, d.kh), extent(d.w, d.kw)) else {
        panic!(
            "conv2d grad: a {}x{} kernel does not fit a {}x{} input at pad {pad}",
            d.kh, d.kw, d.h, d.w
        );
    };
    assert!(
        (d.oh, d.ow) == (oh, ow),
        "conv2d grad_out must be [{}, {}, {oh}, {ow}] (the forward output of a \
         {}x{} input, a {}x{} kernel and pad {pad}), got [{}, {}, {}, {}]",
        d.n,
        d.cout,
        d.h,
        d.w,
        d.kh,
        d.kw,
        d.n,
        d.cout,
        d.oh,
        d.ow
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
fn conv2d_grad_input_dims(
    grad_out: &Shape,
    weight: &Shape,
    input_shape: &Shape,
    pad: usize,
) -> ConvDims {
    let (n, cout, oh, ow) = dims4(grad_out, "conv2d grad_out");
    let (cout_w, cin, kh, kw) = dims4(weight, "conv2d weight");
    let (n_i, cin_i, h, w) = dims4(input_shape, "conv2d input");
    assert_eq!(cout, cout_w, "conv2d grad channels mismatch");
    check_kernel_nonempty(kh, kw);
    assert_eq!(n_i, n, "conv2d grad batch mismatch");
    assert_eq!(cin_i, cin, "conv2d grad channel mismatch");
    let d = ConvDims {
        n,
        cin,
        h,
        w,
        cout,
        kh,
        kw,
        oh,
        ow,
    };
    check_grad_out_plane(&d, pad);
    d
}

/// Validates a grad-weight call and returns its geometry.
fn conv2d_grad_weight_dims(
    grad_out: &Shape,
    input: &Shape,
    weight_shape: &Shape,
    pad: usize,
) -> ConvDims {
    let (n, cout, oh, ow) = dims4(grad_out, "conv2d grad_out");
    let (n_i, cin, h, w) = dims4(input, "conv2d input");
    let (cout_w, cin_w, kh, kw) = dims4(weight_shape, "conv2d weight");
    assert_eq!(n, n_i, "conv2d grad batch mismatch");
    assert_eq!(cout_w, cout, "conv2d grad out-channel mismatch");
    assert_eq!(cin_w, cin, "conv2d grad in-channel mismatch");
    check_kernel_nonempty(kh, kw);
    let d = ConvDims {
        n,
        cin,
        h,
        w,
        cout,
        kh,
        kw,
        oh,
        ow,
    };
    check_grad_out_plane(&d, pad);
    d
}

/// One correlation the ordered GEMM runs: a `[c, sh, sw]` source
/// image, a `kh × kw` kernel and an `oh × ow` output plane, where tap
/// `(ky, kx)` of output pixel `(oy, ox)` reads source pixel
/// `(oy + ky − pad_y, ox + kx − pad_x)`. A negative pad crops.
#[derive(Debug, Clone, Copy)]
struct Corr {
    c: usize,
    sh: usize,
    sw: usize,
    kh: usize,
    kw: usize,
    pad_y: isize,
    pad_x: isize,
    oh: usize,
    ow: usize,
}

impl Corr {
    /// Rows of the column matrix: one per `(c, ky, kx)` tap.
    fn taps(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Columns of the column matrix: one per output pixel.
    fn pixels(&self) -> usize {
        self.oh * self.ow
    }

    /// The output rows whose kernel row `ky` reads the source.
    fn rows(&self, ky: usize) -> Range<usize> {
        inside(ky, self.pad_y, self.sh, self.oh)
    }

    /// The output columns whose kernel column `kx` reads the source.
    fn cols(&self, kx: usize) -> Range<usize> {
        inside(kx, self.pad_x, self.sw, self.ow)
    }
}

/// The outputs `o < n` whose tap `k` reads inside a `len`-long source
/// line under padding `pad`: `0 ≤ o + k − pad < len`. Empty when the
/// tap only ever reads padding.
fn inside(k: usize, pad: isize, len: usize, n: usize) -> Range<usize> {
    let shift = k as isize - pad;
    let clamp = |o: isize| o.clamp(0, n as isize) as usize;
    let lo = clamp(-shift);
    let hi = clamp(len as isize - shift);
    lo..hi.max(lo)
}

/// Unrolls the source image `img: [c, sh, sw]` into
/// `col: [c·kh·kw, oh·ow]`: row `(ci·kh + ky)·kw + kx`, column
/// `oy·ow + ox` holds `img[ci, oy + ky − pad_y, ox + kx − pad_x]`, or
/// `+0.0` where that falls outside the image. Every cell is written, so
/// a recycled buffer needs no clearing.
fn im2col(img: &[f32], g: &Corr, col: &mut [f32]) {
    let plane_len = g.sh * g.sw;
    for (r, dst_row) in col.chunks_exact_mut(g.pixels()).enumerate() {
        let (ci, ky, kx) = (r / (g.kh * g.kw), r / g.kw % g.kh, r % g.kw);
        let plane = &img[ci * plane_len..][..plane_len];
        let (rows, cols) = (g.rows(ky), g.cols(kx));
        for (oy, dst) in dst_row.chunks_exact_mut(g.ow).enumerate() {
            if !rows.contains(&oy) || cols.is_empty() {
                dst.fill(0.0);
                continue;
            }
            let iy = (oy as isize + ky as isize - g.pad_y) as usize;
            let ix = (cols.start as isize + kx as isize - g.pad_x) as usize;
            dst[..cols.start].fill(0.0);
            dst[cols.clone()].copy_from_slice(&plane[iy * g.sw + ix..][..cols.len()]);
            dst[cols.end..].fill(0.0);
        }
    }
}

/// Output rows one register tile holds.
const ROWS: usize = 4;

/// `block[i][j] = Σ_r a[i][r] · col[r][j]` for the `block.len() / np`
/// rows of `block` (at most [`ROWS`]), each product added on its own in
/// ascending `r` from `+0.0` (see the module docs), through the entry
/// `isa` names. `a` holds those rows' kernel rows back to back and
/// `col` is an [`im2col`] matrix with `np` columns.
fn ordered_block(isa: Isa, a: &[f32], col: &[f32], np: usize, block: &mut [f32]) {
    match isa {
        Isa::Base => ordered_block_body(a, col, np, block),
        // SAFETY: `Isa::Avx2` is only made on a CPU that reports AVX2.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { ordered_block_avx2(a, col, np, block) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn ordered_block_avx2(a: &[f32], col: &[f32], np: usize, block: &mut [f32]) {
    ordered_block_body(a, col, np, block)
}

#[inline(always)]
fn ordered_block_body(a: &[f32], col: &[f32], np: usize, block: &mut [f32]) {
    match block.len() / np {
        1 => ordered_rows::<1>(a, col, np, block),
        2 => ordered_rows::<2>(a, col, np, block),
        3 => ordered_rows::<3>(a, col, np, block),
        ROWS => ordered_rows::<ROWS>(a, col, np, block),
        m => unreachable!("a block of {m} rows"),
    }
}

/// [`ordered_block`] for `M` rows, in column tiles of 16, 8, 4 and 1.
#[inline(always)]
fn ordered_rows<const M: usize>(a: &[f32], col: &[f32], np: usize, block: &mut [f32]) {
    let taps = col.len() / np;
    let a: [&[f32]; M] = std::array::from_fn(|i| &a[i * taps..][..taps]);
    let mut j0 = 0;
    while j0 + 16 <= np {
        tile::<M, 16>(j0, &a, col, np, block);
        j0 += 16;
    }
    if j0 + 8 <= np {
        tile::<M, 8>(j0, &a, col, np, block);
        j0 += 8;
    }
    if j0 + 4 <= np {
        tile::<M, 4>(j0, &a, col, np, block);
        j0 += 4;
    }
    while j0 < np {
        tile::<M, 1>(j0, &a, col, np, block);
        j0 += 1;
    }
}

/// Columns `j0..j0 + W` of [`ordered_rows`]: the `M × W` sums stay in
/// registers across every tap.
#[inline(always)]
fn tile<const M: usize, const W: usize>(
    j0: usize,
    a: &[&[f32]; M],
    col: &[f32],
    np: usize,
    block: &mut [f32],
) {
    let mut acc = [[0.0f32; W]; M];
    for (r, row) in col.chunks_exact(np).enumerate() {
        let x = &row[j0..j0 + W];
        for (acc, a) in acc.iter_mut().zip(a) {
            let s = a[r];
            for (v, &xv) in acc.iter_mut().zip(x) {
                *v += s * xv;
            }
        }
    }
    for (out, acc) in block.chunks_exact_mut(np).zip(&acc) {
        out[j0..j0 + W].copy_from_slice(acc);
    }
}

/// Adds tap `r`'s products `a · col_row[j]` into `c_row`: at every
/// output position when `a` is finite, else only where tap `r` reads
/// the image.
fn tap(a: f32, r: usize, col_row: &[f32], g: &Corr, c_row: &mut [f32]) {
    if a.is_finite() {
        for (c, &x) in c_row.iter_mut().zip(col_row) {
            *c += a * x;
        }
        return;
    }
    let cols = g.cols(r % g.kw);
    for oy in g.rows(r / g.kw % g.kh) {
        let px = oy * g.ow + cols.start..oy * g.ow + cols.end;
        for (c, &x) in c_row[px.clone()].iter_mut().zip(&col_row[px]) {
            *c += a * x;
        }
    }
}

/// Runs the correlation `g` over a batch: `src` holds the source
/// images back to back, `kernel` one `g.taps()`-long row per output
/// row, and `out` (zeroed) receives one `[rows, oh·ow]` block per
/// image. A kernel with a `±inf` or NaN weight takes [`tap`] one tap
/// at a time, so that no padded tap is multiplied.
fn correlate(isa: Isa, src: &[f32], kernel: &[f32], g: &Corr, out: &mut [f32]) {
    let (taps, np) = (g.taps(), g.pixels());
    if out.is_empty() || taps == 0 {
        return;
    }
    let rows = kernel.len() / taps;
    let finite = kernel.iter().all(|v| v.is_finite());
    let img_len = g.c * g.sh * g.sw;
    let mut col = arena::take_zeroed(taps * np);
    for (img, out_img) in src
        .chunks_exact(img_len.max(1))
        .zip(out.chunks_exact_mut(rows * np))
    {
        im2col(img, g, &mut col);
        pool::par_blocks_mut_macs(out_img, ROWS * np, rows * taps * np, |blk, block| {
            let a = &kernel[blk * ROWS * taps..][..block.len() / np * taps];
            if finite {
                ordered_block(isa, a, &col, np, block);
                return;
            }
            for (a_row, c_row) in a.chunks_exact(taps).zip(block.chunks_exact_mut(np)) {
                for (r, (&av, col_row)) in a_row.iter().zip(col.chunks_exact(np)).enumerate() {
                    tap(av, r, col_row, g, c_row);
                }
            }
        });
    }
    arena::recycle(col);
}

/// The forward kernel through entry `isa`.
fn conv2d_with(isa: Isa, input: &Tensor, weight: &Tensor, pad: usize) -> Tensor {
    let d = conv2d_out_shape(input.shape(), weight.shape(), pad);
    let mut out = Tensor::zeros([d.n, d.cout, d.oh, d.ow]);
    let g = Corr {
        c: d.cin,
        sh: d.h,
        sw: d.w,
        kh: d.kh,
        kw: d.kw,
        pad_y: pad as isize,
        pad_x: pad as isize,
        oh: d.oh,
        ow: d.ow,
    };
    correlate(isa, input.data(), weight.data(), &g, out.data_mut());
    out
}

/// The input-gradient kernel through entry `isa`.
fn conv2d_grad_input_with(
    isa: Isa,
    grad_out: &Tensor,
    weight: &Tensor,
    input_shape: &Shape,
    pad: usize,
) -> Tensor {
    let d = conv2d_grad_input_dims(grad_out.shape(), weight.shape(), input_shape, pad);
    let mut grad_in = Tensor::zeros(input_shape.clone());
    if grad_in.numel() == 0 {
        return grad_in;
    }
    // The flipped kernel: row `ic`, tap `(oc, ky, kx)` holds
    // `weight[oc, ic, kh − 1 − ky, kw − 1 − kx]`.
    let (khw, taps) = (d.kh * d.kw, d.cout * d.kh * d.kw);
    let mut flipped = arena::take_zeroed(d.cin * taps);
    for (oc, kernels) in weight.data().chunks_exact(d.cin * khw).enumerate() {
        for (ic, kernel) in kernels.chunks_exact(khw).enumerate() {
            let dst = &mut flipped[ic * taps + oc * khw..][..khw];
            for (t, &v) in dst.iter_mut().zip(kernel.iter().rev()) {
                *t = v;
            }
        }
    }
    let g = Corr {
        c: d.cout,
        sh: d.oh,
        sw: d.ow,
        kh: d.kh,
        kw: d.kw,
        pad_y: d.kh as isize - 1 - pad as isize,
        pad_x: d.kw as isize - 1 - pad as isize,
        oh: d.h,
        ow: d.w,
    };
    correlate(isa, grad_out.data(), &flipped, &g, grad_in.data_mut());
    arena::recycle(flipped);
    grad_in
}

/// Forward conv2d (see [`Tensor::conv2d`]).
pub(crate) fn conv2d(input: &Tensor, weight: &Tensor, pad: usize) -> Tensor {
    conv2d_with(Isa::detect(), input, weight, pad)
}

/// Gradient of [`conv2d`] with respect to its input.
pub(crate) fn conv2d_grad_input(
    grad_out: &Tensor,
    weight: &Tensor,
    input_shape: &Shape,
    pad: usize,
) -> Tensor {
    conv2d_grad_input_with(Isa::detect(), grad_out, weight, input_shape, pad)
}

/// [`Tensor::conv2d`] through every compiled entry this CPU runs, named
/// (`"baseline"`, then `"avx2"` when the CPU reports AVX2). The public
/// entry points run the detected one alone; this lets the bit oracle in
/// `tests/scalar_conv_reference.rs` hold each entry to the loop nests.
#[doc(hidden)]
pub fn conv2d_per_entry(
    input: &Tensor,
    weight: &Tensor,
    pad: usize,
) -> Vec<(&'static str, Tensor)> {
    Isa::all()
        .into_iter()
        .map(|isa| (isa.name(), conv2d_with(isa, input, weight, pad)))
        .collect()
}

/// [`Tensor::conv2d_grad_input`] through every compiled entry this CPU
/// runs, as [`conv2d_per_entry`].
#[doc(hidden)]
pub fn conv2d_grad_input_per_entry(
    grad_out: &Tensor,
    weight: &Tensor,
    input_shape: &Shape,
    pad: usize,
) -> Vec<(&'static str, Tensor)> {
    Isa::all()
        .into_iter()
        .map(|isa| {
            let gi = conv2d_grad_input_with(isa, grad_out, weight, input_shape, pad);
            (isa.name(), gi)
        })
        .collect()
}

/// Gradient of [`conv2d`] with respect to its weight.
pub(crate) fn conv2d_grad_weight(
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
    // `xt` is the input channel-last, `[n, h, w, cin]`; `acc` is
    // `[cout, kh·kw, cin]`.
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
    pool::par_chunks_mut_macs(&mut acc, khw * cin, d.macs(), |oc, acc| {
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
