//! The fused LSTM sequence: a whole recurrence as one tape node
//! ([`Op::LstmSeq`](crate::Op::LstmSeq)), and the same forward kernel
//! without a tape ([`rollout`]).
//!
//! The cell is the single-layer LSTM of `spectragan-nn` with its four
//! gates fused in `[i | f | g | o]` order:
//!
//! ```text
//! gates = (x·Wx + h·Wh) + b     i, f, o = σ(·)   g = tanh(·)
//! c' = f ⊙ c + i ⊙ g            h' = o ⊙ tanh(c')
//! ```
//!
//! It is fed in one of two ways ([`SeqInput`]):
//!
//! * **Projected** — a time-constant input whose projection `xw = x·Wx`
//!   was computed once, with a one-output head `y = h·w + b` read at
//!   every step. The node's value is the head series `[N, T]`.
//! * **Series** — the per-step input `[series[:, t], ctx]`, projected
//!   through `Wx` at every step. The node's value is the last hidden
//!   state `[N, H]`.
//!
//! The forward pass keeps one record of `7·H` floats per row and step,
//! `[i f g o | c | tanh c | h]` (activated gates), and nothing else.
//!
//! **Exactness.** The node replaces a chain of per-step tape ops
//! (matmul, add, `add_rowvec`, four `narrow`s and their activations,
//! the cell products, the head and a `concat`, or the per-step
//! `narrow`/`concat` of the input). Under the scalar backend every
//! forward value and every gradient is bit-identical to that chain,
//! because the kernels below replay its arithmetic:
//!
//! * Mat-vecs accumulate like the scalar matmul: from `+0.0`, in
//!   ascending inner index, skipping zero left operands. Gates are
//!   `(xw + h·Wh) + b`; the series feed sums its series column before
//!   its context, so `x_t·Wx` is recomputed at every step.
//! * The backward replays the tape's reverse walk. `dh_t` takes step
//!   `t+1`'s recurrent part before the head's; `dc_{t−1}` is
//!   `dc_t ⊙ f_t` before the `tanh(c_{t−1})` path is added; gate
//!   gradients get the `+ 0.0` that `narrow`'s scatter-into-zeros-and-
//!   add applied, which turns `−0.0` into `+0.0`.
//! * Every contribution to a gradient slot outside the node goes
//!   through the tape's move-or-add rule one step at a time, in
//!   descending step order — a sequence's steps are never summed
//!   first. Each step's weight gradient is computed on its own from
//!   `+0.0`, including step 0's all-zero `h₋₁ᵀ·dgates`, whose addition
//!   still turns a `−0.0` into `+0.0`.
//!
//! **Parallelism.** Rows are independent recurrences: the forward pass
//! and the per-row half of the backward run each row in its own slice,
//! one pool call per pass. The weight gradients are split by step, one
//! pool call, and folded into the slots in step order on the calling
//! thread. Which thread ran a row or step never changes what it
//! computes, so results are bit-identical at any thread count, under
//! either backend. Every buffer comes from the calling thread's
//! [`arena`] before the pool call and reaches the workers as disjoint
//! slices.
//!
//! Activations go through the active backend's `sigmoid_slice` and
//! `tanh_slice`, as the per-step ops did; everything else is one
//! implementation for both backends.

use crate::arena;
use crate::backend;
use crate::pool;
use crate::tensor::Tensor;
use std::rc::Rc;

/// What feeds an [`Op::LstmSeq`](crate::Op::LstmSeq) node, as tape
/// node indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqInput {
    /// Time-constant projected input `xw: [N, 4H]` and a one-output
    /// head (`head_w: [H, 1]`, `head_b: [1]`) read at every step.
    Projected {
        /// The input projection `x·Wx`.
        xw: usize,
        /// Head weight.
        head_w: usize,
        /// Head bias.
        head_b: usize,
    },
    /// Per-step input `[series[:, t], ctx]` through `wx: [1 + C, 4H]`.
    Series {
        /// `[N, T]`: column `t` feeds step `t`.
        series: usize,
        /// `[N, C]`: fed at every step.
        ctx: usize,
        /// Input weight.
        wx: usize,
    },
}

/// Read-only operands of one sequence.
struct Seq<'a> {
    hs: usize,
    steps: usize,
    wh: &'a [f32],
    b: &'a [f32],
    feed: Feed<'a>,
}

enum Feed<'a> {
    Projected {
        xw: &'a [f32],
        head_w: &'a [f32],
        head_b: f32,
    },
    Series {
        series: &'a [f32],
        ctx: &'a [f32],
        wx: &'a [f32],
        c: usize,
    },
}

impl Seq<'_> {
    /// Floats per row-step record: `[i f g o | c | tanh c | h]`.
    fn rec(&self) -> usize {
        7 * self.hs
    }

    /// Width of the per-step input (`0` for the projected feed).
    fn in_width(&self) -> usize {
        match self.feed {
            Feed::Projected { .. } => 0,
            Feed::Series { c, .. } => 1 + c,
        }
    }

    /// Width of one row of the node's value.
    fn out_width(&self) -> usize {
        match self.feed {
            Feed::Projected { .. } => self.steps,
            Feed::Series { .. } => self.hs,
        }
    }

    /// Multiply-adds per row-step of one pass (the pool cutoff's unit).
    fn macs_per_row_step(&self) -> usize {
        (self.hs + self.in_width() + 1) * 4 * self.hs
    }
}

/// Steps per task of the weight-gradient pass.
const STEPS: usize = 8;

/// `acc[j] += s · row[j]`.
#[inline]
fn axpy(acc: &mut [f32], s: f32, row: &[f32]) {
    for (a, &w) in acc.iter_mut().zip(row) {
        *a += s * w;
    }
}

/// `acc[j] += s(i) · m[i·w + j]` over the rows of `m` (width
/// `w = acc.len()`) in ascending `i < n`, skipping every `i` with
/// `s(i) == 0` — the scalar matmul's per-element order.
#[inline]
fn axpy_rows(acc: &mut [f32], n: usize, s: impl Fn(usize) -> f32, m: &[f32]) {
    let width = acc.len();
    for i in 0..n {
        let sv = s(i);
        if sv != 0.0 {
            axpy(acc, sv, &m[i * width..(i + 1) * width]);
        }
    }
}

/// Record `cur` (mutable) and record `prev != cur` of `records`.
fn step_records(records: &mut [f32], len: usize, prev: usize, cur: usize) -> (&[f32], &mut [f32]) {
    if prev < cur {
        let (lo, hi) = records.split_at_mut(cur * len);
        (&lo[prev * len..(prev + 1) * len], &mut hi[..len])
    } else {
        let (lo, hi) = records.split_at_mut(prev * len);
        (&hi[..len], &mut lo[cur * len..(cur + 1) * len])
    }
}

/// Runs row `row`'s recurrence from the zero state in `records`.
/// Record 0 is the zero state and is never written; steps write
/// records `1..=ring` in turn (`ring ≥ 2` unless there is one step),
/// each reading the one written before. `xwt` is `4H` of scratch for
/// the series feed. `out` receives the head series (projected feed) or
/// the last hidden state (series feed).
fn forward_row(
    seq: &Seq<'_>,
    row: usize,
    records: &mut [f32],
    ring: usize,
    xwt: &mut [f32],
    out: &mut [f32],
) {
    let hs = seq.hs;
    let g4 = 4 * hs;
    let rec = seq.rec();
    let act = backend::active();
    let (mut prev, mut cur) = (0, 1);
    for t in 0..seq.steps {
        if t > 0 {
            prev = cur;
            cur = if cur == ring { 1 } else { cur + 1 };
        }
        let (prev_rec, cur_rec) = step_records(records, rec, prev, cur);
        let (c_prev, h_prev) = (&prev_rec[g4..g4 + hs], &prev_rec[6 * hs..]);
        let (gates, state) = cur_rec.split_at_mut(g4);
        let (c, state) = state.split_at_mut(hs);
        let (tanh_c, h) = state.split_at_mut(hs);
        gates.fill(0.0);
        axpy_rows(gates, hs, |p| h_prev[p], seq.wh);
        let x: &[f32] = match seq.feed {
            Feed::Projected { xw, .. } => &xw[row * g4..(row + 1) * g4],
            Feed::Series {
                series,
                ctx,
                wx,
                c: cw,
            } => {
                // x_t = [series[row, t], ctx[row, ..]], series first.
                let x0 = series[row * seq.steps + t];
                let ctx_row = &ctx[row * cw..(row + 1) * cw];
                xwt.fill(0.0);
                axpy_rows(
                    xwt,
                    1 + cw,
                    |p| if p == 0 { x0 } else { ctx_row[p - 1] },
                    wx,
                );
                &*xwt
            }
        };
        for ((g, &xv), &bv) in gates.iter_mut().zip(x).zip(seq.b) {
            *g = (xv + *g) + bv;
        }
        act.sigmoid_slice(&mut gates[..2 * hs]);
        act.tanh_slice(&mut gates[2 * hs..3 * hs]);
        act.sigmoid_slice(&mut gates[3 * hs..]);
        let (i, rest) = gates.split_at(hs);
        let (f, rest) = rest.split_at(hs);
        let (g, o) = rest.split_at(hs);
        for ((cv, (&fv, &cp)), (&iv, &gv)) in
            c.iter_mut().zip(f.iter().zip(c_prev)).zip(i.iter().zip(g))
        {
            *cv = fv * cp + iv * gv;
        }
        tanh_c.copy_from_slice(c);
        act.tanh_slice(tanh_c);
        for ((hv, &ov), &tv) in h.iter_mut().zip(o).zip(&*tanh_c) {
            *hv = ov * tv;
        }
        if let Feed::Projected { head_w, head_b, .. } = seq.feed {
            let mut y = 0.0f32;
            for (&hv, &w) in h.iter().zip(head_w) {
                if hv != 0.0 {
                    y += hv * w;
                }
            }
            out[t] = y + head_b;
        }
    }
    if let Feed::Series { .. } = seq.feed {
        out.copy_from_slice(&records[cur * rec + 6 * hs..(cur + 1) * rec]);
    }
}

/// Tape-free rollout of `t_out` steps from the zero state through a
/// one-output head: returns `[N, t_out]`, row `r` holding row `r`'s
/// series, given the input projection `xw: [N, 4H]`, `wh: [H, 4H]`,
/// `b: [4H]`, `head_w: [H, 1]` and `head_b`.
///
/// This is the forward kernel of the projected
/// [`Op::LstmSeq`](crate::Op::LstmSeq) keeping two step records per row
/// instead of all of them, so its values are that node's, bit for bit.
/// Rows run in their own scratch across [`pool::par_chunks_mut`].
///
/// # Panics
/// Panics unless the shapes describe one cell of hidden width
/// `wh.shape()[0]`.
pub fn rollout(
    xw: &Tensor,
    wh: &Tensor,
    b: &Tensor,
    head_w: &Tensor,
    head_b: f32,
    t_out: usize,
) -> Tensor {
    let n = xw.shape().dim(0);
    let hs = wh.shape().dim(0);
    assert!(
        xw.shape().ndim() == 2
            && xw.shape().dim(1) == 4 * hs
            && wh.numel() == 4 * hs * hs
            && b.numel() == 4 * hs
            && head_w.numel() == hs,
        "LSTM rollout: xw {}, Wh {}, b {} and head {} do not fit one cell",
        xw.shape(),
        wh.shape(),
        b.shape(),
        head_w.shape()
    );
    let mut out = Tensor::zeros([n, t_out]);
    if out.numel() == 0 {
        return out;
    }
    let seq = Seq {
        hs,
        steps: t_out,
        wh: wh.data(),
        b: b.data(),
        feed: Feed::Projected {
            xw: xw.data(),
            head_w: head_w.data(),
            head_b,
        },
    };
    pool::par_chunks_mut(out.data_mut(), t_out, |row, series| {
        let mut records = vec![0.0f32; 3 * seq.rec()];
        forward_row(&seq, row, &mut records, 2, &mut [], series);
    });
    out
}

/// Checks a sequence's operand shapes; returns the row count `N`.
fn check_shapes<'a>(
    input: &SeqInput,
    value: &impl Fn(usize) -> &'a Tensor,
    wh: usize,
    b: usize,
    steps: usize,
) -> usize {
    assert!(steps > 0, "LSTM sequence needs at least one step");
    let whv = value(wh);
    assert!(
        whv.shape().ndim() == 2
            && whv.shape().dim(0) > 0
            && whv.shape().dim(1) == 4 * whv.shape().dim(0),
        "LSTM Wh {} is not [H, 4H]",
        whv.shape()
    );
    let hs = whv.shape().dim(0);
    assert_eq!(value(b).shape().dims(), &[4 * hs], "LSTM bias is not [4H]");
    let (n, mut ids) = match *input {
        SeqInput::Projected { xw, head_w, head_b } => {
            let xwv = value(xw);
            assert!(
                xwv.shape().ndim() == 2 && xwv.shape().dim(1) == 4 * hs,
                "LSTM input projection {} is not [N, {}]",
                xwv.shape(),
                4 * hs
            );
            assert_eq!(
                value(head_w).shape().dims(),
                &[hs, 1],
                "LSTM head is not [H, 1]"
            );
            assert_eq!(
                value(head_b).shape().dims(),
                &[1],
                "LSTM head bias is not [1]"
            );
            (xwv.shape().dim(0), [xw, head_w, head_b, wh, b])
        }
        SeqInput::Series { series, ctx, wx } => {
            let (sv, cv) = (value(series), value(ctx));
            assert!(
                sv.shape().ndim() == 2 && sv.shape().dim(1) == steps,
                "LSTM series {} is not [N, {steps}]",
                sv.shape()
            );
            assert!(
                cv.shape().ndim() == 2 && cv.shape().dim(0) == sv.shape().dim(0),
                "LSTM context {} does not match series {}",
                cv.shape(),
                sv.shape()
            );
            let c = cv.shape().dim(1);
            assert_eq!(
                value(wx).shape().dims(),
                &[1 + c, 4 * hs],
                "LSTM Wx does not map 1 + {c} inputs to 4H"
            );
            (sv.shape().dim(0), [series, ctx, wx, wh, b])
        }
    };
    ids.sort_unstable();
    assert!(
        ids.windows(2).all(|w| w[0] != w[1]),
        "LSTM sequence operands must be distinct nodes"
    );
    n
}

/// Builds the kernel's view of a sequence; `value` maps node indices
/// to their forward values.
fn seq_view<'a>(
    input: &SeqInput,
    value: &impl Fn(usize) -> &'a Tensor,
    wh: usize,
    b: usize,
    steps: usize,
) -> Seq<'a> {
    let feed = match *input {
        SeqInput::Projected { xw, head_w, head_b } => Feed::Projected {
            xw: value(xw).data(),
            head_w: value(head_w).data(),
            head_b: value(head_b).data()[0],
        },
        SeqInput::Series { series, ctx, wx } => Feed::Series {
            series: value(series).data(),
            ctx: value(ctx).data(),
            wx: value(wx).data(),
            c: value(ctx).shape().dim(1),
        },
    };
    Seq {
        hs: value(wh).shape().dim(0),
        steps,
        wh: value(wh).data(),
        b: value(b).data(),
        feed,
    }
}

/// Forward pass of the taped node over operands looked up by `value`:
/// returns the node's value and its saved records. Each sequence row
/// of the saved tensor holds the zero record and the row's `steps`
/// records, `4H` of scratch for the series feed, and the row's output.
///
/// # Panics
/// Panics on mismatched operand shapes, on zero steps, or when two
/// operands are the same node.
pub(crate) fn forward<'a>(
    input: &SeqInput,
    value: impl Fn(usize) -> &'a Tensor,
    wh: usize,
    b: usize,
    steps: usize,
) -> (Tensor, Tensor) {
    let n = check_shapes(input, &value, wh, b, steps);
    let seq = seq_view(input, &value, wh, b, steps);
    let records = (1 + steps) * seq.rec();
    let scratch = if seq.in_width() == 0 { 0 } else { 4 * seq.hs };
    let width = seq.out_width();
    let row_len = records + scratch + width;
    let mut saved = Tensor::zeros([n, row_len]);
    let macs = n * steps * seq.macs_per_row_step();
    pool::par_chunks_mut_macs(saved.data_mut(), row_len, macs, |row, chunk| {
        let (records, rest) = chunk.split_at_mut(records);
        let (xwt, out) = rest.split_at_mut(scratch);
        forward_row(&seq, row, records, steps, xwt, out);
    });
    let mut value = Tensor::zeros([n, width]);
    for (dst, src) in value
        .data_mut()
        .chunks_exact_mut(width)
        .zip(saved.data().chunks_exact(row_len))
    {
        dst.copy_from_slice(&src[row_len - width..]);
    }
    (value, saved)
}

/// One row's backward through time. `wh_t` and `wx_t` are the
/// transposes of `Wh` and `Wx`. `records` is the row's saved records,
/// `g_row` its row of the node's upstream gradient. `chunk` is
/// `[dgates: steps·4H | input gradient | scratch]`, where the input
/// gradient is the row of the final `xw` slot (projected) or of the
/// series then context slots (series), seeded from `prior_*` when those
/// slots already hold a gradient.
///
/// A slot that receives its first contribution starts at `−0.0`, the
/// exact additive identity (`−0.0 + x` is `x` for every `x`, `±0.0`
/// included), so "move the first contribution in, add the rest" is one
/// branch-free `+=`.
#[allow(clippy::too_many_arguments)]
fn backward_row(
    seq: &Seq<'_>,
    wh_t: &[f32],
    wx_t: &[f32],
    records: &[f32],
    g_row: &[f32],
    prior_x: Option<&[f32]>,
    prior_ctx: Option<&[f32]>,
    chunk: &mut [f32],
) {
    let (hs, steps) = (seq.hs, seq.steps);
    let g4 = 4 * hs;
    let rec = seq.rec();
    let in_w = seq.in_width();
    let (dgates, rest) = chunk.split_at_mut(steps * g4);
    let grad_len = match seq.feed {
        Feed::Projected { .. } => g4,
        Feed::Series { c, .. } => steps + c,
    };
    let (grad_in, scratch) = rest.split_at_mut(grad_len);
    let (dh, scratch) = scratch.split_at_mut(hs);
    let (dc, dinp) = scratch.split_at_mut(hs);
    let dinp = &mut dinp[..in_w];
    // `dx` is the row of the xw slot (projected) or of the context slot
    // (series, after the series row `dser`).
    let (dser, dx) = grad_in.split_at_mut(if in_w == 0 { 0 } else { steps });
    let prior = match seq.feed {
        Feed::Projected { .. } => prior_x,
        Feed::Series { .. } => prior_ctx,
    };
    match prior {
        Some(p) => dx.copy_from_slice(p),
        None => dx.fill(-0.0),
    }
    // `dh` and `dc` hold step t+1's recurrent contributions, which
    // arrive first; the last step has none.
    dh.fill(-0.0);
    dc.fill(-0.0);
    for t in (0..steps).rev() {
        // Record t is step t−1's state (the zero state for t = 0).
        let cur = &records[(1 + t) * rec..(2 + t) * rec];
        let c_prev = &records[t * rec + g4..t * rec + g4 + hs];
        let (i, f) = (&cur[..hs], &cur[hs..2 * hs]);
        let (g, o) = (&cur[2 * hs..3 * hs], &cur[3 * hs..g4]);
        let tanh_c = &cur[5 * hs..6 * hs];
        match seq.feed {
            Feed::Projected { head_w, .. } => {
                // The head's `gy·wᵀ`, from +0.0 with a zero `gy`
                // skipped, lands after the recurrent part.
                let gy = g_row[t];
                for (d, &w) in dh.iter_mut().zip(head_w) {
                    *d += if gy == 0.0 { 0.0 } else { 0.0 + gy * w };
                }
            }
            Feed::Series { .. } => {
                if t + 1 == steps {
                    dh.copy_from_slice(g_row);
                }
            }
        }
        let dg = &mut dgates[t * g4..(t + 1) * g4];
        let (dg_i, rest) = dg.split_at_mut(hs);
        let (dg_f, rest) = rest.split_at_mut(hs);
        let (dg_g, dg_o) = rest.split_at_mut(hs);
        let (dh_t, dc_t, c_prev) = (&dh[..hs], &mut dc[..hs], &c_prev[..hs]);
        for k in 0..hs {
            let d_o = dh_t[k] * tanh_c[k];
            let d_tanh_c = dh_t[k] * o[k];
            let dck = dc_t[k] + d_tanh_c * (1.0 - tanh_c[k] * tanh_c[k]);
            let d_i = dck * g[k];
            let d_g = dck * i[k];
            let d_f = dck * c_prev[k];
            dc_t[k] = dck * f[k];
            dg_i[k] = d_i * i[k] * (1.0 - i[k]) + 0.0;
            dg_f[k] = d_f * f[k] * (1.0 - f[k]) + 0.0;
            dg_g[k] = d_g * (1.0 - g[k] * g[k]) + 0.0;
            dg_o[k] = d_o * o[k] * (1.0 - o[k]) + 0.0;
        }
        let dg = &dgates[t * g4..(t + 1) * g4];
        let x_part: &[f32] = match seq.feed {
            Feed::Projected { .. } => dg,
            Feed::Series { .. } => {
                dinp.fill(0.0);
                axpy_rows(dinp, g4, |j| dg[j], wx_t);
                // The per-step `narrow` scattered `dinp[0]` into column
                // t of zeros and added it to the slot; every other
                // column got `+ 0.0`. A mat-vec sum from `+0.0` is never
                // `−0.0`, so those `+ 0.0`s change no bit and the column
                // is the move-or-add of `dinp[0]` alone.
                let v = dinp[0];
                dser[t] = prior_x.map_or(v, |p| p[t] + v);
                &dinp[1..]
            }
        };
        for (a, &d) in dx.iter_mut().zip(x_part) {
            *a += d;
        }
        if t > 0 {
            dh.fill(0.0);
            axpy_rows(dh, g4, |j| dg[j], wh_t);
        }
    }
}

/// The weight-gradient contributions of steps `t0..t0 + out.len() /
/// per_step`, each step's from `+0.0` over the rows in ascending order,
/// into the zeroed `out`: per step `[dWh | db | dhead_w, dhead_b]`
/// (projected) or `[dWh | db | dWx]` (series). `rows` holds each row's
/// backward chunk (stride `grad_row`), `saved` its records (stride
/// `saved_row`). Rows are the outer loop, so each row's gate gradients
/// and states for the block of steps are read contiguously.
#[allow(clippy::too_many_arguments)]
fn weight_steps(
    seq: &Seq<'_>,
    t0: usize,
    n: usize,
    saved: &[f32],
    saved_row: usize,
    rows: &[f32],
    grad_row: usize,
    g: &[f32],
    out: &mut [f32],
) {
    let (hs, steps) = (seq.hs, seq.steps);
    let g4 = 4 * hs;
    let rec = seq.rec();
    let per_step = out.len() / STEPS;
    for r in 0..n {
        let records = &saved[r * saved_row..];
        for (dt, out) in out.chunks_exact_mut(per_step).enumerate() {
            let t = t0 + dt;
            if t >= steps {
                break;
            }
            let dg = &rows[r * grad_row + t * g4..][..g4];
            let (dwh, rest) = out.split_at_mut(hs * g4);
            let (db, rest) = rest.split_at_mut(g4);
            // Record t holds step t−1's hidden state (zero for t = 0),
            // record t + 1 step t's.
            let h_prev = &records[t * rec + 6 * hs..][..hs];
            for (dwh_p, &hv) in dwh.chunks_exact_mut(g4).zip(h_prev) {
                if hv != 0.0 {
                    axpy(dwh_p, hv, dg);
                }
            }
            for (a, &d) in db.iter_mut().zip(dg) {
                *a += d;
            }
            match seq.feed {
                Feed::Projected { .. } => {
                    let (dhw, dhb) = rest.split_at_mut(hs);
                    let h = &records[(t + 1) * rec + 6 * hs..][..hs];
                    let gy = g[r * steps + t];
                    for (a, &hv) in dhw.iter_mut().zip(h) {
                        if hv != 0.0 {
                            *a += hv * gy;
                        }
                    }
                    dhb[0] += gy;
                }
                Feed::Series {
                    series, ctx, c: cw, ..
                } => {
                    let inputs = std::iter::once(series[r * steps + t])
                        .chain(ctx[r * cw..(r + 1) * cw].iter().copied());
                    for (dwx_p, xv) in rest.chunks_exact_mut(g4).zip(inputs) {
                        if xv != 0.0 {
                            axpy(dwx_p, xv, dg);
                        }
                    }
                }
            }
        }
    }
}

/// The tape's move-or-add rule for a contribution held in a slice.
fn acc_slice(grads: &mut [Option<Tensor>], id: usize, like: &Tensor, contrib: &[f32]) {
    match &mut grads[id] {
        Some(existing) => {
            for (a, &c) in existing.data_mut().iter_mut().zip(contrib) {
                *a += c;
            }
        }
        slot @ None => {
            *slot = Some(Tensor::from_vec(
                arena::clone_buf(contrib),
                like.shape().clone(),
            ))
        }
    }
}

/// Writes rows of a final input gradient into slot `id`, creating it
/// when absent. `rows` holds each sequence row's chunk (stride
/// `row_len`), whose `offset..offset + width` part is that row of the
/// slot.
fn store_rows(
    grads: &mut [Option<Tensor>],
    id: usize,
    like: &Tensor,
    rows: &[f32],
    row_len: usize,
    offset: usize,
    width: usize,
) {
    let slot = grads[id].get_or_insert_with(|| Tensor::zeros(like.shape().clone()));
    for (dst, src) in slot
        .data_mut()
        .chunks_exact_mut(width)
        .zip(rows.chunks_exact(row_len))
    {
        dst.copy_from_slice(&src[offset..offset + width]);
    }
}

/// Backward of an [`Op::LstmSeq`](crate::Op::LstmSeq) node with
/// upstream gradient `g`; see the module docs for the order it keeps.
pub(crate) fn backward(
    input: &SeqInput,
    wh: usize,
    b: usize,
    saved: &Tensor,
    values: &[Rc<Tensor>],
    g: &Tensor,
    grads: &mut [Option<Tensor>],
) {
    let n = saved.shape().dim(0);
    let saved_row = saved.shape().dim(1);
    let steps = match *input {
        SeqInput::Projected { .. } => g.shape().dim(1),
        SeqInput::Series { series, .. } => values[series].shape().dim(1),
    };
    let seq = seq_view(input, &|id| &*values[id], wh, b, steps);
    let (hs, g4, in_w) = (seq.hs, 4 * seq.hs, seq.in_width());
    let wh_t = values[wh].transpose2();
    let wx_t = match *input {
        SeqInput::Projected { .. } => None,
        SeqInput::Series { wx, .. } => Some(values[wx].transpose2()),
    };
    let (x_id, x_width, ctx_id, c) = match *input {
        SeqInput::Projected { xw, .. } => (xw, g4, None, 0),
        SeqInput::Series { series, ctx, .. } => {
            (series, steps, Some(ctx), values[ctx].shape().dim(1))
        }
    };
    let grad_len = if in_w == 0 { g4 } else { steps + c };
    let grad_row = steps * g4 + grad_len + 2 * hs + in_w;
    let mut rows = arena::take_zeroed(n * grad_row);
    let macs = n * steps * seq.macs_per_row_step();
    {
        let prior_x = grads[x_id].as_ref().map(|t| t.data());
        let prior_ctx = ctx_id.and_then(|id| grads[id].as_ref()).map(|t| t.data());
        let width = g.shape().dim(1);
        pool::par_chunks_mut_macs(&mut rows, grad_row, macs, |r, chunk| {
            backward_row(
                &seq,
                wh_t.data(),
                wx_t.as_ref().map_or(&[], |t| t.data()),
                &saved.data()[r * saved_row..],
                &g.data()[r * width..(r + 1) * width],
                prior_x.map(|p| &p[r * x_width..(r + 1) * x_width]),
                prior_ctx.map(|p| &p[r * c..(r + 1) * c]),
                chunk,
            );
        });
    }
    let base = steps * g4;
    match ctx_id {
        None => store_rows(grads, x_id, &values[x_id], &rows, grad_row, base, g4),
        Some(ctx) => {
            store_rows(grads, x_id, &values[x_id], &rows, grad_row, base, steps);
            if c > 0 {
                store_rows(grads, ctx, &values[ctx], &rows, grad_row, base + steps, c);
            }
        }
    }
    let per_step = hs * g4 + g4 + if in_w == 0 { hs + 1 } else { in_w * g4 };
    let mut contribs = arena::take_zeroed(steps.div_ceil(STEPS) * STEPS * per_step);
    pool::par_chunks_mut_macs(&mut contribs, STEPS * per_step, macs, |block, out| {
        weight_steps(
            &seq,
            block * STEPS,
            n,
            saved.data(),
            saved_row,
            &rows,
            grad_row,
            g.data(),
            out,
        );
    });
    for t in (0..steps).rev() {
        let step = &contribs[t * per_step..(t + 1) * per_step];
        let (dwh, rest) = step.split_at(hs * g4);
        let (db, rest) = rest.split_at(g4);
        acc_slice(grads, wh, &values[wh], dwh);
        acc_slice(grads, b, &values[b], db);
        match *input {
            SeqInput::Projected { head_w, head_b, .. } => {
                acc_slice(grads, head_w, &values[head_w], &rest[..hs]);
                acc_slice(grads, head_b, &values[head_b], &rest[hs..]);
            }
            SeqInput::Series { wx, .. } => acc_slice(grads, wx, &values[wx], rest),
        }
    }
    arena::recycle(contribs);
    arena::recycle(rows);
}
