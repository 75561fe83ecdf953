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
//! * Every matrix product goes through [`gemm`], which sums each
//!   element like the scalar matmul: in a register from `+0.0`, in
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
//! **Blocking.** The forward pass and the per-row half of the backward
//! run [`ROWS`] rows in lockstep, so each product is a small
//! `[ROWS × K]·[K × n]` matrix product whose right operand is loaded
//! once for all the rows, and whose sums stay in registers across the
//! inner index instead of being stored and reloaded at every term. The
//! weight pass sums each `4H`-wide row of a step's weight gradient over
//! all sequence rows in registers the same way. Blocking never changes
//! what an element sums, or in which order, so the bits do not depend
//! on it.
//!
//! **Entries.** Each kernel is one `#[inline(always)]` body compiled
//! twice: a baseline entry, and an entry built with AVX2 enabled, which
//! runs when the CPU reports AVX2 ([`Isa::detect`]). Rust never fuses a
//! multiply and an add into one rounding, and the AVX2 entry does not
//! enable FMA, so both entries compute the same bits; the unit tests
//! below check this.
//!
//! **Parallelism.** Rows are independent recurrences: the forward pass
//! and the per-row half of the backward run each block of rows in its
//! own slice, one pool call per pass. The weight gradients are split by
//! step, one pool call, and folded into the slots in step order on the
//! calling thread. Which thread ran a block never changes what it
//! computes, so results are bit-identical at any thread count, under
//! either backend. Every buffer of the taped node comes from the
//! calling thread's [`arena`] before the pool call and reaches the
//! workers as disjoint slices.
//!
//! Activations are [`math`]'s `sigmoid_slice` and `tanh_slice`,
//! inlined into each entry, so the AVX2 entry runs them on packed
//! lanes. They are the functions the per-step ops use, under both
//! backends, and so is every other step: one implementation for both.

use crate::arena;
use crate::math;
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

impl SeqInput {
    /// Whether `pred` holds for any operand of the feed.
    pub(crate) fn any(&self, pred: impl Fn(usize) -> bool) -> bool {
        match *self {
            SeqInput::Projected { xw, head_w, head_b } => pred(xw) || pred(head_w) || pred(head_b),
            SeqInput::Series { series, ctx, wx } => pred(series) || pred(ctx) || pred(wx),
        }
    }
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

/// Rows per block of the forward pass and of the backward's per-row
/// pass.
const ROWS: usize = 4;

/// Steps per task of the weight-gradient pass.
const STEPS: usize = 8;

/// Calls `$f::<M>(args)` for a block of `M = $m` rows, `1 ≤ M ≤ ROWS`.
macro_rules! by_rows {
    ($m:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match $m {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            ROWS => $f::<ROWS>($($arg),*),
            m => unreachable!("a block of {m} rows"),
        }
    };
}

/// Which compiled copy of a kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// Built for the target's baseline features.
    Base,
    /// Built with AVX2 enabled. Only [`Isa::detect`] and the tests make
    /// it, and only on a CPU that reports AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// The AVX2 entry when the CPU has AVX2, else the baseline one.
    fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Base
    }
}

/// `out[i][k] = Σ_l a(i, l) · b(l)[k]` for `i < M`, `k < n` (the
/// common length of the `out` rows; `b(l)` has at least `n` elements).
///
/// Each element is summed in a register from `+0.0` over ascending
/// `l < inner`, skipping every `l` with `a(i, l) == 0` — the scalar
/// matmul's per-element order, for any input, `±inf` and NaN included.
/// The skip is one scalar branch per `(i, l)`, shared by the lanes of a
/// column tile. Columns go in tiles of 64 (one row alone), then 16, 8,
/// 4 and 1, none of which changes what an element sums.
#[inline(always)]
fn gemm<'b, const M: usize>(
    inner: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize) -> &'b [f32],
    out: &mut [&mut [f32]; M],
) {
    let n = out[0].len();
    debug_assert!(out.iter().all(|o| o.len() == n));
    let mut k0 = 0;
    if M == 1 {
        while k0 + 64 <= n {
            tile::<M, 64>(k0, inner, &a, &b, out);
            k0 += 64;
        }
    }
    while k0 + 16 <= n {
        tile::<M, 16>(k0, inner, &a, &b, out);
        k0 += 16;
    }
    if k0 + 8 <= n {
        tile::<M, 8>(k0, inner, &a, &b, out);
        k0 += 8;
    }
    if k0 + 4 <= n {
        tile::<M, 4>(k0, inner, &a, &b, out);
        k0 += 4;
    }
    while k0 < n {
        tile::<M, 1>(k0, inner, &a, &b, out);
        k0 += 1;
    }
}

/// Columns `k0..k0 + W` of [`gemm`].
#[inline(always)]
fn tile<'b, const M: usize, const W: usize>(
    k0: usize,
    inner: usize,
    a: &impl Fn(usize, usize) -> f32,
    b: &impl Fn(usize) -> &'b [f32],
    out: &mut [&mut [f32]; M],
) {
    let mut acc = [[0.0f32; W]; M];
    for l in 0..inner {
        let row = &b(l)[k0..k0 + W];
        for (i, acc) in acc.iter_mut().enumerate() {
            let s = a(i, l);
            if s != 0.0 {
                for (v, &w) in acc.iter_mut().zip(row) {
                    *v += s * w;
                }
            }
        }
    }
    for (o, acc) in out.iter_mut().zip(&acc) {
        o[k0..k0 + W].copy_from_slice(acc);
    }
}

/// The first `M` rows of length `len` of `data` (`M` empty slices when
/// `len` is zero).
fn rows_of<const M: usize>(data: &mut [f32], len: usize) -> [&mut [f32]; M] {
    if len == 0 {
        return std::array::from_fn(|_| <&mut [f32]>::default());
    }
    let mut it = data.chunks_exact_mut(len);
    std::array::from_fn(|_| it.next().expect("a block holds M rows"))
}

/// Splits the first `len` elements off each of `rows`.
fn peel<'a, const M: usize>(rows: &mut [&'a mut [f32]; M], len: usize) -> [&'a mut [f32]; M] {
    std::array::from_fn(|i| {
        let (head, tail) = std::mem::take(&mut rows[i]).split_at_mut(len);
        rows[i] = tail;
        head
    })
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

/// Runs the recurrences of rows `row0..row0 + M` from the zero state,
/// in lockstep, through the entry `isa` names. Row `i`'s
/// `records[i]` holds record 0, the zero state, which is never
/// written; steps write records `1..=ring` in turn (`ring ≥ 2` unless
/// there is one step), each reading the one written before. `xwt[i]`
/// is `4H` of scratch for the series feed (empty otherwise). `out[i]`
/// receives the head series (projected feed) or the last hidden state
/// (series feed).
fn forward_rows<const M: usize>(
    isa: Isa,
    seq: &Seq<'_>,
    row0: usize,
    records: [&mut [f32]; M],
    ring: usize,
    xwt: [&mut [f32]; M],
    out: [&mut [f32]; M],
) {
    match isa {
        Isa::Base => forward_rows_body(seq, row0, records, ring, xwt, out),
        // SAFETY: `Isa::Avx2` is only made on a CPU that reports AVX2.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { forward_rows_avx2(seq, row0, records, ring, xwt, out) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn forward_rows_avx2<const M: usize>(
    seq: &Seq<'_>,
    row0: usize,
    records: [&mut [f32]; M],
    ring: usize,
    xwt: [&mut [f32]; M],
    out: [&mut [f32]; M],
) {
    forward_rows_body(seq, row0, records, ring, xwt, out)
}

#[inline(always)]
fn forward_rows_body<const M: usize>(
    seq: &Seq<'_>,
    row0: usize,
    mut records: [&mut [f32]; M],
    ring: usize,
    mut xwt: [&mut [f32]; M],
    mut out: [&mut [f32]; M],
) {
    let hs = seq.hs;
    let g4 = 4 * hs;
    let rec = seq.rec();
    let (mut prev, mut cur) = (0, 1);
    for t in 0..seq.steps {
        if t > 0 {
            prev = cur;
            cur = if cur == ring { 1 } else { cur + 1 };
        }
        let mut recs = records.iter_mut();
        let pairs: [(&[f32], &mut [f32]); M] = std::array::from_fn(|_| {
            let r = recs.next().expect("one record ring per row");
            step_records(r, rec, prev, cur)
        });
        let prevs: [&[f32]; M] = std::array::from_fn(|i| pairs[i].0);
        let mut state = pairs.map(|(_, cur)| cur);
        let mut gates = peel(&mut state, g4);
        gemm(
            hs,
            |i, p| prevs[i][6 * hs + p],
            |p| &seq.wh[p * g4..(p + 1) * g4],
            &mut gates,
        );
        if let Feed::Series {
            series,
            ctx,
            wx,
            c: cw,
        } = seq.feed
        {
            // x_t = [series[row, t], ctx[row, ..]], series first.
            gemm(
                1 + cw,
                |i, p| {
                    let row = row0 + i;
                    if p == 0 {
                        series[row * seq.steps + t]
                    } else {
                        ctx[row * cw + p - 1]
                    }
                },
                |p| &wx[p * g4..(p + 1) * g4],
                &mut xwt,
            );
        }
        for i in 0..M {
            let x: &[f32] = match seq.feed {
                Feed::Projected { xw, .. } => &xw[(row0 + i) * g4..(row0 + i + 1) * g4],
                Feed::Series { .. } => &*xwt[i],
            };
            let gates = &mut *gates[i];
            for ((g, &xv), &bv) in gates.iter_mut().zip(x).zip(seq.b) {
                *g = (xv + *g) + bv;
            }
            math::sigmoid_slice(&mut gates[..2 * hs]);
            math::tanh_slice(&mut gates[2 * hs..3 * hs]);
            math::sigmoid_slice(&mut gates[3 * hs..]);
            let (ig, rest) = gates.split_at(hs);
            let (f, rest) = rest.split_at(hs);
            let (g, o) = rest.split_at(hs);
            let c_prev = &prevs[i][g4..g4 + hs];
            let (c, rest) = state[i].split_at_mut(hs);
            let (tanh_c, h) = rest.split_at_mut(hs);
            for ((cv, (&fv, &cp)), (&iv, &gv)) in
                c.iter_mut().zip(f.iter().zip(c_prev)).zip(ig.iter().zip(g))
            {
                *cv = fv * cp + iv * gv;
            }
            tanh_c.copy_from_slice(c);
            math::tanh_slice(tanh_c);
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
                out[i][t] = y + head_b;
            }
        }
    }
    if let Feed::Series { .. } = seq.feed {
        for (o, r) in out.iter_mut().zip(&records) {
            o.copy_from_slice(&r[cur * rec + 6 * hs..(cur + 1) * rec]);
        }
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
/// Blocks of rows run in their own scratch across the pool, on the
/// calling thread alone when the whole rollout is below
/// [`pool::MIN_PARALLEL_MACS`] multiply-adds.
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
    let isa = Isa::detect();
    let macs = n * t_out * seq.macs_per_row_step();
    pool::par_blocks_mut_macs(out.data_mut(), ROWS * t_out, macs, |block, series| {
        let m = series.len() / t_out;
        by_rows!(m, rollout_rows(isa, &seq, block * ROWS, series));
    });
    out
}

/// One block of [`rollout`]: each row's ring is three records, the
/// zero state and two steps.
fn rollout_rows<const M: usize>(isa: Isa, seq: &Seq<'_>, row0: usize, series: &mut [f32]) {
    let ring = 3 * seq.rec();
    let mut records = vec![0.0f32; M * ring];
    let records = rows_of::<M>(&mut records, ring);
    let out = rows_of::<M>(series, seq.steps);
    forward_rows(isa, seq, row0, records, 2, rows_of::<M>(&mut [], 0), out);
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
    forward_with(Isa::detect(), input, value, wh, b, steps)
}

fn forward_with<'a>(
    isa: Isa,
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
    let layout = (row_len, records, scratch);
    pool::par_blocks_mut_macs(saved.data_mut(), ROWS * row_len, macs, |block, chunk| {
        let m = chunk.len() / row_len;
        by_rows!(m, taped_rows(isa, &seq, block * ROWS, chunk, layout));
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

/// One block of the taped forward: each saved row is `(row_len,
/// records, scratch)` = `[records | scratch | out]`.
fn taped_rows<const M: usize>(
    isa: Isa,
    seq: &Seq<'_>,
    row0: usize,
    chunk: &mut [f32],
    (row_len, records, scratch): (usize, usize, usize),
) {
    let mut rows = rows_of::<M>(chunk, row_len);
    let recs = peel(&mut rows, records);
    let xwt = peel(&mut rows, scratch);
    forward_rows(isa, seq, row0, recs, seq.steps, xwt, rows);
}

/// Read-only operands of the backward's per-row pass.
struct RowPass<'a> {
    seq: &'a Seq<'a>,
    /// `Whᵀ: [4H, H]`.
    wh_t: &'a [f32],
    /// `Wxᵀ: [4H, 1 + C]` (series feed with an input gradient wanted).
    wx_t: &'a [f32],
    /// Saved rows of the forward pass, `saved_row` apart.
    saved: &'a [f32],
    saved_row: usize,
    /// The node's upstream gradient, `g_width` per row.
    g: &'a [f32],
    g_width: usize,
    /// Gradients the `xw`/series slot and the context slot already
    /// hold, when they do.
    prior_x: Option<&'a [f32]>,
    prior_ctx: Option<&'a [f32]>,
    /// Whether the input gradients are wanted at all.
    inputs: bool,
    /// Length of one row's chunk, `[dgates: steps·4H | input gradient |
    /// scratch]`.
    grad_row: usize,
}

/// The backward through time of rows `row0..row0 + M`, in lockstep,
/// through the entry `isa` names. `block` holds each row's chunk
/// (`pass.grad_row` long): `[dgates: steps·4H | input gradient |
/// scratch]`, where the input gradient is the row of the final `xw`
/// slot (projected) or of the series then context slots (series),
/// seeded from the prior gradients when those slots already hold one.
///
/// A slot that receives its first contribution starts at `−0.0`, the
/// exact additive identity (`−0.0 + x` is `x` for every `x`, `±0.0`
/// included), so "move the first contribution in, add the rest" is one
/// branch-free `+=`.
fn backward_rows<const M: usize>(isa: Isa, pass: &RowPass<'_>, row0: usize, block: &mut [f32]) {
    match isa {
        Isa::Base => backward_rows_body::<M>(pass, row0, block),
        // SAFETY: `Isa::Avx2` is only made on a CPU that reports AVX2.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { backward_rows_avx2::<M>(pass, row0, block) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn backward_rows_avx2<const M: usize>(pass: &RowPass<'_>, row0: usize, block: &mut [f32]) {
    backward_rows_body::<M>(pass, row0, block)
}

#[inline(always)]
fn backward_rows_body<const M: usize>(pass: &RowPass<'_>, row0: usize, block: &mut [f32]) {
    let seq = pass.seq;
    let (hs, steps) = (seq.hs, seq.steps);
    let g4 = 4 * hs;
    let rec = seq.rec();
    let in_w = seq.in_width();
    let mut rest = rows_of::<M>(block, pass.grad_row);
    let dgates = peel(&mut rest, steps * g4);
    // The input gradient: the xw row (projected), or the series row
    // `dser` then the context row (series); `dx` is the xw or context
    // row.
    let dser = peel(&mut rest, if in_w == 0 { 0 } else { steps });
    let mut dx = peel(&mut rest, if in_w == 0 { g4 } else { in_w - 1 });
    let mut dh = peel(&mut rest, hs);
    let dc = peel(&mut rest, hs);
    let mut dinp = peel(&mut rest, in_w);
    let (x_width, prior) = match seq.feed {
        Feed::Projected { .. } => (g4, pass.prior_x),
        Feed::Series { .. } => (in_w - 1, pass.prior_ctx),
    };
    for i in 0..M {
        if pass.inputs {
            let r = row0 + i;
            match prior {
                Some(p) => dx[i].copy_from_slice(&p[r * x_width..(r + 1) * x_width]),
                None => dx[i].fill(-0.0),
            }
        }
        // `dh` and `dc` hold step t+1's recurrent contributions, which
        // arrive first; the last step has none.
        dh[i].fill(-0.0);
        dc[i].fill(-0.0);
    }
    for t in (0..steps).rev() {
        for i in 0..M {
            let r = row0 + i;
            let records = &pass.saved[r * pass.saved_row..];
            let g_row = &pass.g[r * pass.g_width..(r + 1) * pass.g_width];
            // Record t is step t−1's state (the zero state for t = 0).
            let cur = &records[(1 + t) * rec..(2 + t) * rec];
            let c_prev = &records[t * rec + g4..t * rec + g4 + hs];
            let (ig, f) = (&cur[..hs], &cur[hs..2 * hs]);
            let (g, o) = (&cur[2 * hs..3 * hs], &cur[3 * hs..g4]);
            let tanh_c = &cur[5 * hs..6 * hs];
            let dh = &mut *dh[i];
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
            let dg = &mut dgates[i][t * g4..(t + 1) * g4];
            let (dg_i, rest) = dg.split_at_mut(hs);
            let (dg_f, rest) = rest.split_at_mut(hs);
            let (dg_g, dg_o) = rest.split_at_mut(hs);
            let (dh_t, dc_t, c_prev) = (&dh[..hs], &mut dc[i][..hs], &c_prev[..hs]);
            for k in 0..hs {
                let d_o = dh_t[k] * tanh_c[k];
                let d_tanh_c = dh_t[k] * o[k];
                let dck = dc_t[k] + d_tanh_c * (1.0 - tanh_c[k] * tanh_c[k]);
                let d_i = dck * g[k];
                let d_g = dck * ig[k];
                let d_f = dck * c_prev[k];
                dc_t[k] = dck * f[k];
                dg_i[k] = d_i * ig[k] * (1.0 - ig[k]) + 0.0;
                dg_f[k] = d_f * f[k] * (1.0 - f[k]) + 0.0;
                dg_g[k] = d_g * (1.0 - g[k] * g[k]) + 0.0;
                dg_o[k] = d_o * o[k] * (1.0 - o[k]) + 0.0;
            }
        }
        if pass.inputs {
            match seq.feed {
                Feed::Projected { .. } => {
                    for (dx, dg) in dx.iter_mut().zip(&dgates) {
                        for (a, &d) in dx.iter_mut().zip(&dg[t * g4..(t + 1) * g4]) {
                            *a += d;
                        }
                    }
                }
                Feed::Series { .. } => {
                    gemm(
                        g4,
                        |i, j| dgates[i][t * g4 + j],
                        |j| &pass.wx_t[j * in_w..(j + 1) * in_w],
                        &mut dinp,
                    );
                    for i in 0..M {
                        // The per-step `narrow` scattered `dinp[0]` into
                        // column t of zeros and added it to the slot;
                        // every other column got `+ 0.0`. A sum from
                        // `+0.0` is never `−0.0`, so those `+ 0.0`s
                        // change no bit and the column is the
                        // move-or-add of `dinp[0]` alone.
                        let v = dinp[i][0];
                        let r = row0 + i;
                        dser[i][t] = pass.prior_x.map_or(v, |p| p[r * steps + t] + v);
                        for (a, &d) in dx[i].iter_mut().zip(&dinp[i][1..]) {
                            *a += d;
                        }
                    }
                }
            }
        }
        if t > 0 {
            gemm(
                g4,
                |i, j| dgates[i][t * g4 + j],
                |j| &pass.wh_t[j * hs..(j + 1) * hs],
                &mut dh,
            );
        }
    }
}

/// Read-only operands of the weight pass.
struct WeightPass<'a> {
    seq: &'a Seq<'a>,
    n: usize,
    saved: &'a [f32],
    saved_row: usize,
    /// The per-row pass's chunks, `grad_row` apart; each starts with
    /// the row's `steps·4H` gate gradients.
    rows: &'a [f32],
    grad_row: usize,
    /// The node's upstream gradient (the projected feed's head series).
    g: &'a [f32],
    /// Floats per step of a task's output.
    per_step: usize,
}

/// The weight-gradient contributions of steps `t0..t0 + STEPS` (those
/// below `steps`), through the entry `isa` names. `chunk` is
/// `[STEPS · per_step | panel]`, the panel holding `N · (H + 1 +
/// in_width)` floats; each step's part receives `[dWh | db | dWx]`
/// (series) or `[dWh | db | dhead_w, dhead_b]` (projected), each
/// computed on its own from `+0.0` over the sequence rows in ascending
/// order.
fn weight_steps(isa: Isa, pass: &WeightPass<'_>, t0: usize, chunk: &mut [f32]) {
    match isa {
        Isa::Base => weight_steps_body(pass, t0, chunk),
        // SAFETY: `Isa::Avx2` is only made on a CPU that reports AVX2.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { weight_steps_avx2(pass, t0, chunk) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn weight_steps_avx2(pass: &WeightPass<'_>, t0: usize, chunk: &mut [f32]) {
    weight_steps_body(pass, t0, chunk)
}

#[inline(always)]
fn weight_steps_body(pass: &WeightPass<'_>, t0: usize, chunk: &mut [f32]) {
    let seq = pass.seq;
    let (hs, steps, n) = (seq.hs, seq.steps, pass.n);
    let g4 = 4 * hs;
    let rec = seq.rec();
    // `[dWh | db | dWx]` is one product, `Aᵀ·dgates_t`, where row r of
    // A is `[h_{t−1} | 1 | x_t]`: a factor 1 is never skipped and
    // multiplies exactly, so the bias row is the plain sum of the gate
    // gradients. Each of its rows is summed over all sequence rows in
    // registers, `4H` lanes at a time.
    let mats = hs + 1 + seq.in_width();
    let (contribs, panel) = chunk.split_at_mut(STEPS * pass.per_step);
    for (dt, out) in contribs.chunks_exact_mut(pass.per_step).enumerate() {
        let t = t0 + dt;
        if t >= steps {
            break;
        }
        // Row r of A, packed: `[h_{t−1} | 1 | x_t]` (record t holds step
        // t−1's hidden state, zero at t = 0).
        for (r, a) in panel.chunks_exact_mut(mats).enumerate() {
            let (h, rest) = a.split_at_mut(hs);
            h.copy_from_slice(&pass.saved[r * pass.saved_row + t * rec + 6 * hs..][..hs]);
            rest[0] = 1.0;
            if let Feed::Series {
                series, ctx, c: cw, ..
            } = seq.feed
            {
                rest[1] = series[r * steps + t];
                rest[2..].copy_from_slice(&ctx[r * cw..(r + 1) * cw]);
            }
        }
        let (mat, head) = out.split_at_mut(mats * g4);
        for (p, row) in mat.chunks_exact_mut(g4).enumerate() {
            gemm(
                n,
                |_, r| panel[r * mats + p],
                |r| &pass.rows[r * pass.grad_row + t * g4..][..g4],
                &mut [row],
            );
        }
        if let Feed::Projected { .. } = seq.feed {
            let (dhw, dhb) = head.split_at_mut(hs);
            for r in 0..n {
                let h = &pass.saved[r * pass.saved_row + (t + 1) * rec + 6 * hs..][..hs];
                let gy = pass.g[r * steps + t];
                for (a, &hv) in dhw.iter_mut().zip(h) {
                    if hv != 0.0 {
                        *a += hv * gy;
                    }
                }
                dhb[0] += gy;
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
/// upstream gradient `g`, into the operands `need` marks; see the
/// module docs for the order it keeps. Without a marked weight the
/// weight pass is skipped, and without a marked input the input
/// gradients are.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backward(
    input: &SeqInput,
    wh: usize,
    b: usize,
    saved: &Tensor,
    values: &[Rc<Tensor>],
    g: &Tensor,
    grads: &mut [Option<Tensor>],
    need: &[bool],
) {
    backward_with(Isa::detect(), input, wh, b, saved, values, g, grads, need)
}

#[allow(clippy::too_many_arguments)]
fn backward_with(
    isa: Isa,
    input: &SeqInput,
    wh: usize,
    b: usize,
    saved: &Tensor,
    values: &[Rc<Tensor>],
    g: &Tensor,
    grads: &mut [Option<Tensor>],
    need: &[bool],
) {
    let (x_id, ctx_id, wx_id) = match *input {
        SeqInput::Projected { xw, .. } => (xw, None, None),
        SeqInput::Series { series, ctx, wx } => (series, Some(ctx), Some(wx)),
    };
    let need_ctx = ctx_id.is_some_and(|id| need[id]);
    let inputs = need[x_id] || need_ctx;
    let weights = need[wh]
        || need[b]
        || match *input {
            SeqInput::Projected { head_w, head_b, .. } => need[head_w] || need[head_b],
            SeqInput::Series { wx, .. } => need[wx],
        };
    if !inputs && !weights {
        return;
    }
    let n = saved.shape().dim(0);
    let saved_row = saved.shape().dim(1);
    let steps = match *input {
        SeqInput::Projected { .. } => g.shape().dim(1),
        SeqInput::Series { series, .. } => values[series].shape().dim(1),
    };
    let seq = seq_view(input, &|id| &*values[id], wh, b, steps);
    let (hs, g4, in_w) = (seq.hs, 4 * seq.hs, seq.in_width());
    let c = in_w.saturating_sub(1);
    let wh_t = values[wh].transpose2();
    let wx_t = wx_id.filter(|_| inputs).map(|wx| values[wx].transpose2());
    let x_width = if in_w == 0 { g4 } else { steps };
    let grad_len = if in_w == 0 { g4 } else { steps + c };
    let grad_row = steps * g4 + grad_len + 2 * hs + in_w;
    let mut rows = arena::take_zeroed(n * grad_row);
    let macs = n * steps * seq.macs_per_row_step();
    {
        let pass = RowPass {
            seq: &seq,
            wh_t: wh_t.data(),
            wx_t: wx_t.as_ref().map_or(&[], |t| t.data()),
            saved: saved.data(),
            saved_row,
            g: g.data(),
            g_width: g.shape().dim(1),
            prior_x: grads[x_id].as_ref().map(|t| t.data()),
            prior_ctx: ctx_id.and_then(|id| grads[id].as_ref()).map(|t| t.data()),
            inputs,
            grad_row,
        };
        pool::par_blocks_mut_macs(&mut rows, ROWS * grad_row, macs, |block, chunk| {
            let m = chunk.len() / grad_row;
            by_rows!(m, backward_rows(isa, &pass, block * ROWS, chunk));
        });
    }
    let base = steps * g4;
    if need[x_id] {
        store_rows(grads, x_id, &values[x_id], &rows, grad_row, base, x_width);
    }
    if let Some(ctx) = ctx_id.filter(|_| need_ctx && c > 0) {
        store_rows(grads, ctx, &values[ctx], &rows, grad_row, base + steps, c);
    }
    if weights {
        let per_step = (hs + 1 + in_w) * g4 + if in_w == 0 { hs + 1 } else { 0 };
        let task_len = STEPS * per_step + n * (hs + 1 + in_w);
        let mut contribs = arena::take_zeroed(steps.div_ceil(STEPS) * task_len);
        let pass = WeightPass {
            seq: &seq,
            n,
            saved: saved.data(),
            saved_row,
            rows: &rows,
            grad_row,
            g: g.data(),
            per_step,
        };
        pool::par_chunks_mut_macs(&mut contribs, task_len, macs, |task, chunk| {
            weight_steps(isa, &pass, task * STEPS, chunk);
        });
        for t in (0..steps).rev() {
            let step = &contribs[(t / STEPS) * task_len + (t % STEPS) * per_step..][..per_step];
            let (dwh, rest) = step.split_at(hs * g4);
            let (db, rest) = rest.split_at(g4);
            let mut give = |id: usize, contrib: &[f32]| {
                if need[id] {
                    acc_slice(grads, id, &values[id], contrib);
                }
            };
            give(wh, dwh);
            give(b, db);
            match *input {
                SeqInput::Projected { head_w, head_b, .. } => {
                    give(head_w, &rest[..hs]);
                    give(head_b, &rest[hs..]);
                }
                SeqInput::Series { wx, .. } => give(wx, rest),
            }
        }
        arena::recycle(contribs);
    }
    arena::recycle(rows);
}

#[cfg(test)]
mod tests {
    //! The kernels' two entries against each other and against the
    //! per-step tape chain the node replaces, on random shapes of both
    //! feeds: rows 1–9, hidden 1–17, context 0–13 and steps 1–12, with
    //! `±0.0`, `±inf` and NaN in the weights, the inputs and the
    //! upstream gradient. The forward, the blocked per-row backward and
    //! the weight pass all run through the entry under test. NaN
    //! payloads are not compared: Rust does not say which NaN an
    //! operation on NaNs returns.

    use super::*;
    use crate::backend::{set_backend, BackendKind, TEST_LOCK};
    use crate::tape::{Tape, Var};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Normal draws times `scale`, about one element in `rate` replaced
    /// by `±0.0`, `±inf` or NaN (`rate == 0` keeps them finite).
    fn seeded(shape: &[usize], scale: f32, rate: u32, rng: &mut StdRng) -> Tensor {
        const SPECIALS: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let mut t = Tensor::randn(shape.to_vec(), rng).scale(scale);
        if rate > 0 {
            for v in t.data_mut() {
                if rng.gen_range(0..rate) == 0 {
                    *v = SPECIALS[rng.gen_range(0..SPECIALS.len())];
                }
            }
        }
        t
    }

    /// One sequence: its operands as nodes `0..5` — `[xw, head_w,
    /// head_b, Wh, b]` or `[series, ctx, Wx, Wh, b]` — and the upstream
    /// gradient of its value.
    struct Case {
        input: SeqInput,
        hs: usize,
        steps: usize,
        ops: Vec<Tensor>,
        g: Tensor,
    }

    fn case(rng: &mut StdRng) -> Case {
        let (n, hs) = (rng.gen_range(1..=9), rng.gen_range(1..=17));
        let (c, steps) = (rng.gen_range(0..=13), rng.gen_range(1..=12));
        let rate: u32 = [0, 5, 23][rng.gen_range(0..3usize)];
        let series = rng.gen_range(0..2) == 0;
        let mut t = |shape: &[usize], scale: f32| seeded(shape, scale, rate, rng);
        let (input, ops, width) = if series {
            let ops = vec![
                t(&[n, steps], 1.0),
                t(&[n, c], 1.0),
                t(&[1 + c, 4 * hs], 0.5),
                t(&[hs, 4 * hs], 0.5),
                t(&[4 * hs], 0.5),
            ];
            let input = SeqInput::Series {
                series: 0,
                ctx: 1,
                wx: 2,
            };
            (input, ops, hs)
        } else {
            let ops = vec![
                t(&[n, 4 * hs], 1.0),
                t(&[hs, 1], 0.5),
                t(&[1], 0.5),
                t(&[hs, 4 * hs], 0.5),
                t(&[4 * hs], 0.5),
            ];
            let input = SeqInput::Projected {
                xw: 0,
                head_w: 1,
                head_b: 2,
            };
            (input, ops, steps)
        };
        let g = t(&[n, width], 1.0);
        Case {
            input,
            hs,
            steps,
            ops,
            g,
        }
    }

    fn bits(t: Option<&Tensor>) -> Vec<u32> {
        t.map_or_else(Vec::new, |t| {
            t.data()
                .iter()
                .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
                .collect()
        })
    }

    /// The node's value, then each operand's gradient, through `isa`.
    fn fused(c: &Case, isa: Isa) -> Vec<Vec<u32>> {
        let values: Vec<Rc<Tensor>> = c.ops.iter().cloned().map(Rc::new).collect();
        let value = |id: usize| -> &Tensor { &values[id] };
        let (out, saved) = forward_with(isa, &c.input, value, 3, 4, c.steps);
        let mut grads = vec![None; values.len()];
        let need = vec![true; values.len()];
        backward_with(
            isa, &c.input, 3, 4, &saved, &values, &c.g, &mut grads, &need,
        );
        std::iter::once(Some(&out))
            .chain(grads.iter().map(Option::as_ref))
            .map(bits)
            .collect()
    }

    /// The same through the per-step chain: `(x·Wx + h·Wh) + b`, the
    /// gates narrowed and activated, the cell products, and the head
    /// (`matmul` + `add_rowvec`) joined by `concat`.
    fn step_loop(c: &Case) -> Vec<Vec<u32>> {
        let tape = Tape::new();
        let v: Vec<Var> = c.ops.iter().map(|t| tape.leaf(t.clone())).collect();
        let n = c.g.shape().dim(0);
        let hs = c.hs;
        let mut h = tape.leaf(Tensor::zeros([n, hs]));
        let mut cell = tape.leaf(Tensor::zeros([n, hs]));
        let mut ys = Vec::new();
        let series = matches!(c.input, SeqInput::Series { .. });
        for t in 0..c.steps {
            let recurrent = h.matmul(&v[3]);
            let gates = if series {
                let x = Var::concat(&[v[0].narrow(1, t, 1), v[1].clone()], 1);
                x.matmul(&v[2]).add(&recurrent)
            } else {
                v[0].add(&recurrent)
            }
            .add_rowvec(&v[4]);
            let i = gates.narrow(1, 0, hs).sigmoid();
            let f = gates.narrow(1, hs, hs).sigmoid();
            let g = gates.narrow(1, 2 * hs, hs).tanh();
            let o = gates.narrow(1, 3 * hs, hs).sigmoid();
            cell = f.mul(&cell).add(&i.mul(&g));
            h = o.mul(&cell.tanh());
            if !series {
                ys.push(h.matmul(&v[1]).add_rowvec(&v[2]));
            }
        }
        let out = if series { h } else { Var::concat(&ys, 1) };
        let loss = out.mul(&tape.leaf(c.g.clone())).sum();
        let grads = tape.backward(&loss);
        std::iter::once(Some(&*out.value()))
            .chain(v.iter().map(|x| grads.get(x)))
            .map(bits)
            .collect()
    }

    #[test]
    fn entries_match_each_other_and_the_step_loop() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_backend(Some(BackendKind::Scalar));
        let avx2 = Isa::detect();
        if avx2 == Isa::Base {
            eprintln!("no AVX2 on this CPU: checking the baseline entry alone");
        }
        let mut rng = StdRng::seed_from_u64(0x15a);
        for k in 0..160 {
            let c = case(&mut rng);
            let want = step_loop(&c);
            let shape = format!(
                "case {k}: {:?}, hidden {}, steps {}, operands {:?}",
                c.input,
                c.hs,
                c.steps,
                c.ops
                    .iter()
                    .map(|t| t.shape().to_string())
                    .collect::<Vec<_>>()
            );
            assert_eq!(fused(&c, Isa::Base), want, "baseline entry, {shape}");
            if avx2 != Isa::Base {
                assert_eq!(fused(&c, avx2), want, "AVX2 entry, {shape}");
            }
        }
        set_backend(None);
    }
}
