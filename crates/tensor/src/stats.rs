//! Per-op instrumentation: call counts, wall time and pool traffic by
//! [`OpKind`], gated behind a global flag.
//!
//! When disabled (the default) the only cost per op is one relaxed
//! atomic load. When enabled, every forward op and every node of the
//! backward interpreter records its kind, elapsed nanoseconds and the
//! bytes the [`crate::arena`] served fresh vs. reused while that op was
//! the innermost active scope. [`take_table`] drains the counters —
//! the trainer calls it once per step and appends the table to
//! `train_log.jsonl`.
//!
//! Counters are thread-local; the training loop builds its graphs on
//! one thread, so its table is complete. Kernel-internal worker
//! threads ([`crate::pool`]) never allocate tensors, so nothing is
//! lost to them.

use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The kind of a tape operation, used to index the stats table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum OpKind {
    Leaf,
    Add,
    Sub,
    Mul,
    Div,
    Scale,
    AddScalar,
    AddRowVec,
    AddChannelBias,
    Sigmoid,
    Tanh,
    Relu,
    LeakyRelu,
    Exp,
    Softplus,
    SqrtEps,
    Abs,
    Clamp,
    Square,
    Matmul,
    MatmulConst,
    Conv2d,
    Reshape,
    Permute,
    AvgPool2,
    Narrow,
    Concat,
    Sum,
    Mean,
    L1To,
    MseTo,
    BceWithLogits,
    MatmulBiasAct,
    Conv2dBias,
    LstmSeq,
    /// Tensor work outside any tape op (optimizer, data prep, …).
    Other,
}

const N_KINDS: usize = OpKind::Other as usize + 1;

impl OpKind {
    /// Stable lowercase name used in logs and bench tables.
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Leaf => "leaf",
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::Scale => "scale",
            OpKind::AddScalar => "add_scalar",
            OpKind::AddRowVec => "add_rowvec",
            OpKind::AddChannelBias => "add_channel_bias",
            OpKind::Sigmoid => "sigmoid",
            OpKind::Tanh => "tanh",
            OpKind::Relu => "relu",
            OpKind::LeakyRelu => "leaky_relu",
            OpKind::Exp => "exp",
            OpKind::Softplus => "softplus",
            OpKind::SqrtEps => "sqrt_eps",
            OpKind::Abs => "abs",
            OpKind::Clamp => "clamp",
            OpKind::Square => "square",
            OpKind::Matmul => "matmul",
            OpKind::MatmulConst => "matmul_const",
            OpKind::Conv2d => "conv2d",
            OpKind::Reshape => "reshape",
            OpKind::Permute => "permute",
            OpKind::AvgPool2 => "avg_pool2",
            OpKind::Narrow => "narrow",
            OpKind::Concat => "concat",
            OpKind::Sum => "sum",
            OpKind::Mean => "mean",
            OpKind::L1To => "l1_to",
            OpKind::MseTo => "mse_to",
            OpKind::BceWithLogits => "bce_with_logits",
            OpKind::MatmulBiasAct => "matmul_bias_act",
            OpKind::Conv2dBias => "conv2d_bias",
            OpKind::LstmSeq => "lstm_seq",
            OpKind::Other => "other",
        }
    }
}

#[derive(Default, Clone, Copy)]
struct Slot {
    fwd_calls: u64,
    fwd_nanos: u64,
    bwd_calls: u64,
    bwd_nanos: u64,
    fresh_bytes: u64,
    reused_bytes: u64,
}

/// One row of the drained stats table (serializable for
/// `train_log.jsonl` and `BENCH_pr3.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpStatEntry {
    /// Op kind name ([`OpKind::as_str`]).
    pub op: String,
    /// Kernel backend the table was drained under
    /// ([`crate::backend::kind`]); `None` in logs written before
    /// backends existed.
    pub backend: Option<String>,
    /// Forward invocations.
    pub fwd_calls: u64,
    /// Nanoseconds spent in forward invocations.
    pub fwd_nanos: u64,
    /// Backward-interpreter invocations.
    pub bwd_calls: u64,
    /// Nanoseconds spent in backward invocations.
    pub bwd_nanos: u64,
    /// Pool bytes served by fresh allocation inside this op.
    pub fresh_bytes: u64,
    /// Pool bytes served by reuse inside this op.
    pub reused_bytes: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static TABLE: RefCell<[Slot; N_KINDS]> = RefCell::new([Slot::default(); N_KINDS]);
    static CURRENT: Cell<usize> = const { Cell::new(OpKind::Other as usize) };
}

/// Globally enables or disables instrumentation.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Attributes pool traffic to the innermost active op scope. Called by
/// [`crate::arena`]; a no-op when instrumentation is disabled.
#[inline]
pub(crate) fn note_pool_bytes(fresh: u64, reused: u64) {
    if !enabled() {
        return;
    }
    let kind = CURRENT.with(|c| c.get());
    let _ = TABLE.try_with(|t| {
        let slot = &mut t.borrow_mut()[kind];
        slot.fresh_bytes += fresh;
        slot.reused_bytes += reused;
    });
}

/// RAII scope recording one op invocation; see [`fwd`] / [`bwd`].
pub struct OpScope {
    kind: usize,
    backward: bool,
    prev: usize,
    start: Instant,
}

impl Drop for OpScope {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        CURRENT.with(|c| c.set(self.prev));
        let _ = TABLE.try_with(|t| {
            let slot = &mut t.borrow_mut()[self.kind];
            if self.backward {
                slot.bwd_calls += 1;
                slot.bwd_nanos += nanos;
            } else {
                slot.fwd_calls += 1;
                slot.fwd_nanos += nanos;
            }
        });
    }
}

fn scope(kind: OpKind, backward: bool) -> Option<OpScope> {
    if !enabled() {
        return None;
    }
    let kind = kind as usize;
    let prev = CURRENT.with(|c| c.replace(kind));
    Some(OpScope {
        kind,
        backward,
        prev,
        start: Instant::now(),
    })
}

/// Opens a forward-pass scope for `kind` (`None` when disabled).
#[inline]
pub fn fwd(kind: OpKind) -> Option<OpScope> {
    scope(kind, false)
}

/// Opens a backward-pass scope for `kind` (`None` when disabled).
#[inline]
pub fn bwd(kind: OpKind) -> Option<OpScope> {
    scope(kind, true)
}

const KIND_ORDER: [OpKind; N_KINDS] = [
    OpKind::Leaf,
    OpKind::Add,
    OpKind::Sub,
    OpKind::Mul,
    OpKind::Div,
    OpKind::Scale,
    OpKind::AddScalar,
    OpKind::AddRowVec,
    OpKind::AddChannelBias,
    OpKind::Sigmoid,
    OpKind::Tanh,
    OpKind::Relu,
    OpKind::LeakyRelu,
    OpKind::Exp,
    OpKind::Softplus,
    OpKind::SqrtEps,
    OpKind::Abs,
    OpKind::Clamp,
    OpKind::Square,
    OpKind::Matmul,
    OpKind::MatmulConst,
    OpKind::Conv2d,
    OpKind::Reshape,
    OpKind::Permute,
    OpKind::AvgPool2,
    OpKind::Narrow,
    OpKind::Concat,
    OpKind::Sum,
    OpKind::Mean,
    OpKind::L1To,
    OpKind::MseTo,
    OpKind::BceWithLogits,
    OpKind::MatmulBiasAct,
    OpKind::Conv2dBias,
    OpKind::LstmSeq,
    OpKind::Other,
];

/// Drains this thread's counters into a table of non-empty rows, in
/// fixed kind order (so serialized output is deterministic).
pub fn take_table() -> Vec<OpStatEntry> {
    TABLE
        .try_with(|t| {
            let mut table = t.borrow_mut();
            let mut out = Vec::new();
            for kind in KIND_ORDER {
                let slot = std::mem::take(&mut table[kind as usize]);
                if slot.fwd_calls == 0 && slot.bwd_calls == 0 && slot.fresh_bytes == 0 {
                    continue;
                }
                out.push(OpStatEntry {
                    op: kind.as_str().to_string(),
                    backend: Some(crate::backend::kind().name().to_string()),
                    fwd_calls: slot.fwd_calls,
                    fwd_nanos: slot.fwd_nanos,
                    bwd_calls: slot.bwd_calls,
                    bwd_nanos: slot.bwd_nanos,
                    fresh_bytes: slot.fresh_bytes,
                    reused_bytes: slot.reused_bytes,
                });
            }
            out
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The enable flag is process-wide and tests run in parallel, so
    /// the tests that set it hold this lock while they rely on it.
    static FLAG: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_scopes_record_nothing() {
        let _flag = FLAG.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        take_table();
        assert!(fwd(OpKind::Matmul).is_none());
        assert!(take_table().is_empty());
    }

    #[test]
    fn scopes_count_calls_and_nest() {
        let _flag = FLAG.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        take_table();
        {
            let _outer = fwd(OpKind::Matmul);
            let _inner = bwd(OpKind::Add);
        }
        let table = take_table();
        set_enabled(false);
        let add = table.iter().find(|e| e.op == "add").unwrap();
        assert_eq!(add.bwd_calls, 1);
        let mm = table.iter().find(|e| e.op == "matmul").unwrap();
        assert_eq!(mm.fwd_calls, 1);
        assert_eq!(mm.bwd_calls, 0);
    }
}
