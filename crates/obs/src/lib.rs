//! Unified observability layer for the SpectraGAN workspace.
//!
//! The workspace's one instrumentation system. Three pieces, all gated
//! behind one global flag: **one relaxed atomic load per
//! instrumentation site when disabled**; when enabled, a completed
//! span takes one short lock on the shared sink and metrics are plain
//! atomics.
//!
//! * [`span`] — hierarchical RAII spans with monotonic timing. Each
//!   span records `(name, id, parent, tid, start_ns, dur_ns)` relative
//!   to a process-wide epoch; [`drain_events`] collects everything
//!   recorded so far (callers drain after worker threads have joined,
//!   which the scoped pool guarantees). Tape ops are spans too, in the
//!   [`OP_FWD`] / [`OP_BWD`] categories.
//! * [`metrics`] — a registry of named counters, gauges and fixed
//!   log2-bucketed histograms. Handles are `&'static` (leaked once per
//!   name) so hot sites cache them in a `OnceLock` and pay no lookup.
//! * [`export`] — serializers over the drained data: per-step
//!   aggregated span stats and per-op tables for `train_log.jsonl`, a
//!   Prometheus-style text snapshot, and Chrome trace-event JSON
//!   loadable in `chrome://tracing` / Perfetto.
//!
//! Nothing in this crate touches RNG streams, tensor math or
//! summation order, so enabling it cannot perturb the workspace's
//! bit-determinism contracts (enforced by `core/tests/
//! obs_determinism.rs`).

mod export;
mod metrics;
mod span;

pub use export::{aggregate_spans, chrome_trace, op_table, prometheus_snapshot, OpStat, SpanStat};
pub use metrics::{
    counter, gauge, histogram, metrics_snapshot, reset_metrics, Counter, Gauge, Histogram,
    HistogramSnapshot, MetricKind, MetricSnapshot, HIST_BUCKETS,
};
pub use span::{discard_events, drain_events, span, span_cat, Span, SpanEvent, OP_BWD, OP_FWD};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Globally enables or disables the observability layer.
///
/// Disabling does not clear already-recorded events or metric values;
/// pair with [`drain_events`] / [`reset_metrics`] to scope a run.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the layer is currently enabled — the single relaxed load
/// every instrumentation site pays when observability is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide observability epoch (the first
/// call wins the race to define t=0; all threads share it, so span
/// timestamps are mutually comparable).
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// RAII guard that enables the layer on construction and restores the
/// previous state on drop. `ObsGuard::new(false)` is a no-op guard, so
/// call sites can write `let _g = ObsGuard::new(opts.obs);`
/// unconditionally.
pub struct ObsGuard {
    prev: bool,
    armed: bool,
}

impl ObsGuard {
    /// When `on`, enables the layer and clears any stale span events
    /// so the scope starts from a clean sink.
    pub fn new(on: bool) -> Self {
        let prev = enabled();
        if on {
            set_enabled(true);
            if !prev {
                drain_events();
            }
        }
        ObsGuard { prev, armed: on }
    }
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        if self.armed {
            set_enabled(self.prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_restores_previous_state() {
        let _l = crate::span::test_lock();
        set_enabled(false);
        {
            let _g = ObsGuard::new(true);
            assert!(enabled());
        }
        assert!(!enabled());
        // Unarmed guard never flips the flag.
        set_enabled(true);
        {
            let _g = ObsGuard::new(false);
            assert!(enabled());
        }
        assert!(enabled());
        set_enabled(false);
    }

    #[test]
    fn epoch_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
