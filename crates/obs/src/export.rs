//! Exporters over drained span events and the metrics registry.
//!
//! * [`aggregate_spans`] — collapses raw events into per-path
//!   call/time totals, the compact form embedded in each
//!   `train_log.jsonl` record.
//! * [`op_table`] — folds tape-op events into per-op forward/backward
//!   call/time rows, the record's `op_stats` table.
//! * [`prometheus_snapshot`] — Prometheus text exposition of every
//!   registered metric (cumulative `_bucket{le=…}` rows for
//!   histograms).
//! * [`chrome_trace`] — Chrome trace-event JSON (`ph:"X"` complete
//!   events) loadable in `chrome://tracing` / Perfetto.

use crate::metrics::{bucket_upper_bound, metrics_snapshot, MetricKind, HIST_BUCKETS};
use crate::span::{SpanEvent, OP_BWD, OP_FWD};
use serde::{Deserialize, Serialize, Value};
use serde_json::json;
use std::collections::BTreeMap;

/// Aggregated totals for one span path (e.g.
/// `"train_step/backward"`). Serialized into `train_log.jsonl`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanStat {
    /// `/`-joined names from the outermost ancestor in the drained
    /// batch down to this span.
    pub path: String,
    /// Number of completed spans with this path.
    pub calls: u64,
    /// Total inclusive nanoseconds across those spans.
    pub nanos: u64,
}

/// Whether `ev` is a tape op's forward or backward span.
fn is_op(ev: &SpanEvent) -> bool {
    ev.cat == OP_FWD || ev.cat == OP_BWD
}

/// Collapses a drained event batch into per-path totals, sorted by
/// path. A span whose parent is missing from the batch is treated as
/// a root (this happens when a parent is still live at drain time).
/// Tape-op events are left out, rows and path segments alike: they
/// belong to [`op_table`].
pub fn aggregate_spans(events: &[SpanEvent]) -> Vec<SpanStat> {
    let by_id: BTreeMap<u64, &SpanEvent> = events.iter().map(|e| (e.id, e)).collect();
    let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for ev in events.iter().filter(|e| !is_op(e)) {
        let mut names = vec![ev.name];
        let mut parent = ev.parent;
        // Parent chains are strictly older span ids, so this walk
        // terminates even on adversarial input (each id visited once).
        let mut hops = 0usize;
        while parent != 0 && hops <= events.len() {
            match by_id.get(&parent) {
                Some(p) => {
                    if !is_op(p) {
                        names.push(p.name);
                    }
                    parent = p.parent;
                }
                None => break,
            }
            hops += 1;
        }
        names.reverse();
        let path = names.join("/");
        let slot = totals.entry(path).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += ev.dur_ns;
    }
    totals
        .into_iter()
        .map(|(path, (calls, nanos))| SpanStat { path, calls, nanos })
        .collect()
}

/// One op's row of a step's `op_stats` table. Serialized into
/// `train_log.jsonl`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpStat {
    /// Op name, shared by its forward and backward spans.
    pub op: String,
    /// Forward invocations.
    pub fwd_calls: u64,
    /// Nanoseconds spent in forward invocations.
    pub fwd_nanos: u64,
    /// Backward invocations (one per walked tape node).
    pub bwd_calls: u64,
    /// Nanoseconds spent in backward invocations.
    pub bwd_nanos: u64,
}

/// Folds the [`OP_FWD`] and [`OP_BWD`] events of a drained batch into
/// one row per op name, sorted by name. Other categories are ignored.
pub fn op_table(events: &[SpanEvent]) -> Vec<OpStat> {
    let mut rows: BTreeMap<&str, OpStat> = BTreeMap::new();
    for ev in events.iter().filter(|e| is_op(e)) {
        let row = rows.entry(ev.name).or_insert_with(|| OpStat {
            op: ev.name.to_string(),
            ..OpStat::default()
        });
        if ev.cat == OP_FWD {
            row.fwd_calls += 1;
            row.fwd_nanos += ev.dur_ns;
        } else {
            row.bwd_calls += 1;
            row.bwd_nanos += ev.dur_ns;
        }
    }
    rows.into_values().collect()
}

/// Renders every registered metric in Prometheus text exposition
/// format, sorted by metric name. Histograms emit cumulative
/// `_bucket{le="…"}` rows plus `_sum` and `_count`.
pub fn prometheus_snapshot() -> String {
    let mut out = String::new();
    for m in metrics_snapshot() {
        match m.kind {
            MetricKind::Counter => {
                out.push_str(&format!(
                    "# TYPE {} counter\n{} {}\n",
                    m.name, m.name, m.counter
                ));
            }
            MetricKind::Gauge => {
                let v = m.gauge;
                let rendered = if v.is_finite() {
                    format!("{v}")
                } else if v.is_nan() {
                    "NaN".to_string()
                } else if v > 0.0 {
                    "+Inf".to_string()
                } else {
                    "-Inf".to_string()
                };
                out.push_str(&format!(
                    "# TYPE {} gauge\n{} {}\n",
                    m.name, m.name, rendered
                ));
            }
            MetricKind::Histogram => {
                let h = m.histogram.expect("histogram snapshot");
                out.push_str(&format!("# TYPE {} histogram\n", m.name));
                let mut cum = 0u64;
                for (i, c) in h.buckets.iter().enumerate().take(HIST_BUCKETS) {
                    cum += c;
                    let le = if i == HIST_BUCKETS - 1 {
                        "+Inf".to_string()
                    } else {
                        format!("{}", bucket_upper_bound(i))
                    };
                    out.push_str(&format!("{}_bucket{{le=\"{le}\"}} {cum}\n", m.name));
                }
                out.push_str(&format!("{}_sum {}\n", m.name, h.sum));
                out.push_str(&format!("{}_count {}\n", m.name, cum));
            }
        }
    }
    out
}

/// Serializes events as Chrome trace-event JSON: one `ph:"X"`
/// complete event per span, microsecond timestamps relative to the
/// process epoch. Load the file in `chrome://tracing` or
/// <https://ui.perfetto.dev>.
pub fn chrome_trace(events: &[SpanEvent]) -> String {
    let evs: Vec<Value> = events
        .iter()
        .map(|e| {
            json!({
                "name": e.name,
                "cat": e.cat,
                "ph": "X",
                "ts": e.start_ns as f64 / 1000.0,
                "dur": e.dur_ns as f64 / 1000.0,
                "pid": 1u64,
                "tid": e.tid
            })
        })
        .collect();
    let doc = json!({
        "traceEvents": json!(evs),
        "displayTimeUnit": "ms"
    });
    serde_json::to_string(&doc).expect("trace serialization")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{counter, gauge, histogram};
    use crate::set_enabled;

    fn ev(name: &'static str, id: u64, parent: u64, dur: u64) -> SpanEvent {
        ev_cat(name, "t", id, parent, dur)
    }

    fn ev_cat(name: &'static str, cat: &'static str, id: u64, parent: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            name,
            cat,
            id,
            parent,
            tid: 1,
            start_ns: id * 10,
            dur_ns: dur,
        }
    }

    #[test]
    fn aggregate_builds_paths_and_sums() {
        let events = [
            ev("step", 1, 0, 100),
            ev("fwd", 2, 1, 40),
            ev("fwd", 3, 1, 50),
            ev("orphan_child", 9, 777, 5),
        ];
        let stats = aggregate_spans(&events);
        let fwd = stats.iter().find(|s| s.path == "step/fwd").unwrap();
        assert_eq!((fwd.calls, fwd.nanos), (2, 90));
        let step = stats.iter().find(|s| s.path == "step").unwrap();
        assert_eq!((step.calls, step.nanos), (1, 100));
        // Missing parent ⇒ treated as root.
        assert!(stats.iter().any(|s| s.path == "orphan_child"));
    }

    #[test]
    fn op_table_splits_directions_and_sorts_by_name() {
        let events = [
            ev("train_step", 1, 0, 1000),
            ev_cat("tanh", OP_FWD, 2, 1, 10),
            ev_cat("matmul", OP_FWD, 3, 1, 20),
            ev_cat("tanh", OP_FWD, 4, 1, 30),
            ev_cat("backward", "train", 5, 1, 500),
            ev_cat("tanh", OP_BWD, 6, 5, 7),
            ev_cat("leaf", OP_BWD, 7, 5, 1),
            ev_cat("matmul", "not_an_op", 8, 1, 999),
        ];
        let table = op_table(&events);
        let names: Vec<&str> = table.iter().map(|r| r.op.as_str()).collect();
        assert_eq!(names, ["leaf", "matmul", "tanh"]);
        let row = |op: &str| table.iter().find(|r| r.op == op).unwrap().clone();
        let tanh = row("tanh");
        assert_eq!((tanh.fwd_calls, tanh.fwd_nanos), (2, 40));
        assert_eq!((tanh.bwd_calls, tanh.bwd_nanos), (1, 7));
        // A same-named span outside the op categories is not an op.
        let matmul = row("matmul");
        assert_eq!((matmul.fwd_calls, matmul.fwd_nanos), (1, 20));
        assert_eq!((matmul.bwd_calls, matmul.bwd_nanos), (0, 0));
        let leaf = row("leaf");
        assert_eq!((leaf.fwd_calls, leaf.bwd_calls), (0, 1));
    }

    #[test]
    fn aggregate_leaves_op_events_out_of_rows_and_paths() {
        let events = [
            ev("train_step", 1, 0, 100),
            ev_cat("lstm_seq", OP_FWD, 2, 1, 40),
            ev("inner", 3, 2, 5),
            ev_cat("lstm_seq", OP_BWD, 4, 1, 30),
        ];
        let paths: Vec<String> = aggregate_spans(&events)
            .into_iter()
            .map(|s| s.path)
            .collect();
        assert_eq!(paths, ["train_step", "train_step/inner"]);
    }

    #[test]
    fn chrome_trace_parses_and_preserves_events() {
        let events = [ev("alpha", 1, 0, 1500), ev("beta", 2, 1, 250)];
        let text = chrome_trace(&events);
        let v: Value = serde_json::from_str(&text).unwrap();
        let list = match v.get("traceEvents") {
            Some(Value::Arr(items)) => items,
            other => panic!("traceEvents missing: {other:?}"),
        };
        assert_eq!(list.len(), 2);
        let first = &list[0];
        assert_eq!(first.get("name"), Some(&Value::Str("alpha".into())));
        assert_eq!(first.get("ph"), Some(&Value::Str("X".into())));
        assert_eq!(first.get("dur"), Some(&Value::Num(1.5)));
    }

    #[test]
    fn prometheus_text_has_expected_rows() {
        let _l = crate::span::test_lock();
        set_enabled(true);
        let c = counter("test_prom_counter_total");
        c.inc(2);
        gauge("test_prom_gauge").set(1.25);
        let h = histogram("test_prom_hist_ns");
        h.record(3);
        h.record(300);
        let text = prometheus_snapshot();
        set_enabled(false);
        assert!(text.contains("# TYPE test_prom_counter_total counter"));
        assert!(text.contains("test_prom_gauge 1.25"));
        assert!(text.contains("test_prom_hist_ns_bucket{le=\"+Inf\"}"));
        assert!(text.contains("test_prom_hist_ns_sum"));
        assert!(text.contains("test_prom_hist_ns_count"));
        // Cumulative buckets: +Inf row equals _count.
        let count_line = text
            .lines()
            .find(|l| l.starts_with("test_prom_hist_ns_count"))
            .unwrap();
        let inf_line = text
            .lines()
            .find(|l| l.starts_with("test_prom_hist_ns_bucket{le=\"+Inf\"}"))
            .unwrap();
        assert_eq!(
            count_line.split_whitespace().last(),
            inf_line.split_whitespace().last()
        );
    }

    #[test]
    fn span_stats_roundtrip_through_json() {
        let stats = vec![SpanStat {
            path: "a/b".into(),
            calls: 3,
            nanos: 12345,
        }];
        let text = serde_json::to_string(&stats).unwrap();
        let back: Vec<SpanStat> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, stats);
    }
}
