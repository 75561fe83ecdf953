//! The traced run's span recorder: spans (name, start, end, parent, op
//! id) and per-op counts kept in memory and written as JSON at exit.
//! Spans are recorded by the benchmark around its calls into each
//! layer; the program itself is not instrumented.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: usize,
}

/// One replayed op: its kind (e.g. `gen-city`) and its counts.
struct Op {
    kind: &'static str,
    counts: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    ops: Vec<Op>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            ops: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a new op of `kind` under a root span named `kind`.
    pub fn op<R>(&mut self, kind: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        assert!(self.stack.is_empty(), "ops do not nest");
        self.ops.push(Op {
            kind,
            counts: Vec::new(),
        });
        self.span(kind, f)
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let op = self.ops.len() - 1;
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Records a span timed elsewhere as a child of the innermost open
    /// span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.stack.last().copied(),
            op: self.ops.len() - 1,
        });
    }

    /// Adds `value` to the current op's count `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        let counts = &mut self.ops.last_mut().expect("count outside an op").counts;
        match counts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += value,
            None => counts.push((name, value)),
        }
    }

    fn dur_s(s: &Span) -> f64 {
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Ids of the ops of `kind`.
    fn ops_of(&self, kind: &str) -> Vec<usize> {
        (0..self.ops.len())
            .filter(|&i| self.ops[i].kind == kind)
            .collect()
    }

    /// Total seconds in spans named `name` within op `op`.
    fn op_s(&self, op: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .map(Self::dur_s)
            .sum()
    }

    /// Total seconds in spans named `name` within the latest op.
    pub fn last_op_s(&self, name: &str) -> f64 {
        self.op_s(self.ops.len() - 1, name)
    }

    /// Total seconds in spans named `name`, per op of `kind`.
    pub fn per_op_s(&self, kind: &str, name: &str) -> Vec<f64> {
        self.ops_of(kind)
            .into_iter()
            .map(|op| self.op_s(op, name))
            .collect()
    }

    /// Durations of every span named `name` within ops of `kind`.
    pub fn each_s(&self, kind: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && self.ops[s.op].kind == kind)
            .map(Self::dur_s)
            .collect()
    }

    /// Per op of `kind`: the root span's wall time and the summed
    /// durations of its direct children (the replayed stages).
    pub fn op_walls(&self, kind: &str) -> Vec<(f64, f64)> {
        self.ops_of(kind)
            .into_iter()
            .map(|op| {
                let root = self
                    .spans
                    .iter()
                    .position(|s| s.op == op && s.parent.is_none())
                    .expect("every op has a root span");
                let stages = self
                    .spans
                    .iter()
                    .filter(|s| s.parent == Some(root))
                    .map(Self::dur_s)
                    .sum();
                (Self::dur_s(&self.spans[root]), stages)
            })
            .collect()
    }

    /// The count `name` per op of `kind`.
    pub fn per_op_count(&self, kind: &str, name: &str) -> Vec<f64> {
        self.ops_of(kind)
            .into_iter()
            .filter_map(|op| {
                self.ops[op]
                    .counts
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
            })
            .collect()
    }

    /// Writes every span and op as JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::from("{\"ops\": [");
        for (i, op) in self.ops.iter().enumerate() {
            let counts: Vec<String> = op
                .counts
                .iter()
                .map(|(n, v)| format!("\"{n}\": {v}"))
                .collect();
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}{{\"id\": {i}, \"kind\": \"{}\", \"counts\": {{{}}}}}",
                op.kind,
                counts.join(", ")
            );
        }
        s.push_str("],\n\"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                s,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.op
            );
        }
        s.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}
