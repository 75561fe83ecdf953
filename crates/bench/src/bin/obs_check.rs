//! CI checker for observability artifacts: validates a Chrome trace
//! file, a Prometheus text snapshot, and a `train_log.jsonl` beyond
//! "the file exists" — shape, internal consistency, and span nesting.
//!
//! ```text
//! obs_check [--trace trace.json] [--prom metrics.prom] [--log train_log.jsonl]
//! ```
//!
//! At least one artifact must be given. Exits non-zero with a reason
//! on the first violation; prints one summary line per artifact
//! otherwise.
//!
//! Checks per artifact:
//! * trace — parses as JSON, `traceEvents` is a non-empty array, every
//!   event is a `ph:"X"` complete event with name/cat/ts/dur/pid/tid,
//!   and per-tid intervals nest (LIFO spans never partially overlap).
//! * prom — every line is a `# TYPE` header or a sample row, every
//!   `# TYPE` kind is known, histogram `_bucket` rows are cumulative
//!   (monotone) and the `+Inf` bucket equals `_count`.
//! * log — every line parses as a JSON object with a numeric `step`,
//!   at least one record embeds a non-empty `spans` array whose
//!   entries carry `path`/`calls`/`nanos`, and at least one embeds an
//!   `op_stats` table whose rows carry `op`/`fwd_calls`/`fwd_nanos`/
//!   `bwd_calls`/`bwd_nanos`, with some row called both forward and
//!   backward.

use serde::Value;

fn fail(msg: String) -> ! {
    eprintln!("obs_check: FAIL: {msg}");
    std::process::exit(1)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("read {path}: {e}")))
}

fn num(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Num(n)) => Some(*n),
        _ => None,
    }
}

fn check_trace(path: &str) -> String {
    let doc: Value = serde_json::from_str(&read(path))
        .unwrap_or_else(|e| fail(format!("{path}: not valid JSON: {e}")));
    let events = match doc.get("traceEvents") {
        Some(Value::Arr(items)) => items,
        _ => fail(format!("{path}: no traceEvents array")),
    };
    if events.is_empty() {
        fail(format!("{path}: traceEvents is empty"));
    }
    // (tid, start_us, end_us) triples, for the per-thread nesting scan.
    let mut intervals: Vec<(u64, f64, f64)> = Vec::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        let ph = match e.get("ph") {
            Some(Value::Str(s)) => s.clone(),
            _ => fail(format!("{path}: event {i} has no ph")),
        };
        if ph != "X" {
            fail(format!("{path}: event {i} has ph {ph:?}, expected \"X\""));
        }
        match e.get("name") {
            Some(Value::Str(_)) => {}
            _ => fail(format!("{path}: event {i} has no name")),
        }
        match e.get("cat") {
            Some(Value::Str(_)) => {}
            _ => fail(format!("{path}: event {i} has no cat")),
        }
        let ts = num(e.get("ts")).unwrap_or_else(|| fail(format!("{path}: event {i} has no ts")));
        let dur =
            num(e.get("dur")).unwrap_or_else(|| fail(format!("{path}: event {i} has no dur")));
        if num(e.get("pid")).is_none() {
            fail(format!("{path}: event {i} has no pid"));
        }
        let tid =
            num(e.get("tid")).unwrap_or_else(|| fail(format!("{path}: event {i} has no tid")));
        if !(ts >= 0.0 && dur >= 0.0) {
            fail(format!("{path}: event {i} has negative ts/dur"));
        }
        intervals.push((tid as u64, ts, ts + dur));
    }
    // Per-tid LIFO nesting: sweep starts in order with a stack of open
    // ends; an event must either start after the top ends (sibling) or
    // end within it (child). The span clock pairs a shared epoch with
    // a per-span Instant, so allow a small skew.
    const SKEW_US: f64 = 100.0;
    intervals.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap());
    let mut stack: Vec<(u64, f64)> = Vec::new();
    for &(tid, start, end) in &intervals {
        while let Some(&(top_tid, top_end)) = stack.last() {
            if top_tid != tid || top_end < start + SKEW_US {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(_, top_end)) = stack.last() {
            if end > top_end + SKEW_US {
                fail(format!(
                    "{path}: tid {tid} span [{start}, {end}]us partially overlaps \
                     an enclosing span ending at {top_end}us — spans must nest"
                ));
            }
        }
        stack.push((tid, end));
    }
    format!("trace {path}: {} events, spans nest per tid", events.len())
}

fn check_prom(path: &str) -> String {
    let text = read(path);
    let mut samples = 0usize;
    let mut histograms = 0usize;
    // name → (cumulative bucket rows seen, count row).
    let mut buckets: Vec<u64> = Vec::new();
    let mut bucket_name = String::new();
    let check_hist = |name: &str, buckets: &mut Vec<u64>, count: u64| {
        if !buckets.windows(2).all(|w| w[0] <= w[1]) {
            fail(format!(
                "{path}: histogram {name} bucket rows are not cumulative: {buckets:?}"
            ));
        }
        match buckets.last() {
            Some(&inf) if inf == count => {}
            other => fail(format!(
                "{path}: histogram {name}: +Inf bucket {other:?} != _count {count}"
            )),
        }
        buckets.clear();
    };
    for (ln, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (name, kind) = (it.next(), it.next());
            match (name, kind) {
                (Some(_), Some("counter" | "gauge")) => {}
                (Some(n), Some("histogram")) => {
                    histograms += 1;
                    bucket_name = n.to_string();
                }
                _ => fail(format!("{path}:{}: malformed TYPE line: {line}", ln + 1)),
            }
            continue;
        }
        let (series, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => fail(format!("{path}:{}: malformed sample row: {line}", ln + 1)),
        };
        let parsed = match value {
            "NaN" | "+Inf" | "-Inf" => 0.0,
            v => v
                .parse::<f64>()
                .unwrap_or_else(|_| fail(format!("{path}:{}: bad value {v:?}", ln + 1))),
        };
        samples += 1;
        if !bucket_name.is_empty() {
            if series.starts_with(&format!("{bucket_name}_bucket{{le=\"")) {
                buckets.push(parsed as u64);
            } else if series == format!("{bucket_name}_count") {
                check_hist(&bucket_name, &mut buckets, parsed as u64);
                bucket_name.clear();
            }
        }
    }
    if !bucket_name.is_empty() {
        fail(format!(
            "{path}: histogram {bucket_name} has bucket rows but no _count"
        ));
    }
    if samples == 0 {
        fail(format!("{path}: no samples"));
    }
    format!("prom {path}: {samples} samples, {histograms} histograms consistent")
}

fn check_log(path: &str) -> String {
    let text = read(path);
    let mut records = 0usize;
    let mut with_spans = 0usize;
    let mut with_ops = 0usize;
    let mut fwd_and_bwd = false;
    for (ln, line) in text.lines().enumerate() {
        let v: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| fail(format!("{path}:{}: not valid JSON: {e}", ln + 1)));
        if num(v.get("step")).is_none() {
            fail(format!("{path}:{}: record has no numeric step", ln + 1));
        }
        records += 1;
        if let Some(Value::Arr(spans)) = v.get("spans") {
            if spans.is_empty() {
                fail(format!("{path}:{}: spans array is empty", ln + 1));
            }
            for s in spans {
                let ok = matches!(s.get("path"), Some(Value::Str(_)))
                    && num(s.get("calls")).is_some()
                    && num(s.get("nanos")).is_some();
                if !ok {
                    fail(format!("{path}:{}: malformed span stat: {s:?}", ln + 1));
                }
            }
            with_spans += 1;
        }
        if let Some(Value::Arr(rows)) = v.get("op_stats") {
            for r in rows {
                let field = |key: &str| {
                    num(r.get(key)).unwrap_or_else(|| {
                        fail(format!(
                            "{path}:{}: op_stats row lacks {key}: {r:?}",
                            ln + 1
                        ))
                    })
                };
                if !matches!(r.get("op"), Some(Value::Str(_))) {
                    fail(format!("{path}:{}: op_stats row lacks op: {r:?}", ln + 1));
                }
                let (fwd, bwd) = (field("fwd_calls"), field("bwd_calls"));
                field("fwd_nanos");
                field("bwd_nanos");
                fwd_and_bwd |= fwd > 0.0 && bwd > 0.0;
            }
            with_ops += 1;
        }
    }
    if records == 0 {
        fail(format!("{path}: no records"));
    }
    if with_spans == 0 {
        fail(format!("{path}: no record embeds a spans array"));
    }
    if with_ops == 0 {
        fail(format!("{path}: no record embeds an op_stats table"));
    }
    if !fwd_and_bwd {
        fail(format!(
            "{path}: no op_stats row has both forward and backward calls"
        ));
    }
    format!(
        "log {path}: {records} records, {with_spans} with span aggregates, {with_ops} with op tables"
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut summaries = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .unwrap_or_else(|| fail(format!("{} needs a path", argv[i])));
        match argv[i].as_str() {
            "--trace" => summaries.push(check_trace(value)),
            "--prom" => summaries.push(check_prom(value)),
            "--log" => summaries.push(check_log(value)),
            other => fail(format!("unknown flag {other} (use --trace/--prom/--log)")),
        }
        i += 2;
    }
    if summaries.is_empty() {
        fail("nothing to check: pass --trace, --prom and/or --log".into());
    }
    for s in &summaries {
        println!("obs_check: OK: {s}");
    }
}
