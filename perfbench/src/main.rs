//! SpectraGAN benchmark: three closed-loop workloads driven through
//! the workspace's public API, plus a traced replay for per-layer
//! metrics. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --workload gen-city|serve-mix|train --seed N --seconds S --trace 0|1
//! ```
//!
//! Standard output carries a host line and, last, one JSON result
//! line; progress and a readable summary go to standard error.

mod client;
mod gen_city;
mod inputs;
mod replay;
mod serve_mix;
mod stats;
mod trace;
mod train;

use spectragan_core::fourier;
use spectragan_geo::TrafficMap;
use spectragan_tensor::{arena, backend, pool};
use std::path::PathBuf;
use std::time::Instant;

/// Bytes per MiB, for the arena peaks.
pub const MIB: f64 = 1024.0 * 1024.0;
/// Set-ups per run; `setup_s` is their mean. A median would need
/// [`stats::MIN_OPS`] set-ups under the percentile rule, and each set-up
/// holds a full warm-up op.
pub const SETUPS: u64 = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    GenCity,
    ServeMix,
    Train,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "gen-city" => Some(Workload::GenCity),
            "serve-mix" => Some(Workload::ServeMix),
            "train" => Some(Workload::Train),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::GenCity => "gen-city",
            Workload::ServeMix => "serve-mix",
            Workload::Train => "train",
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run measured: ops attempted and failed, and its metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one op and the verdict of its output checks.
    pub fn op(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("perfbench: op {} failed: {why}", self.attempted);
        }
    }

    /// Adds a metric; a value that could not be computed is an error.
    pub fn metric(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: Option<f64>,
    ) -> Result<(), String> {
        match value {
            Some(v) if v.is_finite() => {
                self.metrics.push(Metric {
                    name,
                    value: v,
                    unit,
                });
                Ok(())
            }
            _ => Err(format!("metric {name} could not be computed")),
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Empties the process-global lazy state the program fills on first
/// use (expanded-basis cache, this thread's arena pool), so a repeated
/// set-up pays for it again.
pub fn reset_lazy_state() {
    let capacity = fourier::set_basis_cache_capacity(0);
    fourier::set_basis_cache_capacity(capacity);
    arena::clear();
}

/// A generated map must have the requested shape and hold finite,
/// non-negative traffic.
pub fn check_map(map: &TrafficMap, t: usize, h: usize, w: usize) -> Result<(), String> {
    let got = (map.len_t(), map.height(), map.width());
    if got != (t, h, w) {
        return Err(format!("map shape {got:?}, expected {:?}", (t, h, w)));
    }
    match map.data().iter().position(|v| !v.is_finite() || *v < 0.0) {
        Some(i) => Err(format!(
            "map value {} at {i} is not finite and >= 0",
            map.data()[i]
        )),
        None => Ok(()),
    }
}

/// Bitwise equality of two maps.
pub fn same_bits(a: &TrafficMap, b: &TrafficMap) -> Result<(), String> {
    let shape = |m: &TrafficMap| (m.len_t(), m.height(), m.width());
    if shape(a) != shape(b) {
        return Err(format!("shape {:?} != {:?}", shape(a), shape(b)));
    }
    match a
        .data()
        .iter()
        .zip(b.data())
        .position(|(x, y)| x.to_bits() != y.to_bits())
    {
        Some(i) => Err(format!("bytes differ at element {i}")),
        None => Ok(()),
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let work = inputs::WorkDir::create(root.join(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    )))
    .map_err(|e| format!("creating the work directory: {e}"))?;
    let t = Instant::now();
    let inputs = inputs::make(work.path(), args.seed)?;
    eprintln!("perfbench: inputs written in {:.2} s", secs(t));

    let mut out = Outcome::default();
    if args.trace {
        let trace_path: PathBuf = root.join(".bench_out").join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        replay::run(
            args.workload,
            &inputs,
            args.seed,
            args.seconds,
            &trace_path,
            &mut out,
        )?;
    } else {
        match args.workload {
            Workload::GenCity => gen_city::run(&inputs, args.seed, args.seconds, &mut out)?,
            Workload::ServeMix => serve_mix::run(&inputs, args.seed, args.seconds, &mut out)?,
            Workload::Train => train::run(&inputs, args.seed, args.seconds, &mut out)?,
        }
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload gen-city|serve-mix|train --seed N --seconds S \
                 --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"backend\": \"{}\", \"threads\": {}}}}}",
        backend::kind().name(),
        pool::threads()
    );
    eprintln!(
        "perfbench: {} seed {} host {host}",
        args.workload.name(),
        args.seed
    );
    match run(&args) {
        Ok(out) => {
            for m in &out.metrics {
                eprintln!("  {:<24} {:>14.6} {}", m.name, m.value, m.unit);
            }
            eprintln!(
                "  attempted {} failed {} ({:.1}%)",
                out.attempted,
                out.failed,
                100.0 * stats::failure_share(out.failed, out.attempted)
            );
            println!("{host}");
            println!("{}", out.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
