//! serve-mix: an in-process `Server` with default settings on
//! 127.0.0.1 and closed-loop clients (at most `nproc`, at most two)
//! POSTing `/generate` and reading streamed bands. Requests cycle over
//! three cities of near-equal patch count and t_out 24, 96, 168 (all
//! k = 1), with a new seed per request. [`replay`] is the op's traced
//! form: response head as the client sees it, plus the same request
//! generated offline.

use crate::client::{self, Reply};
use crate::inputs::{mix, Inputs, SERVE_CITIES};
use crate::replay::Pair;
use crate::trace::Tracer;
use crate::{check_map, reset_lazy_state, same_bits, secs, stats, Outcome, MIB, SETUPS};
use spectragan_core::weights::load_model_auto;
use spectragan_core::PreparedContext;
use spectragan_geo::io::{encode_band, load_context};
use spectragan_geo::{ContextMap, TrafficMap};
use spectragan_serve::registry::Registry;
use spectragan_serve::{ServeConfig, ServeError, Server, ServerHandle};
use spectragan_tensor::{arena, pool};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Durations cycled through; all below one training week (k = 1).
pub const T_OUTS: [usize; 3] = [24, 96, 168];
/// Arena peak window: `peak_arena_mib` is the mean over these windows
/// of the highest live level sampled in each.
const PEAK_WINDOW: Duration = Duration::from_millis(250);
/// Interval between live-level samples.
const PEAK_SAMPLE: Duration = Duration::from_millis(1);

/// Request `i` of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Spec {
    pub city: usize,
    pub t_out: usize,
    pub seed: u64,
}

pub fn spec(seed: u64, i: u64) -> Spec {
    Spec {
        city: (i % 3) as usize,
        t_out: T_OUTS[((i / 3) % 3) as usize],
        seed: request_seed(seed, 5000 + i),
    }
}

/// A request seed from stream `stream` of `seed`, below 2^53: JSON
/// carries integers exactly only in that range (RFC 8259 §6), so a
/// client cannot send a larger seed reliably. The server reads the
/// number through `f64` and silently serves a different seed above it.
pub fn request_seed(seed: u64, stream: u64) -> u64 {
    mix(seed, stream) >> 11
}

/// One t_out 168 request per city, the warm-up of every set-up.
pub fn warm_up(addr: SocketAddr, seed: u64, stream: u64) -> Vec<(Spec, Result<Reply, String>)> {
    SERVE_CITIES
        .iter()
        .enumerate()
        .map(|(city, (name, _, _))| {
            let s = Spec {
                city,
                t_out: 168,
                seed: request_seed(seed, stream + city as u64),
            };
            (s, client::generate(addr, name, s.t_out, s.seed))
        })
        .collect()
}

/// Closed-loop client count: at most two, at most `nproc`.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// A server running on its own thread; stopped and joined on drop.
pub struct Running {
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<Result<(), ServeError>>>,
}

impl Running {
    pub fn start(models_dir: &Path) -> Result<Running, String> {
        let server =
            Server::bind(ServeConfig::new("127.0.0.1:0", models_dir)).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Running {
            addr,
            handle,
            thread: Some(thread),
        })
    }

    /// Stops accepting, drains and joins the server.
    pub fn stop(mut self) -> Result<(), String> {
        self.join()
    }

    fn join(&mut self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(Err(e))) => Err(e.to_string()),
            Some(Err(_)) => Err("server thread panicked".into()),
            _ => Ok(()),
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.join();
    }
}

/// Offline references: the model and contexts the server serves.
pub struct Offline {
    pub model: spectragan_core::SpectraGan,
    pub contexts: Vec<ContextMap>,
}

impl Offline {
    pub fn load(inp: &Inputs) -> Result<Offline, String> {
        let model = load_model_auto(&inp.model_path).map_err(|e| e.to_string())?;
        let contexts = SERVE_CITIES
            .iter()
            .map(|(name, _, _)| {
                load_context(inp.models_dir.join(format!("{name}.sgcm"))).map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Offline { model, contexts })
    }

    /// The offline `generate_batched_report` map of request `s`.
    pub fn expected(&self, s: Spec) -> TrafficMap {
        let ctx = &self.contexts[s.city];
        self.model
            .generate_batched_report(ctx, s.t_out, s.seed, true, 16)
            .0
    }

    /// A served reply must be a complete 200 stream whose bands
    /// reassemble to `expected`.
    pub fn check(
        &self,
        s: Spec,
        reply: &Result<Reply, String>,
        expected: &TrafficMap,
    ) -> Result<(), String> {
        let reply = reply.as_ref().map_err(Clone::clone)?;
        if reply.status != 200 {
            return Err(format!("status {}", reply.status));
        }
        let map = reply.map.as_ref().ok_or("no bands")?;
        let ctx = &self.contexts[s.city];
        check_map(map, s.t_out, ctx.height(), ctx.width())?;
        same_bits(map, expected).map_err(|e| format!("served != offline: {e}"))
    }

    /// [`Offline::check`] of every reply. Each distinct request is
    /// generated once offline, spread over [`clients`] threads that
    /// each generate on a one-thread pool, so the check also compares
    /// served bytes across thread counts.
    pub fn check_all(&self, replies: &[&(Spec, Result<Reply, String>)]) -> Vec<Result<(), String>> {
        let mut specs: Vec<Spec> = replies.iter().map(|(s, _)| *s).collect();
        specs.sort_by_key(|s| (s.city, s.t_out, s.seed));
        specs.dedup();
        let n = clients();
        pool::set_threads(Some(1));
        let expected: HashMap<Spec, TrafficMap> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|k| {
                    let specs = &specs;
                    scope.spawn(move || {
                        specs
                            .iter()
                            .skip(k)
                            .step_by(n)
                            .map(|&s| (s, self.expected(s)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("check thread panicked"))
                .collect()
        });
        pool::set_threads(None);
        replies
            .iter()
            .map(|(s, r)| self.check(*s, r, &expected[s]))
            .collect()
    }
}

pub fn run(inp: &Inputs, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    // Set-up: bind, then one warm-up request per city (cold registry
    // load, first generation on each city). Every set-up sends the same
    // warm-up requests, so their replies must also agree.
    let mut setups = Vec::new();
    let mut warmups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(prev) = server.take() {
            Running::stop(prev)?;
        }
        reset_lazy_state();
        let t = Instant::now();
        let running = Running::start(&inp.models_dir)?;
        warmups.extend(warm_up(running.addr, seed, 200));
        setups.push(secs(t));
        server = Some(running);
    }
    let running = server.expect("at least one set-up ran");

    // Timed phase: closed-loop clients until the window closes and the
    // median has enough samples. Meanwhile this thread samples the live
    // arena level; the high-water mark is not used, since every
    // generation in the server resets it.
    let next = AtomicU64::new(0);
    let base = arena::live_bytes();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let addr = running.addr;
    let (records, peaks, wall) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients())
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= stats::MIN_OPS as u64 && Instant::now() >= deadline {
                            break;
                        }
                        let s = spec(seed, i);
                        let reply = client::generate(addr, SERVE_CITIES[s.city].0, s.t_out, s.seed);
                        mine.push((s, reply));
                    }
                    (mine, secs(start))
                })
            })
            .collect();
        let mut peaks = Vec::new();
        while !workers.iter().all(|w| w.is_finished()) {
            let window = Instant::now();
            let mut peak = 0;
            while window.elapsed() < PEAK_WINDOW {
                peak = peak.max(arena::live_bytes() - base);
                std::thread::sleep(PEAK_SAMPLE);
            }
            peaks.push(peak as f64);
        }
        let mut records = Vec::new();
        let mut wall = 0.0f64;
        for w in workers {
            let (mine, done_s) = w.join().expect("client thread panicked");
            records.extend(mine);
            wall = wall.max(done_s);
        }
        (records, peaks, wall)
    });
    running.stop()?;

    // Output checks, outside the clock.
    let t = Instant::now();
    let offline = Offline::load(inp)?;
    let replies: Vec<&(Spec, Result<Reply, String>)> = warmups.iter().chain(&records).collect();
    for verdict in offline.check_all(&replies) {
        out.op(verdict);
    }
    eprintln!(
        "  serve-mix: checked {} replies in {:.2} s",
        warmups.len() + records.len(),
        secs(t)
    );

    let ok: Vec<&Reply> = records
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok().filter(|r| r.status == 200))
        .collect();
    let latencies: Vec<f64> = ok.iter().map(|r| r.total_s).collect();
    let first_band: Vec<f64> = ok.iter().filter_map(|r| r.first_band_s).collect();
    let ms = |v: Option<f64>| v.map_or("n/a".to_string(), |s| format!("{:.1} ms", s * 1e3));
    let tail = stats::highest_tail(&latencies).map_or("n/a".to_string(), |(q, v)| {
        format!("p{} {:.1} ms", q * 100.0, v * 1e3)
    });
    eprintln!(
        "  serve-mix: {} requests in {wall:.2} s; first band p50 {}, latency tail {tail}",
        records.len(),
        ms(stats::p50(&first_band)),
    );
    out.metric("setup_s", "s", stats::mean(&setups))?;
    out.metric("ops_per_s", "1/s", stats::throughput(ok.len() as f64, wall))?;
    out.metric(
        "latency_ms_p50",
        "ms",
        stats::p50(&latencies).map(|s| s * 1e3),
    )?;
    out.metric(
        "peak_arena_mib",
        "MiB",
        stats::mean(&peaks).map(|b| b / MIB),
    )
}

/// serve-mix: cold registry loads, then per op one untraced request,
/// one traced request (head and body as seen by the client) and the
/// same request generated offline with `try_generate_stream`, its
/// bands encoded as the server encodes them.
pub fn replay(
    tr: &mut Tracer,
    inp: &Inputs,
    seed: u64,
    window: Option<f64>,
    out: &mut Outcome,
) -> Result<Vec<Pair>, String> {
    let registry = Registry::new(&inp.models_dir);
    tr.op("serve.load", |t| {
        for (name, _, _) in SERVE_CITIES {
            let loaded = t.span("serve.registry_load", |_| registry.get(name));
            out.op(loaded.map(drop).map_err(|e| e.to_string()));
        }
    });

    let offline = Offline::load(inp)?;
    let prepared: Vec<PreparedContext> =
        offline.contexts.iter().map(PreparedContext::new).collect();
    let running = Running::start(&inp.models_dir)?;
    for (s, reply) in warm_up(running.addr, seed, 7000) {
        out.op(offline.check(s, &reply, &offline.expected(s)));
    }

    let mut pairs = Vec::new();
    let mut i = 0;
    let start = Instant::now();
    while i < 3 || window.is_some_and(|w| secs(start) < w) {
        let s = spec(mix(seed, 7100), i);
        i += 1;
        let (name, h, w) = SERVE_CITIES[s.city];
        let real = client::generate(running.addr, name, s.t_out, s.seed);
        arena::stats_take();
        let (traced, reference) = tr.op("serve-mix", |t| {
            let traced = client::generate(running.addr, name, s.t_out, s.seed);
            if let Ok(r) = &traced {
                let at = |s: f64| r.start + std::time::Duration::from_secs_f64(s);
                t.record("serve.head", r.start, at(r.head_s));
                t.record("serve.body", at(r.head_s), at(r.total_s));
            }
            let mut map = TrafficMap::zeros(s.t_out, h, w);
            let run = t.span("serve.offline", |t| {
                offline.model.try_generate_stream(
                    &prepared[s.city],
                    s.t_out,
                    s.seed,
                    true,
                    16,
                    &mut |band| {
                        black_box(t.span("geo.encode_band", |_| encode_band(&band)));
                        band.write_into(&mut map);
                        true
                    },
                )
            });
            t.count(
                "tensor.fresh_allocs",
                arena::stats_take().fresh_allocs as f64,
            );
            (traced, run.map(|_| map).map_err(|e| e.to_string()))
        });
        let reference = reference?;
        for reply in [&real, &traced] {
            out.op(reply.as_ref().map_err(Clone::clone).and_then(|r| {
                let map = r.map.as_ref().ok_or(format!("status {}", r.status))?;
                same_bits(map, &reference).map_err(|e| format!("served != offline: {e}"))
            }));
        }
        if let (Ok(real), Ok(traced)) = (&real, &traced) {
            pairs.push(Pair {
                real_s: real.total_s,
                traced_s: traced.total_s,
                stage_s: tr.last_op_s("serve.head") + tr.last_op_s("serve.offline"),
            });
        }
    }
    running.stop()?;
    Ok(pairs)
}
