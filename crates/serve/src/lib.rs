//! `spectragan serve` — generation as a service.
//!
//! A long-running multi-city traffic generation server over std TCP
//! with a hand-rolled HTTP/1.1 layer (the build environment has no
//! registry access, so no web framework). The design leans on the
//! workspace's determinism contracts:
//!
//! * **Byte identity.** A request's output bytes are identical to the
//!   offline `spectragan generate` CLI for the same `(city, seed,
//!   t_out, gen_batch)`, at any worker-thread count — generation
//!   funnels through the same `try_generate_*` core.
//! * **Streaming.** `POST /generate` answers with chunked
//!   transfer-encoding, one SGBD band frame per chunk, emitted the
//!   moment `generate_batched`'s ordered fold finishes the band's rows
//!   — the client sees the top of the city while the bottom is still
//!   being generated. `format: "sgtm"` instead buffers the full map
//!   and responds with a `Content-Length` SGTM body byte-identical to
//!   the offline output file.
//! * **Admission control.** Each request reserves its estimated peak
//!   arena bytes against a global budget before any tensor work;
//!   over-budget requests get `503` + `Retry-After` instead of letting
//!   concurrent generations OOM the process.
//! * **No panics from the wire.** Request validation happens *before*
//!   response headers are written, through typed
//!   [`CoreError::InvalidRequest`](spectragan_core::CoreError) errors;
//!   a worker additionally wraps each connection in `catch_unwind`.
//!
//! Endpoints: `POST /generate` (JSON body `{"city", "t_out", "seed"?,
//! "gen_batch"?, "format"?}`, seed below 2^53), `GET /healthz`,
//! `GET /metrics` (Prometheus text from `spectragan-obs`),
//! `GET /cities`.

pub mod admission;
pub mod client;
pub mod http;
pub mod registry;
pub mod signal;

use admission::{estimate_request_bytes, Admission};
use http::{ChunkedWriter, Request};
use registry::{Registry, RegistryError};
use serde::Deserialize;
use spectragan_core::CoreError;
use spectragan_geo::io::{encode_band, encode_traffic};
use spectragan_obs as obs;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Server configuration; every knob has a service-shaped default.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7077` (`:0` picks a free port).
    pub addr: String,
    /// Directory of `<city>.sgcm` context maps plus `model.json` /
    /// `<city>.json` weights.
    pub models_dir: PathBuf,
    /// Worker threads (each owns one connection at a time).
    pub workers: usize,
    /// Bounded accept queue; connections beyond it are answered `503`
    /// immediately instead of queueing unboundedly.
    pub queue_depth: usize,
    /// Global admission budget in estimated arena bytes.
    pub arena_budget_bytes: usize,
    /// Request body size limit.
    pub max_body_bytes: usize,
    /// Upper bound on `t_out` a request may ask for.
    pub max_t_out: usize,
}

impl ServeConfig {
    /// Defaults for `addr` and `models_dir`.
    pub fn new(addr: impl Into<String>, models_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: addr.into(),
            models_dir: models_dir.into(),
            workers: 4,
            queue_depth: 16,
            arena_budget_bytes: 2 << 30,
            max_body_bytes: 64 * 1024,
            max_t_out: 24 * 366,
        }
    }
}

/// Errors starting or running the server.
#[derive(Debug)]
pub enum ServeError {
    /// Bad configuration (zero workers, missing models dir…).
    Config(String),
    /// Socket-level failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(why) => write!(f, "serve config error: {why}"),
            ServeError::Io(e) => write!(f, "serve i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Shared server state: registry, admission budget, limits.
struct ServerState {
    registry: Registry,
    admission: Arc<Admission>,
    max_body_bytes: usize,
    max_t_out: usize,
}

/// The server. [`Server::bind`] opens the socket (so callers learn the
/// real port before serving); [`Server::run`] blocks until a
/// [`ServerHandle`] asks for shutdown, then drains in-flight requests.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    shutdown: Arc<AtomicBool>,
    workers: usize,
    queue_depth: usize,
}

/// A clonable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Asks the server to stop accepting and drain; returns
    /// immediately.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

impl Server {
    /// Binds the listener and validates the configuration.
    pub fn bind(cfg: ServeConfig) -> Result<Server, ServeError> {
        if cfg.workers == 0 {
            return Err(ServeError::Config("workers must be at least 1".into()));
        }
        if !cfg.models_dir.is_dir() {
            return Err(ServeError::Config(format!(
                "models dir {} is not a directory",
                cfg.models_dir.display()
            )));
        }
        let listener = TcpListener::bind(&cfg.addr).map_err(ServeError::Io)?;
        // /metrics is part of the contract, so the metrics layer is on
        // for the server's lifetime.
        obs::set_enabled(true);
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                registry: Registry::new(&cfg.models_dir),
                admission: Arc::new(Admission::new(cfg.arena_budget_bytes)),
                max_body_bytes: cfg.max_body_bytes,
                max_t_out: cfg.max_t_out,
            }),
            shutdown: Arc::new(AtomicBool::new(false)),
            workers: cfg.workers,
            queue_depth: cfg.queue_depth,
        })
    }

    /// The bound address (use after `addr: "127.0.0.1:0"`).
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        self.listener.local_addr().map_err(ServeError::Io)
    }

    /// The server's admission budget — load harnesses and tests use
    /// this to observe reservations or pin the budget down
    /// deterministically.
    pub fn admission(&self) -> Arc<Admission> {
        Arc::clone(&self.state.admission)
    }

    /// A handle that can stop this server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
        }
    }

    /// Accept loop: worker-per-connection over a bounded queue. Blocks
    /// until [`ServerHandle::shutdown`], then stops accepting, drains
    /// queued and in-flight connections, and joins the workers.
    pub fn run(self) -> Result<(), ServeError> {
        self.listener
            .set_nonblocking(true)
            .map_err(ServeError::Io)?;
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(self.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&self.state);
            workers.push(std::thread::spawn(move || loop {
                let conn = rx.lock().expect("worker queue lock").recv();
                match conn {
                    Ok(stream) => {
                        // One hostile or buggy request must not take
                        // the worker down.
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            handle_connection(stream, &state);
                        }));
                        if r.is_err() {
                            obs::counter("spectragan_serve_panics_total").inc(1);
                        }
                        // Spans are recorded (the layer is on for
                        // /metrics) but nothing in the server reads
                        // them: drop each request's, or the sink grows
                        // for the process's lifetime.
                        obs::discard_events();
                    }
                    Err(_) => return, // sender dropped: shutdown
                }
            }));
        }

        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    obs::counter("spectragan_serve_connections_total").inc(1);
                    if let Err(mpsc::TrySendError::Full(mut stream)) = tx.try_send(stream) {
                        // Queue full: shed load right here rather than
                        // queue unboundedly; the write is tiny.
                        obs::counter("spectragan_serve_queue_rejects_total").inc(1);
                        let _ = http::write_response(
                            &mut stream,
                            503,
                            "Service Unavailable",
                            "text/plain",
                            &[("Retry-After", "1")],
                            b"server busy: accept queue full\n",
                        );
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(ServeError::Io(e)),
            }
        }
        // Graceful drain: close the queue, let workers finish what
        // they hold, join.
        drop(tx);
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

/// A `/generate` request body. Every field is optional at the JSON
/// layer so missing fields produce a clean 400, not a parse panic.
#[derive(Debug, Deserialize)]
struct GenerateRequest {
    city: Option<String>,
    t_out: Option<usize>,
    seed: Option<u64>,
    gen_batch: Option<usize>,
    format: Option<String>,
}

/// The largest `/generate` seed the server accepts, 2^53 − 1. The JSON
/// layer holds every number as an `f64`, whose integers are exact only
/// below 2^53, so a larger seed would arrive rounded and silently
/// generate the city of a different seed.
const MAX_REQUEST_SEED: u64 = (1 << 53) - 1;

/// The request's seed (0 when absent), or a typed refusal when JSON
/// cannot have carried it exactly.
fn request_seed(seed: Option<u64>) -> Result<u64, CoreError> {
    match seed {
        Some(seed) if seed > MAX_REQUEST_SEED => Err(CoreError::InvalidRequest(format!(
            "seed must be below 2^53 = {}: JSON numbers are f64, so a larger seed is not \
             carried exactly",
            MAX_REQUEST_SEED + 1
        ))),
        seed => Ok(seed.unwrap_or(0)),
    }
}

/// How a `/generate` response is framed.
enum OutputFormat {
    /// Chunked SGBD band frames, streamed while generation runs.
    Bands,
    /// A single `Content-Length` SGTM body, byte-identical to the
    /// offline CLI's output file.
    Sgtm,
}

/// One connection, one request, one response.
fn handle_connection(mut stream: TcpStream, state: &ServerState) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let req = match http::read_request(&mut stream, state.max_body_bytes) {
        Ok(req) => req,
        Err(http::HttpError::TooLarge(why)) => {
            respond_error(&mut stream, 413, "Payload Too Large", &why);
            return;
        }
        Err(e) => {
            respond_error(&mut stream, 400, "Bad Request", &e.to_string());
            return;
        }
    };
    let _sp = obs::span_cat("serve_request", "serve");
    obs::counter("spectragan_serve_requests_total").inc(1);
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let _ = http::write_response(&mut stream, 200, "OK", "text/plain", &[], b"ok\n");
        }
        ("GET", "/metrics") => {
            obs::gauge("spectragan_serve_admitted_bytes").set(state.admission.reserved() as f64);
            obs::gauge("spectragan_basis_cache_bytes")
                .set(spectragan_core::fourier::basis_cache_bytes() as f64);
            let body = obs::prometheus_snapshot();
            let _ = http::write_response(
                &mut stream,
                200,
                "OK",
                "text/plain; version=0.0.4",
                &[],
                body.as_bytes(),
            );
        }
        ("GET", "/cities") => {
            let body = serde_json::to_string(&state.registry.status()).unwrap_or_default();
            let _ = http::write_response(
                &mut stream,
                200,
                "OK",
                "application/json",
                &[],
                body.as_bytes(),
            );
        }
        ("POST", "/generate") => handle_generate(stream, state, &req),
        (_, "/healthz" | "/metrics" | "/cities") => {
            let _ = http::write_response(
                &mut stream,
                405,
                "Method Not Allowed",
                "text/plain",
                &[("Allow", "GET")],
                b"method not allowed\n",
            );
        }
        (_, "/generate") => {
            let _ = http::write_response(
                &mut stream,
                405,
                "Method Not Allowed",
                "text/plain",
                &[("Allow", "POST")],
                b"method not allowed\n",
            );
        }
        _ => respond_error(&mut stream, 404, "Not Found", "no such endpoint"),
    }
}

fn respond_error(stream: &mut TcpStream, status: u16, reason: &str, why: &str) {
    obs::counter(match status {
        400 | 404 | 405 | 413 => "spectragan_serve_4xx_total",
        503 => "spectragan_serve_503_total",
        _ => "spectragan_serve_5xx_total",
    })
    .inc(1);
    let body = format!("{why}\n");
    let _ = http::write_response(stream, status, reason, "text/plain", &[], body.as_bytes());
}

/// The `/generate` path. Everything that can fail is checked *before*
/// the response head goes out; once streaming starts the only failure
/// mode left is the client hanging up, which just stops delivery.
fn handle_generate(mut stream: TcpStream, state: &ServerState, req: &Request) {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => {
            respond_error(&mut stream, 400, "Bad Request", "body is not UTF-8 JSON");
            return;
        }
    };
    let gen_req: GenerateRequest = match serde_json::from_str(body) {
        Ok(r) => r,
        Err(e) => {
            respond_error(&mut stream, 400, "Bad Request", &format!("bad JSON: {e}"));
            return;
        }
    };
    let Some(city) = gen_req.city.as_deref() else {
        respond_error(&mut stream, 400, "Bad Request", "missing field: city");
        return;
    };
    let Some(t_out) = gen_req.t_out else {
        respond_error(&mut stream, 400, "Bad Request", "missing field: t_out");
        return;
    };
    if t_out > state.max_t_out {
        respond_error(
            &mut stream,
            400,
            "Bad Request",
            &format!("t_out {t_out} exceeds the server limit {}", state.max_t_out),
        );
        return;
    }
    let seed = match request_seed(gen_req.seed) {
        Ok(seed) => seed,
        Err(e) => {
            respond_error(&mut stream, 400, "Bad Request", &e.to_string());
            return;
        }
    };
    let gen_batch = gen_req.gen_batch.unwrap_or(16);
    let format = match gen_req.format.as_deref() {
        None | Some("bands") => OutputFormat::Bands,
        Some("sgtm") => OutputFormat::Sgtm,
        Some(other) => {
            respond_error(
                &mut stream,
                400,
                "Bad Request",
                &format!("unknown format {other:?} (expected \"bands\" or \"sgtm\")"),
            );
            return;
        }
    };

    let entry = match state.registry.get(city) {
        Ok(entry) => entry,
        Err(e @ (RegistryError::BadName(_) | RegistryError::UnknownCity(_))) => {
            respond_error(&mut stream, 404, "Not Found", &e.to_string());
            return;
        }
        Err(e @ RegistryError::Load(_)) => {
            respond_error(&mut stream, 500, "Internal Server Error", &e.to_string());
            return;
        }
    };
    // Pre-flight validation: a streamed response cannot change its
    // status after the first band, so every request error must be
    // caught here.
    if let Err(e) = entry
        .model
        .validate_generate(&entry.prepared, t_out, gen_batch)
    {
        respond_error(&mut stream, 400, "Bad Request", &e.to_string());
        return;
    }

    let estimate = estimate_request_bytes(
        entry.model.config(),
        entry.prepared.height(),
        entry.prepared.width(),
        t_out,
        gen_batch,
    );
    let Some(_permit) = state.admission.try_admit(estimate) else {
        obs::counter("spectragan_serve_503_total").inc(1);
        let _ = http::write_response(
            &mut stream,
            503,
            "Service Unavailable",
            "text/plain",
            &[("Retry-After", "1")],
            b"admission budget exhausted, retry shortly\n",
        );
        return;
    };

    let started = Instant::now();
    let dims = format!(
        "{t_out} {} {}",
        entry.prepared.height(),
        entry.prepared.width()
    );
    let result: Result<(), CoreError> = match format {
        OutputFormat::Sgtm => entry
            .model
            .try_generate_prepared_report(&entry.prepared, t_out, seed, true, gen_batch)
            .map(|(map, _)| {
                let _ = http::write_response(
                    &mut stream,
                    200,
                    "OK",
                    "application/octet-stream",
                    &[("X-Spectragan-Dims", &dims)],
                    &encode_traffic(&map),
                );
            }),
        OutputFormat::Bands => {
            let mut writer = match ChunkedWriter::start(
                &mut stream,
                200,
                "OK",
                "application/octet-stream",
                &[("X-Spectragan-Dims", &dims)],
            ) {
                Ok(w) => w,
                Err(_) => return, // client gone before the head
            };
            let mut streamed = 0usize;
            let run = entry.model.try_generate_stream(
                &entry.prepared,
                t_out,
                seed,
                true,
                gen_batch,
                &mut |band| {
                    streamed += band.rows;
                    writer.write_chunk(&encode_band(&band)).is_ok()
                },
            );
            run.map(|_| {
                let _ = writer.finish();
                obs::counter("spectragan_serve_streamed_rows_total").inc(streamed as u64);
            })
        }
    };
    match result {
        Ok(()) => {
            obs::counter("spectragan_serve_generated_total").inc(1);
            obs::histogram("spectragan_serve_request_ns")
                .record(started.elapsed().as_nanos() as u64);
        }
        // Unreachable after pre-flight validation, but a typed error
        // must never kill the worker.
        Err(e) => respond_error(&mut stream, 400, "Bad Request", &e.to_string()),
    }
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_json_cannot_carry_are_refused() {
        assert_eq!(request_seed(None).unwrap(), 0);
        assert_eq!(request_seed(Some(7)).unwrap(), 7);
        assert_eq!(
            request_seed(Some(MAX_REQUEST_SEED)).unwrap(),
            MAX_REQUEST_SEED
        );
        for seed in [MAX_REQUEST_SEED + 1, u64::MAX] {
            let err = request_seed(Some(seed)).unwrap_err();
            assert!(matches!(err, CoreError::InvalidRequest(_)), "{err:?}");
            assert!(err.to_string().contains("seed must be below 2^53"), "{err}");
        }
    }

    /// 2^53 + 1 reaches the server as 2^53: the rounding the refusal
    /// exists for, seen through the request parser.
    #[test]
    fn json_rounds_seeds_past_2_pow_53() {
        let req: GenerateRequest =
            serde_json::from_str(r#"{"city":"a","t_out":24,"seed":9007199254740993}"#).unwrap();
        assert_eq!(req.seed, Some(MAX_REQUEST_SEED + 1));
        assert!(request_seed(req.seed).is_err());
        let req: GenerateRequest =
            serde_json::from_str(r#"{"city":"a","t_out":24,"seed":9007199254740991}"#).unwrap();
        assert_eq!(request_seed(req.seed).unwrap(), MAX_REQUEST_SEED);
    }
}
