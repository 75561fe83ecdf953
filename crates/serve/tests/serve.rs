//! End-to-end tests: a real server on a loopback socket, a real
//! client, and byte-level comparison against the offline generation
//! path.

use spectragan_core::{SpectraGan, SpectraGanConfig};
use spectragan_geo::io::{encode_traffic, save_context};
use spectragan_serve::client::{assemble_bands, request};
use spectragan_serve::{ServeConfig, Server, ServerHandle};
use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};
use std::path::PathBuf;

const SEED: u64 = 3;

/// Builds a models directory holding a shared tiny model plus two
/// cities of different sizes, and returns it with the offline model
/// and contexts for reference generation.
fn fixture() -> (
    PathBuf,
    SpectraGan,
    Vec<(String, spectragan_geo::ContextMap)>,
) {
    let dir = std::env::temp_dir().join(format!(
        "sg_serve_e2e_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let model = SpectraGan::new(SpectraGanConfig::tiny(), SEED);
    std::fs::write(dir.join("model.json"), model.to_model_json()).unwrap();
    let ds = DatasetConfig {
        weeks: 1,
        steps_per_hour: 1,
        size_scale: 0.36,
    };
    let mut cities = Vec::new();
    for (name, height, width, seed) in [("city_a", 33, 33, 1u64), ("city_b", 41, 37, 2)] {
        let city = generate_city(
            &CityConfig {
                name: name.to_string(),
                height,
                width,
                seed,
            },
            &ds,
        );
        save_context(&city.context, dir.join(format!("{name}.sgcm"))).unwrap();
        cities.push((name.to_string(), city.context));
    }
    (dir, model, cities)
}

struct RunningServer {
    addr: String,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RunningServer {
    fn start(cfg: ServeConfig) -> (Self, std::sync::Arc<spectragan_serve::admission::Admission>) {
        let server = Server::bind(cfg).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle();
        let admission = server.admission();
        let thread = std::thread::spawn(move || server.run().unwrap());
        (
            RunningServer {
                addr,
                handle,
                thread: Some(thread),
            },
            admission,
        )
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn gen_body(city: &str, t_out: usize, seed: u64, gen_batch: usize, format: &str) -> Vec<u8> {
    format!(
        "{{\"city\":\"{city}\",\"t_out\":{t_out},\"seed\":{seed},\"gen_batch\":{gen_batch},\"format\":\"{format}\"}}"
    )
    .into_bytes()
}

#[test]
fn health_metrics_cities_and_routing() {
    let (dir, _, _) = fixture();
    let (server, _) = RunningServer::start(ServeConfig::new("127.0.0.1:0", &dir));

    let health = request(&server.addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"ok\n");

    let cities = request(&server.addr, "GET", "/cities", b"").unwrap();
    assert_eq!(cities.status, 200);
    let listed: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&cities.body).unwrap()).expect("cities is JSON");
    let listed = match &listed {
        serde_json::Value::Arr(items) => items,
        other => panic!("cities is not a JSON list: {other:?}"),
    };
    let names: Vec<&str> = listed
        .iter()
        .map(|c| match c.get("name") {
            Some(serde_json::Value::Str(s)) => s.as_str(),
            other => panic!("city entry without a name: {other:?}"),
        })
        .collect();
    assert_eq!(names, ["city_a", "city_b"]);
    // Nothing served yet: no city is loaded, nothing resident.
    for c in listed {
        assert!(matches!(
            c.get("loaded"),
            Some(serde_json::Value::Bool(false))
        ));
        assert!(matches!(
            c.get("resident_weight_bytes"),
            Some(serde_json::Value::Num(n)) if *n == 0.0
        ));
    }

    let metrics = request(&server.addr, "GET", "/metrics", b"").unwrap();
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).unwrap();
    assert!(
        text.contains("spectragan_serve_requests_total"),
        "metrics must expose serve counters:\n{text}"
    );

    assert_eq!(
        request(&server.addr, "GET", "/nope", b"").unwrap().status,
        404
    );
    let wrong = request(&server.addr, "GET", "/generate", b"").unwrap();
    assert_eq!(wrong.status, 405);
    assert_eq!(wrong.header("allow"), Some("POST"));
    assert_eq!(
        request(&server.addr, "POST", "/healthz", b"")
            .unwrap()
            .status,
        405
    );
}

/// The determinism contract of the whole subsystem: served bytes —
/// both framings — equal the offline generation path exactly.
#[test]
fn served_bytes_equal_offline_generation() {
    let (dir, model, cities) = fixture();
    let (server, _) = RunningServer::start(ServeConfig::new("127.0.0.1:0", &dir));

    for (name, context) in &cities {
        let t_out = 30;
        let (offline, _) = model.generate_batched_report(context, t_out, 7, true, 5);

        let sgtm = request(
            &server.addr,
            "POST",
            "/generate",
            &gen_body(name, t_out, 7, 5, "sgtm"),
        )
        .unwrap();
        assert_eq!(sgtm.status, 200, "{name}");
        assert_eq!(
            sgtm.body,
            encode_traffic(&offline),
            "{name}: served SGTM differs from offline bytes"
        );
        assert_eq!(
            sgtm.header("x-spectragan-dims"),
            Some(format!("{t_out} {} {}", context.height(), context.width()).as_str())
        );

        let bands = request(
            &server.addr,
            "POST",
            "/generate",
            &gen_body(name, t_out, 7, 5, "bands"),
        )
        .unwrap();
        assert_eq!(bands.status, 200, "{name}");
        assert!(
            bands.chunks.len() >= 2,
            "{name}: expected a multi-band stream, got {} chunk(s)",
            bands.chunks.len()
        );
        let assembled = assemble_bands(&bands).unwrap();
        assert_eq!(
            assembled.data(),
            offline.data(),
            "{name}: assembled band stream differs from offline map"
        );
    }
}

/// Serving out of a mapped `SGWT` container is invisible on the wire:
/// the same request against a JSON-weights server and an SGWT-weights
/// server returns byte-identical traffic, `/cities` reports the
/// container as mapped with a nonzero resident footprint once loaded,
/// and a corrupt container is refused at load (404/5xx, not a crash).
#[test]
fn sgwt_container_serves_identical_bytes_and_reports_residency() {
    let (dir, model, cities) = fixture();
    let t_out = 30;
    let (name, _context) = &cities[0];
    let body = gen_body(name, t_out, 7, 5, "sgtm");

    // Reference: served bytes with the fixture's model.json.
    let (json_server, _) = RunningServer::start(ServeConfig::new("127.0.0.1:0", &dir));
    let from_json = request(&json_server.addr, "POST", "/generate", &body).unwrap();
    assert_eq!(from_json.status, 200);
    drop(json_server);

    // Same fixture, but the model is now an f32 SGWT container —
    // preferred over the still-present model.json.
    spectragan_core::weights::save_weights(
        &model,
        dir.join("model.sgwt"),
        spectragan_core::weights::Precision::F32,
    )
    .unwrap();
    let (sgwt_server, _) = RunningServer::start(ServeConfig::new("127.0.0.1:0", &dir));
    let from_sgwt = request(&sgwt_server.addr, "POST", "/generate", &body).unwrap();
    assert_eq!(from_sgwt.status, 200);
    assert_eq!(
        from_sgwt.body, from_json.body,
        "SGWT-served bytes differ from JSON-served bytes"
    );

    // /cities now shows the served city as loaded+mapped+resident.
    let status = request(&sgwt_server.addr, "GET", "/cities", b"").unwrap();
    let parsed: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&status.body).unwrap()).unwrap();
    let serde_json::Value::Arr(items) = &parsed else {
        panic!("cities is not a list")
    };
    let entry = items
        .iter()
        .find(|c| matches!(c.get("name"), Some(serde_json::Value::Str(s)) if s == name))
        .expect("served city listed");
    assert!(matches!(
        entry.get("loaded"),
        Some(serde_json::Value::Bool(true))
    ));
    assert!(matches!(
        entry.get("mapped"),
        Some(serde_json::Value::Bool(true))
    ));
    assert!(matches!(
        entry.get("resident_weight_bytes"),
        Some(serde_json::Value::Num(n)) if *n > 0.0
    ));
    drop(sgwt_server);

    // Corrupt one payload byte: the load is refused with a typed
    // error (5xx surface), the process survives.
    let path = dir.join("model.sgwt");
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let (bad_server, _) = RunningServer::start(ServeConfig::new("127.0.0.1:0", &dir));
    let refused = request(&bad_server.addr, "POST", "/generate", &body).unwrap();
    assert_ne!(refused.status, 200, "corrupt container must not serve");
    let health = request(&bad_server.addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200, "server must survive the bad load");
}

/// The f16 and int8 containers earlier releases wrote (see
/// `spectragan-core`'s `tests/fixtures/`), with the text their refusal
/// must carry.
const LEGACY_CONTAINERS: [(&str, &str); 2] = [
    ("tiny_seed7_f16_v1.sgwt", "unsupported dtype 1 (f16)"),
    (
        "tiny_seed7_int8_v2.sgwt",
        "unsupported weight container version 2",
    ),
];

/// A city whose shared `model.sgwt` is a reduced-precision container
/// gets the registry's load-failure response naming the unsupported
/// dtype or version, while `/healthz` and a city with its own model
/// keep serving.
#[test]
fn reduced_precision_container_is_a_load_error_and_others_keep_serving() {
    let (dir, model, _) = fixture();
    // city_b gets its own model, which wins over the shared one.
    std::fs::write(dir.join("city_b.json"), model.to_model_json()).unwrap();
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/tests/fixtures");
    for (name, expect) in LEGACY_CONTAINERS {
        std::fs::copy(fixtures.join(name), dir.join("model.sgwt")).unwrap();
        let (server, _) = RunningServer::start(ServeConfig::new("127.0.0.1:0", &dir));
        let refused = request(
            &server.addr,
            "POST",
            "/generate",
            &gen_body("city_a", 24, 7, 5, "sgtm"),
        )
        .unwrap();
        assert_eq!(refused.status, 500, "{name}");
        let text = String::from_utf8_lossy(&refused.body).to_string();
        assert!(
            text.contains("model load failed") && text.contains(expect),
            "{name}: {text}"
        );
        let health = request(&server.addr, "GET", "/healthz", b"").unwrap();
        assert_eq!(
            health.status, 200,
            "{name}: server must survive the bad load"
        );
        let other = request(
            &server.addr,
            "POST",
            "/generate",
            &gen_body("city_b", 24, 7, 5, "sgtm"),
        )
        .unwrap();
        assert_eq!(other.status, 200, "{name}: other cities keep serving");
    }
}

#[test]
fn invalid_requests_get_typed_4xx_and_server_survives() {
    let (dir, _, _) = fixture();
    let (server, _) = RunningServer::start(ServeConfig::new("127.0.0.1:0", &dir));

    let cases: Vec<(Vec<u8>, u16, &str)> = vec![
        (b"not json at all".to_vec(), 400, "bad JSON"),
        (b"{}".to_vec(), 400, "missing field"),
        (
            gen_body("no_such_city", 24, 0, 8, "bands"),
            404,
            "unknown city",
        ),
        (
            gen_body("../etc", 24, 0, 8, "bands"),
            404,
            "invalid city name",
        ),
        (gen_body("city_a", 0, 0, 8, "bands"), 400, "t_out"),
        (gen_body("city_a", 24, 0, 0, "bands"), 400, "gen_batch"),
        (gen_body("city_a", 24, 0, 8, "yaml"), 400, "unknown format"),
        (
            gen_body("city_a", 10_000_000, 0, 8, "bands"),
            400,
            "server limit",
        ),
        // 2^53 + 1 would arrive as 2^53 and serve a different seed.
        (
            gen_body("city_a", 24, (1 << 53) + 1, 8, "bands"),
            400,
            "seed must be below 2^53",
        ),
    ];
    for (body, want_status, needle) in cases {
        let resp = request(&server.addr, "POST", "/generate", &body).unwrap();
        assert_eq!(resp.status, want_status, "{needle}");
        let text = String::from_utf8_lossy(&resp.body).to_string();
        assert!(
            text.contains(needle),
            "expected {needle:?} in error body {text:?}"
        );
    }

    // After all that abuse the server still serves a valid request.
    let ok = request(
        &server.addr,
        "POST",
        "/generate",
        &gen_body("city_a", 24, 0, 8, "bands"),
    )
    .unwrap();
    assert_eq!(ok.status, 200);
}

/// A body of nothing but `[`, as large as the body cap allows, used to
/// overflow a worker's stack in the JSON parser and abort the server.
/// It is a 400 naming the nesting limit, and the server keeps serving.
#[test]
fn deeply_nested_body_is_a_400_and_the_server_survives() {
    let (dir, _, _) = fixture();
    let cfg = ServeConfig::new("127.0.0.1:0", &dir);
    let body = vec![b'['; cfg.max_body_bytes];
    assert_eq!(body.len(), 64 * 1024);
    let (server, _) = RunningServer::start(cfg);

    let resp = request(&server.addr, "POST", "/generate", &body).unwrap();
    assert_eq!(resp.status, 400);
    let text = String::from_utf8_lossy(&resp.body).to_string();
    assert!(text.contains("recursion limit"), "error body {text:?}");

    let health = request(&server.addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"ok\n");
}

/// Admission control: with the budget pinned full, a request is shed
/// with 503 + Retry-After; once the budget frees, the same request
/// succeeds.
#[test]
fn admission_exhaustion_returns_503_with_retry_after() {
    let (dir, _, _) = fixture();
    let mut cfg = ServeConfig::new("127.0.0.1:0", &dir);
    cfg.arena_budget_bytes = 1 << 20;
    let (server, admission) = RunningServer::start(cfg);

    let permit = admission.try_admit(1 << 20).expect("idle budget");
    let shed = request(
        &server.addr,
        "POST",
        "/generate",
        &gen_body("city_a", 24, 0, 8, "bands"),
    )
    .unwrap();
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("1"));
    drop(permit);

    let ok = request(
        &server.addr,
        "POST",
        "/generate",
        &gen_body("city_a", 24, 0, 8, "bands"),
    )
    .unwrap();
    assert_eq!(ok.status, 200);
}

/// Concurrent mixed-city, mixed-duration storm: every streamed answer
/// must be bit-identical to its offline reference, whatever the
/// interleaving.
#[test]
fn concurrent_storm_is_bitwise_deterministic() {
    let (dir, model, cities) = fixture();
    let mut cfg = ServeConfig::new("127.0.0.1:0", &dir);
    cfg.workers = 4;
    let (server, _) = RunningServer::start(cfg);

    let jobs: Vec<(String, usize, u64)> = vec![
        ("city_a".into(), 24, 1),
        ("city_b".into(), 30, 2),
        ("city_a".into(), 30, 3),
        ("city_b".into(), 24, 1),
        ("city_a".into(), 24, 1),
        ("city_b".into(), 30, 2),
    ];
    let mut references = std::collections::HashMap::new();
    for (city, t_out, seed) in &jobs {
        let context = &cities.iter().find(|(n, _)| n == city).unwrap().1;
        references
            .entry((city.clone(), *t_out, *seed))
            .or_insert_with(|| {
                model
                    .generate_batched_report(context, *t_out, *seed, true, 5)
                    .0
            });
    }

    std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|(city, t_out, seed)| {
                let addr = server.addr.clone();
                s.spawn(move || {
                    let resp = request(
                        &addr,
                        "POST",
                        "/generate",
                        &gen_body(city, *t_out, *seed, 5, "bands"),
                    )
                    .unwrap();
                    assert_eq!(resp.status, 200, "{city} t={t_out} seed={seed}");
                    assemble_bands(&resp).unwrap()
                })
            })
            .collect();
        for (handle, (city, t_out, seed)) in handles.into_iter().zip(&jobs) {
            let got = handle.join().unwrap();
            let want = &references[&(city.clone(), *t_out, *seed)];
            assert_eq!(
                got.data(),
                want.data(),
                "{city} t={t_out} seed={seed}: served ≠ offline under concurrency"
            );
        }
    });
}

/// Shutdown drains: the handle stops the accept loop and `run`
/// returns; afterwards new connections are refused or reset.
#[test]
fn graceful_shutdown_stops_accepting() {
    let (dir, _, _) = fixture();
    let (server, _) = RunningServer::start(ServeConfig::new("127.0.0.1:0", &dir));
    let addr = server.addr.clone();

    // Server is live…
    assert_eq!(request(&addr, "GET", "/healthz", b"").unwrap().status, 200);
    // …then asked to stop (Drop also joins the run thread, proving the
    // loop exits).
    drop(server);
    // A fresh connection now fails at some layer — connect refusal or
    // an unanswered request.
    let after = request(&addr, "GET", "/healthz", b"");
    assert!(after.is_err(), "server must stop answering after shutdown");
}
