//! The server keeps the obs layer on for its whole lifetime (for
//! `/metrics`) but reads no spans, so it must not let the process-wide
//! span sink grow with every request. The sink is process-global, so
//! this check has its own test binary.

use spectragan_core::{SpectraGan, SpectraGanConfig};
use spectragan_geo::io::save_context;
use spectragan_obs as obs;
use spectragan_serve::client::request;
use spectragan_serve::{ServeConfig, Server};
use spectragan_synthdata::{generate_city, CityConfig, DatasetConfig};

/// After many `/generate` requests, the sink holds at most the last
/// request's events: every event left started after that request was
/// sent, and at most one `serve_request` span remains.
#[test]
fn span_sink_holds_at_most_one_request() {
    let dir = std::env::temp_dir().join(format!("sg_serve_sink_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let model = SpectraGan::new(SpectraGanConfig::tiny(), 3);
    std::fs::write(dir.join("model.json"), model.to_model_json()).unwrap();
    let city = generate_city(
        &CityConfig {
            name: "city_a".into(),
            height: 33,
            width: 33,
            seed: 1,
        },
        &DatasetConfig {
            weeks: 1,
            steps_per_hour: 1,
            size_scale: 0.36,
        },
    );
    save_context(&city.context, dir.join("city_a.sgcm")).unwrap();

    // One worker: it discards request i's events before it accepts
    // request i + 1, so the bound below is exact, not timing-dependent.
    let mut cfg = ServeConfig::new("127.0.0.1:0", &dir);
    cfg.workers = 1;
    let server = Server::bind(cfg).unwrap();
    assert!(obs::enabled(), "the server keeps the obs layer on");
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().unwrap());

    let body = br#"{"city":"city_a","t_out":24,"seed":5,"format":"sgtm"}"#;
    let mut last_sent_ns = 0;
    for _ in 0..20 {
        last_sent_ns = obs::now_ns();
        let resp = request(&addr, "POST", "/generate", body).unwrap();
        assert_eq!(resp.status, 200);
    }
    let events = obs::drain_events();
    handle.shutdown();
    thread.join().unwrap();

    let stale: Vec<_> = events
        .iter()
        .filter(|e| e.start_ns < last_sent_ns)
        .collect();
    assert!(
        stale.is_empty(),
        "{} of {} sink events predate the last request: {:?}",
        stale.len(),
        events.len(),
        &stale[..stale.len().min(4)]
    );
    let requests = events.iter().filter(|e| e.name == "serve_request").count();
    assert!(
        requests <= 1,
        "{requests} serve_request spans left in the sink"
    );
}
