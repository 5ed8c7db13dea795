//! End-to-end observability tests: the `/metrics` exposition (golden
//! family set + strict lint on a live scrape), the enriched `/healthz`
//! and `/stats` documents, and request-correlated trace IDs flowing
//! from the HTTP acceptor through the scheduler into job events and
//! run records.
//!
//! Like `serve_concurrency.rs`, every test boots its own in-memory
//! engine on an ephemeral port, so nothing leaks between tests or into
//! the repo's cache directories.

use graphpim::config::PimMode;
use graphpim::experiments::{Experiments, RunKey};
use graphpim::json;
use graphpim::obs::prom;
use graphpim_graph::generate::LdbcSize;
use graphpim_serve::http::client;
use graphpim_serve::{AdmissionPolicy, ServeConfig, ServerHandle};
use std::sync::Arc;

fn boot() -> (ServerHandle, String, Arc<Experiments>) {
    let ctx = Arc::new(Experiments::with_cache(LdbcSize::K1, None).with_trace_store(None));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        http_threads: 8,
        policy: AdmissionPolicy::default(),
        ..ServeConfig::default()
    };
    let handle = graphpim_serve::start(cfg, Arc::clone(&ctx)).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    (handle, addr, ctx)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// The golden scrape: every family the endpoint promises is present,
/// the document passes the strict exposition lint, and counters that
/// just changed (a completed sweep) are reflected.
#[test]
fn metrics_scrape_is_lintable_and_carries_the_golden_family_set() {
    let (handle, addr, _ctx) = boot();

    // Run one single-key sweep to completion so engine/job counters
    // are nonzero and the latency histograms have samples.
    let stem = RunKey::new("DC", PimMode::Baseline, LdbcSize::K1).file_stem();
    let body = format!("{{\"keys\": [\"{stem}\"]}}");
    let (status, response) =
        client::request(&addr, "POST", "/sweeps", Some(body.as_bytes()), &[]).expect("submit");
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&response));
    let job = json::parse(&String::from_utf8_lossy(&response))
        .and_then(|d| d.as_object()?.get("job")?.as_u64())
        .expect("job id");
    let status = client::get_streaming(&addr, &format!("/jobs/{job}/events"), &[], &mut |_| {})
        .expect("event stream");
    assert_eq!(status, 200);

    let (status, headers, body) =
        client::request_full(&addr, "GET", "/metrics", None, &[]).expect("scrape");
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type"),
        Some("text/plain; version=0.0.4")
    );
    let text = String::from_utf8(body).expect("UTF-8 exposition");

    // Strict lint on the live scrape: grammar, HELP/TYPE coverage,
    // family contiguity, no duplicate series, histogram consistency.
    if let Err(errors) = prom::lint(&text) {
        panic!("exposition lint failed: {errors:?}\n{text}");
    }

    // Golden family set.
    for family in [
        "graphpim_build_info",
        "graphpim_uptime_seconds",
        "graphpim_draining",
        "graphpim_scheduler_queue_depth",
        "graphpim_scheduler_queued_cost_seconds",
        "graphpim_scheduler_jobs_retained",
        "graphpim_jobs_submitted_total",
        "graphpim_jobs_completed_total",
        "graphpim_units_resolved_total",
        "graphpim_units_panicked_total",
        "graphpim_admission_shed_total",
        "graphpim_engine_runs_total",
        "graphpim_engine_simulated_seconds_total",
        "graphpim_disk_cache_lookups_total",
        "graphpim_tracestore_captures",
        "graphpim_tracestore_replays",
        "graphpim_http_request_duration_micros",
        "graphpim_log_lines_total",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "missing family {family}:\n{text}"
        );
    }

    // The sweep that just finished is visible in the counters.
    assert!(text.contains("graphpim_jobs_submitted_total 1"), "{text}");
    assert!(text.contains("graphpim_jobs_completed_total 1"), "{text}");
    assert!(text.contains("graphpim_units_resolved_total 1"), "{text}");
    assert!(
        text.contains("graphpim_engine_runs_total{source=\"simulated\"} 1"),
        "{text}"
    );
    for reason in ["draining", "queue_budget_exceeded", "client_inflight_cap"] {
        assert!(
            text.contains(&format!(
                "graphpim_admission_shed_total{{reason=\"{reason}\"}}"
            )),
            "shed reason {reason} missing:\n{text}"
        );
    }
    // The POST /sweeps latency histogram recorded the submission.
    assert!(
        text.contains("graphpim_http_request_duration_micros_count{endpoint=\"POST /sweeps\"} 1"),
        "{text}"
    );

    handle.shutdown();
}

/// A trace ID supplied by the client is honored and surfaces at every
/// layer: the response header, the acceptance document, the job
/// snapshot, every job event, and the engine's run records. A garbage
/// inbound ID is replaced with a generated one.
#[test]
fn trace_id_flows_end_to_end() {
    let (handle, addr, ctx) = boot();

    let trace = "obs-test-trace-42";
    let stem = RunKey::new("DC", PimMode::GraphPim, LdbcSize::K1).file_stem();
    let body = format!("{{\"keys\": [\"{stem}\"]}}");
    let (status, headers, response) = client::request_full(
        &addr,
        "POST",
        "/sweeps",
        Some(body.as_bytes()),
        &[("X-Trace-Id", trace)],
    )
    .expect("submit");
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&response));
    assert_eq!(
        header(&headers, "x-trace-id"),
        Some(trace),
        "a sane inbound X-Trace-Id is echoed back"
    );
    let text = String::from_utf8_lossy(&response).to_string();
    let doc = json::parse(&text).expect("acceptance document");
    let obj = doc.as_object().unwrap();
    assert_eq!(obj.get("trace").unwrap().as_str(), Some(trace));
    let job = obj.get("job").unwrap().as_u64().expect("job id");

    // Every streamed event carries the trace.
    let mut events = Vec::new();
    let status = client::get_streaming(&addr, &format!("/jobs/{job}/events"), &[], &mut |line| {
        if !line.is_empty() {
            events.push(line.to_string());
        }
    })
    .expect("event stream");
    assert_eq!(status, 200);
    assert!(!events.is_empty());
    for event in &events {
        assert!(
            event.contains(&format!("\"trace\": \"{trace}\"")),
            "event missing trace: {event}"
        );
    }
    assert!(events.iter().any(|e| e.contains("\"queue_wait_us\"")));

    // The job snapshot carries it.
    let (status, snapshot) = client::get(&addr, &format!("/jobs/{job}")).expect("snapshot");
    assert_eq!(status, 200);
    let snapshot = String::from_utf8_lossy(&snapshot).to_string();
    assert!(
        snapshot.contains(&format!("\"trace\": \"{trace}\"")),
        "{snapshot}"
    );

    // The engine's run record was stamped with the same ID by the
    // worker's thread context — attribution without signature changes.
    let run = ctx
        .profile()
        .runs()
        .iter()
        .find(|r| r.key == stem)
        .cloned()
        .expect("the sweep simulated this key");
    assert_eq!(run.trace.as_deref(), Some(trace));

    // Garbage inbound IDs (here: too long) are replaced, not echoed.
    let long_id = "x".repeat(65);
    let (_, headers, _) =
        client::request_full(&addr, "GET", "/healthz", None, &[("X-Trace-Id", &long_id)])
            .expect("health");
    let echoed = header(&headers, "x-trace-id").expect("header present");
    assert_ne!(echoed, long_id);
    assert_eq!(echoed.len(), 16, "generated IDs are 16 hex digits");

    handle.shutdown();
}

/// `/healthz` reports version/uptime/profile; `/stats` gains the
/// logger's per-level emitted/dropped counters.
#[test]
fn healthz_and_stats_carry_observability_fields() {
    let (handle, addr, _ctx) = boot();

    let (status, body) = client::get(&addr, "/healthz").expect("health");
    assert_eq!(status, 200);
    let doc = json::parse(&String::from_utf8_lossy(&body)).expect("health JSON");
    let obj = doc.as_object().unwrap();
    assert!(obj.get("uptime_seconds").unwrap().as_f64().unwrap() >= 0.0);
    assert_eq!(
        obj.get("version").unwrap().as_str(),
        Some(env!("CARGO_PKG_VERSION"))
    );
    let profile = obj.get("profile").unwrap().as_str().unwrap();
    assert!(profile == "debug" || profile == "release");

    let (status, body) = client::get(&addr, "/stats").expect("stats");
    assert_eq!(status, 200);
    let doc = json::parse(&String::from_utf8_lossy(&body)).expect("stats JSON");
    let logger = doc
        .as_object()
        .unwrap()
        .get("logger")
        .expect("logger section")
        .as_object()
        .unwrap();
    for level in ["error", "warn", "info", "debug"] {
        let counts = logger.get(level).unwrap().as_object().unwrap();
        assert!(counts.get("emitted").unwrap().as_u64().is_some());
        assert!(counts.get("dropped").unwrap().as_u64().is_some());
    }

    handle.shutdown();
}
