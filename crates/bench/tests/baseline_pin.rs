//! The bit-exact model gate: the Figure 7 + Figure 1 run set at LDBC-1k
//! must reproduce `crates/bench/baseline.json` (every speedup, baseline
//! IPC and GraphPIM offload fraction) from each source a run can take: a
//! live run (trace store off), a decoded replay and an encoded replay.
//!
//! The tolerance (1e-6 relative) only absorbs decimal round-trips; any
//! real timing change trips it. A failure writes the fresh document to a
//! temp file named in the panic message: after an intentional model
//! change, copy its `metrics` into the baseline. `wall_seconds` is
//! never compared.

use graphpim::config::PimMode;
use graphpim::experiments::{fig01, fig07, Experiments, EVAL_KERNELS};
use graphpim::json;
use graphpim::tracestore::TraceStore;
use graphpim_graph::generate::LdbcSize;

const BASELINE: &str = include_str!("../baseline.json");

/// Relative tolerance for every metric.
const TOLERANCE: f64 = 1e-6;

/// One pass over the run set: its scale and flat metric list.
struct Report {
    scale: String,
    metrics: Vec<(String, f64)>,
}

fn collect(ctx: &Experiments) -> Report {
    let mut metrics = Vec::new();
    for row in fig07::run(ctx) {
        metrics.push((format!("speedup.upei.{}", row.workload), row.upei));
        metrics.push((format!("speedup.graphpim.{}", row.workload), row.graphpim));
    }
    for row in fig01::run(ctx) {
        metrics.push((format!("ipc.baseline.{}", row.workload), row.ipc));
    }
    // Memoized: reuses the fig07 runs.
    for kernel in EVAL_KERNELS {
        let m = ctx.metrics(kernel, PimMode::GraphPim);
        let fraction = m.offloaded_atomics as f64 / m.offload_candidates.max(1) as f64;
        metrics.push((format!("offload_fraction.graphpim.{kernel}"), fraction));
    }
    Report {
        scale: ctx.size().to_string(),
        metrics,
    }
}

/// The report in the baseline's schema, with no wall times. `{:?}`
/// floats round-trip exactly through the JSON reader.
fn to_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(key, value)| format!("    \"{key}\": {value:?}"))
        .collect();
    format!(
        "{{\n  \"schema\": \"graphpim-bench-report-v1\",\n  \"scale\": \"{}\",\n  \
         \"wall_seconds\": {{}},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        report.scale,
        metrics.join(",\n")
    )
}

/// Compares `report` against the `baseline` document. Returns the
/// violations (empty = pass). A scale mismatch is the only violation
/// reported, since no metric is comparable across scales.
fn check(report: &Report, baseline: &str) -> Vec<String> {
    let doc = json::parse(baseline).expect("the baseline is JSON");
    let obj = doc.as_object().expect("the baseline is a JSON object");
    let scale = obj.get("scale").and_then(|v| v.as_str());
    if scale != Some(report.scale.as_str()) {
        return vec![format!(
            "scale mismatch: baseline recorded at {}, this run is {}",
            scale.unwrap_or("no scale"),
            report.scale
        )];
    }
    let Some(json::Value::Object(expected)) = obj.get("metrics") else {
        return vec!["baseline has no \"metrics\" object".to_string()];
    };
    let mut violations = Vec::new();
    for (key, want) in expected.iter().filter_map(|(k, v)| Some((k, v.as_f64()?))) {
        match report.metrics.iter().find(|(k, _)| k == key) {
            None => violations.push(format!("metric {key} missing from this run")),
            Some(&(_, got)) => {
                let scale = want.abs().max(got.abs()).max(1.0);
                if (got - want).abs() > TOLERANCE * scale {
                    violations.push(format!(
                        "metric {key} drifted: baseline {want:?}, got {got:?} \
                         (rel. err {:.2e}, tolerance {TOLERANCE:.0e})",
                        (got - want).abs() / scale
                    ));
                }
            }
        }
    }
    violations
}

/// An LDBC-1k context with no run cache and the trace store and trace
/// residency set here, so no environment knob changes what runs.
fn context(store: Option<TraceStore>, stream_replay: bool) -> Experiments {
    Experiments::with_cache(LdbcSize::K1, None)
        .with_trace_store(store)
        .with_stream_replay(stream_replay)
}

/// Runs the gate on `ctx`; on failure writes the fresh report to a temp
/// file and panics naming it.
fn assert_reproduces_baseline(source: &str, ctx: &Experiments) {
    let report = collect(ctx);
    let violations = check(&report, BASELINE);
    if violations.is_empty() {
        return;
    }
    let path = std::env::temp_dir().join(format!(
        "graphpim-baseline-{source}-{}.json",
        std::process::id()
    ));
    std::fs::write(&path, to_json(&report)).expect("write the fresh report");
    panic!(
        "{source}: {} violation(s) against crates/bench/baseline.json:\n  {}\n\
         fresh report: {} (after an intentional model change, copy its metrics \
         into crates/bench/baseline.json)",
        violations.len(),
        violations.join("\n  "),
        path.display()
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full fig07+fig01 sweep at 1k; run with --release"
)]
fn live_run_reproduces_the_committed_baseline() {
    assert_reproduces_baseline("live", &context(None, false));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "two fig07+fig01 sweeps at 1k; run with --release"
)]
fn decoded_and_encoded_replays_reproduce_the_committed_baseline() {
    let dir = std::env::temp_dir().join(format!(
        "graphpim-baseline-pin-store-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let decoded = context(Some(TraceStore::at(&dir)), false);
    assert_reproduces_baseline("decoded", &decoded);
    let counts = decoded.profile().trace_store();
    assert!(counts.captures > 0 && counts.replays > 0, "{counts:?}");

    // Same store: every trace is a disk hit, replayed frame by frame.
    let encoded = context(Some(TraceStore::at(&dir)), true);
    assert_reproduces_baseline("encoded", &encoded);
    let counts = encoded.profile().trace_store();
    assert!(
        counts.captures == 0 && counts.disk_hits > 0 && counts.replays > 0,
        "{counts:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A two-metric baseline for the comparison rule's own tests.
const SMALL: &str = r#"{
  "schema": "graphpim-bench-report-v1",
  "scale": "LDBC-1k",
  "wall_seconds": {"fig07": 4.0},
  "metrics": {"speedup.graphpim.DC": 2.5, "ipc.baseline.BFS": 0.25}
}"#;

fn report(scale: &str, metrics: &[(&str, f64)]) -> Report {
    Report {
        scale: scale.to_string(),
        metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
    }
}

#[test]
fn values_within_tolerance_pass() {
    // Relative to the value above 1, absolute (1e-6) below it; extra
    // metrics the baseline does not list are ignored.
    let run = report(
        "LDBC-1k",
        &[
            ("speedup.graphpim.DC", 2.5 * (1.0 + 9e-7)),
            ("ipc.baseline.BFS", 0.25 - 9e-7),
            ("speedup.upei.DC", 2.6),
        ],
    );
    assert_eq!(check(&run, SMALL), Vec::<String>::new());
}

#[test]
fn relative_drift_of_1e_5_is_reported() {
    let run = report(
        "LDBC-1k",
        &[
            ("speedup.graphpim.DC", 2.5 * (1.0 + 1e-5)),
            ("ipc.baseline.BFS", 0.25),
        ],
    );
    let violations = check(&run, SMALL);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].starts_with("metric speedup.graphpim.DC drifted"));
}

#[test]
fn missing_metric_is_reported() {
    let run = report("LDBC-1k", &[("speedup.graphpim.DC", 2.5)]);
    assert_eq!(
        check(&run, SMALL),
        ["metric ipc.baseline.BFS missing from this run"]
    );
}

#[test]
fn scale_mismatch_is_reported_and_stops_the_comparison() {
    let run = report("LDBC-10k", &[("speedup.graphpim.DC", 3.0)]);
    assert_eq!(
        check(&run, SMALL),
        ["scale mismatch: baseline recorded at LDBC-1k, this run is LDBC-10k"]
    );
}

#[test]
fn written_report_passes_as_a_baseline() {
    // The re-record path: the document a failure writes is itself a
    // valid baseline for the run that produced it.
    let run = report("LDBC-1k", &[("speedup.graphpim.DC", 0.1 + 0.2)]);
    assert_eq!(check(&run, &to_json(&run)), Vec::<String>::new());
}
