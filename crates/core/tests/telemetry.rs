//! End-to-end telemetry tests: a traced run must produce bit-identical
//! metrics, and the counter events of its Perfetto trace must parse back
//! with the final one agreeing exactly with the finalized `RunMetrics`
//! counters.

use graphpim::config::PimMode;
use graphpim::experiments::{Experiments, RunKey};
use graphpim::json;
use graphpim_graph::generate::LdbcSize;
use graphpim_sim::telemetry::CounterRegistry;

/// Every counter event (`"ph":"C"`) of a Perfetto trace, in file order,
/// as `(ts, counters)`.
fn counter_events(text: &str) -> Vec<(f64, CounterRegistry)> {
    let doc = json::parse(text).expect("the trace is valid JSON");
    let events = doc
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    let mut out = Vec::new();
    for event in events {
        let obj = event.as_object().expect("every event is an object");
        if obj.get("ph").and_then(|v| v.as_str()) != Some("C") {
            continue;
        }
        let ts = obj.get("ts").and_then(|v| v.as_f64()).expect("ts");
        let Some(json::Value::Object(args)) = obj.get("args") else {
            panic!("counter event without args");
        };
        let mut counters = CounterRegistry::default();
        for (key, value) in args {
            counters.record(key, value.as_f64().expect("numeric counter"));
        }
        out.push((ts, counters));
    }
    out
}

#[test]
fn traced_run_is_bit_identical_and_trace_parses() {
    let trace_dir = std::env::temp_dir().join(format!("graphpim-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&trace_dir);
    let key = RunKey::new("DC", PimMode::GraphPim, LdbcSize::K1);

    let plain = Experiments::with_cache(LdbcSize::K1, None);
    let want = plain.metrics_for(&key);

    let traced = Experiments::with_cache(LdbcSize::K1, None).with_perfetto_dir(&trace_dir);
    let got = traced.metrics_for(&key);

    // Telemetry is observation-only: every field identical, cycles
    // bit-identical.
    assert_eq!(got, want);
    assert_eq!(got.total_cycles.to_bits(), want.total_cycles.to_bits());

    // The trace exists, its counter events parse, and they are monotone.
    let trace_file = trace_dir.join(format!("{}.trace.json", key.file_stem()));
    let text = std::fs::read_to_string(&trace_file).expect("trace file written");
    let snapshots = counter_events(&text);
    assert!(
        snapshots.len() >= 2,
        "expected at least one barrier counter event plus the final one, got {}",
        snapshots.len()
    );
    for pair in snapshots.windows(2) {
        assert!(
            pair[1].0 >= pair[0].0,
            "counter event timestamps must be non-decreasing"
        );
    }

    // Counters never decrease across events (they are all cumulative
    // counts or cycle sums) — spot-check the headline ones.
    for counter in ["core.instructions", "hmc.atomics", "mem.l1.hits"] {
        let series: Vec<f64> = snapshots
            .iter()
            .map(|(_, c)| c.get(counter).expect("counter present"))
            .collect();
        assert!(
            series.windows(2).all(|w| w[1] >= w[0]),
            "{counter} decreased across counter events: {series:?}"
        );
    }

    // The final counter event agrees bit-for-bit with the finalized
    // metrics.
    let (_, last) = snapshots.last().unwrap();
    let finalized = got.counter_registry();
    for (counter, value) in finalized.iter() {
        let traced_value = last
            .get(counter)
            .unwrap_or_else(|| panic!("final counter event missing {counter}"));
        assert_eq!(
            traced_value.to_bits(),
            value.to_bits(),
            "final counter event disagrees with RunMetrics on {counter}"
        );
    }
    assert_eq!(
        last.get("system.total_cycles").unwrap().to_bits(),
        got.total_cycles.to_bits()
    );

    // Vault histograms are only present in traced runs, and only in the
    // trace (never in RunMetrics).
    assert!(last.get("hmc.vault00.queue_wait.count").is_some());
    assert!(finalized.get("hmc.vault00.queue_wait.count").is_none());

    let _ = std::fs::remove_dir_all(&trace_dir);
}
