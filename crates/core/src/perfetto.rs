//! Chrome trace-event export for ui.perfetto.dev: the one per-run trace.
//!
//! A [`PerfettoTrace`] accumulates events during a run and writes one
//! `trace.json` in the Chrome trace-event format (the JSON array flavor
//! Perfetto ingests directly). The simulator emits these row groups:
//!
//! * **pid 0 — supersteps**: one span per superstep barrier interval,
//!   and one counter event (`"ph":"C"`) at every barrier and at run end
//!   carrying every registered counter (`core.*`, `mem.*`, `hmc.*`
//!   including the per-vault histograms, `system.*`, and `attrib.*` when
//!   attribution is on). The last counter event equals the run's
//!   `RunMetrics::counter_registry()` bit for bit;
//! * **pid 1 — cores**: per-core busy / barrier-stall spans;
//! * **pid 2 — requests**: sampled memory-request lifecycles with their
//!   queue/FU waits as span arguments;
//! * **pid 3 — job** (only when a request-correlated trace ID is
//!   attached via [`PerfettoTrace::set_job_context`]): one span named
//!   after the trace ID covering the whole run, with the job's HTTP
//!   queue wait as a span argument — so one served job's queue wait,
//!   engine run, and supersteps all land in a single trace.
//!
//! Timestamps are simulated CPU cycles reported in the format's
//! microsecond field (1 cycle = 1 "µs"), which keeps the UI's zoom and
//! duration arithmetic exact — absolute wall time is meaningless for a
//! simulator anyway. Numbers use Rust's shortest round-trip float
//! formatting, so [`crate::json`] reads every value back exactly.
//!
//! The writer buffers everything in memory and touches the filesystem
//! only in [`PerfettoTrace::write`], so export cannot perturb timing, and
//! a run that fails before it finalizes leaves no file.

use crate::json::quote;
use graphpim_sim::telemetry::CounterRegistry;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Accumulates trace events and writes them as Chrome trace-event JSON.
#[derive(Debug)]
pub struct PerfettoTrace {
    path: PathBuf,
    events: Vec<String>,
    /// `(trace id, queue wait in µs)` of the serving job, if any.
    job: Option<(String, Option<f64>)>,
    /// Largest span end seen, so the job span covers the whole run.
    max_end: f64,
}

impl PerfettoTrace {
    /// Creates an exporter targeting `path`. No I/O happens until
    /// [`PerfettoTrace::write`].
    pub fn create(path: impl Into<PathBuf>) -> PerfettoTrace {
        PerfettoTrace {
            path: path.into(),
            events: Vec::new(),
            job: None,
            max_end: 0.0,
        }
    }

    /// Attaches the serving job's request-correlated trace ID (and its
    /// queue wait, in microseconds, when known). At [`write`] time the
    /// exporter adds a pid-3 "job" row holding one `trace:<id>` span
    /// that covers the whole run, so the job is findable in the
    /// Perfetto UI by the same ID the service returned in its
    /// `X-Trace-Id` header and `/jobs/{id}` events.
    ///
    /// [`write`]: PerfettoTrace::write
    pub fn set_job_context(&mut self, trace_id: &str, queue_wait_us: Option<f64>) {
        self.job = Some((trace_id.to_string(), queue_wait_us));
    }

    /// Creates an exporter when `GRAPHPIM_PERFETTO_DIR` is set, writing to
    /// `<dir>/<label>.trace.json` with the label sanitized to
    /// filesystem-safe characters.
    pub fn from_env(label: &str) -> Option<PerfettoTrace> {
        let dir = std::env::var_os("GRAPHPIM_PERFETTO_DIR")?;
        let safe: String = label
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        Some(PerfettoTrace::create(
            PathBuf::from(dir).join(format!("{safe}.trace.json")),
        ))
    }

    /// The output path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Names the process row `pid` (a `process_name` metadata event).
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            quote(name)
        ));
    }

    /// Names the thread row `(pid, tid)` (a `thread_name` metadata event).
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            quote(name)
        ));
    }

    /// Records a complete span (`ph: "X"`) from `start` to `end` cycles on
    /// row `(pid, tid)`, with numeric `args` attached. Negative durations
    /// are clamped to zero.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        name: &str,
        cat: &str,
        pid: u32,
        tid: u32,
        start: f64,
        end: f64,
        args: &[(&str, f64)],
    ) {
        let dur = (end - start).max(0.0);
        if end > self.max_end {
            self.max_end = end;
        }
        let mut event = format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{start:?},\"dur\":{dur:?},\
             \"pid\":{pid},\"tid\":{tid}",
            quote(name),
            quote(cat),
        );
        push_args(&mut event, args.iter().copied());
        self.events.push(event);
    }

    /// Records a counter event (`ph: "C"`, named `counters`, on the pid-0
    /// supersteps row) at `ts` cycles, one argument per counter. The UI
    /// draws one track per key (`counters <key>`); a reader takes the
    /// `args` of the last counter event for the run's final counters.
    pub fn counters(&mut self, ts: f64, counters: &CounterRegistry) {
        let mut event =
            format!("{{\"name\":\"counters\",\"ph\":\"C\",\"ts\":{ts:?},\"pid\":0,\"tid\":0");
        push_args(&mut event, counters.iter());
        self.events.push(event);
    }

    /// Writes the accumulated events as one `{"traceEvents": [...]}`
    /// document and returns the path.
    pub fn write(mut self) -> std::io::Result<PathBuf> {
        if let Some((trace_id, queue_wait)) = self.job.take() {
            let end = self.max_end;
            self.process_name(3, "job");
            self.thread_name(3, 0, &format!("trace {trace_id}"));
            let mut args: Vec<(&str, f64)> = Vec::new();
            if let Some(wait) = queue_wait {
                args.push(("queue_wait_us", wait));
            }
            self.span(&format!("trace:{trace_id}"), "job", 3, 0, 0.0, end, &args);
        }
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(&self.path)?;
        let mut w = std::io::BufWriter::new(file);
        w.write_all(b"{\"traceEvents\":[\n")?;
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                w.write_all(b",\n")?;
            }
            w.write_all(event.as_bytes())?;
        }
        w.write_all(b"\n],\"displayTimeUnit\":\"ns\",")?;
        w.write_all(b"\"otherData\":{\"clock\":\"simulated CPU cycles (1 cycle = 1 us)\"}}\n")?;
        w.flush()?;
        Ok(self.path)
    }
}

/// Appends `,"args":{...}` (nothing when `args` is empty) and closes the
/// event object.
fn push_args<'a>(event: &mut String, args: impl Iterator<Item = (&'a str, f64)>) {
    let mut first = true;
    for (key, value) in args {
        event.push_str(if first { ",\"args\":{" } else { "," });
        first = false;
        let _ = write!(event, "{}:{value:?}", quote(key));
    }
    if !first {
        event.push('}');
    }
    event.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn span_and_metadata_round_trip_through_parser() {
        let dir = std::env::temp_dir().join(format!("graphpim-perfetto-{}", std::process::id()));
        let mut trace = PerfettoTrace::create(dir.join("unit.trace.json"));
        trace.process_name(0, "supersteps");
        trace.thread_name(1, 3, "core 3");
        trace.span("superstep 1", "superstep", 0, 0, 0.0, 1500.5, &[]);
        trace.span(
            "load.miss",
            "request",
            2,
            3,
            10.0,
            96.25,
            &[("bank_wait", 4.0), ("fu_wait", 0.0)],
        );
        assert_eq!(trace.len(), 4);
        let path = trace.write().expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        let value = json::parse(&text).expect("valid JSON");
        let doc = value.as_object().expect("object");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 4);
        let span = events[3].as_object().expect("event object");
        assert_eq!(span.get("name").and_then(|v| v.as_str()), Some("load.miss"));
        assert_eq!(span.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(span.get("ts").and_then(|v| v.as_f64()), Some(10.0));
        assert_eq!(span.get("dur").and_then(|v| v.as_f64()), Some(86.25));
        let args = span.get("args").and_then(|v| v.as_object()).expect("args");
        assert_eq!(args.get("bank_wait").and_then(|v| v.as_f64()), Some(4.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn counter_event_round_trips_bit_exactly() {
        let mut reg = CounterRegistry::default();
        reg.record("core.instructions", 812_993.0);
        reg.record("system.total_cycles", 123_456.789_012_345_6);
        reg.record("core.tiny", 1.5e-9);
        reg.record("core.sum", 0.1 + 0.2); // 0.30000000000000004
        reg.record("hmc.huge", 1e300);
        reg.record("mem.l1.hits", 0.0);
        let mut trace = PerfettoTrace::create("unused.json");
        trace.counters(42.5, &reg);
        trace.counters(43.0, &CounterRegistry::default());
        let doc = json::parse(&format!("[{}]", trace.events.join(","))).expect("valid JSON");
        let events = doc.as_array().unwrap();
        let event = events[0].as_object().unwrap();
        assert_eq!(event.get("ph").and_then(|v| v.as_str()), Some("C"));
        assert_eq!(event.get("ts").and_then(|v| v.as_f64()), Some(42.5));
        let Some(json::Value::Object(args)) = event.get("args") else {
            panic!("args is an object");
        };
        assert_eq!(args.len(), reg.len());
        for ((key, value), (got_key, got)) in reg.iter().zip(args) {
            assert_eq!(key, got_key);
            let got = got.as_f64().expect("numeric counter");
            assert_eq!(got.to_bits(), value.to_bits(), "counter {key}");
        }
        let empty = events[1].as_object().unwrap();
        assert!(empty.get("args").is_none(), "no counters, no args");
    }

    #[test]
    fn negative_duration_clamped_and_strings_escaped() {
        let mut trace = PerfettoTrace::create("unused.json");
        trace.span("we\"ird\\name", "cat", 0, 0, 10.0, 5.0, &[]);
        let event = &trace.events[0];
        assert!(event.contains("\"dur\":0.0"));
        assert!(event.contains("we\\\"ird\\\\name"));
        assert!(json::parse(&format!("[{event}]")).is_some());
    }

    #[test]
    fn from_env_requires_variable() {
        // Serialized via the env-lock-free convention: the variable is not
        // set by any test in this crate except transiently elsewhere.
        if std::env::var_os("GRAPHPIM_PERFETTO_DIR").is_none() {
            assert!(PerfettoTrace::from_env("BFS baseline").is_none());
        }
    }
}
