//! Concurrency test for the structured logger's framing guarantee:
//! lines from many threads logging simultaneously never tear, because
//! each record is rendered into one buffer and handed to the sink as a
//! single `write_line` call.
//!
//! The whole scenario lives in one `#[test]` because the sink, filter,
//! and format are process-global test hooks; splitting it across tests
//! would let the harness's parallel execution interleave the overrides.

use graphpim::obs;
use std::sync::{Arc, Mutex};

/// Captures whole lines; panics (failing the test) if a caller ever
/// hands it a fragment without a trailing newline.
struct BufferSink {
    lines: Arc<Mutex<Vec<u8>>>,
}

impl obs::Sink for BufferSink {
    fn write_line(&self, line: &[u8]) -> bool {
        assert!(
            line.ends_with(b"\n"),
            "sink received an unterminated fragment"
        );
        self.lines.lock().unwrap().extend_from_slice(line);
        true
    }
}

#[test]
fn concurrent_log_lines_never_tear() {
    const THREADS: usize = 8;
    const LINES_PER_THREAD: usize = 250;

    let captured = Arc::new(Mutex::new(Vec::new()));
    let previous = obs::set_sink(Box::new(BufferSink {
        lines: Arc::clone(&captured),
    }));
    obs::set_filter("debug");
    obs::set_format(obs::Format::Json);

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                // Context fields exercise the per-thread stack under
                // contention; a long payload widens the tear window a
                // torn write would need to hide in.
                let _guard = obs::push_context("trace", &format!("thread-{t}"));
                let payload = format!("payload-{t}-{}", "x".repeat(64));
                for i in 0..LINES_PER_THREAD {
                    obs::debug(
                        "framing-test",
                        "concurrent line",
                        &[("thread", &t), ("seq", &i), ("payload", &payload)],
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("logging thread");
    }

    // Restore global state before asserting, so a failure below cannot
    // leave other binaries' output swallowed.
    let bytes = captured.lock().unwrap().clone();
    obs::set_sink(previous);
    obs::set_filter("info");
    obs::set_format(obs::Format::Logfmt);

    let text = String::from_utf8(bytes).expect("log output is UTF-8");
    let lines: Vec<&str> = text.lines().collect();

    // Byte-exact framing: every emitted record is exactly one line,
    // every line is exactly one record. A torn write would produce a
    // line with two timestamps, a line missing its target, or an
    // unparseable JSON object.
    let mut seen = std::collections::HashSet::new();
    let mut ours = 0usize;
    for line in &lines {
        let doc = graphpim::json::parse(line)
            .unwrap_or_else(|| panic!("torn or malformed line: {line:?}"));
        let obj = doc.as_object().expect("log record is an object");
        if obj.get("target").and_then(|v| v.as_str()) != Some("framing-test") {
            continue; // another test in this process logged concurrently
        }
        ours += 1;
        assert_eq!(
            line.matches("\"ts\": ").count(),
            1,
            "exactly one timestamp per line: {line:?}"
        );
        let thread = obj.get("thread").and_then(|v| v.as_str()).expect("thread");
        let seq = obj.get("seq").and_then(|v| v.as_str()).expect("seq");
        let trace = obj.get("trace").and_then(|v| v.as_str()).expect("trace");
        assert_eq!(
            trace,
            format!("thread-{thread}"),
            "context followed its thread"
        );
        assert!(
            seen.insert((thread.to_string(), seq.to_string())),
            "duplicate record {thread}/{seq}"
        );
    }
    assert_eq!(
        ours,
        THREADS * LINES_PER_THREAD,
        "every record arrived intact"
    );
}
