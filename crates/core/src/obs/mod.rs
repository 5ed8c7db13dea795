//! Structured observability: leveled logging, per-thread context
//! fields, trace IDs, and Prometheus text exposition ([`prom`]).
//!
//! Every diagnostic the library emits goes through [`error`], [`warn`],
//! [`info`], [`debug`], or [`warn_once`] — never a bare `eprintln!`
//! (CI lints for that). Each record is rendered into a single buffer
//! and written with one `write_all`, so lines from concurrent worker
//! threads never tear. Two knobs shape the output:
//!
//! * `GRAPHPIM_LOG` — the level filter. A bare level
//!   (`error|warn|info|debug|off`) sets the global threshold;
//!   comma-separated `target=level` pairs override it per target
//!   (`GRAPHPIM_LOG=warn,tracestore=debug`). Default: `info`.
//! * `GRAPHPIM_LOG_FORMAT` — `logfmt` (default) or `json`. Both are
//!   one record per line; JSON lines are valid JSON objects.
//!
//! A record carries a *target* (subsystem name: `engine`, `tracestore`,
//! `serve`, ...), a message, explicit key/value fields, and whatever
//! context fields the current thread has pushed via [`push_context`]
//! (the serve acceptor pushes `trace` so every log line a request
//! causes carries its trace ID). Logging is observation-neutral by
//! construction: it only ever formats values the models already
//! computed, on the control path, never inside the simulation loop.

pub mod prom;

use crate::json::quote;
use std::collections::HashSet;
use std::fmt::Display;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The operation failed and its result is lost or wrong.
    Error,
    /// Degraded mode: the operation continues with reduced function.
    Warn,
    /// Normal operational landmarks (run started, cache hit, ...).
    Info,
    /// High-volume diagnostics for debugging.
    Debug,
}

impl Level {
    /// Lowercase name, as it appears in log lines and `GRAPHPIM_LOG`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// All levels, most severe first.
    pub const ALL: [Level; 4] = [Level::Error, Level::Warn, Level::Info, Level::Debug];

    fn idx(self) -> usize {
        match self {
            Level::Error => 0,
            Level::Warn => 1,
            Level::Info => 2,
            Level::Debug => 3,
        }
    }

    fn parse(s: &str) -> Option<Level> {
        match s.trim() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// Output format for log lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `ts=... level=... target=... msg=... key=value ...`
    Logfmt,
    /// One JSON object per line.
    Json,
}

/// The level filter: a global threshold plus per-target overrides.
#[derive(Debug, Clone)]
struct Filter {
    /// `None` means logging is off entirely.
    global: Option<Level>,
    /// `(target, max level)` overrides, first match wins.
    targets: Vec<(String, Option<Level>)>,
}

impl Filter {
    fn parse(spec: &str) -> Filter {
        let mut global = Some(Level::Info);
        let mut targets = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part.split_once('=') {
                Some((target, level)) => {
                    let level = if level.trim() == "off" {
                        None
                    } else {
                        match Level::parse(level) {
                            Some(l) => Some(l),
                            None => continue, // garbage override: keep default
                        }
                    };
                    targets.push((target.trim().to_string(), level));
                }
                None => {
                    if part == "off" {
                        global = None;
                    } else if let Some(l) = Level::parse(part) {
                        global = Some(l);
                    }
                    // Garbage keeps the info default: a mistyped filter
                    // must not silence diagnostics.
                }
            }
        }
        Filter { global, targets }
    }

    fn enabled(&self, level: Level, target: &str) -> bool {
        for (t, max) in &self.targets {
            if t == target {
                return match max {
                    Some(max) => level <= *max,
                    None => false,
                };
            }
        }
        match self.global {
            Some(max) => level <= max,
            None => false,
        }
    }
}

/// Where rendered lines go. The production sink is stderr; tests swap
/// in a buffer to assert byte-exact framing.
pub trait Sink: Send + Sync {
    /// Writes one complete line (including the trailing newline) in a
    /// single call. Returns false if the line could not be written.
    fn write_line(&self, line: &[u8]) -> bool;
}

struct StderrSink;

impl Sink for StderrSink {
    fn write_line(&self, line: &[u8]) -> bool {
        let mut err = std::io::stderr().lock();
        err.write_all(line).is_ok()
    }
}

/// Per-level emitted/dropped counters, surfaced by `/stats` and
/// `/metrics` so log floods and drop conditions are visible.
#[derive(Debug, Default)]
pub struct LoggerStats {
    emitted: [AtomicU64; 4],
    dropped: [AtomicU64; 4],
}

impl LoggerStats {
    /// Lines written for `level` since process start.
    pub fn emitted(&self, level: Level) -> u64 {
        self.emitted[level.idx()].load(Ordering::Relaxed)
    }

    /// Lines suppressed (filtered out or failed to write) for `level`.
    pub fn dropped(&self, level: Level) -> u64 {
        self.dropped[level.idx()].load(Ordering::Relaxed)
    }
}

struct Logger {
    filter: RwLock<Filter>,
    format: RwLock<Format>,
    sink: RwLock<Box<dyn Sink>>,
    stats: LoggerStats,
    once: Mutex<HashSet<String>>,
}

fn logger() -> &'static Logger {
    static LOGGER: OnceLock<Logger> = OnceLock::new();
    LOGGER.get_or_init(|| {
        let filter = match std::env::var("GRAPHPIM_LOG") {
            Ok(spec) => Filter::parse(&spec),
            Err(_) => Filter::parse("info"),
        };
        let format = match std::env::var("GRAPHPIM_LOG_FORMAT").as_deref() {
            Ok("json") => Format::Json,
            _ => Format::Logfmt,
        };
        Logger {
            filter: RwLock::new(filter),
            format: RwLock::new(format),
            sink: RwLock::new(Box::new(StderrSink)),
            stats: LoggerStats::default(),
            once: Mutex::new(HashSet::new()),
        }
    })
}

/// Read-guards that tolerate a panicking writer: the data is plain
/// config, valid regardless of where the poisoning panic happened.
fn read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static CONTEXT: std::cell::RefCell<Vec<(String, String)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Restores the thread's context-field stack on drop; returned by
/// [`push_context`].
#[must_use = "the context field pops when this guard drops"]
pub struct ContextGuard {
    depth: usize,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.borrow_mut().truncate(self.depth));
    }
}

/// Pushes a context field onto the current thread's stack. Every log
/// line the thread emits while the guard lives carries `key=value`;
/// the field pops when the guard drops.
pub fn push_context(key: &str, value: &str) -> ContextGuard {
    CONTEXT.with(|c| {
        let mut c = c.borrow_mut();
        let depth = c.len();
        c.push((key.to_string(), value.to_string()));
        ContextGuard { depth }
    })
}

/// The innermost context value for `key` on this thread, if any.
/// `EngineProfile::record_run` reads `trace` through this to stamp run
/// records without threading an argument through every engine layer.
pub fn context_value(key: &str) -> Option<String> {
    CONTEXT.with(|c| {
        c.borrow()
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    })
}

/// Whether a record at `level` for `target` would be emitted. Lets
/// callers skip building expensive fields for suppressed lines.
pub fn enabled(level: Level, target: &str) -> bool {
    read(&logger().filter).enabled(level, target)
}

/// A borrowed key/value field; values render via `Display`.
pub type Field<'a> = (&'a str, &'a dyn Display);

fn unix_ts() -> (u64, u32) {
    match std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH) {
        Ok(d) => (d.as_secs(), d.subsec_millis()),
        Err(_) => (0, 0),
    }
}

fn needs_quotes(s: &str) -> bool {
    s.is_empty()
        || s.chars()
            .any(|c| c.is_whitespace() || c == '"' || c == '=' || c.is_control())
}

fn logfmt_value(out: &mut String, v: &str) {
    if needs_quotes(v) {
        out.push_str(&quote(v));
    } else {
        out.push_str(v);
    }
}

fn render(format: Format, level: Level, target: &str, msg: &str, fields: &[Field<'_>]) -> String {
    let (secs, millis) = unix_ts();
    let mut line = String::with_capacity(96);
    let context: Vec<(String, String)> = CONTEXT.with(|c| c.borrow().clone());
    match format {
        Format::Logfmt => {
            let _ = write!(
                line,
                "ts={secs}.{millis:03} level={} target=",
                level.as_str()
            );
            logfmt_value(&mut line, target);
            line.push_str(" msg=");
            logfmt_value(&mut line, msg);
            for (k, v) in &context {
                line.push(' ');
                line.push_str(k);
                line.push('=');
                logfmt_value(&mut line, v);
            }
            for (k, v) in fields {
                line.push(' ');
                line.push_str(k);
                line.push('=');
                logfmt_value(&mut line, &v.to_string());
            }
        }
        Format::Json => {
            let _ = write!(line, "{{\"ts\": {secs}.{millis:03}, \"level\": ");
            line.push_str(&quote(level.as_str()));
            line.push_str(", \"target\": ");
            line.push_str(&quote(target));
            line.push_str(", \"msg\": ");
            line.push_str(&quote(msg));
            for (k, v) in &context {
                line.push_str(", ");
                line.push_str(&quote(k));
                line.push_str(": ");
                line.push_str(&quote(v));
            }
            for (k, v) in fields {
                line.push_str(", ");
                line.push_str(&quote(k));
                line.push_str(": ");
                line.push_str(&quote(&v.to_string()));
            }
            line.push('}');
        }
    }
    line.push('\n');
    line
}

/// Emits one record. Prefer the level-named wrappers ([`error`],
/// [`warn`], [`info`], [`debug`]).
pub fn log(level: Level, target: &str, msg: &str, fields: &[Field<'_>]) {
    let logger = logger();
    if !read(&logger.filter).enabled(level, target) {
        logger.stats.dropped[level.idx()].fetch_add(1, Ordering::Relaxed);
        return;
    }
    let line = render(*read(&logger.format), level, target, msg, fields);
    if read(&logger.sink).write_line(line.as_bytes()) {
        logger.stats.emitted[level.idx()].fetch_add(1, Ordering::Relaxed);
    } else {
        logger.stats.dropped[level.idx()].fetch_add(1, Ordering::Relaxed);
    }
}

/// Logs at [`Level::Error`].
pub fn error(target: &str, msg: &str, fields: &[Field<'_>]) {
    log(Level::Error, target, msg, fields);
}

/// Logs at [`Level::Warn`].
pub fn warn(target: &str, msg: &str, fields: &[Field<'_>]) {
    log(Level::Warn, target, msg, fields);
}

/// Logs at [`Level::Info`].
pub fn info(target: &str, msg: &str, fields: &[Field<'_>]) {
    log(Level::Info, target, msg, fields);
}

/// Logs at [`Level::Debug`].
pub fn debug(target: &str, msg: &str, fields: &[Field<'_>]) {
    log(Level::Debug, target, msg, fields);
}

/// Logs a warning at most once per `key` for the process lifetime.
///
/// Keys should be per-(site, path) where a path is involved — e.g.
/// `tracestore.write:/var/store` — so a store failing on one directory
/// does not silence warnings about a different one. Returns whether
/// this call was the first (and therefore emitted).
pub fn warn_once(key: &str, target: &str, msg: &str, fields: &[Field<'_>]) -> bool {
    let logger = logger();
    let first = {
        let mut once = logger.once.lock().unwrap_or_else(|e| e.into_inner());
        once.insert(key.to_string())
    };
    if first {
        warn(target, msg, fields);
    }
    first
}

/// Per-level (level, emitted, dropped) counters since process start.
pub fn stats() -> [(Level, u64, u64); 4] {
    let s = &logger().stats;
    Level::ALL.map(|l| (l, s.emitted(l), s.dropped(l)))
}

/// A fresh 16-hex-digit trace ID, unique within and across processes
/// with overwhelming probability (time, PID, thread, and a counter are
/// folded through an FNV mix).
pub fn new_trace_id() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tid = {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        h.finish()
    };
    let mut x = 0xcbf29ce484222325u64;
    for word in [nanos, u64::from(std::process::id()), tid, seq] {
        for byte in word.to_le_bytes() {
            x ^= u64::from(byte);
            x = x.wrapping_mul(0x100000001b3);
        }
    }
    format!("{x:016x}")
}

/// Swaps the global sink; returns the previous one. Test-only hook for
/// asserting byte-exact line framing.
#[doc(hidden)]
pub fn set_sink(sink: Box<dyn Sink>) -> Box<dyn Sink> {
    let logger = logger();
    let mut slot = logger.sink.write().unwrap_or_else(|e| e.into_inner());
    std::mem::replace(&mut *slot, sink)
}

/// Overrides the filter spec at runtime (same grammar as
/// `GRAPHPIM_LOG`). Test-only hook.
#[doc(hidden)]
pub fn set_filter(spec: &str) {
    let logger = logger();
    *logger.filter.write().unwrap_or_else(|e| e.into_inner()) = Filter::parse(spec);
}

/// Overrides the output format at runtime. Test-only hook.
#[doc(hidden)]
pub fn set_format(format: Format) {
    let logger = logger();
    *logger.format.write().unwrap_or_else(|e| e.into_inner()) = format;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_grammar() {
        let f = Filter::parse("warn,tracestore=debug,engine=off");
        assert!(f.enabled(Level::Warn, "serve"));
        assert!(!f.enabled(Level::Info, "serve"));
        assert!(f.enabled(Level::Debug, "tracestore"));
        assert!(!f.enabled(Level::Error, "engine"));

        let f = Filter::parse("off");
        assert!(!f.enabled(Level::Error, "anything"));

        // Garbage degrades to the info default, never to silence.
        let f = Filter::parse("banana");
        assert!(f.enabled(Level::Info, "serve"));
        assert!(!f.enabled(Level::Debug, "serve"));

        let f = Filter::parse("");
        assert!(f.enabled(Level::Info, "serve"));
    }

    #[test]
    fn logfmt_quoting() {
        let mut s = String::new();
        logfmt_value(&mut s, "plain");
        assert_eq!(s, "plain");
        let mut s = String::new();
        logfmt_value(&mut s, "has space");
        assert_eq!(s, "\"has space\"");
        let mut s = String::new();
        logfmt_value(&mut s, "a=b \"q\"\nend");
        assert_eq!(s, "\"a=b \\\"q\\\"\\nend\"");
        let mut s = String::new();
        logfmt_value(&mut s, "");
        assert_eq!(s, "\"\"");
    }

    #[test]
    fn render_shapes() {
        let path = "/tmp/store dir";
        let line = render(
            Format::Logfmt,
            Level::Warn,
            "tracestore",
            "cannot write a trace entry",
            &[("path", &path), ("error", &"denied")],
        );
        assert!(line.starts_with("ts="));
        assert!(line.contains(" level=warn target=tracestore msg=\"cannot write a trace entry\""));
        assert!(line.contains(" path=\"/tmp/store dir\" error=denied\n"));

        let line = render(
            Format::Json,
            Level::Info,
            "engine",
            "run",
            &[("key", &"DC-1k")],
        );
        assert!(line.contains("\"level\": \"info\""));
        assert!(line.contains("\"msg\": \"run\""));
        assert!(line.contains("\"key\": \"DC-1k\""));
        assert!(line.ends_with("}\n"));
    }

    #[test]
    fn context_fields_nest_and_pop() {
        assert_eq!(context_value("trace"), None);
        {
            let _g = push_context("trace", "abc");
            assert_eq!(context_value("trace").as_deref(), Some("abc"));
            {
                let _h = push_context("trace", "inner");
                assert_eq!(context_value("trace").as_deref(), Some("inner"));
                let line = render(Format::Logfmt, Level::Info, "t", "m", &[]);
                assert!(line.contains("trace=abc trace=inner"));
            }
            assert_eq!(context_value("trace").as_deref(), Some("abc"));
        }
        assert_eq!(context_value("trace"), None);
    }

    #[test]
    fn trace_ids_are_unique_hex() {
        let a = new_trace_id();
        let b = new_trace_id();
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, b);
    }

    #[test]
    fn warn_once_is_per_key() {
        let key_a = format!("test.site:{}", new_trace_id());
        let key_b = format!("test.site:{}", new_trace_id());
        assert!(warn_once(&key_a, "test", "first", &[]));
        assert!(!warn_once(&key_a, "test", "repeat", &[]));
        assert!(warn_once(&key_b, "test", "different path", &[]));
    }
}
