//! The HTTP service: routing, per-endpoint latency accounting, and the
//! accept/drain lifecycle.
//!
//! # Topology
//!
//! One non-blocking acceptor thread feeds accepted connections through
//! a bounded channel to a small pool of HTTP threads (request parsing,
//! routing, response writing). Simulation never happens on an HTTP
//! thread: anything uncached is answered with `409` + a hint to `POST
//! /sweeps`, and sweeps run on the [scheduler](crate::scheduler)'s
//! worker pool. The only long-lived HTTP work is streaming job events,
//! which blocks on a condvar, not on compute.
//!
//! # Endpoints
//!
//! | Route | Semantics |
//! |---|---|
//! | `GET /healthz` | liveness + scale + draining flag + version/uptime |
//! | `GET /metrics` | Prometheus text exposition (see [`crate::metrics`]) |
//! | `GET /stats` | scheduler depth, engine counters, cost model, per-endpoint latency, logger counters |
//! | `GET /figures` | served figure ids |
//! | `GET /figures/{fig}` | the figure document iff every run is cached, else `409` |
//! | `GET /counters/{stem}` | cached run counters, exactly as the disk cache stores them |
//! | `GET /traces/{kernel}?size=1k&supersteps=a..b` | decoded trace slice |
//! | `POST /sweeps` | submit `{"fig": "fig07"}` or `{"keys": [stems]}`, returns a job |
//! | `GET /jobs/{id}` | job snapshot |
//! | `GET /jobs/{id}/events` | chunked NDJSON event stream until the job completes |
//! | `POST /shutdown` | begin graceful drain |
//!
//! `GET` is strictly read-only: it never enqueues work and never
//! simulates. The one write, `POST /sweeps`, is guarded by
//! [admission control](crate::admission).

use crate::admission::AdmissionPolicy;
use crate::cost::CostModel;
use crate::http::{ChunkedWriter, Request, Response};
use crate::scheduler::{Job, Scheduler};
use graphpim::experiments::{figjson, parse_scale, Experiments, RunKey, TraceSliceError};
use graphpim::json;
use graphpim_sim::telemetry::Histogram;
use std::fmt::Write as _;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Scheduler worker threads (simulation parallelism).
    pub workers: usize,
    /// HTTP threads (request parsing + event streaming).
    pub http_threads: usize,
    /// Admission-control limits.
    pub policy: AdmissionPolicy,
    /// Socket read **and** write timeout. Reads: a client that sends
    /// half a request cannot hold an HTTP thread hostage. Writes: a
    /// follower that stops reading its event stream is dropped once the
    /// kernel send buffer stays full this long (see
    /// [`crate::http::is_stalled_write`]); the job keeps running.
    pub io_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            http_threads: 8,
            policy: AdmissionPolicy::default(),
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// The API's uniform error document.
pub fn error_json(id: &str, message: &str) -> String {
    format!(
        "{{\"error\": {{\"id\": \"{id}\", \"message\": {}}}}}",
        json::quote(message)
    )
}

/// Per-endpoint latency histograms (microseconds, power-of-two
/// buckets via [`Histogram`] — the same primitive the simulator uses
/// for queue-wait distributions).
#[derive(Debug, Default)]
pub(crate) struct Stats {
    endpoints: Mutex<Vec<(&'static str, Histogram)>>,
}

impl Stats {
    fn record(&self, label: &'static str, micros: f64) {
        let mut endpoints = crate::sync::lock(&self.endpoints);
        match endpoints.iter_mut().find(|(l, _)| *l == label) {
            Some((_, hist)) => hist.record(micros),
            None => {
                // 32 power-of-two buckets cover sub-µs to ~18 minutes.
                let mut hist = Histogram::new(32);
                hist.record(micros);
                endpoints.push((label, hist));
            }
        }
    }

    /// Clones the per-endpoint histograms for `/metrics` rendering.
    pub(crate) fn snapshot(&self) -> Vec<(&'static str, Histogram)> {
        crate::sync::lock(&self.endpoints).clone()
    }

    fn to_json(&self) -> String {
        let endpoints = crate::sync::lock(&self.endpoints);
        let mut s = String::from("{");
        for (i, (label, hist)) in endpoints.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{label}\": {{\"count\": {}, \"mean_us\": {:?}, \"p50_us\": {:?}, \
                 \"p99_us\": {:?}, \"max_us\": {:?}}}",
                hist.count(),
                hist.mean(),
                hist.percentile(0.50),
                hist.percentile(0.99),
                hist.max()
            );
        }
        s.push('}');
        s
    }
}

pub(crate) struct Shared {
    pub(crate) ctx: Arc<Experiments>,
    pub(crate) cost: Arc<CostModel>,
    pub(crate) sched: Arc<Scheduler>,
    pub(crate) stats: Stats,
    pub(crate) started: Instant,
    io_timeout: Duration,
    /// Set by `POST /shutdown` or [`ServerHandle::begin_shutdown`].
    shutdown: AtomicBool,
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`shutdown`](ServerHandle::shutdown) for the graceful drain.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: std::thread::JoinHandle<()>,
    http_threads: Vec<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a shutdown has been requested (signal loop predicate for
    /// the `graphpim-serve` binary).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::Relaxed)
    }

    /// Requests a shutdown without blocking (what `POST /shutdown` does
    /// internally). Call [`shutdown`](Self::shutdown) to complete it.
    pub fn begin_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.sched.drain();
    }

    /// Graceful drain: stop accepting, finish every admitted run and
    /// in-flight response, then join all threads. Admitted work is
    /// bounded by the admission budget, so this terminates.
    pub fn shutdown(self) {
        self.begin_shutdown();
        self.shared.sched.wait_idle();
        let _ = self.acceptor.join();
        for h in self.http_threads {
            let _ = h.join();
        }
        for h in self.workers {
            let _ = h.join();
        }
    }
}

/// Starts the service over `ctx`. The context's disk cache and trace
/// store come with it — a prewarmed context serves figures instantly.
pub fn start(cfg: ServeConfig, ctx: Arc<Experiments>) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let cost = Arc::new(CostModel::new());
    // Anything the caller already ran (e.g. a boot-time prewarm)
    // calibrates the model before the first estimate.
    cost.calibrate_from_profile(&ctx.profile());
    let (sched, workers) =
        Scheduler::start(Arc::clone(&ctx), Arc::clone(&cost), cfg.policy, cfg.workers);
    let shared = Arc::new(Shared {
        ctx,
        cost,
        sched,
        stats: Stats::default(),
        started: Instant::now(),
        io_timeout: cfg.io_timeout,
        shutdown: AtomicBool::new(false),
    });

    let (tx, rx) = mpsc::sync_channel::<TcpStream>(128);
    let rx = Arc::new(Mutex::new(rx));
    let http_threads = (0..cfg.http_threads.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || loop {
                let stream = match crate::sync::lock(&rx).recv() {
                    Ok(stream) => stream,
                    Err(_) => return, // acceptor gone and channel drained
                };
                handle_connection(stream, &shared);
            })
        })
        .collect();

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            // `tx` lives in this thread; dropping it on exit closes the
            // channel and winds down the HTTP pool.
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        if tx.send(stream).is_err() {
                            return;
                        }
                    }
                    // Connection-per-request means every request pays the
                    // accept-poll latency, so the idle sleep must stay well
                    // under a millisecond-scale request budget; 1ms costs a
                    // negligible number of idle wakeups.
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
        })
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor,
        http_threads,
        workers,
    })
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.io_timeout));
    // Symmetric write timeout: without it, a follower that stops
    // reading its event stream blocks an HTTP thread in `write` forever
    // once the kernel send buffer fills.
    let _ = stream.set_write_timeout(Some(shared.io_timeout));
    let peer = stream
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let req = match Request::read_from(&mut reader) {
        Ok(req) => req,
        Err(_) => {
            let mut w = BufWriter::new(stream);
            let _ = Response::json(400, error_json("bad_request", "malformed HTTP request"))
                .with_header("X-Trace-Id", &graphpim::obs::new_trace_id())
                .write_to(&mut w);
            return;
        }
    };
    // Every request carries a trace ID from here on: a sane inbound
    // `X-Trace-Id` is honored (so callers can correlate across their own
    // systems), anything else gets a fresh one. The context guard makes
    // the ID appear on every log line this thread emits for the request.
    let trace = trace_id(&req);
    let _trace_guard = graphpim::obs::push_context("trace", &trace);
    let start = Instant::now();

    // The streaming endpoint owns the socket for the job's lifetime.
    if req.method == "GET" {
        if let Some(rest) = req.path.strip_prefix("/jobs/") {
            if let Some(id) = rest.strip_suffix("/events") {
                stream_job_events(stream, shared, id, &trace);
                shared
                    .stats
                    .record("GET /jobs/{id}/events", start.elapsed().as_secs_f64() * 1e6);
                return;
            }
        }
    }

    let routed = catch_unwind(AssertUnwindSafe(|| route(shared, &req, &peer)));
    let (label, response) = routed.unwrap_or_else(|_| {
        graphpim::obs::error(
            "serve",
            "handler panicked",
            &[("method", &req.method), ("path", &req.path)],
        );
        (
            "panic",
            Response::json(
                500,
                error_json("internal_panic", "handler panicked; see server log"),
            ),
        )
    });
    shared
        .stats
        .record(label, start.elapsed().as_secs_f64() * 1e6);
    let mut w = BufWriter::new(stream);
    let _ = response.with_header("X-Trace-Id", &trace).write_to(&mut w);
}

/// The request's trace ID: a sane inbound `X-Trace-Id` (1–64 graphical
/// ASCII characters, no quotes or backslashes — the ID is echoed into
/// JSON event lines and logfmt values verbatim), else a fresh one.
fn trace_id(req: &Request) -> String {
    match req.header("x-trace-id") {
        Some(id)
            if !id.is_empty()
                && id.len() <= 64
                && id
                    .bytes()
                    .all(|b| b.is_ascii_graphic() && b != b'"' && b != b'\\') =>
        {
            id.to_string()
        }
        _ => graphpim::obs::new_trace_id(),
    }
}

/// Routes one parsed request. Returns the stats label and the response.
fn route(shared: &Shared, req: &Request, peer: &str) -> (&'static str, Response) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ("GET /healthz", healthz(shared)),
        ("GET", "/metrics") => ("GET /metrics", crate::metrics::metrics(shared)),
        ("GET", "/stats") => ("GET /stats", stats(shared)),
        ("GET", "/figures") => ("GET /figures", list_figures()),
        ("POST", "/sweeps") => ("POST /sweeps", submit_sweep(shared, req, peer)),
        ("POST", "/shutdown") => ("POST /shutdown", shutdown(shared)),
        ("GET", path) => {
            if let Some(fig) = path.strip_prefix("/figures/") {
                ("GET /figures/{fig}", figure(shared, fig))
            } else if let Some(stem) = path.strip_prefix("/counters/") {
                ("GET /counters/{run-key}", counters(shared, stem))
            } else if let Some(kernel) = path.strip_prefix("/traces/") {
                ("GET /traces/{workload}", trace_slice(shared, kernel, req))
            } else if let Some(id) = path.strip_prefix("/jobs/") {
                ("GET /jobs/{id}", job_snapshot(shared, id))
            } else {
                ("404", not_found())
            }
        }
        ("POST", _) => ("404", not_found()),
        _ => (
            "405",
            Response::json(405, error_json("method_not_allowed", "use GET or POST")),
        ),
    }
}

fn not_found() -> Response {
    Response::json(404, error_json("not_found", "unknown route"))
}

fn healthz(shared: &Shared) -> Response {
    Response::json(
        200,
        format!(
            "{{\"status\": \"ok\", \"scale\": \"{}\", \"draining\": {}, \
             \"uptime_seconds\": {:?}, \"version\": \"{}\", \"profile\": \"{}\"}}",
            shared.ctx.size().name(),
            shared.sched.draining(),
            shared.started.elapsed().as_secs_f64(),
            env!("CARGO_PKG_VERSION"),
            build_profile(),
        ),
    )
}

/// The build profile this binary was compiled under.
pub(crate) fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn stats(shared: &Shared) -> Response {
    let depth = shared.sched.depth();
    let profile = shared.ctx.profile();
    let (hits, misses, stale) = profile.disk_counts();
    let trace = profile.trace_store();
    let simulated = profile
        .runs()
        .iter()
        .filter(|r| r.source != graphpim::experiments::profile::RunSource::DiskHit)
        .count();
    let body = format!(
        "{{\"status\": \"ok\", \"uptime_seconds\": {:?}, \"scale\": \"{}\", \
         \"draining\": {}, \
         \"scheduler\": {{\"queued\": {}, \"queued_cost_seconds\": {:?}, \
         \"running\": {}, \"jobs\": {}}}, \
         \"engine\": {{\"runs\": {}, \"simulated\": {simulated}, \
         \"simulated_seconds\": {:?}, \"disk_hits\": {hits}, \
         \"disk_misses\": {misses}, \"disk_stale\": {stale}, \
         \"trace_captures\": {}, \"trace_replays\": {}}}, \
         \"cost_model\": {}, \"endpoints\": {}, \"logger\": {}}}",
        shared.started.elapsed().as_secs_f64(),
        shared.ctx.size().name(),
        shared.sched.draining(),
        depth.queued,
        depth.queued_cost_seconds,
        depth.running,
        depth.jobs,
        profile.runs().len(),
        profile.simulated_seconds(),
        trace.captures,
        trace.replays,
        shared.cost.snapshot_json(),
        shared.stats.to_json(),
        logger_json(),
    );
    Response::json(200, body)
}

/// The logger's per-level emitted/dropped counters as a JSON object.
fn logger_json() -> String {
    let mut s = String::from("{");
    for (i, (level, emitted, dropped)) in graphpim::obs::stats().iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"emitted\": {emitted}, \"dropped\": {dropped}}}",
            level.as_str()
        );
    }
    s.push('}');
    s
}

fn list_figures() -> Response {
    let ids = figjson::FIGURES
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect::<Vec<_>>()
        .join(", ");
    Response::json(200, format!("{{\"figures\": [{ids}]}}"))
}

fn figure(shared: &Shared, fig: &str) -> Response {
    let Some(keys) = figjson::figure_keys(fig, &shared.ctx) else {
        return Response::json(
            404,
            error_json("unknown_figure", &format!("{fig} is not a served figure")),
        );
    };
    let missing = keys
        .iter()
        .filter(|key| shared.ctx.cached_metrics(key).is_none())
        .count();
    if missing > 0 {
        return Response::json(
            409,
            format!(
                "{{\"error\": {{\"id\": \"figure_uncached\", \"message\": \
                 \"{missing} of {} runs are not cached; submit the sweep and follow \
                 its events\", \"missing\": {missing}, \"total\": {}, \
                 \"hint\": \"POST /sweeps {{\\\"fig\\\": \\\"{fig}\\\"}}\"}}}}",
                keys.len(),
                keys.len()
            ),
        );
    }
    // Every run is cached: rendering resolves from memo/disk, no
    // simulation. Byte-identical to `figure <fig> --json`.
    match figjson::figure_json(fig, &shared.ctx) {
        Some(doc) => Response::json(200, doc),
        None => Response::json(404, error_json("unknown_figure", fig)),
    }
}

fn counters(shared: &Shared, stem: &str) -> Response {
    let Some(key) = RunKey::parse_stem(stem) else {
        return Response::json(
            400,
            error_json(
                "invalid_run_key",
                &format!("'{stem}' is not a run-key stem (expected e.g. 'BFS-GraphPIM-LDBC-1k-fus4-bw10')"),
            ),
        );
    };
    if let Err(e) = shared.ctx.validate_key(&key) {
        return Response::json(400, error_json(e.id(), &e.to_string()));
    }
    match shared.ctx.cached_metrics(&key) {
        Some(metrics) => Response::json(
            200,
            graphpim::experiments::cache::metrics_json(&key, &metrics),
        ),
        None => Response::json(
            404,
            error_json(
                "run_uncached",
                "run is not cached; submit it via POST /sweeps",
            ),
        ),
    }
}

fn trace_slice(shared: &Shared, kernel: &str, req: &Request) -> Response {
    let size = match req.query_param("size") {
        None => shared.ctx.size(),
        Some(s) => match parse_scale(s) {
            Ok(size) => size,
            Err(_) => {
                return Response::json(
                    400,
                    error_json(
                        "invalid_size",
                        &format!("unknown size '{s}' (use 1k|10k|100k|1m)"),
                    ),
                )
            }
        },
    };
    let range = match req.query_param("supersteps") {
        None => (0, None),
        Some(spec) => match parse_range(spec) {
            Some(range) => range,
            None => {
                return Response::json(
                    400,
                    error_json(
                        "invalid_range",
                        &format!("bad superstep range '{spec}' (use a..b or a..)"),
                    ),
                )
            }
        },
    };
    match shared.ctx.trace_slice_json(kernel, size, range) {
        Ok(doc) => Response::json(200, doc),
        Err(e) => {
            let (status, id) = match e {
                TraceSliceError::StoreDisabled => (404, "trace_store_disabled"),
                TraceSliceError::NotCaptured => (404, "trace_not_captured"),
                TraceSliceError::Corrupt => (500, "trace_corrupt"),
                TraceSliceError::EmptyRange => (400, "empty_range"),
            };
            Response::json(status, error_json(id, &e.to_string()))
        }
    }
}

/// Parses `a..b` (half-open) or `a..` into the engine's range shape.
fn parse_range(spec: &str) -> Option<(usize, Option<usize>)> {
    let (lo, hi) = spec.split_once("..")?;
    let lo = if lo.is_empty() { 0 } else { lo.parse().ok()? };
    let hi = if hi.is_empty() {
        None
    } else {
        Some(hi.parse().ok()?)
    };
    Some((lo, hi))
}

fn submit_sweep(shared: &Shared, req: &Request, peer: &str) -> Response {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::json(400, error_json("bad_request", "body is not UTF-8"));
    };
    let Some(doc) = json::parse(text) else {
        return Response::json(400, error_json("bad_request", "body is not valid JSON"));
    };
    let Some(obj) = doc.as_object() else {
        return Response::json(400, error_json("bad_request", "body must be a JSON object"));
    };

    let client = obj
        .get("client")
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .or_else(|| req.header("x-client-id").map(str::to_string))
        .unwrap_or_else(|| peer.to_string());

    let (label, keys) = if let Some(fig) = obj.get("fig").and_then(|v| v.as_str()) {
        match figjson::figure_keys(fig, &shared.ctx) {
            Some(keys) => (fig.to_string(), keys),
            None => {
                return Response::json(
                    404,
                    error_json("unknown_figure", &format!("{fig} is not a served figure")),
                )
            }
        }
    } else if let Some(stems) = obj.get("keys").and_then(|v| v.as_array()) {
        let mut keys = Vec::with_capacity(stems.len());
        for stem in stems {
            let Some(stem) = stem.as_str() else {
                return Response::json(400, error_json("bad_request", "keys must be strings"));
            };
            let Some(key) = RunKey::parse_stem(stem) else {
                return Response::json(
                    400,
                    error_json(
                        "invalid_run_key",
                        &format!("'{stem}' is not a run-key stem"),
                    ),
                );
            };
            if let Err(e) = shared.ctx.validate_key(&key) {
                return Response::json(400, error_json(e.id(), &format!("{stem}: {e}")));
            }
            keys.push(key);
        }
        (format!("keys:{}", keys.len()), keys)
    } else {
        return Response::json(
            400,
            error_json("bad_request", "provide either \"fig\" or \"keys\""),
        );
    };

    // The request's trace ID (pushed by `handle_connection`) becomes the
    // job's: every event line, run record, and Perfetto export the job
    // causes carries it.
    let trace = graphpim::obs::context_value("trace").unwrap_or_else(graphpim::obs::new_trace_id);
    match shared.sched.submit(&client, &label, &trace, keys) {
        Ok(job) => Response::json(
            202,
            format!(
                "{{\"job\": {}, \"label\": \"{}\", \"trace\": \"{}\", \"keys\": {}, \
                 \"est_seconds\": {:?}, \"events\": \"/jobs/{}/events\"}}",
                job.id, job.label, job.trace, job.total, job.est_seconds, job.id
            ),
        ),
        Err(shed) => {
            graphpim::obs::warn(
                "serve",
                "sweep shed",
                &[
                    ("client", &client),
                    ("label", &label),
                    ("reason", &shed.id()),
                ],
            );
            Response::json(shed.status(), shed.to_json())
        }
    }
}

fn job_snapshot(shared: &Shared, id: &str) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return Response::json(400, error_json("bad_request", "job id must be an integer"));
    };
    match shared.sched.job(id) {
        Some(job) => Response::json(200, job.snapshot_json()),
        None => Response::json(404, error_json("unknown_job", "no such job (or aged out)")),
    }
}

fn shutdown(shared: &Shared) -> Response {
    shared.sched.drain();
    shared.shutdown.store(true, Ordering::Relaxed);
    Response::json(200, "{\"status\": \"draining\"}")
}

/// Streams a job's NDJSON events over a chunked response until the job
/// completes (or the client disconnects).
fn stream_job_events(stream: TcpStream, shared: &Shared, id: &str, trace: &str) {
    let job: Option<Arc<Job>> = id.parse::<u64>().ok().and_then(|id| shared.sched.job(id));
    let Some(job) = job else {
        let mut w = BufWriter::new(stream);
        let _ = Response::json(404, error_json("unknown_job", "no such job (or aged out)"))
            .with_header("X-Trace-Id", trace)
            .write_to(&mut w);
        return;
    };
    let Ok(mut writer) = ChunkedWriter::start_with_headers(
        stream,
        200,
        "application/x-ndjson",
        &[("X-Trace-Id", trace)],
    ) else {
        return;
    };
    let mut from = 0;
    loop {
        let (events, next, done) = job.events_from(from, true);
        from = next;
        let mut buf = String::with_capacity(events.iter().map(String::len).sum::<usize>() + 8);
        for event in &events {
            buf.push_str(event);
            buf.push('\n');
        }
        if let Err(e) = writer.chunk(buf.as_bytes()) {
            // Clean follower drop, whether the client closed the
            // connection or just stopped reading until the socket's
            // write timeout expired; either way the socket is unusable
            // mid-chunk and the job keeps running for the other
            // followers. Stalled drops get their own stats label so a
            // fleet of wedged clients is visible in `/stats`.
            if crate::http::is_stalled_write(&e) {
                shared.stats.record("dropped stalled follower", 0.0);
            }
            return;
        }
        if done {
            break;
        }
    }
    let _ = writer.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_parser_accepts_the_documented_shapes() {
        assert_eq!(parse_range("0..4"), Some((0, Some(4))));
        assert_eq!(parse_range("3.."), Some((3, None)));
        assert_eq!(parse_range("..7"), Some((0, Some(7))));
        assert_eq!(parse_range("five..six"), None);
        assert_eq!(parse_range("9"), None);
    }

    /// `?size=` goes through the same parser as `run_kernel --scale` and
    /// `GRAPHPIM_SCALE`, so it accepts exactly the CLI scale spellings.
    #[test]
    fn size_parser_matches_the_cli_scales() {
        use graphpim_graph::generate::LdbcSize;
        assert_eq!(parse_scale("1k"), Ok(LdbcSize::K1));
        assert_eq!(parse_scale("10K"), Ok(LdbcSize::K10));
        assert_eq!(parse_scale("100k"), Ok(LdbcSize::K100));
        assert_eq!(parse_scale("1M"), Ok(LdbcSize::M1));
        assert!(parse_scale("2k").is_err());
    }

    #[test]
    fn error_documents_escape_quotes() {
        let doc = error_json("x", "a \"quoted\" thing");
        assert!(graphpim::json::parse(&doc).is_some());
    }

    #[test]
    fn stats_survive_a_panicking_recorder() {
        // One request's handler panicking inside the stats critical
        // section must not break latency accounting for every later
        // request on this server instance.
        let stats = Stats::default();
        stats.record("GET /healthz", 100.0);
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            let _guard = stats.endpoints.lock().unwrap();
            panic!("recorder died mid-section");
        }));
        assert!(poisoned.is_err());
        assert!(stats.endpoints.is_poisoned());
        stats.record("GET /healthz", 300.0);
        let doc = stats.to_json();
        let parsed =
            graphpim::json::parse(&doc).unwrap_or_else(|| panic!("must still parse: {doc}"));
        let healthz = parsed
            .as_object()
            .unwrap()
            .get("GET /healthz")
            .unwrap()
            .as_object()
            .unwrap();
        assert_eq!(healthz.get("count").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn stats_json_shape() {
        let stats = Stats::default();
        stats.record("GET /healthz", 120.0);
        stats.record("GET /healthz", 250.0);
        stats.record("GET /figures/{fig}", 900.0);
        let doc = stats.to_json();
        let parsed = graphpim::json::parse(&doc).unwrap_or_else(|| panic!("must parse: {doc}"));
        let obj = parsed.as_object().unwrap();
        let healthz = obj.get("GET /healthz").unwrap().as_object().unwrap();
        assert_eq!(healthz.get("count").unwrap().as_u64(), Some(2));
        assert!(healthz.get("p99_us").unwrap().as_f64().unwrap() >= 120.0);
    }
}
