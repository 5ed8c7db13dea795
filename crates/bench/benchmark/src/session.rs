//! One untraced repetition of a workload, in a fresh process: set up,
//! one cold sweep and, on the last repetition, the serve phase over that
//! sweep's results. Every end-to-end metric comes from here; the host
//! times as measured (`raw.` samples), which the parent scales to the
//! reference host speed (see `host`).

use crate::golden::{Golden, Record};
use crate::report::Outcome;
use crate::stats::Summary;
use crate::workloads::{Mix, Request, Sweep, Workload, BLOCK};
use graphpim::experiments::{fig07, figjson, parallel_map, worker_threads, Experiments};
use graphpim::tracestore::TraceStore;
use graphpim_serve::http::client;
use graphpim_serve::{ServeConfig, ServerHandle};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients of the serve phase (one per core of the 2-core
/// reference box; each waits for its reply before sending again).
const CLIENTS: u64 = 2;

/// Requests the serve phase completes before it stops, even past its
/// time: p99 needs ten samples beyond it.
const MIN_REQUESTS: usize = 1000;

/// How long past its time the serve phase waits for `MIN_REQUESTS`.
const GRACE: Duration = Duration::from_secs(30);

/// Set-up repeats until this much time is spent, each one a `setup_s`
/// sample, and the sweep runs on the last: a 10 ms set-up at 1k is
/// sampled about ten times per repetition, so its median rides out
/// scheduler jitter, while a 1 s set-up at 100k runs once.
const SETUP_REPEAT: Duration = Duration::from_millis(100);

/// Runs one repetition: a fresh context (in-memory memo only, a private
/// trace store), so the sweep captures, decodes and replays everything.
/// `serve_seconds > 0` adds the serve phase.
pub fn run(w: &Workload, seed: u64, serve_seconds: f64) -> Outcome {
    let golden = Golden::load(w.golden);
    let mut out = Outcome::default();
    let store = crate::scratch_dir(w.name);
    let began = Instant::now();
    let mut setups = Vec::new();
    let (ctx, served) = loop {
        let setup = Instant::now();
        let ready = set_up(w, &store);
        setups.push(setup.elapsed().as_secs_f64());
        if began.elapsed() >= SETUP_REPEAT {
            break ready;
        }
        if let Some(server) = ready.1 {
            server.shutdown();
        }
    };

    let sweep = Instant::now();
    match w.sweep {
        Sweep::Figure7 => drop(fig07::run(&ctx)),
        Sweep::Prewarm => ctx.prewarm(w.keys()),
        Sweep::Served => {
            let server = served.as_ref().expect("served sweeps boot a server");
            let addr = server.addr().to_string();
            out.check(
                post_sweep(&addr, "{\"fig\": \"fig07\"}")
                    .and_then(|job| follow(&addr, job, w.keys().len())),
            );
        }
    }
    let sweep_s = sweep.elapsed().as_secs_f64();
    for setup_s in setups {
        out.sample("raw.setup_s", setup_s);
    }
    record_sweep(&mut out, w, &ctx, &golden, sweep_s);
    match peak_rss_mib() {
        Some(mib) => out.sample("peak_rss_mb", mib),
        None => out.check(Err("cannot read VmHWM from /proc/self/status".into())),
    }

    if serve_seconds > 0.0 {
        let server = served.unwrap_or_else(|| boot(&ctx));
        serve_phase(&mut out, w, &ctx, &server, &golden, seed, serve_seconds);
        server.shutdown();
    } else if let Some(server) = served {
        server.shutdown();
    }
    drop(ctx);
    let _ = std::fs::remove_dir_all(&store);
    out
}

/// A fresh context with the run set's input graphs built and, for a
/// served sweep, the service booted on it.
fn set_up(w: &Workload, store: &Path) -> (Arc<Experiments>, Option<ServerHandle>) {
    let ctx = Arc::new(
        Experiments::with_cache(w.size, None)
            .with_trace_store(Some(TraceStore::at(store)))
            .with_stream_replay(w.streaming),
    );
    // The input graphs, built side by side on the engine's own worker
    // pool (they are independent cells of the context).
    let weighted: &[bool] = if w.weighted() {
        &[false, true]
    } else {
        &[false]
    };
    parallel_map(weighted, |&weighted| {
        if weighted {
            ctx.weighted_graph(w.size)
        } else {
            ctx.graph(w.size)
        }
    });
    let served = (w.sweep == Sweep::Served).then(|| boot(&ctx));
    (ctx, served)
}

fn boot(ctx: &Arc<Experiments>) -> ServerHandle {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    graphpim_serve::start(cfg, Arc::clone(ctx)).expect("cannot boot graphpim-serve on 127.0.0.1")
}

/// Checks every run of a finished sweep against the goldens and for
/// replay fallbacks, and records its time and throughput and the
/// engine's own profile of it.
fn record_sweep(out: &mut Outcome, w: &Workload, ctx: &Experiments, golden: &Golden, sweep_s: f64) {
    let mut instructions = 0u64;
    for key in w.keys() {
        let stem = key.file_stem();
        out.check(match ctx.cached_metrics(&key) {
            Some(m) => {
                instructions += m.core.instructions;
                golden.check(&stem, &Record::of(&m))
            }
            None => Err(format!("{stem}: not resolved by the sweep")),
        });
    }
    let profile = ctx.profile();
    let store = profile.trace_store();
    out.check(match store.replay_fallbacks {
        0 => Ok(()),
        n => Err(format!("{n} replays fell back to live runs")),
    });
    out.sample("raw.sweep_s", sweep_s);
    out.sample("raw.sim_minstr_per_s", instructions as f64 / sweep_s / 1e6);
    let busy: f64 = profile.runs().iter().map(|r| r.seconds).sum();
    out.sample("engine.busy_s", busy);
    out.sample(
        "engine.pool_util",
        busy / (worker_threads() as f64 * sweep_s),
    );
    out.sample(
        "engine.critical_run_s",
        profile.slowest().map_or(0.0, |r| r.seconds),
    );
    out.sample("engine.captures", store.captures as f64);
    out.sample("engine.store_hits", store.disk_hits as f64);
}

/// `POST /sweeps` with `body`; returns the job id.
fn post_sweep(addr: &str, body: &str) -> Result<u64, String> {
    let (status, reply) =
        client::post(addr, "/sweeps", body).map_err(|e| format!("POST /sweeps: {e}"))?;
    let reply = String::from_utf8_lossy(&reply);
    if status != 202 {
        return Err(format!("POST /sweeps: HTTP {status}: {reply}"));
    }
    graphpim::experiments::cache::json::parse(&reply)
        .and_then(|doc| doc.as_object()?.get("job")?.as_u64())
        .ok_or_else(|| format!("POST /sweeps: no job id in {reply}"))
}

/// Follows job `job`'s events until it is done; every one of its `runs`
/// units must resolve without an error event.
fn follow(addr: &str, job: u64, runs: usize) -> Result<(), String> {
    let path = format!("/jobs/{job}/events");
    let (mut resolved, mut errors, mut done) = (0, 0, false);
    let status = client::get_streaming(addr, &path, &[], &mut |line| {
        resolved += usize::from(line.contains("\"event\": \"run\""));
        errors += usize::from(line.contains("\"event\": \"error\""));
        done |= line.contains("\"event\": \"done\"");
    })
    .map_err(|e| format!("GET {path}: {e}"))?;
    if status != 200 || !done || errors > 0 || resolved != runs {
        return Err(format!(
            "GET {path}: HTTP {status}, done={done}, {resolved}/{runs} runs, {errors} errors"
        ));
    }
    Ok(())
}

/// What the serve phase checks responses against, computed in-process
/// from the same context before the clients start.
struct Expected<'a> {
    golden: &'a Golden,
    figure: Option<String>,
    trace_slices: Vec<String>,
    stems: Vec<String>,
    sweep_body: String,
}

#[derive(Default)]
struct ClientLog {
    /// Client-side latency of every successful request.
    latencies_ms: Vec<f64>,
    /// Successful requests per second over each complete mix block.
    block_rates: Vec<f64>,
    /// Count and summed latency of successful `/counters` requests.
    counters: (u64, f64),
    checks: Vec<Result<(), String>>,
}

impl ClientLog {
    /// Records one request's outcome and, if it passed, its latency.
    fn record(&mut self, ms: f64, outcome: Result<(), String>) -> bool {
        let ok = outcome.is_ok();
        if ok {
            self.latencies_ms.push(ms);
        }
        self.checks.push(outcome);
        ok
    }
}

/// Runs `f`, returning its result and wall time in milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

fn serve_phase(
    out: &mut Outcome,
    w: &Workload,
    ctx: &Experiments,
    server: &ServerHandle,
    golden: &Golden,
    seed: u64,
    seconds: f64,
) {
    let addr = server.addr().to_string();
    let keys = w.keys();
    let expected = Expected {
        golden,
        figure: w
            .serves_figure()
            .then(|| figjson::figure_json("fig07", ctx).expect("fig07 is a served figure")),
        trace_slices: w
            .kernels
            .iter()
            .map(|k| {
                ctx.trace_slice_json(k, w.size, (0, Some(2)))
                    .unwrap_or_default()
            })
            .collect(),
        stems: keys.iter().map(|k| k.file_stem()).collect(),
        sweep_body: if w.serves_figure() {
            "{\"fig\": \"fig07\"}".to_string()
        } else {
            let stems: Vec<String> = keys
                .iter()
                .map(|k| format!("\"{}\"", k.file_stem()))
                .collect();
            format!("{{\"keys\": [{}]}}", stems.join(", "))
        },
    };
    let now = Instant::now();
    let stop = Stop {
        deadline: now + Duration::from_secs_f64(seconds),
        give_up: now + Duration::from_secs_f64(seconds) + GRACE,
        done: AtomicUsize::new(0),
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, expected, stop) = (&addr, &expected, &stop);
                s.spawn(move || client_loop(w, Mix::new(w, seed, c), addr, expected, stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve-phase client panicked"))
            .collect()
    });

    let mut latencies: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.latencies_ms.iter().copied())
        .collect();
    latencies.sort_by(f64::total_cmp);
    for log in logs.iter() {
        for check in &log.checks {
            out.check(check.clone());
        }
    }
    // Every block carries the same request mix, so the median block rate
    // is the service's throughput on that mix, unmoved by a short stall.
    let rates: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.block_rates.iter().copied())
        .collect();
    if rates.is_empty() {
        out.check(Err("the serve phase completed no request block".into()));
    } else {
        out.sample("raw.serve_rps", Summary::of(&rates).median * CLIENTS as f64);
    }
    // The median is not scaled (see `metrics::SCALED`).
    if let Some((p50, _)) = crate::stats::percentile(&latencies, 0.50) {
        out.sample("serve_p50_ms", p50);
    }
    match crate::stats::percentile(&latencies, 0.99) {
        Some((p99, beyond)) if beyond >= crate::stats::MIN_BEYOND => {
            out.sample("raw.serve_p99_ms", p99);
        }
        _ => out.check(Err(format!(
            "{} requests leave fewer than {} beyond p99",
            latencies.len(),
            crate::stats::MIN_BEYOND
        ))),
    }
    let counters = logs.iter().fold((0u64, 0.0), |acc, l| {
        (acc.0 + l.counters.0, acc.1 + l.counters.1)
    });
    scrape(out, &addr, counters.1 / counters.0.max(1) as f64);
}

/// When the serve phase's clients stop: past the deadline once the
/// clients together have issued `MIN_REQUESTS`, and at `give_up` anyway.
struct Stop {
    deadline: Instant,
    give_up: Instant,
    done: AtomicUsize,
}

impl Stop {
    fn reached(&self) -> bool {
        let now = Instant::now();
        now >= self.give_up
            || (now >= self.deadline && self.done.load(Ordering::Relaxed) >= MIN_REQUESTS)
    }
}

fn client_loop(
    w: &Workload,
    mix: Mix,
    addr: &str,
    expected: &Expected<'_>,
    stop: &Stop,
) -> ClientLog {
    let mut log = ClientLog::default();
    let (mut block_start, mut block_ok) = (Instant::now(), 0);
    for (i, request) in mix.enumerate() {
        if i % BLOCK == 0 && i > 0 {
            log.block_rates
                .push(block_ok as f64 / block_start.elapsed().as_secs_f64());
            (block_start, block_ok) = (Instant::now(), 0);
        }
        if stop.reached() {
            break;
        }
        let (before, checked) = (log.latencies_ms.len(), log.checks.len());
        match request {
            Request::Figure => {
                let (got, ms) = timed(|| get(addr, "/figures/fig07"));
                let want = expected.figure.as_deref().unwrap_or_default();
                let got = got.and_then(|body| {
                    (body == want)
                        .then_some(())
                        .ok_or_else(|| "/figures/fig07: body differs".to_string())
                });
                log.record(ms, got);
            }
            Request::Counters(i) => {
                let stem = &expected.stems[i];
                let path = format!("/counters/{stem}");
                let (got, ms) = timed(|| get(addr, &path));
                let got = got.and_then(|body| match Record::from_counters_json(&body) {
                    Some((key, record)) if key == *stem => expected.golden.check(stem, &record),
                    _ => Err(format!("{path}: unexpected body")),
                });
                if log.record(ms, got) {
                    log.counters.0 += 1;
                    log.counters.1 += ms;
                }
            }
            Request::Trace(k) => {
                let path = format!(
                    "/traces/{}?size={}&supersteps=0..2",
                    w.kernels[k],
                    w.size_token()
                );
                let (got, ms) = timed(|| get(addr, &path));
                let got = got.and_then(|body| {
                    (body == expected.trace_slices[k])
                        .then_some(())
                        .ok_or_else(|| format!("{path}: body differs"))
                });
                log.record(ms, got);
            }
            Request::Sweep => {
                let (job, ms) = timed(|| post_sweep(addr, &expected.sweep_body));
                let job_id = job.as_ref().ok().copied();
                log.record(ms, job.map(|_| ()));
                if let Some(id) = job_id {
                    let (done, ms) = timed(|| follow(addr, id, expected.stems.len()));
                    log.record(ms, done);
                }
            }
        }
        block_ok += log.latencies_ms.len() - before;
        stop.done
            .fetch_add(log.checks.len() - checked, Ordering::Relaxed);
    }
    log
}

/// `GET path`, requiring `200`.
fn get(addr: &str, path: &str) -> Result<String, String> {
    match client::get(addr, path) {
        Ok((200, body)) => Ok(String::from_utf8_lossy(&body).into_owned()),
        Ok((status, _)) => Err(format!("{path}: HTTP {status}")),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

/// Reads the service's own view after the clients stop: handler time
/// from `/stats`, job and shed counts from `/metrics`.
fn scrape(out: &mut Outcome, addr: &str, client_counters_ms: f64) {
    use graphpim::experiments::cache::json;
    let stats = get(addr, "/stats").ok().and_then(|body| json::parse(&body));
    let endpoints = stats
        .as_ref()
        .and_then(|doc| doc.as_object()?.get("endpoints")?.as_object());
    let Some(endpoints) = endpoints else {
        out.check(Err("/stats: no endpoints object".into()));
        return;
    };
    let handler = |label: &str| {
        let e = endpoints.get(label)?.as_object()?;
        Some((e.get("count")?.as_f64()?, e.get("mean_us")?.as_f64()?))
    };
    let (mut count, mut total_us) = (0.0, 0.0);
    for label in [
        "GET /figures/{fig}",
        "GET /counters/{run-key}",
        "GET /traces/{workload}",
        "POST /sweeps",
    ] {
        if let Some((n, mean)) = handler(label) {
            count += n;
            total_us += n * mean;
        }
    }
    out.sample("serve.handler_mean_us", total_us / count.max(1.0));
    let counters_us = handler("GET /counters/{run-key}").map_or(0.0, |(_, mean)| mean);
    out.sample(
        "serve.conn_overhead_ms",
        client_counters_ms - counters_us / 1e3,
    );

    let metrics = get(addr, "/metrics").unwrap_or_default();
    let total = |name: &str| -> f64 {
        metrics
            .lines()
            .filter(|l| l.starts_with(name))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    };
    out.set(
        "serve.jobs_completed",
        total("graphpim_jobs_completed_total"),
    );
    out.set("serve.shed", total("graphpim_admission_shed_total"));
}

/// This process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
