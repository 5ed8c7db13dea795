//! `benchmark`: the repository's one benchmark — four workloads, the
//! end-to-end metrics a user sees, and per-layer metrics from a traced
//! pass that times each layer's public functions from outside.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--reps R] [--trace [0|1]] [--out PATH]
//! benchmark compare A.json[,A2.json...] B.json[,B2.json...]
//! benchmark golden
//!
//! --workload NAME  one of fig07-1k, stream-1k, mem-100k, serve-1k (default: all four)
//! --seed N         seed of the serve phase's request mix (default 7)
//! --seconds S      measured seconds per workload (default 24)
//! --reps R         minimum cold sweeps per workload (default 3)
//! --trace [0|1]    also run the traced pass and report per-layer metrics
//! --out PATH       JSON report (default benchmark-out/report.json); Chrome
//!                  traces go next to it as <workload>.trace.json
//! ```
//!
//! Run from the repository root:
//! `cargo run --release --manifest-path crates/bench/benchmark/Cargo.toml -- [flags]`.
//!
//! Every cold sweep runs in a fresh child process with
//! `GRAPHPIM_THREADS=2` and every other `GRAPHPIM_*` knob cleared, so
//! `peak_rss_mb` is that sweep's own high-water mark and no user setting
//! changes what is measured. The traced passes run in children of their
//! own, so tracing never touches an end-to-end number. The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (or, with `--trace 1`, the per-layer metrics). The
//! exit code is non-zero when any output fails its correctness check.
//! See `README.md` next to this crate.

mod golden;
mod host;
mod metrics;
mod report;
mod session;
mod stats;
mod traced;
mod workloads;

use report::{Outcome, WorkloadResult};
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};
use workloads::Workload;

/// Measured seconds per workload run (`run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 24.0;

/// Traced passes per workload, each a fresh process; per-layer metrics
/// are their medians (the Chrome trace is the last one's).
const TRACED_PASSES: usize = 3;

/// Simulation worker threads every workload runs with (the reference
/// box has two cores).
const THREADS: &str = "2";

/// Where reports, Chrome traces and private trace stores go by default,
/// relative to the working directory.
const OUT_DIR: &str = "benchmark-out";

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\n\nusage: benchmark [--workload NAME] [--seed N] [--seconds S] [--reps R] \
         [--trace [0|1]] [--out PATH]\n       benchmark compare A.json[,A2.json...] B.json[,B2.json...]\n       \
         benchmark golden"
    );
    exit(2)
}

struct Options {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    reps: usize,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Options {
    let mut opts = Options {
        workloads: workloads::WORKLOADS.iter().collect(),
        seed: 7,
        seconds: DEFAULT_SECONDS,
        reps: 3,
        trace: false,
        out: Path::new(OUT_DIR).join("report.json"),
    };
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload");
                let w = workloads::by_name(&name)
                    .unwrap_or_else(|| usage(&format!("unknown workload {name}")));
                opts.workloads = vec![w];
            }
            "--seed" => {
                opts.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be a non-negative integer"))
            }
            "--seconds" => {
                opts.seconds = value("--seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds must be a positive number"))
            }
            "--reps" => {
                opts.reps = value("--reps")
                    .parse()
                    .ok()
                    .filter(|r| *r >= 1)
                    .unwrap_or_else(|| usage("--reps must be a positive integer"))
            }
            "--trace" => {
                opts.trace = match args.peek().map(|s| s.as_str()) {
                    Some(v @ ("0" | "1")) => {
                        let on = v == "1";
                        args.next();
                        on
                    }
                    _ => true,
                };
            }
            "--out" => opts.out = PathBuf::from(value("--out")),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    opts
}

/// A private scratch directory for one trace store, unique to this
/// process; the caller removes it when done.
pub fn scratch_dir(tag: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("tmp-{}-{tag}", std::process::id()))
}

/// Runs `benchmark child ARGS...` with the controlled environment and
/// returns its outcome (a failed or unparseable child is one failed check).
fn child(args: &[String]) -> Outcome {
    let exe =
        std::env::current_exe().unwrap_or_else(|e| usage(&format!("cannot locate self: {e}")));
    let mut cmd = Command::new(exe);
    cmd.arg("child").args(args);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("GRAPHPIM_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("GRAPHPIM_THREADS", THREADS)
        .env("GRAPHPIM_LOG", "warn")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let mut failed = Outcome::default();
    match cmd.output() {
        Ok(output) if output.status.success() => {
            let stdout = String::from_utf8_lossy(&output.stdout);
            match stdout.lines().last().and_then(Outcome::parse) {
                Some(outcome) => return outcome,
                None => failed.check(Err(format!("child {args:?}: unreadable outcome"))),
            }
        }
        Ok(output) => failed.check(Err(format!("child {args:?}: {}", output.status))),
        Err(e) => failed.check(Err(format!("child {args:?}: cannot spawn: {e}"))),
    }
    failed
}

/// Child side of [`child`]: runs one session or traced pass and prints
/// its outcome as the last stdout line.
fn run_child(args: &[String]) -> i32 {
    let workload =
        |name: &String| workloads::by_name(name).unwrap_or_else(|| usage("unknown workload"));
    let outcome = match args {
        [kind, name, seed, serve_seconds] if kind == "session" => session::run(
            workload(name),
            seed.parse().unwrap_or_else(|_| usage("bad child seed")),
            serve_seconds
                .parse()
                .unwrap_or_else(|_| usage("bad child serve seconds")),
        ),
        [kind, name, trace] if kind == "traced" => traced::run(workload(name), Path::new(trace)),
        _ => usage("bad child arguments"),
    };
    println!("{}", outcome.to_json());
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => report::compare(&args[1..]),
        Some("golden") => golden::regenerate(),
        Some("child") => run_child(&args[1..]),
        _ => run(parse_args(&args)),
    };
    exit(code)
}

/// The untraced repetitions of `w`, each a fresh process: cold sweeps
/// until all but the workload's serve share of `--seconds` (and at least
/// `--reps` sweeps) is spent; the last one then serves its results for
/// the rest. The host-speed loop runs here, around each child, never
/// beside one.
fn sessions(w: &Workload, opts: &Options) -> Outcome {
    let sweep_budget = opts.seconds * (1.0 - w.serve_share);
    let started = std::time::Instant::now();
    let mut outcome = Outcome::default();
    for rep in 1.. {
        // Whether another plain sweep still fits the budget, judged by
        // the median sweep so far.
        let typical = outcome.summary("raw.sweep_s").map_or(0.0, |s| s.median);
        let last = rep >= opts.reps && started.elapsed().as_secs_f64() + typical >= sweep_budget;
        let serve_seconds = if last {
            opts.seconds - sweep_budget
        } else {
            0.0
        };
        let before = host::alu_s();
        let mut repetition = child(&[
            "session".into(),
            w.name.into(),
            opts.seed.to_string(),
            serve_seconds.to_string(),
        ]);
        host::to_reference(&mut repetition, before, host::alu_s());
        outcome.merge(repetition);
        if last {
            break;
        }
    }
    outcome
}

fn run(opts: Options) -> i32 {
    if let Err(e) = metrics::check_definition() {
        eprintln!("benchmark: {e}");
        return 2;
    }
    let out_dir = opts
        .out
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."))
        .to_path_buf();
    if let Err(e) = std::fs::create_dir_all(&out_dir).and(std::fs::create_dir_all(OUT_DIR)) {
        eprintln!("benchmark: cannot create {}: {e}", out_dir.display());
        return 1;
    }
    let mut results = Vec::new();
    for w in &opts.workloads {
        eprintln!("[benchmark] {}: {}", w.name, w.why);
        let mut outcome = sessions(w, &opts);
        if opts.trace {
            let path = out_dir.join(format!("{}.trace.json", w.name));
            for _ in 0..TRACED_PASSES {
                outcome.merge(child(&[
                    "traced".into(),
                    w.name.into(),
                    path.to_string_lossy().into_owned(),
                ]));
            }
            let overhead = match (
                outcome.summary("trace.wall_s"),
                outcome.summary("raw.sweep_s"),
            ) {
                (Some(traced), Some(sweep)) => {
                    100.0 * (traced.median - sweep.median) / sweep.median
                }
                _ => f64::NAN,
            };
            outcome.set("trace.overhead_pct", overhead);
            let closure = outcome
                .summary("trace.closure_pct")
                .map_or(100.0, |s| s.median);
            outcome.check(if closure <= 5.0 {
                Ok(())
            } else {
                Err(format!(
                    "layer spans leave {closure:.2}% of busy time unexplained (> 5%)"
                ))
            });
        }
        let result = WorkloadResult {
            name: w.name,
            outcome,
        };
        print!("{}", result.table(opts.trace));
        results.push(result);
    }

    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let header = [
        ("seed", opts.seed.to_string()),
        ("seconds", format!("{:?}", opts.seconds)),
        ("min_reps", opts.reps.to_string()),
        ("trace", opts.trace.to_string()),
        ("threads", THREADS.to_string()),
        ("available_parallelism", parallelism.to_string()),
    ];
    if let Err(e) = std::fs::write(&opts.out, report::report_json(&results, &header)) {
        eprintln!("benchmark: cannot write {}: {e}", opts.out.display());
        return 1;
    }
    eprintln!("[benchmark] report: {}", opts.out.display());
    let selected: &[metrics::Metric] = if opts.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let (correct, line) = report::result_line(&results, selected);
    println!("{line}");
    i32::from(!correct)
}
