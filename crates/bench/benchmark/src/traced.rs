//! The traced pass: the same sweep, with each layer's public functions
//! called directly from here and timed as spans.
//!
//! Runs are fanned out over the engine's own `parallel_map` in the
//! engine's key order, and each kernel's trace is captured once behind a
//! per-kernel `OnceLock`, as `Experiments` does, so the spans explain the
//! untraced sweep rather than a differently scheduled one. Spans stay in
//! memory and are written once, as Chrome trace-event JSON, at the end.

use crate::golden::{Golden, Record};
use crate::report::Outcome;
use crate::workloads::Workload;
use graphpim::config::{PimMode, SystemConfig};
use graphpim::experiments::{parallel_map, pick_root, RunKey};
use graphpim::metrics::RunMetrics;
use graphpim::system::SystemSim;
use graphpim::tracestore::{capture_kernel, TraceLookup, TraceStore, WorkloadKey};
use graphpim_graph::generate::GraphSpec;
use graphpim_graph::CsrGraph;
use graphpim_sim::trace::codec::{DecodedTrace, TraceReader};
use graphpim_sim::trace::TraceEvent;
use graphpim_workloads::kernels::{by_name, Kernel, KernelParams};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The experiment engine's input-graph seed. The engine keeps it private;
/// the golden check fails if this copy ever drifts from it.
const ENGINE_GRAPH_SEED: u64 = 7;

/// Name of the root span of one run; everything under it is a layer.
const RUN: &str = "run";

/// One timed interval.
#[derive(Debug)]
struct Span {
    /// Unique id.
    id: usize,
    /// The span this one ran inside, if any.
    parent: Option<usize>,
    /// Layer name.
    name: &'static str,
    /// Index of the run (sweep key) the span worked for; `None` for set-up.
    run: Option<usize>,
    /// Small per-thread index.
    tid: usize,
    /// Start, seconds since the recorder was created.
    start: f64,
    /// End, seconds since the recorder was created.
    end: f64,
}

/// Thread-safe in-memory span log.
struct Recorder {
    t0: Instant,
    next: AtomicUsize,
    spans: Mutex<Vec<Span>>,
    threads: Mutex<Vec<std::thread::ThreadId>>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            next: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn id(&self) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn tid(&self) -> usize {
        let me = std::thread::current().id();
        let mut threads = self.threads.lock().expect("span thread table poisoned");
        match threads.iter().position(|t| *t == me) {
            Some(i) => i,
            None => {
                threads.push(me);
                threads.len() - 1
            }
        }
    }

    /// Records a finished span `[start, now]` under a pre-allocated `id`.
    fn close(
        &self,
        id: usize,
        name: &'static str,
        run: Option<usize>,
        parent: Option<usize>,
        start: f64,
    ) {
        let span = Span {
            id,
            parent,
            name,
            run,
            tid: self.tid(),
            start,
            end: self.now(),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Runs `f` inside a span.
    fn time<R>(
        &self,
        name: &'static str,
        run: Option<usize>,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let (id, start) = (self.id(), self.now());
        let value = f();
        self.close(id, name, run, parent, start);
        value
    }

    fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span log poisoned")
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children cover.
fn self_times(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .map(|span| {
            let mut children: Vec<(f64, f64)> = spans
                .iter()
                .filter(|c| c.parent == Some(span.id))
                .map(|c| (c.start.max(span.start), c.end.min(span.end)))
                .filter(|(s, e)| e > s)
                .collect();
            children.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, span.start);
            for (s, e) in children {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (span.end - span.start) - covered
        })
        .collect()
}

/// Self seconds per layer name, plus the closure: the share (in %) of
/// the runs' busy time that no layer span explains.
fn layers(spans: &[Span]) -> (Vec<(&'static str, f64)>, f64) {
    let selfs = self_times(spans);
    let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
    for (span, own) in spans.iter().zip(&selfs) {
        match by_layer.iter_mut().find(|(n, _)| *n == span.name) {
            Some((_, total)) => *total += own,
            None => by_layer.push((span.name, *own)),
        }
    }
    let busy: f64 = spans
        .iter()
        .filter(|s| s.name == RUN)
        .map(|s| s.end - s.start)
        .sum();
    let unexplained: f64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == RUN)
        .map(|(_, own)| own)
        .sum();
    let closure = if busy > 0.0 {
        100.0 * unexplained / busy
    } else {
        100.0
    };
    (by_layer, closure)
}

/// A captured trace in the form its replays consume.
enum Loaded {
    Decoded(DecodedTrace),
    Bytes(Vec<u8>),
}

/// The configuration a run key resolves to, as the engine builds it.
fn config(key: &RunKey) -> SystemConfig {
    SystemConfig::hpca(key.mode)
        .with_fus_per_vault(key.fus)
        .with_link_bandwidth_factor(key.bw_tenths as f64 / 10.0)
}

/// A fresh kernel for `name`, parameterized as the engine does.
fn kernel(name: &str, graph: &CsrGraph) -> Box<dyn Kernel> {
    let mut params = KernelParams::scaled_for(graph.vertex_count());
    params.root = pick_root(graph);
    by_name(name, params).unwrap_or_else(|| panic!("unknown kernel {name}"))
}

fn mode_layer(mode: PimMode) -> &'static str {
    match mode {
        PimMode::Baseline => "replay.baseline",
        PimMode::UPei => "replay.upei",
        PimMode::GraphPim => "replay.graphpim",
    }
}

/// Runs the traced pass of `w`, writes its spans to `trace_path`, and
/// returns the per-layer metrics.
pub fn run(w: &Workload, trace_path: &Path) -> Outcome {
    let mut out = Outcome::default();
    let golden = Golden::load(w.golden);
    let rec = Recorder::new();
    let spec = GraphSpec::ldbc(w.size).seed(ENGINE_GRAPH_SEED);
    let graph = rec.time("graph", None, None, || spec.build());
    let weighted = w
        .weighted()
        .then(|| rec.time("graph", None, None, || spec.weighted().build()));
    let keys = w.keys();
    let store_dir = crate::scratch_dir(&format!("traced-{}", w.name));
    let store = TraceStore::at(&store_dir);
    let cells: Vec<OnceLock<Result<Loaded, String>>> =
        w.kernels.iter().map(|_| OnceLock::new()).collect();

    let began = rec.now();
    let indices: Vec<usize> = (0..keys.len()).collect();
    let results: Vec<Result<RunMetrics, String>> = parallel_map(&indices, |&i| {
        let (key, run) = (&keys[i], Some(i));
        let (root, start) = (rec.id(), rec.now());
        let k = w
            .kernels
            .iter()
            .position(|k| *k == key.kernel)
            .expect("key of this run set");
        let g = match (&weighted, key.kernel.as_str()) {
            (Some(wg), "SSSP") => wg,
            _ => &graph,
        };
        let config = config(key);
        let threads = config.sim.core.cores;
        let waited = rec.now();
        let mut loaded_here = false;
        let loaded = cells[k].get_or_init(|| {
            loaded_here = true;
            let wkey = WorkloadKey {
                kernel: key.kernel.clone(),
                graph: format!("ldbc-{}", w.size_token()),
                threads,
            };
            let time = |name: &'static str, f: &mut dyn FnMut()| rec.time(name, run, Some(root), f);
            let mut missed = true;
            time("store", &mut || {
                missed = matches!(store.lookup(&wkey, 0), TraceLookup::Miss)
            });
            if !missed {
                return Err(format!("{}: private trace store was not empty", key.kernel));
            }
            let mut bytes = Vec::new();
            if w.streaming {
                time("capture", &mut || {
                    bytes = store
                        .capture_streaming(&wkey, 0, g, threads, &mut || kernel(&key.kernel, g));
                });
                let mut valid = Ok(());
                time("decode", &mut || {
                    valid = TraceReader::new(&bytes).map(|_| ())
                });
                valid
                    .map(|()| Loaded::Bytes(bytes))
                    .map_err(|e| e.to_string())
            } else {
                time("capture", &mut || {
                    bytes = capture_kernel(kernel(&key.kernel, g).as_mut(), g, threads);
                });
                time("store", &mut || store.store(&wkey, 0, &bytes));
                let mut decoded = None;
                time("decode", &mut || {
                    decoded = Some(DecodedTrace::decode(&bytes))
                });
                let decoded = decoded.expect("decode span ran");
                decoded.map(Loaded::Decoded).map_err(|e| e.to_string())
            }
        });
        if !loaded_here {
            rec.close(rec.id(), "engine.wait", run, Some(root), waited);
        }
        let metrics = rec.time(mode_layer(key.mode), run, Some(root), || match loaded {
            Ok(Loaded::Decoded(trace)) => Ok(SystemSim::run_decoded(trace, &config)),
            Ok(Loaded::Bytes(bytes)) => {
                SystemSim::run_replayed_streaming(bytes, &config).map_err(|e| e.to_string())
            }
            Err(e) => Err(e.clone()),
        });
        rec.close(root, RUN, run, None, start);
        metrics
    });
    let wall = rec.now() - began;

    // Counted after the timed pass: trace sizes and exact model counts.
    let ops: u64 = cells
        .iter()
        .map(|cell| match cell.get() {
            Some(Ok(Loaded::Decoded(trace))) => trace.op_count() as u64,
            Some(Ok(Loaded::Bytes(bytes))) => count_ops(bytes),
            _ => 0,
        })
        .sum();
    let bytes = store_bytes(&store_dir);
    let mut runs: Vec<&RunMetrics> = Vec::new();
    for (key, result) in keys.iter().zip(&results) {
        let stem = key.file_stem();
        out.check(match result {
            Ok(m) => {
                runs.push(m);
                golden.check(&stem, &Record::of(m))
            }
            Err(e) => Err(format!("{stem}: {e}")),
        });
    }
    let total = |count: fn(&RunMetrics) -> f64| -> f64 { runs.iter().map(|m| count(m)).sum() };
    let mem_requests = total(|m| m.core.memory_ops as f64);
    let _ = std::fs::remove_dir_all(&store_dir);

    let spans = rec.into_spans();
    let (by_layer, closure) = layers(&spans);
    let self_of = |prefix: &str| -> f64 {
        by_layer
            .iter()
            .filter(|(n, _)| {
                *n == prefix || n.strip_prefix(prefix).is_some_and(|r| r.starts_with('.'))
            })
            .map(|(_, s)| s)
            .sum()
    };
    let per_op = |s: f64| s * 1e9 / ops.max(1) as f64;
    let mib = |b: f64| b / (1024.0 * 1024.0);
    out.set("graph.build_s", self_of("graph"));
    out.set("graph.edges", graph.edge_count() as f64);
    out.set("capture.s", self_of("capture"));
    out.set("capture.ns_per_op", per_op(self_of("capture")));
    out.set("capture.bytes_per_op", bytes as f64 / ops.max(1) as f64);
    out.set("store.s", self_of("store"));
    out.set("store.mb", mib(bytes as f64));
    out.set("decode.s", self_of("decode"));
    out.set("decode.ns_per_op", per_op(self_of("decode")));
    out.set(
        "decode.resident_mb",
        mib(if w.streaming {
            bytes as f64
        } else {
            (ops as usize * std::mem::size_of::<graphpim_sim::trace::TraceOp>()) as f64
        }),
    );
    out.set("replay.s", self_of("replay"));
    for mode in PimMode::ALL {
        let layer = mode_layer(mode);
        out.set(&format!("{layer}.ns_per_op"), per_op(self_of(layer)));
    }
    out.set(
        "replay.ns_per_mem_req",
        self_of("replay") * 1e9 / mem_requests.max(1.0),
    );
    out.set("engine.wait_s", self_of("engine.wait"));
    out.set("trace.closure_pct", closure);
    out.set("trace.wall_s", wall);
    out.set("sim.ops", ops as f64);
    out.set(
        "sim.instructions",
        total(|m| Record::of(m).instructions as f64),
    );
    out.set("sim.memory_ops", mem_requests);
    out.set(
        "sim.pim_atomics",
        total(|m| Record::of(m).pim_atomics as f64),
    );
    out.set("sim.cycles", total(|m| Record::of(m).total_cycles));
    out.set("hmc.requests", total(|m| Record::of(m).hmc_requests as f64));
    out.set("hmc.flits", total(|m| Record::of(m).total_flits as f64));
    if let Err(e) = std::fs::write(trace_path, chrome_trace(&spans, &keys)) {
        out.check(Err(format!("cannot write {}: {e}", trace_path.display())));
    }
    out
}

/// Trace ops in an encoded stream.
fn count_ops(bytes: &[u8]) -> u64 {
    let Ok(mut reader) = TraceReader::new(bytes) else {
        return 0;
    };
    let mut ops = 0u64;
    while let Ok(Some(event)) = reader.next_event() {
        if let TraceEvent::Chunk(step) = event {
            ops += step.threads.iter().map(|t| t.len() as u64).sum::<u64>();
        }
    }
    ops
}

/// Encoded trace bytes the store holds (what capture wrote).
fn store_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// The spans as Chrome trace-event JSON (open in ui.perfetto.dev): one
/// track per thread, each span carrying its run key and parent.
fn chrome_trace(spans: &[Span], keys: &[RunKey]) -> String {
    let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let threads = spans.iter().map(|s| s.tid).max().map_or(0, |t| t + 1);
    for tid in 0..threads {
        let name = if tid == 0 {
            "set-up".to_string()
        } else {
            format!("worker {tid}")
        };
        let _ = writeln!(
            s,
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": \"{name}\"}}}},"
        );
    }
    for (i, span) in spans.iter().enumerate() {
        let run = span
            .run
            .map_or("set-up".to_string(), |r| keys[r].file_stem());
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{{\"name\": \"{}\", \"cat\": \"layer\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"run\": \"{run}\", \"span\": {}, \
             \"parent\": {parent}}}}}",
            span.name,
            span.tid,
            span.start * 1e6,
            (span.end - span.start) * 1e6,
            span.id
        );
        s.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            run: Some(0),
            tid: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            span(0, None, RUN, 0.0, 10.0),
            span(1, Some(0), "capture", 1.0, 4.0),
            span(2, Some(1), "store", 2.0, 3.0),
            span(3, Some(0), "replay.baseline", 4.0, 9.0),
            // Overlapping and overhanging children count once, clipped.
            span(4, Some(3), "a", 3.0, 6.0),
            span(5, Some(3), "b", 5.0, 7.0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![2.0, 2.0, 1.0, 2.0, 3.0, 2.0]);
        let (layers, closure) = layers(&spans);
        let get = |n: &str| layers.iter().find(|(l, _)| *l == n).unwrap().1;
        assert_eq!(get("capture"), 2.0);
        assert_eq!(get("store"), 1.0);
        // 2 of the run's 10 busy seconds sit in no layer span.
        assert!((closure - 20.0).abs() < 1e-12);
    }

    #[test]
    fn closure_is_zero_when_layers_tile_the_run() {
        let spans = vec![
            span(0, None, RUN, 0.0, 4.0),
            span(1, Some(0), "capture", 0.0, 1.0),
            span(2, Some(0), "engine.wait", 1.0, 2.5),
            span(3, Some(0), "replay.upei", 2.5, 4.0),
            span(4, None, "graph", 0.0, 0.5),
        ];
        let (layers, closure) = layers(&spans);
        assert_eq!(closure, 0.0);
        let graph = layers.iter().find(|(l, _)| *l == "graph").unwrap().1;
        assert_eq!(
            graph, 0.5,
            "set-up spans count as their layer, outside closure"
        );
    }
}
