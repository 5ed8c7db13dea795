//! Hot-loop microbenchmarks: per-op cost of every path a run takes
//! through the timing models, on the LDBC-1k BFS and PRank traces.
//!
//! - `hotloop_decode/PRank`: `DecodedTrace::decode` (varint frames ->
//!   flat op buffer, done once per workload by the engine);
//! - `hotloop_replay_<kernel>/<mode>`: `SystemSim::run_decoded` over the
//!   pre-decoded buffer, the loop every figure sweep spends its time in;
//! - `hotloop_encoded_<kernel>/<mode>`: replay of the encoded bytes,
//!   decoding frame by frame (`Source::Encoded`, the streaming form);
//! - `hotloop_live_<kernel>/<mode>`: the kernel executing functionally
//!   while it feeds the timing models (`SystemSim::run_kernel`);
//! - `hotloop_capture/<kernel>`: `capture_kernel`, the functional-only
//!   execution a cold trace store pays once per workload.
//!
//! Throughput is reported in trace ops, so every path reads as ns/op,
//! independent of trace length. Use the min column: the mean soaks up
//! scheduler noise on small CI boxes.

use criterion::{criterion_group, criterion_main, BatchSize, Bencher, Criterion, Throughput};
use graphpim::config::{PimMode, SystemConfig};
use graphpim::system::{Instrumentation, Source, SystemSim};
use graphpim::tracestore::capture_kernel;
use graphpim_graph::generate::{GraphSpec, LdbcSize};
use graphpim_graph::CsrGraph;
use graphpim_sim::trace::codec::DecodedTrace;
use graphpim_workloads::kernels::{by_name, Kernel, KernelParams};

const KERNELS: [&str; 2] = ["BFS", "PRank"];

/// Simulated cores, and so trace threads, of the HPCA configuration.
const THREADS: usize = 16;

fn graph() -> CsrGraph {
    GraphSpec::ldbc(LdbcSize::K1).seed(7).build()
}

fn kernel(name: &str, graph: &CsrGraph) -> Box<dyn Kernel> {
    let mut params = KernelParams::scaled_for(graph.vertex_count());
    params.root = 0;
    by_name(name, params).expect("known kernel")
}

fn capture(name: &str, graph: &CsrGraph) -> Vec<u8> {
    capture_kernel(kernel(name, graph).as_mut(), graph, THREADS)
}

fn decode(bytes: &[u8]) -> DecodedTrace {
    DecodedTrace::decode(bytes).expect("valid trace")
}

/// One kernel's LDBC-1k capture, encoded and decoded.
struct Capture {
    name: &'static str,
    bytes: Vec<u8>,
    decoded: DecodedTrace,
}

/// Group `<prefix>_<kernel>` per kernel, one function per PIM mode,
/// throughput in trace ops; `f` times one run of `Capture` under a mode.
fn per_mode(
    c: &mut Criterion,
    graph: &CsrGraph,
    prefix: &str,
    mut f: impl FnMut(&mut Bencher, &Capture, &SystemConfig),
) {
    for name in KERNELS {
        let bytes = capture(name, graph);
        let trace = Capture {
            name,
            decoded: decode(&bytes),
            bytes,
        };
        let mut group = c.benchmark_group(format!("{prefix}_{name}"));
        group.sample_size(20);
        group.throughput(Throughput::Elements(trace.decoded.op_count() as u64));
        for mode in PimMode::ALL {
            let config = SystemConfig::hpca(mode);
            group.bench_function(&format!("{mode:?}"), |b| f(b, &trace, &config));
        }
        group.finish();
    }
}

fn bench_decode(c: &mut Criterion) {
    let bytes = capture("PRank", &graph());
    let mut group = c.benchmark_group("hotloop_decode");
    group.sample_size(20);
    group.throughput(Throughput::Elements(decode(&bytes).op_count() as u64));
    group.bench_function("PRank", |b| b.iter(|| decode(&bytes)));
    group.finish();
}

fn bench_runs(c: &mut Criterion) {
    let graph = graph();
    per_mode(c, &graph, "hotloop_replay", |b, trace, config| {
        b.iter(|| SystemSim::run_decoded(&trace.decoded, config))
    });
    per_mode(c, &graph, "hotloop_encoded", |b, trace, config| {
        b.iter(|| {
            SystemSim::run(
                config,
                Source::Encoded(&trace.bytes),
                Instrumentation::default(),
            )
            .expect("valid trace")
        })
    });
    per_mode(c, &graph, "hotloop_live", |b, trace, config| {
        b.iter_batched(
            || kernel(trace.name, &graph),
            |mut k| SystemSim::run_kernel(k.as_mut(), &graph, config),
            BatchSize::PerIteration,
        )
    });
}

fn bench_capture(c: &mut Criterion) {
    let graph = graph();
    let mut group = c.benchmark_group("hotloop_capture");
    group.sample_size(20);
    for name in KERNELS {
        let ops = decode(&capture(name, &graph)).op_count();
        group.throughput(Throughput::Elements(ops as u64));
        group.bench_function(name, |b| {
            b.iter_batched(
                || kernel(name, &graph),
                |mut k| capture_kernel(k.as_mut(), &graph, THREADS),
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decode, bench_runs, bench_capture);
criterion_main!(benches);
