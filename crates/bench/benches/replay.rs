//! Live execution vs trace replay: the speedup the trace store buys per
//! sweep point on a mid-size LDBC graph.
//!
//! `live` is the full pipeline (functional kernel execution feeding the
//! timing models); `replay` drives a pre-captured binary trace through
//! the same timing models, decoding it frame by frame; `capture` is the
//! one-time functional-only cost a cold store pays before its first
//! replay.

use criterion::{criterion_group, criterion_main, Criterion};
use graphpim::config::{PimMode, SystemConfig};
use graphpim::system::{Instrumentation, Source, SystemSim};
use graphpim::tracestore::capture_kernel;
use graphpim_graph::generate::{GraphSpec, LdbcSize};
use graphpim_workloads::kernels::Bfs;

fn bench_live_vs_replay(c: &mut Criterion) {
    let graph = GraphSpec::ldbc(LdbcSize::K10).seed(7).build();
    let config = SystemConfig::hpca(PimMode::GraphPim);
    let trace = capture_kernel(&mut Bfs::new(0), &graph, config.sim.core.cores);

    let mut group = c.benchmark_group("trace_replay_bfs_ldbc10k");
    group.sample_size(10);
    group.bench_function("live", |b| {
        b.iter(|| {
            criterion::black_box(SystemSim::run_kernel(&mut Bfs::new(0), &graph, &config));
        });
    });
    group.bench_function("replay", |b| {
        b.iter(|| {
            criterion::black_box(
                SystemSim::run(&config, Source::Encoded(&trace), Instrumentation::default())
                    .expect("valid trace"),
            );
        });
    });
    group.bench_function("capture", |b| {
        b.iter(|| {
            criterion::black_box(capture_kernel(
                &mut Bfs::new(0),
                &graph,
                config.sim.core.cores,
            ));
        });
    });
    group.finish();
}

criterion_group!(benches, bench_live_vs_replay);
criterion_main!(benches);
