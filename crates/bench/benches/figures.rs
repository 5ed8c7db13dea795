//! Criterion benches: one per paper table/figure, each timing a
//! representative slice of the harness that regenerates it (single kernel,
//! smoke scale) so `cargo bench` finishes quickly. The full figures are
//! produced by the `figure` binary; these benches track the cost of the
//! underlying simulation paths and guard against regressions.

use criterion::{criterion_group, criterion_main, Criterion};
use graphpim::config::PimMode;
use graphpim::experiments::{tables, Experiments};
use graphpim_graph::generate::LdbcSize;

fn ctx() -> Experiments {
    // No disk cache: these benches time the cold simulation path, not a
    // cache replay.
    Experiments::with_cache(LdbcSize::K1, None)
}

/// One (kernel × mode) simulation at smoke scale — the unit every figure
/// is assembled from.
fn bench_unit(c: &mut Criterion, group: &str, kernel: &'static str, mode: PimMode) {
    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.bench_function("run", |b| {
        b.iter_batched(
            ctx,
            |ctx| criterion::black_box(ctx.metrics(kernel, mode)),
            criterion::BatchSize::PerIteration,
        )
    });
    g.finish();
}

fn bench_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables_1_to_6");
    group.sample_size(10);
    group.bench_function("render", |b| {
        b.iter_batched(
            ctx,
            |ctx| criterion::black_box(tables::all(&ctx)),
            criterion::BatchSize::PerIteration,
        )
    });
    group.finish();
}

fn bench_fig01(c: &mut Criterion) {
    // Figure 1 runs all 13 kernels on the baseline; representative: Gibbs.
    bench_unit(c, "fig01_ipc_unit", "Gibbs", PimMode::Baseline);
}
fn bench_fig02(c: &mut Criterion) {
    bench_unit(c, "fig02_breakdown_unit", "BFS", PimMode::Baseline);
}
fn bench_fig04(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig04_plain_atomics_unit");
    g.sample_size(10);
    g.bench_function("run", |b| {
        b.iter_batched(
            ctx,
            |ctx| criterion::black_box(ctx.metrics_plain_atomics("DC")),
            criterion::BatchSize::PerIteration,
        )
    });
    g.finish();
}
fn bench_fig07(c: &mut Criterion) {
    bench_unit(c, "fig07_speedup_unit", "DC", PimMode::GraphPim);
}
fn bench_fig09(c: &mut Criterion) {
    bench_unit(c, "fig09_breakdown_unit", "CComp", PimMode::Baseline);
}
fn bench_fig10(c: &mut Criterion) {
    bench_unit(c, "fig10_candidates_unit", "SSSP", PimMode::Baseline);
}
fn bench_fig11(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11_fu_sweep_unit");
    g.sample_size(10);
    g.bench_function("run", |b| {
        b.iter_batched(
            ctx,
            |ctx| {
                let size = ctx.size();
                criterion::black_box(ctx.metrics_at("DC", PimMode::GraphPim, size, 1, 10))
            },
            criterion::BatchSize::PerIteration,
        )
    });
    g.finish();
}
fn bench_fig12(c: &mut Criterion) {
    bench_unit(c, "fig12_bandwidth_unit", "BFS", PimMode::GraphPim);
}
fn bench_fig13(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig13_linkbw_unit");
    g.sample_size(10);
    g.bench_function("run", |b| {
        b.iter_batched(
            ctx,
            |ctx| {
                let size = ctx.size();
                criterion::black_box(ctx.metrics_at("BFS", PimMode::GraphPim, size, 16, 5))
            },
            criterion::BatchSize::PerIteration,
        )
    });
    g.finish();
}
fn bench_fig14(c: &mut Criterion) {
    bench_unit(c, "fig14_size_unit", "CComp", PimMode::GraphPim);
}
fn bench_fig15(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig15_energy_unit");
    g.sample_size(10);
    g.bench_function("run", |b| {
        b.iter_batched(
            ctx,
            |ctx| {
                let m = ctx.metrics("DC", PimMode::GraphPim);
                criterion::black_box(graphpim::energy::uncore_energy(&m, 2.0, 32, 16))
            },
            criterion::BatchSize::PerIteration,
        )
    });
    g.finish();
}
fn bench_fig16(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig16_analytic_unit");
    g.sample_size(10);
    g.bench_function("run", |b| {
        b.iter_batched(
            ctx,
            |ctx| {
                let m = ctx.metrics("BFS", PimMode::Baseline);
                criterion::black_box(graphpim::analytic::AnalyticalModel::from_baseline(&m, 9.0))
            },
            criterion::BatchSize::PerIteration,
        )
    });
    g.finish();
}
fn bench_fig17(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig17_apps_unit");
    g.sample_size(10);
    std::env::set_var("GRAPHPIM_APP_SCALE", "9");
    g.bench_function("run", |b| {
        b.iter(|| criterion::black_box(graphpim::experiments::fig17::run()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tables,
    bench_fig01,
    bench_fig02,
    bench_fig04,
    bench_fig07,
    bench_fig09,
    bench_fig10,
    bench_fig11,
    bench_fig12,
    bench_fig13,
    bench_fig14,
    bench_fig15,
    bench_fig16,
    bench_fig17
);
criterion_main!(benches);
