//! The benchmark's metric definitions: names, units, direction and, for
//! end-to-end metrics, the bound by which a change may worsen them.
//! `BENCHMARK.json` at the repository root lists the same table, and
//! every measurement run first checks that it does (`check_definition`).

use graphpim::experiments::cache::json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and reported.
    pub name: &'static str,
    /// Unit as printed and reported.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured with tracing off. Each bound
/// is the intended one (10% for sweep time and throughput, 5% for RSS and
/// serve throughput, 10% for the served median, 15% for its tail),
/// widened only where the reference box's noise needs it: to the smallest
/// 5% step at least 1.5 x the widest ten-run quartile spread or set-to-set
/// drift measured on any workload (README, "Bounds"). `setup_s` keeps the
/// largest.
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sweep_s", "s", Lower, 0.25),
    e2e("sim_minstr_per_s", "Minstr/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
    e2e("serve_rps", "req/s", Higher, 0.20),
    e2e("serve_p50_ms", "ms", Lower, 0.10),
    e2e("serve_p99_ms", "ms", Lower, 0.20),
];

/// Per-layer metrics, reported by `--trace` runs. Times are self times
/// of the traced pass's spans unless the name says otherwise.
pub const PER_LAYER: [Metric; 24] = [
    layer("graph.build_s", "s", Lower),
    layer("capture.s", "s", Lower),
    layer("capture.ns_per_op", "ns", Lower),
    layer("capture.bytes_per_op", "B", Lower),
    layer("store.s", "s", Lower),
    layer("store.mb", "MiB", Lower),
    layer("decode.s", "s", Lower),
    layer("decode.ns_per_op", "ns", Lower),
    layer("decode.resident_mb", "MiB", Lower),
    layer("replay.s", "s", Lower),
    layer("replay.baseline.ns_per_op", "ns", Lower),
    layer("replay.upei.ns_per_op", "ns", Lower),
    layer("replay.graphpim.ns_per_op", "ns", Lower),
    layer("replay.ns_per_mem_req", "ns", Lower),
    layer("engine.busy_s", "s", Lower),
    layer("engine.pool_util", "ratio", Higher),
    layer("engine.critical_run_s", "s", Lower),
    layer("engine.wait_s", "s", Lower),
    layer("engine.captures", "count", Lower),
    layer("serve.handler_mean_us", "us", Lower),
    layer("serve.conn_overhead_ms", "ms", Lower),
    layer("serve.jobs_completed", "count", Higher),
    layer("trace.closure_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// How a host time scales to the reference host speed (see `host`).
#[derive(Debug, Clone, Copy)]
pub enum Scaling {
    /// Multiplied by reference speed / measured speed.
    Time,
    /// Divided by it.
    Rate,
}

/// The end-to-end metrics reported at the reference host speed. A child
/// measures each as `raw.<name>`; the parent scales it. `serve_p50_ms` is
/// not scaled: it sits on the service's 1 ms accept poll, a sleep that
/// host speed does not shorten. `peak_rss_mb` is not a time.
pub const SCALED: [(&str, Scaling); 5] = [
    ("setup_s", Scaling::Time),
    ("sweep_s", Scaling::Time),
    ("sim_minstr_per_s", Scaling::Rate),
    ("serve_rps", Scaling::Rate),
    ("serve_p99_ms", Scaling::Time),
];

/// The host-speed loop's time and the host times as measured, before they
/// are scaled to the reference host speed: printed and reported so the
/// scaling can be checked.
pub const HOST: [Metric; 6] = [
    layer("host.alu_s", "s", Lower),
    layer("raw.setup_s", "s", Lower),
    layer("raw.sweep_s", "s", Lower),
    layer("raw.sim_minstr_per_s", "Minstr/s", Higher),
    layer("raw.serve_rps", "req/s", Higher),
    layer("raw.serve_p99_ms", "ms", Lower),
];

/// Exact model counts and other constants of a workload: printed and
/// reported to normalise host time and witness bit-identity, never
/// expected to move.
pub const WITNESS: [&str; 10] = [
    "sim.ops",
    "sim.instructions",
    "sim.memory_ops",
    "sim.pim_atomics",
    "sim.cycles",
    "hmc.requests",
    "hmc.flits",
    "graph.edges",
    "engine.store_hits",
    "serve.shed",
];

/// The definition of metric `name`, if it is end-to-end, per-layer or a
/// host time.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .chain(HOST.iter())
        .find(|m| m.name == name)
}

/// The unit `name` is reported in.
pub fn unit(name: &str) -> &'static str {
    find(name).map_or("count", |m| m.unit)
}

/// `BENCHMARK.json` at the repository root, as compiled in.
const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

/// The root workspace's manifest and this package's. A package outside the
/// root workspace does not inherit its release profile, so this one
/// repeats it.
const ROOT_MANIFEST: &str = include_str!("../../../../Cargo.toml");
const OWN_MANIFEST: &str = include_str!("../Cargo.toml");

/// Checks that this benchmark is the one its definitions describe:
/// `BENCHMARK.json` lists exactly this module's metric tables, the
/// workloads and the default run length, and this package's release
/// profile is the root workspace's, so the benchmark measures the build
/// users run. Every measurement run checks this before it measures.
pub fn check_definition() -> Result<(), String> {
    let doc = json::parse(BENCHMARK_JSON).ok_or("BENCHMARK.json does not parse")?;
    let top = doc.as_object().ok_or("BENCHMARK.json is not an object")?;
    // Each listed entry as one line of its fields, e.g. "sweep_s s lower 0.25".
    let rows = |key: &str, fields: &[&str]| -> Option<Vec<String>> {
        let row = |entry: &json::Value| -> Option<String> {
            let entry = entry.as_object()?;
            let cells = fields.iter().map(|f| {
                let v = entry.get(f)?;
                v.as_str()
                    .map(str::to_string)
                    .or_else(|| v.as_f64().map(|x| format!("{x:?}")))
            });
            Some(cells.collect::<Option<Vec<_>>>()?.join(" "))
        };
        top.get(key)?.as_array()?.iter().map(row).collect()
    };
    let ours = |metrics: &[Metric]| -> Vec<String> {
        metrics
            .iter()
            .map(|m| {
                let better = match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                let bound = m.bound.map_or(String::new(), |b| format!(" {b:?}"));
                format!("{} {} {better}{bound}", m.name, m.unit)
            })
            .collect()
    };
    let workloads = crate::workloads::WORKLOADS
        .iter()
        .map(|w| format!("{} {}", w.name, w.why))
        .collect();
    let run_seconds = top.get("run_seconds").and_then(json::Value::as_f64);
    for (key, listed, expected) in [
        ("workloads", rows("workloads", &["name", "why"]), workloads),
        (
            "end_to_end",
            rows("end_to_end", &["name", "unit", "better", "bound"]),
            ours(&END_TO_END),
        ),
        (
            "per_layer",
            rows("per_layer", &["name", "unit", "better"]),
            ours(&PER_LAYER),
        ),
        (
            "run_seconds",
            run_seconds.map(|s| vec![format!("{s:?}")]),
            vec![format!("{:?}", crate::DEFAULT_SECONDS)],
        ),
    ] {
        if listed.as_ref() != Some(&expected) {
            return Err(format!(
                "BENCHMARK.json `{key}` lists {listed:?}, but this benchmark has {expected:?}"
            ));
        }
    }
    let (root, own) = (
        release_profile(ROOT_MANIFEST),
        release_profile(OWN_MANIFEST),
    );
    if root != own {
        return Err(format!(
            "the benchmark's [profile.release] {own:?} differs from the root workspace's \
             {root:?}; copy the root's into crates/bench/benchmark/Cargo.toml"
        ));
    }
    Ok(())
}

/// The settings of a manifest's `[profile.release]` table, one per line.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_and_the_root_profile_match_this_benchmark() {
        assert_eq!(check_definition(), Ok(()));
        assert_eq!(
            release_profile(OWN_MANIFEST),
            ["lto = \"fat\"", "codegen-units = 1"]
        );
        assert!(release_profile("[profile.bench]\nlto = true\n").is_empty());
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = find("setup_s").unwrap().bound.unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.unwrap() <= setup && setup <= 0.25));
    }
}
