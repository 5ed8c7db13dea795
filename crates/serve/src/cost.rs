//! Cost model for uncached runs: what the scheduler sorts by and what
//! admission control budgets against.
//!
//! A run's wall time is dominated by how many trace operations flow
//! through the timing model, and that is proportional to the input's
//! edge count (every kernel is edge-centric) with a correction for how
//! unevenly those edges land on the simulated threads: the simulation
//! advances at the pace of the busiest thread, and the LDBC-like inputs
//! are heavy-tailed, so a hub-rich block partition stretches wall time
//! beyond `edges / threads`. The estimate is therefore
//!
//! ```text
//! seconds ≈ seconds_per_edge(kernel) × edges(size) × skew(size)
//! ```
//!
//! with `seconds_per_edge` calibrated online — an exponential moving
//! average over observed wall times of simulated and replayed runs
//! (recorded in [`EngineProfile`]) — and `skew` seeded from the actual
//! generated graph's degree distribution once that graph is resident.
//! The model starts from a deliberately rough constant and converges
//! after the first few runs per kernel; shortest-job-first only needs
//! the *ranking* to be right, and admission control only the order of
//! magnitude.

use graphpim::experiments::profile::{EngineProfile, RunSource};
use graphpim::experiments::RunKey;
use graphpim_graph::generate::LdbcSize;
use graphpim_graph::partition::split_range;
use graphpim_graph::CsrGraph;
use std::collections::HashMap;
use std::sync::Mutex;

/// Starting `seconds_per_edge` before any calibration, from the scale
/// benchmarks in `BENCH_SCALE` territory (release build, one core).
/// Only the order of magnitude matters; observation replaces it fast.
pub const DEFAULT_SECONDS_PER_EDGE: f64 = 2.5e-6;

/// Thread count the skew statistic is computed against. The served
/// configurations all simulate the paper's 16-core system, and skew
/// varies slowly with the divisor, so one constant serves every key.
const SKEW_THREADS: usize = 16;

/// Per-kernel EMA weight: a kernel's cost profile is stable, so weigh
/// new observations heavily and converge in a handful of runs.
const KERNEL_ALPHA: f64 = 0.3;
/// Fleet-default EMA weight: the fallback for never-seen kernels moves
/// slowly so one pathological run cannot poison every estimate.
const DEFAULT_ALPHA: f64 = 0.1;

#[derive(Debug)]
struct Inner {
    /// kernel → calibrated seconds-per-edge.
    per_edge: HashMap<String, f64>,
    /// Fallback for kernels with no observations yet.
    default_per_edge: f64,
    /// size → degree-skew factor (`>= 1`), measured or defaulted.
    skew: HashMap<LdbcSize, f64>,
    /// Observations folded in so far (for `/stats`).
    observations: u64,
}

/// Thread-safe run-cost estimator. See the module docs for the model.
#[derive(Debug)]
pub struct CostModel {
    inner: Mutex<Inner>,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::new()
    }
}

impl CostModel {
    /// A model with seed constants and no observations.
    pub fn new() -> CostModel {
        CostModel {
            inner: Mutex::new(Inner {
                per_edge: HashMap::new(),
                default_per_edge: DEFAULT_SECONDS_PER_EDGE,
                skew: HashMap::new(),
                observations: 0,
            }),
        }
    }

    /// Estimated wall seconds to simulate `key` from scratch, floored at
    /// one millisecond so a zero estimate can never starve admission
    /// accounting.
    pub fn estimate(&self, key: &RunKey) -> f64 {
        let inner = crate::sync::lock(&self.inner);
        let per_edge = inner
            .per_edge
            .get(&key.kernel)
            .copied()
            .unwrap_or(inner.default_per_edge);
        let skew = inner.skew.get(&key.size).copied().unwrap_or(1.0);
        (per_edge * key.size.target_edges() as f64 * skew).max(1e-3)
    }

    /// Folds one observed wall time for `key` into the model.
    pub fn observe(&self, key: &RunKey, seconds: f64) {
        if !seconds.is_finite() || seconds <= 0.0 {
            return;
        }
        let mut inner = crate::sync::lock(&self.inner);
        let skew = inner.skew.get(&key.size).copied().unwrap_or(1.0);
        let rate = seconds / (key.size.target_edges() as f64 * skew).max(1.0);
        let seed = inner.default_per_edge;
        let entry = inner.per_edge.entry(key.kernel.clone()).or_insert(seed);
        *entry += KERNEL_ALPHA * (rate - *entry);
        inner.default_per_edge += DEFAULT_ALPHA * (rate - inner.default_per_edge);
        inner.observations += 1;
    }

    /// Seeds the skew factor for `size` from the generated graph's
    /// degree distribution: the heaviest contiguous thread block's
    /// degree sum over the mean block's, under the engine's block
    /// partition. Idempotent per size; call once the graph is resident
    /// (after the first simulated run) so the service never generates a
    /// graph just to estimate it.
    pub fn seed_skew(&self, size: LdbcSize, graph: &CsrGraph) {
        {
            let inner = crate::sync::lock(&self.inner);
            if inner.skew.contains_key(&size) {
                return;
            }
        }
        let skew = degree_skew(graph, SKEW_THREADS);
        crate::sync::lock(&self.inner)
            .skew
            .entry(size)
            .or_insert(skew);
    }

    /// Whether `size`'s skew factor has been measured yet.
    pub fn skew_seeded(&self, size: LdbcSize) -> bool {
        crate::sync::lock(&self.inner).skew.contains_key(&size)
    }

    /// Calibrates from an engine profile: every simulated or replayed
    /// run record whose stem parses back into a key becomes one
    /// observation (disk hits say nothing about simulation cost).
    pub fn calibrate_from_profile(&self, profile: &EngineProfile) {
        for record in profile.runs() {
            if record.source == RunSource::DiskHit {
                continue;
            }
            if let Some(key) = RunKey::parse_stem(&record.key) {
                self.observe(&key, record.seconds);
            }
        }
    }

    /// Model state as a JSON object (for `/stats`).
    pub fn snapshot_json(&self) -> String {
        let inner = crate::sync::lock(&self.inner);
        let mut kernels: Vec<_> = inner.per_edge.iter().collect();
        kernels.sort_by(|a, b| a.0.cmp(b.0));
        let per_kernel = kernels
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v:?}"))
            .collect::<Vec<_>>()
            .join(", ");
        let mut skews: Vec<_> = inner.skew.iter().collect();
        skews.sort_by_key(|(size, _)| **size);
        let skew = skews
            .iter()
            .map(|(s, v)| format!("\"{}\": {v:?}", s.name()))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"observations\": {}, \"default_seconds_per_edge\": {:?}, \
             \"seconds_per_edge\": {{{per_kernel}}}, \"skew\": {{{skew}}}}}",
            inner.observations, inner.default_per_edge
        )
    }
}

/// Max contiguous-block degree sum over the mean, for a `threads`-way
/// block partition — how much longer the busiest simulated thread works
/// than the average one. At least 1.
fn degree_skew(graph: &CsrGraph, threads: usize) -> f64 {
    let n = graph.vertex_count();
    if n == 0 || graph.edge_count() == 0 {
        return 1.0;
    }
    let ranges = split_range(n, threads.min(n).max(1));
    let sums: Vec<f64> = ranges
        .iter()
        .map(|r| r.clone().map(|v| graph.out_degree(v as u32) as f64).sum())
        .collect();
    let mean = sums.iter().sum::<f64>() / sums.len() as f64;
    let max = sums.iter().cloned().fold(0.0f64, f64::max);
    if mean <= 0.0 {
        1.0
    } else {
        (max / mean).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphpim::config::PimMode;
    use graphpim_graph::generate::GraphSpec;

    fn key(kernel: &str) -> RunKey {
        RunKey::new(kernel, PimMode::Baseline, LdbcSize::K1)
    }

    #[test]
    fn estimates_scale_with_edges_and_respect_the_floor() {
        let model = CostModel::new();
        let small = model.estimate(&key("BFS"));
        let large = model.estimate(&RunKey::new("BFS", PimMode::Baseline, LdbcSize::M1));
        assert!(large > small * 100.0, "28.8M edges vs 29k must dominate");
        assert!(small >= 1e-3, "estimate floor");
    }

    #[test]
    fn observation_converges_the_per_kernel_rate() {
        let model = CostModel::new();
        let k = key("DC");
        let before = model.estimate(&k);
        // The DC kernel is consistently 10x slower than the seed says.
        for _ in 0..20 {
            model.observe(&k, before * 10.0);
        }
        let after = model.estimate(&k);
        assert!(
            after > before * 5.0,
            "EMA must track the observed rate (before {before}, after {after})"
        );
        // Other kernels drift only via the slow default.
        let other = model.estimate(&key("BFS"));
        assert!(other < after, "unobserved kernel must not jump to 10x");
    }

    #[test]
    fn skew_is_at_least_one_and_seeds_once() {
        let model = CostModel::new();
        // Heavy-tailed LDBC-like input: hubs concentrate in few blocks.
        let graph = GraphSpec::ldbc(LdbcSize::K1).seed(42).build();
        assert!(!model.skew_seeded(LdbcSize::K1));
        model.seed_skew(LdbcSize::K1, &graph);
        assert!(model.skew_seeded(LdbcSize::K1));
        let skewed = model.estimate(&key("BFS"));
        let flat = {
            let m = CostModel::new();
            m.estimate(&key("BFS"))
        };
        assert!(skewed >= flat, "skew can only stretch the estimate");
    }

    #[test]
    fn profile_calibration_skips_disk_hits() {
        let model = CostModel::new();
        let mut profile = EngineProfile::default();
        let stem = key("BFS").file_stem();
        profile.record_run(stem.clone(), 100.0, RunSource::DiskHit);
        model.calibrate_from_profile(&profile);
        let untouched = model.estimate(&key("BFS"));
        profile.record_run(stem, 100.0, RunSource::Simulated);
        model.calibrate_from_profile(&profile);
        assert!(
            model.estimate(&key("BFS")) > untouched,
            "simulated records must move the estimate; disk hits must not"
        );
    }

    #[test]
    fn snapshot_is_valid_json() {
        let model = CostModel::new();
        model.observe(&key("BFS"), 0.5);
        let graph = GraphSpec::uniform(100, 400).seed(1).build();
        model.seed_skew(LdbcSize::K1, &graph);
        let doc = model.snapshot_json();
        let parsed =
            graphpim::json::parse(&doc).unwrap_or_else(|| panic!("snapshot must parse: {doc}"));
        let obj = parsed.as_object().unwrap();
        assert_eq!(obj.get("observations").unwrap().as_u64(), Some(1));
    }
}
