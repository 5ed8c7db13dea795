//! The simulation validation layer: conservation invariants over finished
//! runs, config/metrics consistency checks, and the sim-vs-analytic
//! [differential harness](differential).
//!
//! Three kinds of checks live here:
//!
//! * **Config validation** — typed, unconditional; implemented in
//!   [`graphpim_sim::validate`] (re-exported as [`ConfigError`]) plus
//!   [`crate::config::SystemConfig::validate`] for the system-level
//!   fields, and invoked by every constructor and figure driver.
//! * **Run invariants** — [`check_run`] and [`check_run_config`] enforce
//!   the conservation laws every finished [`RunMetrics`] must satisfy
//!   (offload accounting, memory-request conservation, backend-internal
//!   totals, cycle-breakdown conservation, live-counter coherence).
//!   The memory-side laws are stated over the backend's *aggregated*
//!   [`graphpim_sim::hmc::HmcStats`], so they hold unchanged for every
//!   [`graphpim_sim::backend::MemoryBackend`] — "vault" means global
//!   vault index for a multi-cube chain and rank for the DPU backend.
//!   [`crate::system::SystemSim`] runs them on every `into_metrics` when
//!   [`validation_enabled`] — on by default under `cargo test` (debug
//!   builds) and in CI (`GRAPHPIM_VALIDATE=1`), opt-in for release
//!   benches.
//! * **Differential validation** — [`differential`] runs every kernel
//!   through both the interval simulator and the Equation 1–2 analytic
//!   model and fails when they diverge beyond documented tolerances.
//!
//! See `VALIDATION.md` at the repository root for the full invariant
//! catalog and the reasoning behind each law.

pub mod differential;

use crate::config::{PimMode, SystemConfig};
use crate::metrics::RunMetrics;
use graphpim_sim::stats::CycleBreakdown;
use graphpim_sim::telemetry::CounterRegistry;

pub use graphpim_sim::validate::{validation_enabled, ConfigError};

/// One violated invariant, with the numbers that broke it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Stable invariant identifier (e.g. `"offload-accounting"`).
    pub invariant: &'static str,
    /// Human-readable description with the offending values.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Breakdown fraction sums within this of 1.0 count as conserved.
const BREAKDOWN_SUM_TOLERANCE: f64 = 1e-6;

/// Relative tolerance for attribution closure (sums of exact per-event
/// floats; only association-order rounding separates the two sides).
const ATTRIB_CLOSE_TOLERANCE: f64 = 1e-6;

/// Whether `a` and `b` agree within [`ATTRIB_CLOSE_TOLERANCE`]
/// relative to their magnitude (absolute near zero).
fn attrib_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= ATTRIB_CLOSE_TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

fn check(violations: &mut Vec<Violation>, invariant: &'static str, ok: bool, detail: String) {
    if !ok {
        violations.push(Violation { invariant, detail });
    }
}

/// Checks every conservation law a finished run must satisfy.
///
/// `counters` is the registry pulled from the *live* components (the same
/// pull path the trace exporter snapshots); the metrics' own
/// [`RunMetrics::counter_registry`] must agree with it key for key.
/// Returns every violated invariant — empty means the run conserves.
pub fn check_run(m: &RunMetrics, counters: &CounterRegistry) -> Vec<Violation> {
    let mut v = Vec::new();

    // Offload accounting: the cube sees exactly the atomics the system
    // offloaded, and every core-retired PIM atomic is either an offload or
    // a U-PEI host-side execution.
    check(
        &mut v,
        "offload-accounting",
        m.hmc.atomics == m.offloaded_atomics,
        format!(
            "hmc.atomics ({}) != offloaded_atomics ({})",
            m.hmc.atomics, m.offloaded_atomics
        ),
    );
    check(
        &mut v,
        "offload-accounting",
        m.core.pim_atomics == m.offloaded_atomics + m.host_pei_atomics,
        format!(
            "core.pim_atomics ({}) != offloaded ({}) + host_pei ({})",
            m.core.pim_atomics, m.offloaded_atomics, m.host_pei_atomics
        ),
    );

    // Candidate accounting: resolved candidates (offloaded, executed
    // host-side by U-PEI, or degraded to a bus-locked uncached RMW) never
    // exceed the candidates seen; under GraphPIM every candidate resolves
    // one of those three ways, so the ledger balances exactly.
    let resolved = m.offloaded_atomics + m.host_pei_atomics + m.uncached_atomics;
    check(
        &mut v,
        "candidate-accounting",
        resolved <= m.offload_candidates,
        format!(
            "resolved candidates ({resolved}) exceed offload_candidates ({})",
            m.offload_candidates
        ),
    );
    if m.mode == PimMode::GraphPim {
        check(
            &mut v,
            "candidate-accounting",
            resolved == m.offload_candidates,
            format!(
                "GraphPIM must resolve every candidate: offloaded ({}) + uncached ({}) \
                 != candidates ({})",
                m.offloaded_atomics, m.uncached_atomics, m.offload_candidates
            ),
        );
    }
    check(
        &mut v,
        "candidate-accounting",
        m.candidate_cache_hits <= m.offload_candidates,
        format!(
            "candidate_cache_hits ({}) exceed offload_candidates ({})",
            m.candidate_cache_hits, m.offload_candidates
        ),
    );

    // Mode sanity: counters that can only move under specific policies.
    match m.mode {
        PimMode::Baseline => check(
            &mut v,
            "mode-sanity",
            m.offloaded_atomics == 0
                && m.host_pei_atomics == 0
                && m.uncached_reads == 0
                && m.uncached_writes == 0
                && m.uncached_atomics == 0,
            format!(
                "Baseline run took PIM paths: offloaded {}, host_pei {}, uncached r/w/a {}/{}/{}",
                m.offloaded_atomics,
                m.host_pei_atomics,
                m.uncached_reads,
                m.uncached_writes,
                m.uncached_atomics
            ),
        ),
        PimMode::UPei => check(
            &mut v,
            "mode-sanity",
            m.uncached_reads == 0 && m.uncached_writes == 0 && m.uncached_atomics == 0,
            format!(
                "U-PEI keeps data cacheable but saw uncached r/w/a {}/{}/{}",
                m.uncached_reads, m.uncached_writes, m.uncached_atomics
            ),
        ),
        PimMode::GraphPim => check(
            &mut v,
            "mode-sanity",
            m.host_pei_atomics == 0,
            format!(
                "GraphPIM has no locality-dependent path but host_pei_atomics = {}",
                m.host_pei_atomics
            ),
        ),
    }

    // Memory-request conservation: every core memory op either probed the
    // cache hierarchy (exactly one L1 hit or miss) or bypassed it (uncached
    // PMR reads/writes, bus-locked atomics, and — under GraphPIM only —
    // direct offloads; U-PEI offloads probe the caches first).
    let hierarchy_accesses = m.l1.hits + m.l1.misses;
    let bypasses = m.uncached_reads
        + m.uncached_writes
        + m.uncached_atomics
        + if m.mode == PimMode::GraphPim {
            m.offloaded_atomics
        } else {
            0
        };
    check(
        &mut v,
        "memory-conservation",
        hierarchy_accesses + bypasses == m.core.memory_ops,
        format!(
            "L1 hits+misses ({hierarchy_accesses}) + bypasses ({bypasses}) \
             != core.memory_ops ({})",
            m.core.memory_ops
        ),
    );

    // Backend-internal totals: per-vault and per-category histograms are
    // decompositions of the same scalar counters. These hold for any
    // memory backend because the trait contract requires aggregated
    // stats (vault buckets are ranks on the DPU backend, global vault
    // indices on a chain); the invariant ids keep the historical
    // "hmc-totals" name.
    let vault_atomics: u64 = m.hmc.atomics_per_vault.iter().sum();
    check(
        &mut v,
        "hmc-totals",
        vault_atomics == m.hmc.atomics,
        format!(
            "sum(atomics_per_vault) ({vault_atomics}) != hmc.atomics ({})",
            m.hmc.atomics
        ),
    );
    let category_atomics: u64 = m.hmc.atomics_by_category.iter().sum();
    check(
        &mut v,
        "hmc-totals",
        category_atomics == m.hmc.atomics,
        format!(
            "sum(atomics_by_category) ({category_atomics}) != hmc.atomics ({})",
            m.hmc.atomics
        ),
    );
    check(
        &mut v,
        "hmc-totals",
        m.hmc.fp_atomics <= m.hmc.atomics,
        format!(
            "fp_atomics ({}) exceed atomics ({})",
            m.hmc.fp_atomics, m.hmc.atomics
        ),
    );
    check(
        &mut v,
        "hmc-totals",
        m.hmc.reads + m.hmc.writes + m.hmc.atomics == m.hmc.dram_accesses,
        format!(
            "reads ({}) + writes ({}) + atomics ({}) != dram_accesses ({})",
            m.hmc.reads, m.hmc.writes, m.hmc.atomics, m.hmc.dram_accesses
        ),
    );
    let vault_requests: u64 = m.hmc.requests_per_vault.iter().sum();
    check(
        &mut v,
        "hmc-totals",
        vault_requests == m.hmc.dram_accesses,
        format!(
            "sum(requests_per_vault) ({vault_requests}) != dram_accesses ({})",
            m.hmc.dram_accesses
        ),
    );
    for (vault, (&requests, &atomics)) in m
        .hmc
        .requests_per_vault
        .iter()
        .zip(&m.hmc.atomics_per_vault)
        .enumerate()
    {
        check(
            &mut v,
            "hmc-totals",
            atomics <= requests,
            format!("vault {vault}: atomics ({atomics}) exceed requests ({requests})"),
        );
    }
    check(
        &mut v,
        "hmc-totals",
        m.hmc.dram_activations <= m.hmc.dram_accesses,
        format!(
            "dram_activations ({}) exceed dram_accesses ({})",
            m.hmc.dram_activations, m.hmc.dram_accesses
        ),
    );

    // Cycle-breakdown conservation: the attributed fractions must fit in
    // the elapsed cycles, each lie in [0, 1], and the four sum to ~1.
    if m.total_cycles > 0.0 {
        match CycleBreakdown::try_from_stats(&m.core, m.issue_width, m.machine_cycles()) {
            Err(e) => check(&mut v, "cycle-breakdown", false, e.to_string()),
            Ok(b) => {
                let fractions = [
                    ("retiring", b.retiring),
                    ("frontend", b.frontend),
                    ("bad_speculation", b.bad_speculation),
                    ("backend", b.backend),
                ];
                for (name, f) in fractions {
                    check(
                        &mut v,
                        "cycle-breakdown",
                        (0.0..=1.0 + BREAKDOWN_SUM_TOLERANCE).contains(&f),
                        format!("{name} fraction {f} outside [0, 1]"),
                    );
                }
                check(
                    &mut v,
                    "cycle-breakdown",
                    (b.sum() - 1.0).abs() <= BREAKDOWN_SUM_TOLERANCE,
                    format!("breakdown fractions sum to {} != 1", b.sum()),
                );
            }
        }
    }

    // Counter coherence: the registry pulled from the live components must
    // agree, key for key, with the finalized metrics' own registry (this is
    // what guarantees the trace's counter events match the figures). All
    // counters are u64s far below 2^53 or exact cycle floats, so equality
    // is exact.
    let finalized = m.counter_registry();
    for (key, value) in finalized.iter() {
        match counters.get(key) {
            Some(live) if live.to_bits() == value.to_bits() => {}
            Some(live) => check(
                &mut v,
                "counter-coherence",
                false,
                format!("{key}: live registry has {live}, finalized metrics have {value}"),
            ),
            None => check(
                &mut v,
                "counter-coherence",
                false,
                format!("{key}: present in finalized metrics, missing from live registry"),
            ),
        }
    }

    // Vault-histogram coherence (only when per-vault telemetry was on):
    // each vault's queue-wait histogram samples every serviced request and
    // the FU-busy histogram samples every atomic, so the sample counts must
    // equal the per-vault request/atomic counters.
    for (vault, (&requests, &atomics)) in m
        .hmc
        .requests_per_vault
        .iter()
        .zip(&m.hmc.atomics_per_vault)
        .enumerate()
    {
        if let Some(sampled) = counters.get(&format!("hmc.vault{vault:02}.queue_wait.count")) {
            check(
                &mut v,
                "vault-histograms",
                sampled == requests as f64,
                format!(
                    "vault {vault}: queue_wait sampled {sampled} transactions, \
                     counters saw {requests}"
                ),
            );
        }
        if let Some(sampled) = counters.get(&format!("hmc.vault{vault:02}.fu_busy.count")) {
            check(
                &mut v,
                "vault-histograms",
                sampled == atomics as f64,
                format!("vault {vault}: fu_busy sampled {sampled} atomics, counters saw {atomics}"),
            );
        }
    }

    // Attribution closure (only when cycle attribution was on): the
    // `attrib.*` ledgers must telescope to the quantities the metrics
    // already account — every bucket named by CycleBreakdown agrees with
    // its CoreStats source, the buckets sum to the total busy time, and
    // busy + idle covers the whole machine. The cache and HMC ledgers
    // must each equal the sum of their own components.
    if let Some(busy) = counters.get("attrib.core.busy") {
        let get = |key: &str| counters.get(key).unwrap_or(0.0);
        let idle = get("attrib.core.idle");
        let machine = get("attrib.core.machine_cycles");
        check(
            &mut v,
            "attrib-closure",
            attrib_close(machine, m.machine_cycles()),
            format!(
                "attrib.core.machine_cycles ({machine}) != metrics machine_cycles ({})",
                m.machine_cycles()
            ),
        );
        check(
            &mut v,
            "attrib-closure",
            attrib_close(busy + idle, machine),
            format!("busy ({busy}) + idle ({idle}) != machine cycles ({machine})"),
        );
        let bucket_sum = get("attrib.core.issue")
            + get("attrib.core.frontend")
            + get("attrib.core.bad_speculation")
            + get("attrib.core.dep_wait")
            + get("attrib.core.rob_stall")
            + get("attrib.core.mshr_wait")
            + get("attrib.core.atomic_serialize")
            + get("attrib.core.barrier_wait")
            + get("attrib.core.drain_wait");
        check(
            &mut v,
            "attrib-closure",
            attrib_close(bucket_sum, busy),
            format!("core buckets sum to {bucket_sum} != busy ({busy})"),
        );
        // The buckets CycleBreakdown also derives must agree with it.
        for (key, expected) in [
            ("attrib.core.issue", m.core.retiring_cycles(m.issue_width)),
            ("attrib.core.frontend", m.core.frontend_cycles),
            ("attrib.core.bad_speculation", m.core.badspec_cycles),
            ("attrib.core.atomic_serialize", m.core.atomic_incore_cycles),
        ] {
            let got = get(key);
            check(
                &mut v,
                "attrib-closure",
                attrib_close(got, expected),
                format!("{key} ({got}) != CycleBreakdown source ({expected})"),
            );
        }
        for prefix in ["attrib.cache", "attrib.hmc"] {
            let total = get(&format!("{prefix}.total"));
            let components: f64 = counters
                .with_prefix(&format!("{prefix}."))
                .filter(|(key, _)| !key.ends_with(".total"))
                .map(|(_, value)| value)
                .sum();
            check(
                &mut v,
                "attrib-closure",
                attrib_close(components, total),
                format!("{prefix} components sum to {components} != total ({total})"),
            );
        }
    }

    v
}

/// Checks the laws that need the run's configuration: the FP-extension
/// gate and config/metrics field consistency.
pub fn check_run_config(m: &RunMetrics, config: &SystemConfig) -> Vec<Violation> {
    let mut v = Vec::new();
    if let Err(e) = config.validate() {
        check(&mut v, "config", false, e.to_string());
    }
    check(
        &mut v,
        "fp-extension",
        m.hmc.fp_atomics == 0 || config.fp_extension,
        format!(
            "{} FP atomics executed in the cube without the HMC FP extension",
            m.hmc.fp_atomics
        ),
    );
    check(
        &mut v,
        "config-consistency",
        m.mode == config.mode,
        format!("metrics mode {:?} != config mode {:?}", m.mode, config.mode),
    );
    check(
        &mut v,
        "config-consistency",
        m.cores == config.sim.core.cores,
        format!(
            "metrics cores ({}) != config cores ({})",
            m.cores, config.sim.core.cores
        ),
    );
    check(
        &mut v,
        "config-consistency",
        m.issue_width == config.sim.core.issue_width,
        format!(
            "metrics issue_width ({}) != config issue_width ({})",
            m.issue_width, config.sim.core.issue_width
        ),
    );
    // Backend topology: the aggregated per-vault vectors must cover
    // exactly the configured backend's bucket count (vaults, cubes ×
    // vaults, or ranks — see `BackendConfig::vault_buckets`).
    let buckets = config.sim.backend.vault_buckets(&config.sim);
    check(
        &mut v,
        "backend-topology",
        m.hmc.requests_per_vault.len() == buckets && m.hmc.atomics_per_vault.len() == buckets,
        format!(
            "per-vault vectors have {} / {} buckets; {} backend expects {buckets}",
            m.hmc.requests_per_vault.len(),
            m.hmc.atomics_per_vault.len(),
            config.sim.backend.label()
        ),
    );
    v
}

/// Panics with every violation listed if `violations` is non-empty.
/// `what` names the run for the panic message.
pub fn enforce(what: &str, violations: &[Violation]) {
    if violations.is_empty() {
        return;
    }
    let list: Vec<String> = violations.iter().map(Violation::to_string).collect();
    panic!(
        "run invariants violated for {what} ({} violation{}):\n  {}",
        violations.len(),
        if violations.len() == 1 { "" } else { "s" },
        list.join("\n  ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphpim_sim::cpu::CoreStats;
    use graphpim_sim::hmc::HmcStats;
    use graphpim_sim::mem::hierarchy::LevelCounts;

    /// A self-consistent Baseline run: 100 memory ops all through the
    /// hierarchy, no PIM activity, balanced HMC totals.
    fn consistent() -> RunMetrics {
        RunMetrics {
            mode: PimMode::Baseline,
            cores: 2,
            issue_width: 4,
            total_cycles: 1000.0,
            core: CoreStats {
                instructions: 400,
                memory_ops: 100,
                host_atomics: 10,
                frontend_cycles: 20.0,
                badspec_cycles: 30.0,
                ..CoreStats::default()
            },
            l1: LevelCounts {
                hits: 90,
                misses: 10,
            },
            l2: LevelCounts { hits: 6, misses: 4 },
            l3: LevelCounts { hits: 1, misses: 3 },
            hmc: HmcStats {
                reads: 3,
                writes: 1,
                atomics: 0,
                dram_accesses: 4,
                dram_activations: 2,
                requests_per_vault: vec![3, 1],
                atomics_per_vault: vec![0, 0],
                ..HmcStats::default()
            },
            offload_candidates: 8,
            candidate_cache_hits: 5,
            offloaded_atomics: 0,
            host_pei_atomics: 0,
            uncached_reads: 0,
            uncached_writes: 0,
            uncached_atomics: 0,
            memory_service_cycles: 100.0,
            trace_export_failed: false,
        }
    }

    fn violations_of(m: &RunMetrics) -> Vec<Violation> {
        check_run(m, &m.counter_registry())
    }

    #[test]
    fn consistent_run_passes() {
        assert_eq!(violations_of(&consistent()), vec![]);
    }

    #[test]
    fn offload_imbalance_detected() {
        let mut m = consistent();
        m.hmc.atomics = 3; // cube saw atomics nobody offloaded
        let v = violations_of(&m);
        assert!(
            v.iter().any(|x| x.invariant == "offload-accounting"),
            "{v:?}"
        );
    }

    #[test]
    fn graphpim_must_resolve_every_candidate() {
        let mut m = consistent();
        m.mode = PimMode::GraphPim;
        // 8 candidates, only 5 offloaded, none uncached: 3 vanished.
        m.offloaded_atomics = 5;
        m.core.pim_atomics = 5;
        m.hmc.atomics = 5;
        m.hmc.atomics_per_vault = vec![5, 0];
        m.hmc.atomics_by_category = [5, 0, 0, 0, 0];
        m.hmc.dram_accesses += 5;
        m.hmc.requests_per_vault = vec![8, 1];
        // Keep memory conservation balanced for the offload bypass.
        m.core.memory_ops += 5;
        let v = violations_of(&m);
        assert!(
            v.iter()
                .any(|x| x.invariant == "candidate-accounting" && x.detail.contains("GraphPIM")),
            "{v:?}"
        );
    }

    #[test]
    fn baseline_with_pim_counters_is_insane() {
        let mut m = consistent();
        m.uncached_reads = 1;
        m.core.memory_ops += 1; // keep conservation green; isolate the mode check
        let v = violations_of(&m);
        assert!(v.iter().any(|x| x.invariant == "mode-sanity"), "{v:?}");
    }

    #[test]
    fn lost_memory_request_detected() {
        let mut m = consistent();
        m.core.memory_ops += 1; // one op never reached cache or cube
        let v = violations_of(&m);
        assert!(
            v.iter().any(|x| x.invariant == "memory-conservation"),
            "{v:?}"
        );
    }

    #[test]
    fn vault_request_split_must_sum() {
        let mut m = consistent();
        m.hmc.requests_per_vault = vec![3, 0]; // lost one request
        let v = violations_of(&m);
        assert!(
            v.iter()
                .any(|x| x.invariant == "hmc-totals" && x.detail.contains("requests_per_vault")),
            "{v:?}"
        );
    }

    #[test]
    fn vault_atomics_bounded_by_requests() {
        let mut m = consistent();
        m.hmc.atomics = 2;
        m.hmc.atomics_per_vault = vec![0, 2]; // vault 1 has 1 request but 2 atomics
        m.hmc.atomics_by_category = [2, 0, 0, 0, 0];
        m.hmc.reads = 1;
        m.offloaded_atomics = 2;
        m.core.pim_atomics = 2;
        m.mode = PimMode::UPei;
        let v = violations_of(&m);
        assert!(
            v.iter()
                .any(|x| x.invariant == "hmc-totals" && x.detail.contains("vault 1")),
            "{v:?}"
        );
    }

    #[test]
    fn breakdown_overshoot_is_reported_not_panicked() {
        let mut m = consistent();
        // Retiring alone would be 4000/4 = 1000 cycles/core over 2000
        // machine cycles... make it overshoot: 16000 instructions.
        m.core.instructions = 16000;
        let v = violations_of(&m);
        assert!(v.iter().any(|x| x.invariant == "cycle-breakdown"), "{v:?}");
    }

    #[test]
    fn counter_mismatch_detected() {
        let m = consistent();
        let mut live = m.counter_registry();
        live.record("core.instructions", 1.0); // live disagrees
        let v = check_run(&m, &live);
        assert!(
            v.iter()
                .any(|x| x.invariant == "counter-coherence"
                    && x.detail.contains("core.instructions")),
            "{v:?}"
        );
    }

    #[test]
    fn vault_histogram_count_mismatch_detected() {
        let m = consistent();
        let mut live = m.counter_registry();
        // Vault 0 serviced 3 requests but its histogram sampled 2.
        live.record("hmc.vault00.queue_wait.count", 2.0);
        let v = check_run(&m, &live);
        assert!(v.iter().any(|x| x.invariant == "vault-histograms"), "{v:?}");
    }

    #[test]
    fn coherent_attribution_passes() {
        let m = consistent();
        let mut live = m.counter_registry();
        // A ledger that telescopes: buckets sum to busy, busy + idle spans
        // the machine, and the CycleBreakdown-source buckets agree with
        // CoreStats (retiring = 400 instr / 4-wide = 100 cycles).
        live.record("attrib.core.issue", 100.0);
        live.record("attrib.core.frontend", 20.0);
        live.record("attrib.core.bad_speculation", 30.0);
        live.record("attrib.core.busy", 150.0);
        live.record("attrib.core.idle", 1850.0);
        live.record("attrib.core.machine_cycles", 2000.0);
        let v = check_run(&m, &live);
        assert!(!v.iter().any(|x| x.invariant == "attrib-closure"), "{v:?}");
    }

    #[test]
    fn attribution_that_does_not_close_is_detected() {
        let m = consistent();
        let mut live = m.counter_registry();
        live.record("attrib.core.busy", 900.0);
        live.record("attrib.core.idle", 50.0);
        live.record("attrib.core.machine_cycles", 2000.0);
        let v = check_run(&m, &live);
        assert!(v.iter().any(|x| x.invariant == "attrib-closure"), "{v:?}");
    }

    #[test]
    fn attrib_component_sum_mismatch_detected() {
        let m = consistent();
        let mut live = m.counter_registry();
        live.record("attrib.core.issue", 100.0);
        live.record("attrib.core.frontend", 20.0);
        live.record("attrib.core.bad_speculation", 30.0);
        live.record("attrib.core.busy", 150.0);
        live.record("attrib.core.idle", 1850.0);
        live.record("attrib.core.machine_cycles", 2000.0);
        // An HMC ledger whose parts do not sum to its total.
        live.record("attrib.hmc.link", 10.0);
        live.record("attrib.hmc.dram", 10.0);
        live.record("attrib.hmc.total", 50.0);
        let v = check_run(&m, &live);
        assert!(
            v.iter()
                .any(|x| x.invariant == "attrib-closure" && x.detail.contains("attrib.hmc")),
            "{v:?}"
        );
    }

    #[test]
    fn fp_atomics_require_extension() {
        let mut m = consistent();
        m.mode = PimMode::GraphPim;
        m.hmc.fp_atomics = 1;
        let config = SystemConfig::hpca(PimMode::GraphPim).without_fp_extension();
        let v = check_run_config(&m, &config);
        assert!(v.iter().any(|x| x.invariant == "fp-extension"), "{v:?}");
        let ok = check_run_config(&m, &SystemConfig::hpca(PimMode::GraphPim));
        assert!(!ok.iter().any(|x| x.invariant == "fp-extension"), "{ok:?}");
    }

    #[test]
    fn config_metrics_consistency() {
        let m = consistent();
        let config = SystemConfig::hpca(PimMode::Baseline);
        let v = check_run_config(&m, &config);
        // hpca has 16 cores, the sample has 2.
        assert!(
            v.iter().any(|x| x.invariant == "config-consistency"),
            "{v:?}"
        );
    }

    #[test]
    fn backend_topology_mismatch_detected() {
        // The sample metrics expose 2 vault buckets; hpca's single cube
        // has 32, and a default 4-cube chain expects 128.
        let m = consistent();
        let config = SystemConfig::hpca(PimMode::Baseline);
        let v = check_run_config(&m, &config);
        assert!(
            v.iter()
                .any(|x| x.invariant == "backend-topology" && x.detail.contains("expects 32")),
            "{v:?}"
        );
        let chained = SystemConfig::hpca(PimMode::Baseline).with_backend(
            graphpim_sim::backend::BackendConfig::MultiCube(
                graphpim_sim::backend::MultiCubeConfig::default(),
            ),
        );
        let v = check_run_config(&m, &chained);
        assert!(
            v.iter()
                .any(|x| x.invariant == "backend-topology" && x.detail.contains("expects 128")),
            "{v:?}"
        );
        // Matching bucket counts pass.
        let mut m32 = consistent();
        m32.hmc.requests_per_vault = vec![0; 32];
        m32.hmc.atomics_per_vault = vec![0; 32];
        m32.hmc.requests_per_vault[0] = 3;
        m32.hmc.requests_per_vault[1] = 1;
        let v = check_run_config(&m32, &config);
        assert!(
            !v.iter().any(|x| x.invariant == "backend-topology"),
            "{v:?}"
        );
    }

    #[test]
    #[should_panic(expected = "run invariants violated")]
    fn enforce_panics_with_violations() {
        enforce(
            "test run",
            &[Violation {
                invariant: "test",
                detail: "boom".into(),
            }],
        );
    }

    #[test]
    fn enforce_is_silent_when_clean() {
        enforce("test run", &[]);
    }
}
