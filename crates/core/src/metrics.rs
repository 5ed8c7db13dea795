//! Metrics produced by a full-system run.

use crate::config::PimMode;
use graphpim_sim::cpu::CoreStats;
use graphpim_sim::hmc::HmcStats;
use graphpim_sim::mem::hierarchy::LevelCounts;
use graphpim_sim::stats::{mpki, CycleBreakdown};
use graphpim_sim::telemetry::{CounterRegistry, Telemetry};

/// Everything measured during one kernel/application run.
///
/// `PartialEq` compares every counter and cycle value exactly; the
/// experiment engine relies on it to assert that parallel and cached
/// replays are bit-identical to a serial simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// The policy the run used.
    pub mode: PimMode,
    /// Core count of the simulated system.
    pub cores: usize,
    /// Issue width (for the retiring component of breakdowns).
    pub issue_width: u32,
    /// End-to-end cycles (all cores synchronized at the end).
    pub total_cycles: f64,
    /// Aggregated core statistics (summed over cores).
    pub core: CoreStats,
    /// L1 hit/miss aggregate.
    pub l1: LevelCounts,
    /// L2 hit/miss aggregate.
    pub l2: LevelCounts,
    /// L3 hit/miss aggregate.
    pub l3: LevelCounts,
    /// HMC traffic statistics.
    pub hmc: HmcStats,
    /// Atomics targeting the property region (offloading candidates).
    pub offload_candidates: u64,
    /// Candidates that hit somewhere in the cache hierarchy (meaningful for
    /// Baseline and U-PEI runs, where candidates actually probe the caches).
    pub candidate_cache_hits: u64,
    /// Atomics actually sent to the HMC atomic units.
    pub offloaded_atomics: u64,
    /// PEI-style host-side executions of offload candidates (U-PEI hits).
    pub host_pei_atomics: u64,
    /// Uncacheable PMR loads (GraphPIM bypass path).
    pub uncached_reads: u64,
    /// Uncacheable PMR stores.
    pub uncached_writes: u64,
    /// Atomics on uncacheable PMR memory the cube could not execute
    /// (unsupported op, e.g. FP without the extension): the host RMW
    /// degrades to bus locking (Section III-B).
    pub uncached_atomics: u64,
    /// Total cycles of main-memory service experienced by demand requests
    /// (the "uncore time" proxy of Table VIII).
    pub memory_service_cycles: f64,
    /// Whether the run's attached Perfetto trace failed to write. The
    /// metrics themselves are still valid (tracing is observation-only),
    /// but the trace file on disk must not be trusted.
    pub trace_export_failed: bool,
}

impl RunMetrics {
    /// Per-core average IPC (the Figure 1 metric).
    ///
    /// # Panics
    ///
    /// Panics if `total_cycles` is not positive — a zero-cycle run is a
    /// broken run, and masking it as IPC 0.0 would silently corrupt
    /// figures (consistent with the hard assert in the engine's
    /// `speedup()`).
    pub fn ipc(&self) -> f64 {
        assert!(
            self.total_cycles > 0.0,
            "zero-cycle run in ipc(): mode {:?}, {} instructions",
            self.mode,
            self.core.instructions
        );
        self.core.instructions as f64 / (self.total_cycles * self.cores as f64)
    }

    /// L1 misses per kilo-instruction.
    pub fn l1_mpki(&self) -> f64 {
        mpki(self.l1.misses, self.core.instructions)
    }

    /// L2 misses per kilo-instruction.
    pub fn l2_mpki(&self) -> f64 {
        mpki(self.l2.misses, self.core.instructions)
    }

    /// L3 (LLC) misses per kilo-instruction.
    pub fn l3_mpki(&self) -> f64 {
        mpki(self.l3.misses, self.core.instructions)
    }

    /// LLC hit rate (Table VIII).
    pub fn llc_hit_rate(&self) -> f64 {
        1.0 - self.l3.miss_rate()
    }

    /// Top-down cycle breakdown (Figure 2), averaged over cores.
    pub fn breakdown(&self) -> CycleBreakdown {
        // Stats are summed across cores, so scale total cycles accordingly.
        CycleBreakdown::from_stats(
            &self.core,
            self.issue_width,
            (self.total_cycles * self.cores as f64).max(1e-9),
        )
    }

    /// Fraction of machine cycles spent on host-atomic pipeline freezing
    /// and write-buffer draining (`Atomic-inCore`, Figure 9).
    pub fn atomic_incore_fraction(&self) -> f64 {
        self.core.atomic_incore_cycles / self.machine_cycles()
    }

    /// Fraction spent on atomic cache checking / coherence / memory
    /// service (`Atomic-inCache`, Figure 9).
    pub fn atomic_incache_fraction(&self) -> f64 {
        self.core.atomic_incache_cycles / self.machine_cycles()
    }

    /// Cache miss rate of offloading candidates (Figure 10). Only
    /// meaningful for runs whose candidates probed the caches
    /// (Baseline / U-PEI).
    pub fn candidate_miss_rate(&self) -> f64 {
        if self.offload_candidates == 0 {
            0.0
        } else {
            1.0 - self.candidate_cache_hits as f64 / self.offload_candidates as f64
        }
    }

    /// Total FLITs moved on the links, request + response.
    pub fn total_flits(&self) -> u64 {
        self.hmc.total_flits()
    }

    /// Percentage of instructions that are PIM-offloadable atomics
    /// (`%PIM-Atomic`, Table VIII).
    pub fn pim_atomic_pct(&self) -> f64 {
        if self.core.instructions == 0 {
            0.0
        } else {
            100.0 * self.offload_candidates as f64 / self.core.instructions as f64
        }
    }

    /// Fraction of machine time spent waiting on main-memory service
    /// (the "uncore time" row of Table VIII).
    pub fn uncore_time_fraction(&self) -> f64 {
        (self.memory_service_cycles / self.machine_cycles()).min(1.0)
    }

    /// Total machine cycles (cycles × cores).
    pub fn machine_cycles(&self) -> f64 {
        (self.total_cycles * self.cores as f64).max(1e-9)
    }

    /// Wall-clock seconds at the given core clock.
    pub fn seconds(&self, clock_ghz: f64) -> f64 {
        self.total_cycles / (clock_ghz * 1e9)
    }

    /// Reports every counter of this run into `sink` under the same
    /// namespaces the live system uses (`core.*`, `mem.*`, `hmc.*`,
    /// `system.*`), so finalized metrics and the trace's counter events
    /// agree.
    pub fn report_telemetry(&self, sink: &mut dyn Telemetry) {
        self.core.report_telemetry("core", sink);
        self.l1.report_telemetry("mem.l1", sink);
        self.l2.report_telemetry("mem.l2", sink);
        self.l3.report_telemetry("mem.l3", sink);
        self.hmc.report_telemetry(sink);
        sink.record("system.cores", self.cores as f64);
        sink.record("system.issue_width", self.issue_width as f64);
        sink.record("system.offload_candidates", self.offload_candidates as f64);
        sink.record(
            "system.candidate_cache_hits",
            self.candidate_cache_hits as f64,
        );
        sink.record("system.offloaded_atomics", self.offloaded_atomics as f64);
        sink.record("system.host_pei_atomics", self.host_pei_atomics as f64);
        sink.record("system.uncached_reads", self.uncached_reads as f64);
        sink.record("system.uncached_writes", self.uncached_writes as f64);
        sink.record("system.uncached_atomics", self.uncached_atomics as f64);
        sink.record("system.memory_service_cycles", self.memory_service_cycles);
        sink.record("system.total_cycles", self.total_cycles);
        sink.record(
            "telemetry.export_failures",
            if self.trace_export_failed { 1.0 } else { 0.0 },
        );
    }

    /// All counters of this run as a registry (convenience over
    /// [`RunMetrics::report_telemetry`]).
    pub fn counter_registry(&self) -> CounterRegistry {
        let mut reg = CounterRegistry::default();
        self.report_telemetry(&mut reg);
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunMetrics {
        RunMetrics {
            mode: PimMode::Baseline,
            cores: 2,
            issue_width: 4,
            total_cycles: 1000.0,
            core: CoreStats {
                instructions: 4000,
                atomic_incore_cycles: 200.0,
                atomic_incache_cycles: 100.0,
                ..CoreStats::default()
            },
            l1: LevelCounts {
                hits: 900,
                misses: 100,
            },
            l2: LevelCounts {
                hits: 60,
                misses: 40,
            },
            l3: LevelCounts {
                hits: 10,
                misses: 30,
            },
            hmc: HmcStats::default(),
            offload_candidates: 50,
            candidate_cache_hits: 10,
            offloaded_atomics: 0,
            host_pei_atomics: 0,
            uncached_reads: 0,
            uncached_writes: 0,
            uncached_atomics: 0,
            memory_service_cycles: 400.0,
            trace_export_failed: false,
        }
    }

    #[test]
    fn ipc_is_per_core() {
        let m = sample();
        assert!((m.ipc() - 2.0).abs() < 1e-9); // 4000 / (1000 * 2)
    }

    #[test]
    fn mpki_values() {
        let m = sample();
        assert!((m.l1_mpki() - 25.0).abs() < 1e-9);
        assert!((m.l3_mpki() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn llc_hit_rate_complementary() {
        let m = sample();
        assert!((m.llc_hit_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn candidate_miss_rate() {
        let m = sample();
        assert!((m.candidate_miss_rate() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn atomic_fractions() {
        let m = sample();
        assert!((m.atomic_incore_fraction() - 0.1).abs() < 1e-9);
        assert!((m.atomic_incache_fraction() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn uncore_fraction() {
        let m = sample();
        assert!((m.uncore_time_fraction() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn seconds_at_clock() {
        let m = sample();
        assert!((m.seconds(2.0) - 5e-7).abs() < 1e-15);
    }

    #[test]
    fn zero_candidates_miss_rate_is_zero() {
        let mut m = sample();
        m.offload_candidates = 0;
        assert_eq!(m.candidate_miss_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "zero-cycle run in ipc()")]
    fn ipc_panics_on_zero_cycles() {
        let mut m = sample();
        m.total_cycles = 0.0;
        m.ipc();
    }

    #[test]
    fn counter_registry_covers_all_namespaces() {
        let m = sample();
        let reg = m.counter_registry();
        assert_eq!(reg.get("core.instructions"), Some(4000.0));
        assert_eq!(reg.get("mem.l1.misses"), Some(100.0));
        assert_eq!(reg.get("mem.l3.hits"), Some(10.0));
        assert_eq!(reg.get("hmc.atomics"), Some(0.0));
        assert_eq!(reg.get("system.offload_candidates"), Some(50.0));
        assert_eq!(reg.get("system.total_cycles"), Some(1000.0));
    }
}
