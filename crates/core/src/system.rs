//! The full-system simulator.
//!
//! [`SystemSim`] consumes the instruction streams emitted by the framework
//! layer (it implements `TraceConsumer`) and drives them through the
//! substrate: one interval-model core per simulated thread, the shared
//! MESI cache hierarchy, and the configured memory backend (the paper's
//! HMC cube by default; see [`graphpim_sim::backend`]). The
//! [`crate::pou::Pou`] decides, per atomic and per PMR access, which data
//! path applies for the configured [`crate::config::PimMode`].
//!
//! Barriers synchronize the per-core clocks and wait for in-flight posted
//! PIM atomics — the consistency argument of Section II-D.
//!
//! Every simulation goes through [`SystemSim::run`], which drives one
//! [`Source`] — a live framework workload, a decoded trace, or encoded
//! trace bytes — on the calling thread. With a [`TraceExporter`] in the
//! run's [`Instrumentation`], the simulator additionally snapshots every
//! telemetry counter at each superstep barrier and once more at run end.
//! Collection is pull-based (components are read, never notified), so a
//! traced run produces bit-identical [`RunMetrics`].

use crate::config::{PimMode, SystemConfig};
use crate::metrics::RunMetrics;
use crate::perfetto::PerfettoTrace;
use crate::pou::{AtomicPath, Pou};
use crate::telemetry::TraceExporter;
use graphpim_graph::generate::SplitMix64;
use graphpim_graph::CsrGraph;
use graphpim_sim::attrib::CoreAttrib;
use graphpim_sim::backend::MemoryBackend;
use graphpim_sim::cpu::{CoreModel, CoreStats};
use graphpim_sim::hmc::{HmcAtomicOp, HmcServed, PacketKind};
use graphpim_sim::mem::hierarchy::{AccessResult, CacheHierarchy, ServiceLevel};
use graphpim_sim::mem::Addr;
use graphpim_sim::telemetry::CounterRegistry;
use graphpim_sim::trace::codec::{CodecError, DecodedEvent, DecodedTrace, ThreadSpan, TraceReader};
use graphpim_sim::trace::{Superstep, TraceEvent, TraceOp};
use graphpim_sim::Cycle;
use graphpim_workloads::framework::{Framework, TraceConsumer};
use graphpim_workloads::kernels::Kernel;

/// Extra penalty for a host atomic forced onto uncacheable memory (the
/// cache-line lock degrades to bus locking; Section III-B discussion).
const BUS_LOCK_PENALTY: f64 = 100.0;

/// One in this many memory-request lifecycles is exported as a Perfetto
/// span (full export would dwarf the run it describes).
const PERFETTO_REQUEST_SAMPLE: u64 = 64;

/// Where a run's instruction stream comes from (see [`SystemSim::run`]).
/// All three drive the same chunk/barrier sequence through the timing
/// models, so one workload yields bit-identical metrics from any source.
pub enum Source<'a> {
    /// A framework workload executed as the run proceeds: each chunk it
    /// emits is simulated before the next one is produced. The framework
    /// runs `config.sim.core.cores` threads.
    Live(&'a mut dyn FnMut(&mut Framework<'_>)),
    /// A pre-decoded trace, replayed from its flat op buffer.
    Decoded(&'a DecodedTrace),
    /// An encoded trace (see [`graphpim_sim::trace::codec`]), decoded one
    /// frame at a time as it is replayed.
    Encoded(&'a [u8]),
}

/// Optional observers attached to a run. All of them are pull-based or
/// record already-computed deltas, so any combination leaves the
/// simulated timing bit-identical.
#[derive(Debug, Default)]
pub struct Instrumentation {
    /// Superstep counter snapshots (JSONL; see [`TraceExporter`]).
    pub trace: Option<TraceExporter>,
    /// Chrome trace-event span export (see [`PerfettoTrace`]).
    pub perfetto: Option<PerfettoTrace>,
    /// Cycle-attribution ledgers, reported under `attrib.*` keys.
    pub attribution: bool,
}

impl Instrumentation {
    /// Builds the instrumentation the environment asks for:
    /// `GRAPHPIM_TRACE_DIR`, `GRAPHPIM_PERFETTO_DIR`, and `GRAPHPIM_ATTRIB`
    /// (presence-checked). `label` names the output files.
    pub fn from_env(label: &str) -> Instrumentation {
        Instrumentation {
            trace: TraceExporter::from_env(label),
            perfetto: PerfettoTrace::from_env(label),
            attribution: std::env::var_os("GRAPHPIM_ATTRIB").is_some(),
        }
    }
}

/// The assembled system.
pub struct SystemSim {
    config: SystemConfig,
    pou: Pou,
    cores: Vec<CoreModel>,
    hierarchy: CacheHierarchy,
    backend: Box<dyn MemoryBackend>,
    rng: SplitMix64,
    max_pim_done: Cycle,
    offload_candidates: u64,
    candidate_cache_hits: u64,
    offloaded_atomics: u64,
    host_pei_atomics: u64,
    uncached_reads: u64,
    uncached_writes: u64,
    uncached_atomics: u64,
    memory_service_cycles: f64,
    trace: Option<TraceExporter>,
    perfetto: Option<PerfettoTrace>,
    attribution: bool,
    trace_export_failed: bool,
    superstep: u64,
    /// Release time of the previous barrier (start of the current
    /// superstep) — the left edge of the Perfetto spans being built.
    step_start: Cycle,
    request_samples: u64,
    /// Scheduler scratch (see [`Self::run_chunk`]): the ready min-heap and
    /// per-thread cursors. Kept on the struct so the per-chunk hot path
    /// allocates nothing once capacities have grown to the thread count.
    sched_heap: Vec<SchedEntry>,
    sched_cursor: Vec<usize>,
    /// Per-thread op ranges of the decoded chunk being scheduled
    /// (see [`Self::chunk_decoded`]).
    sched_spans: Vec<(usize, usize)>,
    /// Reused dirty-writeback buffer for cache accesses
    /// (see [`Self::access_cached`]).
    wb_scratch: Vec<Addr>,
}

/// One ready thread in the scheduler heap: `(key, thread, core)` where
/// `key` is the thread's core clock as sign-preserving bits. Clocks are
/// non-negative finite `f64`s, so `f64::to_bits` is order-preserving and
/// the derived lexicographic `Ord` compares `(now, thread)` exactly like
/// the ordering contract demands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SchedEntry {
    key: u64,
    thread: u32,
    core: u32,
}

/// Restores min-heap order for `heap[i]` against its parents.
fn heap_sift_up(heap: &mut [SchedEntry], mut i: usize) {
    while i > 0 {
        let parent = (i - 1) / 2;
        if heap[i] < heap[parent] {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

/// Restores min-heap order for `heap[i]` against its descendants.
fn heap_sift_down(heap: &mut [SchedEntry], mut i: usize) {
    let len = heap.len();
    loop {
        let left = 2 * i + 1;
        if left >= len {
            break;
        }
        let right = left + 1;
        let child = if right < len && heap[right] < heap[left] {
            right
        } else {
            left
        };
        if heap[child] < heap[i] {
            heap.swap(i, child);
            i = child;
        } else {
            break;
        }
    }
}

impl SystemSim {
    /// Builds a system for `config`.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (see
    /// [`SystemConfig::validate`]) — a bad geometry must fail here, not
    /// produce a wrong simulation.
    pub fn new(config: SystemConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid SystemConfig: {e}");
        }
        for warning in config.validation_warnings() {
            crate::obs::warn("config", "config warning", &[("warning", &warning)]);
        }
        let cores = (0..config.sim.core.cores)
            .map(|_| CoreModel::new(&config.sim.core))
            .collect();
        let hierarchy = CacheHierarchy::new(&config.sim.cache, config.sim.core.cores);
        let backend = config.sim.backend.build(&config.sim);
        let pou = Pou::new(&config);
        let rng = SplitMix64::new(config.seed);
        SystemSim {
            config,
            pou,
            cores,
            hierarchy,
            backend,
            rng,
            max_pim_done: 0.0,
            offload_candidates: 0,
            candidate_cache_hits: 0,
            offloaded_atomics: 0,
            host_pei_atomics: 0,
            uncached_reads: 0,
            uncached_writes: 0,
            uncached_atomics: 0,
            memory_service_cycles: 0.0,
            trace: None,
            perfetto: None,
            attribution: false,
            trace_export_failed: false,
            superstep: 0,
            step_start: 0.0,
            request_samples: 0,
            sched_heap: Vec::new(),
            sched_cursor: Vec::new(),
            sched_spans: Vec::new(),
            wb_scratch: Vec::with_capacity(64),
        }
    }

    /// Attaches a run's observers. Each is observation-only: metrics stay
    /// bit-identical with any combination attached.
    fn instrument(&mut self, instrumentation: Instrumentation) {
        if let Some(trace) = instrumentation.trace {
            // Counters are snapshotted at every superstep barrier and at
            // run end; the backend's per-vault histograms feed them.
            self.backend.enable_vault_telemetry();
            self.trace = Some(trace);
        }
        if let Some(mut perfetto) = instrumentation.perfetto {
            // Supersteps, per-core busy/stall spans, and sampled request
            // lifecycles, written as Chrome trace-event JSON when the run
            // finalizes.
            perfetto.process_name(0, "supersteps");
            perfetto.process_name(1, "cores");
            perfetto.process_name(2, "requests (sampled)");
            perfetto.thread_name(0, 0, "superstep");
            for c in 0..self.cores.len() {
                perfetto.thread_name(1, c as u32, &format!("core {c}"));
                perfetto.thread_name(2, c as u32, &format!("core {c} requests"));
            }
            self.perfetto = Some(perfetto);
        }
        if instrumentation.attribution {
            // Cycle attribution in every component, surfaced as `attrib.*`
            // telemetry keys (the ledgers record deltas the timing path
            // already computed).
            self.attribution = true;
            for core in &mut self.cores {
                core.enable_attribution();
            }
            self.hierarchy.enable_attribution();
            self.backend.enable_attribution();
        }
    }

    /// Simulates one run of `source` under `config`, with
    /// `instrumentation` attached, and returns the finalized metrics.
    ///
    /// Every source is driven on the calling thread. A live workload's
    /// chunks and an encoded trace's frames are simulated as they are
    /// produced, so neither holds more than one chunk of ops at a time.
    /// A trace captured with `config.sim.core.cores` threads replays
    /// bit-identically to the live run it came from: replay drives the
    /// exact chunk/barrier sequence the live run produced. Other thread
    /// counts fold thread `t` onto core `t % cores`, like a live run with
    /// that many framework threads.
    ///
    /// # Errors
    ///
    /// Only [`Source::Encoded`] can fail. Header and checksum problems
    /// surface before anything is simulated (`TraceReader::new` checks
    /// the whole buffer up front); a mid-stream decode error — which the
    /// checksum makes an encoder-bug indicator rather than a corruption
    /// one — abandons the partial run and is returned.
    pub fn run(
        config: &SystemConfig,
        source: Source<'_>,
        instrumentation: Instrumentation,
    ) -> Result<RunMetrics, CodecError> {
        let mut sys = SystemSim::new(config.clone());
        sys.instrument(instrumentation);
        match source {
            Source::Live(workload) => {
                let mut fw = Framework::new(config.sim.core.cores, &mut sys);
                workload(&mut fw);
                fw.finish();
            }
            Source::Decoded(trace) => {
                for event in trace.events() {
                    sys.replay_decoded_event(trace, event);
                }
            }
            Source::Encoded(bytes) => {
                let mut reader = TraceReader::new(bytes)?;
                while let Some(event) = reader.next_event()? {
                    match event {
                        TraceEvent::Chunk(step) => sys.chunk(step),
                        TraceEvent::Barrier => sys.barrier(),
                    }
                }
            }
        }
        Ok(sys.into_metrics())
    }

    /// Runs a kernel end to end under `config`, with no observers.
    pub fn run_kernel(
        kernel: &mut dyn Kernel,
        graph: &CsrGraph,
        config: &SystemConfig,
    ) -> RunMetrics {
        Self::run_with(config, |fw| kernel.run(graph, fw))
    }

    /// Runs an arbitrary framework workload (used by the real-world
    /// applications), with no observers.
    pub fn run_with(
        config: &SystemConfig,
        mut workload: impl FnMut(&mut Framework<'_>),
    ) -> RunMetrics {
        Self::run(
            config,
            Source::Live(&mut workload),
            Instrumentation::default(),
        )
        .expect("a live run decodes no trace")
    }

    /// Replays a pre-decoded trace, with no observers. Decoding once and
    /// replaying the flat [`TraceOp`] buffer many times is the engine's
    /// steady state: every timing-config sweep point reuses the same
    /// [`DecodedTrace`] without touching the varint codec again.
    pub fn run_decoded(trace: &DecodedTrace, config: &SystemConfig) -> RunMetrics {
        Self::run(config, Source::Decoded(trace), Instrumentation::default())
            .expect("a decoded trace cannot fail to decode")
    }

    /// Replays encoded trace bytes frame by frame, with no observers —
    /// the memory-lean form that never materializes the decoded trace.
    /// Bit-identical to [`run_decoded`](Self::run_decoded) on the same
    /// trace; errors as for [`Source::Encoded`] in [`run`](Self::run).
    pub fn run_replayed_streaming(
        bytes: &[u8],
        config: &SystemConfig,
    ) -> Result<RunMetrics, CodecError> {
        Self::run(config, Source::Encoded(bytes), Instrumentation::default())
    }

    /// Feeds one decoded event through the consumer. Public so harnesses
    /// (benches, the allocation-guard test) can drive a replay
    /// incrementally; [`run_decoded`](Self::run_decoded) is this in a
    /// loop.
    pub fn replay_decoded_event(&mut self, trace: &DecodedTrace, event: DecodedEvent<'_>) {
        match event {
            DecodedEvent::Chunk(spans) => self.chunk_decoded(trace, spans),
            DecodedEvent::Barrier => self.barrier(),
        }
    }

    /// Schedules one decoded chunk frame: each span is a thread's op range
    /// in the trace's flat buffer. Same ordering contract as
    /// [`TraceConsumer::chunk`], without materializing per-thread `Vec`s.
    fn chunk_decoded(&mut self, trace: &DecodedTrace, spans: &[ThreadSpan]) {
        let mut ranges = std::mem::take(&mut self.sched_spans);
        ranges.clear();
        ranges.resize(trace.threads(), (0, 0));
        for span in spans {
            ranges[span.thread as usize] = (span.start, span.end);
        }
        let ops = trace.ops();
        self.run_chunk(ranges.len(), |t| &ops[ranges[t].0..ranges[t].1]);
        self.sched_spans = ranges;
    }

    /// Sums statistics over all cores.
    fn aggregated_core_stats(&self) -> CoreStats {
        let mut agg = CoreStats::default();
        for core in &self.cores {
            agg.accumulate(core.stats());
        }
        agg
    }

    /// Every telemetry counter of the live system, pulled into one
    /// registry. The same namespaces as
    /// [`RunMetrics::report_telemetry`], so the trace's final snapshot
    /// agrees with the finalized metrics.
    fn collect_counters(&self, total_cycles: Cycle) -> CounterRegistry {
        let mut reg = CounterRegistry::default();
        self.aggregated_core_stats()
            .report_telemetry("core", &mut reg);
        self.hierarchy.report_telemetry(&mut reg);
        self.backend.report_telemetry(&mut reg);
        reg.record("system.cores", self.cores.len() as f64);
        reg.record(
            "system.issue_width",
            self.config.sim.core.issue_width as f64,
        );
        reg.record("system.offload_candidates", self.offload_candidates as f64);
        reg.record(
            "system.candidate_cache_hits",
            self.candidate_cache_hits as f64,
        );
        reg.record("system.offloaded_atomics", self.offloaded_atomics as f64);
        reg.record("system.host_pei_atomics", self.host_pei_atomics as f64);
        reg.record("system.uncached_reads", self.uncached_reads as f64);
        reg.record("system.uncached_writes", self.uncached_writes as f64);
        reg.record("system.uncached_atomics", self.uncached_atomics as f64);
        reg.record("system.memory_service_cycles", self.memory_service_cycles);
        reg.record("system.total_cycles", total_cycles);
        reg.record(
            "telemetry.export_failures",
            if self.trace_export_failed { 1.0 } else { 0.0 },
        );
        if self.attribution {
            let mut core_attrib = CoreAttrib::default();
            for core in &self.cores {
                core_attrib.accumulate(core.attrib().expect("attribution enabled"));
            }
            core_attrib.report_telemetry("attrib.core", &mut reg);
            // Per-core clocks telescope into the buckets, so `busy` is the
            // sum of all core-local time; `idle` is each core's gap to the
            // machine-wide end. busy + idle = machine cycles (checked by
            // the validation layer).
            reg.record("attrib.core.busy", core_attrib.total());
            let idle: f64 = self
                .cores
                .iter()
                .map(|c| (total_cycles - c.now()).max(0.0))
                .sum();
            reg.record("attrib.core.idle", idle);
            reg.record(
                "attrib.core.machine_cycles",
                total_cycles * self.cores.len() as f64,
            );
            if let Some(a) = self.hierarchy.attrib() {
                a.report_telemetry("attrib.cache", &mut reg);
            }
            if let Some(a) = self.backend.attrib() {
                a.report_telemetry("attrib.hmc", &mut reg);
            }
        }
        reg
    }

    /// Finalizes the run: waits for all in-flight work and aggregates.
    pub fn into_metrics(mut self) -> RunMetrics {
        let mut end: Cycle = self.max_pim_done;
        for core in &mut self.cores {
            end = end.max(core.finish());
        }
        let total_cycles = end.max(1e-9);
        if let Some(mut perfetto) = self.perfetto.take() {
            // Close out the last (possibly barrier-less) superstep: cores
            // are drained at `now()`, then idle until the machine-wide end.
            for (c, core) in self.cores.iter().enumerate() {
                let busy_end = core.now().min(total_cycles);
                perfetto.span("busy", "core", 1, c as u32, self.step_start, busy_end, &[]);
                perfetto.span("drain", "core", 1, c as u32, busy_end, total_cycles, &[]);
            }
            perfetto.span(
                &format!("superstep {}", self.superstep + 1),
                "superstep",
                0,
                0,
                self.step_start,
                total_cycles,
                &[],
            );
            let path = perfetto.path().to_path_buf();
            if let Err(e) = perfetto.write() {
                crate::obs::warn(
                    "perfetto",
                    "cannot write span trace",
                    &[("path", &path.display()), ("error", &e)],
                );
                self.trace_export_failed = true;
            }
        }
        if self.trace.is_some() {
            // Final snapshot: the only one where `system.total_cycles`
            // reflects the finished run.
            let counters = self.collect_counters(total_cycles);
            if let Some(trace) = self.trace.take() {
                let mut trace = trace;
                let path = trace.path().to_path_buf();
                trace.snapshot(self.superstep + 1, total_cycles, &counters);
                if let Err(e) = trace.finish() {
                    crate::obs::warn(
                        "trace",
                        "cannot write telemetry trace",
                        &[("path", &path.display()), ("error", &e)],
                    );
                    self.trace_export_failed = true;
                }
            }
        }
        let agg = self.aggregated_core_stats();
        let (l1, l2, l3) = self.hierarchy.level_counts();
        let metrics = RunMetrics {
            mode: self.config.mode,
            cores: self.cores.len(),
            issue_width: self.config.sim.core.issue_width,
            total_cycles,
            core: agg,
            l1,
            l2,
            l3,
            hmc: self.backend.stats(),
            offload_candidates: self.offload_candidates,
            candidate_cache_hits: self.candidate_cache_hits,
            offloaded_atomics: self.offloaded_atomics,
            host_pei_atomics: self.host_pei_atomics,
            uncached_reads: self.uncached_reads,
            uncached_writes: self.uncached_writes,
            uncached_atomics: self.uncached_atomics,
            memory_service_cycles: self.memory_service_cycles,
            trace_export_failed: self.trace_export_failed,
        };
        if crate::validate::validation_enabled() {
            // Conservation pass (see `crate::validate`): the finalized
            // metrics must satisfy every invariant, and must agree with
            // the counters pulled live from the components.
            let counters = self.collect_counters(total_cycles);
            let mut violations = crate::validate::check_run(&metrics, &counters);
            violations.extend(crate::validate::check_run_config(&metrics, &self.config));
            crate::validate::enforce(&format!("{:?} run", self.config.mode), &violations);
        }
        metrics
    }

    #[inline]
    fn process(&mut self, t: usize, op: TraceOp) {
        match op {
            TraceOp::Compute(n) => self.cores[t].compute(n),
            TraceOp::Branch { predictable, dep } => {
                let mispredicted =
                    !predictable && self.rng.next_f64() < self.config.mispredict_rate;
                self.cores[t].branch(mispredicted, dep);
            }
            TraceOp::Load { addr, dep } => self.load(t, addr, dep),
            TraceOp::Store { addr } => self.store(t, addr),
            TraceOp::Atomic { addr, op, dep } => self.atomic(t, addr, op, dep),
        }
    }

    #[inline]
    fn load(&mut self, t: usize, addr: Addr, dep: bool) {
        if self.pou.bypass_cache(addr) {
            // Uncacheable PMR load: straight to the cube as a 16-byte read.
            let t0 = self.cores[t].begin_mem(dep, true);
            let served = self.backend.service(PacketKind::Read16, addr, t0);
            self.memory_service_cycles += served.response_at - t0;
            self.perfetto_request(t, "load.pmr", t0, &served);
            self.cores[t].complete_load(served.response_at, true);
            self.uncached_reads += 1;
            return;
        }
        let t0 = self.cores[t].begin_mem(dep, false);
        let out = self.access_cached(t, addr, false, t0);
        if out.level == ServiceLevel::Memory {
            let t1 = self.cores[t].acquire_mshr();
            let served = self
                .backend
                .service(PacketKind::Read64, addr, t1 + out.latency as f64);
            self.memory_service_cycles += served.response_at - t1;
            self.perfetto_request(t, "load.miss", t1, &served);
            self.cores[t].complete_load(served.response_at, true);
        } else {
            self.cores[t].complete_load(t0 + out.latency as f64, false);
        }
    }

    #[inline]
    fn store(&mut self, t: usize, addr: Addr) {
        if self.pou.bypass_cache(addr) {
            // Posted uncacheable store: write-combining path, no MSHR.
            let t0 = self.cores[t].begin_mem(false, false);
            let served = self.backend.service(PacketKind::Write16, addr, t0);
            self.max_pim_done = self.max_pim_done.max(served.memory_done);
            self.cores[t].complete_store();
            self.uncached_writes += 1;
            return;
        }
        let t0 = self.cores[t].begin_mem(false, false);
        let out = self.access_cached(t, addr, true, t0);
        if out.level == ServiceLevel::Memory {
            // Read-for-ownership line fill; the store itself is posted.
            let served = self
                .backend
                .service(PacketKind::Read64, addr, t0 + out.latency as f64);
            self.max_pim_done = self.max_pim_done.max(served.memory_done);
        }
        self.cores[t].complete_store();
    }

    fn atomic(&mut self, t: usize, addr: Addr, op: HmcAtomicOp, dep: bool) {
        if self.config.atomics_as_plain {
            // Figure 4 micro-benchmark: the same data access without any
            // synchronization semantics.
            self.load(t, addr, dep);
            self.store(t, addr);
            return;
        }
        if self.pou.is_candidate(addr) {
            self.offload_candidates += 1;
        }
        match self.pou.route_atomic(addr, op) {
            AtomicPath::Host => self.host_atomic(t, addr),
            AtomicPath::LocalityDependent => self.upei_atomic(t, addr, op, dep),
            AtomicPath::Offload => self.pim_atomic(t, addr, op, dep),
        }
    }

    /// Conventional host-side atomic (Baseline; any non-PMR atomic; FP
    /// atomics without the extension).
    fn host_atomic(&mut self, t: usize, addr: Addr) {
        let start = self.cores[t].host_atomic_begin();
        if self.pou.bypass_cache(addr) {
            // Atomic on uncacheable memory without PIM support: the
            // cache-line lock degrades to bus locking (Section III-B).
            let read = self.backend.service(PacketKind::Read16, addr, start);
            let write = self
                .backend
                .service(PacketKind::Write16, addr, read.response_at);
            let service = (write.memory_done - start) + BUS_LOCK_PENALTY;
            self.memory_service_cycles += service;
            self.perfetto_request(t, "atomic.host-buslock", start, &write);
            self.cores[t].host_atomic_finish(service, 0.0);
            self.uncached_atomics += 1;
            return;
        }
        let out = self.access_cached(t, addr, true, start);
        if self.pou.is_candidate(addr) && out.level != ServiceLevel::Memory {
            self.candidate_cache_hits += 1;
        }
        let cache_part = out.latency as f64;
        let mut service = cache_part;
        if out.level == ServiceLevel::Memory {
            let served = self
                .backend
                .service(PacketKind::Read64, addr, start + cache_part);
            service += served.response_at - (start + cache_part);
            self.perfetto_request(t, "atomic.host-fill", start, &served);
        }
        self.memory_service_cycles += service;
        self.cores[t].host_atomic_finish(service, cache_part);
    }

    /// U-PEI: the idealized PEI of Section IV-B. PEI operations are
    /// cacheable and locality aware: the data stays in the cache hierarchy
    /// (the access fills, with ideal zero-cost coherence against the
    /// memory-side copy), operations that hit execute host-side at cache
    /// latency with no locked-RMW penalty, and operations that miss are
    /// offloaded after paying the cache-checking latency. Every PEI
    /// operation traverses the host cache/LSQ path, so offloaded ones
    /// (posted or not) occupy an MSHR until the memory side completes —
    /// the cache-involvement cost GraphPIM's bypass avoids.
    fn upei_atomic(&mut self, t: usize, addr: Addr, op: HmcAtomicOp, dep: bool) {
        let t0 = self.cores[t].begin_mem(dep, false);
        let out = self.access_cached(t, addr, true, t0);
        if out.level != ServiceLevel::Memory {
            self.candidate_cache_hits += 1;
            self.host_pei_atomics += 1;
            self.cores[t].complete_pim_atomic(t0 + out.latency as f64, op.has_return());
            return;
        }
        let t1 = self.cores[t].acquire_mshr();
        let served = self
            .backend
            .service(PacketKind::Atomic(op), addr, t1 + out.latency as f64);
        self.perfetto_request(t, "atomic.upei", t1, &served);
        if op.has_return() {
            self.finish_pim(t, op, t1, served.response_at, served.memory_done);
        } else {
            self.offloaded_atomics += 1;
            self.cores[t].complete_posted_tracked(served.response_at);
            self.max_pim_done = self.max_pim_done.max(served.memory_done);
        }
    }

    /// GraphPIM: offload directly, no cache involvement. Posted atomics
    /// behave like stores (no MSHR); returning atomics occupy an MSHR
    /// like loads.
    fn pim_atomic(&mut self, t: usize, addr: Addr, op: HmcAtomicOp, dep: bool) {
        let t0 = self.cores[t].begin_mem(dep, false);
        let t1 = if op.has_return() {
            self.cores[t].acquire_mshr()
        } else {
            t0
        };
        let served = self.backend.service(PacketKind::Atomic(op), addr, t1);
        self.perfetto_request(t, "atomic.pim", t1, &served);
        self.finish_pim(t, op, t1, served.response_at, served.memory_done);
    }

    fn finish_pim(
        &mut self,
        t: usize,
        op: HmcAtomicOp,
        issued: Cycle,
        response_at: Cycle,
        memory_done: Cycle,
    ) {
        self.offloaded_atomics += 1;
        let returns = op.has_return();
        if returns {
            self.memory_service_cycles += response_at - issued;
        }
        self.cores[t].complete_pim_atomic(response_at, returns);
        self.max_pim_done = self.max_pim_done.max(memory_done);
    }

    /// Exports every [`PERFETTO_REQUEST_SAMPLE`]-th request lifecycle as a
    /// span on the requests row (pid 2). Posted stores and writebacks are
    /// skipped — they never stall the core.
    fn perfetto_request(&mut self, t: usize, name: &str, issued: Cycle, served: &HmcServed) {
        if self.perfetto.is_none() {
            return;
        }
        self.request_samples += 1;
        if !(self.request_samples - 1).is_multiple_of(PERFETTO_REQUEST_SAMPLE) {
            return;
        }
        if let Some(perfetto) = &mut self.perfetto {
            perfetto.span(
                name,
                "request",
                2,
                t as u32,
                issued,
                served.response_at,
                &[("bank_wait", served.bank_wait), ("fu_wait", served.fu_wait)],
            );
        }
    }

    /// One cache-hierarchy access on the allocation-free hot path: dirty
    /// writebacks land in the reused `wb_scratch` buffer and are posted
    /// to the cube at `now` (they never stall the core).
    #[inline]
    fn access_cached(&mut self, t: usize, addr: Addr, write: bool, now: Cycle) -> AccessResult {
        self.wb_scratch.clear();
        let out = self
            .hierarchy
            .access_into(t, addr, write, &mut self.wb_scratch);
        for &wb in &self.wb_scratch {
            self.backend.service(PacketKind::Write64, wb, now);
        }
        out
    }

    /// Schedules and executes one chunk's per-thread op streams.
    ///
    /// # Ordering contract
    ///
    /// At every step, the next op comes from the unfinished thread with
    /// the lexicographically smallest `(cores[t % cores].now(), t)`: the
    /// earliest core, ties broken by the lowest thread index. Always
    /// advancing the earliest core means the shared busy-until resources
    /// (links, banks, FUs) see requests in roughly monotone time order,
    /// which keeps the contention model honest; the thread-index tie-break
    /// matters whenever `threads > cores` folds several threads onto one
    /// core (their clocks then compare equal). This is exactly the order
    /// the original O(threads)-per-op linear scan produced — it compared
    /// with a strict `<` while scanning threads in increasing index order,
    /// so ties kept the earliest-scanned thread — and it is load-bearing:
    /// interleaving decides when each request reaches the shared
    /// resources, so changing it changes timing.
    /// `scheduler_matches_reference_scan` locks the contract bit for bit.
    ///
    /// # Why a lazy min-heap reproduces the scan
    ///
    /// The heap holds one entry per unfinished thread, keyed by a
    /// captured snapshot of its core clock. Core clocks only move forward
    /// (every `CoreModel` timing mutator is monotone non-decreasing), so
    /// a stale key is always an *underestimate* of the live clock. When
    /// the root's stored key equals its live clock, every other entry's
    /// live key is ≥ its stored key ≥ the root's, and the heap's
    /// `(key, thread)` ordering keeps the lowest thread index on top
    /// among equal keys — so the root is precisely the thread the scan
    /// would pick. A root whose key went stale is re-keyed in place and
    /// sifted down instead of being processed.
    ///
    /// As a fast path, the root keeps executing ops without heap traffic
    /// while its `(now, thread)` stays ≤ the runner-up key (the smaller
    /// of the root's children — the heap's second minimum). The runner-up
    /// key may itself be stale, i.e. an underestimate, which can only end
    /// the fast path early — never reorder ops.
    fn run_chunk<'s, O>(&mut self, nthreads: usize, ops_of: O)
    where
        O: Fn(usize) -> &'s [TraceOp],
    {
        let cores = self.cores.len();
        let mut heap = std::mem::take(&mut self.sched_heap);
        let mut cursor = std::mem::take(&mut self.sched_cursor);
        heap.clear();
        cursor.clear();
        cursor.resize(nthreads, 0);
        for t in 0..nthreads {
            if !ops_of(t).is_empty() {
                heap.push(SchedEntry {
                    key: self.cores[t % cores].now().to_bits(),
                    thread: t as u32,
                    core: (t % cores) as u32,
                });
                let last = heap.len() - 1;
                heap_sift_up(&mut heap, last);
            }
        }
        while let Some(&root) = heap.first() {
            let c = root.core as usize;
            let live = self.cores[c].now().to_bits();
            if live != root.key {
                // Stale snapshot (the clock advanced while this entry sat
                // in the heap): re-key and restore heap order.
                heap[0].key = live;
                heap_sift_down(&mut heap, 0);
                continue;
            }
            let t = root.thread as usize;
            // The second minimum of a binary heap is the smaller child of
            // the root; the root may run ahead until it passes this bound.
            let runner_up = match heap.len() {
                1 => None,
                2 => Some((heap[1].key, heap[1].thread)),
                _ => Some((heap[1].key, heap[1].thread).min((heap[2].key, heap[2].thread))),
            };
            let slice = ops_of(t);
            let n = slice.len();
            let mut i = cursor[t];
            match runner_up {
                // Last runnable thread: drain it with no per-op bound
                // checks — nothing can preempt it.
                None => {
                    for &op in &slice[i..] {
                        self.process(c, op);
                    }
                    i = n;
                }
                Some(bound) => {
                    while i < n {
                        self.process(c, slice[i]);
                        i += 1;
                        if (self.cores[c].now().to_bits(), root.thread) > bound {
                            break;
                        }
                    }
                }
            }
            cursor[t] = i;
            if i >= n {
                let last = heap.len() - 1;
                heap.swap(0, last);
                heap.pop();
                if !heap.is_empty() {
                    heap_sift_down(&mut heap, 0);
                }
            } else {
                heap[0].key = self.cores[c].now().to_bits();
                heap_sift_down(&mut heap, 0);
            }
        }
        self.sched_heap = heap;
        self.sched_cursor = cursor;
    }

    /// The configured mode.
    pub fn mode(&self) -> PimMode {
        self.config.mode
    }
}

impl TraceConsumer for SystemSim {
    fn chunk(&mut self, step: Superstep) {
        // Scheduling order is a timing contract — see `run_chunk`.
        self.run_chunk(step.threads.len(), |t| step.threads[t].as_slice());
    }

    fn barrier(&mut self) {
        let mut release: Cycle = self.max_pim_done;
        for core in &self.cores {
            release = release.max(core.drain_time());
        }
        if let Some(perfetto) = &mut self.perfetto {
            // Spans for the superstep that just ended: each core is busy
            // until its own drain point, then stalled at the barrier.
            for (c, core) in self.cores.iter().enumerate() {
                let busy_end = core.drain_time().min(release);
                let start = self.step_start;
                perfetto.span("busy", "core", 1, c as u32, start, busy_end, &[]);
                perfetto.span("barrier", "core", 1, c as u32, busy_end, release, &[]);
            }
            perfetto.span(
                &format!("superstep {}", self.superstep + 1),
                "superstep",
                0,
                0,
                self.step_start,
                release,
                &[],
            );
        }
        for core in &mut self.cores {
            core.barrier(release);
        }
        self.max_pim_done = release;
        self.superstep += 1;
        self.step_start = release;
        if self.trace.is_some() {
            let counters = self.collect_counters(release);
            if let Some(trace) = &mut self.trace {
                trace.snapshot(self.superstep, release, &counters);
            }
        }
    }
}

impl std::fmt::Debug for SystemSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemSim")
            .field("mode", &self.config.mode)
            .field("cores", &self.cores.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphpim_graph::generate::GraphSpec;
    use graphpim_workloads::kernels::{Bfs, DCentr, PRank};

    fn graph() -> CsrGraph {
        // Property array (8 B/vertex) far exceeds the tiny config's 16 KB
        // L3, so property accesses are genuinely irregular-missing — the
        // regime the paper evaluates (Fig. 14 covers the cache-resident
        // counter-case).
        GraphSpec::uniform(20_000, 60_000).seed(2).build()
    }

    fn run(mode: PimMode) -> RunMetrics {
        let config = SystemConfig::tiny(mode);
        SystemSim::run_kernel(&mut DCentr::new(), &graph(), &config)
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn graphpim_beats_baseline_on_atomic_heavy_kernel() {
        let base = run(PimMode::Baseline);
        let pim = run(PimMode::GraphPim);
        assert!(
            pim.total_cycles < base.total_cycles,
            "GraphPIM {} vs baseline {}",
            pim.total_cycles,
            base.total_cycles
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn offload_counters_by_mode() {
        let base = run(PimMode::Baseline);
        assert_eq!(base.offloaded_atomics, 0);
        assert!(base.offload_candidates > 0);
        assert!(base.core.host_atomics > 0);

        let pim = run(PimMode::GraphPim);
        assert_eq!(pim.offloaded_atomics, pim.offload_candidates);
        assert_eq!(pim.core.host_atomics, 0);

        let upei = run(PimMode::UPei);
        assert_eq!(
            upei.offloaded_atomics + upei.host_pei_atomics,
            upei.offload_candidates
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn graphpim_bypasses_caches_for_property() {
        let pim = run(PimMode::GraphPim);
        assert!(pim.uncached_reads > 0 || pim.uncached_writes > 0);
        let base = run(PimMode::Baseline);
        assert_eq!(base.uncached_reads, 0);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn atomic_overhead_only_in_baseline() {
        let base = run(PimMode::Baseline);
        let pim = run(PimMode::GraphPim);
        assert!(base.core.atomic_incore_cycles > 0.0);
        assert_eq!(pim.core.atomic_incore_cycles, 0.0);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn bandwidth_lower_under_graphpim_for_dc() {
        let base = run(PimMode::Baseline);
        let pim = run(PimMode::GraphPim);
        assert!(
            pim.total_flits() < base.total_flits(),
            "GraphPIM flits {} vs baseline {}",
            pim.total_flits(),
            base.total_flits()
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn bfs_results_identical_across_modes() {
        let g = graph();
        let mut depths = Vec::new();
        for mode in PimMode::ALL {
            let mut bfs = Bfs::new(0);
            SystemSim::run_kernel(&mut bfs, &g, &SystemConfig::tiny(mode));
            depths.push(bfs.depths().to_vec());
        }
        assert_eq!(depths[0], depths[1]);
        assert_eq!(depths[1], depths[2]);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn deterministic_metrics() {
        let a = run(PimMode::GraphPim);
        let b = run(PimMode::GraphPim);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.total_flits(), b.total_flits());
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn fp_extension_needed_for_prank_offload() {
        let g = graph();
        let with = SystemSim::run_kernel(
            &mut PRank::new(2),
            &g,
            &SystemConfig::tiny(PimMode::GraphPim),
        );
        let without = SystemSim::run_kernel(
            &mut PRank::new(2),
            &g,
            &SystemConfig::tiny(PimMode::GraphPim).without_fp_extension(),
        );
        assert!(with.offloaded_atomics > 0);
        assert_eq!(without.offloaded_atomics, 0);
        assert_eq!(with.uncached_atomics, 0);
        // Unsupported FP atomics on uncacheable PMR degrade to bus-locked
        // host RMWs — and are counted, not silently dropped.
        assert_eq!(without.uncached_atomics, without.offload_candidates);
        assert!(
            with.total_cycles < without.total_cycles,
            "FP extension should help PRank"
        );
    }

    #[test]
    #[should_panic(expected = "invalid SystemConfig")]
    fn invalid_config_rejected_at_construction() {
        let mut config = SystemConfig::tiny(PimMode::Baseline);
        config.sim.cache.l1.ways = 0;
        let _ = SystemSim::new(config);
    }

    #[test]
    fn run_with_closure_api() {
        let g = graph();
        let metrics = SystemSim::run_with(&SystemConfig::tiny(PimMode::Baseline), |fw| {
            let mut bfs = Bfs::new(0);
            bfs.run(&g, fw);
        });
        assert!(metrics.total_cycles > 0.0);
        assert!(metrics.core.instructions > 0);
    }

    /// The pre-heap scheduler, verbatim: one linear scan over all threads
    /// per op, strict `<` in increasing thread order (so clock ties keep
    /// the lowest thread index). Kept as the executable definition of the
    /// ordering contract `run_chunk` must reproduce.
    fn reference_chunk(sys: &mut SystemSim, step: &Superstep) {
        let cores = sys.cores.len();
        let mut index = vec![0usize; step.threads.len()];
        loop {
            let mut best: Option<usize> = None;
            for (t, ops) in step.threads.iter().enumerate() {
                if index[t] < ops.len() {
                    let better = match best {
                        None => true,
                        Some(b) => sys.cores[t % cores].now() < sys.cores[b % cores].now(),
                    };
                    if better {
                        best = Some(t);
                    }
                }
            }
            let Some(t) = best else { break };
            sys.process(t % cores, step.threads[t][index[t]]);
            index[t] += 1;
        }
    }

    /// Synthetic multi-chunk streams exercising uneven thread lengths,
    /// empty threads, and (for `threads > cores`) clock collisions among
    /// threads folded onto one core.
    fn synthetic_steps(threads: usize) -> Vec<Superstep> {
        use graphpim_sim::mem::addr::Region;
        let mut rng = SplitMix64::new(7);
        let mut steps = Vec::new();
        for chunk in 0..4usize {
            let mut step = Superstep::new(threads);
            for t in 0..threads {
                let count = match (t + chunk) % 4 {
                    0 => 0, // empty stream: the scheduler must skip it
                    m => 40 * m,
                };
                for _ in 0..count {
                    let addr = Region::Property.addr((rng.next_u64() % 250_000) * 8);
                    let op = match rng.next_u64() % 5 {
                        0 => TraceOp::Compute((rng.next_u64() % 8) as u32 + 1),
                        1 => TraceOp::Load {
                            addr,
                            dep: rng.next_u64().is_multiple_of(2),
                        },
                        2 => TraceOp::Store { addr },
                        3 => TraceOp::Atomic {
                            addr,
                            op: HmcAtomicOp::DualAdd8,
                            dep: false,
                        },
                        _ => TraceOp::Branch {
                            predictable: rng.next_u64().is_multiple_of(2),
                            dep: false,
                        },
                    };
                    step.threads[t].push(op);
                }
            }
            steps.push(step);
        }
        steps
    }

    /// Locks the scheduler ordering contract: the heap scheduler must
    /// produce bit-identical timing to the original linear scan at every
    /// thread/core ratio, including `threads > cores` where tie-breaks
    /// decide the interleaving. Barriers only after every second chunk so
    /// some chunks start with staggered core clocks.
    #[test]
    fn scheduler_matches_reference_scan() {
        for &cores in &[2usize, 3] {
            for threads in [cores, 2 * cores, 2 * cores + 1] {
                for mode in PimMode::ALL {
                    let mut config = SystemConfig::tiny(mode);
                    config.sim.core.cores = cores;
                    let steps = synthetic_steps(threads);
                    let mut heap_sys = SystemSim::new(config.clone());
                    let mut scan_sys = SystemSim::new(config.clone());
                    for (i, step) in steps.iter().enumerate() {
                        heap_sys.chunk(step.clone());
                        reference_chunk(&mut scan_sys, step);
                        if i % 2 == 1 {
                            heap_sys.barrier();
                            scan_sys.barrier();
                        }
                    }
                    let a = heap_sys.into_metrics();
                    let b = scan_sys.into_metrics();
                    let ctx = format!("cores={cores} threads={threads} mode={mode:?}");
                    assert_eq!(a.total_cycles.to_bits(), b.total_cycles.to_bits(), "{ctx}");
                    assert_eq!(
                        a.memory_service_cycles.to_bits(),
                        b.memory_service_cycles.to_bits(),
                        "{ctx}"
                    );
                    assert_eq!(a.total_flits(), b.total_flits(), "{ctx}");
                    assert_eq!(a.core.instructions, b.core.instructions, "{ctx}");
                    assert_eq!(a.core.mispredicts, b.core.mispredicts, "{ctx}");
                }
            }
        }
    }

    fn small_graph() -> CsrGraph {
        GraphSpec::uniform(300, 1_500).seed(9).build()
    }

    fn replay(config: &SystemConfig, source: Source<'_>) -> RunMetrics {
        SystemSim::run(config, source, Instrumentation::default()).expect("valid trace")
    }

    #[test]
    fn encoded_replay_matches_decoded_all_modes() {
        let g = small_graph();
        let threads = SystemConfig::hpca(PimMode::Baseline).sim.core.cores;
        let bytes = crate::tracestore::capture_kernel(&mut PRank::new(2), &g, threads);
        let decoded = DecodedTrace::decode(&bytes).expect("valid trace");
        for mode in PimMode::ALL {
            let config = SystemConfig::hpca(mode);
            assert_eq!(
                replay(&config, Source::Decoded(&decoded)),
                replay(&config, Source::Encoded(&bytes)),
                "mode {mode:?}"
            );
        }
    }

    #[test]
    fn corrupt_trace_is_rejected_before_simulating() {
        let config = SystemConfig::hpca(PimMode::Baseline);
        let threads = config.sim.core.cores;
        let mut bytes =
            crate::tracestore::capture_kernel(&mut Bfs::new(0), &small_graph(), threads);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        let path =
            std::env::temp_dir().join(format!("graphpim-corrupt-{}.jsonl", std::process::id()));
        let instrumentation = Instrumentation {
            trace: Some(TraceExporter::create(&path).expect("create trace")),
            ..Instrumentation::default()
        };
        assert!(SystemSim::run(&config, Source::Encoded(&bytes), instrumentation).is_err());
        // The whole-buffer checksum fails before the first frame is
        // simulated, so not even one barrier snapshot was taken.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn live_run_matches_replay_of_its_own_capture() {
        // Capture once, then replay the encoded bytes: the engine's path
        // whenever a trace stays resident in encoded form.
        let g = small_graph();
        let config = SystemConfig::hpca(PimMode::GraphPim);
        let bytes = crate::tracestore::capture_kernel(&mut Bfs::new(0), &g, config.sim.core.cores);
        let live = SystemSim::run_kernel(&mut Bfs::new(0), &g, &config);
        assert_eq!(live, replay(&config, Source::Encoded(&bytes)));
    }
}
