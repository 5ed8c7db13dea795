#![warn(missing_docs)]

//! GraphPIM: instruction-level PIM offloading for graph frameworks.
//!
//! This crate assembles the full stack the paper proposes (Nai et al.,
//! HPCA 2017): the PIM memory region + `pmr_malloc` convention (provided by
//! the framework layer in `graphpim-workloads`), the per-core **PIM
//! offloading unit** ([`pou`]) that turns host atomics on PMR addresses into
//! HMC atomic commands, and the three evaluated system configurations
//! (Section IV-A):
//!
//! * **Baseline** — conventional host atomics, HMC as plain main memory;
//! * **U-PEI** — idealized PEI-style locality-aware offloading (cache hits
//!   execute host-side at cache latency, misses offload, coherence free);
//! * **GraphPIM** — PMR accesses bypass the cache hierarchy; atomics
//!   offload to the per-vault functional units.
//!
//! [`system::SystemSim`] drives kernel traces through the
//! `graphpim-sim` substrate and produces [`metrics::RunMetrics`];
//! [`analytic`] implements the paper's CPI model (Equations 1–2);
//! [`energy`] the uncore energy breakdown (Figure 15);
//! [`experiments`] one driver per paper table/figure;
//! [`telemetry`] the JSONL event-trace exporter behind
//! `GRAPHPIM_TRACE_DIR`; and [`validate`] the validation layer —
//! config checking, per-run conservation invariants (default-on in
//! tests via `GRAPHPIM_VALIDATE`), and the sim-vs-analytic differential
//! harness.
//!
//! # Example
//!
//! ```
//! use graphpim::config::{PimMode, SystemConfig};
//! use graphpim::system::SystemSim;
//! use graphpim_graph::generate::GraphSpec;
//! use graphpim_workloads::kernels::Bfs;
//!
//! let graph = GraphSpec::uniform(200, 1000).seed(1).build();
//! let base = SystemSim::run_kernel(
//!     &mut Bfs::new(0), &graph, &SystemConfig::hpca(PimMode::Baseline));
//! let pim = SystemSim::run_kernel(
//!     &mut Bfs::new(0), &graph, &SystemConfig::hpca(PimMode::GraphPim));
//! assert!(pim.total_cycles > 0.0 && base.total_cycles > 0.0);
//! ```

pub mod analytic;
pub mod config;
pub mod energy;
pub mod experiments;
pub mod fingerprint;
pub mod metrics;
pub mod obs;
pub mod perfetto;
pub mod pou;
pub mod report;
pub mod system;
pub mod telemetry;
pub mod tracestore;
pub mod validate;
