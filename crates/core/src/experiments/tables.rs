//! Tables I–VI of the paper as printable artifacts.
//!
//! These are specification tables (not measurements): the harness prints
//! them from the same data structures the simulator executes, so the
//! printed rows are guaranteed to match the implementation.

use super::{Experiments, GRAPH_SEED};
use crate::config::{PimMode, SystemConfig};
use crate::report::Table;
use graphpim_graph::generate::{GraphSpec, LdbcSize};
use graphpim_graph::stats::GraphStats;
use graphpim_sim::hmc::{HmcAtomicOp, PacketKind};
use graphpim_workloads::kernels::{full_set, Applicability, KernelParams};

/// Tables I–VI in paper order; Table VI as [`table6`] measures it.
pub fn all(ctx: &Experiments) -> [Table; 6] {
    let datasets = table6(ctx);
    [table1(), table2(), table3(), table4(), table5(), datasets]
}

/// Table I: the HMC 2.0 atomic command set.
pub fn table1() -> Table {
    let mut t = Table::new("Table I: atomic operations in HMC 2.0").header([
        "Command",
        "Category",
        "Returns data",
        "Req FLITs",
        "Resp FLITs",
    ]);
    for op in HmcAtomicOp::HMC20_SET {
        t.row([
            format!("{op:?}"),
            format!("{:?}", op.category()),
            if op.has_return() { "yes" } else { "no" }.to_string(),
            op.request_flits().to_string(),
            op.response_flits().to_string(),
        ]);
    }
    t
}

/// Table II: PIM offloading targets per workload.
pub fn table2() -> Table {
    let mut t = Table::new("Table II: summary of PIM offloading targets").header([
        "Workload",
        "Offloading target",
        "PIM-Atomic type",
    ]);
    for k in full_set(KernelParams::default()) {
        if let Some(target) = k.offload_target() {
            t.row([
                k.name().to_string(),
                target.host_instruction.to_string(),
                target.pim_atomic_type.to_string(),
            ]);
        }
    }
    t
}

/// Table III: PIM-Atomic applicability across GraphBIG.
pub fn table3() -> Table {
    let mut t = Table::new("Table III: PIM-Atomic applicability (GraphBIG)").header([
        "Category",
        "Workload",
        "Applicable?",
    ]);
    for k in full_set(KernelParams::default()) {
        let status = match k.applicability() {
            Applicability::Applicable => "yes".to_string(),
            Applicability::WithFpExtension => "no (Floating point add)".to_string(),
            Applicability::Inapplicable(reason) => format!("no ({reason})"),
        };
        t.row([k.category().to_string(), k.name().to_string(), status]);
    }
    t
}

/// Table IV: the simulated system configuration.
pub fn table4() -> Table {
    let c = SystemConfig::hpca(PimMode::Baseline).sim;
    let mut t = Table::new("Table IV: simulation configuration").header(["Component", "Value"]);
    t.row([
        "Core".to_string(),
        format!(
            "{} out-of-order cores, {} GHz, {}-issue",
            c.core.cores, c.core.clock_ghz, c.core.issue_width
        ),
    ]);
    t.row([
        "Cache".to_string(),
        format!(
            "{} KB L1, {} KB L2, {} MB shared L3, {} B lines",
            c.cache.l1.capacity_bytes / 1024,
            c.cache.l2.capacity_bytes / 1024,
            c.cache.l3.capacity_bytes / (1024 * 1024),
            c.cache.line_bytes
        ),
    ]);
    t.row([
        "HMC".to_string(),
        format!(
            "{} vaults, {} banks, {} links x {} GB/s, tCL=tRCD=tRP={} ns, tRAS={} ns",
            c.hmc.vaults,
            c.hmc.vaults * c.hmc.banks_per_vault,
            c.hmc.links,
            c.hmc.link_gbps,
            c.hmc.t_cl_ns,
            c.hmc.t_ras_ns
        ),
    ]);
    t
}

/// Table V: FLIT costs per transaction class.
pub fn table5() -> Table {
    let mut t = Table::new("Table V: HMC transaction bandwidth (FLITs)")
        .header(["Type", "Request", "Response"]);
    let rows: [(&str, PacketKind); 6] = [
        ("64-byte READ", PacketKind::Read64),
        ("64-byte WRITE", PacketKind::Write64),
        ("add without return", PacketKind::Atomic(HmcAtomicOp::Add16)),
        ("add with return", PacketKind::Atomic(HmcAtomicOp::Add16Ret)),
        (
            "boolean/bitwise/CAS",
            PacketKind::Atomic(HmcAtomicOp::CasIfEqual8),
        ),
        (
            "compare if equal",
            PacketKind::Atomic(HmcAtomicOp::CompareEqual16),
        ),
    ];
    for (name, kind) in rows {
        let f = kind.flits();
        t.row([
            name.to_string(),
            format!("{} FLITs", f.request),
            format!("{} FLITs", f.response),
        ]);
    }
    t
}

/// Table VI: the experiment datasets, with generated statistics. The
/// LDBC-1M row is measured only in a context at that scale; below it the
/// row keeps the paper's numbers. The row at the context's own scale
/// reads the context's graph, so no graph is generated twice; the others
/// are generated here and dropped.
pub fn table6(ctx: &Experiments) -> Table {
    let mut t = Table::new("Table VI: experiment datasets").header([
        "Name",
        "Vertex #",
        "Edge #",
        "Footprint",
    ]);
    for size in LdbcSize::ALL {
        if size == LdbcSize::M1 && ctx.size() != LdbcSize::M1 {
            t.row([
                size.name().to_string(),
                size.vertices().to_string(),
                format!("~{}", size.target_edges()),
                "~900 MB (paper)".to_string(),
            ]);
            continue;
        }
        let s = if size == ctx.size() {
            GraphStats::compute(&ctx.graph(size))
        } else {
            GraphStats::compute(&GraphSpec::ldbc(size).seed(GRAPH_SEED).build())
        };
        t.row([
            size.name().to_string(),
            s.vertices.to_string(),
            s.edges.to_string(),
            s.footprint_display(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_18_rows() {
        assert_eq!(table1().row_count(), 18);
    }

    #[test]
    fn table2_matches_paper_rows() {
        let t = table2();
        // Table II has six rows: BFS, DFS is not listed in the paper's
        // Table II, but our DFS also CASes; the paper's table lists 6
        // workloads and we add DFS = 7.
        assert!(t.row_count() >= 6);
        let body = t.render();
        assert!(body.contains("lock cmpxchg"));
        assert!(body.contains("CAS if equal"));
        assert!(body.contains("Signed add"));
    }

    #[test]
    fn table3_covers_all_13() {
        assert_eq!(table3().row_count(), 13);
        let body = table3().render();
        assert!(body.contains("Floating point add"));
        assert!(body.contains("Complex operation"));
        assert!(body.contains("Computation intensive"));
    }

    #[test]
    fn table5_matches_spec() {
        let body = table5().render();
        assert!(body.contains("64-byte READ"));
        assert_eq!(table5().row_count(), 6);
    }

    #[test]
    fn table6_small_sizes() {
        let t = table6(crate::experiments::testctx::k1());
        assert_eq!(t.row_count(), 4);
        assert!(t.render().contains("LDBC-1k"));
    }
}
