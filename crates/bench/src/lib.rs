//! Benchmark harness crate for the GraphPIM reproduction.
//!
//! This crate exists mainly for its binaries (`src/bin/`: `figure`
//! regenerates every paper table and figure) and its Criterion benches
//! (`benches/`); the library part carries only a helper the binaries
//! share. Start with:
//!
//! ```text
//! cargo run --release -p graphpim-bench --bin figure -- all
//! cargo run --release -p graphpim-bench --bin run_kernel -- BFS --scale 10k
//! ```

use graphpim::experiments::Experiments;

/// Emits the context's trace-store summary to stderr and, when
/// `GRAPHPIM_STORE_STATS_JSON=<file>` is set, dumps the flat
/// `tracestore.*` counter document there (consumed by CI's warm-store
/// check).
pub fn report_store_stats(ctx: &Experiments) {
    let counts = ctx.profile().trace_store();
    graphpim::obs::info(
        "tracestore",
        "store summary",
        &[
            ("captures", &counts.captures),
            ("replays", &counts.replays),
            ("disk_hits", &counts.disk_hits),
            ("misses", &counts.disk_misses),
            ("corrupt", &counts.corrupt),
            ("fallbacks", &counts.replay_fallbacks),
        ],
    );
    if let Some(path) = std::env::var_os("GRAPHPIM_STORE_STATS_JSON") {
        match std::fs::write(&path, ctx.store_stats_json()) {
            Ok(()) => graphpim::obs::info(
                "tracestore",
                "stats written",
                &[("path", &path.to_string_lossy())],
            ),
            Err(e) => graphpim::obs::warn(
                "tracestore",
                "cannot write stats",
                &[("path", &path.to_string_lossy()), ("error", &e)],
            ),
        }
    }
}
