//! Regenerates the paper's evaluation: `figure <id>... [--json]`.
//!
//! The ids are the entries of `figjson::ENTRIES`, in paper order:
//! `tables` (Tables I–VI), `fig01` … `fig17` (Figure 17 with Table
//! VIII), `ablation` and `hybrid`; `all` names every entry. The named
//! entries' run sets are prewarmed together across the worker pool, so a
//! run two figures share is simulated once; then each entry prints, in
//! paper order. With `--json`, each served figure prints its document
//! instead, byte-identical to `GET /figures/<id>` on `graphpim-serve`.
//!
//! Scale, run cache, trace store and tracing follow the usual
//! environment knobs (README.md). At the end, the simulation counts and
//! the engine-profiling summary (trace-store counts included) go to
//! stderr; `GRAPHPIM_PROFILE_JSON=<file>` also dumps the profile as JSON.

use graphpim::experiments::figjson::{Figure, ENTRIES, FIGURES};
use graphpim::experiments::Experiments;
use std::process::ExitCode;

fn main() -> ExitCode {
    let (flags, ids): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a == "--json");
    let json = !flags.is_empty();
    let selected = match select(&ids, json) {
        Ok(selected) => selected,
        Err(problem) => {
            let ids: Vec<_> = ENTRIES.iter().map(|f| f.id).collect();
            eprintln!(
                "figure: {problem}\nusage: figure <id>... [--json]\n  ids: {}, or all\n  --json: {}",
                ids.join(" "),
                FIGURES.join(" ")
            );
            return ExitCode::from(2);
        }
    };

    let ctx = Experiments::from_env();
    eprintln!("[figure] scale {}", ctx.size());
    ctx.prewarm(selected.iter().flat_map(|f| (f.keys)(&ctx)));
    for entry in selected {
        if json {
            let doc = entry.json(&ctx).expect("select admits only served figures");
            println!("{doc}");
        } else {
            print!("{}", (entry.text)(&ctx));
        }
    }

    eprintln!(
        "[figure] simulations executed: {}, disk-cache hits: {}, distinct runs: {}",
        ctx.simulations_executed(),
        ctx.disk_cache_hits(),
        ctx.cached_runs()
    );
    // The summary warns about failed trace exports, too.
    let profile = ctx.profile();
    eprint!("{}", profile.summary());
    if let Some(path) = std::env::var_os("GRAPHPIM_PROFILE_JSON") {
        match std::fs::write(&path, profile.to_json()) {
            Ok(()) => eprintln!("[profile] written to {}", path.to_string_lossy()),
            Err(e) => eprintln!("[profile] cannot write {}: {e}", path.to_string_lossy()),
        }
    }
    ExitCode::SUCCESS
}

/// The entries `ids` name, in paper order, each once.
fn select(ids: &[String], json: bool) -> Result<Vec<&'static Figure>, String> {
    if ids.is_empty() {
        return Err("no id given".to_string());
    }
    if let Some(id) = ids
        .iter()
        .find(|id| *id != "all" && !ENTRIES.iter().any(|f| f.id == *id))
    {
        return Err(format!("unknown id '{id}'"));
    }
    let selected: Vec<_> = ENTRIES
        .iter()
        .filter(|f| ids.iter().any(|id| id == "all" || id == f.id))
        .collect();
    if let Some(f) = selected.iter().find(|f| json && !f.served()) {
        return Err(format!("'{}' has no JSON document", f.id));
    }
    Ok(selected)
}
