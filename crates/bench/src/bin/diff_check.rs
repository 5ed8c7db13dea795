//! Differential validation gate: simulator vs analytical model.
//!
//! Runs every evaluation kernel through both the interval simulator and
//! the Equation 1–2 analytic model, prints the per-kernel comparison,
//! writes a JSON report (`GRAPHPIM_DIFF_REPORT`, default
//! `diff-report.json`), and exits non-zero if the two diverge beyond the
//! documented tolerances. See `VALIDATION.md`.

use graphpim::experiments::Experiments;
use graphpim::validate::differential;
use std::path::PathBuf;

fn main() {
    let ctx = Experiments::from_env();
    eprintln!("[diff_check] running at scale {} ...", ctx.size());
    let report = differential::run(&ctx);
    println!("{}", differential::table(&report));
    println!(
        "Mean relative error (model scope): {:.2}% (tolerance {:.0}%; paper: 7.72%)",
        report.mean_error * 100.0,
        report.tolerance.mean * 100.0
    );

    let path = std::env::var_os("GRAPHPIM_DIFF_REPORT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("diff-report.json"));
    match std::fs::write(&path, report.to_json()) {
        Ok(()) => eprintln!("[diff_check] report written to {}", path.display()),
        Err(e) => eprintln!("[diff_check] failed to write {}: {e}", path.display()),
    }
    eprint!("{}", ctx.profile().summary());

    if !report.passed() {
        eprintln!("[diff_check] FAILED:");
        for f in &report.failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    eprintln!("[diff_check] all kernels within tolerance");
}
