//! Scale-curve driver: wall time and peak RSS of a fig07-style sweep at
//! increasing LDBC sizes, with an asymptotic gate.
//!
//! ```text
//! scale_curve [--sizes 1k,10k,100k] [--check] [--out PATH]
//!
//! --sizes LIST    comma-separated LDBC sizes to run, ascending
//!                 (default: 1k,10k,100k; add 1m for the nightly tier)
//! --check         gate wall/RSS growth against edge-count growth
//! --out PATH      report path (default: BENCH_SCALE.json)
//! ```
//!
//! Each size runs in a **fresh subprocess** (the binary re-execs itself
//! with `--child <size>`), so `peak_rss_bytes` is a clean per-size
//! high-water mark (`VmHWM` from `/proc/self/status`) instead of the max
//! over every size run so far. Children use in-memory memoization only
//! (no disk run cache) plus a private, initially cold trace store that is
//! deleted afterwards — every size pays the full capture + replay sweep,
//! which is the engine's real end-to-end cost.
//!
//! The gate is asymptotic, not absolute: for each consecutive size pair,
//! wall time and peak RSS may grow at most [`GROWTH_FACTOR`] times as
//! fast as the edge count. Constant overheads (process baseline RSS,
//! startup) make small-size ratios *sub*-linear, so the gate has slack at
//! the bottom of the curve but catches superlinear blowups — an
//! accidentally quadratic loader or a decoded-trace residency regression
//! — long before the 1M tier.

use graphpim::experiments::{fig07, geomean, parse_scale, Experiments};
use graphpim::json;
use graphpim::tracestore::TraceStore;
use graphpim_graph::generate::LdbcSize;
use std::process::exit;
use std::time::Instant;

/// Allowed wall/RSS growth per unit of edge growth between consecutive
/// sizes. Simulated work is roughly linear in trace ops (∝ edges), so 3×
/// absorbs cache effects and per-size iteration-count drift while still
/// failing hard on anything quadratic.
const GROWTH_FACTOR: f64 = 3.0;

/// Wall-time gates only apply when the smaller size took at least this
/// long — below it the ratio is startup noise, not asymptotics.
const MIN_GATED_WALL: f64 = 0.2;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n\nUsage: scale_curve [--sizes 1k,10k,100k] [--check] [--out PATH]");
    exit(2)
}

struct Options {
    sizes: Vec<LdbcSize>,
    check: bool,
    out: String,
    child: Option<LdbcSize>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        sizes: vec![LdbcSize::K1, LdbcSize::K10, LdbcSize::K100],
        check: false,
        out: "BENCH_SCALE.json".to_string(),
        child: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--sizes" => {
                opts.sizes = value("--sizes")
                    .split(',')
                    .map(|s| parse_scale(s).unwrap_or_else(|e| usage(&e)))
                    .collect();
            }
            "--check" => opts.check = true,
            "--out" => opts.out = value("--out"),
            "--child" => {
                opts.child = Some(parse_scale(&value("--child")).unwrap_or_else(|e| usage(&e)))
            }
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if opts.sizes.is_empty() {
        usage("--sizes must name at least one size");
    }
    opts
}

/// The `GRAPHPIM_SCALE`-style token for a size — what `parse_scale`
/// accepts and what the report keys on (`LdbcSize::name` is the paper's
/// display label, e.g. `LDBC-1k`).
fn token(size: LdbcSize) -> &'static str {
    match size {
        LdbcSize::K1 => "1k",
        LdbcSize::K10 => "10k",
        LdbcSize::K100 => "100k",
        LdbcSize::M1 => "1m",
    }
}

/// Peak resident set of this process in bytes (`VmHWM`), or 0 when
/// `/proc` is unavailable (non-Linux dev boxes still get the wall curve).
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// One size's measurements, as reported by the child process.
struct Point {
    size: LdbcSize,
    vertices: u64,
    edges: u64,
    wall_seconds: f64,
    peak_rss_bytes: u64,
    graphpim_geomean: f64,
}

/// Child mode: run the fig07 sweep at one size and print a single JSON
/// object on stdout.
fn run_child(size: LdbcSize) -> ! {
    let store_dir = std::env::temp_dir().join(format!(
        "graphpim-scale-curve-store-{}-{}",
        std::process::id(),
        token(size)
    ));
    let _ = std::fs::remove_dir_all(&store_dir);
    let start = Instant::now();
    let ctx =
        Experiments::with_cache(size, None).with_trace_store(Some(TraceStore::at(&store_dir)));
    let rows = fig07::run(&ctx);
    let wall = start.elapsed().as_secs_f64();
    let graph = ctx.graph(size);
    let gm = geomean(rows.iter().map(|r| r.graphpim));
    let _ = std::fs::remove_dir_all(&store_dir);
    println!(
        "{{\"size\": \"{}\", \"vertices\": {}, \"edges\": {}, \"wall_seconds\": {:?}, \
         \"peak_rss_bytes\": {}, \"graphpim_geomean\": {:?}}}",
        token(size),
        graph.vertex_count(),
        graph.edge_count(),
        wall,
        peak_rss_bytes(),
        gm
    );
    exit(0)
}

/// Parent mode: spawn one child per size and collect its JSON line.
fn run_parent(sizes: &[LdbcSize]) -> Vec<Point> {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("[scale_curve] cannot locate own executable: {e}");
        exit(1);
    });
    let mut points = Vec::new();
    for &size in sizes {
        eprintln!("[scale_curve] running {} ...", token(size));
        let output = std::process::Command::new(&exe)
            .args(["--child", token(size)])
            .output()
            .unwrap_or_else(|e| {
                eprintln!("[scale_curve] cannot spawn child for {}: {e}", token(size));
                exit(1);
            });
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        if !output.status.success() {
            eprintln!(
                "[scale_curve] child for {} failed with {}",
                token(size),
                output.status
            );
            exit(1);
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let point = parse_point(size, stdout.trim()).unwrap_or_else(|| {
            eprintln!(
                "[scale_curve] cannot parse child output for {}: {stdout:?}",
                token(size)
            );
            exit(1);
        });
        eprintln!(
            "[scale_curve] {}: {} edges, {:.2}s wall, {:.1} MiB peak RSS",
            token(size),
            point.edges,
            point.wall_seconds,
            point.peak_rss_bytes as f64 / (1024.0 * 1024.0)
        );
        points.push(point);
    }
    points
}

fn parse_point(size: LdbcSize, line: &str) -> Option<Point> {
    let doc = json::parse(line)?;
    let obj = doc.as_object()?;
    let num = |key: &str| obj.get(key).and_then(|v| v.as_f64());
    Some(Point {
        size,
        vertices: num("vertices")? as u64,
        edges: num("edges")? as u64,
        wall_seconds: num("wall_seconds")?,
        peak_rss_bytes: num("peak_rss_bytes")? as u64,
        graphpim_geomean: num("graphpim_geomean")?,
    })
}

fn to_json(points: &[Point]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"graphpim-bench-scale-v1\",\n");
    out.push_str(&format!("  \"growth_factor\": {GROWTH_FACTOR:?},\n"));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"size\": \"{}\", \"vertices\": {}, \"edges\": {}, \
             \"wall_seconds\": {:?}, \"peak_rss_bytes\": {}, \"graphpim_geomean\": {:?}}}{comma}\n",
            token(p.size),
            p.vertices,
            p.edges,
            p.wall_seconds,
            p.peak_rss_bytes,
            p.graphpim_geomean
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The asymptotic gate: wall and peak RSS may grow at most
/// [`GROWTH_FACTOR`]× as fast as edges between consecutive sizes.
fn check(points: &[Point]) -> Vec<String> {
    let mut violations = Vec::new();
    for p in points {
        if p.graphpim_geomean.partial_cmp(&0.9) != Some(std::cmp::Ordering::Greater) {
            violations.push(format!(
                "{}: GraphPIM geomean speedup {:.3} is not > 0.9 — the sweep \
                 did not produce sane figure metrics",
                token(p.size),
                p.graphpim_geomean
            ));
        }
    }
    for pair in points.windows(2) {
        let (small, big) = (&pair[0], &pair[1]);
        if big.edges <= small.edges {
            violations.push(format!(
                "sizes not ascending by edge count: {} ({} edges) then {} ({} edges)",
                token(small.size),
                small.edges,
                token(big.size),
                big.edges
            ));
            continue;
        }
        let edge_ratio = big.edges as f64 / small.edges as f64;
        let allowed = GROWTH_FACTOR * edge_ratio;
        if small.wall_seconds >= MIN_GATED_WALL {
            let wall_ratio = big.wall_seconds / small.wall_seconds.max(1e-9);
            if wall_ratio > allowed {
                violations.push(format!(
                    "wall time grows superlinearly {} → {}: {:.2}s → {:.2}s \
                     ({wall_ratio:.1}x for {edge_ratio:.1}x edges; allowed {allowed:.1}x)",
                    token(small.size),
                    token(big.size),
                    small.wall_seconds,
                    big.wall_seconds
                ));
            }
        }
        if small.peak_rss_bytes > 0 && big.peak_rss_bytes > 0 {
            let rss_ratio = big.peak_rss_bytes as f64 / small.peak_rss_bytes as f64;
            if rss_ratio > allowed {
                violations.push(format!(
                    "peak RSS grows superlinearly {} → {}: {} → {} bytes \
                     ({rss_ratio:.1}x for {edge_ratio:.1}x edges; allowed {allowed:.1}x)",
                    token(small.size),
                    token(big.size),
                    small.peak_rss_bytes,
                    big.peak_rss_bytes
                ));
            }
        }
    }
    violations
}

fn main() {
    let opts = parse_args();
    if let Some(size) = opts.child {
        run_child(size);
    }
    let points = run_parent(&opts.sizes);
    if let Err(e) = std::fs::write(&opts.out, to_json(&points)) {
        eprintln!("[scale_curve] cannot write {}: {e}", opts.out);
        exit(1);
    }
    println!("wrote {} ({} sizes)", opts.out, points.len());
    if opts.check {
        let violations = check(&points);
        if violations.is_empty() {
            println!("scale gate passed (growth factor {GROWTH_FACTOR})");
        } else {
            for v in &violations {
                eprintln!("[scale_curve] VIOLATION: {v}");
            }
            eprintln!("[scale_curve] {} violation(s)", violations.len());
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1024 * 1024;

    /// A 1k point and a 10k point (10.2x the edges, so 30.6x allowed).
    fn pair(walls: (f64, f64), rss: (u64, u64)) -> [Point; 2] {
        let point = |size, edges, wall_seconds, peak_rss_bytes| Point {
            size,
            vertices: edges / 30,
            edges,
            wall_seconds,
            peak_rss_bytes,
            graphpim_geomean: 1.5,
        };
        [
            point(LdbcSize::K1, 29_000, walls.0, rss.0),
            point(LdbcSize::K10, 296_000, walls.1, rss.1),
        ]
    }

    #[test]
    fn superlinear_wall_time_is_flagged() {
        assert_eq!(check(&pair((1.0, 30.0), (MIB, MIB))), Vec::<String>::new());
        let violations = check(&pair((1.0, 40.0), (MIB, MIB)));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with("wall time grows superlinearly 1k → 10k"));
    }

    #[test]
    fn wall_pair_below_the_gated_minimum_is_skipped() {
        assert_eq!(
            check(&pair((0.19, 100.0), (MIB, MIB))),
            Vec::<String>::new()
        );
    }

    #[test]
    fn edge_counts_that_do_not_ascend_are_flagged() {
        let [small, big] = pair((1.0, 1.0), (MIB, MIB));
        let violations = check(&[big, small]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with("sizes not ascending by edge count"));
    }

    #[test]
    fn geomean_at_or_below_0_9_is_flagged() {
        let mut points = pair((1.0, 10.0), (MIB, MIB));
        points[1].graphpim_geomean = 0.9;
        let violations = check(&points);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with("10k: GraphPIM geomean speedup 0.900"));
    }

    #[test]
    fn zero_rss_skips_the_rss_check() {
        let violations = check(&pair((1.0, 10.0), (MIB, 1000 * MIB)));
        assert!(violations[0].starts_with("peak RSS grows superlinearly"));
        for rss in [(0, 1000 * MIB), (MIB, 0)] {
            assert_eq!(check(&pair((1.0, 10.0), rss)), Vec::<String>::new());
        }
    }
}
