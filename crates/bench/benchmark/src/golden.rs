//! Per-run goldens: the simulated counters every benchmark run must
//! reproduce exactly.
//!
//! The files under `golden/` were written by `benchmark golden` and are
//! compiled into the binary. A mismatch means the simulator's results
//! moved, which no host-side performance change may do.

use graphpim::experiments::cache::json;
use graphpim::experiments::Experiments;
use graphpim::metrics::RunMetrics;
use graphpim::tracestore::TraceStore;
use std::fmt::Write as _;

/// Relative tolerance on `total_cycles` (the only float): the simulator
/// is deterministic, so this only absorbs decimal round-tripping.
const CYCLES_RTOL: f64 = 1e-9;

/// The checked counters of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// End-to-end simulated cycles.
    pub total_cycles: f64,
    /// Retired instructions, summed over cores.
    pub instructions: u64,
    /// Atomics the cores sent to the HMC.
    pub pim_atomics: u64,
    /// HMC reads + writes + atomics.
    pub hmc_requests: u64,
    /// Request + response FLITs on the links.
    pub total_flits: u64,
}

impl Record {
    /// The checked counters of `m`.
    pub fn of(m: &RunMetrics) -> Record {
        Record {
            total_cycles: m.total_cycles,
            instructions: m.core.instructions,
            pim_atomics: m.core.pim_atomics,
            hmc_requests: m.hmc.reads + m.hmc.writes + m.hmc.atomics,
            total_flits: m.total_flits(),
        }
    }

    /// The run key and checked counters of a `GET /counters/{stem}` body.
    pub fn from_counters_json(body: &str) -> Option<(String, Record)> {
        let doc = json::parse(body)?;
        let top = doc.as_object()?;
        let core = top.get("core")?.as_object()?;
        let hmc = top.get("hmc")?.as_object()?;
        let u = |name: &str| hmc.get(name).and_then(json::Value::as_u64);
        let flits = [
            "request_flits_read",
            "request_flits_write",
            "request_flits_atomic",
            "response_flits_read",
            "response_flits_write",
            "response_flits_atomic",
        ]
        .iter()
        .map(|f| u(f))
        .sum::<Option<u64>>()?;
        Some((
            top.get("key")?.as_str()?.to_string(),
            Record {
                total_cycles: top.get("total_cycles")?.as_f64()?,
                instructions: core.get("instructions")?.as_u64()?,
                pim_atomics: core.get("pim_atomics")?.as_u64()?,
                hmc_requests: u("reads")? + u("writes")? + u("atomics")?,
                total_flits: flits,
            },
        ))
    }

    /// `Err` naming the first counter of `self` that differs from
    /// `expected`.
    pub fn check(&self, expected: &Record) -> Result<(), String> {
        let rel = (self.total_cycles - expected.total_cycles).abs()
            / expected.total_cycles.abs().max(f64::MIN_POSITIVE);
        if rel.is_nan() || rel > CYCLES_RTOL {
            return Err(format!(
                "total_cycles {:?} != golden {:?}",
                self.total_cycles, expected.total_cycles
            ));
        }
        for (name, got, want) in [
            ("instructions", self.instructions, expected.instructions),
            ("pim_atomics", self.pim_atomics, expected.pim_atomics),
            ("hmc_requests", self.hmc_requests, expected.hmc_requests),
            ("total_flits", self.total_flits, expected.total_flits),
        ] {
            if got != want {
                return Err(format!("{name} {got} != golden {want}"));
            }
        }
        Ok(())
    }
}

/// The golden records of one run set, keyed by run-key stem.
#[derive(Debug, Clone, PartialEq)]
pub struct Golden {
    runs: Vec<(String, Record)>,
}

impl Golden {
    /// The compiled-in golden file `name`.
    pub fn load(name: &str) -> Golden {
        let text = match name {
            "fig07-1k" => include_str!("../golden/fig07-1k.json"),
            "mem-100k" => include_str!("../golden/mem-100k.json"),
            other => panic!("no golden file {other}"),
        };
        Golden::parse(text).unwrap_or_else(|| panic!("golden/{name}.json does not parse"))
    }

    fn parse(text: &str) -> Option<Golden> {
        let doc = json::parse(text)?;
        let runs = match doc.as_object()?.get("runs")? {
            json::Value::Object(fields) => fields,
            _ => return None,
        };
        let runs = runs
            .iter()
            .map(|(stem, v)| {
                let r = v.as_object()?;
                let u = |name: &str| r.get(name).and_then(json::Value::as_u64);
                Some((
                    stem.clone(),
                    Record {
                        total_cycles: r.get("total_cycles")?.as_f64()?,
                        instructions: u("instructions")?,
                        pim_atomics: u("pim_atomics")?,
                        hmc_requests: u("hmc_requests")?,
                        total_flits: u("total_flits")?,
                    },
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Golden { runs })
    }

    /// Checks `got` for the run `stem`.
    pub fn check(&self, stem: &str, got: &Record) -> Result<(), String> {
        match self.runs.iter().find(|(s, _)| s == stem) {
            Some((_, want)) => got.check(want).map_err(|e| format!("{stem}: {e}")),
            None => Err(format!("{stem}: no golden record")),
        }
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"runs\": {\n");
        for (i, (stem, r)) in self.runs.iter().enumerate() {
            let _ = write!(
                s,
                "    \"{stem}\": {{\"total_cycles\": {:?}, \"instructions\": {}, \
                 \"pim_atomics\": {}, \"hmc_requests\": {}, \"total_flits\": {}}}",
                r.total_cycles, r.instructions, r.pim_atomics, r.hmc_requests, r.total_flits
            );
            s.push_str(if i + 1 < self.runs.len() { ",\n" } else { "\n" });
        }
        s.push_str("  }\n}\n");
        s
    }
}

/// `benchmark golden`: re-simulates every golden run set on a cold
/// context and rewrites `golden/`. Only for a deliberate change to the
/// simulated model; a host-side optimization must leave the files as
/// they are.
pub fn regenerate() -> i32 {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    let mut written = Vec::new();
    for w in &crate::workloads::WORKLOADS {
        if written.contains(&w.golden) {
            continue;
        }
        let store = crate::scratch_dir(&format!("golden-{}", w.golden));
        let ctx =
            Experiments::with_cache(w.size, None).with_trace_store(Some(TraceStore::at(&store)));
        let keys = w.keys();
        ctx.prewarm(keys.clone());
        let golden = Golden {
            runs: keys
                .iter()
                .map(|k| (k.file_stem(), Record::of(&ctx.metrics_for(k))))
                .collect(),
        };
        let _ = std::fs::remove_dir_all(&store);
        let path = dir.join(format!("{}.json", w.golden));
        if let Err(e) = std::fs::write(&path, golden.to_json()) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return 1;
        }
        eprintln!("benchmark: wrote {}", path.display());
        written.push(w.golden);
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goldens_round_trip_and_cover_their_run_sets() {
        for w in &crate::workloads::WORKLOADS {
            let g = Golden::load(w.golden);
            assert_eq!(Golden::parse(&g.to_json()), Some(g.clone()));
            for key in w.keys() {
                let stem = key.file_stem();
                let (_, r) = g.runs.iter().find(|(s, _)| *s == stem).expect("covered");
                assert_eq!(g.check(&stem, r), Ok(()));
            }
        }
    }

    #[test]
    fn golden_check_flags_one_perturbed_value() {
        let g = Golden::load("fig07-1k");
        let (stem, exact) = g.runs[0].clone();
        let mut near = exact;
        near.total_cycles *= 1.0 + 1e-12;
        assert_eq!(g.check(&stem, &near), Ok(()), "decimal round-off passes");
        let mut cycles = exact;
        cycles.total_cycles *= 1.0 + 1e-6;
        assert!(g
            .check(&stem, &cycles)
            .unwrap_err()
            .contains("total_cycles"));
        let mut flits = exact;
        flits.total_flits += 1;
        assert!(g.check(&stem, &flits).unwrap_err().contains("total_flits"));
        let mut atomics = exact;
        atomics.pim_atomics += 1;
        assert!(g
            .check(&stem, &atomics)
            .unwrap_err()
            .contains("pim_atomics"));
        assert!(g.check("no-such-run", &exact).is_err());
    }
}
