//! The paper's evaluation as one table: every table, figure, and
//! unplotted study the harness regenerates, in paper order.
//!
//! Each [`Figure`] entry gives its run set, its human-readable text, and
//! — for the twelve figures `graphpim-serve` serves — its JSON document.
//! The `figure` binary prints from this table and the service answers
//! `GET /figures/{id}` from it, so `figure fig07 --json` and the served
//! document are **byte-identical** from one code path.
//!
//! Serialization is hand-rolled (the vendored `serde` is a no-op
//! stand-in; see `vendor/README.md`): floats use Rust's shortest
//! round-trip formatting (`{:?}`), integers exact decimal — the same
//! discipline as the [run cache](super::cache), so identical cached runs
//! render identically everywhere.

use super::{
    ablation, fig01, fig02, fig04, fig07, fig09, fig10, fig11, fig12, fig13, fig14, fig15, fig16,
    fig17, hybrid, tables, Experiments, RunKey,
};
use crate::json::quote;

/// One entry of the evaluation: a paper table or figure, or a study the
/// paper discusses without plotting.
pub struct Figure {
    /// The id `figure` (and, for served figures, the service) accepts.
    pub id: &'static str,
    /// The runs the entry reads from the context. Once they are
    /// prewarmed, `text` and the JSON document simulate nothing more
    /// through it.
    pub keys: fn(&Experiments) -> Vec<RunKey>,
    /// The human-readable text, every line newline-terminated.
    pub text: fn(&Experiments) -> String,
    json: Option<fn(&Experiments) -> Doc>,
}

/// A served figure's payload inside the shared JSON envelope: extra
/// top-level fields (each a complete `  "name": value,` line), then one
/// object per row.
struct Doc {
    fields: String,
    rows: Vec<String>,
}

/// A payload of rows alone.
fn doc(rows: impl Iterator<Item = String>) -> Doc {
    Doc {
        fields: String::new(),
        rows: rows.collect(),
    }
}

impl Figure {
    /// Whether the entry has a JSON document, i.e. is served.
    pub fn served(&self) -> bool {
        self.json.is_some()
    }

    /// The JSON document, or `None` for a text-only entry.
    pub fn json(&self, ctx: &Experiments) -> Option<String> {
        let Doc { fields, rows } = (self.json?)(ctx);
        let rows = if rows.is_empty() {
            String::new()
        } else {
            format!("\n    {}\n  ", rows.join(",\n    "))
        };
        let (id, scale) = (self.id, ctx.size().name());
        Some(format!(
            "{{\n  \"figure\": \"{id}\",\n  \"scale\": \"{scale}\",\n{fields}  \"rows\": [{rows}]\n}}"
        ))
    }
}

/// The workloads of the hybrid HMC + DRAM sweep.
const HYBRID_KERNELS: [&str; 3] = ["BFS", "DC", "CComp"];

/// Every entry, in paper order: Tables I–VI, Figures 1–17 (with Table
/// VIII), then the ablation and hybrid studies.
pub const ENTRIES: &[Figure] = &[
    Figure {
        id: "tables",
        keys: |_| Vec::new(),
        text: |ctx| tables::all(ctx).iter().map(|t| format!("{t}\n")).collect(),
        json: None,
    },
    Figure {
        id: "fig01",
        keys: fig01::keys,
        text: |ctx| format!("{}\n", fig01::table(&fig01::run(ctx))),
        json: Some(|ctx| {
            doc(fig01::run(ctx).iter().map(|r| {
                format!(
                    "{{\"workload\": {}, \"category\": \"{}\", \"ipc\": {:?}}}",
                    quote(&r.workload),
                    r.category,
                    r.ipc
                )
            }))
        }),
    },
    Figure {
        id: "fig02",
        keys: fig02::keys,
        text: |ctx| format!("{}\n", fig02::table(&fig02::run(ctx))),
        json: Some(|ctx| {
            doc(fig02::run(ctx).iter().map(|r| {
                format!(
                    "{{\"workload\": {}, \"retiring\": {:?}, \"frontend\": {:?}, \
                     \"bad_speculation\": {:?}, \"backend\": {:?}, \"l1_mpki\": {:?}, \
                     \"l2_mpki\": {:?}, \"l3_mpki\": {:?}}}",
                    quote(&r.workload),
                    r.breakdown.retiring,
                    r.breakdown.frontend,
                    r.breakdown.bad_speculation,
                    r.breakdown.backend,
                    r.l1_mpki,
                    r.l2_mpki,
                    r.l3_mpki
                )
            }))
        }),
    },
    Figure {
        id: "fig04",
        keys: fig04::keys,
        text: |ctx| format!("{}\n", fig04::table(&fig04::run(ctx))),
        json: Some(|ctx| {
            doc(fig04::run(ctx).iter().map(|r| {
                format!(
                    "{{\"workload\": {}, \"normalized_time\": {:?}}}",
                    quote(&r.workload),
                    r.normalized_time
                )
            }))
        }),
    },
    Figure {
        id: "fig07",
        keys: fig07::keys,
        text: |ctx| format!("{}\n", fig07::table(&fig07::run(ctx))),
        json: Some(|ctx| {
            doc(fig07::run(ctx).iter().map(|r| {
                format!(
                    "{{\"workload\": {}, \"upei\": {:?}, \"graphpim\": {:?}}}",
                    quote(&r.workload),
                    r.upei,
                    r.graphpim
                )
            }))
        }),
    },
    Figure {
        id: "fig09",
        keys: fig09::keys,
        text: |ctx| format!("{}\n", fig09::table(&fig09::run(ctx))),
        json: Some(|ctx| {
            doc(fig09::run(ctx).iter().map(|b| {
                format!(
                    "{{\"workload\": {}, \"mode\": \"{}\", \"atomic_incore\": {:?}, \
                     \"atomic_incache\": {:?}, \"other\": {:?}}}",
                    quote(&b.workload),
                    b.mode.label(),
                    b.atomic_incore,
                    b.atomic_incache,
                    b.other
                )
            }))
        }),
    },
    Figure {
        id: "fig10",
        keys: fig10::keys,
        text: |ctx| format!("{}\n", fig10::table(&fig10::run(ctx))),
        json: Some(|ctx| {
            doc(fig10::run(ctx).iter().map(|r| {
                format!(
                    "{{\"workload\": {}, \"miss_rate\": {:?}, \"candidates\": {}}}",
                    quote(&r.workload),
                    r.miss_rate,
                    r.candidates
                )
            }))
        }),
    },
    Figure {
        id: "fig11",
        keys: fig11::keys,
        text: |ctx| format!("{}\n", fig11::table(&fig11::run(ctx))),
        json: Some(|ctx| Doc {
            fields: format!("  \"fus\": {:?},\n", fig11::FU_SWEEP),
            ..doc(fig11::run(ctx).iter().map(|r| {
                format!(
                    "{{\"workload\": {}, \"speedups\": {:?}}}",
                    quote(&r.workload),
                    r.speedups
                )
            }))
        }),
    },
    Figure {
        id: "fig12",
        keys: fig12::keys,
        text: |ctx| format!("{}\n", fig12::table(&fig12::run(ctx))),
        json: Some(|ctx| {
            doc(fig12::run(ctx).iter().map(|b| {
                format!(
                    "{{\"workload\": {}, \"mode\": \"{}\", \"request\": {:?}, \
                     \"response\": {:?}}}",
                    quote(&b.workload),
                    b.mode.label(),
                    b.request,
                    b.response
                )
            }))
        }),
    },
    Figure {
        id: "fig13",
        keys: fig13::keys,
        text: |ctx| format!("{}\n", fig13::table(&fig13::run(ctx))),
        json: Some(|ctx| Doc {
            fields: format!("  \"bw_tenths\": {:?},\n", fig13::BW_SWEEP),
            ..doc(fig13::run(ctx).iter().map(|r| {
                format!(
                    "{{\"workload\": {}, \"baseline\": {:?}, \"graphpim\": {:?}}}",
                    quote(&r.workload),
                    r.baseline,
                    r.graphpim
                )
            }))
        }),
    },
    Figure {
        id: "fig14",
        keys: fig14::keys,
        text: |ctx| {
            let cells = fig14::run(ctx);
            format!("{}\n{}\n", fig14::table_a(&cells), fig14::table_b(&cells))
        },
        json: Some(|ctx| {
            doc(fig14::run(ctx).iter().map(|c| {
                format!(
                    "{{\"workload\": {}, \"size\": \"{}\", \
                     \"improvement_over_upei\": {:?}, \"speedup_over_baseline\": {:?}}}",
                    quote(&c.workload),
                    c.size.name(),
                    c.improvement_over_upei,
                    c.speedup_over_baseline
                )
            }))
        }),
    },
    Figure {
        id: "fig15",
        keys: fig15::keys,
        text: |ctx| {
            let bars = fig15::run(ctx);
            format!(
                "{}\nAverage normalized GraphPIM uncore energy: {:.2} (paper: 0.63)\n",
                fig15::table(&bars),
                fig15::average_graphpim_energy(&bars)
            )
        },
        json: Some(|ctx| {
            doc(fig15::run(ctx).iter().map(|b| {
                format!(
                    "{{\"workload\": {}, \"mode\": \"{}\", \"caches\": {:?}, \
                     \"hmc_link\": {:?}, \"hmc_fu\": {:?}, \"hmc_logic\": {:?}, \
                     \"hmc_dram\": {:?}}}",
                    quote(&b.workload),
                    b.mode.label(),
                    b.energy.caches,
                    b.energy.hmc_link,
                    b.energy.hmc_fu,
                    b.energy.hmc_logic,
                    b.energy.hmc_dram
                )
            }))
        }),
    },
    Figure {
        id: "fig16",
        keys: fig16::keys,
        text: |ctx| {
            let rows = fig16::run(ctx);
            format!(
                "{}\nMean relative error: {:.2}% (paper: 7.72%)\n",
                fig16::table(&rows),
                fig16::mean_error(&rows) * 100.0
            )
        },
        json: Some(|ctx| {
            doc(fig16::run(ctx).iter().map(|r| {
                format!(
                    "{{\"workload\": {}, \"simulated\": {:?}, \"analytical\": {:?}}}",
                    quote(&r.workload),
                    r.simulated,
                    r.analytical
                )
            }))
        }),
    },
    // A standalone design-space sweep over its own RMAT stand-in graphs
    // (`GRAPHPIM_APP_SCALE`), not over the shared context.
    Figure {
        id: "fig17",
        keys: |_| Vec::new(),
        text: |_| {
            let apps = fig17::run();
            format!("{}\n{}\n", fig17::table8(&apps), fig17::table17(&apps))
        },
        json: None,
    },
    Figure {
        id: "ablation",
        keys: |_| Vec::new(),
        text: |ctx| format!("{}\n", ablation::table(&ablation::run(ctx))),
        json: None,
    },
    Figure {
        id: "hybrid",
        keys: |ctx| hybrid::keys(ctx, &HYBRID_KERNELS),
        text: |ctx| format!("{}\n", hybrid::table(&hybrid::run(ctx, &HYBRID_KERNELS))),
        json: None,
    },
];

/// Ids of the served figures (the entries with a JSON document), in
/// paper order: what `GET /figures` lists.
pub const FIGURES: [&str; 12] = {
    let mut ids = [""; 12];
    let (mut i, mut n) = (0, 0);
    while i < ENTRIES.len() {
        if ENTRIES[i].json.is_some() {
            ids[n] = ENTRIES[i].id;
            n += 1;
        }
        i += 1;
    }
    assert!(n == ids.len(), "FIGURES has one slot per served entry");
    ids
};

fn served(fig: &str) -> Option<&'static Figure> {
    ENTRIES.iter().find(|f| f.id == fig && f.served())
}

/// The run set served figure `fig` needs (for prewarming, sweep
/// submission, and cached-figure probes), or `None` if `fig` is not a
/// served figure.
pub fn figure_keys(fig: &str, ctx: &Experiments) -> Option<Vec<RunKey>> {
    served(fig).map(|f| (f.keys)(ctx))
}

/// Runs (or recalls) served figure `fig` and renders it as one JSON
/// document, or `None` if `fig` is not a served figure. Deterministic
/// for a given set of run results — see the module docs.
pub fn figure_json(fig: &str, ctx: &Experiments) -> Option<String> {
    served(fig)?.json(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::testctx;
    use crate::json;
    use graphpim_graph::generate::LdbcSize;

    #[test]
    fn entries_are_unique_and_in_paper_order() {
        let ids: Vec<&str> = ENTRIES.iter().map(|f| f.id).collect();
        assert_eq!(
            ids,
            [
                "tables", "fig01", "fig02", "fig04", "fig07", "fig09", "fig10", "fig11", "fig12",
                "fig13", "fig14", "fig15", "fig16", "fig17", "ablation", "hybrid"
            ]
        );
    }

    #[test]
    fn served_figures_are_unchanged() {
        // `GET /figures` lists exactly these, in this order.
        assert_eq!(
            FIGURES,
            [
                "fig01", "fig02", "fig04", "fig07", "fig09", "fig10", "fig11", "fig12", "fig13",
                "fig14", "fig15", "fig16"
            ]
        );
    }

    #[test]
    fn text_only_and_unknown_ids_are_not_served() {
        let ctx = testctx::k1();
        for fig in ["tables", "fig17", "ablation", "hybrid", "all", "fig99"] {
            assert!(figure_keys(fig, ctx).is_none(), "{fig} has no served keys");
            assert!(figure_json(fig, ctx).is_none(), "{fig} has no JSON");
        }
    }

    #[test]
    fn every_figure_id_has_keys() {
        let ctx = testctx::k1();
        for fig in FIGURES {
            let keys = figure_keys(fig, ctx).unwrap_or_else(|| panic!("{fig} must have keys"));
            assert!(!keys.is_empty(), "{fig} needs at least one run");
        }
    }

    #[test]
    fn fig07_json_parses_and_is_deterministic() {
        let ctx = testctx::k1();
        let a = figure_json("fig07", ctx).expect("fig07 renders");
        let b = figure_json("fig07", ctx).expect("fig07 renders");
        assert_eq!(a, b, "same context, same bytes");
        let doc = json::parse(&a).expect("figure output must parse");
        let obj = doc.as_object().unwrap();
        assert_eq!(obj.get("figure").unwrap().as_str(), Some("fig07"));
        assert_eq!(obj.get("scale").unwrap().as_str(), Some("LDBC-1k"));
        let rows = obj.get("rows").unwrap().as_array().unwrap();
        // Eight workloads plus the geomean "Average" row.
        assert_eq!(rows.len(), 9);
        let last = rows.last().unwrap().as_object().unwrap();
        assert_eq!(last.get("workload").unwrap().as_str(), Some("Average"));
        assert!(last.get("graphpim").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn fig04_and_fig10_json_parse() {
        // Figures that reuse fig07's three-mode runs are cheap once the
        // shared context is warm; fig04 adds the plain-atomics variant.
        let ctx = testctx::k1();
        for fig in ["fig04", "fig10"] {
            let doc = figure_json(fig, ctx).unwrap();
            let parsed = json::parse(&doc).unwrap_or_else(|| panic!("{fig} must parse: {doc}"));
            let rows = parsed.as_object().unwrap().get("rows").unwrap();
            assert!(!rows.as_array().unwrap().is_empty(), "{fig} has rows");
        }
    }

    /// The run sets are complete: once their union is prewarmed, every
    /// entry renders from memo without looking up another run. The memo
    /// table's size is the witness, not the simulation counter: a run
    /// missing from a run set but present in the disk cache would load
    /// without simulating. A dedicated context, so no concurrent test
    /// adds runs to it.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn prewarmed_run_sets_cover_every_entry() {
        let ctx = Experiments::at_scale(LdbcSize::K1);
        ctx.prewarm(ENTRIES.iter().flat_map(|f| (f.keys)(&ctx)));
        let prewarmed = ctx.cached_runs();
        for entry in ENTRIES {
            assert!((entry.text)(&ctx).ends_with('\n'), "{}", entry.id);
            assert_eq!(entry.json(&ctx).is_some(), entry.served(), "{}", entry.id);
            assert_eq!(
                ctx.cached_runs(),
                prewarmed,
                "{} looked up a run outside its run set",
                entry.id
            );
        }
    }
}
