//! Measurement outcomes, the JSON report, and `benchmark compare`.

use crate::metrics::{Better, Metric, END_TO_END, HOST, PER_LAYER, WITNESS};
use crate::stats::Summary;
use graphpim::experiments::cache::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Failure messages kept per outcome; the counts stay exact.
const MAX_MESSAGES: usize = 20;

/// Samples and correctness checks of one measurement (a child process,
/// or a whole workload once its children are merged).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Outcome {
    /// Metric name → samples (one per sweep repetition, or a single value).
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Checked operations: sweep runs against goldens, served requests.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Adds one sample of `name`.
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Sets `name` to a single value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.samples.insert(name.to_string(), vec![value]);
    }

    /// Counts one checked operation.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = result {
            self.failed += 1;
            if self.failures.len() < MAX_MESSAGES {
                self.failures.push(message);
            }
        }
    }

    /// Folds `other` in (samples of the same metric concatenate).
    pub fn merge(&mut self, other: Outcome) {
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_MESSAGES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    /// Median and quartiles of `name`'s finite samples, if any.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        let values: Vec<f64> = self
            .samples
            .get(name)?
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        (!values.is_empty()).then(|| Summary::of(&values))
    }

    /// One-line JSON form (how a child hands its outcome to the parent).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"samples\": {");
        for (i, (name, values)) in self.samples.iter().enumerate() {
            let values: Vec<String> = values.iter().map(|v| number(*v)).collect();
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(s, "{sep}\"{name}\": [{}]", values.join(", "));
        }
        let _ = write!(
            s,
            "}}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}]}}",
            self.attempted,
            self.failed,
            quoted(&self.failures)
        );
        s
    }

    /// Parses [`to_json`](Self::to_json) output.
    pub fn parse(text: &str) -> Option<Outcome> {
        let doc = json::parse(text)?;
        let top = doc.as_object()?;
        let json::Value::Object(fields) = top.get("samples")? else {
            return None;
        };
        let samples = fields
            .iter()
            .map(|(name, values)| {
                let values = values
                    .as_array()?
                    .iter()
                    .map(|v| v.as_f64().or(v.as_str().map(|_| f64::NAN)))
                    .collect::<Option<Vec<f64>>>()?;
                Some((name.clone(), values))
            })
            .collect::<Option<BTreeMap<_, _>>>()?;
        Some(Outcome {
            samples,
            attempted: top.get("attempted")?.as_u64()?,
            failed: top.get("failed")?.as_u64()?,
            failures: top
                .get("failures")?
                .as_array()?
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect(),
        })
    }
}

/// A float as JSON: every digit (shortest round-trip form), or a string
/// for the non-finite values JSON cannot hold.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("\"{v}\"")
    }
}

/// Comma-separated JSON strings, escaped for the in-tree parser (which
/// understands `\"` and `\\` only).
fn quoted(items: &[String]) -> String {
    items
        .iter()
        .map(|m| {
            let clean: String = m
                .chars()
                .map(|c| if c.is_control() { ' ' } else { c })
                .collect();
            format!("\"{}\"", clean.replace('\\', "\\\\").replace('"', "\\\""))
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// One workload's merged outcome.
#[derive(Debug)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// Every sample and check of the workload's children.
    pub outcome: Outcome,
}

impl WorkloadResult {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.outcome.failed == 0 && self.outcome.attempted > 0
    }

    /// Human-readable metric table, end-to-end first.
    pub fn table(&self, traced: bool) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== {}: {} of {} checked operations failed (error_rate {:.6})",
            self.name,
            self.outcome.failed,
            self.outcome.attempted,
            self.outcome.failed as f64 / self.outcome.attempted.max(1) as f64
        );
        for message in &self.outcome.failures {
            let _ = writeln!(s, "   FAILED: {message}");
        }
        let layers: &[Metric] = if traced { &PER_LAYER } else { &[] };
        let names = END_TO_END
            .iter()
            .chain(&HOST)
            .chain(layers)
            .map(|m| m.name)
            .chain(WITNESS.iter().copied());
        for name in names {
            if let Some(sum) = self.outcome.summary(name) {
                let _ = writeln!(
                    s,
                    "   {name:<27} {:>14.4} {:<9} [{:.4} .. {:.4}] n={}",
                    sum.median,
                    crate::metrics::unit(name),
                    sum.q1,
                    sum.q3,
                    sum.n
                );
            }
        }
        s
    }
}

/// The report file: every workload's metrics with quartiles.
pub fn report_json(results: &[WorkloadResult], header: &[(&str, String)]) -> String {
    let mut s = String::from("{\n  \"schema\": \"graphpim-benchmark-v1\",\n");
    for (key, value) in header {
        let _ = writeln!(s, "  \"{key}\": {value},");
    }
    s.push_str("  \"workloads\": {\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            s,
            "    \"{}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"failures\": [{}], \"metrics\": {{",
            r.name,
            r.correct(),
            r.outcome.attempted,
            r.outcome.failed,
            quoted(&r.outcome.failures)
        );
        let metrics: Vec<String> = r
            .outcome
            .samples
            .keys()
            .filter_map(|name| {
                let sum = r.outcome.summary(name)?;
                Some(format!(
                    "\n      \"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"q1\": {}, \
                     \"q3\": {}, \"n\": {}}}",
                    number(sum.median),
                    crate::metrics::unit(name),
                    number(sum.q1),
                    number(sum.q3),
                    sum.n
                ))
            })
            .collect();
        s.push_str(&metrics.join(","));
        s.push_str(if i + 1 < results.len() {
            "}},\n"
        } else {
            "}}\n"
        });
    }
    s.push_str("  }\n}\n");
    s
}

/// The final stdout line: `correct`, `attempted`, `failed` and the
/// selected metrics (prefixed `workload/` when several workloads ran),
/// with its `correct` flag. A metric the run failed to produce makes the
/// run incorrect.
pub fn result_line(results: &[WorkloadResult], metrics: &[Metric]) -> (bool, String) {
    let prefix = results.len() > 1;
    let mut correct = !results.is_empty();
    let mut entries = Vec::new();
    for r in results {
        correct &= r.correct();
        for m in metrics {
            let key = if prefix {
                format!("{}/{}", r.name, m.name)
            } else {
                m.name.to_string()
            };
            match r.outcome.summary(m.name) {
                Some(sum) => entries.push(format!(
                    "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    number(sum.median),
                    m.unit
                )),
                None => correct = false,
            }
        }
    }
    let attempted: u64 = results.iter().map(|r| r.outcome.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.outcome.failed).sum();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        entries.join(", ")
    );
    (correct, line)
}

/// A compare verdict for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B beats A by more than the bound (or every B run beats every A run).
    Better,
    /// B is worse than A by more than the bound.
    Worse,
    /// The medians differ by no more than the bound.
    Unchanged,
    /// A side's quartile spread is wider than the bound.
    Unresolved,
}

/// Judges metric `m` from A's run values to B's (choosing-metrics §6.5):
/// a spread wider than the bound leaves the row unresolved unless every
/// B run beats every A run.
pub fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let beats = |x: f64, y: f64| match m.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    if sa.spread() > bound || sb.spread() > bound {
        let all = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
        return if all {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = match m.better {
        Better::Lower => (sb.median - sa.median) / sa.median,
        Better::Higher => (sa.median - sb.median) / sa.median,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// A loaded report: workload → (metric → value, failed, attempted).
type Loaded = BTreeMap<String, (BTreeMap<String, f64>, u64, u64)>;

fn load(path: &str) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).ok_or_else(|| format!("{path}: not JSON"))?;
    let bad = || format!("{path}: not a benchmark report");
    let top = doc.as_object().ok_or_else(bad)?;
    let json::Value::Object(workloads) = top.get("workloads").ok_or_else(bad)? else {
        return Err(bad());
    };
    let mut out = Loaded::new();
    for (name, w) in workloads {
        let w = w.as_object().ok_or_else(bad)?;
        let json::Value::Object(metrics) = w.get("metrics").ok_or_else(bad)? else {
            return Err(bad());
        };
        let values = metrics
            .iter()
            .filter_map(|(m, v)| Some((m.clone(), v.as_object()?.get("value")?.as_f64()?)))
            .collect();
        let count = |k: &str| w.get(k).and_then(json::Value::as_u64).unwrap_or(0);
        out.insert(name.clone(), (values, count("failed"), count("attempted")));
    }
    Ok(out)
}

/// `benchmark compare A.json[,A2.json..] B.json[,B2.json..]`: per
/// workload and end-to-end metric, both sides' medians and quartiles over
/// their reports, and a verdict. Exits 1 when anything is worse.
pub fn compare(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: benchmark compare A.json[,A2.json...] B.json[,B2.json...]");
        return 2;
    };
    let side = |list: &str| -> Result<Vec<Loaded>, String> { list.split(',').map(load).collect() };
    let (a, b) = match (side(a), side(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return 2;
        }
    };
    let mut worse = 0;
    let workloads: std::collections::BTreeSet<&String> = a
        .iter()
        .flat_map(|r| r.keys())
        .filter(|w| b.iter().any(|r| r.contains_key(*w)))
        .collect();
    println!(
        "{:<10} {:<17} {:<9} {:>30} {:>30} {:>8}  verdict",
        "workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "change"
    );
    for w in workloads {
        for m in &END_TO_END {
            let values = |side: &[Loaded]| -> Vec<f64> {
                side.iter()
                    .filter_map(|r| r.get(w)?.0.get(m.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(m, &va, &vb);
            worse += usize::from(v == Verdict::Worse);
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let cell = |s: Summary| format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, s.n);
            println!(
                "{w:<10} {:<17} {:<9} {:>30} {:>30} {:>+7.1}%  {v:?} (bound {:.0}%)",
                m.name,
                m.unit,
                cell(sa),
                cell(sb),
                100.0 * (sb.median - sa.median) / sa.median,
                100.0 * m.bound.unwrap_or(0.0)
            );
        }
        let rate = |side: &[Loaded]| {
            let (f, n) = side
                .iter()
                .filter_map(|r| r.get(w))
                .fold((0, 0), |acc, (_, f, n)| (acc.0 + f, acc.1 + n));
            f as f64 / n.max(1) as f64
        };
        let (ra, rb) = (rate(&a), rate(&b));
        let v = if rb > ra {
            Verdict::Worse
        } else {
            Verdict::Unchanged
        };
        worse += usize::from(v == Verdict::Worse);
        println!(
            "{w:<10} {:<17} {:<9} {ra:>30.6} {rb:>30.6} {:>8}  {v:?}",
            "error_rate", "ratio", ""
        );
    }
    i32::from(worse > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> Metric {
        *crate::metrics::find(name).unwrap()
    }

    #[test]
    fn compare_verdicts() {
        let rss = metric("peak_rss_mb"); // lower is better, bound 5%
        let rps = metric("serve_rps"); // higher is better, bound 20%
        let a = [10.0, 10.01, 9.99, 10.005, 9.995];
        assert_eq!(verdict(&rss, &a, &a), Verdict::Unchanged);
        let up = |f: f64| -> Vec<f64> { a.iter().map(|v| v * f).collect() };
        assert_eq!(verdict(&rss, &a, &up(1.2)), Verdict::Worse);
        assert_eq!(verdict(&rss, &up(1.2), &a), Verdict::Better);
        assert_eq!(verdict(&rss, &a, &up(1.03)), Verdict::Unchanged);
        // For a higher-is-better metric a drop is the regression, judged
        // against its own bound.
        assert_eq!(verdict(&rps, &up(1.1), &a), Verdict::Unchanged);
        assert_eq!(verdict(&rss, &up(1.1), &a), Verdict::Better);
        assert_eq!(verdict(&rps, &up(1.5), &a), Verdict::Worse);
        assert_eq!(verdict(&rps, &a, &up(1.5)), Verdict::Better);
        // A spread wider than the bound is unresolved ...
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(verdict(&rss, &noisy, &a), Verdict::Unresolved);
        // ... unless every B run beats every A run.
        let small = [5.0, 6.0, 7.0];
        assert_eq!(verdict(&rss, &noisy, &small), Verdict::Better);
    }

    #[test]
    fn outcome_round_trips_and_merges() {
        let mut o = Outcome::default();
        o.sample("sweep_s", 1.25);
        o.sample("sweep_s", 1.5);
        o.set("peak_rss_mb", 280.0);
        o.check(Ok(()));
        o.check(Err("a \"quoted\" \\ failure\nwith a newline".into()));
        o.sample("trace.overhead_pct", f64::NAN);
        let back = Outcome::parse(&o.to_json()).expect("parses");
        assert_eq!(back.samples["sweep_s"], vec![1.25, 1.5]);
        assert_eq!((back.attempted, back.failed), (2, 1));
        assert_eq!(
            back.failures,
            vec!["a \"quoted\" \\ failure with a newline"]
        );
        assert!(
            back.summary("trace.overhead_pct").is_none(),
            "NaN is not a value"
        );
        let mut merged = back.clone();
        merged.merge(back);
        assert_eq!(merged.samples["sweep_s"].len(), 4);
        assert_eq!((merged.attempted, merged.failed), (4, 2));
    }

    #[test]
    fn result_line_reports_missing_metrics_as_incorrect() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        for m in &END_TO_END {
            o.sample(m.name, 1.5);
        }
        let ok = WorkloadResult {
            name: "fig07-1k",
            outcome: o.clone(),
        };
        let (correct, line) = result_line(std::slice::from_ref(&ok), &END_TO_END);
        assert!(correct);
        let doc = json::parse(&line).expect("valid JSON");
        let top = doc.as_object().unwrap();
        assert_eq!(top.get("correct").unwrap().as_bool(), Some(true));
        let setup = top
            .get("metrics")
            .unwrap()
            .as_object()
            .unwrap()
            .get("setup_s")
            .unwrap();
        assert_eq!(
            setup.as_object().unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
        o.samples.remove("serve_p99_ms");
        let missing = WorkloadResult {
            name: "fig07-1k",
            outcome: o,
        };
        let (correct, line) = result_line(&[missing], &END_TO_END);
        assert!(!correct && line.starts_with("{\"correct\": false"));
    }
}
