//! Metric lines, the result object, the metric definitions of
//! `BENCHMARK.json`, and `compare`.

use crate::stats::{median, Summary};
use crate::workload::Workload;
use mtt_json::Json;
use std::collections::BTreeMap;

/// One named, measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (`runs_per_s`, `runtime.handoff_ns.p50`, …).
    pub name: String,
    /// The value, with all its digits.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }

    /// The `workload metric value unit` stdout line.
    pub fn line(&self, workload: &str) -> String {
        format!("{workload} {} {} {}", self.name, self.value, self.unit)
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"better": "higher"`.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The run length and metric lists of `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct BenchSpec {
    /// Seconds one timed phase measures.
    pub run_seconds: u64,
    /// Reported with `--trace 0`.
    pub end_to_end: Vec<MetricDef>,
    /// Reported with `--trace 1`.
    pub per_layer: Vec<MetricDef>,
}

fn num(j: &Json) -> Option<f64> {
    match *j {
        Json::Float(v) => Some(v),
        Json::Int(v) => Some(v as f64),
        Json::UInt(v) => Some(v as f64),
        _ => None,
    }
}

fn defs(doc: &Json, key: &str) -> Result<Vec<MetricDef>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json: `{key}` is not a list"))?;
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("BENCHMARK.json: a `{key}` entry lacks `{k}`"))
            };
            Ok(MetricDef {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                higher_is_better: field("better")? == "higher",
                bound: m.get("bound").and_then(num),
            })
        })
        .collect()
}

impl BenchSpec {
    /// The definitions compiled into this binary.
    pub fn load() -> BenchSpec {
        BenchSpec::parse(include_str!("../../BENCHMARK.json"))
            .expect("the BENCHMARK.json this binary was built with is valid")
    }

    /// Parse a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(BenchSpec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: `run_seconds` is not a whole number")?,
            end_to_end: defs(&doc, "end_to_end")?,
            per_layer: defs(&doc, "per_layer")?,
        })
    }
}

/// Everything one `--workload` invocation measured.
#[derive(Clone, Debug)]
pub struct Invocation {
    /// Workload.
    pub workload: Workload,
    /// Base seed.
    pub seed: u64,
    /// Traced phase (per-layer metrics) or timed phase (end-to-end).
    pub traced: bool,
    /// The correctness gate's verdict.
    pub check: Result<(), String>,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed: over budget, or in a pass that panicked or failed
    /// its check.
    pub failed: u64,
    /// Every metric computed, in print order.
    pub metrics: Vec<Metric>,
    /// The samples behind each end-to-end median (per pass, per set-up).
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl Invocation {
    /// The result object: `correct`, `attempted`, `failed`, and `metrics`
    /// holding exactly the metrics of `defs`.
    pub fn result(&self, defs: &[MetricDef]) -> Result<Json, String> {
        let mut metrics = Vec::new();
        for d in defs {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == d.name)
                .ok_or(format!("metric `{}` was not measured", d.name))?;
            if !m.value.is_finite() {
                return Err(format!("metric `{}` is not a number", d.name));
            }
            metrics.push((
                d.name.clone(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Float(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ]),
            ));
        }
        Ok(Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.check.is_ok())),
            ("attempted".to_string(), Json::UInt(self.attempted)),
            ("failed".to_string(), Json::UInt(self.failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]))
    }

    /// The record `--out` appends and `compare` reads: the result plus the
    /// workload, seed, phase and samples.
    pub fn record(&self, defs: &[MetricDef]) -> Result<Json, String> {
        let Json::Obj(mut fields) = self.result(defs)? else {
            unreachable!("result is an object")
        };
        fields.insert(
            0,
            (
                "workload".to_string(),
                Json::Str(self.workload.name().to_string()),
            ),
        );
        fields.insert(1, ("seed".to_string(), Json::UInt(self.seed)));
        fields.insert(2, ("trace".to_string(), Json::Bool(self.traced)));
        let samples = self
            .samples
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Json::Arr(v.iter().map(|&x| Json::Float(x)).collect()),
                )
            })
            .collect();
        fields.push(("samples".to_string(), Json::Obj(samples)));
        Ok(Json::Obj(fields))
    }
}

/// Medians and samples of one side of a comparison, per (workload, metric).
#[derive(Default)]
struct Side {
    values: BTreeMap<(String, String), Vec<f64>>,
    samples: BTreeMap<(String, String), Vec<f64>>,
}

fn load_side(text: &str, origin: &str) -> Result<Side, String> {
    let mut side = Side::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = Json::parse(line).map_err(|e| format!("{origin}:{}: {e}", i + 1))?;
        if rec.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{origin}:{}: no workload", i + 1))?;
        if let Some(Json::Obj(metrics)) = rec.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(num) {
                    let key = (workload.to_string(), name.clone());
                    side.values.entry(key).or_default().push(v);
                }
            }
        }
        if let Some(Json::Obj(samples)) = rec.get("samples") {
            for (name, arr) in samples {
                let key = (workload.to_string(), name.clone());
                let vals = arr.as_arr().unwrap_or_default().iter().filter_map(num);
                side.samples.entry(key).or_default().extend(vals);
            }
        }
    }
    Ok(side)
}

/// Compare two `--out` files: for each workload × end-to-end metric, both
/// medians, their ratio with its base, and a verdict. A change counts as
/// worse only beyond the metric's bound, and is `unresolved` when either
/// side's samples spread wider than the bound, unless every new sample
/// reads better than every old one. Returns the report and whether any
/// metric got worse.
pub fn compare(old: &str, new: &str, spec: &BenchSpec) -> Result<(String, bool), String> {
    let (old, new) = (load_side(old, "OLD")?, load_side(new, "NEW")?);
    let mut out = String::from(
        "workload         metric        old            new            new/old   verdict\n",
    );
    let mut any_worse = false;
    for w in Workload::ALL {
        for d in &spec.end_to_end {
            let key = (w.name().to_string(), d.name.clone());
            let (Some(ov), Some(nv)) = (old.values.get(&key), new.values.get(&key)) else {
                continue;
            };
            let (o, n) = (median(ov), median(nv));
            let bound = d.bound.unwrap_or(0.0);
            let samples =
                |s: &Side, v: &Vec<f64>| s.samples.get(&key).cloned().unwrap_or_else(|| v.clone());
            let (os, ns) = (samples(&old, ov), samples(&new, nv));
            let sign = if d.higher_is_better { 1.0 } else { -1.0 };
            let worse_by = sign * (o - n) / o.abs().max(f64::MIN_POSITIVE);
            let all_better = os.iter().all(|a| ns.iter().all(|b| sign * (b - a) > 0.0));
            let wide = Summary::of(os.clone()).spread() > bound
                || Summary::of(ns.clone()).spread() > bound;
            let verdict = if all_better {
                "better"
            } else if wide {
                "unresolved"
            } else if worse_by > bound {
                any_worse = true;
                "WORSE"
            } else if worse_by < -bound {
                "better"
            } else {
                "same"
            };
            out.push_str(&format!(
                "{:<16} {:<13} {:<14.6} {:<14.6} {:<9.4} {verdict} (base old, bound {bound})\n",
                w.name(),
                d.name,
                o,
                n,
                n / o
            ));
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_read_workload_metric_value_unit() {
        let m = Metric::new("runs_per_s", 1234.5678, "runs/s");
        assert_eq!(m.line("e1-grid"), "e1-grid runs_per_s 1234.5678 runs/s");
    }

    #[test]
    fn compare_flags_only_changes_beyond_the_bound() {
        let spec = BenchSpec::parse(
            r#"{"run_seconds":1,"end_to_end":[{"name":"runs_per_s","unit":"runs/s","better":"higher","bound":0.1},
                {"name":"wall_s","unit":"s","better":"lower","bound":0.1}],"per_layer":[]}"#,
        )
        .unwrap();
        let rec = |rps: f64, wall: f64, passes: &str| {
            format!(
                r#"{{"workload":"e1-grid","seed":1,"trace":false,"metrics":{{"runs_per_s":{{"value":{rps},"unit":"runs/s"}},"wall_s":{{"value":{wall},"unit":"s"}}}},"samples":{{"runs_per_s":[{passes}]}}}}"#
            )
        };
        let old = rec(1000.0, 5.0, "990,1000,1010");
        // 20% fewer runs/s with tight passes: worse. Wall 4% slower: same.
        let (text, worse) = compare(&old, &rec(800.0, 5.2, "795,800,805"), &spec).unwrap();
        assert!(worse, "{text}");
        assert!(text.contains("WORSE") && text.contains("same"), "{text}");
        // Passes spread wider than the bound: unresolved, not worse.
        let (text, worse) = compare(&old, &rec(800.0, 5.0, "600,800,1000"), &spec).unwrap();
        assert!(!worse && text.contains("unresolved"), "{text}");
        // Every new pass beats every old one: better despite the spread.
        let (text, _) = compare(&old, &rec(1500.0, 5.0, "1200,1500,1900"), &spec).unwrap();
        assert!(text.contains("better"), "{text}");
    }
}
