//! E11: the static-vs-dynamic scoreboard.
//!
//! The paper's benchmark philosophy demands that tools of *different
//! classes* — static analyzers and dynamic detectors — be scored on the
//! same programs with the same ground truth. E11 runs every static
//! diagnostic pass (R001/D001/A001 plus the L001–L007 lints) and a
//! dynamic detector roster (lockset and happens-before race detectors,
//! lock-order-graph and waits-for deadlock detectors, each declared as a
//! [`ToolSpec`](mtt_tools::ToolSpec)) over the whole MiniProg sample
//! catalog, and reports per-bug-class TP/FP/FN precision/recall per tool.
//!
//! Scoring conventions (shared with E7):
//!
//! * Each tool is accountable only for the bug classes it *claims* — the
//!   `predicts` column of the diagnostic table for static codes, the sink
//!   kind (`race=` → DataRace, `deadlock=` → Deadlock) for dynamic tools.
//!   A race detector is not charged a false negative for a missed-signal
//!   bug it was never designed to see; the per-class summary table is
//!   where the coverage gap between the tool classes becomes visible.
//! * A false negative is only charged when the documented bug actually
//!   manifested under the (tool-independent) noisy probe — the dynamic
//!   oracle backs the documentation.
//!
//! Everything is a pure function of fixed seeds: the per-sample jobs
//! shard over a [`JobPool`] and merge in catalog order, so the rendered
//! tables, CSV, and JSON are byte-identical at any `--jobs` count.

use crate::jobpool::JobPool;
use crate::report::Table;
use crate::static_eval::ClassScore;
use mtt_deadlock::{LockOrderGraph, WaitsForMonitor};
use mtt_instrument::shared;
use mtt_json::Json;
use mtt_noise::RandomSleep;
use mtt_race::{EraserLockset, VectorClockDetector};
use mtt_runtime::{Execution, RandomScheduler};
use mtt_static::{analyze, compile, parse, samples};
use mtt_tools::{SinkKind, ToolConfig};
use std::collections::BTreeSet;

/// The dynamic roster E11 evaluates, as tool specs (the same grammar the
/// `--tools` flag and `mtt tools` speak). One detector per stack so each
/// row of the scoreboard isolates one technology.
pub const SCOREBOARD_ROSTER_SPECS: &[&str] = &[
    "sticky:0.9+noise=mixed:0.2:20+race=lockset+name=dyn-lockset",
    "sticky:0.9+noise=mixed:0.2:20+race=hb+name=dyn-hb",
    "sticky:0.9+noise=mixed:0.2:20+deadlock=lockorder+name=dyn-lockorder",
    "sticky:0.9+noise=mixed:0.2:20+deadlock=waitsfor+name=dyn-waitsfor",
];

/// Static diagnostic codes and the bug class each one predicts (the
/// `predicts` column of the table in `mtt_static::diag`).
pub const STATIC_TOOL_SCOPES: &[(&str, &str)] = &[
    ("R001", "DataRace"),
    ("D001", "Deadlock"),
    ("A001", "AtomicityViolation"),
    ("L001", "MissedSignal"),
    ("L002", "WrongNotify"),
    ("L003", "Deadlock"),
    ("L004", "OrderingViolation"),
    ("L005", "StaleRead"),
    ("L006", "Deadlock"),
    ("L007", "MissedSignal"),
];

/// One dynamic tool's verdict on one sample.
#[derive(Clone, Debug)]
pub struct DynamicHit {
    /// Tool display name (`name=` of the spec).
    pub tool: String,
    /// The bug class this tool claims (from its sink kind).
    pub class: String,
    /// Did the detector warn on any of the seeded runs?
    pub warned: bool,
}

/// Everything E11 learned about one MiniProg sample.
#[derive(Clone, Debug)]
pub struct SampleOutcomes {
    /// Sample name.
    pub program: String,
    /// Bug classes the sample documents.
    pub documented: BTreeSet<String>,
    /// Did any documented bug manifest under the noisy probe (the oracle
    /// gating false negatives)?
    pub manifests: bool,
    /// Diagnostic codes the static pipeline emitted.
    pub static_codes: BTreeSet<String>,
    /// Per-dynamic-tool verdicts, in roster order.
    pub dynamic: Vec<DynamicHit>,
}

/// One row of the per-tool scoreboard.
#[derive(Clone, Debug)]
pub struct ScoreRow {
    /// Tool label (`static:R001`, `dyn-lockset`, ...).
    pub tool: String,
    /// `"static"` or `"dynamic"`.
    pub kind: &'static str,
    /// The bug class the tool is scored on.
    pub class: String,
    /// The tally.
    pub score: ClassScore,
}

/// The resolved dynamic roster.
pub fn dynamic_roster() -> Vec<ToolConfig> {
    SCOREBOARD_ROSTER_SPECS
        .iter()
        .map(|s| ToolConfig::from_spec_str(s).expect("scoreboard roster specs are valid"))
        .collect()
}

/// The bug class a dynamic tool's first detector sink claims. Public so
/// other scoreboard experiments (E10 runs the same roster over generated
/// families) share one definition of "what this tool is accountable for".
pub fn sink_class(cfg: &ToolConfig) -> Option<&'static str> {
    cfg.spec.sinks.iter().find_map(|(kind, _)| match kind {
        SinkKind::Race => Some("DataRace"),
        SinkKind::Deadlock => Some("Deadlock"),
        SinkKind::Coverage => None,
    })
}

/// Run one dynamic tool stack over `program` for `runs` seeded
/// executions (the shared `40 + r` seed ladder) and report whether any
/// detector sink warned. This is the per-cell kernel both E11 (sample
/// catalog) and E10 (generated variant families) score with.
pub fn dynamic_warned(
    program: &mtt_runtime::Program,
    cfg: &ToolConfig,
    runs: u64,
    max_steps: u64,
) -> bool {
    for r in 0..runs {
        let seed = 40 + r;
        let mut exec = Execution::new(program)
            .scheduler((cfg.scheduler)(seed))
            .noise((cfg.noise)(seed ^ 0x9e37_79b9))
            .max_steps(max_steps);
        enum Handle {
            Lockset(std::sync::Arc<std::sync::Mutex<EraserLockset>>),
            Hb(std::sync::Arc<std::sync::Mutex<VectorClockDetector>>),
            LockOrder(std::sync::Arc<std::sync::Mutex<LockOrderGraph>>),
            WaitsFor(std::sync::Arc<std::sync::Mutex<WaitsForMonitor>>),
        }
        let mut handles = Vec::new();
        for (kind, c) in &cfg.spec.sinks {
            match (kind, c.id.as_str()) {
                (SinkKind::Race, "lockset") => {
                    let (s, h) = shared(EraserLockset::new());
                    exec = exec.sink(Box::new(s));
                    handles.push(Handle::Lockset(h));
                }
                (SinkKind::Race, "hb") => {
                    let (s, h) = shared(VectorClockDetector::new());
                    exec = exec.sink(Box::new(s));
                    handles.push(Handle::Hb(h));
                }
                (SinkKind::Deadlock, "lockorder") => {
                    let (s, h) = shared(LockOrderGraph::new());
                    exec = exec.sink(Box::new(s));
                    handles.push(Handle::LockOrder(h));
                }
                (SinkKind::Deadlock, "waitsfor") => {
                    let (s, h) = shared(WaitsForMonitor::new());
                    exec = exec.sink(Box::new(s));
                    handles.push(Handle::WaitsFor(h));
                }
                _ => {}
            }
        }
        let _ = exec.run();
        let warned = handles.iter().any(|h| match h {
            Handle::Lockset(h) => !h.lock().unwrap().warnings.is_empty(),
            Handle::Hb(h) => !h.lock().unwrap().warnings.is_empty(),
            Handle::LockOrder(h) => !h.lock().unwrap().potentials().is_empty(),
            Handle::WaitsFor(h) => !h.lock().unwrap().occurrences.is_empty(),
        });
        if warned {
            return true;
        }
    }
    false
}

/// Run E11, sharding one job per MiniProg sample across `pool`. Every run
/// inside a job is seeded from the run index alone, so rows come back
/// identical (and in catalog order) at any worker count.
pub fn run_scoreboard_on(runs: u64, pool: &JobPool) -> Vec<SampleOutcomes> {
    let catalog = samples::catalog();
    let tools = dynamic_roster();
    pool.run(catalog.len(), |i| {
        let sample = &catalog[i];
        let ast = parse(sample.src).expect("sample must parse");
        let analysis = analyze(&ast);
        let program = compile(&ast);

        let static_codes: BTreeSet<String> = analysis
            .diagnostics
            .iter()
            .map(|d| d.code.clone())
            .collect();
        let documented: BTreeSet<String> = sample.classes.iter().map(|c| c.to_string()).collect();

        // The tool-independent manifestation oracle: the same noisy probe
        // E7 uses to back documented classes with dynamic evidence.
        let mut manifests = false;
        for r in 0..runs {
            let seed = 40 + r;
            let o = Execution::new(&program)
                .scheduler(Box::new(RandomScheduler::sticky(seed, 0.9)))
                .noise(Box::new(RandomSleep::new(seed, 0.25, 15)))
                .max_steps(30_000)
                .run();
            if !o.ok() {
                manifests = true;
                break;
            }
        }

        // Each dynamic tool gets the same seed ladder; a tool "warns" on a
        // sample when any of its seeded runs produces a detector warning.
        let dynamic = tools
            .iter()
            .filter_map(|cfg| {
                let class = sink_class(cfg)?;
                let warned = dynamic_warned(&program, cfg, runs, 30_000);
                Some(DynamicHit {
                    tool: cfg.name.clone(),
                    class: class.to_string(),
                    warned,
                })
            })
            .collect();

        SampleOutcomes {
            program: sample.name.to_string(),
            documented,
            manifests,
            static_codes,
            dynamic,
        }
    })
}

/// Tally one tool's per-class score from its per-sample predictions.
fn tally(
    rows: &[SampleOutcomes],
    class: &str,
    predicted: impl Fn(&SampleOutcomes) -> bool,
) -> ClassScore {
    let mut s = ClassScore::default();
    for r in rows {
        let documented = r.documented.contains(class);
        match (predicted(r), documented) {
            (true, true) => s.tp += 1,
            (true, false) => s.fp += 1,
            (false, true) if r.manifests => s.fn_ += 1,
            _ => {}
        }
    }
    s
}

/// The per-tool scoreboard: one row per static code and per dynamic tool,
/// each scored on the class it claims.
pub fn score_tools(rows: &[SampleOutcomes]) -> Vec<ScoreRow> {
    let mut out = Vec::new();
    for (code, class) in STATIC_TOOL_SCOPES {
        out.push(ScoreRow {
            tool: format!("static:{code}"),
            kind: "static",
            class: class.to_string(),
            score: tally(rows, class, |r| r.static_codes.contains(*code)),
        });
    }
    // Dynamic tools in roster order (taken from the first row: every row
    // carries the same roster).
    if let Some(first) = rows.first() {
        for (ti, hit) in first.dynamic.iter().enumerate() {
            out.push(ScoreRow {
                tool: hit.tool.clone(),
                kind: "dynamic",
                class: hit.class.clone(),
                score: tally(rows, &hit.class, |r| r.dynamic[ti].warned),
            });
        }
    }
    out
}

/// Per-class union scores: for each bug class, "any static pass scoped to
/// it predicted" vs "any dynamic detector scoped to it warned" — the
/// head-to-head the experiment exists for.
pub fn score_classes(rows: &[SampleOutcomes]) -> Vec<(String, ClassScore, ClassScore)> {
    let mut classes: BTreeSet<String> = rows
        .iter()
        .flat_map(|r| r.documented.iter().cloned())
        .collect();
    classes.extend(STATIC_TOOL_SCOPES.iter().map(|(_, c)| c.to_string()));
    classes
        .into_iter()
        .map(|class| {
            let static_score = tally(rows, &class, |r| {
                STATIC_TOOL_SCOPES
                    .iter()
                    .any(|(code, c)| *c == class && r.static_codes.contains(*code))
            });
            let dyn_score = tally(rows, &class, |r| {
                r.dynamic.iter().any(|h| h.class == class && h.warned)
            });
            (class, static_score, dyn_score)
        })
        .collect()
}

/// Render Table E11 (per-tool precision/recall).
pub fn scoreboard_table(rows: &[SampleOutcomes]) -> Table {
    let mut t = Table::new(
        "E11: static vs dynamic scoreboard — per tool, scored on its claimed class",
        &[
            "tool",
            "kind",
            "class",
            "tp",
            "fp",
            "fn",
            "precision",
            "recall",
        ],
    );
    for r in score_tools(rows) {
        t.row(&[
            r.tool,
            r.kind.to_string(),
            r.class,
            r.score.tp.to_string(),
            r.score.fp.to_string(),
            r.score.fn_.to_string(),
            format!("{:.2}", r.score.precision()),
            format!("{:.2}", r.score.recall()),
        ]);
    }
    t
}

/// Render Table E11b (per-class static-union vs dynamic-union).
pub fn class_table(rows: &[SampleOutcomes]) -> Table {
    let mut t = Table::new(
        "E11b: per bug class — static passes (union) vs dynamic roster (union)",
        &[
            "class",
            "static tp/fp/fn",
            "static prec",
            "static recall",
            "dynamic tp/fp/fn",
            "dynamic prec",
            "dynamic recall",
        ],
    );
    for (class, st, dy) in score_classes(rows) {
        t.row(&[
            class,
            format!("{}/{}/{}", st.tp, st.fp, st.fn_),
            format!("{:.2}", st.precision()),
            format!("{:.2}", st.recall()),
            format!("{}/{}/{}", dy.tp, dy.fp, dy.fn_),
            format!("{:.2}", dy.precision()),
            format!("{:.2}", dy.recall()),
        ]);
    }
    t
}

/// The full text report — what `mtt e11` prints and the golden test pins.
pub fn render_report(rows: &[SampleOutcomes]) -> String {
    format!(
        "{}\n{}\n",
        scoreboard_table(rows).render(),
        class_table(rows).render()
    )
}

/// Both tables as CSV.
pub fn render_csv(rows: &[SampleOutcomes]) -> String {
    format!(
        "{}{}",
        scoreboard_table(rows).to_csv(),
        class_table(rows).to_csv()
    )
}

/// The machine-readable report: samples, per-tool rows, per-class unions.
pub fn scoreboard_json(rows: &[SampleOutcomes]) -> Json {
    let samples = rows
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("program".into(), Json::Str(r.program.clone())),
                (
                    "documented".into(),
                    Json::Arr(r.documented.iter().map(|c| Json::Str(c.clone())).collect()),
                ),
                ("manifests".into(), Json::Bool(r.manifests)),
                (
                    "static_codes".into(),
                    Json::Arr(
                        r.static_codes
                            .iter()
                            .map(|c| Json::Str(c.clone()))
                            .collect(),
                    ),
                ),
                (
                    "dynamic".into(),
                    Json::Arr(
                        r.dynamic
                            .iter()
                            .map(|h| {
                                Json::Obj(vec![
                                    ("tool".into(), Json::Str(h.tool.clone())),
                                    ("class".into(), Json::Str(h.class.clone())),
                                    ("warned".into(), Json::Bool(h.warned)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let tools = score_tools(rows)
        .into_iter()
        .map(|r| {
            Json::Obj(vec![
                ("tool".into(), Json::Str(r.tool)),
                ("kind".into(), Json::Str(r.kind.to_string())),
                ("class".into(), Json::Str(r.class)),
                ("tp".into(), Json::UInt(r.score.tp)),
                ("fp".into(), Json::UInt(r.score.fp)),
                ("fn".into(), Json::UInt(r.score.fn_)),
                ("precision".into(), Json::Float(r.score.precision())),
                ("recall".into(), Json::Float(r.score.recall())),
            ])
        })
        .collect();
    let classes = score_classes(rows)
        .into_iter()
        .map(|(class, st, dy)| {
            let side = |s: &ClassScore| {
                Json::Obj(vec![
                    ("tp".into(), Json::UInt(s.tp)),
                    ("fp".into(), Json::UInt(s.fp)),
                    ("fn".into(), Json::UInt(s.fn_)),
                    ("precision".into(), Json::Float(s.precision())),
                    ("recall".into(), Json::Float(s.recall())),
                ])
            };
            Json::Obj(vec![
                ("class".into(), Json::Str(class)),
                ("static".into(), side(&st)),
                ("dynamic".into(), side(&dy)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Str("mtt-e11-scoreboard".into())),
        ("version".into(), Json::UInt(1)),
        ("samples".into(), Json::Arr(samples)),
        ("tools".into(), Json::Arr(tools)),
        ("classes".into(), Json::Arr(classes)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoreboard_covers_catalog_and_roster() {
        let rows = run_scoreboard_on(8, &JobPool::serial());
        assert_eq!(rows.len(), samples::catalog().len());
        for r in &rows {
            assert_eq!(r.dynamic.len(), SCOREBOARD_ROSTER_SPECS.len());
        }
        let tools = score_tools(&rows);
        assert_eq!(
            tools.len(),
            STATIC_TOOL_SCOPES.len() + SCOREBOARD_ROSTER_SPECS.len()
        );
    }

    #[test]
    fn static_and_dynamic_tools_score_their_signature_bugs() {
        let rows = run_scoreboard_on(12, &JobPool::serial());
        let by_tool = |name: &str| {
            score_tools(&rows)
                .into_iter()
                .find(|r| r.tool == name)
                .unwrap_or_else(|| panic!("tool {name} missing"))
        };

        // The co-designed catalog keeps static precision perfect.
        let r001 = by_tool("static:R001");
        assert!(r001.score.tp >= 2, "R001 tp = {}", r001.score.tp);
        assert_eq!(r001.score.fp, 0);
        let l006 = by_tool("static:L006");
        assert!(
            l006.score.tp >= 2,
            "L006 must flag mp_abba and mp_lock_cycle3: {:?}",
            l006.score
        );
        assert_eq!(l006.score.fp, 0);
        let l007 = by_tool("static:L007");
        assert!(l007.score.tp >= 1, "L007 must flag mp_lost_notify");

        // Dynamic detectors warn on their signature samples.
        let lockset = by_tool("dyn-lockset");
        assert!(lockset.score.tp >= 2, "lockset tp = {}", lockset.score.tp);
        let lockorder = by_tool("dyn-lockorder");
        assert!(
            lockorder.score.tp >= 1,
            "lock-order graph must see a deadlock potential"
        );

        // The union summary exposes the coverage gap: static lints cover
        // MissedSignal, the dynamic roster has no detector for it.
        let classes = score_classes(&rows);
        let missed = classes
            .iter()
            .find(|(c, _, _)| c == "MissedSignal")
            .expect("MissedSignal documented in the catalog");
        assert!(missed.1.tp >= 1, "static side predicts MissedSignal");
        assert_eq!(missed.2.tp, 0, "no dynamic detector claims MissedSignal");
    }

    #[test]
    fn report_is_identical_across_job_counts() {
        let serial = run_scoreboard_on(6, &JobPool::new(1));
        let par = run_scoreboard_on(6, &JobPool::new(4));
        assert_eq!(render_report(&serial), render_report(&par));
        assert_eq!(render_csv(&serial), render_csv(&par));
        assert_eq!(
            scoreboard_json(&serial).dump(),
            scoreboard_json(&par).dump()
        );
    }
}
