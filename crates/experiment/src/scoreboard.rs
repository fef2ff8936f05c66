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
//! Scoring conventions (shared with E7 and E10, in [`crate::scoring`]):
//!
//! * Each tool is accountable only for the bug classes it *claims* — the
//!   `predicts` column of the diagnostic table (`mtt_static::diag::CODES`)
//!   for static codes, the first detector's kind (`race=` → DataRace,
//!   `deadlock=` → Deadlock) for dynamic tools. A race detector is not
//!   charged a false negative for a missed-signal bug it was never designed
//!   to see; the per-class summary table is where the coverage gap between
//!   the tool classes becomes visible.
//! * A false negative is only charged when the documented bug actually
//!   manifested under the (tool-independent) noisy probe — the dynamic
//!   oracle backs the documentation.
//!
//! Everything is a pure function of fixed seeds: the per-sample cells
//! shard over a [`JobPool`] and merge in catalog order, so the rendered
//! tables, CSV, and JSON are byte-identical at any `--jobs` count.

use crate::jobpool::{cell_key, JobPool};
use crate::report::Table;
use crate::scoring::{
    judge, noisy_probe, score_table, ClassScore, ScoreRow, Tool, Truth, Verdicts,
};
use mtt_static::{diag, parse, samples};
use mtt_tools::ToolConfig;
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
    /// What the static pipeline and the roster said about it.
    pub verdicts: Verdicts,
}

mtt_json::json_struct!(SampleOutcomes {
    program,
    documented,
    manifests,
    #[flatten]
    verdicts,
});

impl SampleOutcomes {
    /// The sample's truth for `class`: its documentation, confirmed by the
    /// noisy probe.
    fn truth(&self, class: &str) -> Truth {
        Truth::of(self.documented.contains(class), self.manifests)
    }
}

/// One row of E11b: a class scored on the static passes' union and on
/// the dynamic roster's union.
#[derive(Clone, Debug)]
pub struct ClassUnion {
    /// The bug class.
    pub class: String,
    /// Any static pass that predicts the class flagged the sample.
    pub static_: ClassScore,
    /// Any roster tool that claims the class warned on the sample.
    pub dynamic: ClassScore,
}

mtt_json::json_struct!(ClassUnion {
    class,
    static_ = "static",
    dynamic
});

/// `mtt e11 --json`: schema `mtt-e11-scoreboard`, version 1.
#[derive(Clone, Debug)]
pub struct ScoreboardJson {
    /// `mtt-e11-scoreboard`.
    pub schema: String,
    /// 1.
    pub version: u64,
    /// Every sample's outcomes, in catalog order.
    pub samples: Vec<SampleOutcomes>,
    /// Table E11.
    pub tools: Vec<ScoreRow>,
    /// Table E11b.
    pub classes: Vec<ClassUnion>,
}

mtt_json::json_struct!(ScoreboardJson {
    schema,
    version,
    samples,
    tools,
    classes,
});

/// Run E11, one cell per MiniProg sample on `pool`. Every run inside a
/// cell is seeded from the run index alone, so rows come back identical
/// (and in catalog order) at any worker count.
pub fn run_scoreboard_on(runs: u64, pool: &JobPool) -> Vec<SampleOutcomes> {
    let catalog = samples::catalog();
    let tools = ToolConfig::roster(SCOREBOARD_ROSTER_SPECS);
    let key = |i: usize| cell_key(catalog[i].name, "scoreboard", format!("runs={runs}"), 40);
    pool.cells(catalog.len(), key, |i| {
        let sample = &catalog[i];
        let ast = parse(sample.src).expect("sample must parse");
        let (verdicts, program) = judge(&ast, &tools, runs, 30_000);
        // The tool-independent manifestation oracle: the noisy probe E7's
        // find rates come from.
        let manifests = (0..runs).any(|r| !noisy_probe(&program, 40 + r).run().ok());
        SampleOutcomes {
            program: sample.name.to_string(),
            documented: sample.classes.iter().map(|c| c.to_string()).collect(),
            manifests,
            verdicts,
        }
    })
}

/// The per-tool scoreboard: one row per static code and per dynamic tool,
/// each scored on the class it claims.
pub fn score_tools(rows: &[SampleOutcomes]) -> Vec<ScoreRow> {
    Tool::all(rows.first().map(|r| &r.verdicts))
        .iter()
        .map(|tool| {
            let programs = rows.iter().map(|r| (&r.verdicts, r.truth(&tool.class)));
            tool.row(programs, false)
        })
        .collect()
}

/// Per-class union scores: for each bug class, "any static pass scoped to
/// it predicted" vs "any dynamic detector scoped to it warned" — the
/// head-to-head the experiment exists for.
pub fn score_classes(rows: &[SampleOutcomes]) -> Vec<ClassUnion> {
    let tools = Tool::all(rows.first().map(|r| &r.verdicts));
    let documented = rows
        .iter()
        .flat_map(|r| r.documented.iter().map(String::as_str));
    let classes: BTreeSet<&str> = documented.chain(diag::CODES.iter().map(|c| c.1)).collect();
    let union = |class: &str, kind: &str| {
        let flags = |v| {
            tools
                .iter()
                .any(|t| t.kind == kind && t.class == class && t.flags(v))
        };
        ClassScore::tally(
            rows.iter().map(|r| (flags(&r.verdicts), r.truth(class))),
            false,
        )
    };
    let row = |class: &str| ClassUnion {
        class: class.to_string(),
        static_: union(class, "static"),
        dynamic: union(class, "dynamic"),
    };
    classes.into_iter().map(row).collect()
}

/// Render Table E11 (per-tool precision/recall).
pub fn scoreboard_table(rows: &[SampleOutcomes]) -> Table {
    let title = "E11: static vs dynamic scoreboard — per tool, scored on its claimed class";
    let mut t = score_table(title, false, &[]);
    for r in score_tools(rows) {
        t.row(&r.cells());
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
    for c in score_classes(rows) {
        t.row(&[vec![c.class], c.static_.cells(true), c.dynamic.cells(true)].concat());
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
pub fn scoreboard_json(rows: &[SampleOutcomes]) -> ScoreboardJson {
    ScoreboardJson {
        schema: "mtt-e11-scoreboard".into(),
        version: 1,
        samples: rows.to_vec(),
        tools: score_tools(rows),
        classes: score_classes(rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoreboard_covers_catalog_and_roster() {
        let rows = run_scoreboard_on(8, &JobPool::serial());
        assert_eq!(rows.len(), samples::catalog().len());
        for r in &rows {
            assert_eq!(r.verdicts.dynamic.len(), SCOREBOARD_ROSTER_SPECS.len());
        }
        let tools = score_tools(&rows);
        assert_eq!(
            tools.len(),
            diag::CODES.len() + SCOREBOARD_ROSTER_SPECS.len()
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
            .find(|c| c.class == "MissedSignal")
            .expect("MissedSignal documented in the catalog");
        assert!(missed.static_.tp >= 1, "static side predicts MissedSignal");
        assert_eq!(missed.dynamic.tp, 0, "no dynamic detector claims it");
    }

    #[test]
    fn report_is_identical_across_job_counts() {
        let serial = run_scoreboard_on(6, &JobPool::new(1));
        let par = run_scoreboard_on(6, &JobPool::new(4));
        assert_eq!(render_report(&serial), render_report(&par));
        assert_eq!(render_csv(&serial), render_csv(&par));
        assert_eq!(
            mtt_json::to_string(&scoreboard_json(&serial)),
            mtt_json::to_string(&scoreboard_json(&par))
        );
    }
}
