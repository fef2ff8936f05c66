//! E10: precision/recall over generated variant families.
//!
//! Where E11 scores the tool roster against the ~15 hand-written
//! catalog samples, E10 scores it against an *unbounded population*:
//! [`mtt_gen`] families of buggy variants paired with benign twins,
//! every member carrying a machine-checkable
//! [`GroundTruth`](mtt_gen::GroundTruth) planted by construction.
//! Because the label is trusted (the composer knows where it put the
//! bug), E10 can report the full confusion matrix — TP/FP/FN/**TN** —
//! without E11's manifestation gate on false negatives, and adds the
//! rapx-bench-style **robust detection** column: a tool is credited
//! with a family only when it flags *every* buggy member and *no*
//! benign twin. Flagging a pattern only under some thread counts, or
//! warning on the repaired twin, breaks robustness even when raw
//! recall looks good.
//!
//! Scoring scope matches E11: each tool is accountable only for the
//! class it claims (static codes per the diagnostic table, dynamic
//! tools per their sink kind), and a member is a positive for every
//! class in its ground truth — primary plus structurally implied ones
//! (an unguarded RMW is both a DataRace and an AtomicityViolation).
//!
//! Families shard one cell each over the [`JobPool`]; `mtt_gen::family`
//! is a pure function of `(seed, index)` and every run inside a cell is
//! seeded, so the report is byte-identical at any `--jobs` count.

use crate::jobpool::{cell_key, JobPool};
use crate::report::Table;
use crate::scoreboard::STATIC_TOOL_SCOPES;
use crate::scoreboard::{dynamic_roster, dynamic_warned, sink_class, DynamicHit};
use crate::static_eval::ClassScore;
use mtt_json::{Json, ToJson};
use mtt_static::analyze;
use std::collections::BTreeSet;

/// E10 options: the generator draw plus the per-tool run budget.
#[derive(Clone, Copy, Debug)]
pub struct GenEvalOptions {
    /// Root generator seed.
    pub seed: u64,
    /// Number of families to draw and score.
    pub families: u64,
    /// Seeded executions per dynamic tool per member.
    pub runs: u64,
}

impl Default for GenEvalOptions {
    fn default() -> Self {
        GenEvalOptions {
            seed: 42,
            families: 20,
            runs: 4,
        }
    }
}

/// Everything E10 learned about one generated member.
#[derive(Clone, Debug)]
pub struct MemberOutcome {
    /// Member name.
    pub name: String,
    /// Ground truth: benign twin?
    pub benign: bool,
    /// Classes this member is a positive for (primary + implied; empty
    /// when benign).
    pub classes: BTreeSet<String>,
    /// Diagnostic codes the static pipeline emitted.
    pub static_codes: BTreeSet<String>,
    /// Per-dynamic-tool verdicts, in roster order.
    pub dynamic: Vec<DynamicHit>,
}

mtt_json::json_struct!(MemberOutcome {
    name,
    benign,
    classes,
    static_codes,
    dynamic,
});

/// One scored family: its id, claimed classes, and member outcomes.
#[derive(Clone, Debug)]
pub struct FamilyOutcomes {
    /// Family id (`g{seed}_f{index:03}_{pattern}`).
    pub id: String,
    /// Pattern key (`race`, `dlock`, `notif`, `atom`).
    pub pattern: String,
    /// The family's primary bug class.
    pub class: String,
    /// Member outcomes, buggy member then benign twin, in draw order.
    pub members: Vec<MemberOutcome>,
}

mtt_json::json_struct!(FamilyOutcomes {
    id,
    pattern,
    class,
    members
});

/// One row of the E10 per-tool scoreboard.
#[derive(Clone, Debug)]
pub struct GenScoreRow {
    /// Tool label (`static:R001`, `dyn-lockset`, ...).
    pub tool: String,
    /// `"static"` or `"dynamic"`.
    pub kind: &'static str,
    /// The class the tool is scored on.
    pub class: String,
    /// Member-level confusion matrix.
    pub score: ClassScore,
    /// Families of this class the tool detected robustly (all buggy
    /// members flagged, no benign twin flagged).
    pub robust_ok: u64,
    /// Families of this class, total.
    pub robust_total: u64,
}

/// Run E10, one cell per family on `pool`. `mtt_gen::family` is a pure
/// function of `(seed, index)` and every execution inside a cell is
/// seeded, so rows come back identical (and in index order) at any worker
/// count.
pub fn run_gen_eval_on(opts: &GenEvalOptions, pool: &JobPool) -> Vec<FamilyOutcomes> {
    let tools = dynamic_roster();
    let key = |i: usize| {
        let family = format!("g{}_f{i:03}", opts.seed);
        cell_key(&family, "e10", format!("runs={}", opts.runs), opts.seed)
    };
    pool.cells(opts.families as usize, key, |i| {
        let fam = mtt_gen::family(opts.seed, i as u64);
        let members = fam
            .members
            .iter()
            .map(|m| {
                let ast = m.ast();
                let analysis = analyze(&ast);
                let program = mtt_static::compile(&ast);
                let static_codes: BTreeSet<String> = analysis
                    .diagnostics
                    .iter()
                    .map(|d| d.code.clone())
                    .collect();
                let dynamic = tools
                    .iter()
                    .filter_map(|cfg| {
                        let class = sink_class(cfg)?;
                        Some(DynamicHit {
                            tool: cfg.name.clone(),
                            class: class.to_string(),
                            warned: dynamic_warned(&program, cfg, opts.runs, 20_000),
                        })
                    })
                    .collect();
                MemberOutcome {
                    name: m.name.clone(),
                    benign: m.truth.benign,
                    classes: m
                        .truth
                        .positive_classes()
                        .iter()
                        .map(|c| format!("{c:?}"))
                        .collect(),
                    static_codes,
                    dynamic,
                }
            })
            .collect();
        FamilyOutcomes {
            id: fam.id.clone(),
            pattern: fam.pattern.key().to_string(),
            class: format!("{:?}", fam.pattern.class()),
            members,
        }
    })
}

/// Tally one tool's cell for `class` over every member, plus the robust
/// family count over the families claiming that class.
fn tally(
    rows: &[FamilyOutcomes],
    class: &str,
    predicted: impl Fn(&MemberOutcome) -> bool,
) -> (ClassScore, u64, u64) {
    let mut s = ClassScore::default();
    let mut robust_ok = 0;
    let mut robust_total = 0;
    for fam in rows {
        for m in &fam.members {
            let positive = m.classes.contains(class);
            match (predicted(m), positive) {
                (true, true) => s.tp += 1,
                (true, false) => s.fp += 1,
                (false, true) => s.fn_ += 1,
                (false, false) => s.tn += 1,
            }
        }
        // A family "claims" a class when its buggy members are positives
        // for it (uniform across the family by construction).
        let claims = fam
            .members
            .iter()
            .any(|m| !m.benign && m.classes.contains(class));
        if claims {
            robust_total += 1;
            let all_buggy_hit = fam.members.iter().filter(|m| !m.benign).all(&predicted);
            let no_benign_hit = fam
                .members
                .iter()
                .filter(|m| m.benign)
                .all(|m| !predicted(m));
            if all_buggy_hit && no_benign_hit {
                robust_ok += 1;
            }
        }
    }
    (s, robust_ok, robust_total)
}

/// The per-tool scoreboard: one row per static code and per dynamic
/// tool, each scored on the class it claims.
pub fn score_tools(rows: &[FamilyOutcomes]) -> Vec<GenScoreRow> {
    let mut out = Vec::new();
    for (code, class) in STATIC_TOOL_SCOPES {
        let (score, robust_ok, robust_total) =
            tally(rows, class, |m| m.static_codes.contains(*code));
        out.push(GenScoreRow {
            tool: format!("static:{code}"),
            kind: "static",
            class: class.to_string(),
            score,
            robust_ok,
            robust_total,
        });
    }
    if let Some(first) = rows.first().and_then(|f| f.members.first()) {
        for (ti, hit) in first.dynamic.iter().enumerate() {
            let (score, robust_ok, robust_total) =
                tally(rows, &hit.class, |m| m.dynamic[ti].warned);
            out.push(GenScoreRow {
                tool: hit.tool.clone(),
                kind: "dynamic",
                class: hit.class.clone(),
                score,
                robust_ok,
                robust_total,
            });
        }
    }
    out
}

/// Population counts per pattern: families, members, buggy, benign.
pub fn population(rows: &[FamilyOutcomes]) -> Vec<(String, u64, u64, u64, u64)> {
    let mut keys: Vec<&str> = rows.iter().map(|f| f.pattern.as_str()).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut out = Vec::new();
    for k in keys {
        let fams: Vec<&FamilyOutcomes> = rows.iter().filter(|f| f.pattern == k).collect();
        let members: u64 = fams.iter().map(|f| f.members.len() as u64).sum();
        let buggy: u64 = fams
            .iter()
            .flat_map(|f| &f.members)
            .filter(|m| !m.benign)
            .count() as u64;
        out.push((
            format!("{k} ({})", fams[0].class),
            fams.len() as u64,
            members,
            buggy,
            members - buggy,
        ));
    }
    out
}

/// Render Table E10 (per-tool confusion matrix + robust detection).
pub fn scoreboard_table(rows: &[FamilyOutcomes]) -> Table {
    let mut t = Table::new(
        "E10: generated variant families — per tool, scored on its claimed class",
        &[
            "tool",
            "kind",
            "class",
            "tp",
            "fp",
            "fn",
            "tn",
            "precision",
            "recall",
            "robust",
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
            r.score.tn.to_string(),
            format!("{:.2}", r.score.precision()),
            format!("{:.2}", r.score.recall()),
            format!("{}/{}", r.robust_ok, r.robust_total),
        ]);
    }
    t
}

/// Render Table E10b (the generated population under evaluation).
pub fn population_table(rows: &[FamilyOutcomes]) -> Table {
    let mut t = Table::new(
        "E10b: generated population",
        &["pattern", "families", "members", "buggy", "benign"],
    );
    let mut fams = 0;
    let mut members = 0;
    let mut buggy = 0;
    for (key, f, m, b, ok) in population(rows) {
        fams += f;
        members += m;
        buggy += b;
        t.row(&[
            key,
            f.to_string(),
            m.to_string(),
            b.to_string(),
            ok.to_string(),
        ]);
    }
    t.row(&[
        "total".to_string(),
        fams.to_string(),
        members.to_string(),
        buggy.to_string(),
        (members - buggy).to_string(),
    ]);
    t
}

/// The full text report — what `mtt e10` prints and the golden pins.
pub fn render_report(rows: &[FamilyOutcomes]) -> String {
    format!(
        "{}\n{}\n",
        scoreboard_table(rows).render(),
        population_table(rows).render()
    )
}

/// Both tables as CSV.
pub fn render_csv(rows: &[FamilyOutcomes]) -> String {
    format!(
        "{}{}",
        scoreboard_table(rows).to_csv(),
        population_table(rows).to_csv()
    )
}

/// The machine-readable report (schema `mtt-e10-scoreboard` v1):
/// options, population, per-tool rows, and per-family member outcomes.
pub fn gen_eval_json(opts: &GenEvalOptions, rows: &[FamilyOutcomes]) -> Json {
    let pop = population(rows)
        .into_iter()
        .map(|(key, f, m, b, ok)| {
            Json::Obj(vec![
                ("pattern".into(), Json::Str(key)),
                ("families".into(), Json::UInt(f)),
                ("members".into(), Json::UInt(m)),
                ("buggy".into(), Json::UInt(b)),
                ("benign".into(), Json::UInt(ok)),
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
                ("tn".into(), Json::UInt(r.score.tn)),
                ("precision".into(), Json::Float(r.score.precision())),
                ("recall".into(), Json::Float(r.score.recall())),
                ("robust_ok".into(), Json::UInt(r.robust_ok)),
                ("robust_total".into(), Json::UInt(r.robust_total)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Str("mtt-e10-scoreboard".into())),
        ("version".into(), Json::UInt(1)),
        ("seed".into(), Json::UInt(opts.seed)),
        ("families".into(), Json::UInt(opts.families)),
        ("runs".into(), Json::UInt(opts.runs)),
        ("population".into(), Json::Arr(pop)),
        ("tools".into(), Json::Arr(tools)),
        (
            "family_outcomes".into(),
            Json::Arr(rows.iter().map(ToJson::to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoreboard::SCOREBOARD_ROSTER_SPECS;

    fn tiny() -> GenEvalOptions {
        GenEvalOptions {
            seed: 42,
            families: 4,
            runs: 2,
        }
    }

    #[test]
    fn gen_eval_covers_every_family_and_tool() {
        let rows = run_gen_eval_on(&tiny(), &JobPool::serial());
        assert_eq!(rows.len(), 4);
        // Round-robin pattern order.
        assert_eq!(
            rows.iter().map(|f| f.pattern.as_str()).collect::<Vec<_>>(),
            vec!["race", "dlock", "notif", "atom"]
        );
        for f in &rows {
            assert!(f.members.len() >= 4);
            for m in &f.members {
                assert_eq!(m.dynamic.len(), SCOREBOARD_ROSTER_SPECS.len());
            }
        }
        let tools = score_tools(&rows);
        assert_eq!(
            tools.len(),
            STATIC_TOOL_SCOPES.len() + SCOREBOARD_ROSTER_SPECS.len()
        );
    }

    #[test]
    fn static_oracle_scores_are_perfect_by_construction() {
        // The generator's proptests guarantee buggy members statically
        // exhibit their class and benign twins are diagnostic-free, so
        // the signature static rows must show zero FP and zero FN here.
        let rows = run_gen_eval_on(&tiny(), &JobPool::serial());
        for r in score_tools(&rows) {
            if r.kind == "static" {
                assert_eq!(r.score.fp, 0, "{} fp", r.tool);
            }
            if r.tool == "static:R001" || r.tool == "static:L006" || r.tool == "static:A001" {
                assert_eq!(r.score.fn_, 0, "{} fn", r.tool);
                assert!(r.score.tp > 0, "{} tp", r.tool);
                assert_eq!(r.robust_ok, r.robust_total, "{} robust", r.tool);
            }
        }
    }

    #[test]
    fn dynamic_tools_score_within_their_class_scope() {
        let rows = run_gen_eval_on(&tiny(), &JobPool::serial());
        let by_tool = |name: &str| {
            score_tools(&rows)
                .into_iter()
                .find(|r| r.tool == name)
                .unwrap_or_else(|| panic!("tool {name} missing"))
        };
        let lockset = by_tool("dyn-lockset");
        assert!(lockset.score.tp > 0, "lockset finds generated races");
        let lockorder = by_tool("dyn-lockorder");
        assert!(lockorder.score.tp > 0, "lock-order graph finds cycles");
        // Robust totals count only families of the tool's class.
        assert_eq!(lockset.robust_total, 1, "one race family in 4");
        assert_eq!(lockorder.robust_total, 1, "one dlock family in 4");
    }

    #[test]
    fn report_is_identical_across_job_counts() {
        let opts = tiny();
        let serial = run_gen_eval_on(&opts, &JobPool::new(1));
        let par = run_gen_eval_on(&opts, &JobPool::new(4));
        assert_eq!(render_report(&serial), render_report(&par));
        assert_eq!(render_csv(&serial), render_csv(&par));
        assert_eq!(
            gen_eval_json(&opts, &serial).dump(),
            gen_eval_json(&opts, &par).dump()
        );
    }
}
