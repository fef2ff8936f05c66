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
use crate::scoreboard::dynamic_roster;
use crate::scoring::{judge, score_table, ScoreRow, Tool, Truth, Verdicts};
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
    /// What the static pipeline and the roster said about it.
    pub verdicts: Verdicts,
}

mtt_json::json_struct!(MemberOutcome {
    name,
    benign,
    classes,
    #[flatten]
    verdicts,
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

/// One row of Table E10b: a pattern's share of the population.
#[derive(Clone, Debug)]
pub struct PopulationRow {
    /// Pattern key and class, `race (DataRace)`.
    pub pattern: String,
    /// Families drawn.
    pub families: u64,
    /// Members, buggy and benign.
    pub members: u64,
    /// Buggy members.
    pub buggy: u64,
    /// Benign twins.
    pub benign: u64,
}

mtt_json::json_struct!(PopulationRow {
    pattern,
    families,
    members,
    buggy,
    benign,
});

/// `mtt e10 --json`: schema `mtt-e10-scoreboard`, version 1.
#[derive(Clone, Debug)]
pub struct GenEvalJson {
    /// `mtt-e10-scoreboard`.
    pub schema: String,
    /// 1.
    pub version: u64,
    /// Root generator seed.
    pub seed: u64,
    /// Families drawn.
    pub families: u64,
    /// Runs per dynamic tool per member.
    pub runs: u64,
    /// Table E10b, without its total row.
    pub population: Vec<PopulationRow>,
    /// Table E10.
    pub tools: Vec<ScoreRow>,
    /// Every family's member outcomes.
    pub family_outcomes: Vec<FamilyOutcomes>,
}

mtt_json::json_struct!(GenEvalJson {
    schema,
    version,
    seed,
    families,
    runs,
    population,
    tools,
    family_outcomes,
});

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
            .map(|m| MemberOutcome {
                name: m.name.clone(),
                benign: m.truth.benign,
                classes: m
                    .truth
                    .positive_classes()
                    .iter()
                    .map(|c| format!("{c:?}"))
                    .collect(),
                verdicts: judge(&m.ast(), &tools, opts.runs, 20_000).0,
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

/// The per-tool scoreboard: one row per static code and per dynamic
/// tool, each scored on the class it claims over every member, plus the
/// robust count over the families that claim that class.
pub fn score_tools(rows: &[FamilyOutcomes]) -> Vec<ScoreRow> {
    let members = || rows.iter().flat_map(|f| &f.members);
    let tools = Tool::all(members().next().map(|m| &m.verdicts));
    let score = |tool: &Tool| {
        let positive = |m: &MemberOutcome| m.classes.contains(&tool.class);
        let programs = members().map(|m| (&m.verdicts, Truth::of(positive(m), true)));
        // A family claims a class when its buggy members are positives for
        // it (uniform across the family by construction); it is robust when
        // the tool flags exactly its buggy members.
        let claiming = rows
            .iter()
            .filter(|f| f.members.iter().any(|m| !m.benign && positive(m)));
        let robust = claiming.clone().filter(|f| {
            f.members
                .iter()
                .all(|m| tool.flags(&m.verdicts) != m.benign)
        });
        ScoreRow {
            robust_ok: Some(robust.count() as u64),
            robust_total: Some(claiming.count() as u64),
            ..tool.row(programs, true)
        }
    };
    tools.iter().map(score).collect()
}

/// Population counts per pattern, in pattern order.
pub fn population(rows: &[FamilyOutcomes]) -> Vec<PopulationRow> {
    let keys: BTreeSet<&str> = rows.iter().map(|f| f.pattern.as_str()).collect();
    let row = |k: &str| {
        let fams: Vec<&FamilyOutcomes> = rows.iter().filter(|f| f.pattern == k).collect();
        let members = fams.iter().flat_map(|f| &f.members);
        let buggy = members.clone().filter(|m| !m.benign).count() as u64;
        PopulationRow {
            pattern: format!("{k} ({})", fams[0].class),
            families: fams.len() as u64,
            members: members.clone().count() as u64,
            buggy,
            benign: members.filter(|m| m.benign).count() as u64,
        }
    };
    keys.into_iter().map(row).collect()
}

/// Render Table E10 (per-tool confusion matrix + robust detection).
pub fn scoreboard_table(rows: &[FamilyOutcomes]) -> Table {
    let title = "E10: generated variant families — per tool, scored on its claimed class";
    let mut t = score_table(title, true, &["robust"]);
    for r in score_tools(rows) {
        t.row(&r.cells());
    }
    t
}

/// Render Table E10b (the generated population under evaluation).
pub fn population_table(rows: &[FamilyOutcomes]) -> Table {
    let mut t = Table::new(
        "E10b: generated population",
        &["pattern", "families", "members", "buggy", "benign"],
    );
    let pop = population(rows);
    let total = PopulationRow {
        pattern: "total".to_string(),
        families: pop.iter().map(|p| p.families).sum(),
        members: pop.iter().map(|p| p.members).sum(),
        buggy: pop.iter().map(|p| p.buggy).sum(),
        benign: pop.iter().map(|p| p.benign).sum(),
    };
    for p in pop.into_iter().chain([total]) {
        t.row(&[
            p.pattern,
            p.families.to_string(),
            p.members.to_string(),
            p.buggy.to_string(),
            p.benign.to_string(),
        ]);
    }
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

/// The machine-readable report: options, population, per-tool rows, and
/// per-family member outcomes.
pub fn gen_eval_json(opts: &GenEvalOptions, rows: &[FamilyOutcomes]) -> GenEvalJson {
    GenEvalJson {
        schema: "mtt-e10-scoreboard".into(),
        version: 1,
        seed: opts.seed,
        families: opts.families,
        runs: opts.runs,
        population: population(rows),
        tools: score_tools(rows),
        family_outcomes: rows.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoreboard::SCOREBOARD_ROSTER_SPECS;
    use mtt_static::diag;

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
                assert_eq!(m.verdicts.dynamic.len(), SCOREBOARD_ROSTER_SPECS.len());
            }
        }
        let tools = score_tools(&rows);
        assert_eq!(
            tools.len(),
            diag::CODES.len() + SCOREBOARD_ROSTER_SPECS.len()
        );
    }

    #[test]
    fn static_oracle_scores_are_perfect_by_construction() {
        // The generator's proptests guarantee buggy members statically
        // exhibit their class and benign twins are diagnostic-free, so
        // the signature static rows must show zero FP and zero FN here.
        let rows = run_gen_eval_on(&tiny(), &JobPool::serial());
        for r in score_tools(&rows) {
            let (tool, score) = (&r.tool, r.score);
            if r.kind == "static" {
                assert_eq!(score.fp, 0, "{tool} fp");
            }
            if tool == "static:R001" || tool == "static:L006" || tool == "static:A001" {
                assert_eq!(score.fn_, 0, "{tool} fn");
                assert!(score.tp > 0, "{tool} tp");
                assert_eq!(r.robust_ok, r.robust_total, "{tool} robust");
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
        assert_eq!(lockset.robust_total, Some(1), "one race family in 4");
        assert_eq!(lockorder.robust_total, Some(1), "one dlock family in 4");
    }

    #[test]
    fn report_is_identical_across_job_counts() {
        let opts = tiny();
        let serial = run_gen_eval_on(&opts, &JobPool::new(1));
        let par = run_gen_eval_on(&opts, &JobPool::new(4));
        assert_eq!(render_report(&serial), render_report(&par));
        assert_eq!(render_csv(&serial), render_csv(&par));
        assert_eq!(
            mtt_json::to_string(&gen_eval_json(&opts, &serial)),
            mtt_json::to_string(&gen_eval_json(&opts, &par))
        );
    }
}
