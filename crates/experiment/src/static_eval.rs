//! E7: static analysis as instrumentation advice — the §3 workflow.
//!
//! "If the instrumentor is told some information by the static analyzer, on
//! every instrumentation point, this can be used to decide on a subset of
//! the points to be instrumented. For example, only on access to variables
//! touched by more than one thread." E7 measures the payoff along two axes:
//!
//! * **Reduction** — how many events the advised plan suppresses, with the
//!   may-happen-in-parallel facts split out from plain escape advice so the
//!   incremental value of MHP is visible (`points escape` vs `points mhp`).
//! * **Accuracy** — the static pipeline's per-bug-class precision/recall,
//!   scored against each sample's documented classes and the dynamic
//!   oracle (did any documented bug actually manifest under noise?).

use crate::jobpool::{cell_key, JobPool};
use crate::report::Table;
use crate::stats::FindStats;
use mtt_instrument::{shared, CountingSink, InstrumentationPlan, StaticInfo};
use mtt_noise::RandomSleep;
use mtt_runtime::{Execution, RandomScheduler};
use mtt_static::{analyze, compile, parse, samples};
use std::collections::BTreeSet;

/// One row of the E7 grid.
#[derive(Clone, Debug)]
pub struct StaticRow {
    /// MiniProg sample name.
    pub program: String,
    /// Events delivered under the full plan.
    pub events_full: u64,
    /// Events delivered under escape-only advice (MHP facts discarded).
    pub events_escape: u64,
    /// Events delivered under the statically-advised plan (escape + MHP).
    pub events_advised: u64,
    /// Instrumentation points kept by escape-only advice.
    pub points_escape: usize,
    /// Instrumentation points kept once MHP facts are applied.
    pub points_mhp: usize,
    /// Bug-find probability with noise consulted everywhere.
    pub find_full: FindStats,
    /// Bug-find probability with noise consulted only at advised points.
    pub find_advised: FindStats,
    /// Static race warnings emitted.
    pub static_races: usize,
    /// Static deadlock warnings emitted.
    pub static_deadlocks: usize,
    /// Bug classes named by the static diagnostics.
    pub static_classes: BTreeSet<String>,
    /// Bug classes the sample documents.
    pub documented_classes: BTreeSet<String>,
    /// Did any documented bug manifest dynamically (the oracle for recall)?
    pub manifests: bool,
    /// Whether the sample actually documents a bug.
    pub has_bug: bool,
}

mtt_json::json_struct!(StaticRow {
    program,
    events_full,
    events_escape,
    events_advised,
    points_escape,
    points_mhp,
    find_full,
    find_advised,
    static_races,
    static_deadlocks,
    static_classes,
    documented_classes,
    manifests,
    has_bug,
});

impl StaticRow {
    /// Fraction of events the advice suppressed.
    pub fn reduction(&self) -> f64 {
        if self.events_full == 0 {
            0.0
        } else {
            1.0 - self.events_advised as f64 / self.events_full as f64
        }
    }
}

/// The same advice with the may-happen-in-parallel refinement stripped:
/// every site is assumed parallel, leaving only escape / no-switch facts.
/// E7 runs both so the delta attributable to MHP is measurable.
fn escape_only(info: &StaticInfo) -> StaticInfo {
    let mut out = info.clone();
    for facts in out.sites.values_mut() {
        facts.may_run_parallel = true;
    }
    out
}

/// Number of sites the advice still wants instrumented.
fn advised_points(info: &StaticInfo) -> usize {
    info.sites
        .keys()
        .filter(|loc| info.site_relevant(loc))
        .count()
}

/// Run E7 across all MiniProg samples, one cell per sample on a job pool
/// (analysis plus the seeded find-rate runs are the per-sample cost). Rows
/// come back in catalog order at any worker count.
pub fn run_static_eval_on(runs: u64, pool: &JobPool) -> Vec<StaticRow> {
    let catalog = samples::catalog();
    let key = |i: usize| cell_key(catalog[i].name, "static-advice", format!("runs={runs}"), 40);
    pool.cells(catalog.len(), key, |i| {
        let sample = &catalog[i];
        let ast = parse(sample.src).expect("sample must parse");
        let analysis = analyze(&ast);
        let program = compile(&ast);
        let escape_info = escape_only(&analysis.info);

        // Event reduction under the advised sink plan.
        let count_events = |plan: InstrumentationPlan| -> u64 {
            let (sink, handle) = shared(CountingSink::new());
            let _ = Execution::new(&program)
                .scheduler(Box::new(RandomScheduler::new(1)))
                .plan(plan)
                .sink(Box::new(sink))
                .max_steps(30_000)
                .run();
            let total = handle.lock().unwrap().total;
            total
        };
        let events_full = count_events(InstrumentationPlan::full());
        let events_escape = count_events(InstrumentationPlan::advised(escape_info.clone()));
        let events_advised = count_events(InstrumentationPlan::advised(analysis.info.clone()));

        // Find-rate preservation under advised noise placement. A "bug" for
        // MiniProg samples = any failed assertion, deadlock or hang.
        let mut find_full = FindStats::default();
        let mut find_advised = FindStats::default();
        for r in 0..runs {
            let seed = 40 + r;
            let full = Execution::new(&program)
                .scheduler(Box::new(RandomScheduler::sticky(seed, 0.9)))
                .noise(Box::new(RandomSleep::new(seed, 0.25, 15)))
                .max_steps(30_000)
                .run();
            find_full.record(!full.ok());
            let advised = Execution::new(&program)
                .scheduler(Box::new(RandomScheduler::sticky(seed, 0.9)))
                .noise(Box::new(RandomSleep::new(seed, 0.25, 15)))
                .noise_plan(InstrumentationPlan::advised(analysis.info.clone()))
                .max_steps(30_000)
                .run();
            find_advised.record(!advised.ok());
        }

        let static_classes: BTreeSet<String> = analysis
            .diagnostics
            .iter()
            .map(|d| d.bug_class.clone())
            .filter(|c| !c.is_empty())
            .collect();
        let documented_classes: BTreeSet<String> =
            sample.classes.iter().map(|c| c.to_string()).collect();
        let manifests = find_full.hits > 0;

        StaticRow {
            program: sample.name.to_string(),
            events_full,
            events_escape,
            events_advised,
            points_escape: advised_points(&escape_info),
            points_mhp: advised_points(&analysis.info),
            find_full,
            find_advised,
            static_races: analysis.races.len(),
            static_deadlocks: analysis.deadlocks.len(),
            static_classes,
            documented_classes,
            manifests,
            has_bug: !sample.bug_tags.is_empty(),
        }
    })
}

/// The confusion matrix of one tool on one bug class: E7 and E11 score
/// programs against the documentation plus the dynamic oracle, E10 scores
/// generated members against their constructed ground truth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassScore {
    /// Predicted and positive.
    pub tp: u64,
    /// Predicted but not positive.
    pub fp: u64,
    /// Positive but missed. E7 and E11 charge a documented class only when
    /// the bug manifested dynamically.
    pub fn_: u64,
    /// Neither predicted nor positive. Only E10 counts these: its benign
    /// twins are definite negatives, while E7 and E11 leave this at 0.
    pub tn: u64,
}

impl ClassScore {
    /// tp / (tp + fp); 1.0 when nothing was predicted.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// tp / (tp + fn); 1.0 when nothing was dynamically confirmed.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }
}

/// Score the rows per bug class. A false negative is only charged when the
/// dynamic oracle backs the documentation (the bug actually manifested),
/// mirroring how a real benchmark would hold static tools to account.
pub fn score_classes(rows: &[StaticRow]) -> Vec<(String, ClassScore)> {
    let mut classes: BTreeSet<String> = BTreeSet::new();
    for r in rows {
        classes.extend(r.static_classes.iter().cloned());
        classes.extend(r.documented_classes.iter().cloned());
    }
    classes
        .into_iter()
        .map(|class| {
            let mut s = ClassScore::default();
            for r in rows {
                let predicted = r.static_classes.contains(&class);
                let documented = r.documented_classes.contains(&class);
                match (predicted, documented) {
                    (true, true) => s.tp += 1,
                    (true, false) => s.fp += 1,
                    (false, true) if r.manifests => s.fn_ += 1,
                    _ => {}
                }
            }
            (class, s)
        })
        .collect()
}

/// Render Table E7 (reduction + find-rate preservation).
pub fn static_table(rows: &[StaticRow]) -> Table {
    let mut t = Table::new(
        "E7: static advice — instrumentation reduction and find-rate preservation",
        &[
            "program",
            "events full",
            "events escape",
            "events advised",
            "reduction",
            "points escape",
            "points mhp",
            "P(find) full-noise",
            "P(find) advised-noise",
            "documented bug",
        ],
    );
    for r in rows {
        t.row(&[
            r.program.clone(),
            r.events_full.to_string(),
            r.events_escape.to_string(),
            r.events_advised.to_string(),
            format!("{:.0}%", r.reduction() * 100.0),
            r.points_escape.to_string(),
            r.points_mhp.to_string(),
            r.find_full.render(),
            r.find_advised.render(),
            r.has_bug.to_string(),
        ]);
    }
    t
}

/// Render Table E7b (per-class precision/recall of the diagnostics).
pub fn class_table(rows: &[StaticRow]) -> Table {
    let mut t = Table::new(
        "E7b: static diagnostics vs documentation + dynamic oracle, per bug class",
        &["class", "tp", "fp", "fn", "precision", "recall"],
    );
    for (class, s) in score_classes(rows) {
        t.row(&[
            class,
            s.tp.to_string(),
            s.fp.to_string(),
            s.fn_.to_string(),
            format!("{:.2}", s.precision()),
            format!("{:.2}", s.recall()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advice_reduces_events_and_static_flags_match_ground_truth() {
        let rows = run_static_eval_on(20, &JobPool::serial());
        assert!(rows.len() >= 12, "full catalog: got {}", rows.len());
        let by = |n: &str| rows.iter().find(|r| r.program == n).unwrap();

        // The ABBA sample has thread-local filler: advice must prune events.
        let abba = by("mp_abba");
        assert!(
            abba.events_advised < abba.events_full,
            "no reduction on mp_abba: {} vs {}",
            abba.events_advised,
            abba.events_full
        );
        assert_eq!(abba.static_deadlocks, 1);

        // Static race analysis agrees with the documentation.
        assert!(by("mp_lost_update").static_races >= 1);
        assert_eq!(by("mp_lost_update_fixed").static_races, 0);

        // Shape claim: advised noise placement preserves the find rate on
        // the lost-update sample (the pruned points are thread-local).
        let lu = by("mp_lost_update");
        assert!(
            lu.find_advised.rate() + 0.15 >= lu.find_full.rate(),
            "advised placement lost too much: {} vs {}",
            lu.find_advised.rate(),
            lu.find_full.rate()
        );
        assert!(!static_table(&rows).is_empty());
    }

    #[test]
    fn mhp_advice_beats_escape_only_on_fully_locked_samples() {
        let rows = run_static_eval_on(2, &JobPool::serial());
        let by = |n: &str| rows.iter().find(|r| r.program == n).unwrap();

        // In the fixed lost-update every access to the shared counters is
        // under the same lock: escape advice keeps those sites (shared!),
        // MHP proves them serialized and drops them.
        let fixed = by("mp_lost_update_fixed");
        assert!(
            fixed.points_mhp < fixed.points_escape,
            "MHP must prune beyond escape advice on mp_lost_update_fixed: {} vs {}",
            fixed.points_mhp,
            fixed.points_escape
        );

        // Same story for the split-update sample's lock-guarded accesses.
        let split = by("mp_split_update");
        assert!(split.points_mhp < split.points_escape);

        // MHP refinement can only prune, never add.
        for r in &rows {
            assert!(
                r.points_mhp <= r.points_escape,
                "{}: MHP added points",
                r.program
            );
            assert!(
                r.events_advised <= r.events_escape,
                "{}: MHP advice delivered more events than escape-only",
                r.program
            );
        }
    }

    #[test]
    fn per_class_scores_reflect_the_seeded_benchmark() {
        let rows = run_static_eval_on(20, &JobPool::serial());
        let scores = score_classes(&rows);
        let by = |c: &str| {
            scores
                .iter()
                .find(|(n, _)| n == c)
                .map(|(_, s)| *s)
                .unwrap_or_else(|| panic!("class {c} missing from {scores:?}"))
        };

        // Catalog documentation and diagnostics were co-designed, so the
        // per-class precision is perfect; any regression in the passes
        // shows up as a false positive or negative here.
        for class in ["DataRace", "Deadlock", "AtomicityViolation"] {
            let s = by(class);
            assert!(s.tp >= 2, "{class}: expected >= 2 true positives");
            assert_eq!(s.fp, 0, "{class}: unexpected false positives");
        }
        for (class, s) in &scores {
            assert!(
                s.precision() >= 0.99,
                "{class}: precision dropped to {}",
                s.precision()
            );
        }
        assert!(!class_table(&rows).is_empty());
    }
}
