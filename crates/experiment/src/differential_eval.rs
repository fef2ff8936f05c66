//! E13: the model-vs-real differential.
//!
//! Every other experiment in this crate runs the benchmark under the
//! *model* backend — a deterministic token-passing interpreter whose
//! interleavings are chosen by a seeded scheduler. E13 asks the question
//! that validates the model: **do the probabilities the model reports
//! survive contact with real threads?** Each (program × tool) cell runs
//! the same seeded ladder twice — once under [`RuntimeBackend::Model`],
//! once under [`RuntimeBackend::Native`] (real `std::thread`, real locks,
//! noise mapped to real yields and sleeps) — and compares:
//!
//! * **find probability** per backend, with 95% Wilson brackets, plus a
//!   flag for whether the two intervals overlap (a cheap two-proportion
//!   sanity check at campaign-scale run counts);
//! * the **outcome distribution** per backend (signature =
//!   `kind|final_vars`), summarized as support, Shannon entropy, and the
//!   **total-variation distance** between the two;
//! * native-only physical evidence the model cannot produce: **torn
//!   reads** observed by the [`mtt_race::RaceCell`] oracle, and runs the
//!   wall-clock watchdog had to kill.
//!
//! Model legs are pure functions of the seed ladder, so they are
//! byte-identical at any `--jobs` count ([`model_csv`] is the artifact the
//! identity test pins). Native legs are *real* concurrency: the report
//! never golden-tests them — tests assert schema validity and tolerances
//! (probabilities in range, distributions non-empty, entropy finite)
//! instead. Program-level randomness is seeded identically under both
//! backends (`program_seed = seed`), so a differential varies only the
//! execution engine, never the program's own coin flips.

use crate::jobpool::{cell_key, JobPool};
use crate::report::Table;
use crate::stats::{total_variation, Distribution, FindStats};
use mtt_runtime::{Execution, Outcome, Program};
use mtt_suite::SuiteProgram;
use mtt_tools::ToolConfig;
use std::collections::BTreeMap;

/// The tool roster E13 differentials, as *model* tool specs (the same
/// grammar the `--tools` flag speaks). The native twin of each is derived
/// by appending `+backend=native`, so both legs of a cell share scheduler
/// hint, noise heuristic, and display name.
pub const DIFFERENTIAL_ROSTER_SPECS: &[&str] = &[
    "sticky:0.9+name=sticky",
    "sticky:0.9+noise=sleep:0.3:20+name=sleep-noise",
    "sticky:0.9+noise=mixed:0.2:20+name=mixed-noise",
];

/// Per-run step budget — the campaign standard, shared with E1/E12.
pub const DIFFERENTIAL_MAX_STEPS: u64 = 60_000;

/// Seed of run `r` — the campaign-standard ladder.
pub const DIFFERENTIAL_BASE_SEED: u64 = 0x5eed;

/// Hard wall-clock budget per *native* run. A native run can genuinely
/// hang, so the watchdog converts budget exhaustion into a `StepLimit`
/// outcome instead of hanging the experiment.
pub const NATIVE_RUN_BUDGET_MS: u64 = 2_000;

/// One backend's half of a differential cell.
#[derive(Clone, Debug)]
pub struct BackendLeg {
    /// Canonical spec string this leg ran under (the native leg's spec
    /// carries `+backend=native`).
    pub tool_spec: String,
    /// Find-probability counter (a run "hits" when the program's oracle
    /// reports a documented bug manifested).
    pub find: FindStats,
    /// Empirical distribution over `kind|final_vars` outcome signatures.
    pub outcomes: Distribution,
    /// Runs that ended on the step/wall budget (model hang or native
    /// watchdog kill).
    pub budget_kills: u64,
    /// Torn reads observed by the `RaceCell` oracle — physical race
    /// evidence only the native backend can produce; always 0 for model.
    pub torn_reads: u64,
}

impl BackendLeg {
    fn new(tool_spec: String) -> Self {
        BackendLeg {
            tool_spec,
            find: FindStats::default(),
            outcomes: Distribution::new(),
            budget_kills: 0,
            torn_reads: 0,
        }
    }
}

mtt_json::json_struct!(BackendLeg {
    tool_spec,
    find,
    outcomes,
    budget_kills,
    torn_reads,
});

/// One (program × tool) cell of the E13 grid: the same seed ladder run
/// under both backends, plus the comparison statistics.
#[derive(Clone, Debug)]
pub struct DifferentialCell {
    /// Program under test.
    pub program: String,
    /// Tool display name (`name=` of the spec, shared by both legs).
    pub tool: String,
    /// Runs executed per leg.
    pub runs: u64,
    /// The model leg.
    pub model: BackendLeg,
    /// The native leg.
    pub native: BackendLeg,
    /// Total-variation distance between the two outcome distributions:
    /// 0 = indistinguishable behaviour, 1 = disjoint supports.
    pub tv_distance: f64,
    /// Do the 95% Wilson intervals of the two find probabilities overlap?
    pub find_intervals_overlap: bool,
}

mtt_json::json_struct!(DifferentialCell {
    program,
    tool,
    runs,
    model,
    native,
    tv_distance,
    find_intervals_overlap,
});

/// The resolved model-side E13 roster.
pub fn differential_roster() -> Vec<ToolConfig> {
    DIFFERENTIAL_ROSTER_SPECS
        .iter()
        .map(|s| ToolConfig::from_spec_str(s).expect("differential roster specs are valid"))
        .collect()
}

/// The native twin of a model roster entry: the same provenance spec with
/// only the backend flipped, re-resolved — so the twin's canonical spec
/// string carries `+backend=native` and everything else is shared.
pub fn native_twin(model: &ToolConfig) -> ToolConfig {
    let mut spec = model.spec.clone();
    spec.backend = mtt_runtime::RuntimeBackend::Native;
    spec.resolve().expect("native twin resolves")
}

/// The fixed program set E13 differentials: the E12 trio (data race,
/// lock-order deadlock, check-then-act) plus one generated buggy/benign
/// twin pair, so the differential covers both hand-written and generated
/// benchmarks — and one program where *neither* backend should find
/// anything.
pub fn differential_programs() -> Vec<SuiteProgram> {
    let mut programs = vec![
        mtt_suite::small::lost_update(2, 2),
        mtt_suite::small::ab_ba(),
        mtt_suite::small::check_then_act(),
    ];
    let fam = mtt_gen::family(DIFFERENTIAL_BASE_SEED, 0);
    if let Some(buggy) = fam.buggy().next() {
        programs.push(mtt_gen::to_suite_program(buggy));
    }
    if let Some(benign) = fam.benign().next() {
        programs.push(mtt_gen::to_suite_program(benign));
    }
    programs
}

/// Execute one seeded run of `program` under `cfg` on whichever backend
/// the config names. Program-level randomness is pinned to `seed` on both
/// backends so the two legs of a differential share the program's coin
/// flips; native runs get the [`NATIVE_RUN_BUDGET_MS`] watchdog.
pub fn run_differential_leg(
    program: &Program,
    cfg: &ToolConfig,
    seed: u64,
    max_steps: u64,
) -> Outcome {
    let mut exec = cfg.configure(Execution::new(program), seed, max_steps);
    if cfg.backend.is_native() {
        exec = exec.wall_budget(std::time::Duration::from_millis(NATIVE_RUN_BUDGET_MS));
    } else {
        exec = exec.program_seed(seed);
    }
    exec.run()
}

/// Reduce an outcome to the distribution signature E13 compares: the
/// outcome kind plus every final variable value. Torn-read assertion
/// labels are deliberately *excluded* — they are native-only evidence and
/// would force the TV distance to 1.0 on every racy cell.
pub fn outcome_signature(o: &Outcome) -> String {
    format!("{}|{:?}", o.kind.tag(), o.final_vars)
}

fn record_run(leg: &mut BackendLeg, prog: &SuiteProgram, o: &Outcome) {
    leg.find.record(prog.judge(o).failed());
    leg.outcomes.record(outcome_signature(o));
    if o.hung() {
        leg.budget_kills += 1;
    }
    leg.torn_reads += o
        .assert_failures
        .iter()
        .filter(|f| f.label.starts_with("race:torn-read:"))
        .count() as u64;
}

/// Format entropy, normalizing the IEEE negative zero a point-mass
/// distribution produces (`-1·log2(1) = -0.0`).
fn fmt_entropy(e: f64, digits: usize) -> String {
    format!("{:.*}", digits, if e == 0.0 { 0.0 } else { e })
}

fn intervals_overlap(a: &FindStats, b: &FindStats) -> bool {
    let (alo, ahi) = a.wilson95();
    let (blo, bhi) = b.wilson95();
    alo <= bhi && blo <= ahi
}

/// Run E13, one cell per (program × tool) on `pool`. Model legs are
/// seeded pure functions, so they merge back identical (and in grid order)
/// at any worker count; native legs are real concurrency and vary run to
/// run by design — a resumed run restores them from its journal.
pub fn run_differential_on(runs: u64, pool: &JobPool) -> Vec<DifferentialCell> {
    let programs = differential_programs();
    let tools = differential_roster();
    let n_tools = tools.len();
    let key = |i: usize| {
        let (prog, cfg) = (&programs[i / n_tools], &tools[i % n_tools]);
        let spec = format!("{} runs={runs}", cfg.spec_string());
        cell_key(prog.name, &cfg.name, spec, DIFFERENTIAL_BASE_SEED)
    };
    pool.cells(programs.len() * n_tools, key, |i| {
        let prog = &programs[i / n_tools];
        let model_cfg = &tools[i % n_tools];
        let native_cfg = native_twin(model_cfg);
        let mut model = BackendLeg::new(model_cfg.spec_string());
        let mut native = BackendLeg::new(native_cfg.spec_string());
        for r in 0..runs {
            let seed = DIFFERENTIAL_BASE_SEED + r;
            let mo = run_differential_leg(&prog.program, model_cfg, seed, DIFFERENTIAL_MAX_STEPS);
            record_run(&mut model, prog, &mo);
            let no = run_differential_leg(&prog.program, &native_cfg, seed, DIFFERENTIAL_MAX_STEPS);
            record_run(&mut native, prog, &no);
        }
        let tv_distance = total_variation(&model.outcomes, &native.outcomes);
        let find_intervals_overlap = intervals_overlap(&model.find, &native.find);
        DifferentialCell {
            program: prog.name.to_string(),
            tool: model_cfg.name.clone(),
            runs,
            model,
            native,
            tv_distance,
            find_intervals_overlap,
        }
    })
}

/// Render Table E13.
pub fn differential_table(cells: &[DifferentialCell]) -> Table {
    let mut t = Table::new(
        "E13: model vs native differential — find probability and outcome distributions",
        &[
            "program",
            "tool",
            "runs",
            "model find",
            "native find",
            "overlap",
            "model H",
            "native H",
            "TV",
            "torn",
            "kills",
        ],
    );
    for c in cells {
        t.row(&[
            c.program.clone(),
            c.tool.clone(),
            c.runs.to_string(),
            c.model.find.render(),
            c.native.find.render(),
            if c.find_intervals_overlap {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
            fmt_entropy(c.model.outcomes.entropy(), 3),
            fmt_entropy(c.native.outcomes.entropy(), 3),
            format!("{:.3}", c.tv_distance),
            c.native.torn_reads.to_string(),
            c.native.budget_kills.to_string(),
        ]);
    }
    t
}

/// The full text report — what `mtt e13` prints. Contains native legs, so
/// it is *not* golden-testable; use [`model_csv`] for byte-identity.
pub fn render_report(cells: &[DifferentialCell]) -> String {
    format!("{}\n", differential_table(cells).render())
}

/// The full table as CSV (native columns included).
pub fn render_csv(cells: &[DifferentialCell]) -> String {
    differential_table(cells).to_csv()
}

/// Only the deterministic *model* half of every cell, as CSV — the
/// artifact that must be byte-identical at any `--jobs` count, and the
/// regression surface the seam refactor is checked against.
pub fn model_csv(cells: &[DifferentialCell]) -> String {
    let mut t = Table::new(
        "E13 model legs",
        &[
            "program",
            "tool",
            "tool_spec",
            "hits",
            "runs",
            "support",
            "entropy",
            "outcomes",
        ],
    );
    for c in cells {
        let sigs: Vec<String> = c
            .model
            .outcomes
            .counts
            .iter()
            .map(|(sig, n)| format!("{sig}×{n}"))
            .collect();
        t.row(&[
            c.program.clone(),
            c.tool.clone(),
            c.model.tool_spec.clone(),
            c.model.find.hits.to_string(),
            c.model.find.runs.to_string(),
            c.model.outcomes.support().to_string(),
            fmt_entropy(c.model.outcomes.entropy(), 4),
            sigs.join(";"),
        ]);
    }
    t.to_csv()
}

/// One leg of a cell in `mtt e13 --json`.
#[derive(Clone, Debug)]
pub struct LegJson {
    /// Canonical spec string the leg ran under.
    pub tool_spec: String,
    /// Runs in which the oracle saw a documented bug (`hits`), of `runs`.
    pub find: FindStats,
    /// hits / runs.
    pub find_rate: f64,
    /// Lower end of the 95% Wilson interval.
    pub wilson_low: f64,
    /// Upper end of the 95% Wilson interval.
    pub wilson_high: f64,
    /// Distinct outcome signatures.
    pub support: u64,
    /// Shannon entropy of the outcome distribution, in bits.
    pub entropy: f64,
    /// Runs that ended on the step or wall budget.
    pub budget_kills: u64,
    /// Torn reads the `RaceCell` oracle observed.
    pub torn_reads: u64,
    /// Runs per `kind|final_vars` outcome signature.
    pub outcomes: BTreeMap<String, u64>,
}

mtt_json::json_struct!(LegJson {
    tool_spec,
    #[flatten]
    find,
    find_rate,
    wilson_low,
    wilson_high,
    support,
    entropy,
    budget_kills,
    torn_reads,
    outcomes,
});

impl LegJson {
    fn of(leg: &BackendLeg) -> Self {
        let (wilson_low, wilson_high) = leg.find.wilson95();
        LegJson {
            tool_spec: leg.tool_spec.clone(),
            find: leg.find,
            find_rate: leg.find.rate(),
            wilson_low,
            wilson_high,
            support: leg.outcomes.support() as u64,
            entropy: leg.outcomes.entropy(),
            budget_kills: leg.budget_kills,
            torn_reads: leg.torn_reads,
            outcomes: leg.outcomes.counts.clone(),
        }
    }
}

/// One cell in `mtt e13 --json`.
#[derive(Clone, Debug)]
pub struct CellJson {
    /// Program under test.
    pub program: String,
    /// Tool display name.
    pub tool: String,
    /// Runs per leg.
    pub runs: u64,
    /// The model leg.
    pub model: LegJson,
    /// The native leg.
    pub native: LegJson,
    /// Total-variation distance between the legs' outcome distributions.
    pub tv_distance: f64,
    /// Do the legs' 95% Wilson intervals overlap?
    pub find_intervals_overlap: bool,
}

mtt_json::json_struct!(CellJson {
    program,
    tool,
    runs,
    model,
    native,
    tv_distance,
    find_intervals_overlap,
});

/// `mtt e13 --json`: schema `mtt-e13-differential`, version 1.
#[derive(Clone, Debug)]
pub struct DifferentialJson {
    /// `mtt-e13-differential`.
    pub schema: String,
    /// 1.
    pub version: u64,
    /// [`DIFFERENTIAL_BASE_SEED`].
    pub base_seed: u64,
    /// [`DIFFERENTIAL_MAX_STEPS`].
    pub max_steps: u64,
    /// [`NATIVE_RUN_BUDGET_MS`].
    pub native_budget_ms: u64,
    /// Every cell, in grid order.
    pub cells: Vec<CellJson>,
}

mtt_json::json_struct!(DifferentialJson {
    schema,
    version,
    base_seed,
    max_steps,
    native_budget_ms,
    cells,
});

/// The machine-readable report (`mtt e13 --json`).
pub fn differential_json(cells: &[DifferentialCell]) -> DifferentialJson {
    let cells = cells
        .iter()
        .map(|c| CellJson {
            program: c.program.clone(),
            tool: c.tool.clone(),
            runs: c.runs,
            model: LegJson::of(&c.model),
            native: LegJson::of(&c.native),
            tv_distance: c.tv_distance,
            find_intervals_overlap: c.find_intervals_overlap,
        })
        .collect();
    DifferentialJson {
        schema: "mtt-e13-differential".into(),
        version: 1,
        base_seed: DIFFERENTIAL_BASE_SEED,
        max_steps: DIFFERENTIAL_MAX_STEPS,
        native_budget_ms: NATIVE_RUN_BUDGET_MS,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_twin_flips_only_the_backend() {
        for cfg in differential_roster() {
            let twin = native_twin(&cfg);
            assert!(twin.backend.is_native());
            assert!(!cfg.backend.is_native());
            assert_eq!(twin.name, cfg.name);
            assert!(twin.spec_string().contains("+backend=native"));
            assert!(!cfg.spec_string().contains("backend"));
        }
    }

    #[test]
    fn grid_covers_programs_times_roster_with_sane_statistics() {
        let cells = run_differential_on(3, &JobPool::serial());
        assert_eq!(
            cells.len(),
            differential_programs().len() * DIFFERENTIAL_ROSTER_SPECS.len()
        );
        for c in &cells {
            // Model legs are exact; native legs are tolerance-checked —
            // never golden — because they are real concurrency.
            assert_eq!(c.model.find.runs, 3);
            assert_eq!(c.native.find.runs, 3);
            assert_eq!(c.model.torn_reads, 0, "model cannot observe torn reads");
            assert!(c.model.outcomes.support() >= 1);
            assert!(c.native.outcomes.support() >= 1);
            assert!((0.0..=1.0).contains(&c.model.find.rate()));
            assert!((0.0..=1.0).contains(&c.native.find.rate()));
            assert!((0.0..=1.0).contains(&c.tv_distance));
            assert!(c.model.outcomes.entropy().is_finite());
            assert!(c.native.outcomes.entropy().is_finite());
        }
    }

    #[test]
    fn benign_twin_is_clean_under_both_backends() {
        // The generated benign twin is race-free: no oracle hit and no
        // torn read under either engine, at any noise level.
        let cells = run_differential_on(3, &JobPool::serial());
        let benign: Vec<_> = cells
            .iter()
            .filter(|c| c.program.ends_with("_ok"))
            .collect();
        assert!(!benign.is_empty(), "roster includes a benign twin");
        for c in benign {
            assert_eq!(c.model.find.hits, 0, "{}: model false positive", c.program);
            assert_eq!(
                c.native.find.hits, 0,
                "{}: native false positive",
                c.program
            );
            assert_eq!(c.native.torn_reads, 0, "{}: benign twin tore", c.program);
        }
    }

    #[test]
    fn model_legs_are_identical_across_job_counts() {
        let serial = run_differential_on(4, &JobPool::new(1));
        let par = run_differential_on(4, &JobPool::new(4));
        assert_eq!(model_csv(&serial), model_csv(&par));
        // And the JSON schema header is stable regardless of pool shape.
        let j = mtt_json::to_string(&differential_json(&serial));
        assert!(j.contains("\"schema\":\"mtt-e13-differential\""));
        assert!(j.contains("\"version\":1"));
    }
}
