//! E12: the interleaving-space saturation scoreboard.
//!
//! Where E1 asks "which tool *finds the bug* most often", E12 asks the
//! question underneath it: which tool configuration actually *visits more
//! of the interleaving space* per run? Every run is reduced to its
//! canonical Mazurkiewicz-trace fingerprint
//! ([`mtt_causal::Fingerprinter`]) — two runs that merely permuted
//! independent operations collapse into one equivalence class — and each
//! (program × tool) cell accumulates those classes in a
//! [`ScheduleCoverage`](mtt_coverage::ScheduleCoverage):
//!
//! * **distinct** — equivalence classes seen after the full run budget;
//! * **curve** — distinct classes after run 1, 2, …, R (the rarefaction
//!   curve; its shape is the saturation story);
//! * **AUC** — the normalized area under that curve, rewarding tools that
//!   discover schedules *early*;
//! * **est. unseen mass** — the Good–Turing estimate `N₁/n` of the
//!   probability that the *next* run shows a class never seen before.
//!
//! A deterministic scheduler (FIFO) pins the bottom of the scale: one
//! class, zero unseen mass. Noise heuristics spread the distribution and
//! the scoreboard quantifies by how much — per run, not just in the
//! aggregate.
//!
//! Everything is a pure function of fixed seeds (the shared
//! `0x5eed + r` ladder the campaigns use, with the campaign-standard
//! 60 000-step budget): cells shard over a [`JobPool`] one job per cell
//! and merge in roster order, so the rendered table, CSV, and JSON are
//! byte-identical at any `--jobs` count. Because the ladder, budget, and
//! execution kernel match `Campaign` exactly, the distinct-class count
//! `mtt status` reports for a journaled E1 run over the same cell equals
//! the accumulator's count here — one definition of "distinct schedule",
//! observable live.

use crate::jobpool::{cell_key, JobPool};
use crate::report::Table;
use mtt_coverage::ScheduleCoverage;
use mtt_instrument::shared;
use mtt_runtime::{Execution, Program};
use mtt_suite::SuiteProgram;
use mtt_tools::ToolConfig;

/// The tool roster E12 compares, as tool specs (the same grammar the
/// `--tools` flag speaks). Ordered from deterministic to aggressively
/// noisy so the table reads as a diversity ladder.
pub const SATURATION_ROSTER_SPECS: &[&str] = &[
    "fifo+name=fifo",
    "sticky:0.9+name=sticky",
    "sticky:0.9+noise=sleep:0.3:20+name=sleep-noise",
    "sticky:0.9+noise=mixed:0.2:20+name=mixed-noise",
];

/// Per-run step budget — the campaign standard, so fingerprints here match
/// a journaled `mtt e1` run of the same cell.
pub const SATURATION_MAX_STEPS: u64 = 60_000;

/// Seed of run `r` — the campaign-standard ladder.
pub const SATURATION_BASE_SEED: u64 = 0x5eed;

/// One (program × tool) cell of the saturation grid.
#[derive(Clone, Debug)]
pub struct SaturationCell {
    /// Program under test.
    pub program: String,
    /// Tool display name (`name=` of the spec).
    pub tool: String,
    /// Canonical spec string the cell can be re-created from.
    pub tool_spec: String,
    /// Runs executed.
    pub runs: u64,
    /// Distinct Mazurkiewicz-trace classes seen.
    pub distinct: u64,
    /// Classes seen exactly once (the Good–Turing numerator).
    pub singletons: u64,
    /// Good–Turing estimate of the unseen probability mass.
    pub unseen_mass: f64,
    /// Normalized area under the rarefaction curve, in (0, 1].
    pub auc: f64,
    /// Distinct classes after each run: `curve[i]` = classes after run
    /// `i + 1`. Monotone non-decreasing; `curve.last() == distinct`.
    pub curve: Vec<u64>,
}

mtt_json::json_struct!(SaturationCell {
    program,
    tool,
    tool_spec,
    runs,
    distinct,
    singletons,
    unseen_mass,
    auc,
    curve,
});

/// `mtt e12 --json`: schema `mtt-e12-saturation`, version 1.
#[derive(Clone, Debug)]
pub struct SaturationJson {
    /// `mtt-e12-saturation`.
    pub schema: String,
    /// 1.
    pub version: u64,
    /// [`SATURATION_BASE_SEED`].
    pub base_seed: u64,
    /// [`SATURATION_MAX_STEPS`].
    pub max_steps: u64,
    /// Every cell, rarefaction curve included, in grid order.
    pub cells: Vec<SaturationCell>,
}

mtt_json::json_struct!(SaturationJson {
    schema,
    version,
    base_seed,
    max_steps,
    cells,
});

/// The fixed program set E12 measures: one data-race idiom, one lock-order
/// idiom, one check-then-act idiom — small enough that the full grid is a
/// push-button experiment, varied enough that the diversity ladder shows.
pub fn saturation_programs() -> Vec<SuiteProgram> {
    vec![
        mtt_suite::small::lost_update(2, 2),
        mtt_suite::small::ab_ba(),
        mtt_suite::small::check_then_act(),
    ]
}

/// Execute one seeded run under `cfg` and return its canonical trace
/// fingerprint (32 hex digits). This is the same execution kernel
/// [`Campaign`](crate::campaign::Campaign) runs — scheduler, noise, and
/// step budget all come from the tool spec — so E12's equivalence classes
/// are the classes a journaled campaign records.
pub fn run_fingerprint(program: &Program, cfg: &ToolConfig, seed: u64, max_steps: u64) -> String {
    let (half, handle) = shared(mtt_causal::Fingerprinter::default());
    let mut exec = cfg.configure(Execution::new(program), seed, max_steps);
    exec = exec.sink(Box::new(half));
    let _ = exec.run();
    let fp = handle
        .lock()
        .expect("fingerprint sink poisoned")
        .fingerprint();
    fp.to_hex()
}

/// Run E12, one cell per (program × tool) on `pool`. Every run inside a
/// cell is seeded from the run index alone, so cells come back identical
/// (and in grid order) at any worker count.
pub fn run_saturation_on(runs: u64, pool: &JobPool) -> Vec<SaturationCell> {
    let programs = saturation_programs();
    let tools = ToolConfig::roster(SATURATION_ROSTER_SPECS);
    let n_tools = tools.len();
    let key = |i: usize| {
        let (prog, cfg) = (&programs[i / n_tools], &tools[i % n_tools]);
        let spec = format!("{} runs={runs}", cfg.spec_string());
        cell_key(prog.name, &cfg.name, spec, SATURATION_BASE_SEED)
    };
    pool.cells(programs.len() * n_tools, key, |i| {
        let prog = &programs[i / n_tools];
        let cfg = &tools[i % n_tools];
        let mut cov = ScheduleCoverage::default();
        for r in 0..runs {
            let seed = SATURATION_BASE_SEED + r;
            cov.observe(run_fingerprint(
                &prog.program,
                cfg,
                seed,
                SATURATION_MAX_STEPS,
            ));
        }
        SaturationCell {
            program: prog.name.to_string(),
            tool: cfg.name.clone(),
            tool_spec: cfg.spec_string(),
            runs: cov.runs(),
            distinct: cov.distinct() as u64,
            singletons: cov.singletons() as u64,
            unseen_mass: cov.good_turing_unseen_mass(),
            auc: cov.auc(),
            curve: cov.history.iter().map(|&d| d as u64).collect(),
        }
    })
}

/// Render Table E12.
pub fn saturation_table(cells: &[SaturationCell]) -> Table {
    let mut t = Table::new(
        "E12: schedule-space saturation — distinct Mazurkiewicz classes per tool",
        &[
            "program",
            "tool",
            "runs",
            "distinct",
            "singletons",
            "est unseen mass",
            "AUC",
        ],
    );
    for c in cells {
        t.row(&[
            c.program.clone(),
            c.tool.clone(),
            c.runs.to_string(),
            c.distinct.to_string(),
            c.singletons.to_string(),
            format!("{:.3}", c.unseen_mass),
            format!("{:.3}", c.auc),
        ]);
    }
    t
}

/// The full text report — what `mtt e12` prints and the golden test pins.
pub fn render_report(cells: &[SaturationCell]) -> String {
    format!("{}\n", saturation_table(cells).render())
}

/// The table as CSV.
pub fn render_csv(cells: &[SaturationCell]) -> String {
    saturation_table(cells).to_csv()
}

/// The machine-readable report, rarefaction curves included.
pub fn saturation_json(cells: &[SaturationCell]) -> SaturationJson {
    SaturationJson {
        schema: "mtt-e12-saturation".into(),
        version: 1,
        base_seed: SATURATION_BASE_SEED,
        max_steps: SATURATION_MAX_STEPS,
        cells: cells.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_programs_times_roster_and_curves_are_sane() {
        let cells = run_saturation_on(8, &JobPool::serial());
        assert_eq!(
            cells.len(),
            saturation_programs().len() * SATURATION_ROSTER_SPECS.len()
        );
        for c in &cells {
            assert_eq!(c.runs, 8);
            assert_eq!(c.curve.len(), 8);
            assert_eq!(*c.curve.last().unwrap(), c.distinct);
            assert!(c.curve.windows(2).all(|w| w[0] <= w[1]), "curve monotone");
            assert!(c.distinct >= 1 && c.distinct <= c.runs);
            assert!((0.0..=1.0).contains(&c.unseen_mass));
            assert!(c.auc > 0.0 && c.auc <= 1.0);
        }
    }

    #[test]
    fn fifo_is_fully_saturated_and_noise_expands_the_space() {
        let cells = run_saturation_on(10, &JobPool::serial());
        let cell = |tool: &str, program: &str| {
            cells
                .iter()
                .find(|c| c.tool == tool && c.program == program)
                .unwrap_or_else(|| panic!("cell {program}/{tool} missing"))
        };
        // A deterministic scheduler visits exactly one class, so the
        // Good–Turing estimate says the space is exhausted.
        for p in saturation_programs() {
            let fifo = cell("fifo", p.name);
            assert_eq!(fifo.distinct, 1, "{}: fifo must be deterministic", p.name);
            assert_eq!(fifo.unseen_mass, 0.0);
        }
        // Noise strictly widens the visited space on the racy counter.
        let sticky = cell("sticky", "lost_update");
        let noisy = cell("mixed-noise", "lost_update");
        assert!(
            noisy.distinct >= sticky.distinct,
            "noise must not shrink the class count: {} < {}",
            noisy.distinct,
            sticky.distinct
        );
        assert!(noisy.distinct > 1, "noise finds more than one schedule");
    }

    #[test]
    fn report_is_identical_across_job_counts() {
        let serial = run_saturation_on(6, &JobPool::new(1));
        let par = run_saturation_on(6, &JobPool::new(4));
        assert_eq!(render_report(&serial), render_report(&par));
        assert_eq!(render_csv(&serial), render_csv(&par));
        assert_eq!(
            mtt_json::to_string(&saturation_json(&serial)),
            mtt_json::to_string(&saturation_json(&par))
        );
    }

    #[test]
    fn journaled_campaign_distinct_count_matches_the_accumulator() {
        // The acceptance criterion made executable: run the same
        // (program × tool × seed) grid through the *campaign* with a
        // journal attached, fold the journal with `mtt status`'s summary,
        // and the distinct-schedule count must equal what this module's
        // accumulator computes — two code paths, one equivalence relation.
        use crate::campaign::Campaign;
        use std::collections::BTreeSet;
        use std::io::Write;
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let runs = 6u64;
        let programs = vec![mtt_suite::small::lost_update(2, 2)];
        let tools = ToolConfig::roster(SATURATION_ROSTER_SPECS);

        // Path 1: the E12 accumulator, unioned across the roster.
        let mut expected: BTreeSet<String> = BTreeSet::new();
        for cfg in &tools {
            for r in 0..runs {
                expected.insert(run_fingerprint(
                    &programs[0].program,
                    cfg,
                    SATURATION_BASE_SEED + r,
                    SATURATION_MAX_STEPS,
                ));
            }
        }

        // Path 2: a journaled campaign over the same grid.
        let buf = SharedBuf::default();
        let campaign = Campaign {
            programs,
            tools,
            runs,
            journal: Some(Arc::new(mtt_obs::JournalSink::from_writer(buf.clone()))),
            ..Campaign::standard(vec![], 0)
        };
        let _ = campaign.run_on(&JobPool::serial());
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let parsed = mtt_obs::parse_journal(&text).expect("journal parses");
        let summary = mtt_obs::StatusSummary::from_journal(&parsed);
        assert_eq!(
            summary.distinct_schedules,
            expected.len() as u64,
            "status fold and E12 accumulator disagree on distinct schedules"
        );
    }
}
