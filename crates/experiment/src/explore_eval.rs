//! E6: systematic exploration vs randomized testing — executions and
//! transitions to the first bug, per search configuration.

use crate::jobpool::JobPool;
use crate::report::Table;
use mtt_explore::{ExploreOptions, Explorer};
use mtt_runtime::{Execution, RandomScheduler};
use mtt_suite::SuiteProgram;

/// One row of the E6 grid.
#[derive(Clone, Debug)]
pub struct ExploreRow {
    /// Program name.
    pub program: String,
    /// Search configuration label.
    pub config: &'static str,
    /// Executions until the first bug (None = not found within budget).
    pub execs_to_bug: Option<u64>,
    /// Total transitions executed.
    pub transitions: u64,
    /// Whether the (bounded) tree was exhausted without a bug.
    pub exhausted_clean: bool,
}

/// The systematic search configurations E6 compares (label, options).
fn search_configs(budget: u64) -> Vec<(&'static str, ExploreOptions)> {
    vec![
        (
            "dfs",
            ExploreOptions {
                branch_only_visible: false,
                max_executions: budget,
                ..Default::default()
            },
        ),
        (
            "dfs+por",
            ExploreOptions {
                branch_only_visible: true,
                max_executions: budget,
                ..Default::default()
            },
        ),
        (
            "dfs+por+state",
            ExploreOptions {
                branch_only_visible: true,
                stateful: true,
                max_executions: budget,
                ..Default::default()
            },
        ),
        (
            "preempt<=2",
            ExploreOptions {
                branch_only_visible: true,
                preemption_bound: Some(2),
                max_executions: budget,
                ..Default::default()
            },
        ),
    ]
}

/// Run E6 on the given programs, sharding the (program × search
/// configuration) grid — including the random baseline — across a job pool.
/// Each grid cell is an independent deterministic search, so the rows are
/// identical for any worker count.
pub fn run_explore_eval_on(
    programs: &[SuiteProgram],
    budget: u64,
    pool: &JobPool,
) -> Vec<ExploreRow> {
    let systematic = search_configs(budget);
    let per_program = systematic.len() + 1; // + random baseline
    pool.run(programs.len() * per_program, |i| {
        let p = &programs[i / per_program];
        let c = i % per_program;
        if c < systematic.len() {
            let (label, opts) = &systematic[c];
            let sp = p.clone();
            let explorer = Explorer::new(&p.program, opts.clone())
                .with_oracle(move |o: &mtt_runtime::Outcome| sp.judge(o).failed());
            let r = explorer.run();
            ExploreRow {
                program: p.name.to_string(),
                config: label,
                execs_to_bug: r.executions_to_first_bug(),
                transitions: r.transitions,
                exhausted_clean: r.exhausted && r.bugs.is_empty(),
            }
        } else {
            // The random-testing baseline: runs until the oracle fires.
            let mut execs = None;
            let mut transitions = 0u64;
            for seed in 0..budget {
                let o = Execution::new(&p.program)
                    .scheduler(Box::new(RandomScheduler::new(seed)))
                    .max_steps(20_000)
                    .run();
                transitions += o.stats.sched_points;
                if p.judge(&o).failed() {
                    execs = Some(seed + 1);
                    break;
                }
            }
            ExploreRow {
                program: p.name.to_string(),
                config: "random",
                execs_to_bug: execs,
                transitions,
                exhausted_clean: false,
            }
        }
    })
}

/// Render Table E6.
pub fn explore_table(rows: &[ExploreRow]) -> Table {
    let mut t = Table::new(
        "E6: executions to first bug — systematic vs random",
        &[
            "program",
            "config",
            "execs to bug",
            "transitions",
            "exhausted clean",
        ],
    );
    for r in rows {
        t.row(&[
            r.program.clone(),
            r.config.to_string(),
            r.execs_to_bug
                .map_or("not found".to_string(), |e| e.to_string()),
            r.transitions.to_string(),
            r.exhausted_clean.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exploration_finds_bugs_and_por_is_cheaper() {
        let programs = vec![mtt_suite::small::lost_update(2, 1)];
        let rows = run_explore_eval_on(&programs, 3_000, &JobPool::serial());
        let by = |c: &str| rows.iter().find(|r| r.config == c).unwrap();
        // Every systematic config must find the lost update.
        for cfg in ["dfs", "dfs+por", "dfs+por+state", "preempt<=2"] {
            assert!(
                by(cfg).execs_to_bug.is_some(),
                "{cfg} failed to find the bug"
            );
        }
        // POR should not need more executions than plain DFS.
        assert!(
            by("dfs+por").execs_to_bug.unwrap() <= by("dfs").execs_to_bug.unwrap(),
            "POR took more executions than plain DFS"
        );
        assert!(!explore_table(&rows).is_empty());
    }
}
