//! E4: coverage models — growth across runs, the run-count advisor, and
//! the coverage↔bug-finding correlation the paper asks to be studied
//! ("better measures should be created and their correlation to bug
//! detection studied").

use crate::campaign::STANDARD_MAX_STEPS;
use crate::jobpool::{cell_key, JobPool};
use crate::report::Table;
use mtt_coverage::{
    Advice, ContentionCoverage, CoverageModel, Cumulative, OrderedPairCoverage, RunCountAdvisor,
    SiteCoverage, SyncCoverage,
};
use mtt_instrument::shared;
use mtt_runtime::{Execution, RandomScheduler};
use mtt_suite::SuiteProgram;
use std::collections::BTreeSet;

/// Result of tracking one coverage model over a run sequence.
#[derive(Clone, Debug)]
pub struct CoverageCurve {
    /// Model name.
    pub model: &'static str,
    /// Cumulative task count after each run.
    pub history: Vec<usize>,
    /// Runs after which the advisor would have stopped.
    pub advisor_stop: usize,
    /// Runs (among those executed) in which a documented bug manifested.
    pub buggy_runs: Vec<usize>,
}

impl CoverageCurve {
    /// Did coverage still grow in the last `k` runs?
    pub fn saturated_after(&self) -> usize {
        // First index after which the cumulative count never grows again.
        let last = *self.history.last().unwrap_or(&0);
        self.history
            .iter()
            .position(|&c| c == last)
            .map(|i| i + 1)
            .unwrap_or(0)
    }
}

/// Run E4 on one program: execute `runs` seeded runs, tracking all four
/// models simultaneously; compute per-model growth curves and the advisor's
/// stopping point (window = 3, min runs = 2).
///
/// The runs are one cell space on a job pool. The per-run coverage sets are
/// computed in parallel; the *cumulative* fold — which is inherently
/// ordered, because the growth curve and the advisor depend on what was
/// already seen — happens afterwards in run order, so the curves are
/// identical for any worker count.
pub fn run_coverage_eval_on(
    program: &SuiteProgram,
    runs: u64,
    base_seed: u64,
    pool: &JobPool,
) -> Vec<CoverageCurve> {
    let table = program.program.var_table();
    let mut cumulative: Vec<(&'static str, Cumulative, RunCountAdvisor, Option<usize>)> = vec![
        ("site", Cumulative::new(), RunCountAdvisor::new(3, 2), None),
        (
            "contention",
            Cumulative::new(),
            RunCountAdvisor::new(3, 2),
            None,
        ),
        ("sync", Cumulative::new(), RunCountAdvisor::new(3, 2), None),
        (
            "ordered-pair",
            Cumulative::new(),
            RunCountAdvisor::new(3, 2),
            None,
        ),
    ];
    let mut buggy_runs = Vec::new();

    let seed = |r: usize| base_seed + r as u64;
    let key = |r: usize| cell_key(program.name, "random", "random".into(), seed(r));
    let per_run: Vec<(Vec<BTreeSet<String>>, bool)> = pool.cells(runs as usize, key, |r| {
        let (site_sink, site_h) = shared(SiteCoverage::new());
        let (cont_sink, cont_h) = shared(ContentionCoverage::new(&table));
        let (sync_sink, sync_h) = shared(SyncCoverage::new());
        let (pair_sink, pair_h) = shared(OrderedPairCoverage::new(&table));
        let outcome = Execution::new(&program.program)
            .scheduler(Box::new(RandomScheduler::new(seed(r))))
            .sink(Box::new(site_sink))
            .sink(Box::new(cont_sink))
            .sink(Box::new(sync_sink))
            .sink(Box::new(pair_sink))
            .max_steps(STANDARD_MAX_STEPS)
            .run();
        let covered = vec![
            site_h.lock().unwrap().covered_tasks(),
            cont_h.lock().unwrap().covered_tasks(),
            sync_h.lock().unwrap().covered_tasks(),
            pair_h.lock().unwrap().covered_tasks(),
        ];
        (covered, program.judge(&outcome).failed())
    });

    for (r, (covered, failed)) in per_run.iter().enumerate() {
        if *failed {
            buggy_runs.push(r);
        }
        for (i, tasks) in covered.iter().enumerate() {
            let (_, cum, advisor, stop) = &mut cumulative[i];
            let fresh = cum.absorb(tasks);
            if stop.is_none() && advisor.after_run(fresh) == Advice::Stop {
                *stop = Some(advisor.runs());
            }
        }
    }

    cumulative
        .into_iter()
        .map(|(model, cum, advisor, stop)| CoverageCurve {
            model,
            history: cum.history.clone(),
            advisor_stop: stop.unwrap_or(advisor.runs()),
            buggy_runs: buggy_runs.clone(),
        })
        .collect()
}

/// Render Table E4.
pub fn coverage_table(program: &str, curves: &[CoverageCurve]) -> Table {
    let mut t = Table::new(
        format!("E4: coverage growth and run-count advice — {program}"),
        &[
            "model",
            "after 1 run",
            "final",
            "growth stopped at run",
            "advisor stops after",
            "buggy runs seen",
        ],
    );
    for c in curves {
        t.row(&[
            c.model.to_string(),
            c.history.first().copied().unwrap_or(0).to_string(),
            c.history.last().copied().unwrap_or(0).to_string(),
            c.saturated_after().to_string(),
            c.advisor_stop.to_string(),
            c.buggy_runs.len().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_curves_show_the_papers_shape() {
        let p = mtt_suite::small::lost_update(2, 2);
        let curves = run_coverage_eval_on(&p, 15, 0, &JobPool::serial());
        assert_eq!(curves.len(), 4);
        let by = |m: &str| curves.iter().find(|c| c.model == m).unwrap();

        // Site coverage saturates immediately — the paper's point that
        // statement coverage is near-useless for concurrency.
        let site = by("site");
        assert_eq!(
            site.history.first(),
            site.history.last(),
            "site coverage should saturate in one run: {:?}",
            site.history
        );
        // Ordered pairs keep growing past the first run: the concurrency
        // models have room that repeated runs actually fill.
        let pair = by("ordered-pair");
        assert!(
            pair.history.last().unwrap() > pair.history.first().unwrap(),
            "ordered pairs should grow over runs: {:?}",
            pair.history
        );
        // Advisor: site model stops early; pair model keeps going longer.
        assert!(
            by("site").advisor_stop <= by("ordered-pair").advisor_stop,
            "advisor should allow more runs for the richer model"
        );
        assert!(!coverage_table("lost_update", &curves).is_empty());
    }
}
