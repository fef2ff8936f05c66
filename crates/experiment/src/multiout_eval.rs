//! E5: the §4.4 outcome-distribution comparison on the no-input
//! multi-outcome benchmark program. "Tools such as noise makers can be
//! compared as to the distribution of their results. Analysis of outcomes
//! will be produced as part of the prepared experiment."

use crate::jobpool::JobPool;
use crate::report::Table;
use crate::stats::{total_variation, Distribution};
use mtt_runtime::Execution;
use mtt_suite::multiout;
use mtt_tools::ToolConfig;

/// The specs of the standard E5 roster: deterministic baseline, sticky
/// random, uniform random, and noise on top of sticky. The `name=` clauses
/// pin the historical display names (which predate the spec grammar and
/// contain `+`).
pub const MULTIOUT_ROSTER_SPECS: &[&str] = &[
    "fifo+name=fifo",
    "sticky:0.9+name=sticky-0.9",
    "random+name=uniform",
    "sticky:0.9+noise=yield:0.3+name=sticky+yield",
    "sticky:0.9+noise=sleep:0.2:15+name=sticky+sleep",
    "sticky:0.9+noise=mixed:0.25:15+name=sticky+mixed",
];

/// The standard E5 roster, resolved from [`MULTIOUT_ROSTER_SPECS`].
pub fn standard_configs() -> Vec<ToolConfig> {
    MULTIOUT_ROSTER_SPECS
        .iter()
        .map(|s| ToolConfig::from_spec_str(s).expect("multiout roster specs are valid"))
        .collect()
}

/// One configuration's measured distributions: over the full §4.4
/// signature (results + finish order) and over the result values alone.
/// The full signature has enormous support (finish orders of nine threads),
/// so the values-only view is where tool differences are readable.
pub struct MultioutRow {
    /// Configuration name.
    pub name: String,
    /// Distribution over full signatures (results + finish order).
    pub full: Distribution,
    /// Distribution over the component result values only.
    pub values: Distribution,
}

/// Run the multiout program `runs` times under each configuration and
/// collect the outcome-signature distributions, sharding the whole
/// (configuration × seed) matrix across a job pool. Distributions are count
/// maps, so folding the per-run signatures in canonical order reproduces
/// the serial result exactly at any worker count.
pub fn run_multiout_eval_on(runs: u64, base_seed: u64, pool: &JobPool) -> Vec<MultioutRow> {
    run_multiout_eval_with(runs, base_seed, standard_configs(), pool)
}

/// [`run_multiout_eval_on`] over an explicit tool roster (the `--tools` /
/// `--tools-file` path). Only each tool's scheduler and noise components
/// matter to the distribution comparison; the E5 driver seeds the noise
/// maker with `seed ^ 0xabcd`, matching its historical behavior.
pub fn run_multiout_eval_with(
    runs: u64,
    base_seed: u64,
    configs: Vec<ToolConfig>,
    pool: &JobPool,
) -> Vec<MultioutRow> {
    let program = multiout::program();
    let n_runs = runs as usize;

    let samples: Vec<(String, String)> = pool.run(configs.len() * n_runs, |i| {
        let cfg = &configs[i / n_runs];
        let seed = base_seed + (i % n_runs) as u64;
        let outcome = Execution::new(&program)
            .scheduler((cfg.scheduler)(seed))
            .noise((cfg.noise)(seed ^ 0xabcd))
            .run();
        let sig = multiout::signature(&outcome);
        let vals = sig.split("]/").next().unwrap_or(&sig).to_string();
        (sig, vals)
    });

    let mut samples = samples.into_iter();
    configs
        .into_iter()
        .map(|cfg| {
            let mut full = Distribution::new();
            let mut values = Distribution::new();
            for _ in 0..runs {
                let (sig, vals) = samples.next().expect("one signature per run");
                full.record(sig);
                values.record(vals);
            }
            MultioutRow {
                name: cfg.name,
                full,
                values,
            }
        })
        .collect()
}

/// Render Table E5 (support + entropy per config, plus TV distance to the
/// uniform-random reference, over the values-only view).
pub fn multiout_table(results: &[MultioutRow]) -> Table {
    let reference = results
        .iter()
        .find(|r| r.name == "uniform")
        .map(|r| r.values.clone())
        .unwrap_or_default();
    let mut t = Table::new(
        "E5: outcome distributions on the multiout benchmark program",
        &[
            "config",
            "runs",
            "distinct full outcomes",
            "distinct result vectors",
            "value entropy bits",
            "TV vs uniform",
        ],
    );
    for r in results {
        t.row(&[
            r.name.clone(),
            r.full.total.to_string(),
            r.full.support().to_string(),
            r.values.support().to_string(),
            format!("{:.2}", r.values.entropy()),
            format!("{:.2}", total_variation(&r.values, &reference)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiout_distributions_rank_as_expected() {
        let results = run_multiout_eval_on(60, 11, &JobPool::serial());
        let by = |n: &str| {
            results
                .iter()
                .find(|r| r.name == n)
                .unwrap_or_else(|| panic!("missing config {n}"))
        };
        // The deterministic scheduler produces exactly one outcome.
        assert_eq!(by("fifo").full.support(), 1);
        assert_eq!(by("fifo").values.entropy(), 0.0);
        // Uniform random spreads far wider than fifo.
        assert!(by("uniform").values.support() > 3);
        // Noise widens the sticky scheduler's *result* distribution.
        assert!(
            by("sticky+sleep").values.support() > by("sticky-0.9").values.support(),
            "sleep noise {} should beat bare sticky {}",
            by("sticky+sleep").values.support(),
            by("sticky-0.9").values.support()
        );
        assert!(!multiout_table(&results).is_empty());
    }
}
