//! E1's overhead axis: "two noise makers can be compared to each other
//! with regard to the performance overhead and the likelihood of
//! uncovering bugs" — this bench measures the first half, per heuristic
//! and per placement strategy. The tool stacks come from the `mtt-tools`
//! registry, so the benched configurations are exactly the ones a
//! `--tools` flag can name.

use mtt_bench::{workload, Smoke};
use mtt_core::prelude::*;
use mtt_core::tools::ToolConfig;

fn main() {
    let mut smoke = Smoke::new("noise");
    let p = workload(4, 20);

    let heuristics = [
        "sticky:0.9+name=none",
        "sticky:0.9+noise=yield:0.2+name=yield-0.2",
        "sticky:0.9+noise=sleep:0.2:20+name=sleep-0.2",
        "sticky:0.9+noise=mixed:0.2:20+name=mixed-0.2",
        "sticky:0.9+noise=halt+name=halt",
        "sticky:0.9+noise=coverage+name=coverage",
    ];
    // Placement: the same heuristic consulted at fewer points.
    let placements = [
        "sticky:0.9+noise=sleep:0.2:20+place=everywhere+name=placed-everywhere",
        "sticky:0.9+noise=sleep:0.2:20+place=sync+name=placed-sync-only",
        "sticky:0.9+noise=sleep:0.2:20+place=vars+name=placed-var-access",
    ];
    for spec in heuristics.into_iter().chain(placements) {
        let cfg = ToolConfig::from_spec_str(spec).expect("bench specs are valid");
        smoke.time(&cfg.name, 32, || {
            cfg.configure(Execution::new(&p), 1, u64::MAX).run()
        });
    }
}
