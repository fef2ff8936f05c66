//! Causal-annotation overhead: what `mtt explain` / `--annotate` add on
//! top of plain trace generation.
//!
//! The acceptance bar for the observability layer is that annotating a
//! trace (vector clocks + happens-before edges) costs well under 10% of
//! generating it in the first place — the annotator is a single linear
//! pass over the records. `tracegen_only` is the baseline, `tracegen_plus_
//! annotate` the full pipeline; the downstream renderings (timeline, diff)
//! are pinned separately since `mtt explain` pays them once per
//! invocation, not per run.

use mtt_bench::Smoke;
use mtt_core::causal::{annotate_trace, render_timeline, TraceDiff};
use mtt_core::experiment::tracegen::{self, TraceGenOptions};

fn opts(seed: u64) -> TraceGenOptions {
    TraceGenOptions {
        seed,
        stickiness: 0.0,
        max_steps: 20_000,
    }
}

fn main() {
    let mut smoke = Smoke::new("causal");
    // The E1 slice the telemetry bench also uses: two small programs, a
    // handful of seeds each.
    let programs = [
        mtt_core::suite::small::lost_update(2, 2),
        mtt_core::suite::small::ab_ba(),
    ];
    smoke.time("tracegen_only_2progs_x8seeds", 16, || {
        let mut events = 0usize;
        for p in &programs {
            for seed in 0..8 {
                events += tracegen::generate(p, &opts(seed)).records.len();
            }
        }
        events
    });
    smoke.time("tracegen_plus_annotate_2progs_x8seeds", 16, || {
        let mut edges = 0usize;
        for p in &programs {
            for seed in 0..8 {
                let t = tracegen::generate(p, &opts(seed));
                let ann = annotate_trace(&t);
                edges += ann.notes.iter().map(|n| n.hb_from.len()).sum::<usize>();
            }
        }
        edges
    });

    // The renderings `mtt explain` pays once per invocation.
    let p = mtt_core::suite::small::lost_update(2, 2);
    let fail = tracegen::generate(&p, &opts(2));
    let pass = tracegen::generate(&p, &opts(0));
    let ann = annotate_trace(&fail);
    smoke.time("annotate_one_trace", 1024, || annotate_trace(&fail));
    smoke.time("timeline", 256, || render_timeline(&fail, &ann));
    smoke.time("diff", 1024, || TraceDiff::compute(&fail, &pass));
}
