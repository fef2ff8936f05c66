//! Interleaving-space observatory cost axes: trace fingerprints hashed
//! per second (the pure `fingerprint_trace` pass — this bounds how cheap
//! per-run schedule identity is once a trace exists), fingerprinted
//! executions per second (the E12 / campaign kernel: execute + hash in
//! one sink pass), full E12 cells per second, and the `ScheduleCoverage`
//! accumulator fold.

use mtt_bench::Smoke;
use mtt_core::causal::fingerprint_trace;
use mtt_core::coverage::ScheduleCoverage;
use mtt_core::experiment::campaign::{STANDARD_BASE_SEED, STANDARD_MAX_STEPS};
use mtt_core::experiment::saturation_eval::{run_fingerprint, SATURATION_ROSTER_SPECS};
use mtt_core::experiment::tracegen::{self, TraceGenOptions};
use mtt_core::tools::ToolConfig;
use std::hint::black_box;

/// Throughput for the observatory, written to `BENCH_cover.json`.
/// `fingerprints_per_sec` is pure-hash throughput over an existing trace;
/// `e12_cells_per_sec` is full fingerprinted-execution cells (8 runs each)
/// per second. The campaign kernel and the accumulator alone follow.
fn main() {
    let mut smoke = Smoke::new("cover");

    // Pure hashing: fingerprint an already-collected trace. Linear pass
    // with a per-thread vector-clock fold; no allocation proportional to
    // the schedule count.
    let trace = tracegen::generate(
        &mtt_core::suite::small::lost_update(2, 2),
        &TraceGenOptions {
            seed: 7,
            stickiness: 0.0,
            max_steps: 20_000,
        },
    );
    let hash_ns = smoke.time("fingerprint_trace", 4096, || {
        fingerprint_trace(black_box(&trace))
    });

    // One full E12 cell at 8 runs: the unit `run_saturation_on` shards.
    let program = mtt_core::suite::small::lost_update(2, 2);
    let roster = ToolConfig::roster(SATURATION_ROSTER_SPECS);
    let sticky = &roster[1]; // sticky:0.9, the bare-random rung of the ladder
    let cell_ns = smoke.time("e12_cell_8runs", 16, || {
        let mut cov = ScheduleCoverage::default();
        for r in 0..8 {
            cov.observe(run_fingerprint(
                &program.program,
                sticky,
                STANDARD_BASE_SEED + r,
                STANDARD_MAX_STEPS,
            ));
        }
        (cov.distinct(), cov.good_turing_unseen_mass(), cov.auc())
    });

    smoke.figure("fingerprints_per_sec", 1_000_000_000 / hash_ns.max(1));
    smoke.figure("e12_cells_per_sec", 1_000_000_000 / cell_ns.max(1));

    // The E12 / campaign kernel: one seeded execution with the
    // fingerprint sink attached — execution dominates, hashing rides along.
    let mut seed = STANDARD_BASE_SEED;
    smoke.time("run_fingerprint_sticky", 256, || {
        seed += 1;
        run_fingerprint(&program.program, sticky, seed, STANDARD_MAX_STEPS)
    });

    // The accumulator alone, fed a synthetic Zipf-ish class stream: the
    // `mtt status` distinct-schedules fold pays this per done record.
    smoke.time("schedule_coverage_observe_1k", 16, || {
        let mut cov = ScheduleCoverage::default();
        for i in 0u64..1000 {
            cov.observe(format!("{:032x}", i * i % 97));
        }
        cov.good_turing_unseen_mass()
    });
    smoke.write();
}
