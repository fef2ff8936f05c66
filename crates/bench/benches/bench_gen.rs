//! The variant-family generator's cost axes: programs generated per second
//! (a family is a pure function of `(seed, index)`, so generation speed
//! bounds how large an E10 population is practical) and E10 scoreboard
//! cells evaluated per second (one cell = one tool judging one member).

use mtt_bench::Smoke;
use mtt_core::experiment::gen_eval::{run_gen_eval_on, GenEvalOptions};
use mtt_core::experiment::jobpool::JobPool;
use mtt_core::gen;

/// Throughput for the generator, written to `BENCH_gen.json`, so CI can
/// diff generation and E10 scoring cost. The generator's stages follow.
fn main() {
    let mut smoke = Smoke::new("gen");

    // Programs per second: members produced per wall-clock second,
    // measured over a 16-family population (one `family()` call yields
    // every member of one family).
    let opts = gen::GenOptions {
        seed: 42,
        families: 16,
    };
    let members: u64 = gen::generate_families(&opts)
        .iter()
        .map(|f| f.members.len() as u64)
        .sum();
    let gen_ns = smoke.time("family_population_16", 8, || gen::generate_families(&opts));

    // The full E10 kernel at a small scale: static oracle plus the dynamic
    // roster over every member of four families. One cell is one (tool,
    // member) judgment.
    let eval_opts = GenEvalOptions {
        seed: 42,
        families: 4,
        runs: 2,
    };
    let pool = JobPool::serial();
    let rows = run_gen_eval_on(&eval_opts, &pool);
    let eval_members: u64 = rows.iter().map(|f| f.members.len() as u64).sum();
    let tools = mtt_core::experiment::gen_eval::score_tools(&rows).len() as u64;
    let cells = eval_members * tools;
    let eval_ns = smoke.time("e10_four_families", 2, || {
        run_gen_eval_on(&eval_opts, &pool)
    });

    smoke.figure(
        "programs_per_sec",
        members.saturating_mul(1_000_000_000) / gen_ns.max(1),
    );
    smoke.figure(
        "e10_cells_per_sec",
        cells.saturating_mul(1_000_000_000) / eval_ns.max(1),
    );

    // One family end to end: pattern draw, knob draw, render, canonical
    // parse/print round-trip, manifest-line location — for both twins.
    let mut index = 0u64;
    smoke.time("family", 32, || {
        index = (index + 1) % 64;
        gen::family(42, index)
    });

    // Generation only, amortized over a realistic population.
    smoke.time("generate_families_8", 4, || {
        gen::generate_families(&gen::GenOptions {
            seed: 42,
            families: 8,
        })
    });

    // Members straight into the runtime: the compile path E10 exercises.
    let fam = gen::family(42, 0);
    let member = fam.buggy().next().expect("race family has a buggy member");
    smoke.time("member_compile", 256, || member.compile());
    smoke.write();
}
