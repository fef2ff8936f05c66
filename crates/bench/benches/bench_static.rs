//! E7's cost axis: the static pipeline (parse → analyze → compile) and the
//! event-stream saving that advised instrumentation buys at run time.

use mtt_bench::Smoke;
use mtt_core::instrument::{InstrumentationPlan, NullSink};
use mtt_core::prelude::*;
use mtt_core::statik::cfg::build_cfg;
use mtt_core::statik::dataflow::{held_locks, solve, ReachingDefs};
use mtt_core::statik::{analyze, compile, parse, samples};

/// A deep synthetic thread body for the dataflow solver: nested loops and
/// branches with lock churn, the worst case for worklist convergence.
fn solver_workout_src(depth: usize) -> String {
    let mut body = String::from("x = x + 1;\n");
    for i in 0..depth {
        let lock = if i % 2 == 0 { "a" } else { "b" };
        body = format!(
            "acquire {lock};\nwhile (x < {i}) {{\nif (x) {{\n{body}}} else {{\nrelease {lock};\nacquire {lock};\n}}\nx = x + 1;\n}}\nrelease {lock};\n"
        );
    }
    format!(
        "program workout {{ var x; lock a; lock b; thread t {{\nlocal v = 0;\n{body}v = x;\n}} }}"
    )
}

/// Timings for the static pipeline, written to `BENCH_static.json`, so CI
/// can diff the static-analysis cost. The lock-order-graph and
/// independence passes run on their richest inputs: the 3-thread cycle
/// (L006) and the lost-notify sample (L007). Compiling, the dataflow
/// solver alone, and the event-stream saving that advised instrumentation
/// buys at run time follow.
fn main() {
    let mut smoke = Smoke::new("static");
    smoke.time("parse_abba", 256, || parse(samples::ABBA).unwrap());
    for (name, src) in [
        ("analyze_abba", samples::ABBA),
        ("analyze_lock_cycle3", samples::LOCK_CYCLE3),
        ("analyze_lost_notify", samples::LOST_NOTIFY),
        ("analyze_branch_release", samples::BRANCH_RELEASE),
    ] {
        let ast = parse(src).unwrap();
        smoke.time(name, 256, || analyze(&ast));
    }

    let ast = parse(samples::ABBA).unwrap();
    smoke.time("compile", 1024, || compile(&ast));

    // The worklist engine itself, isolated from the rest of the pipeline.
    let workout = parse(&solver_workout_src(8)).unwrap();
    let cfg = build_cfg(&workout.threads[0]);
    smoke.time("dataflow_locks_must", 64, || held_locks(&cfg, true));
    smoke.time("dataflow_reaching_defs", 32, || solve(&cfg, &ReachingDefs));
    smoke.time("analyze_with_diagnostics_workout", 4, || analyze(&workout));

    let analysis = analyze(&ast);
    let program = compile(&ast);
    smoke.time("run_full_instrumentation", 64, || {
        Execution::new(&program)
            .scheduler(Box::new(RandomScheduler::new(2)))
            .plan(InstrumentationPlan::full())
            .sink(Box::new(NullSink))
            .max_steps(20_000)
            .run()
    });
    let advised = InstrumentationPlan::advised(analysis.info.clone());
    smoke.time("run_advised_instrumentation", 64, || {
        Execution::new(&program)
            .scheduler(Box::new(RandomScheduler::new(2)))
            .plan(advised.clone())
            .sink(Box::new(NullSink))
            .max_steps(20_000)
            .run()
    });
    smoke.write();
}
