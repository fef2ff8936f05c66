//! The Figure 1 loop on one artifact: a MiniProg source is analyzed
//! statically, the analysis advises the instrumentor, and the very same
//! program is then tested dynamically with noise under the reduced
//! instrumentation.
//!
//! ```sh
//! cargo run --example miniprog_pipeline
//! ```

use mtt::instrument::{shared, CountingSink, InstrumentationPlan};
use mtt::prelude::*;
use mtt::statik::{analyze, compile, parse, samples};

fn main() {
    let src = samples::ABBA;
    println!("--- MiniProg source ---{src}");

    // ------------------------------------------------------------------
    // 1. Parse + static analysis.
    // ------------------------------------------------------------------
    let ast = parse(src).expect("sample parses");
    let analysis = analyze(&ast);
    println!("--- static analysis ---");
    println!("shared variables: {:?}", analysis.shared_vars);
    for (var, guards) in &analysis.guarded_by {
        println!("  `{var}` guarded by {guards:?}");
    }
    for r in &analysis.races {
        println!("  RACE: {}", r.message);
    }
    for d in &analysis.deadlocks {
        println!(
            "  DEADLOCK POTENTIAL: locks {:?} can be acquired in conflicting orders",
            d.locks
        );
    }
    println!("no-switch lines: {:?}", analysis.no_switch_lines);

    // ------------------------------------------------------------------
    // 2. Compile to a runnable model program.
    // ------------------------------------------------------------------
    let program = compile(&ast);

    // ------------------------------------------------------------------
    // 3. Measure the instrumentation reduction the advice buys.
    // ------------------------------------------------------------------
    let count_under = |plan: InstrumentationPlan| {
        let (sink, handle) = shared(CountingSink::new());
        let _ = Execution::new(&program)
            .scheduler(Box::new(RandomScheduler::new(5)))
            .plan(plan)
            .sink(Box::new(sink))
            .max_steps(20_000)
            .run();
        let n = handle.lock().unwrap().total;
        n
    };
    let full = count_under(InstrumentationPlan::full());
    let advised = count_under(InstrumentationPlan::advised(analysis.info.clone()));
    println!("--- instrumentation ---");
    println!("events under full plan:    {full}");
    println!("events under advised plan: {advised}");

    // ------------------------------------------------------------------
    // 4. Dynamic testing with noise confirms what the static pass warned
    //    about: the AB-BA can actually deadlock.
    // ------------------------------------------------------------------
    let mut deadlocks = 0;
    let runs = 50;
    for seed in 0..runs {
        let o = Execution::new(&program)
            .scheduler(Box::new(RandomScheduler::new(seed)))
            .noise(Box::new(mtt::noise::RandomYield::new(seed, 0.3)))
            .max_steps(20_000)
            .run();
        if o.deadlocked() {
            deadlocks += 1;
        }
    }
    println!("--- dynamic confirmation ---");
    println!("{deadlocks}/{runs} noisy runs deadlocked (static warning confirmed)");
}
