//! Native-backend cost axes: how expensive is a run on real `std::thread`
//! compared to the model interpreter, and what does the event pipeline
//! (global sequence numbers through one atomic, `RaceCell` shadow writes)
//! add on top of raw thread spawn/join? The ratio is the price E13 pays
//! per differential cell, and the budget `mtt e13` wall-clock scales with.
//!
//! The `handoff_sweep` points measure the model engine's scheduling step
//! as the thread count grows: a step should cost about the same at 3
//! threads as at 129, and `step_cost_129_over_3` says how far it is off.

use mtt_bench::Smoke;
use mtt_core::runtime::{Execution, Program, ProgramBuilder, RuntimeBackend, ThreadId};
use mtt_core::suite;
use mtt_core::tools::ToolConfig;
use std::hint::black_box;
use std::time::Instant;

const MAX_STEPS: u64 = 60_000;

/// One seeded run of `p` on the tool's backend, with the campaign-standard
/// step budget and a short native watchdog.
fn run_program(cfg: &ToolConfig, p: &Program, seed: u64) -> mtt_core::runtime::Outcome {
    let mut exec = cfg.configure(Execution::new(p), seed, MAX_STEPS);
    if cfg.backend.is_native() {
        exec = exec.wall_budget(std::time::Duration::from_secs(5));
    }
    exec.run()
}

/// One seeded run of `lost_update` on the given backend — the E13 kernel.
fn one_run(cfg: &ToolConfig, seed: u64) -> mtt_core::runtime::Outcome {
    run_program(cfg, &suite::small::lost_update(2, 2).program, seed)
}

/// The sweep's program: `workers` threads each take one lock four times to
/// read and write one counter, and main joins them.
fn locked_counter(workers: u32) -> Program {
    let mut b = ProgramBuilder::new("locked_counter");
    let x = b.var("x", 0);
    let l = b.lock("l");
    b.entry(move |ctx| {
        let kids: Vec<ThreadId> = (0..workers)
            .map(|i| {
                ctx.spawn(format!("w{i}"), move |ctx| {
                    for _ in 0..4 {
                        ctx.lock(l);
                        let v = ctx.read(x);
                        ctx.write(x, v + 1);
                        ctx.unlock(l);
                    }
                })
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
    });
    b.build()
}

/// Time per run, per scheduling point and per context switch of
/// [`locked_counter`] under `sticky:0.9` at 3, 9, 33 and 129 threads (main
/// included). Each point is a smoke result (`handoff_threads_N`,
/// nanoseconds per run) whose loops each run seeds 1 to 32 the same whole
/// number of times, enough for a loop to last at least 1 ms, so every loop
/// makes the same steps and switches, and the printed per-step and
/// per-switch medians and quartiles are the per-run ones over the mean
/// steps and switches per run. Switches grow faster than threads under
/// lock barging, so only the per-step cost says whether a step stays
/// flat. The figure `step_cost_129_over_3` is the per-step median at 129
/// threads over the one at 3.
fn handoff_sweep(smoke: &mut Smoke) {
    let cfg = ToolConfig::from_spec_str("sticky:0.9").expect("valid spec");
    let mut step_ns = Vec::new();
    for workers in [2, 8, 32, 128] {
        let p = locked_counter(workers);
        let threads = workers + 1;
        let runs = 32;
        // Untimed: count the steps and switches of one pass over the seeds;
        // the pass also sets up the coroutine stacks later runs reuse. A
        // second pass, timed, sizes the loops.
        let pass = || -> (u64, u64) {
            (1..=runs).fold((0, 0), |(steps, switches), seed| {
                let stats = run_program(&cfg, &p, seed).stats;
                (
                    steps + stats.sched_points,
                    switches + stats.context_switches,
                )
            })
        };
        let (steps, switches) = pass();
        let started = Instant::now();
        assert_eq!(
            pass(),
            (steps, switches),
            "each seed's schedule is deterministic"
        );
        let cycles = 1_000_000u128.div_ceil(started.elapsed().as_nanos().max(1)) as u32;
        let steps_per_run = steps as f64 / runs as f64;
        let switches_per_run = switches as f64 / runs as f64;
        let mut seed = 0;
        let iters = runs as u32 * cycles;
        let [q1, median, q3] =
            smoke.time_quartiles(&format!("handoff_threads_{threads}"), iters, || {
                seed = seed % runs + 1;
                run_program(&cfg, &p, seed)
            });
        let us_per = |ns: u64, per_run: f64| ns as f64 / 1000.0 / per_run.max(1.0);
        println!(
            "handoff_sweep threads={threads}: {:.1} us/run, {:.3} us/step \
             (quartiles {:.3}..{:.3}), {:.2} us/switch (quartiles {:.2}..{:.2}), \
             {steps_per_run:.0} steps/run, {switches_per_run:.1} switches/run",
            median as f64 / 1000.0,
            us_per(median, steps_per_run),
            us_per(q1, steps_per_run),
            us_per(q3, steps_per_run),
            us_per(median, switches_per_run),
            us_per(q1, switches_per_run),
            us_per(q3, switches_per_run),
        );
        step_ns.push(median as f64 / steps_per_run.max(1.0));
    }
    let ratio = step_ns[step_ns.len() - 1] / step_ns[0];
    println!("handoff_sweep step cost at 129 threads over 3: {ratio:.2}");
    smoke.figure("step_cost_129_over_3", (ratio * 100.0).round() / 100.0);
}

/// `spec` on the given backend, as E13 derives the legs of a cell.
fn tool(spec: &str, backend: RuntimeBackend) -> ToolConfig {
    let mut spec = ToolConfig::from_spec_str(spec).expect("valid spec").spec;
    spec.backend = backend;
    spec.resolve().expect("spec resolves")
}

/// Throughput written to `BENCH_native.json`, after the sweep's points, so
/// CI can watch the model/native cost ratio: one seeded `lost_update` run
/// on each backend, the E13 kernel. `native_sleep_run` is the same run
/// under E13's sleep noise, whose sleeps the native clock skips while no
/// thread can run. Last comes `thread_spawn_join_floor`: spawning and
/// joining two fresh OS threads that do nothing. Native runs reuse pooled
/// OS threads, so this is the cost that reuse saves, not a floor under
/// `native_run`.
fn main() {
    let mut smoke = Smoke::new("native");
    handoff_sweep(&mut smoke);

    let model = tool("sticky:0.9+name=model", RuntimeBackend::Model);
    let native = tool("sticky:0.9+name=model", RuntimeBackend::Native);
    let native_sleep = tool(
        "sticky:0.9+noise=sleep:0.3:20+name=sleep-noise",
        RuntimeBackend::Native,
    );
    let mut seed = 0u64;
    let model_ns = smoke.time("model_run", 256, || {
        seed += 1;
        one_run(&model, seed)
    });
    let native_ns = smoke.time("native_run", 64, || {
        seed += 1;
        one_run(&native, seed)
    });
    smoke.time("native_sleep_run", 64, || {
        seed += 1;
        one_run(&native_sleep, seed)
    });
    let overhead = native_ns as f64 / model_ns.max(1) as f64;

    smoke.figure("model_runs_per_sec", 1_000_000_000 / model_ns.max(1));
    smoke.figure("native_runs_per_sec", 1_000_000_000 / native_ns.max(1));
    smoke.figure("native_over_model", (overhead * 100.0).round() / 100.0);
    smoke.time("thread_spawn_join_floor", 64, || {
        let hs: Vec<_> = (0..2)
            .map(|i| std::thread::spawn(move || black_box(i)))
            .collect();
        for h in hs {
            let _ = h.join();
        }
    });
    smoke.write();
}
