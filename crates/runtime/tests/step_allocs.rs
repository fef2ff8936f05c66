//! A model scheduling step allocates nothing in steady state: a run's heap
//! allocations do not grow with its length.
//!
//! The program has `WORKERS` workers, each running `k` iterations of lock,
//! read, write, `rmw` on a non-volatile variable, notify, unlock and yield,
//! and a consumer that waits on the condition in a predicate loop, so that
//! spurious wakeups have a waiter to pick. Under every scheduler, every
//! kind of noise and spurious wakeups, a run at `k = 1000` may make only a
//! few allocations more than one at `k = 100`; an allocation in some steps
//! would show as ten times as many.
//!
//! This is a binary of its own because the counting allocator is global to
//! the process. It counts only the allocations of the thread that calls
//! `Execution::run`. On Linux x86_64 every model thread of the run is a
//! coroutine on that thread; elsewhere model threads are OS threads of
//! their own, and the count misses their allocations.

use mtt_runtime::{
    Event, ExecStats, Execution, FifoScheduler, NoiseDecision, NoiseMaker, NoiseView, PctScheduler,
    Program, ProgramBuilder, RandomScheduler, ThreadId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations per OS thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; counting touches
// only a `const`-initialised thread-local, which neither allocates nor
// registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WORKERS: u32 = 4;

/// How many more allocations a run at `k = 1000` may make than one at
/// `k = 100`: a collection that grows by doubling may grow a few more
/// times in the longer run.
const SLACK: u64 = 8;

fn program(k: u32) -> Program {
    let mut b = ProgramBuilder::new("step_allocs");
    let count = b.var_nonvolatile("count", 0);
    let hits = b.var_nonvolatile("hits", 0);
    let l = b.lock("l");
    let c = b.cond("c");
    let target = i64::from(WORKERS * k);
    b.entry(move |ctx| {
        let consumer = ctx.spawn("consumer", move |ctx| {
            ctx.lock(l);
            while ctx.read(count) < target {
                ctx.wait(c, l);
            }
            ctx.unlock(l);
        });
        let workers: Vec<ThreadId> = (0..WORKERS)
            .map(|i| {
                ctx.spawn(format!("w{i}"), move |ctx| {
                    for _ in 0..k {
                        ctx.lock(l);
                        let v = ctx.read(count);
                        ctx.write(count, v + 1);
                        ctx.rmw(hits, |h| h + 1);
                        ctx.notify(c);
                        ctx.unlock(l);
                        ctx.yield_now();
                    }
                })
            })
            .collect();
        for w in workers {
            ctx.join(w);
        }
        ctx.join(consumer);
    });
    b.build()
}

/// A noise maker like `mtt-noise`'s: with probability `p` at a point where
/// another thread could run, yield or sleep for 1 to 20 ticks.
fn noise(seed: u64, p: f64, yields: bool, sleeps: bool) -> Box<dyn NoiseMaker> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Box::new(move |_: &Event, view: &NoiseView| {
        if view.runnable <= 1 || !rng.gen_bool(p) {
            return NoiseDecision::None;
        }
        if yields && (!sleeps || rng.gen_bool(0.5)) {
            NoiseDecision::Yield
        } else {
            NoiseDecision::Sleep(rng.gen_range(1..=20))
        }
    })
}

/// The configurations, named as tool specs.
const CONFIGS: [&str; 8] = [
    "fifo",
    "sticky:0.9",
    "random",
    "pct:3:150",
    "sticky:0.9+noise=yield:0.5",
    "sticky:0.9+noise=sleep:0.3:20",
    "sticky:0.9+noise=mixed:0.2:20",
    "sticky:0.9+spurious=0.05",
];

fn execution<'p>(p: &'p Program, config: &str, seed: u64) -> Execution<'p> {
    let sticky = || Box::new(RandomScheduler::sticky(seed, 0.9));
    let exec = Execution::new(p);
    match config {
        "fifo" => exec.scheduler(Box::new(FifoScheduler)),
        "sticky:0.9" => exec.scheduler(sticky()),
        "random" => exec.scheduler(Box::new(RandomScheduler::new(seed))),
        "pct:3:150" => exec.scheduler(Box::new(PctScheduler::new(seed, 3, 150))),
        "sticky:0.9+noise=yield:0.5" => exec
            .scheduler(sticky())
            .noise(noise(seed, 0.5, true, false)),
        "sticky:0.9+noise=sleep:0.3:20" => exec
            .scheduler(sticky())
            .noise(noise(seed, 0.3, false, true)),
        "sticky:0.9+noise=mixed:0.2:20" => {
            exec.scheduler(sticky()).noise(noise(seed, 0.2, true, true))
        }
        "sticky:0.9+spurious=0.05" => exec.scheduler(sticky()).spurious_wakeups(0.05),
        _ => unreachable!("unknown configuration {config}"),
    }
}

/// Allocations of one run of `program(k)` under `config` at seed 1, and
/// the run's statistics.
fn allocations(config: &str, k: u32) -> (u64, ExecStats) {
    let p = program(k);
    let before = ALLOCS.with(Cell::get);
    let outcome = execution(&p, config, 1).run();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(outcome.ok(), "{config} k={k}: {:?}", outcome.kind);
    assert_eq!(outcome.var("count"), Some(i64::from(WORKERS * k)));
    (allocs, outcome.stats)
}

#[test]
fn a_run_allocates_the_same_at_any_length() {
    for config in CONFIGS {
        // The first run on this OS thread sets up its coroutine stacks.
        let _ = allocations(config, 10);
        let (short, short_stats) = allocations(config, 100);
        let (long, long_stats) = allocations(config, 1000);
        let (short_steps, long_steps) = (short_stats.sched_points, long_stats.sched_points);
        assert!(long_steps > 9 * short_steps, "{config}: {long_steps} steps");
        // Each kind of noise and spurious wakeups is exercised.
        if config.contains("noise") {
            assert!(long_stats.noise_injections > 0, "{config}: no noise");
        }
        if config.contains("spurious") {
            assert!(
                long_stats.spurious_wakeups > 0,
                "{config}: no spurious wakeup"
            );
        }
        assert!(
            long <= short + SLACK,
            "{config}: {long} allocations at k=1000 ({long_steps} steps), \
             {short} at k=100 ({short_steps} steps)"
        );
    }
}
