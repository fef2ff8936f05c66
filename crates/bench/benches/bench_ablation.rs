//! Ablations for the runtime design choices DESIGN.md calls out: the
//! weak-visibility cache, spurious-wakeup injection, and scheduler choice.

use mtt_bench::Smoke;
use mtt_core::prelude::*;

/// Workload whose reads dominate: `threads` workers polling a flag and a
/// counter, so the volatile-vs-cached read path difference is visible.
fn read_heavy(volatile: bool, threads: u32, reads: u32) -> Program {
    let mut b = ProgramBuilder::new("ablation_reads");
    let flag = if volatile {
        b.var("flag", 0)
    } else {
        b.var_nonvolatile("flag", 0)
    };
    let sum = b.var("sum", 0);
    b.entry(move |ctx| {
        let kids: Vec<ThreadId> = (0..threads)
            .map(|i| {
                ctx.spawn(format!("r{i}"), move |ctx| {
                    let mut acc = 0;
                    for _ in 0..reads {
                        acc += ctx.read(flag);
                    }
                    ctx.rmw(sum, move |s| s + acc);
                })
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
    });
    b.build()
}

/// Workload with cond waiters, so spurious injection has targets.
fn wait_heavy() -> Program {
    let mut b = ProgramBuilder::new("ablation_waits");
    let turn = b.var("turn", 0);
    let l = b.lock("l");
    let c = b.cond("c");
    b.entry(move |ctx| {
        let kids: Vec<ThreadId> = (0..3)
            .map(|i| {
                ctx.spawn(format!("w{i}"), move |ctx| {
                    for round in 0..3i64 {
                        ctx.lock(l);
                        while ctx.read(turn) != round * 3 + i64::from(i) {
                            ctx.wait(c, l);
                        }
                        ctx.rmw(turn, |t| t + 1);
                        ctx.notify_all(c);
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

fn main() {
    let mut smoke = Smoke::new("ablation");

    // Weak-visibility cache on/off on the read path.
    for (label, volatile) in [("reads_volatile", true), ("reads_cached", false)] {
        let p = read_heavy(volatile, 3, 30);
        smoke.time(label, 128, || {
            Execution::new(&p)
                .scheduler(Box::new(RandomScheduler::new(2)))
                .run()
        });
    }

    // Spurious-wakeup injection on/off.
    let p = wait_heavy();
    smoke.time("waits_no_spurious", 128, || {
        Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(2)))
            .run()
    });
    smoke.time("waits_spurious_0.1", 128, || {
        Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(2)))
            .spurious_wakeups(0.1)
            .run()
    });

    // Scheduler choice on a fixed workload.
    let p = read_heavy(true, 4, 20);
    smoke.time("sched_random", 128, || {
        Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(3)))
            .run()
    });
    smoke.time("sched_pct_d3", 128, || {
        Execution::new(&p)
            .scheduler(Box::new(PctScheduler::new(3, 3, 300)))
            .run()
    });
    smoke.time("sched_fifo", 128, || {
        Execution::new(&p).scheduler(Box::new(FifoScheduler)).run()
    });
}
