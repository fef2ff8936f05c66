//! E6's cost axis: exploration throughput (executions/second) and the
//! price/benefit of each reduction on a fixed schedule tree.

use mtt_bench::Smoke;
use mtt_core::explore::{ExploreOptions, Explorer};
use mtt_core::prelude::*;

fn racy(increments: u32) -> Program {
    let mut b = ProgramBuilder::new("bench_racy");
    let x = b.var("x", 0);
    b.entry(move |ctx| {
        let a = ctx.spawn("a", move |ctx| {
            for _ in 0..increments {
                let v = ctx.read(x);
                ctx.write(x, v + 1);
            }
        });
        let c = ctx.spawn("b", move |ctx| {
            for _ in 0..increments {
                let v = ctx.read(x);
                ctx.write(x, v + 1);
            }
        });
        ctx.join(a);
        ctx.join(c);
    });
    b.build()
}

fn main() {
    let mut smoke = Smoke::new("explore");
    let p = racy(2);

    // The two full searches take over half a second a call, so their loops
    // are one call each.
    let configs: Vec<(&str, u32, ExploreOptions)> = vec![
        (
            "dfs_exhaustive",
            1,
            ExploreOptions {
                branch_only_visible: false,
                stop_on_first_bug: false,
                max_executions: 1_000_000,
                ..Default::default()
            },
        ),
        (
            "dfs_por",
            1,
            ExploreOptions {
                branch_only_visible: true,
                stop_on_first_bug: false,
                max_executions: 1_000_000,
                ..Default::default()
            },
        ),
        (
            "dfs_por_stateful",
            2,
            ExploreOptions {
                branch_only_visible: true,
                stateful: true,
                stop_on_first_bug: false,
                max_executions: 1_000_000,
                ..Default::default()
            },
        ),
        (
            "preempt_bound_2",
            4,
            ExploreOptions {
                branch_only_visible: true,
                preemption_bound: Some(2),
                stop_on_first_bug: false,
                max_executions: 1_000_000,
                ..Default::default()
            },
        ),
    ];
    for (name, iters, opts) in configs {
        smoke.time(name, iters, || {
            let r = Explorer::new(&p, opts.clone()).run();
            assert!(r.exhausted);
            r.executions
        });
    }
}
