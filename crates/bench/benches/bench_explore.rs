//! E6's cost axis: exploration throughput (executions/second) and the
//! price/benefit of each reduction on a fixed schedule tree.

use mtt_bench::Smoke;
use mtt_core::explore::{ExploreOptions, Explorer};
use mtt_core::prelude::*;

/// Two threads each read a shared counter and write it back incremented,
/// with an invisible scheduling point (`ctx.point`) after each access: the
/// exhaustive search branches at those points, the visible-operation
/// reduction does not.
fn racy_with_local_work() -> Program {
    let mut b = ProgramBuilder::new("bench_racy");
    let x = b.var("x", 0);
    b.entry(move |ctx| {
        let body = move |ctx: &mut ThreadCtx| {
            let v = ctx.read(x);
            ctx.point("local");
            ctx.write(x, v + 1);
            ctx.point("local");
        };
        let a = ctx.spawn("a", body);
        let c = ctx.spawn("b", body);
        ctx.join(a);
        ctx.join(c);
    });
    b.build()
}

fn main() {
    let mut smoke = Smoke::new("explore");
    let p = racy_with_local_work();

    // The exhaustive search takes about half a second a call, so its loops
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
    let mut explored = Vec::new();
    for (name, iters, opts) in configs {
        let mut executions = 0;
        smoke.time(name, iters, || {
            let r = Explorer::new(&p, opts.clone()).run();
            assert!(r.exhausted);
            executions = r.executions;
            r.executions
        });
        explored.push(executions);
    }
    // The reduction must prune: CI runs this bench, so it fails if the
    // visible-operation reduction stops skipping the invisible points.
    let (exhaustive, por) = (explored[0], explored[1]);
    println!("dfs_por explores {por} of dfs_exhaustive's {exhaustive} executions");
    assert!(
        por < exhaustive,
        "dfs_por explored {por} executions, dfs_exhaustive {exhaustive}"
    );
}
