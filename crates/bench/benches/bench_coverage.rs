//! E4's overhead axis: what each coverage model costs online.

use mtt_bench::{workload, Smoke};
use mtt_core::coverage::{ContentionCoverage, OrderedPairCoverage, SiteCoverage, SyncCoverage};
use mtt_core::prelude::*;

fn main() {
    let mut smoke = Smoke::new("coverage");
    let p = workload(4, 20);
    let table = p.var_table();

    smoke.time("no_model", 32, || {
        Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(1)))
            .run()
    });
    smoke.time("site", 32, || {
        Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(1)))
            .sink(Box::new(SiteCoverage::new()))
            .run()
    });
    smoke.time("contention", 32, || {
        Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(1)))
            .sink(Box::new(ContentionCoverage::new(&table)))
            .run()
    });
    smoke.time("sync", 32, || {
        Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(1)))
            .sink(Box::new(SyncCoverage::new()))
            .run()
    });
    smoke.time("ordered_pair", 32, || {
        Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(1)))
            .sink(Box::new(OrderedPairCoverage::new(&table)))
            .run()
    });
}
