//! E5's throughput: how fast the §4.4 multiout benchmark program can be
//! sampled under each scheduler — outcome-distribution experiments run
//! thousands of executions, so per-run cost is the budget driver.

use mtt_bench::Smoke;
use mtt_core::prelude::*;
use mtt_core::suite::multiout;

fn main() {
    let mut smoke = Smoke::new("multiout");
    let p = multiout::program();

    smoke.time("fifo", 256, || {
        let o = Execution::new(&p).scheduler(Box::new(FifoScheduler)).run();
        multiout::signature(&o)
    });
    smoke.time("uniform_random", 256, || {
        let o = Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(3)))
            .run();
        multiout::signature(&o)
    });
    smoke.time("sticky_with_sleep_noise", 256, || {
        let o = Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::sticky(3, 0.9)))
            .noise(Box::new(RandomSleep::new(3, 0.2, 15)))
            .run();
        multiout::signature(&o)
    });
}
