//! Substrate baseline: scheduling-point throughput of the controlled
//! runtime, with and without sinks attached — the denominator every other
//! overhead number is read against.

use mtt_bench::{workload, Smoke};
use mtt_core::instrument::{CountingSink, NullSink};
use mtt_core::prelude::*;

fn main() {
    let mut smoke = Smoke::new("runtime");

    let p = workload(4, 25);
    smoke.time("bare_execution_4x25", 16, || {
        Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(1)))
            .run()
    });
    smoke.time("null_sink_4x25", 16, || {
        Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(1)))
            .sink(Box::new(NullSink))
            .run()
    });
    smoke.time("counting_sink_4x25", 16, || {
        Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(1)))
            .sink(Box::new(CountingSink::new()))
            .run()
    });
    // Scaling in thread count.
    for (threads, iters) in [(2u32, 128), (8, 16), (16, 4)] {
        let p = workload(threads, 10);
        smoke.time(&format!("threads_{threads}x10"), iters, || {
            Execution::new(&p)
                .scheduler(Box::new(RandomScheduler::new(1)))
                .run()
        });
    }
}
