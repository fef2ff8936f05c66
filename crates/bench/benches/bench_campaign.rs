//! The parallel campaign layer: wall-clock scaling of one E1 slice as the
//! worker count grows. The run matrix is embarrassingly parallel (each run
//! is a pure function of its seed), so on an N-core machine throughput
//! should approach Nx until workers outnumber cores; on the single-core CI
//! container the parallel points mostly measure scheduling overhead, which
//! is the honest lower bound worth tracking too.

use mtt_bench::{e1_slice, Smoke};
use mtt_core::experiment::jobpool::JobPool;

fn main() {
    let mut smoke = Smoke::new("campaign");
    let campaign = e1_slice(10); // x 2 programs x 10 roster tools = 200 runs
    for jobs in [1usize, 2, 4, 8] {
        let pool = JobPool::new(jobs);
        smoke.time(&format!("e1_200runs_jobs{jobs}"), 8, || {
            campaign.run_on(&pool)
        });
    }
}
