//! E3's overhead axis: the record-phase cost — "the latter is significant
//! in the record phase overhead, and not so much in the replay phase".

use mtt_bench::{workload, Smoke};
use mtt_core::prelude::*;
use mtt_core::runtime::NoNoise;

fn main() {
    let mut smoke = Smoke::new("replay");
    let p = workload(4, 20);

    smoke.time("bare", 32, || {
        Execution::new(&p)
            .scheduler(Box::new(RandomScheduler::new(1)))
            .run()
    });
    smoke.time("recording", 32, || {
        let (sched, noise, handle) = record(p.name(), 1, RandomScheduler::new(1), NoNoise);
        let o = Execution::new(&p)
            .scheduler(Box::new(sched))
            .noise(Box::new(noise))
            .run();
        (o.fingerprint(), handle.take_log().decisions.len())
    });
    // Playback cost (the phase the paper says matters less).
    let (sched, noise, handle) = record(p.name(), 1, RandomScheduler::new(1), NoNoise);
    let _ = Execution::new(&p)
        .scheduler(Box::new(sched))
        .noise(Box::new(noise))
        .run();
    let log = handle.take_log();
    smoke.time("playback", 32, || {
        let pb = PlaybackScheduler::new(log.clone(), DivergencePolicy::Strict);
        Execution::new(&p).scheduler(Box::new(pb)).run()
    });
}
