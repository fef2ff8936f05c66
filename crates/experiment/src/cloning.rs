//! §2.3 cloning ("load testing"): take a sequential test and run many
//! copies of it simultaneously. "Because the same test is cloned many
//! times, contentions are almost guaranteed." The driver clones a
//! per-thread body over shared state, optionally composes noise on top
//! (the paper: cloning "may be coupled with some of the techniques
//! suggested above, such as noise making"), and interprets the clones'
//! results.

use crate::jobpool::JobPool;
use crate::stats::FindStats;
use mtt_runtime::{Execution, Program, ProgramBuilder, ThreadId};
use mtt_tools::ToolSpec;

/// A cloneable test over the shared counter fixture: each clone increments
/// a shared counter `per_clone` times through a read-modify-write that is
/// correct in isolation (the sequential test passes) but racy under
/// cloning.
pub fn cloned_counter_test(clones: u32, per_clone: u32) -> Program {
    let mut b = ProgramBuilder::new("cloned_counter");
    let x = b.var("x", 0);
    let expected = i64::from(clones) * i64::from(per_clone);
    b.entry(move |ctx| {
        let kids: Vec<ThreadId> = (0..clones)
            .map(|i| {
                ctx.spawn(format!("clone{i}"), move |ctx| {
                    for _ in 0..per_clone {
                        let v = ctx.read(x);
                        ctx.write(x, v + 1);
                    }
                })
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
        // The cloning driver's verification step: interpreting the combined
        // expected results of all clones (the paper notes this needs care).
        let v = ctx.read(x);
        ctx.check(v == expected, "all-clones-counted");
    });
    b.build()
}

/// Result of one cloning session.
#[derive(Clone, Debug, Default)]
pub struct CloningReport {
    /// Probability that the cloned test fails (i.e. exposes the bug).
    pub fail: FindStats,
}

/// Run the cloned test `runs` times with the given clone count under the
/// given tool stack (`None` = the bare `sticky:0.9` baseline), sharding the
/// seeded runs across a job pool. Only the spec's scheduler and noise
/// components apply here; the noise maker is seeded with the raw run seed,
/// matching its historical behavior.
pub fn run_cloning_on(
    clones: u32,
    runs: u64,
    tool: Option<&ToolSpec>,
    pool: &JobPool,
) -> CloningReport {
    let baseline = ToolSpec::parse("sticky:0.9").expect("baseline spec is valid");
    let cfg = tool
        .unwrap_or(&baseline)
        .resolve()
        .expect("cloning tool spec resolves");
    let has_noise = tool.is_some_and(|t| t.noise.id != "none");
    let program = cloned_counter_test(clones, 2);
    let fails = pool.run(runs as usize, |r| {
        let seed = 1000 + r as u64;
        let mut exec = Execution::new(&program)
            .scheduler((cfg.scheduler)(seed))
            .max_steps(60_000);
        if has_noise {
            exec = exec.noise((cfg.noise)(seed));
        }
        !exec.run().ok()
    });
    let mut report = CloningReport::default();
    for failed in fails {
        report.fail.record(failed);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_test_passes() {
        // One clone = the original sequential test: always green.
        let report = run_cloning_on(1, 20, None, &JobPool::serial());
        assert_eq!(report.fail.rate(), 0.0);
    }

    #[test]
    fn cloning_exposes_contention_and_noise_helps_more() {
        let two = run_cloning_on(2, 60, None, &JobPool::serial());
        let eight = run_cloning_on(8, 60, None, &JobPool::serial());
        assert!(
            eight.fail.rate() > two.fail.rate(),
            "more clones should fail more: 8clones={} 2clones={}",
            eight.fail.rate(),
            two.fail.rate()
        );
        let spec = ToolSpec::parse("sticky:0.9+noise=sleep:0.3:15").unwrap();
        let noisy = run_cloning_on(2, 60, Some(&spec), &JobPool::serial());
        assert!(
            noisy.fail.rate() > two.fail.rate(),
            "noise on top of cloning should help: {} vs {}",
            noisy.fail.rate(),
            two.fail.rate()
        );
    }
}
