//! §2.3 cloning ("load testing"): take a sequential test and run many
//! copies of it simultaneously. "Because the same test is cloned many
//! times, contentions are almost guaranteed." The driver clones a
//! per-thread body over shared state, optionally composes noise on top
//! (the paper: cloning "may be coupled with some of the techniques
//! suggested above, such as noise making"), and interprets the clones'
//! results.

use crate::jobpool::{cell_key, JobPool};
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

/// The clone counts of the §2.3 cloning table.
pub const CLONE_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// The bare baseline tool stack: `sticky:0.9`, no noise.
fn baseline() -> ToolSpec {
    ToolSpec::parse("sticky:0.9").expect("baseline spec is valid")
}

/// Run the cloned test `runs` times for every (clone count, tool stack)
/// pair as one cell space on `pool`, one cell per seeded run. Only a
/// spec's scheduler and noise components apply here; the noise maker is
/// seeded with the raw run seed, matching its historical behavior. Reports
/// come back clone-count major, in `tools` order.
pub fn run_cloning_grid_on(
    clones: &[u32],
    tools: &[ToolSpec],
    runs: u64,
    pool: &JobPool,
) -> Vec<CloningReport> {
    let cfgs: Vec<_> = tools
        .iter()
        .map(|s| s.resolve().expect("cloning tool spec resolves"))
        .collect();
    let programs: Vec<Program> = clones.iter().map(|&c| cloned_counter_test(c, 2)).collect();
    let n = runs as usize;
    let cell = |i: usize| {
        let (group, run) = (i / n, (i % n) as u64);
        (group / tools.len(), group % tools.len(), 1000 + run)
    };
    let key = |i: usize| {
        let (c, t, seed) = cell(i);
        let (program, tool) = (format!("cloned_counter/{}", clones[c]), &tools[t]);
        cell_key(&program, &tool.display_name(), tool.canonical(), seed)
    };
    let fails = pool.cells(clones.len() * tools.len() * n, key, |i| {
        let (c, t, seed) = cell(i);
        let mut exec = Execution::new(&programs[c])
            .scheduler((cfgs[t].scheduler)(seed))
            .max_steps(60_000);
        if tools[t].noise.id != "none" {
            exec = exec.noise((cfgs[t].noise)(seed));
        }
        !exec.run().ok()
    });
    let mut reports = vec![CloningReport::default(); clones.len() * tools.len()];
    for (i, failed) in fails.into_iter().enumerate() {
        reports[i / n].fail.record(failed);
    }
    reports
}

/// The §2.3 cloning table: each of [`CLONE_COUNTS`] run plain and under
/// each tool stack of `roster` (by default, sleep noise on top of
/// `sticky:0.9`).
pub fn cloning_table(runs: u64, roster: Option<&[ToolSpec]>, pool: &JobPool) -> String {
    let sleep = [ToolSpec::parse("sticky:0.9+noise=sleep:0.3:15").expect("default spec is valid")];
    let stacks = roster.unwrap_or(&sleep);
    let tools = [&[baseline()], stacks].concat();
    let reports = run_cloning_grid_on(&CLONE_COUNTS, &tools, runs, pool);
    let mut out = String::from("§2.3 cloning driver: P(cloned test fails)\n\n");
    for (clones, row) in CLONE_COUNTS.iter().zip(reports.chunks(tools.len())) {
        out += &format!("  {clones} clone(s):  plain {}", row[0].fail.render());
        for (spec, r) in stacks.iter().zip(&row[1..]) {
            let name = roster.map_or("sleep noise".into(), |_| spec.display_name());
            out += &format!("   + {name} {}", r.fail.render());
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_test_passes() {
        // One clone = the original sequential test: always green.
        let report = &run_cloning_grid_on(&[1], &[baseline()], 20, &JobPool::serial())[0];
        assert_eq!(report.fail.rate(), 0.0);
    }

    #[test]
    fn cloning_exposes_contention_and_noise_helps_more() {
        let spec = ToolSpec::parse("sticky:0.9+noise=sleep:0.3:15").unwrap();
        let reports = run_cloning_grid_on(&[2, 8], &[baseline(), spec], 60, &JobPool::serial());
        let (two, noisy, eight) = (&reports[0], &reports[1], &reports[2]);
        assert!(
            eight.fail.rate() > two.fail.rate(),
            "more clones should fail more: 8clones={} 2clones={}",
            eight.fail.rate(),
            two.fail.rate()
        );
        assert!(
            noisy.fail.rate() > two.fail.rate(),
            "noise on top of cloning should help: {} vs {}",
            noisy.fail.rate(),
            two.fail.rate()
        );
    }
}
