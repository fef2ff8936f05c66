//! Trace generation — the paper's "script for producing any number of
//! desirable traces in the above format", with bug annotation and
//! manifested-bug ground truth filled in from the suite oracles.

use crate::campaign::STANDARD_MAX_STEPS;
use crate::jobpool::JobPool;
use mtt_instrument::shared;
use mtt_runtime::{Execution, RandomScheduler};
use mtt_suite::SuiteProgram;
use mtt_tools::ToolConfig;
use mtt_trace::{annotate, Trace, TraceCollector, TraceMeta};

/// Options for one generated trace.
#[derive(Clone, Debug)]
pub struct TraceGenOptions {
    /// Scheduler seed.
    pub seed: u64,
    /// Scheduler stickiness (0 = uniform random).
    pub stickiness: f64,
    /// Step budget.
    pub max_steps: u64,
}

impl Default for TraceGenOptions {
    fn default() -> Self {
        TraceGenOptions {
            seed: 1,
            stickiness: 0.0,
            max_steps: STANDARD_MAX_STEPS,
        }
    }
}

/// Run `program` once and produce a fully annotated trace: records carry
/// bug-involvement tags, and the meta block lists both the documented bugs
/// and the ones that actually manifested in this execution (the detector
/// ground truth).
pub fn generate(program: &SuiteProgram, opts: &TraceGenOptions) -> Trace {
    let mut meta = trace_meta(program, "random", "none", opts.seed);
    // A bare sticky scheduler at the requested stickiness is exactly what
    // this path runs, so that is the provenance spec the header carries.
    meta.tool_spec = format!("sticky:{}", opts.stickiness);
    run_with_meta(program, meta, |exec| {
        exec.scheduler(Box::new(RandomScheduler::sticky(
            opts.seed,
            opts.stickiness,
        )))
        .noise(Box::new(mtt_runtime::NoNoise))
        .max_steps(opts.max_steps)
    })
}

/// Like [`generate`] but under a whole tool, at run seed `seed` with at
/// most `max_steps` steps: the run [`ToolConfig::configure`] sets up for
/// a campaign, so the trace is the run a campaign cell counted (the
/// runtime is deterministic in program, scheduler, noise and seed). The
/// header records the tool's name, its noise maker and its canonical spec.
pub fn generate_with(
    program: &SuiteProgram,
    tool: &ToolConfig,
    seed: u64,
    max_steps: u64,
) -> Trace {
    let noise = tool.noise_for(seed).name().to_string();
    let mut meta = trace_meta(program, &tool.name, &noise, seed);
    meta.tool_spec = tool.spec_string();
    run_with_meta(program, meta, |exec| tool.configure(exec, seed, max_steps))
}

/// The trace header for an execution of `program`: provenance plus every
/// name table known before the run (thread names are filled from the
/// outcome afterwards).
fn trace_meta(program: &SuiteProgram, scheduler: &str, noise: &str, seed: u64) -> TraceMeta {
    TraceMeta {
        program: program.name.to_string(),
        scheduler: scheduler.into(),
        noise: noise.into(),
        seed,
        var_names: program
            .program
            .vars()
            .iter()
            .map(|v| v.name.clone())
            .collect(),
        lock_names: program.program.locks().to_vec(),
        cond_names: program.program.conds().to_vec(),
        sem_names: program
            .program
            .sems()
            .iter()
            .map(|s| s.name.clone())
            .collect(),
        barrier_names: program
            .program
            .barriers()
            .iter()
            .map(|b| b.name.clone())
            .collect(),
        ..Default::default()
    }
}

/// Run `program` once with a trace collector attached — `configure` sets
/// the scheduler/noise/budget — and return the collected trace with bug
/// annotations and the oracle's manifested-bug ground truth filled in.
fn run_with_meta<'p, F>(program: &'p SuiteProgram, meta: TraceMeta, configure: F) -> Trace
where
    F: FnOnce(Execution<'p>) -> Execution<'p>,
{
    let (sink, handle) = shared(TraceCollector::with_meta(meta));
    let outcome = configure(Execution::new(&program.program))
        .sink(Box::new(sink))
        .run();

    let mut trace = {
        let mut guard = handle.lock().expect("collector poisoned");
        std::mem::take(&mut guard.trace)
    };
    trace.meta.thread_names = outcome.thread_names.clone();
    annotate(&mut trace, &program.footprints());
    trace.meta.manifested_bugs = program
        .judge(&outcome)
        .manifested
        .iter()
        .map(|s| s.to_string())
        .collect();
    trace
}

/// Produce `count` traces with consecutive seeds — "any number of desirable
/// traces".
pub fn generate_many(program: &SuiteProgram, base: &TraceGenOptions, count: u64) -> Vec<Trace> {
    generate_many_on(program, base, count, &JobPool::serial())
}

/// [`generate_many`], sharded across a job pool. Trace `i` always uses
/// seed `base.seed + i`, so the returned vector is identical (in content
/// and order) for any worker count.
pub fn generate_many_on(
    program: &SuiteProgram,
    base: &TraceGenOptions,
    count: u64,
    pool: &JobPool,
) -> Vec<Trace> {
    pool.run(count as usize, |i| {
        generate(
            program,
            &TraceGenOptions {
                seed: base.seed + i as u64,
                ..base.clone()
            },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_trace_is_annotated_and_grounded() {
        let p = mtt_suite::small::lost_update(2, 2);
        let t = generate(&p, &TraceGenOptions::default());
        assert_eq!(t.meta.program, "lost_update");
        assert!(!t.is_empty());
        assert_eq!(t.meta.known_bugs, vec!["lost-update"]);
        assert!(
            t.records_tagged("lost-update").count() > 0,
            "x accesses tagged"
        );
        assert_eq!(t.meta.var_names[0], "x");
        assert!(!t.meta.thread_names.is_empty());
    }

    #[test]
    fn many_traces_differ_by_seed() {
        let p = mtt_suite::small::lost_update(2, 2);
        let traces = generate_many(&p, &TraceGenOptions::default(), 5);
        assert_eq!(traces.len(), 5);
        // At least two traces should differ (different interleavings).
        let first = &traces[0];
        assert!(
            traces.iter().any(|t| t.records.len() != first.records.len()
                || t.records
                    .iter()
                    .zip(&first.records)
                    .any(|(a, b)| a.thread != b.thread)),
            "all 5 traces identical"
        );
    }

    #[test]
    fn parallel_generation_matches_serial() {
        let p = mtt_suite::small::lost_update(2, 2);
        let serial = generate_many(&p, &TraceGenOptions::default(), 6);
        let par = generate_many_on(&p, &TraceGenOptions::default(), 6, &JobPool::new(3));
        assert_eq!(serial.len(), par.len());
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a, b, "trace diverged between serial and parallel");
        }
    }

    #[test]
    fn manifested_bugs_match_oracle() {
        // Scan seeds until a trace where the bug manifested; its meta must
        // say so.
        let p = mtt_suite::small::lost_update(2, 2);
        let mut hit = false;
        for seed in 0..50 {
            let t = generate(
                &p,
                &TraceGenOptions {
                    seed,
                    ..Default::default()
                },
            );
            if !t.meta.manifested_bugs.is_empty() {
                assert_eq!(t.meta.manifested_bugs, vec!["lost-update"]);
                hit = true;
                break;
            }
        }
        assert!(hit, "bug never manifested in 50 trace generations");
    }
}
