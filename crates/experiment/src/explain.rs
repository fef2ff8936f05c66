//! `mtt explain` — the causal post-mortem for one catalog sample.
//!
//! Scans seeds for a failing and a passing execution of the sample (or
//! takes both seeds from the caller), regenerates both traces, annotates
//! them with vector clocks and happens-before edges ([`mtt_causal`]), and
//! renders a per-thread timeline of the failing run plus an LCS diff
//! against the passing run reporting the divergence window.
//!
//! Everything here is a pure function of (program, seeds): the seed scan
//! runs as one cell space on a [`JobPool`] but picks the first
//! failing/passing index in canonical order, so the output is
//! byte-identical for any `--jobs`.

use crate::jobpool::{cell_key, JobPool};
use crate::tracegen::{self, TraceGenOptions};
use mtt_causal::{
    annotate_trace, annotated_to_string, op_label, render_timeline, thread_label, timeline_csv,
    CausalAnnotations, TraceDiff,
};
use mtt_runtime::{Execution, RandomScheduler};
use mtt_suite::{BugClass, SuiteProgram};
use mtt_tools::{ToolConfig, ToolSpec};
use mtt_trace::Trace;

/// Options for [`explain_on`].
#[derive(Clone, Debug)]
pub struct ExplainOptions {
    /// Failing seed; `None` scans `0..scan` for the first failing run.
    pub seed_fail: Option<u64>,
    /// Passing seed; `None` scans `0..scan` for the first passing run.
    pub seed_pass: Option<u64>,
    /// Seed-scan horizon.
    pub scan: u64,
    /// Per-run step budget.
    pub max_steps: u64,
    /// Tool stack to scan and regenerate under (`--tool`); `None` is the
    /// historical bare uniform-random scheduler (`sticky:0`).
    pub tool: Option<ToolSpec>,
}

impl Default for ExplainOptions {
    fn default() -> Self {
        ExplainOptions {
            seed_fail: None,
            seed_pass: None,
            scan: 200,
            max_steps: 60_000,
            tool: None,
        }
    }
}

/// A fully computed explanation: the annotated failing trace, optionally a
/// passing counterpart, and their schedule diff.
pub struct Explanation {
    /// Program name.
    pub program: String,
    /// Seed of the failing run.
    pub fail_seed: u64,
    /// Seed of the passing run, when one was found or given.
    pub pass_seed: Option<u64>,
    /// The failing trace.
    pub fail_trace: Trace,
    /// Causal annotations of the failing trace.
    pub fail_ann: CausalAnnotations,
    /// The passing trace and its annotations, when available.
    pub pass: Option<(Trace, CausalAnnotations)>,
    /// LCS schedule diff (failing vs passing), when a passing run exists.
    pub diff: Option<TraceDiff>,
    /// When the failing run manifested a deadlock that the static
    /// lock-order analysis (L006) also predicts on the program's MiniProg
    /// twin, the cross-link note naming the predicted cycle sites.
    pub static_note: Option<String>,
}

/// The MiniProg sample that models a suite program, where one exists —
/// the bridge that lets the dynamic post-mortem cite static predictions.
fn miniprog_twin(name: &str) -> Option<&'static str> {
    match name {
        "ab_ba" => Some("mp_abba"),
        "dining_philosophers" => Some("mp_lock_cycle3"),
        _ => None,
    }
}

/// If the failing trace manifested a documented deadlock and the static
/// lock-order pass (L006) flags the program's MiniProg twin, produce the
/// cross-link note with the predicted acquisition sites.
fn static_deadlock_note(program: &SuiteProgram, fail: &Trace) -> Option<String> {
    let deadlocked = fail.meta.manifested_bugs.iter().any(|tag| {
        program
            .bugs
            .iter()
            .any(|b| b.tag == tag.as_str() && b.class == BugClass::Deadlock)
    });
    if !deadlocked {
        return None;
    }
    let twin = miniprog_twin(program.name)?;
    let sample = mtt_static::samples::by_name(twin)?;
    let ast = mtt_static::parse(sample.src).ok()?;
    let analysis = mtt_static::analyze(&ast);
    let sites: Vec<String> = analysis
        .diagnostics
        .iter()
        .filter(|d| d.code == "L006")
        .map(|d| format!("{twin}:{}", d.line))
        .collect();
    if sites.is_empty() {
        return None;
    }
    Some(format!(
        "statically predicted: L006 flags the lock-order cycle on twin sample {} — this deadlock was foreseeable without running",
        sites.join(", ")
    ))
}

/// Does one run of `program` at `seed` under `tool` (`None` = bare uniform
/// random) manifest a documented bug? Must mirror the trace-regeneration
/// settings exactly, so a seed classified here reproduces when the trace is
/// regenerated.
fn manifests(program: &SuiteProgram, tool: Option<&ToolConfig>, seed: u64, max_steps: u64) -> bool {
    let exec = Execution::new(&program.program);
    let exec = match tool {
        Some(t) => t.configure(exec, seed, max_steps),
        None => exec
            .scheduler(Box::new(RandomScheduler::sticky(seed, 0.0)))
            .max_steps(max_steps),
    };
    program.judge(&exec.run()).failed()
}

/// Compute an [`Explanation`] for `program`, sharding the seed scan over
/// `pool`. Errors when no failing seed exists within the scan horizon.
pub fn explain_on(
    program: &SuiteProgram,
    opts: &ExplainOptions,
    pool: &JobPool,
) -> Result<Explanation, String> {
    let tool = match &opts.tool {
        Some(spec) => Some(spec.resolve()?),
        None => None,
    };
    let (fail_seed, pass_seed) = match (opts.seed_fail, opts.seed_pass) {
        (Some(f), Some(p)) => (f, Some(p)),
        (f, p) => {
            let spec = match &tool {
                Some(t) => format!("{} max_steps={}", t.spec_string(), opts.max_steps),
                None => format!("sticky:0 max_steps={}", opts.max_steps),
            };
            let key = |i: usize| cell_key(program.name, "scan", spec.clone(), i as u64);
            let verdicts = pool.cells(opts.scan as usize, key, |i| {
                manifests(program, tool.as_ref(), i as u64, opts.max_steps)
            });
            let first = |want: bool| verdicts.iter().position(|&v| v == want).map(|i| i as u64);
            let fail = match f.or_else(|| first(true)) {
                Some(s) => s,
                None => {
                    return Err(format!(
                    "no failing run of `{}` in seeds 0..{} — try --seed-fail or a larger --scan",
                    program.name, opts.scan
                ))
                }
            };
            (fail, p.or_else(|| first(false)))
        }
    };
    let gen = |seed| match &tool {
        Some(t) => tracegen::generate_with(program, t, seed, opts.max_steps),
        None => tracegen::generate(
            program,
            &TraceGenOptions {
                seed,
                stickiness: 0.0,
                max_steps: opts.max_steps,
            },
        ),
    };
    let fail_trace = gen(fail_seed);
    let fail_ann = annotate_trace(&fail_trace);
    let pass = pass_seed.map(|s| {
        let t = gen(s);
        let a = annotate_trace(&t);
        (t, a)
    });
    let diff = pass
        .as_ref()
        .map(|(pt, _)| TraceDiff::compute(&fail_trace, pt));
    let static_note = static_deadlock_note(program, &fail_trace);
    Ok(Explanation {
        program: program.name.to_string(),
        fail_seed,
        pass_seed,
        fail_trace,
        fail_ann,
        pass,
        diff,
        static_note,
    })
}

impl Explanation {
    /// The one-paragraph header: what failed, where, against which baseline.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "explain {}: failing seed {} ({} events)\n",
            self.program,
            self.fail_seed,
            self.fail_trace.records.len()
        ));
        match self.fail_ann.first_failure {
            Some(seq) => {
                if let Some(r) = self.fail_trace.records.iter().find(|r| r.seq == seq) {
                    out.push_str(&format!(
                        "first failure: seq {} {} {} at {}:{}\n",
                        seq,
                        thread_label(&self.fail_trace.meta, r.thread),
                        op_label(&r.op, &self.fail_trace.meta),
                        r.file,
                        r.line
                    ));
                }
                if !self.fail_trace.meta.manifested_bugs.is_empty() {
                    out.push_str(&format!(
                        "manifested bugs: {}\n",
                        self.fail_trace.meta.manifested_bugs.join(", ")
                    ));
                }
                if let Some(note) = &self.static_note {
                    out.push_str(note);
                    out.push('\n');
                }
            }
            None => out.push_str("first failure: none recorded\n"),
        }
        match (self.pass_seed, &self.pass) {
            (Some(s), Some((t, _))) => out.push_str(&format!(
                "passing baseline: seed {} ({} events)\n",
                s,
                t.records.len()
            )),
            _ => out.push_str("passing baseline: none found in scan\n"),
        }
        out
    }

    /// The per-thread schedule timeline of the failing run.
    pub fn render_timeline(&self) -> String {
        render_timeline(&self.fail_trace, &self.fail_ann)
    }

    /// The timeline as CSV.
    pub fn timeline_csv(&self) -> String {
        timeline_csv(&self.fail_trace, &self.fail_ann)
    }

    /// The schedule diff against the passing baseline, if one exists.
    pub fn render_diff(&self) -> Option<String> {
        let (pt, _) = self.pass.as_ref()?;
        Some(self.diff.as_ref()?.render(&self.fail_trace, pt))
    }

    /// The diff as CSV, if a passing baseline exists.
    pub fn diff_csv(&self) -> Option<String> {
        let (pt, _) = self.pass.as_ref()?;
        Some(self.diff.as_ref()?.to_csv(&self.fail_trace, pt))
    }

    /// The failing trace as annotated NDJSON.
    pub fn annotated_ndjson(&self) -> String {
        annotated_to_string(&self.fail_trace, &self.fail_ann)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_finds_failing_and_passing_seeds() {
        let p = mtt_suite::small::lost_update(2, 2);
        let e = explain_on(&p, &ExplainOptions::default(), &JobPool::serial()).unwrap();
        assert!(!e.fail_trace.meta.manifested_bugs.is_empty());
        assert!(e.pass_seed.is_some(), "lost_update also passes sometimes");
        let (pt, _) = e.pass.as_ref().unwrap();
        assert!(pt.meta.manifested_bugs.is_empty());
        assert!(e.diff.is_some());
        assert!(e.render_summary().contains("first failure"));
        assert!(e.render_diff().unwrap().contains("divergence"));
        mtt_causal::check_annotated(&e.annotated_ndjson()).unwrap();
    }

    #[test]
    fn explain_identical_across_pools() {
        let p = mtt_suite::small::check_then_act();
        let opts = ExplainOptions {
            scan: 64,
            ..Default::default()
        };
        let serial = explain_on(&p, &opts, &JobPool::serial()).unwrap();
        let par = explain_on(&p, &opts, &JobPool::new(4)).unwrap();
        assert_eq!(serial.fail_seed, par.fail_seed);
        assert_eq!(serial.pass_seed, par.pass_seed);
        assert_eq!(serial.render_timeline(), par.render_timeline());
        assert_eq!(serial.render_diff(), par.render_diff());
        assert_eq!(serial.annotated_ndjson(), par.annotated_ndjson());
    }

    #[test]
    fn explicit_seeds_are_respected() {
        let p = mtt_suite::small::lost_update(2, 2);
        let auto = explain_on(&p, &ExplainOptions::default(), &JobPool::serial()).unwrap();
        let pinned = explain_on(
            &p,
            &ExplainOptions {
                seed_fail: Some(auto.fail_seed),
                seed_pass: auto.pass_seed,
                ..Default::default()
            },
            &JobPool::serial(),
        )
        .unwrap();
        assert_eq!(pinned.render_timeline(), auto.render_timeline());
    }

    #[test]
    fn deadlock_explanation_cites_the_static_l006_prediction() {
        let p = mtt_suite::small::ab_ba();
        let e = explain_on(&p, &ExplainOptions::default(), &JobPool::new(4)).unwrap();
        let note = e
            .static_note
            .as_deref()
            .expect("ab_ba deadlock is statically predicted");
        assert!(note.contains("L006"), "{note}");
        assert!(note.contains("mp_abba"), "{note}");
        assert!(e.render_summary().contains("statically predicted"));
    }

    #[test]
    fn non_deadlock_failures_carry_no_static_note() {
        let p = mtt_suite::small::lost_update(2, 2);
        let e = explain_on(&p, &ExplainOptions::default(), &JobPool::serial()).unwrap();
        assert!(e.static_note.is_none(), "lost_update is not a deadlock");
    }

    #[test]
    fn no_failure_in_scan_is_an_error() {
        // An empty scan horizon can never turn up a failing seed.
        let p = mtt_suite::small::lost_update(2, 2);
        let err = match explain_on(
            &p,
            &ExplainOptions {
                scan: 0,
                ..Default::default()
            },
            &JobPool::serial(),
        ) {
            Err(e) => e,
            Ok(_) => panic!("empty scan should not find a failing seed"),
        };
        assert!(err.contains("no failing run"), "{err}");
    }
}
