//! The benchmark's own contract, checked on every workload at 2 runs per
//! cell: reports do not depend on the worker count, tracing changes no
//! schedule and sees every call, and both phases print parseable metric
//! lines carrying every metric `BENCHMARK.json` declares.

use mtt_campaign_bench::phases;
use mtt_campaign_bench::report::BenchSpec;
use mtt_campaign_bench::trace::Tracer;
use mtt_campaign_bench::workload::{run_pass, PassMode, PassResult, Plan, Workload, MAX_STEPS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Parse a `workload metric value unit` line, as a reader of the
/// benchmark's output would.
fn parse_line(line: &str) -> Option<(Workload, &str, f64, &str)> {
    let mut f = line.split(' ');
    let w = Workload::parse(f.next()?)?;
    let name = f.next().filter(|n| !n.is_empty())?;
    let value = f.next()?.parse().ok()?;
    let unit = f.next().filter(|u| !u.is_empty())?;
    f.next().is_none().then_some((w, name, value, unit))
}

fn plan(w: Workload, jobs: usize, test: &str) -> Plan {
    Plan {
        workload: w,
        seed: 7,
        runs: 2,
        jobs,
        max_steps: MAX_STEPS,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}-{}", w.name())),
    }
}

fn pass(p: &Plan, mode: PassMode<'_>, tag: &str) -> PassResult {
    let r = run_pass(p, mode, tag).unwrap_or_else(|e| panic!("{}: {e}", p.workload.name()));
    if let Some(f) = &r.files {
        f.remove();
    }
    r
}

/// Per-tool sums of `avg × runs` over a pass's cells.
fn per_tool(
    r: &PassResult,
    runs: u64,
    avg: fn(&mtt_core::experiment::campaign::CellResult) -> f64,
) -> BTreeMap<String, u64> {
    let mut sums = BTreeMap::new();
    for ((_, tool), cell) in &r.report.cells {
        *sums.entry(tool.clone()).or_default() += (avg(cell) * runs as f64).round() as u64;
    }
    sums
}

#[test]
fn reports_agree_at_one_and_two_jobs() {
    for w in Workload::ALL {
        let one = pass(&plan(w, 1, "jobs"), PassMode::default(), "one");
        let two = pass(&plan(w, 2, "jobs"), PassMode::default(), "two");
        assert!(one.cells_complete && two.cells_complete, "{}", w.name());
        assert_eq!(one.runs, two.runs);
        if !w.is_native() {
            assert_eq!(one.digest, two.digest, "{}", w.name());
        }
    }
}

#[test]
fn tracing_changes_no_schedule_and_sees_every_call() {
    for w in Workload::ALL {
        let p = plan(w, 2, "trace");
        let untraced = pass(&p, PassMode::default(), "untraced");
        let tracer = Tracer::new();
        let traced = pass(
            &p,
            PassMode {
                tracer: Some(&tracer),
                ..PassMode::default()
            },
            "traced",
        );
        let name = w.name();
        if !w.is_native() {
            assert_eq!(
                untraced.digest, traced.digest,
                "{name}: tracing moved a schedule"
            );
        }
        let spans = tracer.take().spans;
        assert_eq!(spans.len() as u64, traced.runs, "{name}: one span per run");
        for s in &spans {
            assert!(
                s.children_ns() <= s.run_ns(),
                "{name}: child spans of run {} overlap",
                s.run_id
            );
        }

        let events = per_tool(&traced, p.runs, |c| c.avg_events);
        let mut seen: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for s in &spans {
            let e = seen.entry(s.tool.clone()).or_default();
            e.0 += s.layers.events;
            e.1 += s.layers.noise_calls;
        }
        // A native run cut short by the step budget counts the event that
        // hit the budget but unwinds before dispatching it.
        let cut = |tool: &str| {
            spans
                .iter()
                .filter(|s| s.native && s.tool == tool && s.outcome == "step-limit")
                .count() as u64
        };
        for (tool, &(probe, noise)) in &seen {
            let want = events[tool] - cut(tool);
            assert_eq!(
                probe, want,
                "{name}/{tool}: probe calls vs ExecStats events"
            );
            // No workload's tool restricts noise with `place=`, so the
            // noise maker is consulted at every event.
            assert_eq!(
                noise, want,
                "{name}/{tool}: noise calls vs ExecStats events"
            );
        }

        let picks: u64 = spans.iter().map(|s| s.layers.picks).sum();
        if w.is_native() {
            assert_eq!(
                picks, 0,
                "{name}: the native engine never consults the scheduler"
            );
        } else {
            // Every scheduling point picks, except the one that finds a
            // deadlock or exhausts the step budget and ends the run.
            let points: u64 = per_tool(&traced, p.runs, |c| c.avg_points).values().sum();
            let ended = spans
                .iter()
                .filter(|s| matches!(s.outcome, "deadlock" | "step-limit"))
                .count() as u64;
            assert_eq!(
                picks + ended,
                points,
                "{name}: picks vs ExecStats sched_points"
            );
        }
    }
}

#[test]
fn both_phases_print_parseable_lines_with_every_declared_metric() {
    let spec = BenchSpec::load();
    for w in Workload::ALL {
        let p = plan(w, 2, "phases");
        let timed = phases::timed(&p, Duration::ZERO);
        let traced = phases::traced(&p, &p.scratch.join("spans.ndjson"));
        let _ = std::fs::remove_dir_all(&p.scratch);
        for (inv, defs) in [(&timed, &spec.end_to_end), (&traced, &spec.per_layer)] {
            assert_eq!(inv.check, Ok(()), "{}", w.name());
            assert_eq!(inv.failed, 0, "{}", w.name());
            for m in &inv.metrics {
                let line = m.line(w.name());
                let parsed = parse_line(&line).unwrap_or_else(|| panic!("unparseable: {line}"));
                assert_eq!(parsed, (w, m.name.as_str(), m.value, m.unit));
            }
            inv.result(defs).expect("every declared metric is measured");
            for d in defs {
                let m = inv.metrics.iter().find(|m| m.name == d.name).unwrap();
                assert_eq!(m.unit, d.unit, "{}: unit of {}", w.name(), d.name);
            }
        }
        assert_eq!(timed.samples["runs_per_s"].len(), phases::MIN_PASSES);
    }
}

#[test]
fn a_step_budget_cut_is_not_a_watchdog_kill() {
    let mut p = plan(Workload::NativeGrid, 2, "kills");
    // Every quick-set run emits more events than this, so each one ends
    // with the step-limit outcome the watchdog also uses.
    p.max_steps = 5;
    let tracer = Tracer::new();
    let traced = pass(
        &p,
        PassMode {
            tracer: Some(&tracer),
            ..PassMode::default()
        },
        "traced",
    );
    let mut collected = tracer.take();
    let cut = collected
        .spans
        .iter()
        .filter(|s| s.outcome == "step-limit")
        .count();
    assert!(cut > 0, "no run hit the step budget");
    assert!(collected.spans.iter().all(|s| !s.killed));
    let kills = collected
        .metrics()
        .into_iter()
        .find(|m| m.name == "native.kills")
        .expect("native.kills is measured");
    assert_eq!(kills.value, 0.0);
    assert_eq!(traced.timed_out, 0);
}
