//! The two phases of one invocation: the timed phase measures the
//! end-to-end metrics untraced, and the traced phase measures the
//! per-layer split.

use crate::report::{Invocation, Metric};
use crate::stats::{measure, median, percentile_sorted};
use crate::trace::Tracer;
use crate::workload::{check, run_pass, setup, PassMode, PassResult, Plan, RecordFiles};
use mtt_core::experiment::PoolStats;
use mtt_core::obs::{JournalRecord, JournalSink, StatusSummary};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// Passes the timed phase always runs, so every end-to-end metric is the
/// median of at least this many.
pub const MIN_PASSES: usize = 3;

/// Untimed set-ups before every batch of timed ones.
pub const SETUP_WARMUP: usize = 5;

/// Timed set-ups before every pass of the timed phase.
pub const SETUP_REPEATS: usize = 50;

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("a pass panicked: {msg}"))
    })
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The timed phase: back-to-back passes until `budget` is spent (at least
/// [`MIN_PASSES`]), each preceded by repeated set-ups; every end-to-end
/// metric is the median over passes (over set-ups for `setup_s`).
pub fn timed(plan: &Plan, budget: Duration) -> Invocation {
    let record = plan.workload.is_recorded();
    let mut error = None;
    let mut setup_s = Vec::new();
    let mut passes: Vec<PassResult> = Vec::new();
    let mut rss = Err("no pass completed".to_string());
    let started = Instant::now();
    while error.is_none() {
        // The first few set-ups after a pass run on cold caches and take up
        // to twice as long, so each batch starts with untimed ones; batches
        // spread over the phase sample the machine at many moments.
        let setups = measure(SETUP_WARMUP, SETUP_REPEATS, || {
            setup(plan, record, "setup").map_err(|e| error = Some(e))
        });
        setup_s.extend(setups.samples);
        if error.is_some() {
            break;
        }
        let tag = format!("pass-{}", passes.len());
        match guarded(|| run_pass(plan, PassMode::default(), &tag)) {
            Ok(p) => {
                if let Some(f) = &p.files {
                    f.remove();
                }
                passes.push(p);
                // What a process running one campaign peaks at; later
                // passes reuse the heap the first one left behind.
                if passes.len() == 1 {
                    rss = peak_rss_mb();
                }
            }
            Err(e) => error = Some(e),
        }
        let elapsed = started.elapsed();
        if passes.len() >= MIN_PASSES && elapsed + elapsed / passes.len() as u32 > budget {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(plan.scratch.join("setup"));

    let per_pass = |f: &dyn Fn(&PassResult) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let runs_per_s = per_pass(&PassResult::runs_per_s);
    let wall = per_pass(&|p| p.wall.as_secs_f64());
    let rss = rss.unwrap_or_else(|e| {
        error.get_or_insert(e);
        f64::NAN
    });

    let (attempted, failed) = tally(plan, &passes, error.is_some());
    let check = error.map_or_else(|| check(plan, &passes), Err);
    let metrics = vec![
        Metric::new("runs_per_s", median(&runs_per_s), "runs/s"),
        Metric::new("wall_s", median(&wall), "s"),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("peak_rss_mb", rss, "MB"),
        Metric::new("failed_frac", failed as f64 / attempted as f64, "ratio"),
    ];
    let samples = BTreeMap::from([
        ("runs_per_s".to_string(), runs_per_s),
        ("wall_s".to_string(), wall),
        ("setup_s".to_string(), setup_s),
        ("peak_rss_mb".to_string(), vec![rss]),
    ]);
    Invocation {
        workload: plan.workload,
        seed: plan.seed,
        traced: false,
        check,
        attempted,
        failed,
        metrics,
        samples,
    }
}

/// Runs attempted and failed over `passes`, plus one whole pass when an
/// error cut the phase short.
fn tally(plan: &Plan, passes: &[PassResult], errored: bool) -> (u64, u64) {
    let lost = if errored { plan.total_runs() } else { 0 };
    (
        passes.iter().map(|p| p.runs).sum::<u64>() + lost,
        passes.iter().map(|p| p.timed_out).sum::<u64>() + lost,
    )
}

/// The traced phase: one untraced pass (the overhead baseline), for the
/// recorded workload one bare pass over the same matrix, then one pass
/// with the decorators installed. Spans go to `spans_path` as NDJSON.
pub fn traced(plan: &Plan, spans_path: &Path) -> Invocation {
    let mut passes = Vec::new();
    let outcome = traced_passes(plan, spans_path, &mut passes);
    let (attempted, failed) = tally(plan, &passes, outcome.is_err());
    for f in passes.iter().filter_map(|p| p.files.as_ref()) {
        f.remove();
    }
    let (metrics, check) = match outcome {
        Ok(m) => (m, check(plan, &passes)),
        Err(e) => (Vec::new(), Err(e)),
    };
    Invocation {
        workload: plan.workload,
        seed: plan.seed,
        traced: true,
        check,
        attempted,
        failed,
        metrics,
        samples: BTreeMap::new(),
    }
}

fn traced_passes(
    plan: &Plan,
    spans_path: &Path,
    passes: &mut Vec<PassResult>,
) -> Result<Vec<Metric>, String> {
    let base = guarded(|| run_pass(plan, PassMode::default(), "untraced"))?;
    let recorded = base.files.clone();
    passes.push(base);
    let record_us = match &recorded {
        Some(_) => {
            let bare = guarded(|| {
                run_pass(
                    plan,
                    PassMode {
                        bare: true,
                        ..PassMode::default()
                    },
                    "bare",
                )
            })?;
            let per_run_us =
                |p: &PassResult| p.run.as_secs_f64() * plan.jobs as f64 / p.runs as f64 * 1e6;
            let us = per_run_us(&passes[0]) - per_run_us(&bare);
            passes.push(bare);
            us
        }
        None => 0.0,
    };
    let tracer = Tracer::new();
    let traced = guarded(|| {
        run_pass(
            plan,
            PassMode {
                tracer: Some(&tracer),
                ..PassMode::default()
            },
            "traced",
        )
    })?;
    let mut collected = tracer.take();
    collected
        .write_spans(plan.workload.name(), spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;

    let mut m = collected.metrics();
    m.extend(pool_metrics(&traced.pool_stats));
    m.push(Metric::new(
        "experiment.aggregate_ms",
        traced.spans.total("campaign.aggregate").as_secs_f64() * 1e3,
        "ms",
    ));
    m.push(Metric::new(
        "trace.slowdown",
        passes[0].runs_per_s() / traced.runs_per_s(),
        "ratio",
    ));
    m.push(Metric::new("record.us_per_run", record_us, "us"));
    m.extend(match &recorded {
        Some(files) => recording_metrics(files, passes[0].runs)?,
        None => recording_placeholders(),
    });
    passes.push(traced);
    Ok(m)
}

/// Pool utilisation, and the idle time at the end of the pass: for each
/// worker, from its last job's end to the last job's end on any worker.
fn pool_metrics(stats: &PoolStats) -> Vec<Metric> {
    let jobs = stats.workers.len().max(1);
    let busy: f64 = stats.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
    let mut last_end = vec![Duration::ZERO; jobs];
    for s in &stats.timeline {
        last_end[s.worker] = last_end[s.worker].max(s.start + s.dur);
    }
    let end = last_end.iter().copied().max().unwrap_or_default();
    let idle: Duration = last_end.iter().map(|&e| end - e).sum();
    vec![
        Metric::new(
            "experiment.pool_util",
            busy / (stats.wall.as_secs_f64() * jobs as f64),
            "ratio",
        ),
        Metric::new("experiment.tail_idle_ms", idle.as_secs_f64() * 1e3, "ms"),
    ]
}

const RECORDING_METRICS: [(&str, &str); 4] = [
    ("obs.append_us.p50", "us"),
    ("obs.append_us.p99", "us"),
    ("obs.bytes_per_run", "bytes"),
    ("obs.status_fold_ms", "ms"),
];

fn recording_placeholders() -> Vec<Metric> {
    RECORDING_METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, 0.0, unit))
        .collect()
}

/// The recording layer: bytes written per run, the time `mtt status`
/// takes to fold the journal, and the time to append each of the pass's
/// own journal records again to a fresh journal.
fn recording_metrics(files: &RecordFiles, runs: u64) -> Result<Vec<Metric>, String> {
    let parsed = mtt_core::obs::load_journal(&files.journal)?;
    let t = Instant::now();
    let status = StatusSummary::from_journal(&parsed);
    let fold = t.elapsed();
    if status.done != runs || !status.complete {
        return Err(format!(
            "journal holds {} of {runs} runs (complete: {})",
            status.done, status.complete
        ));
    }
    let copy = files.dir.join("reappend.ndjson");
    let sink =
        JournalSink::to_file(&copy, false).map_err(|e| format!("open {}: {e}", copy.display()))?;
    let mut append_ns = Vec::new();
    for rec in parsed.records {
        let t = Instant::now();
        match rec {
            JournalRecord::Start(s) => sink.start(s),
            JournalRecord::Done(d) => sink.done(d),
            _ => continue,
        }
        append_ns.push(t.elapsed().as_nanos() as u64);
    }
    if let Some(e) = sink.error() {
        return Err(e);
    }
    append_ns.sort_unstable();
    let values = [
        percentile_sorted(&append_ns, 0.5) as f64 / 1e3,
        percentile_sorted(&append_ns, 0.99) as f64 / 1e3,
        files.bytes() as f64 / runs as f64,
        fold.as_secs_f64() * 1e3,
    ];
    Ok(RECORDING_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect())
}
