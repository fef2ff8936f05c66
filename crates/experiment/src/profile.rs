//! `mtt profile`: the contention / hot-site profile of an experiment's
//! workload.
//!
//! For an experiment key (`e1`..`e8`) the profiler runs that experiment's
//! program slice through the campaign engine twice over a compact
//! representative tool roster:
//!
//! 1. **telemetry pass** — every run carries a
//!    [`TelemetrySink`](mtt_telemetry::TelemetrySink), producing per-run
//!    [`RunMetrics`] that merge into per-tool aggregates, the top-K
//!    hot-site table and the top-K contention table;
//! 2. **baseline pass** — the identical seeds with no sink attached (the
//!    `NullSink` condition), whose per-tool wall time anchors the
//!    *telemetry overhead* column.
//!
//! Everything in [`ProfileReport::render`] / [`ProfileReport::to_csv`] is a
//! deterministic function of the seeds and is golden-snapshotted; all
//! wall-clock material (overhead, worker utilization, phase spans) is
//! segregated into [`ProfileReport::render_timing`], mirroring the
//! report/timing split of the campaign engine.

use crate::campaign::{Campaign, ToolConfig, STANDARD_BASE_SEED};
use crate::jobpool::{JobPool, PoolStats};
use crate::report::Table;
use mtt_obs::ChromeTrace;
use mtt_suite::SuiteProgram;
use mtt_telemetry::{RunLogRecord, RunMetrics, SpanEvent, SpanTimings};
use std::collections::BTreeMap;
use std::time::Duration;

/// The experiment keys `mtt profile` accepts (besides `all`).
pub const PROFILE_KEYS: &[&str] = &["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"];

/// Rows in the hot-site and contention tables.
pub const PROFILE_TOP_K: usize = 10;

/// Profiling knobs. Workers, the progress line, the chrome-trace timeline
/// and the journal are the pool's ([`run_profile`]).
#[derive(Clone)]
pub struct ProfileOptions {
    /// Runs per (program, tool) cell.
    pub runs: u64,
    /// Persist a causally annotated NDJSON trace for every bug-finding
    /// cell into this directory (regenerated from the cell's first failing
    /// seed).
    pub annotate_dir: Option<String>,
    /// Tool stacks to profile instead of the default
    /// [`PROFILE_ROSTER_SPECS`] roster (`--tools` / `--tools-file`).
    pub tools: Option<Vec<ToolConfig>>,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            runs: 20,
            annotate_dir: None,
            tools: None,
        }
    }
}

/// The program slice an experiment key profiles: the programs that
/// experiment exercises (approximated for experiments whose engine is not
/// campaign-shaped, where the slice covers the same suite subset). An
/// unknown key is an error that names the known ones.
pub fn programs_for(key: &str) -> Result<Vec<SuiteProgram>, String> {
    let subset = |names: &[&str]| -> Vec<SuiteProgram> {
        mtt_suite::quick_set()
            .into_iter()
            .filter(|p| names.contains(&p.name))
            .collect()
    };
    match key {
        // Campaign-, detector-, static- and tradeoff-shaped experiments all
        // sweep the quick set.
        "e1" | "e2" | "e7" | "e8" => Ok(mtt_suite::quick_set()),
        // Replay and exploration work on the small lock/interleaving trio.
        "e3" | "e6" => Ok(subset(&["lost_update", "ab_ba", "check_then_act"])),
        // Coverage growth targets one medium program.
        "e4" => Ok(subset(&["bounded_queue"])),
        // Multiout focuses on outcome diversity under signals and waits.
        "e5" => Ok(subset(&["missed_signal", "wrong_notify", "unguarded_wait"])),
        _ => Err(format!(
            "unknown profile key `{key}` (expected one of {} or `all`)",
            PROFILE_KEYS.join(", ")
        )),
    }
}

/// The specs of the compact representative tool roster profiled for every
/// key: the baseline plus one of each heuristic family. The `name=` clauses
/// pin the historical display names the profile goldens use.
pub const PROFILE_ROSTER_SPECS: &[&str] = &[
    "sticky:0.9+name=none",
    "sticky:0.9+noise=sleep:0.3:20+name=sleep-0.3",
    "sticky:0.9+noise=mixed:0.2:20+name=mixed-0.2",
    "sticky:0.9+spurious=0.05+name=spurious-0.05",
    "pct:3:150+name=pct-d3",
];

/// Everything one `mtt profile <key>` invocation measured.
pub struct ProfileReport {
    /// The experiment key profiled.
    pub key: String,
    /// Runs per cell.
    pub runs: u64,
    /// Runs per tool (programs × runs), the denominator of per-run columns.
    pub runs_per_tool: u64,
    /// All metrics merged across every cell.
    pub totals: RunMetrics,
    /// Metrics per tool, merged across programs.
    pub per_tool: BTreeMap<String, RunMetrics>,
    /// Per-tool wall time of the telemetry pass (segregated).
    pub wall_with: BTreeMap<String, Duration>,
    /// Per-tool wall time of the baseline (no-sink) pass (segregated).
    pub wall_without: BTreeMap<String, Duration>,
    /// Pool accounting of the telemetry pass (segregated).
    pub pool_stats: PoolStats,
    /// Phase span timings of the telemetry pass (segregated).
    pub spans: SpanTimings,
    /// Annotated-trace files written when
    /// [`ProfileOptions::annotate_dir`] was set (canonical cell order).
    pub annotated: Vec<String>,
    /// Phase intervals of the telemetry pass (chrome "phases" track;
    /// segregated).
    pub span_events: Vec<SpanEvent>,
    /// Program names in grid order (index → cell decoding for the trace).
    pub program_names: Vec<String>,
    /// Tool names in grid order.
    pub tool_names: Vec<String>,
}

/// Run the profiler for one experiment key on `pool`, handing each run-log
/// line of the telemetry pass to `run_log` in canonical (program, tool,
/// run) order as the runs finish ([`Campaign::run_streaming`]).
///
/// The telemetry pass records in the pool's journal, if it has one. The
/// baseline pass is not journaled: it re-runs the same content addresses
/// and would only write duplicate cells. [`ProfileReport::chrome_trace`]
/// has worker tracks when the pool records its timeline
/// ([`JobPool::with_timeline`]).
pub fn run_profile(
    key: &str,
    opts: &ProfileOptions,
    pool: &JobPool,
    run_log: impl FnMut(RunLogRecord) + Send,
) -> Result<ProfileReport, String> {
    let programs = programs_for(key)?;
    let tools = opts
        .tools
        .clone()
        .unwrap_or_else(|| ToolConfig::roster(PROFILE_ROSTER_SPECS));
    let tool_names: Vec<String> = tools.iter().map(|t| t.name.clone()).collect();
    let program_names: Vec<String> = programs.iter().map(|p| p.name.to_string()).collect();
    let mut campaign = Campaign {
        tools,
        telemetry: true,
        label: format!("profile-{key}"),
        ..Campaign::standard(programs, opts.runs)
    };
    let telemetry_pass = campaign.run_streaming(pool, run_log);

    let annotated = match &opts.annotate_dir {
        Some(dir) => {
            campaign.persist_annotated(&telemetry_pass.report, std::path::Path::new(dir))?
        }
        None => Vec::new(),
    };

    // Baseline pass: identical seeds, no sink — the NullSink condition the
    // overhead column compares against.
    campaign.telemetry = false;
    let baseline_pass = campaign.run_full(&pool.clone().recording(None));

    let mut per_tool: BTreeMap<String, RunMetrics> = BTreeMap::new();
    let mut totals = RunMetrics::default();
    for ((_, tool), m) in &telemetry_pass.cell_metrics {
        per_tool.entry(tool.clone()).or_default().merge(m);
        totals.merge(m);
    }
    let wall_per_tool = |report: &crate::campaign::CampaignReport| -> BTreeMap<String, Duration> {
        let mut walls: BTreeMap<String, Duration> = BTreeMap::new();
        for ((_, tool), cell) in &report.cells {
            *walls.entry(tool.clone()).or_default() += cell.wall;
        }
        walls
    };
    let n_programs = telemetry_pass
        .report
        .cells
        .keys()
        .map(|(p, _)| p)
        .collect::<std::collections::BTreeSet<_>>()
        .len() as u64;
    Ok(ProfileReport {
        key: key.to_string(),
        runs: opts.runs,
        runs_per_tool: n_programs * opts.runs,
        totals,
        per_tool: tool_names
            .iter()
            .filter_map(|t| per_tool.get(t).map(|m| (t.clone(), m.clone())))
            .collect(),
        wall_with: wall_per_tool(&telemetry_pass.report),
        wall_without: wall_per_tool(&baseline_pass.report),
        pool_stats: telemetry_pass.pool_stats,
        spans: telemetry_pass.spans,
        annotated,
        span_events: telemetry_pass.span_events,
        program_names,
        tool_names,
    })
}

impl ProfileReport {
    /// Top-K hot sites across every run (deterministic).
    pub fn site_table(&self) -> Table {
        let mut t = Table::new(
            format!("profile {}: top-{PROFILE_TOP_K} hot sites", self.key),
            &["site", "events", "share"],
        );
        let total = self.totals.scalars.events.max(1);
        for (loc, n) in self.totals.top_sites(PROFILE_TOP_K) {
            t.row(&[
                loc.to_string(),
                n.to_string(),
                format!("{:.1}%", 100.0 * n as f64 / total as f64),
            ]);
        }
        t
    }

    /// Top-K contended sites across every run (deterministic).
    pub fn contention_table(&self) -> Table {
        let mut t = Table::new(
            format!("profile {}: top-{PROFILE_TOP_K} contended sites", self.key),
            &["site", "contended encounters"],
        );
        for (loc, n) in self.totals.top_contended_sites(PROFILE_TOP_K) {
            t.row(&[loc.to_string(), n.to_string()]);
        }
        t
    }

    /// Per-tool telemetry averages (deterministic).
    pub fn tool_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "profile {}: per-tool telemetry ({} runs/tool)",
                self.key, self.runs_per_tool
            ),
            &[
                "tool",
                "events/run",
                "ctx-switch/run",
                "yields/run",
                "injections/run",
                "spurious/run",
                "lock-acq/run",
                "contention/run",
                "waits/run",
                "min steps-to-bug",
            ],
        );
        let n = self.runs_per_tool.max(1) as f64;
        for (tool, m) in &self.per_tool {
            let m = &m.scalars;
            t.row(&[
                tool.clone(),
                format!("{:.1}", m.events as f64 / n),
                format!("{:.1}", m.context_switches as f64 / n),
                format!("{:.1}", m.forced_yields as f64 / n),
                format!("{:.1}", m.noise_injections as f64 / n),
                format!("{:.2}", m.spurious_wakeups as f64 / n),
                format!("{:.1}", m.lock_acquires as f64 / n),
                format!("{:.2}", m.lock_contentions as f64 / n),
                format!("{:.2}", m.waits as f64 / n),
                m.steps_to_first_bug
                    .map_or_else(|| "-".to_string(), |s| s.to_string()),
            ]);
        }
        t
    }

    /// Per-tool wall time with and without the telemetry sink attached —
    /// wall-clock, so **not** deterministic; segregated from `render`.
    pub fn overhead_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "profile {} timing (not deterministic): telemetry overhead vs no-sink baseline",
                self.key
            ),
            &["tool", "telemetry ms", "baseline ms", "overhead"],
        );
        for (tool, with) in &self.wall_with {
            let without = self.wall_without.get(tool).copied().unwrap_or_default();
            let overhead = if without.as_secs_f64() > 0.0 {
                100.0 * (with.as_secs_f64() - without.as_secs_f64()) / without.as_secs_f64()
            } else {
                0.0
            };
            t.row(&[
                tool.clone(),
                with.as_millis().to_string(),
                without.as_millis().to_string(),
                format!("{overhead:+.1}%"),
            ]);
        }
        t
    }

    /// The deterministic report: hot sites, contention, per-tool telemetry.
    /// Byte-identical at any `--jobs`; golden-snapshotted.
    pub fn render(&self) -> String {
        format!(
            "{}\n{}\n{}",
            self.site_table().render(),
            self.contention_table().render(),
            self.tool_table().render()
        )
    }

    /// The deterministic report as CSV (one section per table).
    pub fn to_csv(&self) -> String {
        format!(
            "{}\n{}\n{}",
            self.site_table().to_csv(),
            self.contention_table().to_csv(),
            self.tool_table().to_csv()
        )
    }

    /// The segregated wall-clock companion: overhead vs baseline, worker
    /// utilization, phase spans.
    pub fn render_timing(&self) -> String {
        format!(
            "{}\n{}\n{}",
            self.overhead_table().render(),
            self.pool_stats.utilization_table(),
            self.spans.render()
        )
    }

    /// The `chrome://tracing` timeline of the telemetry pass: tid 0 holds
    /// the campaign phases, tid `1 + w` holds worker `w`'s cells, each cell
    /// named `program/tool#run` and carrying its seed. Wall-clock by
    /// definition; the worker tracks need a pool that records its timeline
    /// ([`JobPool::with_timeline`]); without one only phases appear.
    pub fn chrome_trace(&self) -> ChromeTrace {
        let us = |d: Duration| d.as_micros() as u64;
        let mut t = ChromeTrace::new();
        t.process_name(1, &format!("mtt profile-{}", self.key));
        t.thread_name(1, 0, "phases");
        for ev in &self.span_events {
            t.complete(1, 0, "phase", &ev.name, us(ev.start), us(ev.dur), None);
        }
        let n_runs = self.runs.max(1) as usize;
        let n_tools = self.tool_names.len().max(1);
        let mut named_workers = std::collections::BTreeSet::new();
        for span in &self.pool_stats.timeline {
            let tid = 1 + span.worker as u64;
            if named_workers.insert(span.worker) {
                t.thread_name(1, tid, &format!("worker {}", span.worker));
            }
            let r = span.index % n_runs;
            let tool = (span.index / n_runs) % n_tools;
            let prog = span.index / (n_runs * n_tools);
            let name = format!(
                "{}/{}#{r}",
                self.program_names.get(prog).map_or("?", |p| p.as_str()),
                self.tool_names.get(tool).map_or("?", |t| t.as_str()),
            );
            t.complete(
                1,
                tid,
                "cell",
                &name,
                us(span.start),
                us(span.dur),
                Some(STANDARD_BASE_SEED + r as u64),
            );
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ProfileOptions {
        ProfileOptions {
            runs: 4,
            ..ProfileOptions::default()
        }
    }

    /// Profile `key` under `opts` on `pool`, keeping the telemetry pass's
    /// run log.
    fn profile_logged(
        key: &str,
        opts: &ProfileOptions,
        pool: &JobPool,
    ) -> (ProfileReport, Vec<RunLogRecord>) {
        let mut log = Vec::new();
        let report = run_profile(key, opts, pool, |line| log.push(line)).unwrap();
        (report, log)
    }

    #[test]
    fn profile_rejects_unknown_keys() {
        assert!(run_profile("e99", &tiny(), &JobPool::serial(), drop).is_err());
        assert!(run_profile("", &tiny(), &JobPool::serial(), drop).is_err());
    }

    #[test]
    fn every_key_has_programs() {
        for key in PROFILE_KEYS {
            let programs = programs_for(key).unwrap();
            assert!(!programs.is_empty(), "{key} resolves to no programs");
        }
    }

    #[test]
    fn profile_e3_is_deterministic_across_jobs() {
        let (serial, serial_log) = profile_logged("e3", &tiny(), &JobPool::serial());
        let (par, par_log) = profile_logged("e3", &tiny(), &JobPool::new(4));
        assert_eq!(serial.render(), par.render());
        assert_eq!(serial.to_csv(), par.to_csv());
        assert!(!serial_log.is_empty());
        assert_eq!(serial_log, par_log);
    }

    #[test]
    fn profile_annotate_dir_persists_valid_traces() {
        let dir = std::env::temp_dir().join(format!("mtt-profile-annot-{}", std::process::id()));
        let report = run_profile(
            "e3",
            &ProfileOptions {
                annotate_dir: Some(dir.display().to_string()),
                ..tiny()
            },
            &JobPool::serial(),
            drop,
        )
        .unwrap();
        assert!(!report.annotated.is_empty(), "e3 cells should find bugs");
        for path in &report.annotated {
            let text = std::fs::read_to_string(path).unwrap();
            mtt_causal::check_annotated(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chrome_trace_covers_every_cell_and_validates() {
        let report = run_profile("e3", &tiny(), &JobPool::new(2).with_timeline(), drop).unwrap();
        let trace = report.chrome_trace();
        let text = trace.dump();
        let complete = mtt_obs::check_chrome_trace(&text).expect("trace is structurally valid");
        // One complete event per cell of the telemetry pass, plus the
        // phase spans.
        let cells = report.pool_stats.timeline.len();
        assert!(cells > 0, "timeline collected");
        assert!(complete >= cells, "{complete} < {cells}");
        assert!(text.contains("lost_update/none#0"), "{text}");
        assert!(text.contains("\"seed\""));
        // Without the pool's timeline, only phases appear (no worker tracks).
        let bare = run_profile("e3", &tiny(), &JobPool::serial(), drop).unwrap();
        assert!(bare.pool_stats.timeline.is_empty());
        assert!(mtt_obs::check_chrome_trace(&bare.chrome_trace().dump()).unwrap() > 0);
    }

    #[test]
    fn profile_measures_real_activity() {
        let (report, run_log) = profile_logged("e3", &tiny(), &JobPool::serial());
        assert!(report.totals.scalars.events > 0);
        assert!(report.totals.scalars.lock_acquires > 0);
        assert!(!report.per_tool.is_empty());
        assert_eq!(
            run_log.len() as u64,
            report.runs_per_tool * report.per_tool.len() as u64
        );
        // The segregated timing render exists and mentions the overhead table.
        assert!(report.render_timing().contains("baseline"));
    }
}
