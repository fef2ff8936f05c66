//! The four campaign workloads, their set-up, and one timed pass over a
//! workload's (program × tool × seed) matrix through the same public API
//! `mtt e1` uses: `Campaign::run_full` on a `JobPool`, with `JournalSink`
//! and `RunLogWriter` when the workload records.

use crate::stats::fnv1a64;
use crate::trace::Tracer;
use mtt_core::experiment::{Campaign, CampaignReport, CampaignRun, JobPool, PoolStats, ToolConfig};
use mtt_core::obs::JournalSink;
use mtt_core::runtime::RuntimeBackend;
use mtt_core::suite::{large, medium, small, SuiteProgram};
use mtt_core::telemetry::{RunLogRecord, RunLogWriter, SpanTimings};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workers of the closed loop: each claims its next run when the previous
/// one finishes.
pub const JOBS: usize = 2;

/// The seed the correctness gate's reference digests were first pinned at
/// (`mtt`'s own default base seed).
pub const DEFAULT_SEED: u64 = 0x5eed;

/// Per-run wall budget of the native workload. Native runs can really
/// hang; the watchdog turns a hang into a counted, failed run.
const NATIVE_BUDGET: Duration = Duration::from_secs(2);

/// Step budget per run, as `Campaign::standard` sets it.
pub const MAX_STEPS: u64 = 60_000;

const RECORDED_TOOLS: [&str; 3] = [
    "sticky:0.9+noise=mixed:0.2:20+race=hb+race=lockset+deadlock=lockorder+cov=sites",
    "pct:3:150+race=hb+deadlock=waitsfor+cov=sync",
    "sticky:0.9+noise=sleep:0.3:20+race=lockset+deadlock=lockorder",
];

const WIDE_TOOLS: [&str; 3] = ["none", "mixed-0.2", "pct-d3"];

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Experiment E1's grid, bare: short runs, so per-run fixed cost and
    /// handoff both show.
    E1Grid,
    /// 12–25-thread programs: per-step handoff dominates.
    WideThreads,
    /// E1's programs with detector sinks, telemetry, run log and journal.
    RecordedDetect,
    /// E1's grid on real OS threads: the model engine is bypassed.
    NativeGrid,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::E1Grid,
        Workload::WideThreads,
        Workload::RecordedDetect,
        Workload::NativeGrid,
    ];

    /// The workload's stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::E1Grid => "e1-grid",
            Workload::WideThreads => "wide-threads",
            Workload::RecordedDetect => "recorded-detect",
            Workload::NativeGrid => "native-grid",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs per (program, tool) cell in one full-size pass; each pass
    /// takes a few seconds on a 2-core machine.
    pub fn runs_per_cell(self) -> u64 {
        match self {
            Workload::E1Grid => 120,
            Workload::WideThreads => 80,
            Workload::RecordedDetect => 300,
            Workload::NativeGrid => 16,
        }
    }

    /// Does the workload run on real OS threads (and so produce outcomes
    /// that differ from run to run)?
    pub fn is_native(self) -> bool {
        self == Workload::NativeGrid
    }

    /// Does the workload record (telemetry, run log and journal)?
    pub fn is_recorded(self) -> bool {
        self == Workload::RecordedDetect
    }

    fn programs(self) -> Vec<SuiteProgram> {
        match self {
            Workload::WideThreads => vec![
                small::dining_philosophers(24),
                medium::token_ring(24, 2),
                medium::bounded_queue(12, 12, 2),
                large::web_sessions(16, 3),
                large::pipeline_etl(8, 6),
            ],
            _ => mtt_core::suite::quick_set(),
        }
    }

    fn tools(self) -> Vec<ToolConfig> {
        match self {
            Workload::E1Grid => ToolConfig::standard_roster(),
            Workload::WideThreads => ToolConfig::standard_roster()
                .into_iter()
                .filter(|t| WIDE_TOOLS.contains(&t.name.as_str()))
                .collect(),
            Workload::RecordedDetect => RECORDED_TOOLS
                .iter()
                .map(|s| ToolConfig::from_spec_str(s).expect("recorded-detect specs are valid"))
                .collect(),
            Workload::NativeGrid => {
                let mut tools = ToolConfig::standard_roster();
                for t in &mut tools {
                    t.backend = RuntimeBackend::Native;
                    t.spec.backend = RuntimeBackend::Native;
                }
                tools
            }
        }
    }
}

/// Everything that defines one pass's inputs.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// `Campaign::base_seed`: run `r` of every cell uses seed `seed + r`.
    pub seed: u64,
    /// Runs per cell.
    pub runs: u64,
    /// Pool workers.
    pub jobs: usize,
    /// Step budget per run.
    pub max_steps: u64,
    /// Directory for the recorded workload's journal and run log.
    pub scratch: PathBuf,
}

impl Plan {
    /// The full-size plan of `workload` at `seed` with [`JOBS`] workers.
    pub fn full(workload: Workload, seed: u64, scratch: PathBuf) -> Plan {
        Plan {
            workload,
            seed,
            runs: workload.runs_per_cell(),
            jobs: JOBS,
            max_steps: MAX_STEPS,
            scratch,
        }
    }

    /// Runs in one pass.
    pub fn total_runs(&self) -> u64 {
        let w = self.workload;
        (w.programs().len() * w.tools().len()) as u64 * self.runs
    }
}

/// A campaign ready to run: what the set-up phase builds.
pub struct Prepared {
    /// The campaign.
    pub campaign: Campaign,
    /// The pool it runs on.
    pub pool: JobPool,
    files: Option<RecordFiles>,
}

/// Where a recording pass writes.
#[derive(Clone, Debug)]
pub struct RecordFiles {
    /// The pass's own directory (removed with [`RecordFiles::remove`]).
    pub dir: PathBuf,
    /// The flight-recorder journal.
    pub journal: PathBuf,
    /// The NDJSON run log.
    pub run_log: PathBuf,
}

impl RecordFiles {
    /// Bytes written to the journal and run log together.
    pub fn bytes(&self) -> u64 {
        [&self.journal, &self.run_log]
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum()
    }

    /// Delete the pass's directory.
    pub fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Build the campaign of `plan`: programs, resolved tool specs, the
/// journal (opened in `scratch/<tag>` when `record` is set) and the pool.
pub fn setup(plan: &Plan, record: bool, tag: &str) -> Result<Prepared, String> {
    let w = plan.workload;
    let mut campaign = Campaign {
        programs: w.programs(),
        tools: w.tools(),
        runs: plan.runs,
        base_seed: plan.seed,
        max_steps: plan.max_steps,
        jobs: plan.jobs,
        run_budget: w.is_native().then_some(NATIVE_BUDGET),
        progress: false,
        telemetry: false,
        label: w.name().to_string(),
        journal: None,
        resume: None,
    };
    let mut files = None;
    if record {
        let dir = plan.scratch.join(tag);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let f = RecordFiles {
            journal: dir.join("journal.ndjson"),
            run_log: dir.join("runs.ndjson"),
            dir,
        };
        let sink = JournalSink::to_file(&f.journal, false)
            .map_err(|e| format!("open {}: {e}", f.journal.display()))?;
        campaign.telemetry = true;
        campaign.journal = Some(Arc::new(sink));
        files = Some(f);
    }
    Ok(Prepared {
        campaign,
        pool: JobPool::new(plan.jobs),
        files,
    })
}

/// What one pass measured and produced.
pub struct PassResult {
    /// The `run_full` call.
    pub run: Duration,
    /// Set-up, `run_full`, rendering the report CSV, writing the run log
    /// and closing the journal: what a user waits for.
    pub wall: Duration,
    /// Runs executed.
    pub runs: u64,
    /// Runs over the per-run wall budget (native watchdog kills included).
    pub timed_out: u64,
    /// FNV-1a-64 of `CampaignReport::table().to_csv()`.
    pub digest: u64,
    /// Every cell present with its expected run count.
    pub cells_complete: bool,
    /// The campaign's report.
    pub report: CampaignReport,
    /// How the pool spent its time.
    pub pool_stats: PoolStats,
    /// Wall-clock timings of the campaign's phases.
    pub spans: SpanTimings,
    /// The recording's files, kept until [`RecordFiles::remove`].
    pub files: Option<RecordFiles>,
}

impl PassResult {
    /// Runs completed per second of `run_full` wall time.
    pub fn runs_per_s(&self) -> f64 {
        self.runs as f64 / self.run.as_secs_f64()
    }
}

/// How a pass is run.
#[derive(Clone, Copy, Default)]
pub struct PassMode<'t> {
    /// Override the workload's recording (the traced phase's bare pass
    /// runs the recorded workload's matrix without it).
    pub bare: bool,
    /// Install the tracing decorators.
    pub tracer: Option<&'t Arc<Tracer>>,
}

/// Run one pass of `plan`: set up, run the campaign, render and write its
/// outputs, and check the report's shape.
pub fn run_pass(plan: &Plan, mode: PassMode<'_>, tag: &str) -> Result<PassResult, String> {
    let record = plan.workload.is_recorded() && !mode.bare;
    let t0 = Instant::now();
    let Prepared {
        mut campaign,
        mut pool,
        files,
    } = setup(plan, record, tag)?;
    if let Some(tracer) = mode.tracer {
        tracer.install(&mut campaign);
        pool = pool.with_timeline();
    }

    let t1 = Instant::now();
    let CampaignRun {
        report,
        run_log,
        pool_stats,
        spans,
        ..
    } = campaign.run_full(&pool);
    let run = t1.elapsed();
    let csv = report.table().to_csv();
    if let Some(f) = &files {
        write_run_log(&f.run_log, &run_log)?;
        if let Some(err) = campaign.journal.as_ref().and_then(|j| j.error()) {
            return Err(err);
        }
    }
    let expected_cells = campaign.programs.len() * campaign.tools.len();
    drop(campaign); // closes the journal
    drop(run_log);
    let wall = t0.elapsed();

    let cells_complete = report.cells.len() == expected_cells
        && report.cells.values().all(|c| c.any_bug.runs == plan.runs);
    Ok(PassResult {
        run,
        wall,
        runs: (expected_cells as u64) * plan.runs,
        timed_out: report.cells.values().map(|c| c.timed_out).sum(),
        digest: fnv1a64(csv.as_bytes()),
        cells_complete,
        report,
        pool_stats,
        spans,
        files,
    })
}

fn write_run_log(path: &Path, records: &[RunLogRecord]) -> Result<(), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = RunLogWriter::new(file);
    for rec in records {
        w.write_record(rec)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    w.flush()
        .map_err(|e| format!("flush {}: {e}", path.display()))
}

/// The reference digests, one `workload seed digest` line each.
const PINNED: &str = include_str!("../digests.txt");

/// The pinned report digest of a full-size pass of `workload` at `seed`,
/// if one was recorded.
pub fn pinned_digest(workload: Workload, seed: u64) -> Option<u64> {
    PINNED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload.name() && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// The correctness gate over one invocation's passes. Model workloads are
/// deterministic: every pass must give the same report digest, equal to
/// the pinned one where a digest is pinned. Native outcomes vary from run
/// to run, so there only the report's shape is checked.
pub fn check(plan: &Plan, passes: &[PassResult]) -> Result<(), String> {
    if let Some(p) = passes.iter().find(|p| !p.cells_complete) {
        return Err(format!(
            "a cell is missing or short of {} runs (digest {:016x})",
            plan.runs, p.digest
        ));
    }
    if plan.workload.is_native() {
        return Ok(());
    }
    let first = passes.first().ok_or("no pass ran")?.digest;
    if let Some(p) = passes.iter().find(|p| p.digest != first) {
        return Err(format!(
            "passes disagree: digest {first:016x} vs {:016x}",
            p.digest
        ));
    }
    match pinned_digest(plan.workload, plan.seed) {
        Some(pin)
            if plan.runs == plan.workload.runs_per_cell()
                && plan.max_steps == MAX_STEPS
                && pin != first =>
        {
            Err(format!(
                "report digest {first:016x} differs from the pinned {pin:016x} at seed {}",
                plan.seed
            ))
        }
        _ => Ok(()),
    }
}
