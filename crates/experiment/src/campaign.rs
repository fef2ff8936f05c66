//! The generic campaign runner: (program × tool configuration × N seeded
//! runs) → find-probability statistics and overhead — experiment E1's
//! engine, reused by several other experiments.
//!
//! A campaign runs on a [`JobPool`], which sets its workers, progress line,
//! timeline and journal: the campaign records its runs in the journal of
//! the pool it runs on, under its own header.

use crate::jobpool::{CellCodec, CellJournal, JobPool, PoolStats};
use crate::report::Table;
use crate::stats::FindStats;
use mtt_causal::Fingerprinter;
use mtt_instrument::{Event, EventSink};
use mtt_obs::{CampaignMeta, CellDone, JournalSink, ResumeCache};
use mtt_runtime::Execution;
use mtt_suite::SuiteProgram;
use mtt_telemetry::{RunLogRecord, RunMetrics, SpanEvent, SpanSet, SpanTimings, TelemetrySink};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// The tool configuration the grid evaluates now lives in `mtt-tools`, built
// from declarative [`mtt_tools::ToolSpec`] strings; re-exported here so the
// campaign API reads the same as before the registry refactor.
pub use mtt_tools::ToolConfig;

/// One (program, tool) cell of the campaign grid.
#[derive(Clone, Debug, Default)]
pub struct CellResult {
    /// Probability of finding *any* documented bug in one run.
    pub any_bug: FindStats,
    /// Per-bug find statistics.
    pub per_bug: BTreeMap<String, FindStats>,
    /// Mean events per run (instrumentation overhead proxy).
    pub avg_events: f64,
    /// Mean scheduling points per run.
    pub avg_points: f64,
    /// Mean noise injections per run.
    pub avg_injections: f64,
    /// Total wall time spent on this cell (sum of per-run durations, so
    /// the number is comparable across job counts).
    pub wall: Duration,
    /// Runs that exceeded the campaign's per-run wall-clock budget.
    pub timed_out: u64,
    /// Seed of the first run (in canonical run order) where a documented
    /// bug manifested — the natural exhibit for `mtt explain`.
    pub first_fail_seed: Option<u64>,
    /// Seed of the first run where no bug manifested (the diff baseline).
    pub first_pass_seed: Option<u64>,
}

/// The campaign definition.
pub struct Campaign {
    /// Programs under test.
    pub programs: Vec<SuiteProgram>,
    /// Tool configurations under comparison.
    pub tools: Vec<ToolConfig>,
    /// Runs per cell.
    pub runs: u64,
    /// Base seed (run `r` uses seed `base_seed + r`, wrapping).
    pub base_seed: u64,
    /// Per-run step budget.
    pub max_steps: u64,
    /// Worker threads sharding the (program × tool × seed) matrix
    /// (1 = serial; 0 = available parallelism).
    pub jobs: usize,
    /// Optional per-run wall-clock budget. Runs that exceed it are counted
    /// in [`CellResult::timed_out`] so a pathological cell is visible in
    /// the report instead of silently dragging the campaign. Note: run
    /// *termination* is guaranteed by `max_steps`; the budget only marks.
    pub run_budget: Option<Duration>,
    /// Emit a runs/sec + ETA progress line to stderr while running.
    pub progress: bool,
    /// Attach a [`TelemetrySink`] to every run and collect per-run
    /// [`RunMetrics`] (off by default: the default campaign pays nothing
    /// for the telemetry layer beyond this flag check).
    pub telemetry: bool,
    /// Label used for progress lines and as the `experiment` field of
    /// NDJSON run-log records.
    pub label: String,
    /// Optional flight-recorder journal: the campaign writes one header,
    /// a `start`/`done` record per executed cell (content-addressed), and
    /// an `end` marker. Cells served from [`Campaign::resume`] are *not*
    /// re-journaled — the resumed file already holds their `done` records.
    /// Where set, it takes precedence over the journal of the pool the
    /// campaign runs on.
    pub journal: Option<Arc<JournalSink>>,
    /// Optional resume cache (a previous journal's `done` records indexed
    /// by content address). Cells found here are reconstructed without
    /// executing; because every aggregate is a pure function of the
    /// deterministic payload, a resumed report is byte-identical to an
    /// uninterrupted one. Where set, it takes precedence over the cache
    /// of the pool's journal.
    pub resume: Option<ResumeCache>,
}

/// The result of one (program, tool, seed) run — the unit the job pool
/// shards. The worker that ran it folds it into its share of the run's
/// cell ([`CellFold`]) and drops it; its run-log line, if any, goes to the
/// campaign's [`InOrder`] window.
struct RunRecord {
    failed: bool,
    manifested: Vec<String>,
    events: u64,
    sched_points: u64,
    injections: u64,
    elapsed: Duration,
    timed_out: bool,
    seed: u64,
    outcome_tag: String,
    /// Present only when the campaign runs with telemetry enabled.
    metrics: Option<RunMetrics>,
    /// Canonical Mazurkiewicz-trace fingerprint of the run (32 hex digits);
    /// computed whenever the campaign has somewhere to report it (telemetry
    /// or a journal), `None` on the bare fast path.
    fingerprint: Option<String>,
}

/// What a campaign records of one run's events: its telemetry, when the
/// campaign collects it, and its schedule fingerprint.
#[derive(Default)]
struct Recorder {
    telemetry: Option<TelemetrySink>,
    fingerprint: Fingerprinter,
}

impl EventSink for Recorder {
    fn on_event(&mut self, ev: &Event) {
        if let Some(t) = &mut self.telemetry {
            t.on_event(ev);
        }
        self.fingerprint.on_event(ev);
    }

    fn finish(&mut self) {
        if let Some(t) = &mut self.telemetry {
            t.finish();
        }
        self.fingerprint.finish();
    }
}

/// The backend tag a journal `done` record and a run-log record carry:
/// present only for a non-model backend.
fn native_tag(tool: &ToolConfig) -> Option<String> {
    tool.backend
        .is_native()
        .then(|| tool.backend.tag().to_string())
}

/// A campaign run travels in the `done` record's named payload fields,
/// which is why journals of every schema version resume.
impl CellCodec<RunRecord> for Campaign {
    fn save(&self, rec: &RunRecord, done: &mut CellDone) {
        done.outcome = rec.outcome_tag.clone();
        done.failed = rec.failed;
        done.manifested = rec.manifested.clone();
        done.events = rec.events;
        done.sched_points = rec.sched_points;
        done.injections = rec.injections;
        done.timed_out = rec.timed_out;
        done.wall_us = rec.elapsed.as_micros() as u64;
        done.metrics = rec.metrics.as_ref().map(|m| m.scalars);
        done.fingerprint = rec.fingerprint.clone();
    }

    /// A telemetry campaign re-runs a cell a metrics-less pass recorded,
    /// and a campaign without telemetry drops a cell's recorded metrics,
    /// so a run has metrics, and a run-log line, exactly when the campaign
    /// records telemetry.
    fn load(&self, done: &CellDone) -> Option<RunRecord> {
        if self.telemetry && done.metrics.is_none() {
            return None;
        }
        Some(RunRecord {
            failed: done.failed,
            manifested: done.manifested.clone(),
            events: done.events,
            sched_points: done.sched_points,
            injections: done.injections,
            elapsed: Duration::from_micros(done.wall_us),
            timed_out: done.timed_out,
            seed: done.seed,
            outcome_tag: done.outcome.clone(),
            metrics: done
                .metrics
                .filter(|_| self.telemetry)
                .map(|scalars| RunMetrics {
                    scalars,
                    ..RunMetrics::default()
                }),
            fingerprint: done.fingerprint.clone(),
        })
    }
}

/// What one worker has folded of one cell's runs. Every field merges with
/// an operation that gives the same result under any split of the runs
/// into shares and any merge order: sums, [`FindStats::merge`],
/// [`RunMetrics::merge`], and the minimum on run indices.
#[derive(Clone, Debug, Default, PartialEq)]
struct CellFold {
    any_bug: FindStats,
    per_bug: BTreeMap<String, FindStats>,
    events: u64,
    points: u64,
    injections: u64,
    wall: Duration,
    timed_out: u64,
    /// `(run, seed)` of the failing run with the smallest run index (the
    /// index, not the seed: seeds wrap around `u64::MAX`).
    first_fail: Option<(u64, u64)>,
    /// `(run, seed)` of the passing run with the smallest run index.
    first_pass: Option<(u64, u64)>,
    /// The runs' telemetry, merged.
    metrics: RunMetrics,
}

/// The smaller of two optional `(run, seed)` pairs, by run index.
fn first_run(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> Option<(u64, u64)> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

impl CellFold {
    /// An empty fold of a cell whose program documents the bugs `tags`.
    fn new(tags: Vec<&str>) -> Self {
        CellFold {
            per_bug: tags
                .into_iter()
                .map(|t| (t.to_string(), FindStats::default()))
                .collect(),
            ..CellFold::default()
        }
    }

    /// Fold in run `r` of the cell.
    fn add(&mut self, r: u64, rec: &RunRecord) {
        self.any_bug.record(rec.failed);
        let first = if rec.failed {
            &mut self.first_fail
        } else {
            &mut self.first_pass
        };
        *first = first_run(*first, Some((r, rec.seed)));
        for (tag, stats) in self.per_bug.iter_mut() {
            stats.record(rec.manifested.iter().any(|m| m == tag));
        }
        self.events += rec.events;
        self.points += rec.sched_points;
        self.injections += rec.injections;
        self.wall += rec.elapsed;
        self.timed_out += u64::from(rec.timed_out);
        if let Some(m) = &rec.metrics {
            self.metrics.merge(m);
        }
    }

    /// Fold in another share of the same cell.
    fn merge(&mut self, other: &CellFold) {
        self.any_bug.merge(&other.any_bug);
        for (tag, stats) in self.per_bug.iter_mut() {
            stats.merge(&other.per_bug[tag]);
        }
        self.events += other.events;
        self.points += other.points;
        self.injections += other.injections;
        self.wall += other.wall;
        self.timed_out += other.timed_out;
        self.first_fail = first_run(self.first_fail, other.first_fail);
        self.first_pass = first_run(self.first_pass, other.first_pass);
        self.metrics.merge(&other.metrics);
    }

    /// The cell's result over its `runs` runs, and its merged telemetry.
    fn finish(self, runs: u64) -> (CellResult, RunMetrics) {
        let n = runs.max(1) as f64;
        let cell = CellResult {
            any_bug: self.any_bug,
            per_bug: self.per_bug,
            avg_events: self.events as f64 / n,
            avg_points: self.points as f64 / n,
            avg_injections: self.injections as f64 / n,
            wall: self.wall,
            timed_out: self.timed_out,
            first_fail_seed: self.first_fail.map(|(_, seed)| seed),
            first_pass_seed: self.first_pass.map(|(_, seed)| seed),
        };
        (cell, self.metrics)
    }
}

/// One pool worker's share of a campaign: a [`CellFold`] per cell, in
/// (program, tool) order, and the outcome tags its run-log lines share.
struct CampaignShare {
    cells: Vec<CellFold>,
    outcomes: Vec<Arc<str>>,
}

impl CampaignShare {
    /// The shared copy of the outcome tag `tag`, made the first time this
    /// worker meets the tag.
    fn outcome(&mut self, tag: &str) -> Arc<str> {
        if let Some(shared) = self.outcomes.iter().find(|t| ***t == *tag) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = tag.into();
        self.outcomes.push(Arc::clone(&shared));
        shared
    }
}

/// Passes run-log lines on in run-index order as the runs finish: a line
/// waits here only while an earlier run is still executing, so the window
/// holds a few lines, not the campaign's.
struct InOrder<T, F> {
    /// Index of the next line to pass on.
    next: usize,
    /// Lines of later runs that finished first, at offset `i - next`.
    waiting: VecDeque<Option<T>>,
    emit: F,
}

impl<T, F: FnMut(T)> InOrder<T, F> {
    fn new(emit: F) -> Self {
        InOrder {
            next: 0,
            waiting: VecDeque::new(),
            emit,
        }
    }

    /// Take the line of run `i`, then pass on every line now due.
    fn push(&mut self, i: usize, line: T) {
        let slot = i
            .checked_sub(self.next)
            .expect("each run hands over one line");
        if slot >= self.waiting.len() {
            self.waiting.resize_with(slot + 1, || None);
        }
        self.waiting[slot] = Some(line);
        while let Some(line) = self.waiting.front_mut().and_then(Option::take) {
            self.waiting.pop_front();
            self.next += 1;
            (self.emit)(line);
        }
    }
}

/// The standard per-run step budget: every experiment gives a run this
/// many steps, so a run's outcome and fingerprint do not depend on which
/// experiment ran it.
pub const STANDARD_MAX_STEPS: u64 = 60_000;

/// The standard base seed: run `r` of a standard campaign's cell uses seed
/// `STANDARD_BASE_SEED + r`, and the experiments that share its runs use
/// the same ladder.
pub const STANDARD_BASE_SEED: u64 = 0x5eed;

impl Campaign {
    /// A campaign over the given programs with the standard tool roster,
    /// step budget ([`STANDARD_MAX_STEPS`]) and base seed
    /// ([`STANDARD_BASE_SEED`]).
    pub fn standard(programs: Vec<SuiteProgram>, runs: u64) -> Self {
        Campaign {
            programs,
            tools: ToolConfig::standard_roster(),
            runs,
            base_seed: STANDARD_BASE_SEED,
            max_steps: STANDARD_MAX_STEPS,
            jobs: 1,
            run_budget: None,
            progress: false,
            telemetry: false,
            label: "campaign".into(),
            journal: None,
            resume: None,
        }
    }

    /// Set the worker count (builder style).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Set the per-run wall-clock budget (builder style).
    pub fn with_run_budget(mut self, budget: Duration) -> Self {
        self.run_budget = Some(budget);
        self
    }

    /// Execute the whole grid on a pool built from this campaign's `jobs`
    /// and `progress` settings.
    pub fn run(&self) -> CampaignReport {
        let mut pool = JobPool::new(self.jobs);
        if self.progress {
            pool = pool.with_progress(self.label.clone());
        }
        self.run_on(&pool)
    }

    /// Execute the whole grid on an explicit pool. The rendered report is
    /// byte-identical for every pool size: run `r` of a cell always uses
    /// seed `base_seed + r`, and a cell's statistics merge the same way
    /// whichever worker folded which run.
    pub fn run_on(&self, pool: &JobPool) -> CampaignReport {
        self.run_full(pool).report
    }

    /// Execute the grid and keep everything: the report, the canonical-order
    /// run log (one [`RunLogRecord`] per run, empty unless `telemetry` is
    /// on), the merged per-cell [`RunMetrics`], wall-clock span timings of
    /// the campaign phases, and the pool's per-worker accounting.
    ///
    /// The run log is [`Campaign::run_streaming`]'s lines, collected into
    /// a vector reserved to the run count.
    pub fn run_full(&self, pool: &JobPool) -> CampaignRun {
        let lines = if self.telemetry { self.total_runs() } else { 0 };
        let mut run_log = Vec::with_capacity(lines);
        let mut run = self.run_streaming(pool, |line| run_log.push(line));
        run.run_log = run_log;
        run
    }

    /// Execute the grid like [`Campaign::run_full`], but hand each run-log
    /// line to `line` instead of keeping it: the returned `run_log` is
    /// empty.
    ///
    /// Each worker folds the runs it executes into its own share of every
    /// cell ([`CellFold`]), and the shares merge once at the end. A run's
    /// line goes to a small window behind one lock, which passes it on in
    /// (program, tool, run) order as soon as every earlier run has
    /// finished; `line` runs under that lock. So memory does not grow with
    /// the run count, the run log included. The lines' strings other than
    /// the fingerprint are built once per campaign, cell or outcome tag and
    /// shared.
    ///
    /// The campaign records its runs in the journal of `pool`, under its
    /// own `campaign` header (label, grid shape, base seed, telemetry), and
    /// resumes them from that journal's cache. Its own `journal` and
    /// `resume`, where set, take precedence over the pool's. A run is
    /// fingerprinted whenever the journal has a sink, so every `done`
    /// record carries its fingerprint.
    ///
    /// The report, run log and cell metrics are deterministic (pure
    /// functions of the seeds); the spans and pool stats are wall-clock and
    /// belong in segregated output only.
    pub fn run_streaming(
        &self,
        pool: &JobPool,
        line: impl FnMut(RunLogRecord) + Send,
    ) -> CampaignRun {
        let n_tools = self.tools.len();
        let n_runs = self.runs as usize;
        let total = self.total_runs();
        let spans = SpanSet::new();
        let pooled = pool.journal().cloned().unwrap_or_default();
        let journal = CellJournal {
            sink: self.journal.clone().or(pooled.sink),
            resume: self.resume.clone().or(pooled.resume),
            header: CampaignMeta {
                label: self.label.clone(),
                programs: self.programs.len() as u64,
                tools: n_tools as u64,
                runs: self.runs,
                base_seed: self.base_seed,
                telemetry: self.telemetry,
                ..CampaignMeta::default()
            },
        };
        let record = self.telemetry || journal.sink.is_some();
        let journaled = journal.sink.is_some() || journal.resume.is_some();
        let pool = pool.clone().recording(journaled.then_some(journal));
        // The strings of the run-log lines, built once per campaign and
        // per program and tool: every line of a cell shares them. Each
        // tool's canonical spec also goes into every cell key.
        let experiment: Arc<str> = self.label.as_str().into();
        let program_names: Vec<Arc<str>> = self.programs.iter().map(|p| p.name.into()).collect();
        let tool_names: Vec<Arc<str>> = self.tools.iter().map(|t| t.name.as_str().into()).collect();
        let specs: Vec<Arc<str>> = self.tools.iter().map(|t| t.spec_string().into()).collect();
        let backends: Vec<Option<Arc<str>>> = self
            .tools
            .iter()
            .map(|t| native_tag(t).map(Into::into))
            .collect();
        // Grid index `i` → (program, tool, run) indices.
        let coords = |i: usize| (i / (n_runs * n_tools), (i / n_runs) % n_tools, i % n_runs);
        let key = |i| {
            let (p, t, r) = coords(i);
            CellDone {
                program: self.programs[p].name.to_string(),
                tool: self.tools[t].name.clone(),
                tool_spec: specs[t].to_string(),
                seed: self.base_seed.wrapping_add(r as u64),
                run: r as u64,
                backend: native_tag(&self.tools[t]),
                ..CellDone::default()
            }
        };

        // A worker's share: one fold per cell, its bug tags filled in once.
        let share = || CampaignShare {
            cells: self
                .programs
                .iter()
                .flat_map(|prog| {
                    self.tools
                        .iter()
                        .map(move |_| CellFold::new(prog.bug_tags()))
                })
                .collect(),
            outcomes: Vec::new(),
        };
        let window = Mutex::new(InOrder::new(line));
        let execute = spans.enter("campaign.execute");
        let (shares, pool_stats) = pool.cells_with(
            self,
            total,
            key,
            |i| {
                let (p, t, r) = coords(i);
                self.one_run(&self.programs[p], &self.tools[t], r as u64, record)
            },
            share,
            |share, i, mut rec| {
                let (p, t, r) = coords(i);
                share.cells[i / n_runs].add(r as u64, &rec);
                if let Some(metrics) = rec.metrics.take() {
                    let line = RunLogRecord {
                        experiment: Arc::clone(&experiment),
                        program: Arc::clone(&program_names[p]),
                        tool: Arc::clone(&tool_names[t]),
                        tool_spec: Arc::clone(&specs[t]),
                        run: r as u64,
                        seed: rec.seed,
                        outcome: share.outcome(&rec.outcome_tag),
                        failed: rec.failed,
                        backend: backends[t].clone(),
                        fingerprint: rec.fingerprint,
                        metrics: metrics.scalars,
                    };
                    window
                        .lock()
                        .expect("a worker panicked passing on a run-log line")
                        .push(i, line);
                }
            },
        );
        drop(execute);
        let window = window
            .into_inner()
            .expect("a worker panicked passing on a run-log line");
        assert!(
            window.waiting.is_empty(),
            "every run-log line was passed on"
        );

        let _aggregate = spans.enter("campaign.aggregate");
        let mut shares = shares.into_iter();
        let mut merged = shares.next().expect("the pool returns at least one share");
        for share in shares {
            for (cell, other) in merged.cells.iter_mut().zip(&share.cells) {
                cell.merge(other);
            }
        }
        let mut cells = BTreeMap::new();
        let mut cell_metrics = BTreeMap::new();
        for (c, fold) in merged.cells.into_iter().enumerate() {
            let key = (
                self.programs[c / n_tools].name.to_string(),
                self.tools[c % n_tools].name.clone(),
            );
            let (cell, metrics) = fold.finish(self.runs);
            if self.telemetry {
                cell_metrics.insert(key.clone(), metrics);
            }
            cells.insert(key, cell);
        }
        drop(_aggregate);
        CampaignRun {
            report: CampaignReport { cells },
            run_log: Vec::new(),
            cell_metrics,
            pool_stats,
            span_events: spans.events(),
            spans: spans.timings(),
        }
    }

    /// Runs in the grid: programs × tools × runs per cell.
    fn total_runs(&self) -> usize {
        self.programs.len() * self.tools.len() * self.runs as usize
    }

    /// One seeded run: the sharding unit. Deterministic given
    /// (program, tool, r) — the executing thread contributes nothing.
    /// `record` says whether the run has a consumer for its telemetry or
    /// fingerprint: the NDJSON run log or the flight-recorder journal.
    fn one_run(&self, prog: &SuiteProgram, tool: &ToolConfig, r: u64, record: bool) -> RunRecord {
        let seed = self.base_seed.wrapping_add(r);
        let started = Instant::now();
        let mut exec = tool.configure(Execution::new(&prog.program), seed, self.max_steps);
        if tool.backend.is_native() {
            // A native run can genuinely hang, so the campaign's per-run
            // budget becomes a hard wall-clock watchdog (the native engine
            // applies its own default when no budget is set).
            if let Some(budget) = self.run_budget {
                exec = exec.wall_budget(budget);
            }
        }
        // Telemetry and the schedule fingerprint ride on one sink behind one
        // lock. The bare fast path (no telemetry, no journal) keeps paying
        // nothing for the event layer.
        let recorder = if record {
            let (half, handle) = mtt_instrument::shared(Recorder {
                telemetry: self.telemetry.then(TelemetrySink::new),
                fingerprint: Fingerprinter::new(),
            });
            exec = exec.sink(Box::new(half));
            Some(handle)
        } else {
            None
        };
        let outcome = exec.run();
        let verdict = prog.judge(&outcome);
        let elapsed = started.elapsed();
        let (metrics, fingerprint) = recorder.map_or((None, None), |handle| {
            let rec = std::mem::take(&mut *handle.lock().expect("recorder sink poisoned"));
            let metrics = rec.telemetry.map(|sink| {
                let mut m = sink.into_metrics();
                m.absorb_stats(&outcome.stats);
                m
            });
            (metrics, Some(rec.fingerprint.fingerprint().to_hex()))
        });
        RunRecord {
            failed: verdict.failed(),
            manifested: verdict.manifested.iter().map(|m| m.to_string()).collect(),
            events: outcome.stats.events,
            sched_points: outcome.stats.sched_points,
            injections: outcome.stats.noise_injections,
            elapsed,
            timed_out: self.run_budget.is_some_and(|b| elapsed > b),
            seed,
            outcome_tag: outcome.kind.tag().to_string(),
            metrics,
            fingerprint,
        }
    }

    /// Persist a causally annotated NDJSON trace for every bug-finding cell
    /// of `report` into `dir` (created if missing): each cell that found a
    /// bug gets `<program>--<tool>.ndjson` regenerated from its first
    /// failing seed. Returns the written paths in canonical cell order.
    pub fn persist_annotated(
        &self,
        report: &CampaignReport,
        dir: &Path,
    ) -> Result<Vec<String>, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut written = Vec::new();
        for ((prog_name, tool_name), cell) in &report.cells {
            let Some(seed) = cell.first_fail_seed else {
                continue;
            };
            let (Some(prog), Some(tool)) = (
                self.programs.iter().find(|p| p.name == *prog_name),
                self.tools.iter().find(|t| t.name == *tool_name),
            ) else {
                continue;
            };
            let trace = crate::tracegen::generate_with(prog, tool, seed, self.max_steps);
            let ann = mtt_causal::annotate_trace(&trace);
            let path = dir.join(format!(
                "{}--{}.ndjson",
                prog_name,
                tool_name.replace(['/', '@'], "_")
            ));
            let file = std::fs::File::create(&path)
                .map_err(|e| format!("create {}: {e}", path.display()))?;
            let mut w = std::io::BufWriter::new(file);
            mtt_causal::write_annotated(&trace, &ann, &mut w)
                .and_then(|()| std::io::Write::flush(&mut w))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            written.push(path.display().to_string());
        }
        Ok(written)
    }
}

/// Results of a campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Cell results keyed by (program, tool).
    pub cells: BTreeMap<(String, String), CellResult>,
}

/// Everything [`Campaign::run_full`] produces beyond the report.
pub struct CampaignRun {
    /// The find-probability report (deterministic).
    pub report: CampaignReport,
    /// One record per run in canonical (program, tool, run) order; empty
    /// unless [`Campaign::run_full`] ran with `telemetry` on
    /// ([`Campaign::run_streaming`] passes the records on instead).
    /// Deterministic.
    pub run_log: Vec<RunLogRecord>,
    /// Per-cell telemetry, merged across the cell's runs; empty unless the
    /// campaign ran with `telemetry` on. Deterministic.
    pub cell_metrics: BTreeMap<(String, String), RunMetrics>,
    /// Per-worker wall-clock accounting of the pool (not deterministic).
    pub pool_stats: PoolStats,
    /// Individual phase intervals on the campaign's span clock — the
    /// chrome-trace "phases" track (not deterministic).
    pub span_events: Vec<SpanEvent>,
    /// Wall-clock span timings of the campaign phases (not deterministic).
    pub spans: SpanTimings,
}

impl CampaignReport {
    /// Look up one cell.
    pub fn cell(&self, program: &str, tool: &str) -> Option<&CellResult> {
        self.cells.get(&(program.to_string(), tool.to_string()))
    }

    /// Render the find-probability grid (Table E1).
    ///
    /// Deliberately contains no wall-clock column: every cell is a pure
    /// function of (program, tool, seeds), so this table is byte-identical
    /// whatever `--jobs` produced it. Wall time is printed by
    /// `mtt profile --timing` and kept in the journal's `wall_us`.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E1: bug-find probability per noise heuristic (95% Wilson CI)",
            &[
                "program",
                "tool",
                "P(find any bug)",
                "avg events/run",
                "avg injections/run",
                "timeouts",
            ],
        );
        for ((prog, tool), cell) in &self.cells {
            t.row(&[
                prog.clone(),
                tool.clone(),
                cell.any_bug.render(),
                format!("{:.0}", cell.avg_events),
                format!("{:.1}", cell.avg_injections),
                cell.timed_out.to_string(),
            ]);
        }
        t
    }

    /// Render the per-bug breakdown for one program.
    pub fn per_bug_table(&self, program: &str) -> Table {
        let mut t = Table::new(
            format!("E1 detail: per-bug find probability — {program}"),
            &["tool", "bug", "P(find)"],
        );
        for ((prog, tool), cell) in &self.cells {
            if prog != program {
                continue;
            }
            for (bug, stats) in &cell.per_bug {
                t.row(&[tool.clone(), bug.clone(), stats.render()]);
            }
        }
        t
    }

    /// The tools ranked by mean find-rate across programs (best first).
    pub fn ranking(&self) -> Vec<(String, f64)> {
        let mut sums: BTreeMap<String, (f64, u32)> = BTreeMap::new();
        for ((_, tool), cell) in &self.cells {
            let e = sums.entry(tool.clone()).or_insert((0.0, 0));
            e.0 += cell.any_bug.rate();
            e.1 += 1;
        }
        let mut v: Vec<(String, f64)> = sums
            .into_iter()
            .map(|(t, (s, n))| (t, s / f64::from(n.max(1))))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_runs_and_ranks() {
        let programs = vec![mtt_suite::small::lost_update(2, 2)];
        let campaign = Campaign {
            programs,
            tools: vec![
                ToolConfig::baseline(),
                ToolConfig::from_spec_str("sticky:0.9+noise=sleep:0.3:20+name=sleep-0.3").unwrap(),
            ],
            runs: 40,
            base_seed: 7,
            max_steps: 20_000,
            ..Campaign::standard(vec![], 0)
        };
        let report = campaign.run();
        assert_eq!(report.cells.len(), 2);
        let base = report.cell("lost_update", "none").unwrap();
        let noisy = report.cell("lost_update", "sleep-0.3").unwrap();
        assert_eq!(base.any_bug.runs, 40);
        // The headline shape claim: noise increases the find probability on
        // a sticky (realistic) scheduler.
        assert!(
            noisy.any_bug.rate() > base.any_bug.rate(),
            "noise {} <= baseline {}",
            noisy.any_bug.rate(),
            base.any_bug.rate()
        );
        assert!(noisy.avg_injections > 0.0);
        let ranking = report.ranking();
        assert_eq!(ranking[0].0, "sleep-0.3");
        // Tables render.
        assert_eq!(report.table().len(), 2);
        assert!(!report.per_bug_table("lost_update").is_empty());
    }

    #[test]
    fn parallel_campaign_matches_serial_bytes() {
        let mk = |jobs: usize| {
            Campaign {
                programs: vec![
                    mtt_suite::small::lost_update(2, 2),
                    mtt_suite::small::ab_ba(),
                ],
                tools: vec![ToolConfig::baseline(), ToolConfig::with_spurious(0.05)],
                runs: 10,
                base_seed: 21,
                max_steps: 20_000,
                ..Campaign::standard(vec![], 0)
            }
            .with_jobs(jobs)
            .run()
        };
        let serial = mk(1);
        let par = mk(4);
        assert_eq!(serial.table().render(), par.table().render());
        assert_eq!(serial.table().to_csv(), par.table().to_csv());
        assert_eq!(
            serial.per_bug_table("ab_ba").render(),
            par.per_bug_table("ab_ba").render()
        );
    }

    #[test]
    fn run_budget_marks_cells_instead_of_hanging() {
        let campaign = Campaign {
            programs: vec![mtt_suite::small::lost_update(2, 2)],
            tools: vec![ToolConfig::baseline()],
            runs: 5,
            base_seed: 1,
            max_steps: 20_000,
            ..Campaign::standard(vec![], 0)
        }
        .with_run_budget(Duration::ZERO);
        let report = campaign.run();
        let cell = report.cell("lost_update", "none").unwrap();
        // A zero budget flags every run as over budget, but the campaign
        // still completes with full statistics.
        assert_eq!(cell.timed_out, 5);
        assert_eq!(cell.any_bug.runs, 5);
        assert!(report.table().render().contains("timeouts"));
    }

    #[test]
    fn standard_roster_is_complete() {
        let roster = ToolConfig::standard_roster();
        assert!(roster.len() >= 10);
        assert_eq!(roster[0].name, "none");
        assert!(roster.iter().any(|t| t.name.starts_with("spurious")));
        assert!(roster.iter().any(|t| t.name.starts_with("pct")));
    }

    #[test]
    fn annotated_trace_reproduces_counted_run() {
        let campaign = Campaign {
            programs: vec![mtt_suite::small::lost_update(2, 2)],
            tools: vec![ToolConfig::baseline()],
            runs: 30,
            base_seed: 7,
            max_steps: 20_000,
            ..Campaign::standard(vec![], 0)
        };
        let report = campaign.run();
        let cell = report.cell("lost_update", "none").unwrap();
        let fail = cell.first_fail_seed.expect("30 runs should hit the bug");
        // Regenerating the first failing run must reproduce the failure the
        // grid counted: the trace's oracle verdict says the bug manifested.
        let regenerate = |seed| {
            crate::tracegen::generate_with(
                &campaign.programs[0],
                &campaign.tools[0],
                seed,
                campaign.max_steps,
            )
        };
        let trace = regenerate(fail);
        assert_eq!(trace.meta.manifested_bugs, vec!["lost-update"]);
        assert_eq!(trace.meta.seed, fail);
        assert_eq!(trace.meta.scheduler, "none");
        if let Some(pass) = cell.first_pass_seed {
            let t = regenerate(pass);
            assert!(t.meta.manifested_bugs.is_empty(), "pass seed reproduced");
        }
        // Persisting writes one schema-valid file per bug-finding cell.
        let dir = std::env::temp_dir().join(format!("mtt-annot-{}", std::process::id()));
        let written = campaign.persist_annotated(&report, &dir).unwrap();
        assert_eq!(written.len(), 1);
        let text = std::fs::read_to_string(&written[0]).unwrap();
        mtt_causal::check_annotated(&text).expect("persisted trace schema-valid");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A journal the test can read back while the sink owns its writer.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The run log `campaign` streams on a pool of `jobs` workers, as
    /// `mtt --metrics` writes it.
    fn streamed_log(campaign: &Campaign, jobs: usize) -> Vec<u8> {
        let mut w = mtt_telemetry::RunLogWriter::new(Vec::new());
        let run = campaign.run_streaming(&JobPool::new(jobs), |line| {
            w.write_record(&line).unwrap();
        });
        assert!(run.run_log.is_empty(), "streamed lines are not kept");
        w.into_inner().unwrap()
    }

    /// A telemetry campaign over two programs and two tools, `runs` runs
    /// per cell.
    fn telemetry_campaign(runs: u64, tools: Vec<ToolConfig>) -> Campaign {
        Campaign {
            programs: vec![
                mtt_suite::small::lost_update(2, 2),
                mtt_suite::small::ab_ba(),
            ],
            tools,
            runs,
            base_seed: 21,
            max_steps: 20_000,
            telemetry: true,
            label: "stream-test".into(),
            ..Campaign::standard(vec![], 0)
        }
    }

    #[test]
    fn window_passes_each_line_on_once_every_earlier_one_has_arrived() {
        let orders: [[usize; 6]; 4] = [
            [0, 1, 2, 3, 4, 5],
            [5, 4, 3, 2, 1, 0],
            [1, 0, 3, 2, 5, 4],
            [2, 5, 0, 4, 1, 3],
        ];
        for order in orders {
            let mut out = Vec::new();
            let mut window = InOrder::new(|line| out.push(line));
            let mut arrived = [false; 6];
            for i in order {
                window.push(i, i * 10);
                arrived[i] = true;
                let due = arrived.iter().take_while(|&&a| a).count();
                let held = arrived.iter().filter(|&&a| a).count() - due;
                assert_eq!(window.next, due, "{order:?}: passed on as soon as due");
                assert_eq!(window.waiting.iter().flatten().count(), held, "{order:?}");
            }
            assert!(window.waiting.is_empty());
            drop(window);
            assert_eq!(out, [0, 10, 20, 30, 40, 50], "{order:?}");
        }
    }

    #[test]
    fn run_log_lines_arrive_in_index_order_when_later_runs_finish_first() {
        // Run 0 of every cell starts late: its scheduler factory sleeps on
        // the campaign's base seed, so with several workers later runs of
        // the cell finish first.
        let slow_first = |tool: ToolConfig| {
            let inner = Arc::clone(&tool.scheduler);
            ToolConfig {
                scheduler: Arc::new(move |seed| {
                    if seed == 21 {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    inner(seed)
                }),
                ..tool
            }
        };
        let tools = vec![ToolConfig::baseline(), ToolConfig::with_spurious(0.05)];
        let campaign = telemetry_campaign(8, tools.into_iter().map(slow_first).collect());
        let mut want = Vec::new();
        for program in ["lost_update", "ab_ba"] {
            for tool in ["none", "spurious-0.05"] {
                want.extend((0..8).map(|r| (program, tool, r)));
            }
        }
        let serial = campaign.run_full(&JobPool::serial()).run_log;
        for jobs in [1, 2, 4, 8] {
            let mut arrived = Vec::new();
            campaign.run_streaming(&JobPool::new(jobs), |line| arrived.push(line));
            let order: Vec<(&str, &str, u64)> = arrived
                .iter()
                .map(|l| (&*l.program, &*l.tool, l.run))
                .collect();
            assert_eq!(order, want, "jobs={jobs}");
            assert_eq!(arrived, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn resumed_telemetry_campaign_streams_the_bytes_of_an_uninterrupted_one() {
        let mk = || {
            telemetry_campaign(
                6,
                vec![ToolConfig::baseline(), ToolConfig::with_spurious(0.05)],
            )
        };
        let uninterrupted = streamed_log(&mk(), 1);
        assert_eq!(uninterrupted.iter().filter(|&&b| b == b'\n').count(), 24);
        // A journaled pass at two workers; a killed one would have left the
        // first `kept` of its `done` records.
        let buf = SharedBuf::default();
        let mut first = mk();
        first.journal = Some(Arc::new(JournalSink::from_writer(buf.clone())));
        assert_eq!(streamed_log(&first, 2), uninterrupted);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let records = mtt_obs::parse_journal(&text)
            .expect("journal parses")
            .records;
        for (jobs, kept) in [(1, 3), (2, 11), (4, 17), (8, 23)] {
            let done: Vec<_> = records
                .iter()
                .filter(|r| r.kind() == "done")
                .take(kept)
                .cloned()
                .collect();
            let mut resumed = mk();
            resumed.resume = Some(ResumeCache::from_records(&done));
            assert_eq!(
                streamed_log(&resumed, jobs),
                uninterrupted,
                "{kept} cells cached, jobs={jobs}"
            );
        }
    }

    #[test]
    fn campaign_without_telemetry_resumes_a_telemetry_journal_with_gaps() {
        // The journal holds runs 0..3 of each cell with their metrics; the
        // resumed campaign has 6 runs per cell and no telemetry, so cached
        // and executed runs interleave in every cell.
        let buf = SharedBuf::default();
        let mut first = telemetry_campaign(
            3,
            vec![ToolConfig::baseline(), ToolConfig::with_spurious(0.05)],
        );
        first.journal = Some(Arc::new(JournalSink::from_writer(buf.clone())));
        first.run_full(&JobPool::serial());
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let records = mtt_obs::parse_journal(&text)
            .expect("journal parses")
            .records;
        let bare = || Campaign {
            runs: 6,
            telemetry: false,
            ..telemetry_campaign(
                0,
                vec![ToolConfig::baseline(), ToolConfig::with_spurious(0.05)],
            )
        };
        let want = bare().run_full(&JobPool::serial()).report.table().to_csv();
        for jobs in [1, 2] {
            let mut resumed = bare();
            resumed.resume = Some(ResumeCache::from_records(&records));
            let run = resumed.run_full(&JobPool::new(jobs));
            assert!(run.run_log.is_empty(), "jobs={jobs}: no run-log lines");
            assert!(run.cell_metrics.is_empty(), "jobs={jobs}: no cell metrics");
            assert_eq!(run.report.table().to_csv(), want, "jobs={jobs}");
            assert_eq!(streamed_log(&resumed, jobs), b"", "jobs={jobs}");
        }
    }

    #[test]
    fn resumed_campaign_replays_from_the_journal_byte_for_byte() {
        let mk = || Campaign {
            programs: vec![
                mtt_suite::small::lost_update(2, 2),
                mtt_suite::small::ab_ba(),
            ],
            tools: vec![ToolConfig::baseline(), ToolConfig::with_spurious(0.05)],
            runs: 6,
            base_seed: 21,
            max_steps: 20_000,
            telemetry: true,
            label: "resume-test".into(),
            ..Campaign::standard(vec![], 0)
        };

        // First pass: execute everything, journaling each cell.
        let buf = SharedBuf::default();
        let mut first = mk();
        first.journal = Some(Arc::new(JournalSink::from_writer(buf.clone())));
        let pool = JobPool::serial();
        let original = first.run_full(&pool);

        // Second pass: the whole grid is in the cache, so nothing executes
        // and the output is reconstructed from the journal alone.
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let parsed = mtt_obs::parse_journal(&text).expect("journal parses");
        let cache = ResumeCache::from_records(&parsed.records);
        assert_eq!(cache.len(), 2 * 2 * 6, "every cell cached");
        let tail = SharedBuf::default();
        let mut second = mk();
        second.journal = Some(Arc::new(JournalSink::from_writer(tail.clone())));
        second.resume = Some(cache);
        let resumed = second.run_full(&pool);

        assert_eq!(
            original.report.table().render(),
            resumed.report.table().render()
        );
        assert_eq!(
            original.report.table().to_csv(),
            resumed.report.table().to_csv()
        );
        // The deterministic run log (no wall fields) matches byte for byte.
        let dump = |records: &[RunLogRecord]| {
            let mut w = mtt_telemetry::RunLogWriter::new(Vec::new());
            for r in records {
                w.write_record(r).unwrap();
            }
            w.into_inner().unwrap()
        };
        assert_eq!(dump(&original.run_log), dump(&resumed.run_log));
        // The resumed process executed zero cells — its `end` record says so.
        let tail_text = String::from_utf8(tail.0.lock().unwrap().clone()).unwrap();
        let tail_parsed = mtt_obs::parse_journal(&tail_text).expect("tail journal parses");
        let ended: Vec<_> = tail_parsed
            .records
            .iter()
            .filter_map(|r| match r {
                mtt_obs::JournalRecord::End(e) => Some(e.completed),
                _ => None,
            })
            .collect();
        assert_eq!(ended, vec![0], "full cache hit executes nothing");
    }

    #[test]
    fn campaign_records_in_the_journal_of_its_pool_and_resumes_from_it() {
        use mtt_obs::JournalRecord;
        let campaign = Campaign {
            programs: vec![
                mtt_suite::small::lost_update(2, 2),
                mtt_suite::small::ab_ba(),
            ],
            tools: vec![ToolConfig::baseline(), ToolConfig::with_spurious(0.05)],
            runs: 3,
            base_seed: 21,
            max_steps: 20_000,
            label: "pool-journal".into(),
            ..Campaign::standard(vec![], 0)
        };
        // Run the campaign on a pool of `jobs` workers whose journal goes
        // to a fresh buffer and resumes from `resume`; return the report
        // and the journal's records.
        let on_pool = |jobs: usize, resume: Option<ResumeCache>| {
            let buf = SharedBuf::default();
            let pool = JobPool::new(jobs).recording(Some(CellJournal {
                sink: Some(Arc::new(JournalSink::from_writer(buf.clone()))),
                resume,
                header: CampaignMeta {
                    label: "pool-journal".into(),
                    ..CampaignMeta::default()
                },
            }));
            let csv = campaign.run_on(&pool).table().to_csv();
            let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
            let records = mtt_obs::parse_journal(&text)
                .expect("journal parses")
                .records;
            (csv, records)
        };
        let count = |records: &[JournalRecord], kind: &str| {
            records.iter().filter(|r| r.kind() == kind).count()
        };
        let end = |records: &[JournalRecord]| match records.last() {
            Some(JournalRecord::End(end)) => end.completed,
            other => panic!("the journal ends with its end marker, not {other:?}"),
        };
        let want = campaign.run_on(&JobPool::serial()).table().to_csv();
        for jobs in [1, 2, 4] {
            let (csv, records) = on_pool(jobs, None);
            assert_eq!(csv, want, "jobs={jobs}");
            let Some(JournalRecord::Campaign(header)) = records.first() else {
                panic!("jobs={jobs}: the journal starts with the campaign's header");
            };
            assert_eq!(
                (header.label.as_str(), header.programs, header.tools),
                ("pool-journal", 2, 2),
                "jobs={jobs}"
            );
            assert_eq!(
                (header.runs, header.base_seed, header.total_cells),
                (3, 21, 12),
                "jobs={jobs}"
            );
            assert_eq!(count(&records, "campaign"), 1, "jobs={jobs}");
            assert_eq!(count(&records, "start"), 12, "jobs={jobs}");
            assert_eq!(count(&records, "done"), 12, "jobs={jobs}");
            for r in &records {
                if let JournalRecord::Done(done) = r {
                    let fingerprint = done.fingerprint.as_deref().unwrap_or_default();
                    assert_eq!(fingerprint.len(), 32, "jobs={jobs}: {done:?}");
                }
            }
            assert_eq!(end(&records), 12, "jobs={jobs}");

            // Resumed from that journal, the campaign runs nothing and
            // reports the same.
            let (resumed, tail) = on_pool(jobs, Some(ResumeCache::from_records(&records)));
            assert_eq!(resumed, want, "jobs={jobs}");
            assert_eq!(count(&tail, "start"), 0, "jobs={jobs}");
            assert_eq!(count(&tail, "done"), 0, "jobs={jobs}");
            assert_eq!(end(&tail), 0, "jobs={jobs}");
        }
    }

    proptest::proptest! {
        /// However a cell's runs are split into shares and in whatever
        /// order the shares merge, the merged fold equals the serial one,
        /// first failing and passing seeds included, also when the seeds
        /// wrap around `u64::MAX`.
        #[test]
        fn shares_merge_to_the_serial_fold(
            base_seed in (u64::MAX - 24)..=u64::MAX,
            runs in proptest::collection::vec((0u8..8, 0u64..500, 0u64..2_000, 0u64..100), 1..40),
            split in proptest::collection::vec(0usize..4, 40),
            merge_keys in proptest::collection::vec(0u64..1_000, 4),
        ) {
            use proptest::prelude::*;
            const TAGS: [&str; 3] = ["deadlock", "lost-update", "missed-signal"];
            // The shares merge in the order of their random keys.
            let mut order = [0usize, 1, 2, 3];
            order.sort_by_key(|&s| merge_keys[s]);
            let records: Vec<RunRecord> = runs
                .iter()
                .enumerate()
                .map(|(r, &(bits, events, micros, first_bug))| RunRecord {
                    failed: bits & 0b11 != 0,
                    manifested: TAGS
                        .iter()
                        .enumerate()
                        .filter(|&(t, _)| bits & (1 << t) != 0)
                        .map(|(_, tag)| tag.to_string())
                        .collect(),
                    events,
                    sched_points: events / 2,
                    injections: events % 7,
                    elapsed: Duration::from_micros(micros),
                    timed_out: bits & 0b100 != 0,
                    seed: base_seed.wrapping_add(r as u64),
                    outcome_tag: "completed".into(),
                    metrics: (bits & 0b10 != 0).then(|| {
                        let mut m = RunMetrics::default();
                        m.scalars.events = events;
                        m.scalars.steps_to_first_bug = (first_bug < 90).then_some(first_bug);
                        m.by_class[(events % 8) as usize] = 1;
                        m.sites.insert(mtt_instrument::Loc::new("prop", (events % 5) as u32).key(), 1);
                        m
                    }),
                    fingerprint: None,
                })
                .collect();
            let mut serial = CellFold::new(TAGS.to_vec());
            for (r, rec) in records.iter().enumerate() {
                serial.add(r as u64, rec);
            }
            let mut shares = vec![CellFold::new(TAGS.to_vec()); 4];
            for (r, rec) in records.iter().enumerate() {
                shares[split[r]].add(r as u64, rec);
            }
            let mut merged = shares[order[0]].clone();
            for &s in &order[1..] {
                merged.merge(&shares[s]);
            }
            prop_assert_eq!(&merged, &serial);
            let (cell, metrics) = merged.finish(records.len() as u64);
            let first = |failed: bool| {
                records
                    .iter()
                    .position(|rec| rec.failed == failed)
                    .map(|r| base_seed.wrapping_add(r as u64))
            };
            prop_assert_eq!(cell.first_fail_seed, first(true));
            prop_assert_eq!(cell.first_pass_seed, first(false));
            prop_assert_eq!(cell.any_bug.runs, records.len() as u64);
            prop_assert_eq!(metrics, serial.finish(records.len() as u64).1);
        }
    }

    #[test]
    fn spurious_config_targets_unguarded_waits() {
        let programs = vec![mtt_suite::small::unguarded_wait()];
        let campaign = Campaign {
            programs,
            tools: vec![ToolConfig::baseline(), ToolConfig::with_spurious(0.08)],
            runs: 50,
            base_seed: 3,
            max_steps: 20_000,
            ..Campaign::standard(vec![], 0)
        };
        let report = campaign.run();
        let base = report.cell("unguarded_wait", "none").unwrap();
        let spur = report.cell("unguarded_wait", "spurious-0.08").unwrap();
        assert!(
            spur.any_bug.rate() > base.any_bug.rate(),
            "spurious {} should beat baseline {}",
            spur.any_bug.rate(),
            base.any_bug.rate()
        );
    }
}
