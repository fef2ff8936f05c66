//! The parallel execution layer for the prepared experiments.
//!
//! Every prepared experiment is, at heart, a run matrix — (program × tool
//! configuration × seed) — whose entries are *independent, deterministic
//! functions of their index*: the seed, not the thread that happens to
//! execute the run, defines the execution. That makes the matrix
//! embarrassingly parallel, and it makes a strong guarantee cheap to keep:
//! a report produced with `N` workers is **byte-identical** to the serial
//! one, whichever worker finished which run first.
//!
//! [`JobPool`] is that layer: scoped `std::thread` workers (no external
//! dependencies) draining a shared bag of job indices. An idle worker
//! steals the next unclaimed index with one atomic `fetch_add`, so a slow
//! cell never serializes the tail the way static per-worker chunking
//! would — the work-stealing degenerate case where the bag is the one
//! victim everybody steals from, which is exactly right for homogeneous
//! run matrices.
//!
//! Its one primitive is [`JobPool::fold`]: each worker folds the indices it
//! claims into a share of its own, with no lock between workers, and the
//! pool hands back the shares. [`JobPool::run`] and [`JobPool::cells`] keep
//! each result with its index and place it there at the end; a campaign
//! folds its runs into per-cell statistics that merge the same under any
//! split, so its memory does not grow with the run count.
//!
//! The pool also owns campaign observability: an optional progress meter
//! that keeps a `runs/sec` + ETA line updated in place on stderr, and —
//! via [`JobPool::run_with_stats`] — a per-worker utilization table
//! ([`PoolStats`]) telling you how evenly the bag drained. The meter is a
//! Drop guard: a worker panic or an early unwind clears the in-place line
//! and joins the ticker thread instead of leaving a partial line and a
//! leaked thread behind.
//!
//! Finally the pool is the one driver of the flight-recorder journal:
//! [`JobPool::cells`] runs an experiment's cells, writes a content-addressed
//! `start`/`done` record per cell into the pool's [`CellJournal`], and
//! rebuilds the cells a previous journal already holds instead of running
//! them, which is how every journaled command resumes. A campaign records
//! its runs in the journal of the pool it runs on, under its own header.
//! So a pool is the one place where an experiment's workers, progress
//! line, timeline and journal are set.

use mtt_json::{FromJson, Json, ToJson};
use mtt_obs::{content_address, CampaignMeta, CellDone, CellStart, JournalSink, ResumeCache};
use mtt_runtime::RUNTIME_VERSION;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A pool of `jobs` workers over an indexed job space.
///
/// `jobs == 1` runs the same per-job loop inline on the calling thread (no
/// spawn overhead), which is also the reference order the parallel path
/// must reproduce.
#[derive(Clone, Default)]
pub struct JobPool {
    jobs: usize,
    progress: Option<String>,
    timeline: bool,
    journal: Option<Arc<CellJournal>>,
}

impl std::fmt::Debug for JobPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPool")
            .field("jobs", &self.jobs)
            .field("progress", &self.progress)
            .field("timeline", &self.timeline)
            .field("journal", &self.journal.as_ref().map(|j| &j.header.label))
            .finish()
    }
}

/// The flight-recorder journal a pool records its cells in, and the cache
/// of a previous journal they resume from. Either half may be absent.
#[derive(Clone, Debug, Default)]
pub struct CellJournal {
    /// Where the header, the `start`/`done` records and the `end` marker go.
    pub sink: Option<Arc<JournalSink>>,
    /// A previous journal's completed cells, by content address.
    pub resume: Option<ResumeCache>,
    /// The `campaign` header; [`JobPool::cells`] fills in `total_cells`,
    /// `jobs` and `runtime`. A campaign run on the pool writes its own
    /// header instead.
    pub header: CampaignMeta,
}

/// How a cell's result goes into its `done` record, and back out of a
/// cached one.
pub(crate) trait CellCodec<T>: Sync {
    /// Write `out` into `done`, whose key fields are already filled.
    fn save(&self, out: &T, done: &mut CellDone);
    /// The result a cached `done` holds, or `None` when it cannot stand in
    /// for running the cell.
    fn load(&self, done: &CellDone) -> Option<T>;
}

/// The codec of a cell whose result has a JSON form: it travels in the
/// `done` record's `result` field, as the tree its printed text parses to
/// (a result whose text does not parse back is not cached).
struct JsonCell;

impl<T: ToJson + FromJson> CellCodec<T> for JsonCell {
    fn save(&self, out: &T, done: &mut CellDone) {
        done.result = Json::parse(&mtt_json::to_string(out)).ok();
    }

    fn load(&self, done: &CellDone) -> Option<T> {
        T::from_json(done.result.as_ref()?).ok()
    }
}

/// The key of a cell that is not a campaign run: it ran `program` under
/// `tool` from `seed`, and `spec` names everything else its result depends
/// on (tool spec, run count, budget), so that the content address does too.
pub fn cell_key(program: &str, tool: &str, spec: String, seed: u64) -> CellDone {
    CellDone {
        program: program.to_string(),
        tool: tool.to_string(),
        tool_spec: spec,
        seed,
        ..CellDone::default()
    }
}

impl JobPool {
    /// A serial pool: jobs run inline, in index order.
    pub fn serial() -> Self {
        JobPool {
            jobs: 1,
            ..JobPool::default()
        }
    }

    /// A pool with exactly `jobs` workers (`0` means "ask the OS", like
    /// [`JobPool::auto`]).
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            available_parallelism()
        } else {
            jobs
        };
        JobPool {
            jobs,
            ..JobPool::default()
        }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn auto() -> Self {
        Self::new(available_parallelism())
    }

    /// Enable the stderr progress line, tagged with `label`.
    pub fn with_progress(mut self, label: impl Into<String>) -> Self {
        self.progress = Some(label.into());
        self
    }

    /// Record one [`JobSpan`] per job into [`PoolStats::timeline`] — the
    /// per-cell track of the chrome-trace export. Off by default: the
    /// timeline is wall-clock data nobody should pay for (or accidentally
    /// print) on deterministic runs.
    pub fn with_timeline(mut self) -> Self {
        self.timeline = true;
        self
    }

    /// Record the cells of [`JobPool::cells`], and a campaign's runs, in
    /// `journal`, if any, and resume them from its cache.
    pub fn recording(mut self, journal: Option<CellJournal>) -> Self {
        self.journal = journal.map(Arc::new);
        self
    }

    /// The journal this pool records in, if any.
    pub(crate) fn journal(&self) -> Option<&CellJournal> {
        self.journal.as_deref()
    }

    /// Number of workers this pool runs.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Execute `f(0..total)` across the pool and return the results **in
    /// index order**, regardless of worker count or completion order.
    ///
    /// `f` must be a pure function of its index for the determinism
    /// guarantee to mean anything; every experiment satisfies this by
    /// deriving the run seed from the index.
    pub fn run<T, F>(&self, total: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_with_stats(total, f).0
    }

    /// Run the cells `run(0..total)` like [`JobPool::run`], recording and
    /// resuming them through the pool's [`CellJournal`].
    ///
    /// Without a journal `key` is never called. With one, the pool writes a
    /// `campaign` header and addresses cell `i` by the content address of
    /// `key(i)`'s program, tool spec, seed and backend. A cell whose
    /// address the resume cache holds is rebuilt from that record instead
    /// of run. Every other cell runs between a `start` and a `done` record,
    /// and the `end` marker counts the cells this process ran. A result
    /// travels in its `done` record's `result` field, in its JSON form.
    pub fn cells<T, K, F>(&self, total: usize, key: K, run: F) -> Vec<T>
    where
        T: ToJson + FromJson + Send,
        K: Fn(usize) -> CellDone + Sync,
        F: Fn(usize) -> T + Sync,
    {
        let (shares, _) = self.cells_with(&JsonCell, total, key, run, Vec::new, |share, i, out| {
            share.push((i, out));
        });
        in_index_order(total, shares)
    }

    /// [`JobPool::cells`] as a fold: each cell's result, rebuilt from the
    /// journal or run, goes into `step` with its index, on the worker that
    /// claimed it, and the pool returns the workers' shares ([`JobPool::fold`])
    /// with its accounting. `codec` writes a result into its `done` record
    /// and reads it back; a cached record `codec` cannot read is run again.
    pub(crate) fn cells_with<T, S, C, K, F, I, G>(
        &self,
        codec: &C,
        total: usize,
        key: K,
        run: F,
        init: I,
        step: G,
    ) -> (Vec<S>, PoolStats)
    where
        S: Send,
        C: CellCodec<T>,
        K: Fn(usize) -> CellDone + Sync,
        F: Fn(usize) -> T + Sync,
        I: Fn() -> S + Sync,
        G: Fn(&mut S, usize, T) + Sync,
    {
        let Some(journal) = &self.journal else {
            return self.fold(total, init, |share, i| step(share, i, run(i)));
        };
        if let Some(sink) = &journal.sink {
            sink.campaign(CampaignMeta {
                total_cells: total as u64,
                jobs: self.jobs as u64,
                runtime: RUNTIME_VERSION.to_string(),
                ..journal.header.clone()
            });
        }
        let executed = AtomicU64::new(0);
        let cell = |i: usize| {
            let mut done = key(i);
            let backend = done.backend.as_deref().unwrap_or("model");
            done.cell = content_address(
                &done.program,
                &done.tool_spec,
                done.seed,
                RUNTIME_VERSION,
                backend,
            );
            let cached = journal.resume.as_ref().and_then(|c| c.get(&done.cell));
            if let Some(out) = cached.and_then(|d| codec.load(d)) {
                return out;
            }
            if let Some(sink) = &journal.sink {
                sink.start(CellStart {
                    cell: done.cell.clone(),
                    program: done.program.clone(),
                    tool: done.tool.clone(),
                    seed: done.seed,
                    run: done.run,
                    t_us: 0,
                });
            }
            let started = Instant::now();
            let out = run(i);
            executed.fetch_add(1, Ordering::Relaxed);
            if let Some(sink) = &journal.sink {
                done.wall_us = started.elapsed().as_micros() as u64;
                codec.save(&out, &mut done);
                sink.done(done);
            }
            out
        };
        let out = self.fold(total, init, |share, i| step(share, i, cell(i)));
        if let Some(sink) = &journal.sink {
            sink.end(&journal.header.label, executed.load(Ordering::Relaxed));
        }
        out
    }

    /// [`JobPool::run`], also returning how the pool spent its time:
    /// per-worker claim counts and busy durations plus the overall wall
    /// time. The results are deterministic; the stats are wall-clock and
    /// belong in segregated timing output only.
    pub fn run_with_stats<T, F>(&self, total: usize, f: F) -> (Vec<T>, PoolStats)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let (shares, stats) = self.fold(total, Vec::new, |share, i| share.push((i, f(i))));
        (in_index_order(total, shares), stats)
    }

    /// Run `step(share, i)` for every `i` in `0..total` across the pool:
    /// each worker folds the indices it claims, in the order it claims
    /// them, into a share of its own that `init` creates. Returns one share
    /// per worker, in spawn order, with the pool's accounting.
    ///
    /// Which worker claims which index is not deterministic. A caller whose
    /// output must not depend on the worker count either keeps each
    /// result's index ([`JobPool::run`] does) or folds with an operation
    /// whose result is the same under any split of the indices and any
    /// merge order (a campaign's cell statistics do).
    pub fn fold<S, I, F>(&self, total: usize, init: I, step: F) -> (Vec<S>, PoolStats)
    where
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) + Sync,
    {
        let started = Instant::now();
        // The meter is a Drop guard: if `step` panics, the unwind drops it
        // here, which stops and joins the ticker thread and clears any
        // partial progress line before the panic continues.
        let meter = self
            .progress
            .as_ref()
            .map(|label| ProgressMeter::start(label.clone(), total));
        let bag = AtomicUsize::new(0);
        // One worker: steal the next unclaimed index from the bag until it
        // is empty, folding each into the worker's share.
        let work = |worker: usize| {
            let (mut share, mut stats, mut spans) = (init(), WorkerStats::default(), Vec::new());
            loop {
                let i = bag.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break (share, stats, spans);
                }
                let t0 = Instant::now();
                step(&mut share, i);
                let dur = t0.elapsed();
                stats.busy += dur;
                stats.claimed += 1;
                if self.timeline {
                    spans.push(JobSpan {
                        index: i,
                        worker,
                        start: t0.saturating_duration_since(started),
                        dur,
                    });
                }
                if let Some(m) = &meter {
                    m.bump();
                }
            }
        };
        let workers = self.jobs.min(total).max(1);
        let finished = if workers == 1 {
            vec![work(0)]
        } else {
            std::thread::scope(|scope| {
                let work = &work;
                let handles: Vec<_> = (0..workers)
                    .map(|worker| scope.spawn(move || work(worker)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                    })
                    .collect()
            })
        };
        if let Some(m) = meter {
            m.finish();
        }
        let mut shares = Vec::with_capacity(workers);
        let mut stats = PoolStats::default();
        for (share, worker, spans) in finished {
            shares.push(share);
            stats.workers.push(worker);
            stats.timeline.extend(spans);
        }
        debug_assert_eq!(stats.total_claimed(), total as u64, "every job ran once");
        stats.timeline.sort_unstable_by_key(|s| s.index);
        stats.wall = started.elapsed();
        (shares, stats)
    }
}

/// Place every share's `(index, result)` pairs at their index of one
/// vector: the results of `0..total` in index order.
fn in_index_order<T>(total: usize, shares: Vec<Vec<(usize, T)>>) -> Vec<T> {
    let mut slots: Vec<Option<T>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    for (i, out) in shares.into_iter().flatten() {
        slots[i] = Some(out);
    }
    slots
        .into_iter()
        .map(|out| out.expect("every job produced one result"))
        .collect()
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// What one pool worker did: how many jobs it claimed from the bag and how
/// long it spent inside them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker claimed and completed.
    pub claimed: u64,
    /// Wall time spent inside job bodies.
    pub busy: Duration,
}

/// One job on the pool's wall-clock timeline (recorded only when
/// [`JobPool::with_timeline`] is on): which worker ran index `index`, when
/// it started relative to the `run` call, and for how long. The raw
/// material of the chrome-trace worker tracks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobSpan {
    /// Job index in the run matrix.
    pub index: usize,
    /// Worker (spawn order; `0` on the serial path) that ran the job.
    pub worker: usize,
    /// Offset from the start of the `run` call.
    pub start: Duration,
    /// Time spent inside the job body.
    pub dur: Duration,
}

/// Wall-clock accounting of one [`JobPool::fold`] call (and of
/// [`JobPool::run_with_stats`], which folds).
///
/// Everything here is timing — it never feeds the deterministic reports;
/// render it only in segregated timing output (like `mtt profile
/// --timing`).
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    /// One entry per worker, in spawn order.
    pub workers: Vec<WorkerStats>,
    /// Wall time of the whole call.
    pub wall: Duration,
    /// Per-job spans sorted by index; empty unless the pool was built
    /// [`JobPool::with_timeline`].
    pub timeline: Vec<JobSpan>,
}

impl PoolStats {
    /// Total jobs claimed across workers.
    pub fn total_claimed(&self) -> u64 {
        self.workers.iter().map(|w| w.claimed).sum()
    }

    /// Render the per-worker utilization table: claim count, busy time and
    /// busy/wall utilization per worker, plus a totals row.
    pub fn utilization_table(&self) -> String {
        let wall = self.wall.as_secs_f64();
        let mut out = String::from("worker   claimed    busy-ms    util%\n");
        let mut busy_total = Duration::ZERO;
        for (i, w) in self.workers.iter().enumerate() {
            busy_total += w.busy;
            let util = if wall > 0.0 {
                100.0 * w.busy.as_secs_f64() / wall
            } else {
                0.0
            };
            out.push_str(&format!(
                "{i:<8} {:>7} {:>10} {util:>8.1}\n",
                w.claimed,
                w.busy.as_millis()
            ));
        }
        let util = if wall > 0.0 && !self.workers.is_empty() {
            100.0 * busy_total.as_secs_f64() / (wall * self.workers.len() as f64)
        } else {
            0.0
        };
        out.push_str(&format!(
            "total    {:>7} {:>10} {util:>8.1}  (wall {} ms, {} workers)\n",
            self.total_claimed(),
            busy_total.as_millis(),
            self.wall.as_millis(),
            self.workers.len()
        ));
        out
    }
}

/// Shared state between the workers (bumping) and the ticker thread
/// (printing).
struct MeterState {
    label: String,
    total: usize,
    done: AtomicUsize,
    stop: AtomicBool,
    started: Instant,
    printed: AtomicBool,
    /// Length of the last in-place line, so the clearing pass knows how
    /// much to blank.
    line_len: AtomicUsize,
}

impl MeterState {
    fn line(&self) -> String {
        let done = self.done.load(Ordering::Relaxed);
        let secs = self.started.elapsed().as_secs_f64();
        let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
        let eta = if rate > 0.0 && done < self.total {
            format!("{:.0}s", (self.total - done) as f64 / rate)
        } else {
            "?".to_string()
        };
        format!(
            "[{}] {}/{} runs  {:.1} runs/s  ETA {}",
            self.label, done, self.total, rate, eta
        )
    }
}

/// Keeps `[label] done/total runs  R runs/s  ETA Ns` updated **in place**
/// (carriage return, no newline) on stderr once a second while a pool
/// drains; silent for workloads that finish before the first tick, so tests
/// and quick commands stay quiet.
///
/// Dropping the meter — normally via [`ProgressMeter::finish`], or during
/// unwind after a worker panic — stops and joins the ticker thread and
/// erases the partial line, so nothing half-printed survives the campaign.
struct ProgressMeter {
    state: Arc<MeterState>,
    ticker: Option<std::thread::JoinHandle<()>>,
}

impl ProgressMeter {
    fn start(label: String, total: usize) -> Self {
        let state = Arc::new(MeterState {
            label,
            total,
            done: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            started: Instant::now(),
            printed: AtomicBool::new(false),
            line_len: AtomicUsize::new(0),
        });
        let ticker_state = Arc::clone(&state);
        let ticker = std::thread::spawn(move || {
            let mut last_print = Instant::now();
            while !ticker_state.stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(50));
                if last_print.elapsed() >= Duration::from_secs(1) {
                    let line = ticker_state.line();
                    // Pad to the previous line's length so a shrinking line
                    // leaves no trailing garbage.
                    let prev = ticker_state.line_len.swap(line.len(), Ordering::Relaxed);
                    eprint!("\r{line:<prev$}");
                    let _ = std::io::stderr().flush();
                    ticker_state.printed.store(true, Ordering::Relaxed);
                    last_print = Instant::now();
                }
            }
        });
        ProgressMeter {
            state,
            ticker: Some(ticker),
        }
    }

    fn bump(&self) {
        self.state.done.fetch_add(1, Ordering::Relaxed);
    }

    /// Normal end of campaign: clear the line (via Drop) and print the
    /// one-line summary for campaigns long enough to have shown progress.
    fn finish(self) {
        let state = Arc::clone(&self.state);
        drop(self); // stops the ticker and clears the in-place line
        if state.printed.load(Ordering::Relaxed) {
            let secs = state.started.elapsed().as_secs_f64();
            let done = state.done.load(Ordering::Relaxed);
            let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
            eprintln!(
                "[{}] {} runs in {:.1}s ({:.1} runs/s)",
                state.label, done, secs, rate
            );
        }
    }
}

impl Drop for ProgressMeter {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
        let len = self.state.line_len.load(Ordering::Relaxed);
        if len > 0 {
            // Blank the in-place progress line rather than leaving a
            // partial line for the next writer to collide with.
            eprint!("\r{:len$}\r", "");
            let _ = std::io::stderr().flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let f = |i: usize| i * i;
        let serial = JobPool::serial().run(100, f);
        for jobs in [2, 3, 8, 64] {
            let par = JobPool::new(jobs).run(100, f);
            assert_eq!(serial, par, "jobs={jobs} diverged");
        }
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let seen = Mutex::new(vec![0u32; 257]);
        JobPool::new(7).run(257, |i| {
            seen.lock().unwrap()[i] += 1;
        });
        assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn every_index_reaches_exactly_one_share() {
        for jobs in [1, 2, 4, 8] {
            let (shares, stats) = JobPool::new(jobs).fold(100, Vec::new, |share, i| share.push(i));
            assert_eq!(shares.len(), jobs, "one share per worker");
            assert_eq!(stats.workers.len(), jobs);
            for (share, worker) in shares.iter().zip(&stats.workers) {
                assert!(share.windows(2).all(|w| w[0] < w[1]), "claim order");
                assert_eq!(share.len() as u64, worker.claimed);
            }
            let mut seen: Vec<usize> = shares.concat();
            seen.sort_unstable();
            assert_eq!(seen, (0..100).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn results_keep_index_order_when_later_indices_finish_first() {
        // The lower the index, the longer its job: with several workers the
        // high indices finish first.
        let slow = |i: usize| {
            std::thread::sleep(Duration::from_micros(200 * (12 - i as u64)));
            i * 3
        };
        let want: Vec<usize> = (0..12).map(|i| i * 3).collect();
        for jobs in [1, 2, 4, 8] {
            assert_eq!(JobPool::new(jobs).run(12, slow), want, "run, jobs={jobs}");
            let key = |i: usize| cell_key("slow", "t", String::new(), i as u64);
            let cells: Vec<u64> = JobPool::new(jobs).cells(12, key, |i| slow(i) as u64);
            let want: Vec<u64> = want.iter().map(|&v| v as u64).collect();
            assert_eq!(cells, want, "cells, jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_tiny_matrices() {
        assert!(JobPool::new(8).run(0, |i| i).is_empty());
        assert_eq!(JobPool::new(8).run(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn zero_jobs_means_auto() {
        let pool = JobPool::new(0);
        assert!(pool.jobs() >= 1);
        assert!(JobPool::auto().jobs() >= 1);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        assert_eq!(JobPool::new(32).run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn progress_meter_counts_without_output_for_fast_runs() {
        // A fast run must not print (nothing observable to assert here
        // beyond "it terminates and results are right").
        let out = JobPool::new(2).with_progress("test").run(10, |i| i);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn stats_account_for_every_job() {
        let (out, stats) = JobPool::new(4).run_with_stats(64, |i| i);
        assert_eq!(out.len(), 64);
        assert_eq!(stats.total_claimed(), 64);
        assert!(!stats.workers.is_empty() && stats.workers.len() <= 4);
        let table = stats.utilization_table();
        assert!(table.contains("worker"));
        assert!(table.contains("total"));
        assert!(table.contains("64"));
    }

    #[test]
    fn serial_stats_have_one_worker() {
        let (_, stats) = JobPool::serial().run_with_stats(5, |i| i);
        assert_eq!(stats.workers.len(), 1);
        assert_eq!(stats.workers[0].claimed, 5);
    }

    #[test]
    fn timeline_records_every_job_in_index_order() {
        for jobs in [1, 4] {
            let (_, stats) = JobPool::new(jobs).with_timeline().run_with_stats(16, |i| i);
            assert_eq!(stats.timeline.len(), 16, "jobs={jobs}");
            let indices: Vec<usize> = stats.timeline.iter().map(|s| s.index).collect();
            assert_eq!(indices, (0..16).collect::<Vec<_>>(), "jobs={jobs}");
            assert!(
                stats.timeline.iter().all(|s| s.worker < jobs.max(1)),
                "jobs={jobs}"
            );
        }
        // Off by default.
        let (_, stats) = JobPool::new(2).run_with_stats(8, |i| i);
        assert!(stats.timeline.is_empty());
    }

    /// A journal the test can read back while the sink owns its writer.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Run 9 cells (`i * i`, keyed by seed `i`) through a journaled pool of
    /// `jobs` workers resuming from `resume`; return the results and the
    /// journal's records.
    fn journaled_cells(
        jobs: usize,
        resume: Option<ResumeCache>,
    ) -> (Vec<u64>, Vec<mtt_obs::JournalRecord>) {
        let buf = SharedBuf::default();
        let sink = Arc::new(JournalSink::from_writer(buf.clone()));
        let pool = JobPool::new(jobs).recording(Some(CellJournal {
            sink: Some(Arc::clone(&sink)),
            resume,
            header: CampaignMeta {
                label: "squares".into(),
                ..CampaignMeta::default()
            },
        }));
        let key = |i: usize| CellDone {
            program: "square".into(),
            tool_spec: "i*i".into(),
            seed: i as u64,
            run: i as u64,
            ..CellDone::default()
        };
        let out = pool.cells(9, key, |i| (i * i) as u64);
        assert!(sink.error().is_none());
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        (out, mtt_obs::parse_journal(&text).unwrap().records)
    }

    #[test]
    fn cell_driver_writes_one_header_one_done_per_cell_and_end() {
        use mtt_obs::{JournalRecord, StatusSummary};
        for jobs in [1, 3] {
            let (out, records) = journaled_cells(jobs, None);
            assert_eq!(out, (0..9).map(|i| i * i).collect::<Vec<u64>>());
            let count = |kind: &str| records.iter().filter(|r| r.kind() == kind).count();
            assert_eq!(
                (
                    count("campaign"),
                    count("start"),
                    count("done"),
                    count("end")
                ),
                (1, 9, 9, 1),
                "jobs={jobs}"
            );
            // Each `done` carries its cell's payload under its own address.
            let mut cells = std::collections::BTreeSet::new();
            for r in &records {
                if let JournalRecord::Done(d) = r {
                    assert_eq!(d.result, Some(mtt_json::Json::UInt(d.seed * d.seed)));
                    cells.insert(d.cell.clone());
                }
            }
            assert_eq!(cells.len(), 9);
            let s = StatusSummary::from_journal(&mtt_obs::ParsedJournal {
                records,
                tail_discarded: false,
            });
            assert_eq!((s.label.as_str(), s.total, s.done), ("squares", Some(9), 9));
            assert!(s.complete);
        }
    }

    #[test]
    fn cell_driver_resumes_cached_cells_without_running_them() {
        let (first, records) = journaled_cells(2, None);
        // Keep only the first four cells' records, as a killed run would.
        let mut kept = 0;
        let partial: Vec<_> = records
            .into_iter()
            .filter(|r| match r {
                mtt_obs::JournalRecord::Done(_) => {
                    kept += 1;
                    kept <= 4
                }
                _ => false,
            })
            .collect();
        let (resumed, tail) = journaled_cells(2, Some(ResumeCache::from_records(&partial)));
        assert_eq!(resumed, first);
        let done = tail.iter().filter(|r| r.kind() == "done").count();
        assert_eq!(done, 5, "only the uncached cells run");
        let Some(mtt_obs::JournalRecord::End(end)) = tail.last() else {
            panic!("journal ends with its end marker");
        };
        assert_eq!(end.completed, 5);
        // A cached payload the codec cannot read is run again.
        let garbled: Vec<_> = partial
            .iter()
            .map(|r| match r {
                mtt_obs::JournalRecord::Done(d) => mtt_obs::JournalRecord::Done(CellDone {
                    result: Some(mtt_json::Json::Str("not a number".into())),
                    ..d.clone()
                }),
                other => other.clone(),
            })
            .collect();
        let (rerun, tail) = journaled_cells(1, Some(ResumeCache::from_records(&garbled)));
        assert_eq!(rerun, first);
        assert_eq!(tail.iter().filter(|r| r.kind() == "done").count(), 9);
    }

    #[test]
    fn worker_panic_still_cleans_up_the_meter() {
        // The panic must propagate, and the Drop guard must have cleared
        // the ticker (no partial line, no leaked thread we could observe
        // hanging the test).
        let r = std::panic::catch_unwind(|| {
            JobPool::new(2).with_progress("boom").run(8, |i| {
                if i == 3 {
                    panic!("worker bug");
                }
                i
            });
        });
        assert!(r.is_err());
    }
}
