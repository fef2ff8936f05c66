//! The execution engine: the one op-semantics layer's bookkeeping, the
//! backend dispatch, the model's token-passing scheduler, the abort protocol
//! and the [`Execution`] builder.
//!
//! ## One op layer, two backends
//!
//! Every [`ThreadCtx`] operation is written once (in `ctx.rs`) as a
//! transition on the shared `ModelState` tables followed by an emitted
//! [`Op`], under the bookkeeping mutex of one `Run`. Thread statuses are
//! the single source of truth: whatever unblocks a waiter sets it `Ready`
//! (see `state.rs`). Only five things depend on the `Engine`:
//!
//! * **values** — the model store with its weak-visibility cache, versus
//!   atomics and `RaceCell`s accessed *outside* the bookkeeping lock;
//! * **parking** a thread on its own slot (`Run::park`) — until it holds
//!   the execution token, versus until its own status stops being
//!   `Blocked`/`Sleeping`;
//! * **sleeping** — virtual ticks fast-forwarded by the scheduler, versus a
//!   real timed park (`ctx.sleep(1)` = 100µs);
//! * the **step tail** (`Run::step`) — a model scheduling point, versus
//!   noise applied with real thread primitives;
//! * run **setup and teardown** — handing the main thread the token and
//!   waiting for completion, versus the native watchdog.
//!
//! ## How control flows in the model engine
//!
//! Each model thread runs on an OS thread and parks on its own slot.
//! Exactly one model thread holds the *execution token*
//! (`ModelState::current`); it runs program code until its next `ThreadCtx`
//! operation, which (under the mutex) mutates the model, emits events,
//! consults the noise maker, asks the scheduler to pick the next token
//! holder, wakes that thread alone (nobody when the same thread continues),
//! and parks until the token comes back. A step therefore costs the same
//! whether two threads or two hundred are parked.
//!
//! Because the mutex serializes all of this and only the token holder
//! executes program code, an execution is a deterministic function of
//! (program, scheduler decisions, noise decisions) — the foundation for
//! replay and systematic exploration.
//!
//! ## Abort protocol
//!
//! Deadlock, step-limit (or wall-budget) exhaustion, `stop_on_assert` and
//! program panics all *abort* the execution: the cause is stored, every
//! parked thread is woken and unwinds with a private `AbortToken` panic
//! payload (whose printing is suppressed by a process-wide hook), and the
//! harness thread collects the [`Outcome`].
//!
//! ## OS threads are reused
//!
//! Model threads run on *workers*: OS threads kept on a process-wide idle
//! list between runs. [`launch`] hands a body to an idle worker and spawns
//! one only when none is idle. A worker goes back on the idle list before
//! its run can see that it has left, and teardown waits for every thread of
//! the run to leave rather than joining OS threads. So back-to-back runs
//! reuse the same workers, and the process never holds more OS threads than
//! the peak number of model threads alive at once. A worker may drop the
//! last reference to a run after [`Execution::run`] has returned, which is
//! why the run drops its scheduler, noise maker and sinks itself.

use crate::ctx::ThreadCtx;
use crate::native::{NativeMem, DEFAULT_NATIVE_BUDGET};
use crate::noise::{NoNoise, NoiseDecision, NoiseMaker, NoiseView};
use crate::outcome::{AssertFailure, ExecStats, Outcome, OutcomeKind};
use crate::program::Program;
use crate::scheduler::{FifoScheduler, SchedView, Scheduler, ThreadStatusView};
use crate::state::{ModelState, Status, ThreadState};
use mtt_instrument::{
    Event, EventSink, InstrumentationPlan, Loc, Op, ResolvedFilter, ThreadId, VarId,
};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// Panic payload used to unwind program threads when an execution aborts.
pub(crate) struct AbortToken;

/// Panic payload for model-API misuse by program code (e.g. releasing a
/// lock the thread does not hold). Recorded as [`OutcomeKind::ThreadPanic`].
pub(crate) struct ModelMisuse(pub String);

static HOOK_INSTALL: Once = Once::new();

/// Install (once per process) a panic hook that stays silent for the
/// runtime's internal control-flow panics and defers to the previous hook
/// for everything else.
pub(crate) fn install_quiet_hook() {
    HOOK_INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().is::<AbortToken>() || info.payload().is::<ModelMisuse>() {
                return;
            }
            prev(info);
        }));
    });
}

/// Tunables of one execution.
#[derive(Clone, Debug)]
pub struct ExecutionOptions {
    /// Maximum scheduling points before the run is declared hung
    /// ([`OutcomeKind::StepLimit`]).
    pub max_steps: u64,
    /// Abort the execution at the first failed assertion.
    pub stop_on_assert: bool,
    /// Seed for the per-thread deterministic RNG available to program code
    /// via [`ThreadCtx::random`].
    pub program_seed: u64,
    /// Hard cap on model threads (guards against runaway spawn loops).
    pub max_threads: u32,
    /// When set, at each scheduling point one condition-variable waiter is
    /// woken *spuriously* with this probability — the POSIX/JVM liberty
    /// most schedulers never exercise. Programs that wait without a
    /// predicate loop break under it, which makes spurious injection a
    /// bug-finding technique of its own (exercised by experiment E1's
    /// suite and the runtime tests).
    ///
    /// Model-engine feature: the native backend relies on the real
    /// platform's nondeterminism instead and ignores this option.
    pub spurious_wakeups: Option<f64>,
    /// Which execution engine runs the program (default:
    /// [`RuntimeBackend::Model`]). See [`crate::backend`].
    pub backend: crate::RuntimeBackend,
    /// Wall-clock budget enforced by the native engine's watchdog;
    /// exhaustion maps to [`OutcomeKind::StepLimit`], the model's "hang"
    /// analogue. `None` means the native default (10s). The model engine
    /// never blocks on wall time and ignores this.
    pub wall_budget: Option<std::time::Duration>,
}

impl Default for ExecutionOptions {
    fn default() -> Self {
        ExecutionOptions {
            max_steps: 1_000_000,
            stop_on_assert: false,
            program_seed: 0,
            max_threads: 512,
            spurious_wakeups: None,
            backend: crate::RuntimeBackend::Model,
            wall_budget: None,
        }
    }
}

/// A program thread's body.
pub(crate) type Body = Box<dyn FnOnce(&mut ThreadCtx) + Send>;

/// Everything behind the bookkeeping mutex, for either engine.
pub(crate) struct Book {
    pub model: ModelState,
    /// Picks the next token holder (model engine). The native engine keeps
    /// a [`FifoScheduler`] placeholder here that is never asked to pick:
    /// the OS schedules.
    scheduler: Box<dyn Scheduler>,
    noise: Box<dyn NoiseMaker>,
    sinks: Vec<Box<dyn EventSink>>,
    sink_filter: ResolvedFilter,
    noise_filter: ResolvedFilter,
    pub opts: ExecutionOptions,
    pub stats: ExecStats,
    pub abort: Option<OutcomeKind>,
    pub completed: bool,
    /// Length of one tick in `model.time` units: 1 (virtual time) or 100
    /// (native microseconds).
    tick: u64,
    /// Native engine: with no scheduler to count scheduling points, every
    /// event counts against `max_steps`, before it is dispatched.
    steps_per_event: bool,
    /// Threads launched that have not left the run yet; teardown waits for
    /// this to drain.
    pub live: u32,
    /// The worker each thread runs on, indexed by thread: its parking slot.
    workers: Vec<Arc<Worker>>,
    last_event: Option<Event>,
    seq: u64,
    labels: Vec<String>,
    label_idx: HashMap<String, u32>,
    pub assert_failures: Vec<AssertFailure>,
    /// First torn read per variable id (native engine), ordered so the
    /// synthetic failures appended to the outcome are deterministic.
    pub torn: BTreeMap<u32, (ThreadId, Loc)>,
    scratch_runnable: Vec<ThreadId>,
    scratch_statuses: Vec<ThreadStatusView>,
    /// RNG driving spurious wakeups (None when the feature is off).
    spurious_rng: Option<rand_chacha::ChaCha8Rng>,
}

impl Book {
    /// Intern a label string, returning its dense index.
    pub fn intern_label(&mut self, label: &str) -> u32 {
        if let Some(&i) = self.label_idx.get(label) {
            return i;
        }
        let i = self.labels.len() as u32;
        self.labels.push(label.to_string());
        self.label_idx.insert(label.to_string(), i);
        i
    }

    /// Unwind this thread if the execution is aborting.
    pub fn check_abort(&self) {
        if self.abort.is_some() {
            panic::panic_any(AbortToken);
        }
    }

    /// The `model.time` at which a sleep or timed wait of `ticks` starting
    /// now falls due.
    pub fn wake_time(&self, ticks: u32) -> u64 {
        self.model.time + u64::from(ticks.max(1)) * self.tick
    }

    /// Emit one event: dispatch to the scheduler's observation hook, the
    /// sinks (subject to the sink plan) and the noise maker (subject to the
    /// noise plan). Returns the noise decision for the step tail to apply.
    pub fn emit(&mut self, me: ThreadId, loc: Loc, op: Op) -> NoiseDecision {
        self.check_abort();
        self.stats.events += 1;
        if self.steps_per_event && !self.count_step() {
            // Unwind before dispatching the event over budget; this thread's
            // exit wakes the watchdog, which wakes everyone else.
            panic::panic_any(AbortToken);
        }
        let ev = Event {
            seq: self.seq,
            time: self.model.time,
            thread: me,
            loc,
            op,
            locks_held: Arc::clone(&self.model.threads[me.index()].held_snapshot),
        };
        self.seq += 1;
        self.scheduler.on_event(&ev);
        if self.sink_filter.selects(&ev) {
            for s in &mut self.sinks {
                s.on_event(&ev);
            }
        }
        let decision = if self.noise_filter.selects(&ev) {
            self.model.collect_runnable(&mut self.scratch_runnable);
            let view = NoiseView {
                runnable: self.scratch_runnable.len(),
                step: self.stats.sched_points,
                time: self.model.time,
            };
            self.noise.decide(&ev, &view)
        } else {
            NoiseDecision::None
        };
        self.last_event = Some(ev);
        decision
    }

    /// Record an abort cause (first one wins). Failure aborts (anything but
    /// step-limit exhaustion, which is a budget artifact) stamp
    /// `first_failure_step` if no assertion failed earlier.
    pub fn do_abort(&mut self, kind: OutcomeKind) {
        if self.abort.is_none() {
            if !matches!(kind, OutcomeKind::StepLimit) && self.stats.first_failure_step.is_none() {
                self.stats.first_failure_step = Some(self.stats.sched_points);
            }
            self.abort = Some(kind);
        }
    }

    /// Count one scheduling point; past `max_steps` the run aborts as hung
    /// and this returns `false`.
    fn count_step(&mut self) -> bool {
        self.stats.sched_points += 1;
        if self.stats.sched_points > self.opts.max_steps {
            self.do_abort(OutcomeKind::StepLimit);
            return false;
        }
        true
    }

    /// With the configured probability, wake one condition waiter without
    /// a notify — a spurious wakeup. The woken thread re-acquires its lock
    /// and returns from `wait` as if notified; correct code re-checks its
    /// predicate, buggy code proceeds on a false assumption.
    fn maybe_spurious_wakeup(&mut self) {
        use crate::state::BlockReason;
        use rand::Rng;
        let Some(rng) = self.spurious_rng.as_mut() else {
            return;
        };
        let p = self.opts.spurious_wakeups.unwrap_or(0.0);
        if p <= 0.0 || !rng.gen_bool(p) {
            return;
        }
        // Collect cond waiters deterministically (id order).
        let waiters: Vec<usize> = self
            .model
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                matches!(
                    t.status,
                    Status::Blocked(BlockReason::Cond(_, _))
                        | Status::Blocked(BlockReason::CondTimed(_, _, _))
                )
            })
            .map(|(i, _)| i)
            .collect();
        if waiters.is_empty() {
            return;
        }
        let victim = waiters[rng.gen_range(0..waiters.len())];
        let tid = ThreadId(victim as u32);
        if let Status::Blocked(BlockReason::Cond(c, _) | BlockReason::CondTimed(c, _, _)) =
            self.model.threads[victim].status
        {
            self.model.cond_queues[c.index()].retain(|q| *q != tid);
            self.model.threads[victim].timed_out = false;
            self.model.threads[victim].status = Status::Ready;
            self.stats.spurious_wakeups += 1;
        }
    }

    /// Core model scheduling step: find the runnable set (advancing virtual
    /// time if everyone is asleep), detect termination and deadlock, and
    /// hand the token to the scheduler's pick.
    ///
    /// `prev` is the thread whose operation triggered this point; its status
    /// must already reflect the operation's effect (Ready / Blocked /
    /// Sleeping / Finished).
    fn schedule_next(&mut self, prev: Option<ThreadId>, forced_yield: bool) {
        // Only the native engine wakes readied threads; the model wakes its
        // pick.
        self.model.readied.clear();
        if !self.count_step() {
            return;
        }
        self.model.current = None;
        // Virtual time advances one tick per scheduling point, so sleepers
        // and timed waits make progress even while other threads stay busy;
        // the loop below additionally fast-forwards when everyone is asleep.
        let now = self.model.time + 1;
        self.model.advance_time_to(now);
        self.maybe_spurious_wakeup();
        loop {
            self.model.collect_runnable(&mut self.scratch_runnable);
            if !self.scratch_runnable.is_empty() {
                break;
            }
            if self.model.deadlocked() {
                let info = self.model.deadlock_info();
                self.do_abort(OutcomeKind::Deadlock(info));
                return;
            }
            match self.model.next_wake_time() {
                Some(wake) => {
                    self.model.advance_time_to(wake);
                }
                None => {
                    self.completed = true;
                    return;
                }
            }
        }
        self.scratch_statuses.clear();
        for t in &self.model.threads {
            self.scratch_statuses.push(match t.status {
                Status::Ready | Status::Running => ThreadStatusView::Ready,
                Status::Blocked(_) => ThreadStatusView::Blocked,
                Status::Sleeping(_) => ThreadStatusView::Sleeping,
                Status::Finished => ThreadStatusView::Finished,
            });
        }
        let view = SchedView {
            runnable: &self.scratch_runnable,
            prev,
            forced_yield,
            step: self.stats.sched_points,
            time: self.model.time,
            statuses: &self.scratch_statuses,
            last_event: self.last_event.as_ref(),
        };
        let mut pick = self.scheduler.pick(&view);
        if self.scratch_runnable.binary_search(&pick).is_err() {
            self.stats.scheduler_faults += 1;
            pick = self.scratch_runnable[0];
        }
        if prev.is_some() && prev != Some(pick) {
            self.stats.context_switches += 1;
        }
        self.model.threads[pick.index()].status = Status::Running;
        self.model.current = Some(pick);
    }
}

/// Which engine runs the program: the backend-specific half of a [`Run`].
pub(crate) enum Engine {
    /// Token passing: one thread runs between scheduling points.
    Model,
    /// Real OS threads over real memory.
    Native(NativeMem),
}

/// The shared handle of one execution, held by every thread's context.
pub(crate) struct Run {
    pub book: Mutex<Book>,
    /// Wakes the harness thread: the model harness waits here for the run's
    /// threads to leave, the native watchdog also for blocks and finishes.
    pub dog: Condvar,
    pub engine: Engine,
}

/// A locked [`Book`].
pub(crate) type Guard<'a> = MutexGuard<'a, Book>;

impl Run {
    /// Lock the bookkeeping. The native clock is wall time, stamped into
    /// `model.time` here so events and deadlines computed under this lock
    /// see it.
    pub fn book(&self) -> Guard<'_> {
        let mut g = self.book.lock();
        if let Engine::Native(n) = &self.engine {
            g.model.time = n.now();
        }
        g
    }

    /// Load `var` as `me` sees it; returns the locked bookkeeping with it.
    pub fn load(&self, me: ThreadId, var: VarId, loc: Loc) -> (Guard<'_>, i64) {
        match &self.engine {
            Engine::Model => {
                let mut g = self.book();
                let value = g.model.read_var(me, var);
                (g, value)
            }
            Engine::Native(n) => {
                let (value, torn) = n.load(var);
                let mut g = self.book();
                if torn {
                    g.torn.entry(var.0).or_insert((me, loc));
                }
                (g, value)
            }
        }
    }

    /// Store `value` into `var`; returns the locked bookkeeping.
    pub fn store(&self, me: ThreadId, var: VarId, value: i64) -> Guard<'_> {
        match &self.engine {
            Engine::Model => {
                let mut g = self.book();
                g.model.write_var(me, var, value);
                g
            }
            Engine::Native(n) => {
                n.store(var, value);
                self.book()
            }
        }
    }

    /// Atomically apply `f` to `var`; returns the locked bookkeeping with
    /// the old and new values.
    pub fn rmw(
        &self,
        me: ThreadId,
        var: VarId,
        loc: Loc,
        f: impl FnOnce(i64) -> i64,
    ) -> (Guard<'_>, i64, i64) {
        match &self.engine {
            Engine::Model => {
                let mut g = self.book();
                let (old, new) = g.model.rmw_var(me, var, f);
                (g, old, new)
            }
            Engine::Native(n) => {
                let (old, new, torn) = n.rmw(var, f);
                let mut g = self.book();
                if torn {
                    g.torn.entry(var.0).or_insert((me, loc));
                }
                (g, old, new)
            }
        }
    }

    /// Park `me` on its own slot until it may run: the model waits for the
    /// execution token, the native engine until `me`'s status is neither
    /// `Blocked` nor `Sleeping`. Unwinds on abort; returns with `me`
    /// `Running`.
    pub fn park(&self, g: &mut Guard<'_>, me: ThreadId) {
        match &self.engine {
            Engine::Model => loop {
                g.check_abort();
                let st = g.model.threads[me.index()].status;
                if st == Status::Finished || (g.model.current == Some(me) && st == Status::Running)
                {
                    return;
                }
                self.wait(g, me, None);
            },
            Engine::Native(n) => n.park(self, g, me),
        }
    }

    /// Wait on `me`'s own slot until someone wakes it or `timeout` passes.
    /// Callers re-check their condition: a wake may be stale.
    pub fn wait(&self, g: &mut Guard<'_>, me: ThreadId, timeout: Option<Duration>) {
        let worker = Arc::clone(&g.workers[me.index()]);
        match timeout {
            Some(t) => {
                let _ = worker.slot.wait_for(g, t);
            }
            None => worker.slot.wait(g),
        }
    }

    /// Let others run once `me` has blocked, slept or finished: the model
    /// schedules the next token holder and wakes it; the native engine
    /// wakes the threads this op readied, and the watchdog, which re-checks
    /// for deadlock.
    pub fn hand_off(&self, g: &mut Guard<'_>, me: ThreadId) {
        match &self.engine {
            Engine::Model => {
                if !g.completed {
                    g.schedule_next(Some(me), false);
                }
                self.wake_pick(g, Some(me));
            }
            Engine::Native(_) => {
                self.wake_readied(g);
                self.dog.notify_one();
            }
        }
    }

    /// `me` has set its own status to `Blocked` or `Sleeping`: hand off,
    /// then park until it may run again.
    pub fn block(&self, g: &mut Guard<'_>, me: ThreadId) {
        self.hand_off(g, me);
        self.park(g, me);
    }

    /// The tail of every non-blocking op. Accounts the noise decision, then
    /// either runs a model scheduling point and waits for the token, or
    /// applies the decision natively: a `Yield` (like the `Yield` op itself)
    /// gives up the CPU, a `Sleep` parks until it is due.
    pub fn step(&self, mut g: Guard<'_>, me: ThreadId, nd: NoiseDecision) {
        match nd {
            NoiseDecision::None => {}
            NoiseDecision::Yield => {
                g.stats.noise_injections += 1;
                g.stats.forced_yields += 1;
            }
            NoiseDecision::Sleep(ticks) => {
                let wake = g.wake_time(ticks);
                g.model.threads[me.index()].status = Status::Sleeping(wake);
                g.stats.noise_injections += 1;
            }
        }
        match &self.engine {
            Engine::Model => {
                let t = &mut g.model.threads[me.index()];
                if t.status == Status::Running {
                    t.status = Status::Ready;
                }
                g.schedule_next(Some(me), nd == NoiseDecision::Yield);
                self.wake_pick(&g, Some(me));
                self.park(&mut g, me);
            }
            Engine::Native(_) => {
                // Decide before parking: a sleep releases the lock, after
                // which `last_event` may be another thread's.
                let yield_now = nd == NoiseDecision::Yield
                    || matches!(&g.last_event, Some(ev) if ev.op == Op::Yield);
                self.wake_readied(&mut g);
                self.park(&mut g, me);
                drop(g);
                if yield_now {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Abort the execution with `kind` (first cause wins) and wake every
    /// parked thread and the harness.
    pub fn abort(&self, g: &mut Book, kind: OutcomeKind) {
        g.do_abort(kind);
        self.wake_all(g);
    }

    /// Wake every parked thread and the harness.
    pub fn wake_all(&self, g: &Book) {
        for w in &g.workers {
            w.slot.notify_one();
        }
        self.dog.notify_all();
    }

    /// Model engine, after a scheduling point: wake the scheduler's pick,
    /// unless it is `me`, which is awake already. An abort wakes everyone
    /// to unwind; on completion the threads leave without waking anyone.
    fn wake_pick(&self, g: &Book, me: Option<ThreadId>) {
        if g.abort.is_some() {
            self.wake_all(g);
        } else if let Some(pick) = g.model.current.filter(|&p| Some(p) != me) {
            g.workers[pick.index()].slot.notify_one();
        }
    }

    /// Native engine: wake exactly the threads a transition readied.
    fn wake_readied(&self, g: &mut Book) {
        for t in g.model.readied.drain(..) {
            g.workers[t.index()].slot.notify_one();
        }
    }
}

/// Register a new thread named `name` and start it on a worker.
pub(crate) fn launch(run: &Arc<Run>, g: &mut Book, name: String, body: Body) -> ThreadId {
    let me = ThreadId(g.model.threads.len() as u32);
    g.model.threads.push(ThreadState::new(name));
    g.stats.threads += 1;
    g.live += 1;
    let run = Arc::clone(run);
    g.workers.push(Worker::hire(Job { run, me, body }));
    me
}

/// Thread `me` of `run`, with its body: what a worker runs.
struct Job {
    run: Arc<Run>,
    me: ThreadId,
    body: Body,
}

/// An OS thread that runs model threads one after another, for any run in
/// the process, and waits on [`IDLE`] in between. Workers are never joined:
/// they live as long as the process, and one whose OS thread dies still
/// leaves its run (see [`Leave`]).
struct Worker {
    /// The thread handed over by [`launch`], taken when the worker starts it.
    job: Mutex<Option<Job>>,
    /// Wakes the idle worker once `job` is set.
    hired: Condvar,
    /// The parking slot of the thread it runs: that thread waits here, with
    /// its run's book locked, until it may run.
    slot: Condvar,
}

/// Idle workers, shared by every run in the process.
static IDLE: Mutex<Vec<Arc<Worker>>> = Mutex::new(Vec::new());

impl Worker {
    /// Hand `job` to an idle worker, or to a new one when none is idle.
    fn hire(job: Job) -> Arc<Worker> {
        let idle = IDLE.lock().pop();
        let w = idle.unwrap_or_else(Worker::spawn);
        *w.job.lock() = Some(job);
        w.hired.notify_one();
        w
    }

    /// Start an OS thread that runs every job handed to it.
    fn spawn() -> Arc<Worker> {
        let w = Arc::new(Worker {
            job: Mutex::new(None),
            hired: Condvar::new(),
            slot: Condvar::new(),
        });
        let worker = Arc::clone(&w);
        std::thread::Builder::new()
            .name("mtt-worker".to_string())
            .spawn(move || loop {
                let job = {
                    let mut j = worker.job.lock();
                    loop {
                        match j.take() {
                            Some(job) => break job,
                            None => worker.hired.wait(&mut j),
                        }
                    }
                };
                thread_main(&worker, job);
            })
            .expect("failed to spawn model thread");
        w
    }
}

/// Signals that a thread left its run, also on an unexpected unwind: its
/// worker goes back on the idle list first (unless the OS thread is dying),
/// then the run's `live` count drops and, once the harness has something
/// to do, the harness wakes.
struct Leave<'a> {
    worker: &'a Arc<Worker>,
    run: &'a Run,
}

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            IDLE.lock().push(Arc::clone(self.worker));
        }
        let mut g = self.run.book.lock();
        g.live -= 1;
        if g.live == 0 || g.abort.is_some() {
            self.run.dog.notify_all();
        }
    }
}

/// The message of a program thread's panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(m) = payload.downcast_ref::<ModelMisuse>() {
        m.0.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one program thread on `worker`, under either engine.
fn thread_main(worker: &Arc<Worker>, Job { run, me, body }: Job) {
    let _leave = Leave { worker, run: &run };
    // Wait until allowed to run, then announce ThreadStart.
    let started = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut g = run.book();
        run.park(&mut g, me);
        g.model.threads[me.index()].flush_cache(); // start = sync point
        let nd = g.emit(me, Loc::SYNTHETIC, Op::ThreadStart);
        run.step(g, me, nd);
    }));
    if started.is_ok() {
        let mut ctx = ThreadCtx::new(Arc::clone(&run), me);
        match panic::catch_unwind(AssertUnwindSafe(|| body(&mut ctx))) {
            Ok(()) => {
                // Normal completion: announce exit, wake joiners, hand off.
                // A concurrent abort during exit is fine.
                let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                    let mut g = run.book();
                    let _ = g.emit(me, Loc::SYNTHETIC, Op::ThreadExit);
                    g.model.finish(me);
                    g.completed = g.model.all_finished();
                    run.hand_off(&mut g, me);
                }));
            }
            Err(payload) if !payload.is::<AbortToken>() => {
                let message = panic_message(&*payload);
                let kind = OutcomeKind::ThreadPanic {
                    thread: me,
                    message,
                };
                run.abort(&mut run.book.lock(), kind);
            }
            Err(_) => {} // cooperative teardown
        }
    }
}

/// Builder-style handle for running one execution of a [`Program`].
///
/// Defaults: [`FifoScheduler`] (the deterministic "unit test" scheduler),
/// no noise, no sinks, full instrumentation, 1M-step budget.
pub struct Execution<'p> {
    program: &'p Program,
    scheduler: Box<dyn Scheduler>,
    noise: Box<dyn NoiseMaker>,
    sinks: Vec<Box<dyn EventSink>>,
    sink_plan: Option<InstrumentationPlan>,
    noise_plan: Option<InstrumentationPlan>,
    opts: ExecutionOptions,
}

impl<'p> Execution<'p> {
    /// Prepare an execution of `program` with default settings.
    pub fn new(program: &'p Program) -> Self {
        Execution {
            program,
            scheduler: Box::new(FifoScheduler),
            noise: Box::new(NoNoise),
            sinks: Vec::new(),
            sink_plan: None,
            noise_plan: None,
            opts: ExecutionOptions::default(),
        }
    }

    /// Use this scheduler.
    pub fn scheduler(mut self, s: Box<dyn Scheduler>) -> Self {
        self.scheduler = s;
        self
    }

    /// Use this noise maker.
    pub fn noise(mut self, n: Box<dyn NoiseMaker>) -> Self {
        self.noise = n;
        self
    }

    /// Attach an event sink (may be called repeatedly; sinks see events in
    /// attachment order).
    pub fn sink(mut self, s: Box<dyn EventSink>) -> Self {
        self.sinks.push(s);
        self
    }

    /// Instrumentation plan governing what the sinks see (default: all).
    pub fn plan(mut self, p: InstrumentationPlan) -> Self {
        self.sink_plan = Some(p);
        self
    }

    /// Instrumentation plan governing where the noise maker is consulted
    /// (default: all) — the paper's "where calls to the heuristic should be
    /// embedded" research knob.
    pub fn noise_plan(mut self, p: InstrumentationPlan) -> Self {
        self.noise_plan = Some(p);
        self
    }

    /// Replace all options at once.
    pub fn options(mut self, opts: ExecutionOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Set the scheduling-point budget.
    pub fn max_steps(mut self, n: u64) -> Self {
        self.opts.max_steps = n;
        self
    }

    /// Abort at the first failed assertion.
    pub fn stop_on_assert(mut self, yes: bool) -> Self {
        self.opts.stop_on_assert = yes;
        self
    }

    /// Seed for program-visible randomness ([`ThreadCtx::random`]).
    pub fn program_seed(mut self, seed: u64) -> Self {
        self.opts.program_seed = seed;
        self
    }

    /// Enable spurious condition-variable wakeups with the given per-point
    /// probability (see [`ExecutionOptions::spurious_wakeups`]).
    pub fn spurious_wakeups(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability required");
        self.opts.spurious_wakeups = Some(p);
        self
    }

    /// Choose the execution engine (see [`crate::backend`]). The native
    /// engine ignores the configured scheduler — the OS schedules.
    pub fn backend(mut self, b: crate::RuntimeBackend) -> Self {
        self.opts.backend = b;
        self
    }

    /// Wall-clock budget for the native engine's watchdog (see
    /// [`ExecutionOptions::wall_budget`]).
    pub fn wall_budget(mut self, d: std::time::Duration) -> Self {
        self.opts.wall_budget = Some(d);
        self
    }

    /// Run the program to completion (or deadlock / step limit / panic) and
    /// return the outcome.
    pub fn run(self) -> Outcome {
        install_quiet_hook();
        let started = Instant::now();
        let var_table = self.program.var_table();
        let sink_filter = self
            .sink_plan
            .map_or_else(ResolvedFilter::pass_all, |p| p.resolve(&var_table));
        let noise_filter = self
            .noise_plan
            .map_or_else(ResolvedFilter::pass_all, |p| p.resolve(&var_table));
        let native = self.opts.backend.is_native();
        let (engine, scheduler): (Engine, Box<dyn Scheduler>) = if native {
            let mem = NativeMem::new(self.program, started);
            (Engine::Native(mem), Box::new(FifoScheduler))
        } else {
            (Engine::Model, self.scheduler)
        };
        let book = Book {
            model: ModelState::for_program(self.program),
            scheduler,
            noise: self.noise,
            sinks: self.sinks,
            sink_filter,
            noise_filter,
            opts: self.opts.clone(),
            stats: ExecStats::default(),
            abort: None,
            completed: false,
            tick: if native { 100 } else { 1 },
            steps_per_event: native,
            live: 0,
            workers: Vec::new(),
            last_event: None,
            seq: 0,
            labels: Vec::new(),
            label_idx: HashMap::new(),
            assert_failures: Vec::new(),
            torn: BTreeMap::new(),
            scratch_runnable: Vec::new(),
            scratch_statuses: Vec::new(),
            spurious_rng: self.opts.spurious_wakeups.map(|_| {
                use rand::SeedableRng;
                rand_chacha::ChaCha8Rng::seed_from_u64(
                    self.opts.program_seed ^ 0x5973_7075_7269_6f75,
                )
            }),
        };
        let run = Arc::new(Run {
            book: Mutex::new(book),
            dog: Condvar::new(),
            engine,
        });

        // Launch the main thread, then wait for the run's threads to leave.
        {
            let mut g = run.book.lock();
            let entry = self.program.entry();
            launch(
                &run,
                &mut g,
                "main".to_string(),
                Box::new(move |ctx| entry(ctx)),
            );
            match &run.engine {
                Engine::Model => {
                    g.schedule_next(None, false);
                    run.wake_pick(&g, None);
                    // The run ends by completion or abort; either way every
                    // thread then leaves.
                    while g.live > 0 {
                        run.dog.wait(&mut g);
                    }
                }
                Engine::Native(mem) => {
                    drop(g);
                    let budget = self.opts.wall_budget.unwrap_or(DEFAULT_NATIVE_BUDGET);
                    mem.supervise(&run, budget);
                }
            }
        }

        // Assemble the outcome. The tools go first: a worker may drop the
        // last reference to the run after this returns.
        let mut g = run.book();
        for s in &mut g.sinks {
            s.finish();
        }
        g.sinks.clear();
        g.scheduler = Box::new(FifoScheduler);
        g.noise = Box::new(NoNoise);
        let kind = g.abort.take().unwrap_or(OutcomeKind::Completed);
        let mut assert_failures = std::mem::take(&mut g.assert_failures);
        for (var, &(thread, loc)) in &g.torn {
            let label = format!("race:torn-read:{}", var_table.name(VarId(*var)));
            assert_failures.push(AssertFailure { thread, label, loc });
        }
        g.stats.virtual_time = g.model.time;
        g.stats.wall = started.elapsed();
        Outcome {
            program: g.model.program_name.clone(),
            kind,
            final_vars: g.model.vars.clone(),
            var_table,
            finish_order: g.model.finish_order.clone(),
            thread_names: g.model.threads.iter().map(|t| t.name.clone()).collect(),
            assert_failures,
            stats: g.stats.clone(),
        }
    }
}
