//! The execution engine: the one op-semantics layer's bookkeeping, the
//! backend dispatch, the model's token-passing scheduler and the harness
//! that runs its threads, the abort protocol and the [`Execution`] builder.
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
//! * **parking** a thread (`Run::park`) — suspended to the harness until it
//!   holds the execution token, versus on its own slot until its own status
//!   stops being `Blocked`/`Sleeping`;
//! * **sleeping** — virtual ticks, versus a real timed park (`ctx.sleep(1)`
//!   = 100µs). Both clocks jump to the next deadline when no thread can
//!   run, by one rule (`ModelState::settle`): the model's scheduler applies
//!   it at a scheduling point, the native watchdog whenever a thread
//!   blocks, sleeps or finishes, so a native run waits out only the sleeps
//!   that some running thread overlaps;
//! * the **step tail** (`Run::step`) — a model scheduling point, versus
//!   noise applied with real thread primitives;
//! * run **setup and teardown** — the harness resuming token holders until
//!   the run ends, versus the native watchdog.
//!
//! ## How control flows in the model engine
//!
//! Every model thread is a coroutine (`coro.rs`) on the OS thread that
//! called [`Execution::run`], which runs the *harness* (`drive`): it
//! resumes the thread that holds the *execution token*
//! (`ModelState::current`). That thread runs program code until its next
//! `ThreadCtx` operation, which (under the mutex) mutates the model, emits
//! events, consults the noise maker and asks the scheduler to pick the next
//! token holder. When the pick is another thread, the op releases the mutex
//! and suspends to the harness, which resumes the pick; when it is the same
//! thread, nothing switches. A handoff is therefore two stack switches on
//! one OS thread. The harness creates a spawned thread's coroutine before
//! it next resumes anyone, and a finished thread's stack goes back to the
//! pool.
//!
//! A scheduling point does not scan the threads either. Every status change
//! goes through one setter, `ModelState::set_status`, which keeps the
//! *runnable list* (the `Ready` and `Running` threads, ascending, exactly
//! what a scan would give) and a *deadline bound* (at most the earliest
//! sleep or timed-wait deadline). The scheduler sees the list as it is and
//! the noise maker its length; the clock scans for due sleepers only once
//! it reaches the bound. A wake that removes a deadline may leave the bound
//! stale-low, which costs one extra scan; a stale-high bound, which would
//! miss a wake, cannot arise. Debug builds check both against a scan at
//! every scheduling point, and a step allocates nothing in steady state.
//! What still looks at every thread is a lock release, semaphore release
//! or thread exit, which readies its waiters; `bench_native`'s
//! `handoff_sweep` prints how a step's cost grows from 3 threads to 129.
//!
//! Because the mutex serializes all of this and only the token holder
//! executes program code, an execution is a deterministic function of
//! (program, scheduler decisions, noise decisions) — the foundation for
//! replay and systematic exploration.
//!
//! No thread switches while it holds the mutex (the next coroutine takes
//! it on the same OS thread) or while it unwinds (see `Run::step` and
//! `Run::block`). Off Linux x86_64 a coroutine is an OS thread of its own
//! (see `coro.rs`); the harness and the schedules are the same.
//!
//! ## Abort protocol
//!
//! Deadlock, step-limit (or wall-budget) exhaustion, `stop_on_assert` and
//! program panics all *abort* the execution: the cause is stored, every
//! thread unwinds with a private `AbortToken` panic payload (whose printing
//! is suppressed by a process-wide hook), and the harness collects the
//! [`Outcome`]. The model harness resumes every unfinished thread once, in
//! id order, to unwind it; the native watchdog wakes every parked thread.
//!
//! ## The native engine's OS threads are reused
//!
//! Native threads run on *workers*: OS threads kept on a process-wide idle
//! list between runs. [`launch`] hands a body to an idle worker and spawns
//! one only when none is idle. A worker goes back on the idle list before
//! its run can see that it has left, and teardown waits for every thread of
//! the run to leave rather than joining OS threads. So back-to-back runs
//! reuse the same workers, and the process never holds more OS threads than
//! the peak number of native threads alive at once. A worker may drop the
//! last reference to a run after [`Execution::run`] has returned, which is
//! why the run drops its scheduler, noise maker and sinks itself.

use crate::coro::{self, Coroutine};
use crate::ctx::ThreadCtx;
use crate::native::{NativeMem, DEFAULT_NATIVE_BUDGET};
use crate::noise::{NoNoise, NoiseDecision, NoiseMaker, NoiseView};
use crate::outcome::{AssertFailure, ExecStats, Outcome, OutcomeKind};
use crate::program::Program;
use crate::scheduler::{FifoScheduler, SchedView, Scheduler};
use crate::state::{ModelState, Settled, Status};
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
    /// analogue. `None` means the native default (10s). It is real time,
    /// not the native clock: the idle time the clock skips does not count,
    /// so a run whose threads only sleep is not a hang. The model engine
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
    /// Native threads that have not left the run yet; teardown waits for
    /// this to drain.
    pub live: u32,
    /// The worker each native thread runs on, indexed by thread: its
    /// parking slot. Empty under the model.
    workers: Vec<Arc<Worker>>,
    /// Model threads launched since the harness last looked, whose
    /// coroutines it creates before it resumes anyone.
    spawned: Vec<(ThreadId, Body)>,
    last_event: Option<Event>,
    seq: u64,
    labels: Vec<String>,
    label_idx: HashMap<String, u32>,
    pub assert_failures: Vec<AssertFailure>,
    /// First torn read per variable id (native engine), ordered so the
    /// synthetic failures appended to the outcome are deterministic.
    pub torn: BTreeMap<u32, (ThreadId, Loc)>,
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

    /// Unwind this thread if the execution is aborting, unless it is
    /// unwinding already: a second panic would escape the `Drop` that made
    /// the op and abort the process.
    pub fn check_abort(&self) {
        if self.abort.is_some() && !std::thread::panicking() {
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
            // Over budget, so the run is aborting: unwind before dispatching
            // the event. This thread's exit wakes the watchdog, which wakes
            // everyone else.
            self.check_abort();
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
            let view = NoiseView {
                runnable: self.model.runnable().len(),
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
    ///
    /// A thread that is unwinding cannot be unwound again. One that goes on
    /// making ops for a whole further budget is spinning in a `Drop` that
    /// waits for a thread that cannot run (under the model, no other thread
    /// runs until the unwind ends), so the process aborts with a message
    /// rather than hang.
    fn count_step(&mut self) -> bool {
        self.stats.sched_points += 1;
        if self.stats.sched_points <= self.opts.max_steps {
            return true;
        }
        if self.stats.sched_points > self.opts.max_steps.saturating_mul(2)
            && std::thread::panicking()
        {
            coro::fatal(&format!(
                "a `Drop` ran ops for {} steps past the step budget while its thread \
                 unwound; a `Drop` must not wait for other threads",
                self.opts.max_steps
            ));
        }
        self.do_abort(OutcomeKind::StepLimit);
        false
    }

    /// With the configured probability, wake one condition waiter without
    /// a notify — a spurious wakeup. The woken thread re-acquires its lock
    /// and returns from `wait` as if notified; correct code re-checks its
    /// predicate, buggy code proceeds on a false assumption.
    fn maybe_spurious_wakeup(&mut self) {
        use rand::Rng;
        let Some(rng) = self.spurious_rng.as_mut() else {
            return;
        };
        let p = self.opts.spurious_wakeups.unwrap_or(0.0);
        if p <= 0.0 || !rng.gen_bool(p) {
            return;
        }
        // The victim is the k-th condition waiter in id order.
        let waiters = self.model.cond_waiters().count();
        if waiters == 0 {
            return;
        }
        let k = rng.gen_range(0..waiters);
        let victim = self.model.cond_waiters().nth(k).expect("k < waiters");
        self.model.wake_spuriously(victim);
        self.stats.spurious_wakeups += 1;
    }

    /// Core model scheduling step: take the runnable list (jumping virtual
    /// time to the next deadline if everyone is asleep, by the rule both
    /// engines share), detect termination and deadlock, and hand the token
    /// to the scheduler's pick. The list and the deadline bound are kept by
    /// `ModelState::set_status`, so none of this scans every thread unless
    /// a deadline may be due, a spurious wakeup fires or no thread can run.
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
        // `settle` additionally jumps it when everyone is asleep.
        let now = self.model.time + 1;
        self.model.advance_time_to(now);
        self.maybe_spurious_wakeup();
        self.model.debug_check_kept();
        if self.model.runnable().is_empty() {
            match self.model.settle() {
                Settled::Runnable => {}
                Settled::Deadlocked => {
                    let info = self.model.deadlock_info();
                    self.do_abort(OutcomeKind::Deadlock(info));
                    return;
                }
                Settled::Over => {
                    self.completed = true;
                    return;
                }
            }
        }
        let runnable = self.model.runnable();
        let view = SchedView {
            runnable,
            prev,
            forced_yield,
            step: self.stats.sched_points,
            time: self.model.time,
            last_event: self.last_event.as_ref(),
        };
        let mut pick = self.scheduler.pick(&view);
        if runnable.binary_search(&pick).is_err() {
            self.stats.scheduler_faults += 1;
            pick = runnable[0];
        }
        if prev.is_some() && prev != Some(pick) {
            self.stats.context_switches += 1;
        }
        self.model.set_status(pick, Status::Running);
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
    /// Wakes the native watchdog: for blocks, finishes and threads leaving.
    pub dog: Condvar,
    pub engine: Engine,
}

/// A locked [`Book`].
pub(crate) type Guard<'a> = MutexGuard<'a, Book>;

impl Run {
    /// Lock the bookkeeping. The native clock (wall time plus the idle time
    /// the watchdog skipped) is stamped into `model.time` here, so events
    /// and deadlines computed under this lock see it.
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

    /// Park `me` until it may run: the model waits for the execution
    /// token, suspended back to the harness; the native engine waits on its
    /// slot until `me`'s status is neither `Blocked` nor `Sleeping`.
    /// Unwinds on abort and returns `true` with `me` `Running`, except that
    /// a native thread that is unwinding already gives up on abort and
    /// returns `false` (see [`Self::block`]).
    pub fn park(&self, g: &mut Guard<'_>, me: ThreadId) -> bool {
        match &self.engine {
            Engine::Model => loop {
                g.check_abort();
                let st = g.model.threads[me.index()].status();
                if st == Status::Finished || (g.model.current == Some(me) && st == Status::Running)
                {
                    return true;
                }
                // The next coroutine runs on this OS thread and takes the
                // book lock itself.
                MutexGuard::unlocked(g, coro::suspend);
            },
            Engine::Native(n) => n.park(self, g, me),
        }
    }

    /// Native engine: wait on `me`'s own slot until someone wakes it or
    /// `timeout` passes. Callers re-check their condition: a wake may be
    /// stale.
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
    /// schedules the next token holder, which the harness resumes; the
    /// native engine wakes the threads this op readied, and the watchdog,
    /// which re-checks for deadlock.
    pub fn hand_off(&self, g: &mut Guard<'_>, me: ThreadId) {
        match &self.engine {
            Engine::Model => {
                if !g.completed {
                    g.schedule_next(Some(me), false);
                }
            }
            Engine::Native(_) => {
                self.wake_readied(g);
                self.dog.notify_one();
            }
        }
    }

    /// Put `me` in `status` (`Blocked` or `Sleeping`), hand off, then park
    /// until it may run again. Returns `false` when `me` gives up instead,
    /// which only a thread that is unwinding (an op made by a `Drop` during
    /// a panic) does: a model thread gives up at once, because a coroutine
    /// must not switch while it unwinds (see [`Self::step`]); a native
    /// thread blocks and gives up only if the run aborts, because it cannot
    /// be unwound a second time. Its op then has no effect.
    pub fn block(&self, g: &mut Guard<'_>, me: ThreadId, status: Status) -> bool {
        if matches!(self.engine, Engine::Model) && std::thread::panicking() {
            return false;
        }
        g.model.set_status(me, status);
        self.hand_off(g, me);
        self.park(g, me)
    }

    /// The tail of every non-blocking op. Accounts the noise decision, then
    /// either runs a model scheduling point and waits for the token, or
    /// applies the decision natively: a `Yield` (like the `Yield` op itself)
    /// gives up the CPU, a `Sleep` parks until it is due.
    ///
    /// A model thread that is unwinding (an op made by a `Drop` during a
    /// panic) takes no scheduling point and keeps the token: a coroutine
    /// must not switch while it unwinds, because the panic count belongs to
    /// the OS thread. Its ops still count against `max_steps`.
    pub fn step(&self, mut g: Guard<'_>, me: ThreadId, nd: NoiseDecision) {
        if matches!(self.engine, Engine::Model) && std::thread::panicking() {
            let _ = g.count_step();
            return;
        }
        match nd {
            NoiseDecision::None => {}
            NoiseDecision::Yield => {
                g.stats.noise_injections += 1;
                g.stats.forced_yields += 1;
            }
            NoiseDecision::Sleep(ticks) => {
                let wake = g.wake_time(ticks);
                g.model.set_status(me, Status::Sleeping(wake));
                g.stats.noise_injections += 1;
            }
        }
        match &self.engine {
            Engine::Model => {
                if g.model.threads[me.index()].status() == Status::Running {
                    g.model.set_status(me, Status::Ready);
                }
                g.schedule_next(Some(me), nd == NoiseDecision::Yield);
                self.park(&mut g, me);
            }
            Engine::Native(_) => {
                // Decide before parking: a sleep releases the lock, after
                // which `last_event` may be another thread's.
                let yield_now = nd == NoiseDecision::Yield
                    || matches!(&g.last_event, Some(ev) if ev.op == Op::Yield);
                self.wake_readied(&mut g);
                if let NoiseDecision::Sleep(_) = nd {
                    // `me` may have been the last thread that could run: the
                    // watchdog then moves the clock on.
                    self.dog.notify_one();
                }
                let _ = self.park(&mut g, me);
                drop(g);
                if yield_now {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Abort the execution with `kind` (first cause wins) and wake every
    /// native thread and the watchdog. The model harness unwinds its
    /// threads once the token comes back to it.
    pub fn abort(&self, g: &mut Book, kind: OutcomeKind) {
        g.do_abort(kind);
        self.wake_all(g);
    }

    /// Wake every parked native thread and the watchdog.
    pub fn wake_all(&self, g: &Book) {
        for w in &g.workers {
            w.slot.notify_one();
        }
        self.dog.notify_all();
    }

    /// Native engine: wake every thread that is still asleep or in a timed
    /// wait after the clock jumped. Each timed its park by the clock before
    /// the jump, so it would wake late by the time skipped; woken, it times
    /// its park again.
    pub fn wake_sleepers(&self, g: &Book) {
        for (t, w) in g.model.threads.iter().zip(&g.workers) {
            if t.status().deadline().is_some() {
                w.slot.notify_one();
            }
        }
    }

    /// Native engine: wake exactly the threads a transition, or a jump of
    /// the clock, readied.
    pub fn wake_readied(&self, g: &mut Book) {
        for t in g.model.readied.drain(..) {
            g.workers[t.index()].slot.notify_one();
        }
    }
}

/// Register a new thread named `name` and start it: as a coroutine the
/// model harness creates, or on a worker.
pub(crate) fn launch(run: &Arc<Run>, g: &mut Book, name: String, body: Body) -> ThreadId {
    let me = g.model.add_thread(name);
    g.stats.threads += 1;
    match run.engine {
        Engine::Model => g.spawned.push((me, body)),
        Engine::Native(_) => {
            g.live += 1;
            let run = Arc::clone(run);
            g.workers.push(Worker::hire(Job { run, me, body }));
        }
    }
    me
}

/// The model harness: resume the token holder until the run completes or
/// aborts, then resume every unfinished thread once, in id order, so it
/// unwinds with [`AbortToken`].
fn drive(run: &Arc<Run>) {
    let mut threads: Vec<Coroutine> = Vec::new();
    loop {
        let next = {
            let mut g = run.book.lock();
            for (me, body) in g.spawned.drain(..) {
                let run = Arc::clone(run);
                threads.push(Coroutine::new(move || thread_main(&run, me, body)));
            }
            if g.abort.is_some() || g.completed {
                break;
            }
            g.model
                .current
                .expect("a run that has neither completed nor aborted has a token holder")
        };
        threads[next.index()].resume();
    }
    for t in &mut threads {
        let finished = t.resume();
        debug_assert!(finished, "an aborted thread suspended again");
    }
}

/// Thread `me` of `run`, with its body: what a worker runs.
struct Job {
    run: Arc<Run>,
    me: ThreadId,
    body: Body,
}

/// An OS thread that runs native program threads one after another, for
/// any run in the process, and waits on [`IDLE`] in between. Workers are
/// never joined: they live as long as the process, and one whose OS thread
/// dies still leaves its run (see [`Leave`]).
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
                let Job { run, me, body } = job;
                let _leave = Leave {
                    worker: &worker,
                    run: &run,
                };
                thread_main(&run, me, body);
            })
            .expect("failed to spawn a native worker");
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

/// Run program thread `me` of `run`, under either engine, as a coroutine
/// or on a worker.
fn thread_main(run: &Arc<Run>, me: ThreadId, body: Body) {
    // Wait until allowed to run, then announce ThreadStart.
    let started = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut g = run.book();
        run.park(&mut g, me);
        g.model.threads[me.index()].flush_cache(); // start = sync point
        let nd = g.emit(me, Loc::SYNTHETIC, Op::ThreadStart);
        run.step(g, me, nd);
    }));
    if started.is_ok() {
        let mut ctx = ThreadCtx::new(Arc::clone(run), me);
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
            spawned: Vec::new(),
            last_event: None,
            seq: 0,
            labels: Vec::new(),
            label_idx: HashMap::new(),
            assert_failures: Vec::new(),
            torn: BTreeMap::new(),
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

        // Launch the main thread, then run the harness until the run's
        // threads are done.
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
                    drop(g);
                    drive(&run);
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
