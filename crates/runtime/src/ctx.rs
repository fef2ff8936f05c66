//! [`ThreadCtx`]: the API model programs are written against — and the one
//! op-semantics layer both runtime backends share.
//!
//! Every method that touches shared state is a *scheduling point*: it emits
//! an event, lets the noise maker interfere, and (under the model engine)
//! lets the scheduler move the execution token. Methods are annotated
//! `#[track_caller]`, so the source location of the call in the benchmark
//! program becomes the event's [`Loc`] — the automatic equivalent of a
//! bytecode instrumentor recording "the location in the program from which
//! it was called".
//!
//! Each op is written once, for both backends (see [`crate::backend`]): a
//! transition on the shared model tables (lock owners, condition queues,
//! permits, barrier arrivals, thread statuses), followed by the emitted
//! [`Op`] and the step tail. A blocking op sets its own status to
//! `Blocked(reason)` and parks; whoever can unblock it sets it `Ready`. The
//! few engine-specific pieces — where values live, how a thread parks, and
//! what the step tail does — sit behind the run handle (`exec::Run`), so no
//! op here matches on the backend.
//!
//! Misusing the model (unlocking a lock you don't hold, waiting on a
//! condition without its lock, recursive locking, joining yourself) aborts
//! the execution with [`crate::OutcomeKind::ThreadPanic`] under **both**
//! backends; such misuse is itself a bug class benchmark programs may
//! exhibit. A thread that is unwinding already skips the misused op
//! instead (see [`misuse`]).

use crate::exec::{launch, Guard, ModelMisuse, Run};
use crate::state::{BlockReason, ModelState, Status};
use mtt_instrument::{BarrierId, CondId, Loc, LockId, Op, SemId, ThreadId, VarId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::panic::panic_any;
use std::sync::Arc;

/// Capture the caller's source location as a [`Loc`].
#[track_caller]
fn caller_loc() -> Loc {
    let c = std::panic::Location::caller();
    Loc {
        file: c.file(),
        line: c.line(),
    }
}

/// Report program misuse of the model: unwind with [`ModelMisuse`], which
/// ends the run with a `ThreadPanic`. Returns only when the thread is
/// unwinding already (an op made by a `Drop` during a panic), where a
/// second panic would abort the process: the caller then skips its op, and
/// the first panic ends the run. An op that gave up during the unwind (see
/// `Run::block`) can make a later one misuse, such as an `unlock` of the
/// lock a `lock` gave up on.
fn misuse(msg: String) {
    if !std::thread::panicking() {
        panic_any(ModelMisuse(msg));
    }
}

/// Handle through which a model thread performs all shared-memory and
/// synchronization operations.
///
/// Program code must not rely on thread identity. Under the model backend
/// all model threads of a run are coroutines on one OS thread and share its
/// thread-locals; under the native backend a model thread runs on an OS
/// thread that earlier runs used. Keep state in the program's variables or
/// in captured values, not in thread-locals.
///
/// An op made while its thread unwinds (by a `Drop` during a panic) is
/// limited. Under the model backend it takes no scheduling point, so no
/// other thread runs until the unwind ends, and an op that would block
/// gives up at once without its effect (a `wait` wakes spuriously). Under
/// the native backend an op blocks as usual but gives up if the run
/// aborts. Misuse, including an `unlock` of a lock whose `lock` gave up,
/// skips the op. The thread's panic then ends the run. So a `Drop` must not
/// wait for other threads: under the model one that spins on a variable
/// spins alone, and a whole step budget past `max_steps` the process
/// aborts with a message.
pub struct ThreadCtx {
    run: Arc<Run>,
    me: ThreadId,
    rng: ChaCha8Rng,
}

impl ThreadCtx {
    /// The per-thread RNG is seeded from the execution's `program_seed` and
    /// the thread id alone, so program logic driven by [`Self::random`] is
    /// backend-independent.
    pub(crate) fn new(run: Arc<Run>, me: ThreadId) -> Self {
        let seed = run.book.lock().opts.program_seed;
        let rng =
            ChaCha8Rng::seed_from_u64(seed ^ (u64::from(me.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        ThreadCtx { run, me, rng }
    }

    /// Emit `op` and run the step tail.
    fn emit_step(&self, mut g: Guard<'_>, loc: Loc, op: Op) {
        let nd = g.emit(self.me, loc, op);
        self.run.step(g, self.me, nd);
    }

    /// Put this thread in `status` (`Blocked` or `Sleeping`) until it may
    /// run again. Returns `false` when it gave up instead, which only a
    /// thread that is unwinding does (see `Run::block`).
    fn block(&self, g: &mut Guard<'_>, status: Status) -> bool {
        self.run.block(g, self.me, status)
    }

    /// Block for `reason` until `free` holds, announcing the first wait with
    /// `request` (a `*Request` op) if one is given. Returns `false` when the
    /// thread gave up waiting (see [`Self::block`]).
    fn block_until(
        &self,
        g: &mut Guard<'_>,
        reason: BlockReason,
        mut request: Option<(Loc, Op)>,
        free: impl Fn(&ModelState) -> bool,
    ) -> bool {
        while !free(&g.model) {
            if let Some((loc, op)) = request.take() {
                let _ = g.emit(self.me, loc, op);
            }
            if !self.block(g, Status::Blocked(reason)) {
                return false;
            }
        }
        true
    }

    /// This thread's id.
    pub fn id(&self) -> ThreadId {
        self.me
    }

    // ------------------------------------------------------------------
    // Shared variables
    // ------------------------------------------------------------------

    /// Read a shared variable. Non-volatile variables may return a stale,
    /// thread-cached value (see [`crate::ProgramBuilder::var_nonvolatile`])
    /// under the model backend; natively they are plain racy loads with
    /// torn-read detection.
    #[track_caller]
    pub fn read(&mut self, var: VarId) -> i64 {
        self.read_at(var, caller_loc())
    }

    /// [`Self::read`] with an explicit site (used by code generators such
    /// as the MiniProg interpreter).
    pub fn read_at(&mut self, var: VarId, loc: Loc) -> i64 {
        let (g, value) = self.run.load(self.me, var, loc);
        self.emit_step(g, loc, Op::VarRead { var, value });
        value
    }

    /// Write a shared variable.
    #[track_caller]
    pub fn write(&mut self, var: VarId, value: i64) {
        self.write_at(var, value, caller_loc())
    }

    /// [`Self::write`] with an explicit site.
    pub fn write_at(&mut self, var: VarId, value: i64, loc: Loc) {
        let g = self.run.store(self.me, var, value);
        self.emit_step(g, loc, Op::VarWrite { var, value });
    }

    /// Atomic read-modify-write: applies `f` to the *shared-store* value
    /// with no scheduling point in between (the model analogue of an
    /// `AtomicInteger` operation). Emits one read-modify-write event at a
    /// single scheduling point; returns the old value.
    #[track_caller]
    pub fn rmw<F: FnOnce(i64) -> i64>(&mut self, var: VarId, f: F) -> i64 {
        let loc = caller_loc();
        let (g, old, new) = self.run.rmw(self.me, var, loc, f);
        self.emit_step(g, loc, Op::VarRmw { var, old, new });
        old
    }

    // ------------------------------------------------------------------
    // Mutexes
    // ------------------------------------------------------------------

    /// Acquire a mutex, blocking while another thread owns it.
    #[track_caller]
    pub fn lock(&mut self, lock: LockId) {
        self.lock_at(lock, caller_loc())
    }

    /// [`Self::lock`] with an explicit site.
    pub fn lock_at(&mut self, lock: LockId, loc: Loc) {
        let mut g = self.run.book();
        if g.model.lock_owner[lock.index()] == Some(self.me) {
            return misuse(format!(
                "thread {} locked {:?} recursively (model mutexes are non-reentrant)",
                self.me, lock
            ));
        }
        let request = Some((loc, Op::LockRequest { lock }));
        let free = |m: &ModelState| m.lock_owner[lock.index()].is_none();
        if !self.block_until(&mut g, BlockReason::Lock(lock), request, free) {
            return;
        }
        g.model.acquire_lock(self.me, lock);
        self.emit_step(g, loc, Op::LockAcquire { lock });
    }

    /// Try to acquire a mutex without blocking. Returns whether it was
    /// acquired.
    #[track_caller]
    pub fn try_lock(&mut self, lock: LockId) -> bool {
        let loc = caller_loc();
        let mut g = self.run.book();
        let acquired = match g.model.lock_owner[lock.index()] {
            None => {
                g.model.acquire_lock(self.me, lock);
                true
            }
            Some(owner) if owner == self.me => {
                misuse(format!("thread {} try_lock on lock it holds", self.me));
                return false;
            }
            Some(_) => false,
        };
        let op = if acquired {
            Op::LockAcquire { lock }
        } else {
            Op::LockTryFail { lock }
        };
        self.emit_step(g, loc, op);
        acquired
    }

    /// Release a mutex this thread owns.
    #[track_caller]
    pub fn unlock(&mut self, lock: LockId) {
        self.unlock_at(lock, caller_loc())
    }

    /// [`Self::unlock`] with an explicit site.
    pub fn unlock_at(&mut self, lock: LockId, loc: Loc) {
        let mut g = self.run.book();
        if !g.model.release_lock(self.me, lock) {
            return misuse(format!(
                "thread {} released {:?} which it does not hold",
                self.me, lock
            ));
        }
        self.emit_step(g, loc, Op::LockRelease { lock });
    }

    /// Run `f` with `lock` held (the model analogue of a `synchronized`
    /// block).
    #[track_caller]
    pub fn with_lock<R>(&mut self, lock: LockId, f: impl FnOnce(&mut Self) -> R) -> R {
        self.lock(lock);
        let r = f(self);
        self.unlock(lock);
        r
    }

    // ------------------------------------------------------------------
    // Condition variables
    // ------------------------------------------------------------------

    /// Wait on `cond`, atomically releasing `lock` (which must be held);
    /// re-acquires `lock` before returning.
    #[track_caller]
    pub fn wait(&mut self, cond: CondId, lock: LockId) {
        self.wait_at(cond, lock, caller_loc())
    }

    /// [`Self::wait`] with an explicit site.
    pub fn wait_at(&mut self, cond: CondId, lock: LockId, loc: Loc) {
        self.wait_inner(cond, lock, None, loc);
    }

    /// Like [`Self::wait`] but gives up after `ticks` units of virtual time
    /// (model) or `ticks × 100µs` of the native clock, which is wall time
    /// that jumps to the next deadline while no thread can run. So a timed
    /// wait that nobody can notify times out at once under both backends.
    /// Returns `true` when notified, `false` on timeout.
    #[track_caller]
    pub fn timed_wait(&mut self, cond: CondId, lock: LockId, ticks: u32) -> bool {
        self.wait_inner(cond, lock, Some(ticks), caller_loc())
    }

    fn wait_inner(&mut self, cond: CondId, lock: LockId, ticks: Option<u32>, loc: Loc) -> bool {
        let me = self.me;
        let mut g = self.run.book();
        if g.model.lock_owner[lock.index()] != Some(me) {
            misuse(format!(
                "thread {me} waits on {cond:?} without holding {lock:?}"
            ));
            return false;
        }
        let reason = match ticks {
            Some(t) => BlockReason::CondTimed(cond, lock, g.wake_time(t)),
            None => BlockReason::Cond(cond, lock),
        };
        let _ = g.emit(me, loc, Op::CondWait { cond, lock });
        assert!(g.model.release_lock(me, lock));
        g.model.cond_queues[cond.index()].push(me);
        g.model.threads[me.index()].timed_out = false;
        if !self.block(&mut g, Status::Blocked(reason)) {
            // Gave up while unwinding: wake as a spurious wakeup would. Under
            // the model nobody ran since the release, so the lock is free;
            // natively the re-acquire below may block, and give up too.
            g.model.cond_queues[cond.index()].retain(|&t| t != me);
        }
        let timed_out = g.model.threads[me.index()].timed_out;
        // Re-acquire the lock (competing with everyone else).
        let free = |m: &ModelState| m.lock_owner[lock.index()].is_none();
        if !self.block_until(&mut g, BlockReason::Lock(lock), None, free) {
            return false;
        }
        g.model.acquire_lock(me, lock);
        self.emit_step(g, loc, Op::CondWake { cond, lock });
        !timed_out
    }

    /// Wake the longest-waiting thread on `cond` (no-op — a potential *lost
    /// notification* — when nobody waits).
    #[track_caller]
    pub fn notify(&mut self, cond: CondId) {
        self.notify_at(cond, caller_loc())
    }

    /// [`Self::notify`] with an explicit site.
    pub fn notify_at(&mut self, cond: CondId, loc: Loc) {
        self.notify_inner(cond, false, loc)
    }

    /// Wake every thread waiting on `cond`.
    #[track_caller]
    pub fn notify_all(&mut self, cond: CondId) {
        self.notify_all_at(cond, caller_loc())
    }

    /// [`Self::notify_all`] with an explicit site.
    pub fn notify_all_at(&mut self, cond: CondId, loc: Loc) {
        self.notify_inner(cond, true, loc)
    }

    fn notify_inner(&mut self, cond: CondId, all: bool, loc: Loc) {
        let mut g = self.run.book();
        g.model.notify(cond, all);
        self.emit_step(g, loc, Op::CondNotify { cond, all });
    }

    // ------------------------------------------------------------------
    // Semaphores & barriers
    // ------------------------------------------------------------------

    /// Acquire one permit, blocking while none is available.
    #[track_caller]
    pub fn sem_acquire(&mut self, sem: SemId) {
        let loc = caller_loc();
        let mut g = self.run.book();
        let request = Some((loc, Op::SemRequest { sem }));
        let free = |m: &ModelState| m.sem_permits[sem.index()] > 0;
        if !self.block_until(&mut g, BlockReason::Sem(sem), request, free) {
            return;
        }
        g.model.sem_permits[sem.index()] -= 1;
        g.model.threads[self.me.index()].flush_cache();
        self.emit_step(g, loc, Op::SemAcquire { sem });
    }

    /// Release one permit and wake blocked acquirers.
    #[track_caller]
    pub fn sem_release(&mut self, sem: SemId) {
        let loc = caller_loc();
        let mut g = self.run.book();
        g.model.sem_release(sem);
        g.model.threads[self.me.index()].flush_cache();
        self.emit_step(g, loc, Op::SemRelease { sem });
    }

    /// Arrive at a cyclic barrier and block until all parties have arrived.
    #[track_caller]
    pub fn barrier_wait(&mut self, barrier: BarrierId) {
        let loc = caller_loc();
        let mut g = self.run.book();
        let _ = g.emit(self.me, loc, Op::BarrierArrive { barrier });
        if !g.model.barrier_arrive(self.me, barrier)
            && !self.block(&mut g, Status::Blocked(BlockReason::Barrier(barrier)))
        {
            return;
        }
        g.model.threads[self.me.index()].flush_cache();
        self.emit_step(g, loc, Op::BarrierPass { barrier });
    }

    // ------------------------------------------------------------------
    // Threads
    // ------------------------------------------------------------------

    /// Spawn a child model thread running `body`. Returns its id.
    #[track_caller]
    pub fn spawn<F>(&mut self, name: impl Into<String>, body: F) -> ThreadId
    where
        F: FnOnce(&mut ThreadCtx) + Send + 'static,
    {
        let loc = caller_loc();
        let mut g = self.run.book();
        if g.model.threads.len() as u32 >= g.opts.max_threads {
            misuse(format!(
                "thread limit ({}) exceeded — runaway spawn loop?",
                g.opts.max_threads
            ));
            // Unwinding: no thread was spawned, and none has this id.
            return ThreadId(u32::MAX);
        }
        let child = launch(&self.run, &mut g, name.into(), Box::new(body));
        self.emit_step(g, loc, Op::Spawn { child });
        child
    }

    /// Block until `target` finishes.
    #[track_caller]
    pub fn join(&mut self, target: ThreadId) {
        let loc = caller_loc();
        if target == self.me {
            return misuse(format!("thread {} joining itself", self.me));
        }
        let mut g = self.run.book();
        if target.index() >= g.model.threads.len() {
            return misuse(format!("join on unknown thread {target}"));
        }
        let request = Some((loc, Op::JoinRequest { target }));
        let free = |m: &ModelState| m.threads[target.index()].status() == Status::Finished;
        if !self.block_until(&mut g, BlockReason::Join(target), request, free) {
            return;
        }
        g.model.threads[self.me.index()].flush_cache();
        self.emit_step(g, loc, Op::Join { target });
    }

    // ------------------------------------------------------------------
    // Delays, markers, assertions
    // ------------------------------------------------------------------

    /// Voluntary scheduling point (natively, the thread also gives up the
    /// CPU).
    #[track_caller]
    pub fn yield_now(&mut self) {
        self.yield_at(caller_loc())
    }

    /// [`Self::yield_now`] with an explicit site.
    pub fn yield_at(&mut self, loc: Loc) {
        let g = self.run.book();
        self.emit_step(g, loc, Op::Yield);
    }

    /// Sleep for `ticks` units of virtual time (model) or `ticks × 100µs`
    /// of the native clock (native). Under both backends time jumps to the
    /// next deadline while no thread can run, so a sleep costs real time
    /// only while another thread is ready or running.
    #[track_caller]
    pub fn sleep(&mut self, ticks: u32) {
        self.sleep_at(ticks, caller_loc())
    }

    /// [`Self::sleep`] with an explicit site.
    pub fn sleep_at(&mut self, ticks: u32, loc: Loc) {
        let mut g = self.run.book();
        let wake = g.wake_time(ticks);
        let _ = g.emit(self.me, loc, Op::Sleep { ticks });
        let _ = self.block(&mut g, Status::Sleeping(wake));
    }

    /// Pure instrumentation marker: emits a [`Op::Point`] event carrying
    /// `label` and creates a scheduling point, with no semantic effect.
    #[track_caller]
    pub fn point(&mut self, label: &str) {
        let loc = caller_loc();
        let mut g = self.run.book();
        let label = g.intern_label(label);
        self.emit_step(g, loc, Op::Point { label });
    }

    /// Executable assertion. A failure is recorded in the outcome (and, if
    /// the execution was configured with `stop_on_assert`, aborts it). A
    /// passing assertion costs nothing and is not a scheduling point.
    #[track_caller]
    pub fn check(&mut self, cond: bool, label: &str) {
        self.check_at(cond, label, caller_loc())
    }

    /// [`Self::check`] with an explicit site.
    pub fn check_at(&mut self, cond: bool, label: &str, loc: Loc) {
        if cond {
            return;
        }
        let mut g = self.run.book();
        let li = g.intern_label(label);
        if g.stats.first_failure_step.is_none() {
            g.stats.first_failure_step = Some(g.stats.sched_points);
        }
        g.assert_failures.push(crate::outcome::AssertFailure {
            thread: self.me,
            label: label.to_string(),
            loc,
        });
        let nd = g.emit(self.me, loc, Op::AssertFail { label: li });
        if g.opts.stop_on_assert {
            self.run.abort(&mut g, crate::OutcomeKind::AssertStop);
        }
        self.run.step(g, self.me, nd);
    }

    /// Deterministic pseudo-randomness for program logic: uniform in
    /// `0..bound`. Seeded from the execution's `program_seed` and this
    /// thread's id, so it is independent of the interleaving — replay-safe
    /// and identical under both backends.
    pub fn random(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "random bound must be positive");
        self.rng.gen_range(0..bound)
    }
}
