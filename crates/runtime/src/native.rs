//! The native-threads half of the backend seam
//! ([`crate::RuntimeBackend::Native`]).
//!
//! Program closures run on real `std::thread`s through the same op layer as
//! the model engine (`ctx.rs`): every op is the same transition on the
//! shared [`crate::state::ModelState`] tables and emits the same
//! [`mtt_instrument::Op`]. This module holds only what differs:
//!
//! * **Values live in real memory** — volatile variables in `SeqCst`
//!   atomics, non-volatile ones in [`mtt_race::RaceCell`]s — and are loaded
//!   and stored *outside* the bookkeeping lock, so physical races really
//!   happen. A torn read is the engine's race oracle (there is no serialized
//!   event stream to run a lockset or vector-clock detector over); it is
//!   reported as a synthetic assertion failure labelled
//!   `race:torn-read:<var>`, so `Outcome::ok()` and every downstream oracle
//!   treat a physically manifested race like a failed executable assertion.
//! * **Parking** ([`NativeMem::park`]): a blocked thread waits on its own
//!   slot until its *own* status stops being `Blocked` — the shared
//!   transitions set waiters `Ready` and list them, and the step tail wakes
//!   exactly those — its timed-wait or sleep deadline passes, or the run
//!   aborts. It never re-checks on a timer.
//! * **Time is wall-clock, minus the idle time.** `Event::time` is
//!   microseconds since the run started, plus the microseconds skipped so
//!   far; `ctx.sleep(ticks)`, noise sleeps and timed waits park for
//!   `ticks × 100µs` of that clock; a noise `Yield` is `thread::yield_now`.
//!   When no thread can run (every thread is blocked, sleeping or finished,
//!   and one has a deadline), the watchdog moves the clock to the earliest
//!   deadline and wakes the threads then due, by the rule the model's
//!   virtual clock follows ([`crate::state::ModelState::settle`]); threads
//!   still asleep wake too, to time their parks by the moved clock. No
//!   program code runs during the jump, and a thread that is ready, or
//!   running even in uninstrumented code, prevents it; so only the wait
//!   goes, not a transition or an overlap of real threads.
//! * **No scheduler.** The OS schedules; the configured [`Scheduler`] is
//!   never consulted (`scheduler_faults`/`context_switches` stay 0), and
//!   spurious-wakeup injection is not emulated.
//! * **A watchdog** ([`NativeMem::supervise`]) on the harness thread ends
//!   the run at [`ExecutionOptions::wall_budget`] (default 10s of real time,
//!   reported as [`OutcomeKind::StepLimit`], the model's "hang" analogue)
//!   or as soon as the deadlock rule both engines share holds, and skips
//!   the idle time. Blocking, sleeping and finishing wake it, so it does not
//!   poll either. A run whose threads only sleep completes, as it does on
//!   the model; a hang is a thread that really runs past the budget.
//!
//! [`Scheduler`]: crate::Scheduler
//! [`ExecutionOptions::wall_budget`]: crate::ExecutionOptions::wall_budget

use crate::exec::{Guard, Run};
use crate::outcome::OutcomeKind;
use crate::program::Program;
use crate::state::{BlockReason, Settled, Status};
use mtt_instrument::{ThreadId, VarId};
use mtt_race::RaceCell;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Wall budget when the caller did not set one. Native runs can hang, so
/// there is always *some* watchdog deadline.
pub(crate) const DEFAULT_NATIVE_BUDGET: Duration = Duration::from_secs(10);
/// How long teardown waits for live threads after completion or abort
/// before leaving the stragglers behind.
const TEARDOWN_GRACE: Duration = Duration::from_secs(2);

/// Physical storage for one shared variable.
enum NativeVar {
    /// Volatile variables are sequentially consistent, like the model's.
    Volatile(AtomicI64),
    /// Non-volatile variables get torn-read detection instead of the
    /// model's weak-visibility cache.
    Plain(RaceCell),
}

/// The native engine's state outside the bookkeeping lock.
pub(crate) struct NativeMem {
    /// Physical variable store, indexed by `VarId`.
    vars: Vec<NativeVar>,
    /// Serializes read-modify-write operations against each other (the
    /// native analogue of `AtomicInteger`); plain writes still race with
    /// it, which is exactly what the torn-read oracle observes.
    rmw_lock: Mutex<()>,
    start: Instant,
    /// Microseconds the watchdog skipped while no thread could run. Written
    /// and read only under the bookkeeping lock, which orders the accesses,
    /// so they are `Relaxed`.
    skipped: AtomicU64,
}

impl NativeMem {
    pub(crate) fn new(program: &Program, start: Instant) -> Self {
        let vars = program
            .vars()
            .iter()
            .map(|v| {
                if v.volatile {
                    NativeVar::Volatile(AtomicI64::new(v.init))
                } else {
                    NativeVar::Plain(RaceCell::new(v.init))
                }
            })
            .collect();
        NativeMem {
            vars,
            rmw_lock: Mutex::new(()),
            start,
            skipped: AtomicU64::new(0),
        }
    }

    /// Microseconds since the run started, plus those skipped: the native
    /// `model.time`.
    pub(crate) fn now(&self) -> u64 {
        self.start.elapsed().as_micros() as u64 + self.skipped.load(Ordering::Relaxed)
    }

    /// Racy load of `var`; also reports whether the read was torn.
    pub(crate) fn load(&self, var: VarId) -> (i64, bool) {
        match &self.vars[var.index()] {
            NativeVar::Volatile(a) => (a.load(Ordering::SeqCst), false),
            NativeVar::Plain(c) => {
                let r = c.get();
                (r.value(), r.is_torn())
            }
        }
    }

    pub(crate) fn store(&self, var: VarId, value: i64) {
        match &self.vars[var.index()] {
            NativeVar::Volatile(a) => a.store(value, Ordering::SeqCst),
            NativeVar::Plain(c) => c.set(value),
        }
    }

    /// Read-modify-write under `rmw_lock`: `(old, new, torn)`.
    pub(crate) fn rmw(&self, var: VarId, f: impl FnOnce(i64) -> i64) -> (i64, i64, bool) {
        let _atomic = self.rmw_lock.lock();
        let (old, torn) = self.load(var);
        let new = f(old);
        self.store(var, new);
        (old, new, torn)
    }

    /// Park `me` until its status is neither `Blocked` nor `Sleeping`: a
    /// transition by another thread readied it, or its sleep or timed wait
    /// fell due (`wake_if_due`, the transition the model's clock applies).
    /// Unwinds on abort; returns with `me` `Running`, and whether it waited
    /// to the end: a thread that is unwinding already gives up on abort.
    pub(crate) fn park(&self, run: &Run, g: &mut Guard<'_>, me: ThreadId) -> bool {
        loop {
            if g.abort.is_some() && std::thread::panicking() {
                g.model.set_status(me, Status::Running);
                return false;
            }
            g.check_abort();
            match g.model.threads[me.index()].status() {
                Status::Sleeping(at) | Status::Blocked(BlockReason::CondTimed(_, _, at)) => {
                    let now = g.model.time;
                    if g.model.wake_if_due(me, now) {
                        continue;
                    }
                    run.wait(g, me, Some(Duration::from_micros(at - now)));
                }
                Status::Blocked(_) => run.wait(g, me, None),
                _ => break,
            }
            g.model.time = self.now();
        }
        g.model.set_status(me, Status::Running);
        true
    }

    /// The watchdog, run on the harness thread. Whenever a thread blocks,
    /// sleeps or finishes, it applies the rule both engines share
    /// ([`crate::state::ModelState::settle`]): it ends the run on deadlock,
    /// and when no thread can run it moves the clock to the earliest
    /// deadline and wakes exactly the threads then due (and those still
    /// asleep, to time their parks by the moved clock). It ends the run at
    /// the wall budget, which stays real time. Then it gives live threads a
    /// grace period to leave and copies the final values into `model.vars`.
    /// Stragglers stuck in uninstrumented compute loops are left behind:
    /// their next instrumented operation unwinds, and their workers then
    /// rejoin the idle list.
    pub(crate) fn supervise(&self, run: &Run, budget: Duration) {
        let deadline = self.start + budget;
        let mut g = run.book.lock();
        while !(g.completed || g.abort.is_some()) {
            let now = self.now();
            g.model.time = now;
            match g.model.settle() {
                Settled::Deadlocked => {
                    let info = g.model.deadlock_info();
                    run.abort(&mut g, OutcomeKind::Deadlock(info));
                }
                Settled::Over => g.completed = true,
                Settled::Runnable => {
                    // A jump moved `model.time` past `now`; the offset keeps
                    // `now()` from falling behind it.
                    let skipped = g.model.time - now;
                    if skipped > 0 {
                        self.skipped.fetch_add(skipped, Ordering::Relaxed);
                        run.wake_sleepers(&g);
                    }
                    run.wake_readied(&mut g);
                    let wall = Instant::now();
                    if wall >= deadline {
                        run.abort(&mut g, OutcomeKind::StepLimit);
                    } else {
                        let _ = run.dog.wait_for(&mut g, deadline - wall);
                    }
                }
            }
        }
        // Whichever thread ended the run, every parked thread must unwind.
        run.wake_all(&g);
        let grace = Instant::now() + TEARDOWN_GRACE;
        while g.live > 0 {
            let left = grace.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let _ = run.dog.wait_for(&mut g, left);
        }
        for (slot, var) in g.model.vars.iter_mut().zip(&self.vars) {
            *slot = match var {
                NativeVar::Volatile(a) => a.load(Ordering::SeqCst),
                NativeVar::Plain(c) => c.load_synced(),
            };
        }
    }
}
