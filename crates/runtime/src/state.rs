//! Crate-private model state: variables, locks, condition variables,
//! semaphores, barriers and thread records — and the transitions on them
//! that both engines share.
//!
//! All mutation happens under the bookkeeping mutex in `exec.rs`; nothing
//! here synchronizes on its own. The model is deliberately simple — it is a
//! *specification-level* shared memory, not an efficient one.
//!
//! Thread statuses are the single source of truth for both engines: every
//! transition that can unblock a waiter (lock release, notify, semaphore
//! release, barrier completion, thread exit) sets that waiter `Ready` here
//! and lists it in [`ModelState::readied`], and [`ModelState::settle`] is
//! the one rule for a run in which no thread can run (deadlocked, over, or
//! time jumps to the next deadline) that the model's scheduler and the
//! native watchdog both apply.
//!
//! ## One setter, two kept summaries
//!
//! A status changes only through [`ModelState::set_status`] (the field is
//! private to this module), which keeps two summaries of the statuses up to
//! date, so that a scheduling point does not scan every thread:
//!
//! * the **runnable list** ([`ModelState::runnable`]): the threads that are
//!   `Ready` or `Running`, ascending, which is exactly the list a fresh scan
//!   gives. The model's scheduler sees it as it is, the noise maker sees its
//!   length, and [`ModelState::settle`] asks only whether it is empty.
//! * the **deadline bound**: at most the earliest sleep or timed-wait
//!   deadline. A status with a deadline lowers it, and
//!   [`ModelState::advance_time_to`] scans the threads only once the clock
//!   reaches it, setting it to the earliest deadline left. A wake that
//!   removes a deadline (a notify of a timed waiter) leaves it *stale-low*,
//!   which costs one extra scan and never misses a wake. A *stale-high*
//!   bound would miss one, and never arises: a deadline appears only
//!   through the setter, which lowers the bound to it.
//!
//! Debug builds check both, and the finish count, against a fresh scan at
//! every model scheduling point and whenever a run settles
//! ([`ModelState::debug_check_kept`]).

use crate::outcome::{DeadlockInfo, WaitEdge};
use crate::program::{Program, VarSpec};
use mtt_instrument::{BarrierId, CondId, LockId, SemId, ThreadId, VarId};
use std::collections::HashMap;
use std::sync::Arc;

/// Why a thread cannot run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockReason {
    /// Waiting to acquire a mutex.
    Lock(LockId),
    /// Waiting for a notify; the lock to re-acquire afterwards.
    Cond(CondId, LockId),
    /// Timed wait: like `Cond` plus a virtual-time deadline.
    CondTimed(CondId, LockId, u64),
    /// Waiting for a semaphore permit.
    Sem(SemId),
    /// Waiting at a barrier.
    Barrier(BarrierId),
    /// Waiting for a thread to finish.
    Join(ThreadId),
}

/// Scheduling status of one model thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    /// Eligible to be picked.
    Ready,
    /// Holds the execution token right now.
    Running,
    /// Cannot run until some model action unblocks it.
    Blocked(BlockReason),
    /// Asleep until the given virtual time.
    Sleeping(u64),
    /// Terminated.
    Finished,
}

impl Status {
    /// The time at which a sleep or a timed wait falls due.
    pub fn deadline(self) -> Option<u64> {
        match self {
            Status::Sleeping(at) | Status::Blocked(BlockReason::CondTimed(_, _, at)) => Some(at),
            _ => None,
        }
    }

    /// `Ready` or `Running`: a member of the runnable list.
    pub fn can_run(self) -> bool {
        matches!(self, Status::Ready | Status::Running)
    }
}

/// Where [`ModelState::settle`] leaves a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Settled {
    /// Some thread can run, perhaps because time jumped to wake it.
    Runnable,
    /// No thread can run and none will wake on its own.
    Deadlocked,
    /// Every thread has finished.
    Over,
}

/// How many earlier snapshots of its held locks a thread keeps for reuse.
const KEPT_SNAPSHOTS: usize = 8;

/// Per-thread record.
#[derive(Debug)]
pub(crate) struct ThreadState {
    pub name: String,
    /// Changed only by [`ModelState::set_status`].
    status: Status,
    /// Locks held, in acquisition order.
    pub held: Vec<LockId>,
    /// Immutable snapshot of `held`, shared into events (pointer clone per
    /// event instead of a vector clone — the hot path optimization).
    pub held_snapshot: Arc<[LockId]>,
    /// The last few snapshots this thread built, oldest first: taking and
    /// releasing the same locks again reuses one instead of allocating.
    snapshots: Vec<Arc<[LockId]>>,
    /// Weak-visibility cache for non-volatile variables: value this thread
    /// last observed/wrote, possibly stale w.r.t. the shared store. Cleared
    /// at every synchronization operation.
    pub cache: HashMap<VarId, i64>,
    /// Set when the thread's timed wait ended by timeout rather than notify.
    pub timed_out: bool,
}

impl ThreadState {
    fn new(name: String) -> Self {
        let none: Arc<[LockId]> = Arc::from(Vec::new());
        ThreadState {
            name,
            status: Status::Ready,
            held: Vec::new(),
            snapshots: vec![Arc::clone(&none)],
            held_snapshot: none,
            cache: HashMap::new(),
            timed_out: false,
        }
    }

    pub fn status(&self) -> Status {
        self.status
    }

    fn refresh_snapshot(&mut self) {
        let held = &self.held[..];
        self.held_snapshot = match self.snapshots.iter().find(|s| s[..] == *held) {
            Some(known) => Arc::clone(known),
            None => {
                if self.snapshots.len() == KEPT_SNAPSHOTS {
                    self.snapshots.remove(0);
                }
                let built: Arc<[LockId]> = Arc::from(held);
                self.snapshots.push(Arc::clone(&built));
                built
            }
        };
    }

    /// Drop the weak-visibility cache: the thread just performed a
    /// synchronization action, so it must observe fresh values.
    pub fn flush_cache(&mut self) {
        self.cache.clear();
    }
}

/// The whole shared-model state of one execution.
#[derive(Debug)]
pub(crate) struct ModelState {
    pub program_name: String,
    pub var_specs: Vec<VarSpec>,
    pub vars: Vec<i64>,
    pub lock_names: Vec<String>,
    pub lock_owner: Vec<Option<ThreadId>>,
    pub cond_names: Vec<String>,
    /// FIFO wait queue per condition variable.
    pub cond_queues: Vec<Vec<ThreadId>>,
    pub sem_names: Vec<String>,
    pub sem_permits: Vec<u32>,
    pub barrier_names: Vec<String>,
    pub barrier_parties: Vec<u32>,
    pub barrier_arrived: Vec<Vec<ThreadId>>,
    pub threads: Vec<ThreadState>,
    pub finish_order: Vec<ThreadId>,
    /// Holder of the execution token.
    pub current: Option<ThreadId>,
    /// Virtual time (model engine) or microseconds since the run started,
    /// plus those skipped while no thread could run (native engine).
    pub time: u64,
    /// Threads a transition or a clock advance readied since the engine
    /// last looked: the native engine wakes exactly these; the model engine,
    /// which wakes only its scheduler's pick, clears the list at every
    /// scheduling point.
    pub readied: Vec<ThreadId>,
    /// The threads that can run, ascending (kept by [`Self::set_status`]).
    runnable: Vec<ThreadId>,
    /// At most the earliest deadline of any thread, `u64::MAX` when none is
    /// known (kept by [`Self::set_status`] and [`Self::advance_time_to`]).
    deadline_bound: u64,
}

impl ModelState {
    pub fn for_program(program: &Program) -> Self {
        ModelState {
            program_name: program.name().to_string(),
            var_specs: program.vars().to_vec(),
            vars: program.vars().iter().map(|v| v.init).collect(),
            lock_names: program.locks().to_vec(),
            lock_owner: vec![None; program.locks().len()],
            cond_names: program.conds().to_vec(),
            cond_queues: vec![Vec::new(); program.conds().len()],
            sem_names: program.sems().iter().map(|s| s.name.clone()).collect(),
            sem_permits: program.sems().iter().map(|s| s.permits).collect(),
            barrier_names: program.barriers().iter().map(|b| b.name.clone()).collect(),
            barrier_parties: program.barriers().iter().map(|b| b.parties).collect(),
            barrier_arrived: vec![Vec::new(); program.barriers().len()],
            threads: Vec::new(),
            finish_order: Vec::new(),
            current: None,
            time: 0,
            readied: Vec::new(),
            runnable: Vec::new(),
            deadline_bound: u64::MAX,
        }
    }

    pub fn thread(&mut self, t: ThreadId) -> &mut ThreadState {
        &mut self.threads[t.index()]
    }

    /// Register a new thread, `Ready`, and return its id.
    pub fn add_thread(&mut self, name: String) -> ThreadId {
        let t = ThreadId(self.threads.len() as u32);
        self.threads.push(ThreadState::new(name));
        // The largest id yet, so the list stays sorted.
        self.runnable.push(t);
        t
    }

    /// Put `t` in `status`. Every status change goes through here, which
    /// keeps the runnable list and the deadline bound.
    pub fn set_status(&mut self, t: ThreadId, status: Status) {
        let ts = &mut self.threads[t.index()];
        let could_run = ts.status.can_run();
        ts.status = status;
        if could_run != status.can_run() {
            let at = self.runnable.partition_point(|&r| r < t);
            if could_run {
                self.runnable.remove(at);
            } else {
                self.runnable.insert(at, t);
            }
        }
        if let Some(at) = status.deadline() {
            self.deadline_bound = self.deadline_bound.min(at);
        }
    }

    /// Threads currently able to run (`Ready` or `Running`), ascending.
    pub fn runnable(&self) -> &[ThreadId] {
        &self.runnable
    }

    /// Check the kept runnable list, the deadline bound and the finish
    /// order against a fresh scan of the statuses, without allocating.
    /// Does nothing in release builds.
    pub fn debug_check_kept(&self) {
        let scan = || {
            (0..self.threads.len() as u32)
                .map(ThreadId)
                .filter(|t| self.threads[t.index()].status.can_run())
        };
        debug_assert!(
            self.runnable.iter().copied().eq(scan()),
            "kept runnable list {:?}, scan {:?}",
            self.runnable,
            scan().collect::<Vec<_>>()
        );
        debug_assert!(
            self.next_wake_time()
                .is_none_or(|at| self.deadline_bound <= at),
            "deadline bound {} is past the earliest deadline {:?}",
            self.deadline_bound,
            self.next_wake_time()
        );
        debug_assert_eq!(
            self.finish_order.len(),
            self.threads
                .iter()
                .filter(|t| t.status == Status::Finished)
                .count(),
            "finish order {:?}",
            self.finish_order
        );
    }

    /// Read `var` as seen by `reader`, honouring the weak-visibility model.
    pub fn read_var(&mut self, reader: ThreadId, var: VarId) -> i64 {
        let fresh = self.vars[var.index()];
        if self.var_specs[var.index()].volatile {
            return fresh;
        }
        let cache = &mut self.threads[reader.index()].cache;
        *cache.entry(var).or_insert(fresh)
    }

    /// Write `var` (always hits the shared store; the writer's own cache is
    /// updated so it observes its own program order).
    pub fn write_var(&mut self, writer: ThreadId, var: VarId, value: i64) {
        self.vars[var.index()] = value;
        if !self.var_specs[var.index()].volatile {
            self.threads[writer.index()].cache.insert(var, value);
        }
    }

    /// Grant `lock` to `owner` (caller checked it is free) and flush the
    /// owner's cache (acquire semantics).
    pub fn acquire_lock(&mut self, owner: ThreadId, lock: LockId) {
        debug_assert!(self.lock_owner[lock.index()].is_none());
        self.lock_owner[lock.index()] = Some(owner);
        let t = self.thread(owner);
        t.held.push(lock);
        t.refresh_snapshot();
        t.flush_cache();
    }

    /// Release `lock` and wake every thread blocked on it (barging: they
    /// re-compete when scheduled). Returns `false` on misuse (not owner).
    pub fn release_lock(&mut self, owner: ThreadId, lock: LockId) -> bool {
        if self.lock_owner[lock.index()] != Some(owner) {
            return false;
        }
        self.lock_owner[lock.index()] = None;
        {
            let t = self.thread(owner);
            t.held.retain(|l| *l != lock);
            t.refresh_snapshot();
            t.flush_cache(); // release is also a sync action
        }
        self.ready_all(BlockReason::Lock(lock));
        true
    }

    /// Atomic read-modify-write on the shared store; returns `(old, new)`.
    /// Atomics behave as volatile accesses, so `me`'s view is refreshed.
    pub fn rmw_var(&mut self, me: ThreadId, var: VarId, f: impl FnOnce(i64) -> i64) -> (i64, i64) {
        let old = self.vars[var.index()];
        let new = f(old);
        self.vars[var.index()] = new;
        self.threads[me.index()].cache.insert(var, new);
        (old, new)
    }

    /// Ready every thread blocked for `reason`.
    fn ready_all(&mut self, reason: BlockReason) {
        for i in 0..self.threads.len() {
            if self.threads[i].status == Status::Blocked(reason) {
                let t = ThreadId(i as u32);
                self.set_status(t, Status::Ready);
                self.readied.push(t);
            }
        }
    }

    /// Wake the longest waiter on `cond` (every waiter when `all`); a woken
    /// timed waiter counts as notified.
    pub fn notify(&mut self, cond: CondId, all: bool) {
        // Taken out and put back, so the queue keeps its capacity.
        let mut queue = std::mem::take(&mut self.cond_queues[cond.index()]);
        let n = if all { queue.len() } else { queue.len().min(1) };
        for t in queue.drain(..n) {
            self.threads[t.index()].timed_out = false;
            self.set_status(t, Status::Ready);
            self.readied.push(t);
        }
        self.cond_queues[cond.index()] = queue;
    }

    /// Return one permit to `sem` and ready every thread waiting for one
    /// (they re-compete for it).
    pub fn sem_release(&mut self, sem: SemId) {
        self.sem_permits[sem.index()] += 1;
        self.ready_all(BlockReason::Sem(sem));
    }

    /// `me` arrives at `barrier`. The last arriver readies the others and
    /// gets `true`; everyone else must block.
    pub fn barrier_arrive(&mut self, me: ThreadId, barrier: BarrierId) -> bool {
        let b = barrier.index();
        self.barrier_arrived[b].push(me);
        if self.barrier_arrived[b].len() as u32 != self.barrier_parties[b] {
            return false;
        }
        let mut arrived = std::mem::take(&mut self.barrier_arrived[b]);
        for t in arrived.drain(..) {
            if t != me {
                self.set_status(t, Status::Ready);
                self.readied.push(t);
            }
        }
        self.barrier_arrived[b] = arrived;
        true
    }

    /// `me` terminated: record it and ready its joiners.
    pub fn finish(&mut self, me: ThreadId) {
        self.set_status(me, Status::Finished);
        self.finish_order.push(me);
        self.ready_all(BlockReason::Join(me));
    }

    /// Threads waiting on a condition variable, timed or not, ascending.
    pub fn cond_waiters(&self) -> impl Iterator<Item = ThreadId> + '_ {
        (0..self.threads.len() as u32).map(ThreadId).filter(|t| {
            matches!(
                self.threads[t.index()].status,
                Status::Blocked(BlockReason::Cond(..) | BlockReason::CondTimed(..))
            )
        })
    }

    /// Wake condition waiter `t` without a notify: it leaves the queue and
    /// returns from its wait as if notified.
    pub fn wake_spuriously(&mut self, t: ThreadId) {
        if let Status::Blocked(BlockReason::Cond(c, _) | BlockReason::CondTimed(c, _, _)) =
            self.threads[t.index()].status
        {
            self.cond_queues[c.index()].retain(|q| *q != t);
            self.threads[t.index()].timed_out = false;
            self.set_status(t, Status::Ready);
        }
    }

    /// Earliest virtual time at which some sleeper/timed-waiter wakes.
    pub fn next_wake_time(&self) -> Option<u64> {
        self.threads
            .iter()
            .filter_map(|t| t.status.deadline())
            .min()
    }

    /// Advance time to `now`, waking due sleepers and timing out due timed
    /// waits, and list the threads that woke in `readied`. Returns how many
    /// woke. Before `now` reaches the deadline bound nothing can be due, so
    /// only then does it scan the threads, and it leaves the bound at the
    /// earliest deadline still pending.
    pub fn advance_time_to(&mut self, now: u64) -> usize {
        self.time = self.time.max(now);
        if now < self.deadline_bound {
            return 0;
        }
        let before = self.readied.len();
        let mut bound = u64::MAX;
        for i in 0..self.threads.len() {
            let t = ThreadId(i as u32);
            if self.wake_if_due(t, now) {
                self.readied.push(t);
            } else if let Some(at) = self.threads[i].status.deadline() {
                bound = bound.min(at);
            }
        }
        self.deadline_bound = bound;
        self.readied.len() - before
    }

    /// Ready `t` if its sleep or timed wait is due at `now`; a timed-out
    /// waiter leaves its condition queue. Returns whether it woke.
    pub fn wake_if_due(&mut self, t: ThreadId, now: u64) -> bool {
        let ts = &mut self.threads[t.index()];
        match ts.status {
            Status::Sleeping(at) if at <= now => {}
            Status::Blocked(BlockReason::CondTimed(c, _, at)) if at <= now => {
                ts.timed_out = true;
                self.cond_queues[c.index()].retain(|q| *q != t);
            }
            _ => return false,
        }
        self.set_status(t, Status::Ready);
        true
    }

    /// True when every thread has finished.
    pub fn all_finished(&self) -> bool {
        self.finish_order.len() == self.threads.len()
    }

    /// The deadlock rule both engines apply: no thread can run, none will
    /// wake on its own (no sleeper, no timed wait), and not all threads have
    /// finished. Only a running thread can ready a blocked one, so once this
    /// holds it holds forever.
    pub fn deadlocked(&self) -> bool {
        self.runnable.is_empty() && self.next_wake_time().is_none() && !self.all_finished()
    }

    /// The time rule both engines apply. While a thread is `Ready` or
    /// `Running` nothing changes. When none is, the run is deadlocked
    /// ([`Self::deadlocked`]) or over, or time jumps to
    /// [`Self::next_wake_time`] and the threads then due wake and are listed
    /// in `readied`. No program code runs while no thread can run, so the
    /// jump skips only time in which nothing could happen: the model's
    /// virtual clock and the native clock both take it.
    pub fn settle(&mut self) -> Settled {
        self.debug_check_kept();
        if !self.runnable.is_empty() {
            return Settled::Runnable;
        }
        if self.deadlocked() {
            return Settled::Deadlocked;
        }
        match self.next_wake_time() {
            Some(at) => {
                self.advance_time_to(at);
                Settled::Runnable
            }
            None => Settled::Over,
        }
    }

    /// Build the deadlock diagnostic for the current all-blocked state.
    pub fn deadlock_info(&self) -> DeadlockInfo {
        let mut waiting = Vec::new();
        // Each thread's successor when the resource it waits for has a
        // unique owner (locks, joins); used for cycle detection.
        let mut next: Vec<Option<ThreadId>> = vec![None; self.threads.len()];
        for (i, t) in self.threads.iter().enumerate() {
            let tid = ThreadId(i as u32);
            let reason = match t.status {
                Status::Blocked(r) => r,
                _ => continue,
            };
            let w = match reason {
                BlockReason::Lock(l) => {
                    let owner = self.lock_owner[l.index()];
                    next[i] = owner;
                    WaitEdge::Lock {
                        lock: self.lock_names[l.index()].clone(),
                        owner,
                    }
                }
                BlockReason::Cond(c, _) | BlockReason::CondTimed(c, _, _) => WaitEdge::Cond {
                    cond: self.cond_names[c.index()].clone(),
                },
                BlockReason::Sem(s) => WaitEdge::Sem {
                    sem: self.sem_names[s.index()].clone(),
                },
                BlockReason::Barrier(b) => WaitEdge::Barrier {
                    barrier: self.barrier_names[b.index()].clone(),
                },
                BlockReason::Join(target) => {
                    if self.threads[target.index()].status != Status::Finished {
                        next[i] = Some(target);
                    }
                    WaitEdge::Join { target }
                }
            };
            waiting.push((tid, w));
        }
        // Find a cycle in the single-successor graph by walking from each
        // thread in ascending id order (the graph is tiny; O(n²) worst case
        // is fine), and start it at its smallest thread, as
        // `mtt_deadlock::cycles` starts a lock cycle at its smallest lock:
        // one deadlocked state always reports the same cycle.
        let mut cycle = Vec::new();
        'outer: for start in 0..next.len() {
            let mut path = vec![ThreadId(start as u32)];
            while let Some(succ) = next[path[path.len() - 1].index()] {
                if let Some(pos) = path.iter().position(|p| *p == succ) {
                    cycle = path.split_off(pos);
                    let smallest = (0..cycle.len()).min_by_key(|&i| cycle[i]).unwrap_or(0);
                    cycle.rotate_left(smallest);
                    break 'outer;
                }
                path.push(succ);
            }
        }
        DeadlockInfo { waiting, cycle }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn model_with(vars: &[(&str, i64, bool)], locks: &[&str]) -> ModelState {
        let mut b = ProgramBuilder::new("m");
        for (n, init, vol) in vars {
            if *vol {
                b.var(*n, *init);
            } else {
                b.var_nonvolatile(*n, *init);
            }
        }
        for l in locks {
            b.lock(*l);
        }
        b.entry(|_| {});
        let p = b.build();
        let mut m = ModelState::for_program(&p);
        m.add_thread("t0".into());
        m.add_thread("t1".into());
        m
    }

    #[test]
    fn volatile_reads_always_fresh() {
        let mut m = model_with(&[("v", 0, true)], &[]);
        m.write_var(ThreadId(0), VarId(0), 5);
        assert_eq!(m.read_var(ThreadId(1), VarId(0)), 5);
    }

    #[test]
    fn nonvolatile_reads_can_be_stale_until_flush() {
        let mut m = model_with(&[("nv", 0, false)], &[]);
        // t1 caches the initial value.
        assert_eq!(m.read_var(ThreadId(1), VarId(0)), 0);
        // t0 writes; t1 still sees its cached 0.
        m.write_var(ThreadId(0), VarId(0), 9);
        assert_eq!(m.read_var(ThreadId(1), VarId(0)), 0);
        // t0 sees its own write (program order).
        assert_eq!(m.read_var(ThreadId(0), VarId(0)), 9);
        // After a sync action t1 observes the fresh value.
        m.thread(ThreadId(1)).flush_cache();
        assert_eq!(m.read_var(ThreadId(1), VarId(0)), 9);
    }

    #[test]
    fn lock_acquire_release_and_wakeup() {
        let mut m = model_with(&[], &["l"]);
        let l = LockId(0);
        m.acquire_lock(ThreadId(0), l);
        assert_eq!(m.lock_owner[0], Some(ThreadId(0)));
        assert_eq!(&*m.thread(ThreadId(0)).held_snapshot, &[l]);
        // t1 blocks on l.
        m.set_status(ThreadId(1), Status::Blocked(BlockReason::Lock(l)));
        assert!(m.release_lock(ThreadId(0), l));
        assert_eq!(m.thread(ThreadId(1)).status, Status::Ready);
        assert_eq!(m.readied, vec![ThreadId(1)]);
        assert!(m.thread(ThreadId(0)).held.is_empty());
        // misuse: releasing again fails.
        assert!(!m.release_lock(ThreadId(0), l));
    }

    #[test]
    fn runnable_collection_and_all_finished() {
        let mut m = model_with(&[], &[]);
        assert_eq!(m.runnable(), vec![ThreadId(0), ThreadId(1)]);
        m.finish(ThreadId(0));
        m.set_status(ThreadId(1), Status::Sleeping(10));
        assert!(m.runnable().is_empty());
        assert!(!m.all_finished());
        m.finish(ThreadId(1));
        assert!(m.all_finished());
    }

    #[test]
    fn time_advance_wakes_sleepers_and_timed_waits() {
        let mut m = model_with(&[], &["l"]);
        let mut b = ProgramBuilder::new("x");
        b.cond("c");
        // Manually extend the model with one condition.
        m.cond_names.push("c".into());
        m.cond_queues.push(vec![ThreadId(1)]);
        m.set_status(ThreadId(0), Status::Sleeping(5));
        m.set_status(
            ThreadId(1),
            Status::Blocked(BlockReason::CondTimed(CondId(0), LockId(0), 8)),
        );
        assert_eq!(m.next_wake_time(), Some(5));
        assert_eq!(m.advance_time_to(5), 1);
        assert_eq!(m.thread(ThreadId(0)).status, Status::Ready);
        assert_eq!(m.next_wake_time(), Some(8));
        assert_eq!(m.advance_time_to(8), 1);
        assert!(m.thread(ThreadId(1)).timed_out);
        assert!(m.cond_queues[0].is_empty());
        assert_eq!(m.time, 8);
    }

    #[test]
    fn deadlock_cycle_detection_ab_ba() {
        let mut m = model_with(&[], &["a", "b"]);
        m.acquire_lock(ThreadId(0), LockId(0));
        m.acquire_lock(ThreadId(1), LockId(1));
        m.set_status(ThreadId(0), Status::Blocked(BlockReason::Lock(LockId(1))));
        m.set_status(ThreadId(1), Status::Blocked(BlockReason::Lock(LockId(0))));
        let info = m.deadlock_info();
        assert!(info.is_cyclic());
        assert_eq!(info.waiting.len(), 2);
        assert_eq!(info.cycle, vec![ThreadId(0), ThreadId(1)]);
    }

    #[test]
    fn orphaned_cond_wait_is_noncyclic_deadlock() {
        let mut m = model_with(&[], &["l"]);
        m.cond_names.push("c".into());
        m.cond_queues.push(vec![ThreadId(0), ThreadId(1)]);
        m.set_status(
            ThreadId(0),
            Status::Blocked(BlockReason::Cond(CondId(0), LockId(0))),
        );
        m.set_status(
            ThreadId(1),
            Status::Blocked(BlockReason::Cond(CondId(0), LockId(0))),
        );
        let info = m.deadlock_info();
        assert!(!info.is_cyclic());
        assert_eq!(info.waiting.len(), 2);
        assert!(matches!(info.waiting[0].1, WaitEdge::Cond { .. }));
    }

    /// Block `waiters` on a new condition 0, each marked as if an earlier
    /// timed wait had expired.
    fn cond_waiters(m: &mut ModelState, waiters: &[u32]) {
        m.cond_names.push("c".into());
        m.cond_queues
            .push(waiters.iter().map(|&t| ThreadId(t)).collect());
        for &t in waiters {
            m.set_status(
                ThreadId(t),
                Status::Blocked(BlockReason::Cond(CondId(0), LockId(0))),
            );
            m.thread(ThreadId(t)).timed_out = true;
        }
    }

    #[test]
    fn notify_wakes_only_the_fifo_head_and_clears_timed_out() {
        let mut m = model_with(&[], &["l"]);
        m.add_thread("t2".into());
        cond_waiters(&mut m, &[2, 1]);
        m.notify(CondId(0), false);
        assert_eq!(m.thread(ThreadId(2)).status, Status::Ready);
        assert!(!m.thread(ThreadId(2)).timed_out);
        assert!(matches!(m.thread(ThreadId(1)).status, Status::Blocked(_)));
        assert_eq!(m.cond_queues[0], vec![ThreadId(1)]);
        assert_eq!(m.readied, vec![ThreadId(2)]);
    }

    #[test]
    fn notify_all_drains_the_queue() {
        let mut m = model_with(&[], &["l"]);
        cond_waiters(&mut m, &[0, 1]);
        m.notify(CondId(0), true);
        assert!(m.cond_queues[0].is_empty());
        for t in 0..2 {
            assert_eq!(m.thread(ThreadId(t)).status, Status::Ready);
            assert!(!m.thread(ThreadId(t)).timed_out);
        }
        assert_eq!(m.readied, vec![ThreadId(0), ThreadId(1)]);
        // Notifying an empty queue is a lost notification: nothing wakes.
        m.readied.clear();
        m.notify(CondId(0), false);
        assert!(m.readied.is_empty());
    }

    #[test]
    fn sem_release_readies_every_sem_waiter() {
        let mut m = model_with(&[], &["l"]);
        m.add_thread("t2".into());
        m.sem_names.push("s".into());
        m.sem_permits.push(0);
        let (s, l) = (SemId(0), LockId(0));
        m.set_status(ThreadId(0), Status::Blocked(BlockReason::Sem(s)));
        m.set_status(ThreadId(1), Status::Blocked(BlockReason::Sem(s)));
        m.set_status(ThreadId(2), Status::Blocked(BlockReason::Lock(l)));
        m.sem_release(s);
        assert_eq!(m.sem_permits[0], 1);
        assert_eq!(m.thread(ThreadId(0)).status, Status::Ready);
        assert_eq!(m.thread(ThreadId(1)).status, Status::Ready);
        assert_eq!(
            m.thread(ThreadId(2)).status,
            Status::Blocked(BlockReason::Lock(l))
        );
        assert_eq!(m.readied, vec![ThreadId(0), ThreadId(1)]);
    }

    #[test]
    fn last_barrier_arriver_readies_the_others() {
        let mut m = model_with(&[], &[]);
        m.add_thread("t2".into());
        m.barrier_names.push("b".into());
        m.barrier_parties.push(3);
        m.barrier_arrived.push(Vec::new());
        let b = BarrierId(0);
        for t in 0..2 {
            assert!(!m.barrier_arrive(ThreadId(t), b));
            m.set_status(ThreadId(t), Status::Blocked(BlockReason::Barrier(b)));
        }
        m.set_status(ThreadId(2), Status::Running);
        assert!(m.barrier_arrive(ThreadId(2), b));
        assert_eq!(m.thread(ThreadId(0)).status, Status::Ready);
        assert_eq!(m.thread(ThreadId(1)).status, Status::Ready);
        assert_eq!(m.thread(ThreadId(2)).status, Status::Running);
        assert_eq!(m.readied, vec![ThreadId(0), ThreadId(1)]);
        // The barrier is cyclic: the next round starts empty.
        assert!(m.barrier_arrived[0].is_empty());
    }

    #[test]
    fn thread_exit_readies_its_joiners() {
        let mut m = model_with(&[], &[]);
        m.add_thread("t2".into());
        let join = |t| Status::Blocked(BlockReason::Join(ThreadId(t)));
        m.set_status(ThreadId(0), join(1));
        m.set_status(ThreadId(2), join(0));
        m.finish(ThreadId(1));
        assert_eq!(m.thread(ThreadId(1)).status, Status::Finished);
        assert_eq!(m.finish_order, vec![ThreadId(1)]);
        assert_eq!(m.thread(ThreadId(0)).status, Status::Ready);
        assert_eq!(m.thread(ThreadId(2)).status, join(0));
        assert_eq!(m.readied, vec![ThreadId(0)]);
    }

    #[test]
    fn deadlock_rule_waits_for_sleepers_and_timed_waits() {
        let mut m = model_with(&[], &["l"]);
        let (c, l) = (CondId(0), LockId(0));
        cond_waiters(&mut m, &[0]);
        for (other, deadlocked) in [
            (Status::Ready, false),
            (Status::Running, false),
            (Status::Sleeping(5), false),
            (Status::Blocked(BlockReason::CondTimed(c, l, 5)), false),
            (Status::Blocked(BlockReason::Lock(l)), true),
            (Status::Finished, true),
        ] {
            match other {
                Status::Finished => m.finish(ThreadId(1)),
                _ => m.set_status(ThreadId(1), other),
            }
            assert_eq!(m.deadlocked(), deadlocked, "t0 waits, t1 {other:?}");
        }
        m.finish(ThreadId(0));
        assert!(!m.deadlocked(), "all finished is completion, not deadlock");
    }

    #[test]
    fn settle_jumps_the_clock_only_when_no_thread_can_run() {
        let mut m = model_with(&[], &["l"]);
        m.add_thread("t2".into());
        let (c, l) = (CondId(0), LockId(0));
        m.cond_names.push("c".into());
        m.cond_queues.push(vec![ThreadId(1)]);
        m.set_status(
            ThreadId(1),
            Status::Blocked(BlockReason::CondTimed(c, l, 30)),
        );
        m.set_status(ThreadId(2), Status::Sleeping(20));
        for other in [Status::Ready, Status::Running] {
            m.set_status(ThreadId(0), other);
            assert_eq!(m.settle(), Settled::Runnable, "t0 {other:?}");
            assert_eq!(m.time, 0, "a thread that can run holds the clock");
            assert!(m.readied.is_empty());
        }
        // Nobody can run: the clock jumps to the earliest deadline and wakes
        // exactly the thread due then.
        m.set_status(ThreadId(0), Status::Blocked(BlockReason::Lock(l)));
        assert_eq!(m.settle(), Settled::Runnable);
        assert_eq!((m.time, m.readied.clone()), (20, vec![ThreadId(2)]));
        assert_eq!(m.thread(ThreadId(2)).status, Status::Ready);
        assert_eq!(
            m.thread(ThreadId(1)).status,
            Status::Blocked(BlockReason::CondTimed(c, l, 30))
        );
        // A timed wait is a deadline too: it times out.
        m.readied.clear();
        m.finish(ThreadId(2));
        assert_eq!(m.settle(), Settled::Runnable);
        assert_eq!((m.time, m.readied.clone()), (30, vec![ThreadId(1)]));
        assert!(m.thread(ThreadId(1)).timed_out);
        assert!(m.cond_queues[0].is_empty());
        // With no deadline left the run is deadlocked, or over.
        m.set_status(ThreadId(1), Status::Blocked(BlockReason::Lock(l)));
        assert_eq!(m.settle(), Settled::Deadlocked);
        for t in 0..2 {
            m.finish(ThreadId(t));
        }
        assert_eq!(m.settle(), Settled::Over);
        assert_eq!(m.time, 30);
    }

    #[test]
    fn a_stale_deadline_bound_costs_one_scan_and_misses_no_wake() {
        let mut m = model_with(&[], &["l"]);
        let (c, l) = (CondId(0), LockId(0));
        m.cond_names.push("c".into());
        m.cond_queues.push(vec![ThreadId(0)]);
        m.set_status(
            ThreadId(0),
            Status::Blocked(BlockReason::CondTimed(c, l, 8)),
        );
        assert_eq!(m.deadline_bound, 8);
        // The notify removes the only deadline and leaves the bound low.
        m.notify(c, false);
        assert_eq!((m.next_wake_time(), m.deadline_bound), (None, 8));
        m.set_status(ThreadId(1), Status::Sleeping(20));
        assert_eq!(m.deadline_bound, 8, "a later deadline leaves it low");
        // The clock reaches the stale bound: the advance scans, wakes
        // nobody and tightens the bound to the one deadline left.
        assert_eq!(m.advance_time_to(10), 0);
        assert_eq!(m.deadline_bound, 20);
        assert_eq!(m.advance_time_to(19), 0);
        assert_eq!(m.advance_time_to(20), 1);
        assert_eq!(m.thread(ThreadId(1)).status, Status::Ready);
        assert_eq!(m.readied, vec![ThreadId(0), ThreadId(1)]);
        assert_eq!(m.deadline_bound, u64::MAX);
        m.debug_check_kept();
    }

    #[test]
    fn a_thread_reuses_the_snapshot_of_a_lock_set_it_held_before() {
        let mut m = model_with(&[], &["a", "b"]);
        let (t, a, b) = (ThreadId(0), LockId(0), LockId(1));
        let none = Arc::clone(&m.thread(t).held_snapshot);
        m.acquire_lock(t, a);
        let just_a = Arc::clone(&m.thread(t).held_snapshot);
        m.acquire_lock(t, b);
        assert_eq!(&*m.thread(t).held_snapshot, &[a, b]);
        assert!(m.release_lock(t, b));
        assert!(Arc::ptr_eq(&m.thread(t).held_snapshot, &just_a));
        assert!(m.release_lock(t, a));
        assert!(Arc::ptr_eq(&m.thread(t).held_snapshot, &none));
        m.acquire_lock(t, a);
        assert!(Arc::ptr_eq(&m.thread(t).held_snapshot, &just_a));
    }
}
