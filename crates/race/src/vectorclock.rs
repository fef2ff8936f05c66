//! Happens-before race detection with vector clocks and FastTrack-style
//! epoch fast paths.
//!
//! The detector tracks the happens-before order induced by the model's
//! synchronization operations — the table of [`mtt_causal::SyncClocks`],
//! which the causal annotator and the schedule fingerprint run on too — and
//! reports two accesses to the same variable as a race exactly when neither
//! happens before the other and at least one writes. Unlike the lockset
//! approach it never reports a false alarm for the *observed* execution;
//! the price is that races the observed interleaving happened to order go
//! unreported — precisely the precision/recall trade that experiment E2
//! measures.

use crate::warning::{AccessInfo, RaceWarning};
use mtt_causal::SyncClocks;
use mtt_instrument::{AccessKind, Event, EventSink, Op, ThreadId, VarId};
use std::collections::{BTreeMap, HashMap};

// The vector-clock lattice itself lives in `mtt-causal` (one
// implementation shared with the trace annotator); re-exported here so the
// detector's public API is unchanged.
pub use mtt_causal::VectorClock;

/// A FastTrack epoch: one (thread, clock) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Epoch {
    thread: ThreadId,
    clock: u32,
}

impl Epoch {
    /// Does the epoch happen before (≤) the clock `vc`?
    #[inline]
    fn le(self, vc: &VectorClock) -> bool {
        self.clock <= vc.get(self.thread)
    }
}

/// Read metadata per variable: a single epoch in the common case, widened
/// to a full clock only under concurrent read-sharing (FastTrack's adaptive
/// representation). The clock's readers are ordered by thread, so a write
/// that races several of them reports the lowest-numbered one, the same in
/// every process.
#[derive(Clone, Debug)]
enum ReadState {
    None,
    Epoch(Epoch, AccessInfo),
    Clock(VectorClock, BTreeMap<ThreadId, AccessInfo>),
}

#[derive(Clone, Debug)]
struct VarMeta {
    write: Option<(Epoch, AccessInfo)>,
    reads: ReadState,
    reported: bool,
}

impl Default for VarMeta {
    fn default() -> Self {
        VarMeta {
            write: None,
            reads: ReadState::None,
            reported: false,
        }
    }
}

/// Online/offline happens-before race detector.
#[derive(Debug, Default)]
pub struct VectorClockDetector {
    sync: SyncClocks,
    vars: HashMap<VarId, VarMeta>,
    /// Accumulated warnings (at most one per variable).
    pub warnings: Vec<RaceWarning>,
    /// Number of accesses handled by the O(1) same-epoch fast path (a
    /// FastTrack effectiveness statistic surfaced in the benches).
    pub fast_path_hits: u64,
}

impl VectorClockDetector {
    /// Fresh detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct variables warned about.
    pub fn warning_count(&self) -> usize {
        self.warnings.len()
    }

    fn on_read(&mut self, ev: &Event, var: VarId) {
        let me = ev.thread;
        let my_clock = self.sync.clock(me);
        let epoch = Epoch {
            thread: me,
            clock: my_clock.get(me),
        };
        let access = AccessInfo {
            thread: me,
            loc: ev.loc,
            kind: AccessKind::Read,
        };
        let meta = self.vars.entry(var).or_default();

        // Same-epoch read: nothing can have changed.
        if let ReadState::Epoch(e, _) = meta.reads {
            if e == epoch {
                self.fast_path_hits += 1;
                return;
            }
        }

        // write-read race?
        if let Some((w, winfo)) = meta.write {
            if w.thread != me && !w.le(my_clock) {
                let why = "read is concurrent with a prior write";
                report(&mut self.warnings, meta, var, winfo, access, why);
                return;
            }
        }

        // Record the read.
        match &mut meta.reads {
            ReadState::None => meta.reads = ReadState::Epoch(epoch, access),
            ReadState::Epoch(e, info) => {
                if e.thread == me {
                    *e = epoch;
                    *info = access;
                } else if e.le(my_clock) {
                    // Previous read ordered before us: epoch can be replaced.
                    *e = epoch;
                    *info = access;
                } else {
                    // Concurrent readers: widen to a clock.
                    let mut vc = VectorClock::new();
                    vc.set(e.thread, e.clock);
                    vc.set(me, epoch.clock);
                    let mut infos = BTreeMap::new();
                    infos.insert(e.thread, *info);
                    infos.insert(me, access);
                    meta.reads = ReadState::Clock(vc, infos);
                }
            }
            ReadState::Clock(vc, infos) => {
                vc.set(me, epoch.clock);
                infos.insert(me, access);
            }
        }
    }

    fn on_write(&mut self, ev: &Event, var: VarId) {
        let me = ev.thread;
        let my_clock = self.sync.clock(me);
        let epoch = Epoch {
            thread: me,
            clock: my_clock.get(me),
        };
        let access = AccessInfo {
            thread: me,
            loc: ev.loc,
            kind: AccessKind::Write,
        };
        let meta = self.vars.entry(var).or_default();

        if let Some((w, winfo)) = meta.write {
            // Same-epoch write fast path.
            if w == epoch {
                self.fast_path_hits += 1;
                return;
            }
            // write-write race?
            if w.thread != me && !w.le(my_clock) {
                let why = "two concurrent writes";
                report(&mut self.warnings, meta, var, winfo, access, why);
                return;
            }
        }
        // read-write race?
        let conflict = match &meta.reads {
            ReadState::None => None,
            ReadState::Epoch(e, info) => (e.thread != me && !e.le(my_clock)).then_some(*info),
            ReadState::Clock(vc, infos) => {
                if vc.le(my_clock) {
                    None
                } else {
                    infos
                        .iter()
                        .find(|(t, _)| **t != me && vc.get(**t) > my_clock.get(**t))
                        .map(|(_, info)| *info)
                }
            }
        };
        if let Some(rinfo) = conflict {
            let why = "write is concurrent with a prior read";
            report(&mut self.warnings, meta, var, rinfo, access, why);
            return;
        }

        meta.write = Some((epoch, access));
        meta.reads = ReadState::None; // FastTrack: writes clear read state
    }
}

/// Warn about `var`, whose metadata is `meta`, unless it was warned about
/// before: at most one warning per variable.
fn report(
    warnings: &mut Vec<RaceWarning>,
    meta: &mut VarMeta,
    var: VarId,
    first: AccessInfo,
    second: AccessInfo,
    why: &str,
) {
    if meta.reported {
        return;
    }
    meta.reported = true;
    warnings.push(RaceWarning {
        var,
        first,
        second,
        detector: "vector-clock",
        detail: why.to_string(),
    });
}

impl EventSink for VectorClockDetector {
    fn on_event(&mut self, ev: &Event) {
        match ev.op {
            Op::VarRead { var, .. } => self.on_read(ev, var),
            Op::VarWrite { var, .. } => self.on_write(ev, var),
            // FastTrack ticks a thread only after it releases, so accesses
            // between two releases share one epoch (the fast path); the tick
            // after `ThreadExit` is harmless, as the thread has no later
            // events. Atomic RMWs acquire from and release into their
            // variable's clock: atomics order each other and never race.
            _ => {
                self.sync.acquire(ev);
                if self.sync.release(ev) {
                    self.sync.clock(ev.thread).tick(ev.thread);
                }
            }
        }
    }

    fn has_findings(&self) -> bool {
        !self.warnings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtt_instrument::{CondId, Loc, LockId, SemId};
    use std::sync::Arc;

    fn ev(seq: u64, thread: u32, op: Op) -> Event {
        Event {
            seq,
            time: seq,
            thread: ThreadId(thread),
            loc: Loc::new("p", seq as u32 + 1),
            op,
            locks_held: Arc::from(Vec::<LockId>::new()),
        }
    }

    fn read(seq: u64, t: u32, v: u32) -> Event {
        ev(
            seq,
            t,
            Op::VarRead {
                var: VarId(v),
                value: 0,
            },
        )
    }

    fn write(seq: u64, t: u32, v: u32) -> Event {
        ev(
            seq,
            t,
            Op::VarWrite {
                var: VarId(v),
                value: 0,
            },
        )
    }

    #[test]
    fn vector_clock_algebra() {
        let mut a = VectorClock::new();
        a.set(ThreadId(0), 3);
        let mut b = VectorClock::new();
        b.set(ThreadId(1), 2);
        assert!(!a.le(&b));
        assert!(!b.le(&a));
        let mut j = a.clone();
        j.join(&b);
        assert!(a.le(&j) && b.le(&j));
        assert_eq!(j.get(ThreadId(0)), 3);
        assert_eq!(j.get(ThreadId(1)), 2);
        assert_eq!(j.get(ThreadId(9)), 0);
        assert_eq!(j.tick(ThreadId(9)), 1);
    }

    #[test]
    fn unordered_writes_race() {
        let mut d = VectorClockDetector::new();
        d.on_event(&write(0, 0, 0));
        d.on_event(&write(1, 1, 0));
        assert_eq!(d.warning_count(), 1);
        assert!(d.warnings[0].detail.contains("concurrent"));
    }

    #[test]
    fn lock_ordered_writes_do_not_race() {
        let mut d = VectorClockDetector::new();
        let l = LockId(0);
        d.on_event(&ev(0, 0, Op::LockAcquire { lock: l }));
        d.on_event(&write(1, 0, 0));
        d.on_event(&ev(2, 0, Op::LockRelease { lock: l }));
        d.on_event(&ev(3, 1, Op::LockAcquire { lock: l }));
        d.on_event(&write(4, 1, 0));
        d.on_event(&ev(5, 1, Op::LockRelease { lock: l }));
        assert_eq!(d.warning_count(), 0);
    }

    #[test]
    fn spawn_and_join_order_accesses() {
        let mut d = VectorClockDetector::new();
        d.on_event(&write(0, 0, 0)); // parent writes
        d.on_event(&ev(1, 0, Op::Spawn { child: ThreadId(1) }));
        d.on_event(&ev(2, 1, Op::ThreadStart));
        d.on_event(&write(3, 1, 0)); // child writes after inheriting
        d.on_event(&ev(4, 1, Op::ThreadExit));
        d.on_event(&ev(
            5,
            0,
            Op::Join {
                target: ThreadId(1),
            },
        ));
        d.on_event(&write(6, 0, 0)); // parent writes after join
        assert_eq!(d.warning_count(), 0);
    }

    #[test]
    fn concurrent_read_write_races() {
        let mut d = VectorClockDetector::new();
        d.on_event(&read(0, 0, 0));
        d.on_event(&write(1, 1, 0));
        assert_eq!(d.warning_count(), 1);
        assert!(d.warnings[0].detail.contains("read"));
    }

    #[test]
    fn read_sharing_alone_is_not_a_race() {
        let mut d = VectorClockDetector::new();
        d.on_event(&read(0, 0, 0));
        d.on_event(&read(1, 1, 0));
        d.on_event(&read(2, 2, 0));
        assert_eq!(d.warning_count(), 0);
    }

    #[test]
    fn widened_read_clock_catches_all_concurrent_readers() {
        let mut d = VectorClockDetector::new();
        d.on_event(&read(0, 0, 0));
        d.on_event(&read(1, 1, 0)); // widens to clock
        d.on_event(&write(2, 2, 0)); // unordered with both readers
        assert_eq!(d.warning_count(), 1);
    }

    #[test]
    fn widened_read_clock_reports_the_lowest_numbered_reader() {
        let mut d = VectorClockDetector::new();
        d.on_event(&read(0, 2, 0));
        d.on_event(&read(1, 1, 0)); // widens to clock
        d.on_event(&write(2, 3, 0)); // unordered with both readers
        assert_eq!(d.warnings[0].first.thread, ThreadId(1));
    }

    #[test]
    fn notify_wake_creates_order() {
        let mut d = VectorClockDetector::new();
        let (c, l) = (CondId(0), LockId(0));
        // t0 writes, then waits; t1 writes (while t0 waits) then notifies.
        d.on_event(&ev(0, 0, Op::LockAcquire { lock: l }));
        d.on_event(&write(1, 0, 0));
        d.on_event(&ev(2, 0, Op::CondWait { cond: c, lock: l }));
        d.on_event(&ev(3, 1, Op::LockAcquire { lock: l }));
        d.on_event(&write(4, 1, 0)); // ordered via lock: no race
        d.on_event(&ev(
            5,
            1,
            Op::CondNotify {
                cond: c,
                all: false,
            },
        ));
        d.on_event(&ev(6, 1, Op::LockRelease { lock: l }));
        d.on_event(&ev(7, 0, Op::CondWake { cond: c, lock: l }));
        d.on_event(&write(8, 0, 0)); // ordered via notify/wake + lock
        assert_eq!(d.warning_count(), 0);
    }

    #[test]
    fn semaphore_edges_order_accesses() {
        let mut d = VectorClockDetector::new();
        let s = SemId(0);
        d.on_event(&write(0, 0, 0));
        d.on_event(&ev(1, 0, Op::SemRelease { sem: s }));
        d.on_event(&ev(2, 1, Op::SemAcquire { sem: s }));
        d.on_event(&write(3, 1, 0));
        assert_eq!(d.warning_count(), 0);
    }

    #[test]
    fn barrier_orders_phases() {
        let mut d = VectorClockDetector::new();
        let b = mtt_instrument::BarrierId(0);
        d.on_event(&write(0, 0, 0));
        d.on_event(&ev(1, 0, Op::BarrierArrive { barrier: b }));
        d.on_event(&ev(2, 1, Op::BarrierArrive { barrier: b }));
        d.on_event(&ev(3, 0, Op::BarrierPass { barrier: b }));
        d.on_event(&ev(4, 1, Op::BarrierPass { barrier: b }));
        d.on_event(&write(5, 1, 0));
        assert_eq!(d.warning_count(), 0);
    }

    #[test]
    fn fast_path_hits_on_repeated_access() {
        let mut d = VectorClockDetector::new();
        d.on_event(&write(0, 0, 0));
        d.on_event(&write(1, 0, 0));
        d.on_event(&write(2, 0, 0));
        d.on_event(&read(3, 0, 1));
        d.on_event(&read(4, 0, 1));
        assert!(d.fast_path_hits >= 3, "hits = {}", d.fast_path_hits);
        assert_eq!(d.warning_count(), 0);
    }

    #[test]
    fn only_a_release_starts_a_new_epoch() {
        let mut d = VectorClockDetector::new();
        let l = LockId(0);
        d.on_event(&write(0, 0, 0));
        d.on_event(&write(1, 0, 0)); // same epoch: fast path
        d.on_event(&ev(2, 0, Op::LockAcquire { lock: l }));
        d.on_event(&write(3, 0, 0)); // an acquire does not tick: fast path
        d.on_event(&ev(4, 0, Op::LockRelease { lock: l }));
        d.on_event(&write(5, 0, 0)); // the release ticked: slow path
        assert_eq!(d.fast_path_hits, 2);
    }

    #[test]
    fn one_warning_per_variable() {
        let mut d = VectorClockDetector::new();
        d.on_event(&write(0, 0, 0));
        d.on_event(&write(1, 1, 0));
        d.on_event(&write(2, 2, 0));
        d.on_event(&write(3, 0, 1));
        d.on_event(&write(4, 1, 1));
        assert_eq!(d.warning_count(), 2);
    }

    #[test]
    fn hb_misses_lockset_style_latent_race() {
        // Two writes ordered by *different* locks via an interleaving that
        // orders them: HB stays silent (no false alarm for this execution),
        // while Eraser would flag the missing common lock.
        let mut d = VectorClockDetector::new();
        let (l1, l2) = (LockId(1), LockId(2));
        d.on_event(&ev(0, 0, Op::LockAcquire { lock: l1 }));
        d.on_event(&write(1, 0, 0));
        d.on_event(&ev(2, 0, Op::LockRelease { lock: l1 }));
        // Artificial order: t1 acquires l1 too (creating HB), then uses l2.
        d.on_event(&ev(3, 1, Op::LockAcquire { lock: l1 }));
        d.on_event(&ev(4, 1, Op::LockRelease { lock: l1 }));
        d.on_event(&ev(5, 1, Op::LockAcquire { lock: l2 }));
        d.on_event(&write(6, 1, 0));
        d.on_event(&ev(7, 1, Op::LockRelease { lock: l2 }));
        assert_eq!(d.warning_count(), 0, "HB correctly silent here");
    }
}
