//! The model's synchronization order, written once.
//!
//! [`SyncClocks`] replays the release→acquire edges of an event stream over
//! one vector clock per thread and one per synchronization resource. Its
//! table is the only statement of which op synchronizes with which; the
//! causal annotator ([`crate::hb::HbAnnotator`]), the schedule fingerprint
//! ([`crate::fingerprint::Fingerprinter`]) and `mtt-race`'s FastTrack
//! `VectorClockDetector` all run on it, so a timeline arrow, a fingerprint
//! dependence and a race verdict see the same happens-before relation. The
//! consumers differ only in when they tick a thread's clock and in what
//! they add between the acquire and the release.
//!
//! | release → acquire | through |
//! |---|---|
//! | `LockRelease`, `CondWait` → `LockAcquire`, `CondWake` | the lock |
//! | `CondNotify` → `CondWake` (after joining the lock) | the condition |
//! | `SemRelease` → `SemAcquire` | the semaphore |
//! | `BarrierArrive` → `BarrierPass` | the barrier |
//! | `VarRmw` → `VarRmw` (each acquires, then releases) | the variable's sync clock |
//! | `Spawn` → the child's `ThreadStart`, which consumes it | the child's start clock |
//! | `ThreadExit` → `Join` | the thread's exit clock |

use crate::clock::VectorClock;
use crate::table::IdTable;
use mtt_instrument::{Event, Op, ThreadId};

/// The kinds of resource a release edge flows through; each kind has a
/// table of its own, indexed by the resource's id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Lock,
    Cond,
    Sem,
    Barrier,
    /// Per-variable sync clock of atomic RMW chains.
    Atomic,
    /// Spawn→start handoff to a child thread.
    Start,
    /// Exit→join handoff from a finished thread.
    Exit,
}

const KINDS: usize = Kind::Exit as usize + 1;

/// A resource: its kind and the id of the lock, condition, semaphore,
/// barrier, variable or thread.
type Resource = (Kind, u32);

/// The resources `ev` acquires from, in join order.
fn acquires(ev: &Event) -> [Option<Resource>; 2] {
    let one = |r| [Some(r), None];
    match ev.op {
        Op::LockAcquire { lock } => one((Kind::Lock, lock.0)),
        Op::CondWake { cond, lock } => [Some((Kind::Lock, lock.0)), Some((Kind::Cond, cond.0))],
        Op::SemAcquire { sem } => one((Kind::Sem, sem.0)),
        Op::BarrierPass { barrier } => one((Kind::Barrier, barrier.0)),
        Op::VarRmw { var, .. } => one((Kind::Atomic, var.0)),
        Op::ThreadStart => one((Kind::Start, ev.thread.0)),
        Op::Join { target } => one((Kind::Exit, target.0)),
        _ => [None, None],
    }
}

/// The resource `ev` releases into.
fn releases(ev: &Event) -> Option<Resource> {
    match ev.op {
        Op::LockRelease { lock } | Op::CondWait { lock, .. } => Some((Kind::Lock, lock.0)),
        Op::CondNotify { cond, .. } => Some((Kind::Cond, cond.0)),
        Op::SemRelease { sem } => Some((Kind::Sem, sem.0)),
        Op::BarrierArrive { barrier } => Some((Kind::Barrier, barrier.0)),
        Op::VarRmw { var, .. } => Some((Kind::Atomic, var.0)),
        Op::Spawn { child } => Some((Kind::Start, child.0)),
        Op::ThreadExit => Some((Kind::Exit, ev.thread.0)),
        _ => None,
    }
}

/// The joined clock of every release into one resource, and the sequence
/// number of the latest of them.
#[derive(Clone, Debug, Default)]
struct Released {
    clock: VectorClock,
    last: u64,
}

/// Vector clocks per thread and per synchronization resource, advanced
/// along the model's synchronization order (the table in the module doc).
///
/// A consumer calls [`acquire`](Self::acquire) and
/// [`release`](Self::release) for every event and ticks the thread's
/// [`clock`](Self::clock) where its algorithm needs: a release publishes
/// the thread's clock as it stands at that call.
#[derive(Clone, Debug, Default)]
pub struct SyncClocks {
    threads: IdTable<VectorClock>,
    /// One table per [`Kind`].
    resources: [IdTable<Released>; KINDS],
}

impl SyncClocks {
    /// The clock of thread `t`. A thread's clock starts at 1 in its own
    /// component.
    pub fn clock(&mut self, t: ThreadId) -> &mut VectorClock {
        thread_clock(&mut self.threads, t)
    }

    /// Acquire side of `ev`: join every clock it synchronizes with into its
    /// thread's clock. Returns, per join, the sequence number of the latest
    /// release behind it when the join taught the thread something new —
    /// a thread re-acquiring a lock it just released itself gets `None`.
    pub fn acquire(&mut self, ev: &Event) -> [Option<u64>; 2] {
        let mut from = [None; 2];
        for (slot, res) in from.iter_mut().zip(acquires(ev)) {
            let Some((kind, id)) = res else { break };
            let table = &mut self.resources[kind as usize];
            // Only the child's start reads a spawn's clock.
            let consumed = match kind {
                Kind::Start => table.take(id),
                _ => None,
            };
            let Some(src) = consumed.as_ref().or_else(|| table.get(id)) else {
                continue;
            };
            let tc = thread_clock(&mut self.threads, ev.thread);
            if !src.clock.le(tc) {
                *slot = Some(src.last);
            }
            tc.join(&src.clock);
        }
        from
    }

    /// Release side of `ev`: join its thread's clock into the resource it
    /// releases into. Returns whether `ev` releases at all.
    pub fn release(&mut self, ev: &Event) -> bool {
        let Some((kind, id)) = releases(ev) else {
            return false;
        };
        let tc = thread_clock(&mut self.threads, ev.thread);
        let r = self.resources[kind as usize].get_or_insert_with(id, Released::default);
        r.clock.join(tc);
        r.last = ev.seq;
        true
    }
}

fn thread_clock(threads: &mut IdTable<VectorClock>, t: ThreadId) -> &mut VectorClock {
    threads.get_or_insert_with(t.0, || {
        let mut vc = VectorClock::new();
        vc.set(t, 1);
        vc
    })
}
