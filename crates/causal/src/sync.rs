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
use mtt_instrument::{Event, Op, ThreadId};
use std::collections::HashMap;

/// A resource a release edge flows through.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Resource {
    Lock(u32),
    Cond(u32),
    Sem(u32),
    Barrier(u32),
    /// Per-variable sync clock of atomic RMW chains.
    Atomic(u32),
    /// Spawn→start handoff to a child thread.
    Start(u32),
    /// Exit→join handoff from a finished thread.
    Exit(u32),
}

/// The resources `ev` acquires from, in join order.
fn acquires(ev: &Event) -> [Option<Resource>; 2] {
    let one = |r| [Some(r), None];
    match ev.op {
        Op::LockAcquire { lock } => one(Resource::Lock(lock.0)),
        Op::CondWake { cond, lock } => [Some(Resource::Lock(lock.0)), Some(Resource::Cond(cond.0))],
        Op::SemAcquire { sem } => one(Resource::Sem(sem.0)),
        Op::BarrierPass { barrier } => one(Resource::Barrier(barrier.0)),
        Op::VarRmw { var, .. } => one(Resource::Atomic(var.0)),
        Op::ThreadStart => one(Resource::Start(ev.thread.0)),
        Op::Join { target } => one(Resource::Exit(target.0)),
        _ => [None, None],
    }
}

/// The resource `ev` releases into.
fn releases(ev: &Event) -> Option<Resource> {
    match ev.op {
        Op::LockRelease { lock } | Op::CondWait { lock, .. } => Some(Resource::Lock(lock.0)),
        Op::CondNotify { cond, .. } => Some(Resource::Cond(cond.0)),
        Op::SemRelease { sem } => Some(Resource::Sem(sem.0)),
        Op::BarrierArrive { barrier } => Some(Resource::Barrier(barrier.0)),
        Op::VarRmw { var, .. } => Some(Resource::Atomic(var.0)),
        Op::Spawn { child } => Some(Resource::Start(child.0)),
        Op::ThreadExit => Some(Resource::Exit(ev.thread.0)),
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
    threads: HashMap<ThreadId, VectorClock>,
    resources: HashMap<Resource, Released>,
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
        for (slot, key) in from.iter_mut().zip(acquires(ev)) {
            let Some(key) = key else { break };
            // Only the child's start reads a spawn's clock.
            let consumed = match key {
                Resource::Start(_) => self.resources.remove(&key),
                _ => None,
            };
            let Some(src) = consumed.as_ref().or_else(|| self.resources.get(&key)) else {
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
        let Some(key) = releases(ev) else {
            return false;
        };
        let tc = thread_clock(&mut self.threads, ev.thread);
        let r = self.resources.entry(key).or_default();
        r.clock.join(tc);
        r.last = ev.seq;
        true
    }
}

fn thread_clock(threads: &mut HashMap<ThreadId, VectorClock>, t: ThreadId) -> &mut VectorClock {
    threads.entry(t).or_insert_with(|| {
        let mut vc = VectorClock::new();
        vc.set(t, 1);
        vc
    })
}
