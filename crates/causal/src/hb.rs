//! Per-event happens-before annotation.
//!
//! [`HbAnnotator`] replays an event stream and stamps every event with the
//! vector clock of its thread *after* the event took effect, plus the
//! sequence numbers of the release-side events it synchronized with. The
//! sync edges are [`SyncClocks`]' table, the one the FastTrack detector in
//! `mtt-race` runs on too.
//!
//! Unlike the race detector — which ticks a thread's clock only at release
//! edges, the minimum FastTrack needs — the annotator ticks at *every*
//! event, so each event owns a distinct timestamp and the induced
//! happens-before relation is a strict partial order over events (the
//! property-tested contract of [`happens_before`]).

use crate::clock::VectorClock;
use crate::sync::SyncClocks;
use mtt_instrument::{Event, EventSink, Op, ThreadId};
use mtt_trace::Trace;

/// The causal annotation of one event: its vector-clock timestamp and the
/// incoming cross-thread synchronization edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CausalNote {
    /// Sequence number of the annotated event.
    pub seq: u64,
    /// Executing thread.
    pub thread: u32,
    /// The thread's vector clock after the event.
    pub clock: VectorClock,
    /// Sequence numbers of the release-side events this event acquired
    /// from, *when the acquisition taught the thread something new* — a
    /// re-acquire of a lock the thread itself just released produces no
    /// edge. Sorted, deduplicated; at most two entries (a `CondWake` joins
    /// both the lock and the condition clock).
    pub hb_from: Vec<u64>,
}

/// The full causal annotation of a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CausalAnnotations {
    /// One note per trace record, in record order.
    pub notes: Vec<CausalNote>,
    /// Sequence number of the first-failure event, when the trace contains
    /// one (see [`first_failure_seq`]).
    pub first_failure: Option<u64>,
}

impl CausalAnnotations {
    /// The note for a given sequence number, if present.
    pub fn note(&self, seq: u64) -> Option<&CausalNote> {
        self.notes.iter().find(|n| n.seq == seq)
    }
}

/// Does event `a` happen before event `b` under the annotated sync order?
///
/// Strict: `happens_before(a, a)` is false, and two causally unordered
/// events are ordered in neither direction.
pub fn happens_before(a: &CausalNote, b: &CausalNote) -> bool {
    a.seq != b.seq && a.clock.get(ThreadId(a.thread)) <= b.clock.get(ThreadId(a.thread))
}

/// Neither `happens_before(a, b)` nor `happens_before(b, a)`: the two
/// events are concurrent.
pub fn concurrent(a: &CausalNote, b: &CausalNote) -> bool {
    a.seq != b.seq && !happens_before(a, b) && !happens_before(b, a)
}

/// The trace's first-failure event:
///
/// 1. the first `AssertFail` record, when the program asserts; otherwise
/// 2. the last record tagged with a bug that *manifested* in this execution
///    (for value-oracle bugs such as a lost update, the failure becomes
///    visible at the final access of the damaged variable); otherwise
/// 3. `None` — the run passed.
pub fn first_failure_seq(trace: &Trace) -> Option<u64> {
    if let Some(r) = trace
        .records
        .iter()
        .find(|r| matches!(r.op, Op::AssertFail { .. }))
    {
        return Some(r.seq);
    }
    trace
        .records
        .iter()
        .rev()
        .find(|r| {
            r.bug_tags
                .iter()
                .any(|t| trace.meta.manifested_bugs.iter().any(|m| m == t))
        })
        .map(|r| r.seq)
}

/// Annotate a recorded trace: replay its records through an
/// [`HbAnnotator`] and attach the first-failure marker.
pub fn annotate_trace(trace: &Trace) -> CausalAnnotations {
    let mut hb = HbAnnotator::new();
    trace.feed(&mut hb);
    CausalAnnotations {
        notes: hb.notes,
        first_failure: first_failure_seq(trace),
    }
}

/// [`EventSink`] computing [`CausalNote`]s for a live or replayed stream.
#[derive(Default)]
pub struct HbAnnotator {
    sync: SyncClocks,
    /// Accumulated notes, in event order.
    pub notes: Vec<CausalNote>,
}

impl HbAnnotator {
    /// Fresh annotator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EventSink for HbAnnotator {
    fn on_event(&mut self, ev: &Event) {
        let me = ev.thread;
        let mut hb_from: Vec<u64> = self.sync.acquire(ev).into_iter().flatten().collect();
        self.sync.clock(me).tick(me);
        self.sync.release(ev);
        hb_from.sort_unstable();
        hb_from.dedup();
        self.notes.push(CausalNote {
            seq: ev.seq,
            thread: me.0,
            clock: self.sync.clock(me).clone(),
            hb_from,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtt_instrument::{CondId, Loc, LockId, VarId};
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

    fn notes_for(events: &[Event]) -> Vec<CausalNote> {
        let mut hb = HbAnnotator::new();
        for e in events {
            hb.on_event(e);
        }
        hb.notes
    }

    #[test]
    fn lock_handoff_creates_edge_with_source_seq() {
        let l = LockId(0);
        let notes = notes_for(&[
            ev(0, 0, Op::LockAcquire { lock: l }),
            ev(
                1,
                0,
                Op::VarWrite {
                    var: VarId(0),
                    value: 1,
                },
            ),
            ev(2, 0, Op::LockRelease { lock: l }),
            ev(3, 1, Op::LockAcquire { lock: l }),
            ev(
                4,
                1,
                Op::VarWrite {
                    var: VarId(0),
                    value: 2,
                },
            ),
        ]);
        // t1's acquire synchronized with t0's release (seq 2).
        assert_eq!(notes[3].hb_from, vec![2]);
        // The write before the release happens before the write after the
        // acquire; the two acquires of different threads stay ordered too.
        assert!(happens_before(&notes[1], &notes[4]));
        assert!(!happens_before(&notes[4], &notes[1]));
    }

    #[test]
    fn reacquire_by_same_thread_is_not_an_edge() {
        let l = LockId(0);
        let notes = notes_for(&[
            ev(0, 0, Op::LockAcquire { lock: l }),
            ev(1, 0, Op::LockRelease { lock: l }),
            ev(2, 0, Op::LockAcquire { lock: l }),
        ]);
        assert!(notes[2].hb_from.is_empty(), "self-handoff is not an arrow");
    }

    #[test]
    fn unsynchronized_events_are_concurrent() {
        let notes = notes_for(&[
            ev(
                0,
                0,
                Op::VarWrite {
                    var: VarId(0),
                    value: 0,
                },
            ),
            ev(
                1,
                1,
                Op::VarWrite {
                    var: VarId(0),
                    value: 1,
                },
            ),
        ]);
        assert!(concurrent(&notes[0], &notes[1]));
        assert!(!happens_before(&notes[0], &notes[0]), "irreflexive");
    }

    #[test]
    fn spawn_start_exit_join_chain() {
        let notes = notes_for(&[
            ev(0, 0, Op::Spawn { child: ThreadId(1) }),
            ev(1, 1, Op::ThreadStart),
            ev(2, 1, Op::ThreadExit),
            ev(
                3,
                0,
                Op::Join {
                    target: ThreadId(1),
                },
            ),
        ]);
        assert_eq!(notes[1].hb_from, vec![0]);
        assert_eq!(notes[3].hb_from, vec![2]);
        assert!(happens_before(&notes[0], &notes[2]));
        assert!(happens_before(&notes[2], &notes[3]));
    }

    #[test]
    fn notify_wake_joins_cond_and_lock() {
        let (c, l) = (CondId(0), LockId(0));
        let notes = notes_for(&[
            ev(0, 0, Op::LockAcquire { lock: l }),
            ev(1, 0, Op::CondWait { cond: c, lock: l }),
            ev(2, 1, Op::LockAcquire { lock: l }),
            ev(
                3,
                1,
                Op::CondNotify {
                    cond: c,
                    all: false,
                },
            ),
            ev(4, 1, Op::LockRelease { lock: l }),
            ev(5, 0, Op::CondWake { cond: c, lock: l }),
        ]);
        // The wake synchronizes with the lock release; the notify's clock
        // is already contained in it (same releasing thread), so only the
        // informative edge is recorded — yet the notify is still ordered
        // before the wake.
        assert_eq!(notes[5].hb_from, vec![4]);
        assert!(happens_before(&notes[3], &notes[5]));
    }

    #[test]
    fn program_order_is_happens_before() {
        let notes = notes_for(&[
            ev(0, 0, Op::Yield),
            ev(1, 0, Op::Yield),
            ev(2, 0, Op::Yield),
        ]);
        assert!(happens_before(&notes[0], &notes[1]));
        assert!(happens_before(&notes[1], &notes[2]));
        assert!(happens_before(&notes[0], &notes[2]));
    }

    #[test]
    fn rmw_chains_order_atomics() {
        let rmw = |seq, t| {
            ev(
                seq,
                t,
                Op::VarRmw {
                    var: VarId(0),
                    old: 0,
                    new: 1,
                },
            )
        };
        let notes = notes_for(&[rmw(0, 0), rmw(1, 1)]);
        assert_eq!(notes[1].hb_from, vec![0]);
        assert!(happens_before(&notes[0], &notes[1]));
    }
}
