//! The Eraser lockset algorithm (Savage et al. 1997, the paper's \[30\]).
//!
//! Invariant checked: every shared variable is protected by some lock held
//! on *every* access. Per variable the detector refines a candidate set
//! `C(v)` — the locks held at every access so far — and walks the classic
//! state machine:
//!
//! ```text
//! Virgin ──first write──► Exclusive(t) ──read by t'──► Shared
//!                              │                          │write
//!                              └──────write by t'──► SharedModified
//! ```
//!
//! `C(v)` is only refined (intersected) once the variable leaves
//! `Exclusive`, and emptiness is only reported in `SharedModified` —
//! read-sharing with no lock is benign. One warning is reported per
//! variable (the first time `C(v)` empties), which matches how Eraser-class
//! tools deduplicate their output.

use crate::warning::{AccessInfo, RaceWarning};
use mtt_causal::IdTable;
use mtt_instrument::{AccessKind, Event, EventSink, LockId, ThreadId, VarId};

#[derive(Clone, Debug, PartialEq, Eq)]
enum State {
    Virgin,
    Exclusive(ThreadId),
    Shared,
    SharedModified,
}

#[derive(Clone, Debug)]
struct VarState {
    state: State,
    /// Candidate lockset; `None` = not yet initialized (still Exclusive).
    candidates: Option<Vec<LockId>>,
    /// Most recent access, as warning evidence.
    last: Option<AccessInfo>,
    reported: bool,
}

impl Default for VarState {
    fn default() -> Self {
        VarState {
            state: State::Virgin,
            candidates: None,
            last: None,
            reported: false,
        }
    }
}

/// Online/offline Eraser-style lockset race detector.
#[derive(Debug, Default)]
pub struct EraserLockset {
    /// State per variable, by id.
    vars: IdTable<VarState>,
    /// Accumulated warnings.
    pub warnings: Vec<RaceWarning>,
}

impl EraserLockset {
    /// Fresh detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct variables warned about.
    pub fn warning_count(&self) -> usize {
        self.warnings.len()
    }

    /// The candidate lockset currently associated with `var` (for tests and
    /// diagnostics). `None` when the variable is still thread-exclusive.
    pub fn candidates(&self, var: VarId) -> Option<&[LockId]> {
        self.vars.get(var.0)?.candidates.as_deref()
    }

    fn on_access(&mut self, ev: &Event, var: VarId, kind: AccessKind) {
        let vs = self.vars.get_or_insert_with(var.0, VarState::default);
        let me = ev.thread;
        let access = AccessInfo {
            thread: me,
            loc: ev.loc,
            kind,
        };

        // State transitions.
        let new_state = match (&vs.state, kind) {
            (State::Virgin, AccessKind::Read) => State::Exclusive(me),
            (State::Virgin, AccessKind::Write) => State::Exclusive(me),
            (State::Exclusive(t), _) if *t == me => State::Exclusive(me),
            (State::Exclusive(_), AccessKind::Read) => State::Shared,
            (State::Exclusive(_), AccessKind::Write) => State::SharedModified,
            (State::Shared, AccessKind::Read) => State::Shared,
            (State::Shared, AccessKind::Write) => State::SharedModified,
            (State::SharedModified, _) => State::SharedModified,
        };

        let was_exclusive = matches!(vs.state, State::Virgin | State::Exclusive(_));
        let is_shared_now = matches!(new_state, State::Shared | State::SharedModified);

        if is_shared_now {
            let held = &ev.locks_held;
            match &mut vs.candidates {
                None => {
                    // First shared access: initialize C(v) to the locks held
                    // now (Eraser initializes to "all locks" and intersects
                    // immediately — equivalent).
                    vs.candidates = Some(held.to_vec());
                }
                Some(c) => {
                    c.retain(|l| held.contains(l));
                }
            }
            let empty = vs.candidates.as_ref().is_some_and(|c| c.is_empty());
            if empty && matches!(new_state, State::SharedModified) && !vs.reported {
                vs.reported = true;
                let first = vs.last.unwrap_or(access);
                self.warnings.push(RaceWarning {
                    var,
                    first,
                    second: access,
                    detector: "eraser",
                    detail: "candidate lockset is empty".into(),
                });
            }
        } else if was_exclusive {
            // Still exclusive: nothing to refine.
        }

        vs.state = new_state;
        vs.last = Some(access);
    }
}

impl EventSink for EraserLockset {
    fn on_event(&mut self, ev: &Event) {
        // Atomic RMWs are synchronization actions, not plain data accesses:
        // Eraser examines only plain reads and writes.
        if !ev.op.is_plain_access() {
            return;
        }
        if let Some((var, kind)) = ev.var_access() {
            self.on_access(ev, var, kind);
        }
        // Lock operations themselves carry no refinement work: the held-set
        // snapshot on each access event is the whole context Eraser needs.
    }

    fn has_findings(&self) -> bool {
        !self.warnings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtt_instrument::{Loc, Op};
    use std::sync::Arc;

    fn access(seq: u64, thread: u32, var: u32, write: bool, locks: &[u32]) -> Event {
        Event {
            seq,
            time: seq,
            thread: ThreadId(thread),
            loc: Loc::new("p", seq as u32 + 1),
            op: if write {
                Op::VarWrite {
                    var: VarId(var),
                    value: 0,
                }
            } else {
                Op::VarRead {
                    var: VarId(var),
                    value: 0,
                }
            },
            locks_held: Arc::from(locks.iter().map(|&l| LockId(l)).collect::<Vec<_>>()),
        }
    }

    #[test]
    fn consistently_locked_variable_is_clean() {
        let mut d = EraserLockset::new();
        d.on_event(&access(0, 0, 0, true, &[1]));
        d.on_event(&access(1, 1, 0, true, &[1]));
        d.on_event(&access(2, 0, 0, false, &[1]));
        d.finish();
        assert!(d.warnings.is_empty());
        assert_eq!(d.candidates(VarId(0)), Some(&[LockId(1)][..]));
    }

    #[test]
    fn unlocked_shared_write_is_reported_once() {
        let mut d = EraserLockset::new();
        d.on_event(&access(0, 0, 0, true, &[]));
        d.on_event(&access(1, 1, 0, true, &[]));
        d.on_event(&access(2, 0, 0, true, &[]));
        assert_eq!(d.warning_count(), 1, "deduplicated per variable");
        let w = &d.warnings[0];
        assert_eq!(w.var, VarId(0));
        assert_eq!(w.detector, "eraser");
        assert_eq!(w.first.thread, ThreadId(0));
        assert_eq!(w.second.thread, ThreadId(1));
    }

    #[test]
    fn thread_local_variable_never_reported() {
        let mut d = EraserLockset::new();
        for i in 0..10 {
            d.on_event(&access(i, 0, 0, i % 2 == 0, &[]));
        }
        assert!(d.warnings.is_empty(), "exclusive access needs no locks");
    }

    #[test]
    fn read_sharing_without_locks_is_benign() {
        let mut d = EraserLockset::new();
        d.on_event(&access(0, 0, 0, true, &[])); // init write, exclusive
        d.on_event(&access(1, 1, 0, false, &[])); // read-share
        d.on_event(&access(2, 2, 0, false, &[]));
        assert!(
            d.warnings.is_empty(),
            "read-only sharing after init is the documented Eraser refinement"
        );
        // ...but a later unlocked write flips it to a race.
        d.on_event(&access(3, 1, 0, true, &[]));
        assert_eq!(d.warning_count(), 1);
    }

    #[test]
    fn disjoint_locks_are_a_race_eraser_style() {
        // Thread 0 always holds lock 1, thread 1 always holds lock 2: no
        // common lock — the classic lockset true positive that
        // happens-before may miss. Classic Eraser starts refining when the
        // second thread arrives, so the empty intersection shows at the
        // *third* access.
        let mut d = EraserLockset::new();
        d.on_event(&access(0, 0, 0, true, &[1]));
        d.on_event(&access(1, 1, 0, true, &[2]));
        assert_eq!(d.candidates(VarId(0)), Some(&[LockId(2)][..]));
        d.on_event(&access(2, 0, 0, true, &[1]));
        assert_eq!(d.warning_count(), 1);
        assert!(d.warnings[0].detail.contains("empty"));
    }

    #[test]
    fn lockset_refines_by_intersection() {
        let mut d = EraserLockset::new();
        d.on_event(&access(0, 0, 0, true, &[1, 2]));
        // Second thread: C(v) initialized to its held set (classic Eraser
        // does not refine while the variable is thread-exclusive).
        d.on_event(&access(1, 1, 0, true, &[2, 3]));
        assert_eq!(d.candidates(VarId(0)), Some(&[LockId(2), LockId(3)][..]));
        d.on_event(&access(2, 0, 0, true, &[2]));
        assert_eq!(d.candidates(VarId(0)), Some(&[LockId(2)][..]));
        assert!(d.warnings.is_empty());
        d.on_event(&access(3, 1, 0, true, &[2]));
        assert!(d.warnings.is_empty(), "lock 2 consistently protects");
    }

    #[test]
    fn variables_are_tracked_independently() {
        let mut d = EraserLockset::new();
        d.on_event(&access(0, 0, 0, true, &[]));
        d.on_event(&access(1, 1, 0, true, &[])); // race on var 0
        d.on_event(&access(2, 0, 1, true, &[7]));
        d.on_event(&access(3, 1, 1, true, &[7])); // var 1 clean
        assert_eq!(d.warning_count(), 1);
        assert_eq!(d.warnings[0].var, VarId(0));
    }
}
