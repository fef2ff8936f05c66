//! Noise *placement* strategies: where the heuristic is consulted.
//!
//! §2.2: "The second [research question], important mainly for performance
//! but also for the likelihood of finding bugs, is the question of where
//! calls to the heuristic should be embedded in the original program."
//!
//! Placement is expressed as an [`InstrumentationPlan`] passed to
//! [`mtt_runtime::Execution::noise_plan`]; the runtime only consults the
//! noise maker at points the plan selects. Experiment E7 measures what each
//! strategy costs and what it preserves.

use mtt_instrument::{InstrumentationPlan, OpClass, OpClassSet};

/// Consult the heuristic at every instrumentation point (maximal noise,
/// maximal overhead) — the conservative default.
pub fn everywhere() -> InstrumentationPlan {
    InstrumentationPlan::full()
}

/// Consult only at synchronization operations (locks, conditions,
/// semaphores, barriers, thread lifecycle) — cheap, and sufficient for
/// bugs whose window is a synchronization decision.
pub fn sync_only() -> InstrumentationPlan {
    InstrumentationPlan {
        ops: OpClassSet::of(&[
            OpClass::Lock,
            OpClass::Cond,
            OpClass::Sem,
            OpClass::Barrier,
            OpClass::ThreadLife,
        ]),
        ..Default::default()
    }
}

/// Consult only at shared-variable accesses — the footprint of data-race
/// windows.
pub fn var_access_only() -> InstrumentationPlan {
    InstrumentationPlan {
        ops: OpClassSet::of(&[OpClass::VarAccess]),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtt_instrument::{Event, Loc, LockId, Op, ThreadId, VarId, VarTable};
    use std::sync::Arc;

    fn ev(op: Op) -> Event {
        Event {
            seq: 0,
            time: 0,
            thread: ThreadId(0),
            loc: Loc::new("p", 1),
            op,
            locks_held: Arc::from(Vec::<LockId>::new()),
        }
    }

    fn table() -> VarTable {
        VarTable::new(vec!["x".into(), "y".into()])
    }

    #[test]
    fn sync_only_excludes_var_accesses() {
        let f = sync_only().resolve(&table());
        assert!(f.selects(&ev(Op::LockAcquire { lock: LockId(0) })));
        assert!(!f.selects(&ev(Op::VarRead {
            var: VarId(0),
            value: 0
        })));
        assert!(!f.selects(&ev(Op::Yield)));
    }

    #[test]
    fn var_access_only_excludes_sync() {
        let f = var_access_only().resolve(&table());
        assert!(f.selects(&ev(Op::VarWrite {
            var: VarId(1),
            value: 2
        })));
        assert!(!f.selects(&ev(Op::LockAcquire { lock: LockId(0) })));
    }
}
