//! Sink-composition behavior through the public API only: the flight
//! recorder's wraparound and a counting sink nested under a plan filter —
//! the compositions the experiment harness and the telemetry layer rely
//! on. The delivery order across several sinks is `Execution`'s contract,
//! tested in `mtt-runtime`.

use mtt_instrument::{
    CountingSink, Event, EventSink, FilteredSink, InstrumentationPlan, Loc, LockId, Op, OpClass,
    OpClassSet, RingSink, ThreadId, VarId, VarTable,
};
use std::sync::Arc;

fn ev(seq: u64, op: Op) -> Event {
    Event {
        seq,
        time: seq,
        thread: ThreadId(0),
        loc: Loc::new("sinks.rs", 1),
        op,
        locks_held: Arc::from(Vec::<LockId>::new()),
    }
}

#[test]
fn ring_sink_wraps_exactly_at_capacity() {
    let mut r = RingSink::new(4);

    // Below capacity: nothing evicted yet.
    for i in 0..4 {
        r.on_event(&ev(i, Op::Yield));
    }
    assert_eq!(r.len(), 4);
    assert_eq!(r.events().map(|e| e.seq).collect::<Vec<_>>(), [0, 1, 2, 3]);

    // The fifth event must evict exactly the oldest, nothing else.
    r.on_event(&ev(4, Op::Yield));
    assert_eq!(r.len(), 4);
    assert_eq!(r.events().map(|e| e.seq).collect::<Vec<_>>(), [1, 2, 3, 4]);

    // Several full laps later the window is still the most recent four,
    // oldest first, and `seen` counts every offer including evicted ones.
    for i in 5..23 {
        r.on_event(&ev(i, Op::Yield));
    }
    assert_eq!(r.seen, 23);
    assert_eq!(r.len(), 4);
    assert_eq!(
        r.events().map(|e| e.seq).collect::<Vec<_>>(),
        [19, 20, 21, 22]
    );
}

#[test]
fn counting_sink_under_filter_sees_only_selected_classes() {
    // A plan that selects only lock operations, resolved against a table
    // with one variable so variable events have something to refer to.
    let plan = InstrumentationPlan {
        ops: OpClassSet::of(&[OpClass::Lock]),
        ..Default::default()
    };
    let filter = plan.resolve(&VarTable::new(vec!["x".into()]));
    let mut sink = FilteredSink::new(filter, CountingSink::new());

    sink.on_event(&ev(0, Op::LockAcquire { lock: LockId(0) }));
    sink.on_event(&ev(1, Op::Yield));
    sink.on_event(&ev(
        2,
        Op::VarWrite {
            var: VarId(0),
            value: 7,
        },
    ));
    sink.on_event(&ev(3, Op::LockRelease { lock: LockId(0) }));
    sink.finish();

    // Only the two lock events reach the counter; the filter is invisible
    // to the inner sink apart from the reduced stream. finish() must reach
    // the inner sink even though it is wrapped.
    assert_eq!(sink.inner().total, 2);
    assert_eq!(sink.inner().class_count(OpClass::Lock), 2);
    assert_eq!(sink.inner().class_count(OpClass::Delay), 0);
    assert_eq!(sink.inner().class_count(OpClass::VarAccess), 0);
    let inner = sink.into_inner();
    assert!(inner.is_finished());
}
