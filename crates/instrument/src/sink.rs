//! Event sinks: the callback side of the open instrumentation API.
//!
//! Every dynamic tool in the framework — noise heuristics aside, which get a
//! richer scheduling hook — is an [`EventSink`]: it receives instrumented
//! events in global order and may keep arbitrary state. Because sinks are
//! plain trait objects, a researcher can write *only* their detector and
//! plug it into the existing runtime, exactly the mix-and-match workflow §3
//! of the paper asks for.

use crate::event::Event;
use crate::plan::ResolvedFilter;
use std::collections::VecDeque;

/// A consumer of instrumented events.
///
/// `on_event` is called with every selected event while the model program
/// runs (online tools) or while a stored trace is replayed through the sink
/// (offline tools — see `mtt-trace`). `finish` is called exactly once after
/// the last event, letting detectors flush end-of-execution analysis.
/// `has_findings` is a detector's verdict, read after `finish`.
pub trait EventSink: Send {
    /// Observe one event.
    fn on_event(&mut self, ev: &Event);

    /// The execution (or trace) ended.
    fn finish(&mut self) {}

    /// Has the tool reported a finding (a race warning, a deadlock
    /// potential or occurrence) on the events it has seen? Detectors answer
    /// from the results they keep anyway; a sink that reports no findings
    /// (a counter, a recorder, a coverage model) keeps the default, `false`.
    /// [`FilteredSink`] and [`Shared`] forward it to the sink they wrap.
    fn has_findings(&self) -> bool {
        false
    }
}

/// Blanket implementation so closures can be used as quick sinks in tests
/// and examples.
impl<F: FnMut(&Event) + Send> EventSink for F {
    fn on_event(&mut self, ev: &Event) {
        self(ev)
    }
}

/// A sink that discards everything (baseline for overhead measurements).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    #[inline]
    fn on_event(&mut self, _ev: &Event) {}
}

/// Apply a [`ResolvedFilter`] in front of an inner sink. Used by offline
/// tools to subject stored traces to the same plan the online tools use.
pub struct FilteredSink<S> {
    filter: ResolvedFilter,
    inner: S,
}

impl<S: EventSink> FilteredSink<S> {
    /// Wrap `inner` so it sees only events `filter` selects.
    pub fn new(filter: ResolvedFilter, inner: S) -> Self {
        FilteredSink { filter, inner }
    }

    /// Access the wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: EventSink> EventSink for FilteredSink<S> {
    fn on_event(&mut self, ev: &Event) {
        if self.filter.selects(ev) {
            self.inner.on_event(ev);
        }
    }

    fn finish(&mut self) {
        self.inner.finish();
    }

    fn has_findings(&self) -> bool {
        self.inner.has_findings()
    }
}

/// Counts events per operation class — the cheapest useful sink, used for
/// overhead accounting in every experiment.
#[derive(Debug, Default, Clone)]
pub struct CountingSink {
    /// Total events observed.
    pub total: u64,
    /// Per-class counts, indexed by `OpClass::bit()`.
    pub by_class: [u64; 8],
    finished: bool,
}

impl CountingSink {
    /// Fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count for one class.
    pub fn class_count(&self, class: crate::event::OpClass) -> u64 {
        self.by_class[class.bit() as usize]
    }

    /// Has `finish` run?
    pub fn is_finished(&self) -> bool {
        self.finished
    }
}

impl EventSink for CountingSink {
    fn on_event(&mut self, ev: &Event) {
        self.total += 1;
        self.by_class[ev.op.class().bit() as usize] += 1;
    }

    fn finish(&mut self) {
        self.finished = true;
    }
}

/// Stores every event (test and small-trace use; unbounded).
#[derive(Debug, Default)]
pub struct VecSink {
    /// The recorded events, in arrival order.
    pub events: Vec<Event>,
}

impl VecSink {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EventSink for VecSink {
    fn on_event(&mut self, ev: &Event) {
        self.events.push(ev.clone());
    }
}

/// Keeps only the last `capacity` events — the "flight recorder" pattern
/// used when an online detector wants recent context without offline-scale
/// storage (the on-line/off-line trade-off of §2.2).
#[derive(Debug)]
pub struct RingSink {
    buf: VecDeque<Event>,
    capacity: usize,
    /// Total events ever offered (including evicted ones).
    pub seen: u64,
}

impl RingSink {
    /// Ring holding at most `capacity` events. A zero capacity stores
    /// nothing but still counts.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            seen: 0,
        }
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl EventSink for RingSink {
    fn on_event(&mut self, ev: &Event) {
        self.seen += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(ev.clone());
    }
}

/// A sink handle that can be split: the [`Shared`] half is boxed into an
/// execution, the `Arc<Mutex<S>>` half stays with the caller to inspect the
/// tool's state after the run. This is how online detectors hand their
/// warnings back to the experiment harness.
pub struct Shared<S>(std::sync::Arc<std::sync::Mutex<S>>);

impl<S> Clone for Shared<S> {
    fn clone(&self) -> Self {
        Shared(std::sync::Arc::clone(&self.0))
    }
}

impl<S: EventSink> EventSink for Shared<S> {
    fn on_event(&mut self, ev: &Event) {
        self.0.lock().expect("sink poisoned").on_event(ev);
    }

    fn finish(&mut self) {
        self.0.lock().expect("sink poisoned").finish();
    }

    fn has_findings(&self) -> bool {
        self.0.lock().expect("sink poisoned").has_findings()
    }
}

/// Split `sink` into an attachable half and an inspection handle.
pub fn shared<S: EventSink>(sink: S) -> (Shared<S>, std::sync::Arc<std::sync::Mutex<S>>) {
    let arc = std::sync::Arc::new(std::sync::Mutex::new(sink));
    (Shared(std::sync::Arc::clone(&arc)), arc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Loc, LockId, Op, OpClass, ThreadId, VarId};
    use crate::plan::{InstrumentationPlan, OpClassSet, VarTable};
    use std::sync::Arc;

    fn mk_event(seq: u64, op: Op) -> Event {
        Event {
            seq,
            time: seq,
            thread: ThreadId(0),
            loc: Loc::new("t", 1),
            op,
            locks_held: Arc::from(Vec::<LockId>::new()),
        }
    }

    #[test]
    fn counting_sink_classifies() {
        let mut c = CountingSink::new();
        c.on_event(&mk_event(0, Op::Yield));
        c.on_event(&mk_event(1, Op::LockAcquire { lock: LockId(0) }));
        c.on_event(&mk_event(2, Op::LockRelease { lock: LockId(0) }));
        c.finish();
        assert_eq!(c.total, 3);
        assert_eq!(c.class_count(OpClass::Lock), 2);
        assert_eq!(c.class_count(OpClass::Delay), 1);
        assert!(c.is_finished());
    }

    #[test]
    fn ring_sink_evicts_oldest() {
        let mut r = RingSink::new(2);
        for i in 0..5 {
            r.on_event(&mk_event(i, Op::Yield));
        }
        assert_eq!(r.seen, 5);
        assert_eq!(r.len(), 2);
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn ring_sink_zero_capacity_counts_only() {
        let mut r = RingSink::new(0);
        r.on_event(&mk_event(0, Op::Yield));
        assert_eq!(r.seen, 1);
        assert!(r.is_empty());
    }

    #[test]
    fn filtered_sink_applies_plan() {
        let plan = InstrumentationPlan {
            ops: OpClassSet::of(&[OpClass::VarAccess]),
            ..Default::default()
        };
        let filter = plan.resolve(&VarTable::new(vec!["x".into()]));
        let mut f = FilteredSink::new(filter, CountingSink::new());
        f.on_event(&mk_event(0, Op::Yield));
        f.on_event(&mk_event(
            1,
            Op::VarRead {
                var: VarId(0),
                value: 3,
            },
        ));
        f.finish();
        assert_eq!(f.inner().total, 1);
        assert!(f.into_inner().is_finished());
    }

    #[test]
    fn closure_sink_works() {
        let mut count = 0u32;
        {
            let mut sink = |_: &Event| count += 1;
            sink.on_event(&mk_event(0, Op::Yield));
            sink.on_event(&mk_event(1, Op::Yield));
        }
        assert_eq!(count, 2);
    }
}
