//! Trace data model and the live-execution collector.

use mtt_instrument::{Event, EventSink, Loc, LockId, Op, ThreadId};
use std::sync::Arc;

pub use mtt_instrument::intern_static;

/// Thread ids a trace may carry are below this bound; loading a trace
/// rejects a record that names a larger one. The runtime numbers threads
/// densely from 0, so a recorded run stays far below it, while a vector
/// clock is as long as the largest thread id it has seen: one id near 2^31
/// read from a file would make every clock allocate gigabytes. `mtt-causal`'s
/// id tables keep ids below the same bound in a vector.
pub const THREAD_ID_BOUND: u32 = 1 << 16;

/// One record of the standard trace format.
///
/// Field-for-field this is the record the paper specifies: location, what
/// was instrumented (`op`), which variable was touched (inside `op`),
/// thread, read-or-write (the `Op` variant), plus the locks held and the
/// bug-involvement annotation.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Global sequence number.
    pub seq: u64,
    /// Virtual time of the operation.
    pub time: u64,
    /// Executing thread id (name in [`TraceMeta::thread_names`]).
    pub thread: u32,
    /// Source file (or program) of the operation.
    pub file: String,
    /// Line within `file`.
    pub line: u32,
    /// The operation.
    pub op: Op,
    /// Locks held by the thread after the operation.
    pub locks_held: Vec<u32>,
    /// Tags of documented bugs this record is involved in (empty when the
    /// record is irrelevant to every known bug). Filled by
    /// [`crate::annotate()`](crate::annotate::annotate). Omitted from the
    /// JSON form when empty, and defaulted when missing on input.
    pub bug_tags: Vec<String>,
}

mtt_json::json_struct!(TraceRecord {
    seq,
    time,
    thread,
    file,
    line,
    op,
    locks_held,
    #[optional]
    bug_tags,
});

impl TraceRecord {
    /// Build a record from a live event.
    pub fn from_event(ev: &Event) -> Self {
        TraceRecord {
            seq: ev.seq,
            time: ev.time,
            thread: ev.thread.0,
            file: ev.loc.file.to_string(),
            line: ev.loc.line,
            op: ev.op,
            locks_held: ev.locks_held.iter().map(|l| l.0).collect(),
            bug_tags: Vec::new(),
        }
    }

    /// The first thread id this record names that is not below
    /// [`THREAD_ID_BOUND`]: its own thread, or the thread a `Spawn`,
    /// `JoinRequest` or `Join` names.
    pub fn thread_out_of_bound(&self) -> Option<u32> {
        let operand = match self.op {
            Op::Spawn { child } => Some(child.0),
            Op::JoinRequest { target } | Op::Join { target } => Some(target.0),
            _ => None,
        };
        std::iter::once(self.thread)
            .chain(operand)
            .find(|&t| t >= THREAD_ID_BOUND)
    }

    /// Reconstruct the live event (for feeding offline tools).
    pub fn to_event(&self) -> Event {
        Event {
            seq: self.seq,
            time: self.time,
            thread: ThreadId(self.thread),
            loc: Loc {
                file: intern_static(&self.file),
                line: self.line,
            },
            op: self.op,
            locks_held: Arc::from(
                self.locks_held
                    .iter()
                    .map(|&l| LockId(l))
                    .collect::<Vec<_>>(),
            ),
        }
    }
}

/// Trace header: where the trace came from and the name tables that keep
/// records compact.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceMeta {
    /// Program the trace was produced from.
    pub program: String,
    /// Scheduler used.
    pub scheduler: String,
    /// Noise maker used.
    pub noise: String,
    /// Canonical tool-spec string (`mtt-tools` grammar) the producing
    /// configuration can be re-created from.
    pub tool_spec: String,
    /// Scheduler seed (0 when not applicable).
    pub seed: u64,
    /// Thread names by id.
    pub thread_names: Vec<String>,
    /// Variable names by id.
    pub var_names: Vec<String>,
    /// Lock names by id.
    pub lock_names: Vec<String>,
    /// Condition-variable names by id.
    pub cond_names: Vec<String>,
    /// Semaphore names by id.
    pub sem_names: Vec<String>,
    /// Barrier names by id.
    pub barrier_names: Vec<String>,
    /// Tags of the documented bugs known to exist in the program (whether or
    /// not they manifested in this trace).
    pub known_bugs: Vec<String>,
    /// Tags of bugs that actually *manifested* in the recorded execution
    /// (from the program's oracle) — the ground truth for detector scoring.
    pub manifested_bugs: Vec<String>,
}

mtt_json::json_struct!(TraceMeta {
    program,
    scheduler,
    noise,
    tool_spec,
    seed,
    thread_names,
    var_names,
    lock_names,
    cond_names,
    sem_names,
    barrier_names,
    known_bugs,
    manifested_bugs,
});

/// A complete annotated trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Header.
    pub meta: TraceMeta,
    /// Records in execution order.
    pub records: Vec<TraceRecord>,
}

mtt_json::json_struct!(Trace { meta, records });

impl Trace {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Replay the trace through an offline tool: every record is converted
    /// back to an [`Event`] and delivered in order, then `finish` is called.
    /// This is how the benchmark lets "race detection algorithms ... be
    /// evaluated using the traces without any work on the programs".
    pub fn feed<S: EventSink>(&self, sink: &mut S) {
        for r in &self.records {
            let ev = r.to_event();
            sink.on_event(&ev);
        }
        sink.finish();
    }

    /// Records involved in the given bug tag.
    pub fn records_tagged<'a>(
        &'a self,
        tag: &'a str,
    ) -> impl Iterator<Item = &'a TraceRecord> + 'a {
        self.records
            .iter()
            .filter(move |r| r.bug_tags.iter().any(|t| t == tag))
    }

    /// Variable name for a `VarId` index, `"?"` when unknown.
    pub fn var_name(&self, idx: u32) -> &str {
        self.meta
            .var_names
            .get(idx as usize)
            .map_or("?", |s| s.as_str())
    }
}

/// Event sink that records a live execution into a [`Trace`].
///
/// Construct with the metadata known before the run; thread names are
/// filled in afterwards from the outcome (threads are created dynamically).
#[derive(Debug, Default)]
pub struct TraceCollector {
    /// The trace being built.
    pub trace: Trace,
}

impl TraceCollector {
    /// Collector with an empty meta header.
    pub fn new() -> Self {
        Self::default()
    }

    /// Collector with a pre-filled header.
    pub fn with_meta(meta: TraceMeta) -> Self {
        TraceCollector {
            trace: Trace {
                meta,
                records: Vec::new(),
            },
        }
    }

    /// Consume the collector, returning the trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl EventSink for TraceCollector {
    fn on_event(&mut self, ev: &Event) {
        self.trace.records.push(TraceRecord::from_event(ev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtt_instrument::VarId;

    fn sample_event(seq: u64) -> Event {
        Event {
            seq,
            time: seq * 2,
            thread: ThreadId(1),
            loc: Loc::new("prog.rs", 10),
            op: Op::VarWrite {
                var: VarId(0),
                value: 7,
            },
            locks_held: Arc::from(vec![LockId(2)]),
        }
    }

    #[test]
    fn record_roundtrips_through_event() {
        let ev = sample_event(5);
        let r = TraceRecord::from_event(&ev);
        assert_eq!(r.seq, 5);
        assert_eq!(r.thread, 1);
        assert_eq!(r.locks_held, vec![2]);
        let back = r.to_event();
        assert_eq!(back.seq, ev.seq);
        assert_eq!(back.time, ev.time);
        assert_eq!(back.thread, ev.thread);
        assert_eq!(back.loc, ev.loc);
        assert_eq!(back.op, ev.op);
        assert_eq!(&*back.locks_held, &*ev.locks_held);
    }

    #[test]
    fn intern_returns_same_pointer_for_equal_strings() {
        let a = intern_static("some/file.rs");
        let b = intern_static(&String::from("some/file.rs"));
        assert!(std::ptr::eq(a, b));
        let c = intern_static("other.rs");
        assert!(!std::ptr::eq(a, c));
    }

    #[test]
    fn collector_records_in_order() {
        let mut c = TraceCollector::new();
        for i in 0..4 {
            c.on_event(&sample_event(i));
        }
        c.finish();
        let t = c.into_trace();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.records[3].seq, 3);
    }

    #[test]
    fn feed_replays_into_sink() {
        let mut c = TraceCollector::new();
        for i in 0..3 {
            c.on_event(&sample_event(i));
        }
        let t = c.into_trace();
        let mut count = mtt_instrument::CountingSink::new();
        t.feed(&mut count);
        assert_eq!(count.total, 3);
        assert!(count.is_finished());
    }

    #[test]
    fn tagged_record_query() {
        let mut t = Trace::default();
        let mut r = TraceRecord::from_event(&sample_event(0));
        r.bug_tags.push("race-x".into());
        t.records.push(r);
        t.records.push(TraceRecord::from_event(&sample_event(1)));
        assert_eq!(t.records_tagged("race-x").count(), 1);
        assert_eq!(t.records_tagged("other").count(), 0);
    }

    #[test]
    fn var_name_lookup() {
        let mut t = Trace::default();
        t.meta.var_names = vec!["alpha".into()];
        assert_eq!(t.var_name(0), "alpha");
        assert_eq!(t.var_name(9), "?");
    }
}
