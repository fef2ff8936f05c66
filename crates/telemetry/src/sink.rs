//! [`TelemetrySink`]: the event-stream side of per-run telemetry.
//!
//! Everything this sink measures is derived from the instrumented event
//! stream alone, so it composes with any tool under evaluation through the
//! existing [`EventSink`] plumbing — attach it to an `Execution` next to
//! a detector, or wrap it in a `FilteredSink`. It never
//! touches a clock: all of its numbers are deterministic functions of the
//! schedule.

use crate::run::RunMetrics;
use mtt_instrument::{Event, EventSink, FileMemo, LocKey, Op};

/// Counts event classes, hot sites and synchronization traffic from an
/// instrumented event stream.
///
/// Lock *contention* is derived structurally: the runtime emits
/// `LockRequest` only when the requested lock is currently owned by another
/// thread (an uncontended acquire goes straight to `LockAcquire`), so every
/// `LockRequest` — and every failed `try_lock` — is one contended
/// encounter.
///
/// Site counters count straight into [`RunMetrics::sites`], keyed on the
/// interned [`LocKey`] pair with an integer hash, so the event hot path
/// neither allocates nor compares path strings, and a site's name is
/// resolved only when a ranking is printed.
#[derive(Debug, Default)]
pub struct TelemetrySink {
    metrics: RunMetrics,
    /// The two most recent files' interned ids, so the interner's lock is
    /// rarely touched at all.
    files: FileMemo<u32>,
    finished: bool,
}

impl TelemetrySink {
    /// Fresh sink.
    pub fn new() -> Self {
        Self::default()
    }

    fn loc_key(&mut self, loc: mtt_instrument::Loc) -> LocKey {
        LocKey {
            file: self.files.get(loc.file, mtt_instrument::intern_file_id),
            line: loc.line,
        }
    }

    /// The metrics accumulated so far (event-derived fields only; combine
    /// with [`RunMetrics::absorb_stats`] for the runtime counters).
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Consume the sink, yielding its metrics.
    pub fn into_metrics(self) -> RunMetrics {
        self.metrics
    }

    /// Has `finish` run?
    pub fn is_finished(&self) -> bool {
        self.finished
    }
}

impl EventSink for TelemetrySink {
    fn on_event(&mut self, ev: &Event) {
        let key = self.loc_key(ev.loc);
        let metrics = &mut self.metrics;
        metrics.by_class[ev.op.class().bit() as usize] += 1;
        *metrics.sites.entry(key).or_insert(0) += 1;
        let m = &mut metrics.scalars;
        m.events += 1;
        match ev.op {
            Op::LockAcquire { .. } => m.lock_acquires += 1,
            Op::LockRequest { .. } | Op::LockTryFail { .. } => {
                m.lock_contentions += 1;
                *metrics.contended_sites.entry(key).or_insert(0) += 1;
            }
            Op::CondWait { .. } => m.waits += 1,
            Op::CondNotify { .. } => m.notifies += 1,
            _ => {}
        }
    }

    fn finish(&mut self) {
        self.finished = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtt_instrument::{Loc, LockId, ThreadId, VarId};
    use std::sync::Arc;

    fn ev(seq: u64, thread: u32, loc: Loc, op: Op) -> Event {
        Event {
            seq,
            time: seq,
            thread: ThreadId(thread),
            loc,
            op,
            locks_held: Arc::from(Vec::<LockId>::new()),
        }
    }

    #[test]
    fn counts_contention_and_sites() {
        let site_a = Loc::new("p", 1);
        let site_b = Loc::new("p", 2);
        let l = LockId(0);
        let mut sink = TelemetrySink::new();
        // t0 acquires uncontended; t1 contends, then acquires after release.
        sink.on_event(&ev(0, 0, site_a, Op::LockAcquire { lock: l }));
        sink.on_event(&ev(1, 1, site_b, Op::LockRequest { lock: l }));
        sink.on_event(&ev(2, 0, site_a, Op::LockRelease { lock: l }));
        sink.on_event(&ev(3, 1, site_b, Op::LockAcquire { lock: l }));
        sink.on_event(&ev(
            4,
            1,
            site_b,
            Op::VarRead {
                var: VarId(0),
                value: 7,
            },
        ));
        sink.finish();
        let m = sink.metrics();
        assert_eq!(m.scalars.events, 5);
        assert_eq!(m.scalars.lock_acquires, 2);
        assert_eq!(m.scalars.lock_contentions, 1);
        assert_eq!(m.events_at(site_b), 3);
        assert_eq!(m.contentions_at(site_b), 1);
        assert_eq!(m.contentions_at(site_a), 0);
        assert!(sink.is_finished());
    }

    #[test]
    fn counts_cond_traffic() {
        use mtt_instrument::CondId;
        let mut sink = TelemetrySink::new();
        let loc = Loc::new("p", 9);
        sink.on_event(&ev(
            0,
            0,
            loc,
            Op::CondWait {
                cond: CondId(0),
                lock: LockId(0),
            },
        ));
        sink.on_event(&ev(
            1,
            1,
            loc,
            Op::CondNotify {
                cond: CondId(0),
                all: true,
            },
        ));
        assert_eq!(sink.metrics().scalars.waits, 1);
        assert_eq!(sink.metrics().scalars.notifies, 1);
    }

    #[test]
    fn into_metrics_folds_sites_without_finish() {
        let loc = Loc::new("fold-test", 3);
        let mut sink = TelemetrySink::new();
        sink.on_event(&ev(
            0,
            0,
            loc,
            Op::VarWrite {
                var: VarId(0),
                value: 1,
            },
        ));
        let m = sink.into_metrics();
        assert_eq!(m.events_at(loc), 1);
    }

    #[test]
    fn interleaved_files_accumulate_on_distinct_keys() {
        // Defeat the two-entry file memo on purpose: three files in turn
        // must still land on their own sites.
        let a = Loc::new("file-a", 1);
        let b = Loc::new("file-b", 1);
        let c = Loc::new("file-c", 1);
        let mut sink = TelemetrySink::new();
        for i in 0..9u64 {
            let loc = [a, b, c][i as usize % 3];
            sink.on_event(&ev(
                i,
                0,
                loc,
                Op::VarRead {
                    var: VarId(0),
                    value: 0,
                },
            ));
        }
        sink.finish();
        assert_eq!(sink.metrics().events_at(a), 3);
        assert_eq!(sink.metrics().events_at(b), 3);
        assert_eq!(sink.metrics().events_at(c), 3);
    }
}
