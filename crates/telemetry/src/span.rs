//! RAII span timers for campaign phases and pool workers.
//!
//! A [`Span`] measures the wall-clock time between `enter` and drop and
//! adds it to the named entry of its [`SpanSet`]. Span timings are
//! **wall-clock by definition** and therefore never appear in the
//! deterministic default reports — they feed segregated timing output such
//! as `mtt profile --timing`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Entry {
    count: u64,
    total: Duration,
}

/// One completed interval on the set's shared clock — the raw material of
/// a chrome-trace timeline (aggregates alone cannot place a phase in
/// time). Recorded by [`SpanSet::enter`] spans on drop; the bulk
/// [`SpanSet::add`] path stays aggregate-only so per-job worker loops do
/// not flood the event list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name.
    pub name: String,
    /// Offset from the set's creation instant.
    pub start: Duration,
    /// Interval length.
    pub dur: Duration,
}

#[derive(Default)]
struct Inner {
    entries: BTreeMap<String, Entry>,
    events: Vec<SpanEvent>,
}

struct Shared {
    inner: Mutex<Inner>,
    /// The zero point every [`SpanEvent::start`] is measured from.
    epoch: Instant,
}

/// A shared set of named span accumulators. Clones share state (and the
/// epoch), so a set can be handed to every worker of a pool.
#[derive(Clone)]
pub struct SpanSet {
    shared: Arc<Shared>,
}

impl Default for SpanSet {
    fn default() -> Self {
        SpanSet {
            shared: Arc::new(Shared {
                inner: Mutex::new(Inner::default()),
                epoch: Instant::now(),
            }),
        }
    }
}

impl SpanSet {
    /// Fresh, empty set; its epoch (the zero of [`SpanSet::events`]
    /// offsets) is now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start timing `name`; the span records on drop.
    pub fn enter(&self, name: impl Into<String>) -> Span {
        Span {
            set: self.clone(),
            name: name.into(),
            started: Instant::now(),
        }
    }

    /// Add one finished interval to `name` directly (for callers that
    /// already measured, e.g. a worker loop with its own clock).
    /// Aggregate-only: no [`SpanEvent`] is recorded.
    pub fn add(&self, name: &str, elapsed: Duration) {
        let mut inner = self.shared.inner.lock().expect("span set poisoned");
        let e = inner.entries.entry(name.to_string()).or_default();
        e.count += 1;
        e.total += elapsed;
    }

    fn record_span(&self, name: &str, started: Instant, elapsed: Duration) {
        let start = started.saturating_duration_since(self.shared.epoch);
        let mut inner = self.shared.inner.lock().expect("span set poisoned");
        let e = inner.entries.entry(name.to_string()).or_default();
        e.count += 1;
        e.total += elapsed;
        inner.events.push(SpanEvent {
            name: name.to_string(),
            start,
            dur: elapsed,
        });
    }

    /// Freeze the accumulated timings.
    pub fn timings(&self) -> SpanTimings {
        SpanTimings {
            entries: self
                .shared
                .inner
                .lock()
                .expect("span set poisoned")
                .entries
                .iter()
                .map(|(k, e)| (k.clone(), (e.count, e.total)))
                .collect(),
        }
    }

    /// The completed intervals so far, sorted by start offset then name
    /// (concurrent spans may complete in any order; the sort keeps the
    /// timeline stable).
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut v = self
            .shared
            .inner
            .lock()
            .expect("span set poisoned")
            .events
            .clone();
        v.sort_by(|a, b| a.start.cmp(&b.start).then_with(|| a.name.cmp(&b.name)));
        v
    }
}

/// An in-flight timed region; records into its [`SpanSet`] when dropped.
pub struct Span {
    set: SpanSet,
    name: String,
    started: Instant,
}

impl Span {
    /// Elapsed time so far (the span keeps running).
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.set
            .record_span(&self.name, self.started, self.started.elapsed());
    }
}

/// Frozen span timings: `(count, total wall time)` per name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanTimings {
    /// Accumulated `(count, total)` per span name.
    pub entries: BTreeMap<String, (u64, Duration)>,
}

impl SpanTimings {
    /// Number of completed spans under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.entries.get(name).map_or(0, |e| e.0)
    }

    /// Total wall time under `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.entries.get(name).map_or(Duration::ZERO, |e| e.1)
    }

    /// Render one `name count total_ms mean_us` line per span, for the
    /// segregated (non-deterministic) timing output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, (count, total)) in &self.entries {
            let mean_us = if *count == 0 {
                0.0
            } else {
                total.as_micros() as f64 / *count as f64
            };
            out.push_str(&format!(
                "{name:<24} {count:>8}x  {:>8} ms total  {mean_us:>10.1} us/span\n",
                total.as_millis()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_on_drop() {
        let set = SpanSet::new();
        {
            let _a = set.enter("phase");
            let _b = set.enter("phase");
        }
        let t = set.timings();
        assert_eq!(t.count("phase"), 2);
        assert_eq!(t.count("absent"), 0);
        assert!(t.render().contains("phase"));
    }

    #[test]
    fn add_records_directly() {
        let set = SpanSet::new();
        set.add("w", Duration::from_millis(5));
        set.add("w", Duration::from_millis(7));
        let t = set.timings();
        assert_eq!(t.count("w"), 2);
        assert_eq!(t.total("w"), Duration::from_millis(12));
    }

    #[test]
    fn clones_share_state() {
        let set = SpanSet::new();
        let other = set.clone();
        drop(other.enter("x"));
        assert_eq!(set.timings().count("x"), 1);
    }

    #[test]
    fn entered_spans_record_events_but_add_does_not() {
        let set = SpanSet::new();
        drop(set.enter("a"));
        drop(set.enter("b"));
        set.add("w", Duration::from_millis(3));
        let events = set.events();
        assert_eq!(events.len(), 2);
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"a") && names.contains(&"b"));
        // Events are sorted by start offset; offsets never precede the epoch.
        assert!(events.windows(2).all(|w| w[0].start <= w[1].start));
        // `add` feeds aggregates only.
        assert_eq!(set.timings().count("w"), 1);
    }
}
