//! # mtt-telemetry — uniform bookkeeping for evaluation campaigns
//!
//! The paper's §4 "prepared experiment" requires each technology's report
//! to state its *overhead* and run statistics, and a campaign at
//! production scale needs those numbers collected the same way everywhere
//! instead of ad hoc per experiment. This crate is that layer:
//!
//! * [`TelemetrySink`] — an [`EventSink`](mtt_instrument::EventSink)
//!   adapter that derives event-level metrics (per-class counts, per-site
//!   hot spots, lock contention, wait/notify traffic) from the
//!   instrumentation stream, so existing tools compose with telemetry
//!   unchanged: just attach it next to the tool under evaluation.
//! * [`RunMetrics`] — the per-run record harvested from one `Execution`
//!   (deterministic counters only; wall clock is segregated by design).
//! * [`SpanSet`] / [`Span`] — RAII wall-clock timers around campaign
//!   phases and pool workers. Span timings are *explicitly* wall-clock and
//!   never enter deterministic reports.
//! * [`RunLogWriter`] — an NDJSON structured run log (one JSON object per
//!   run, declared by [`RunLogRecord`]) whose default field set is
//!   byte-deterministic at any `--jobs`.
//!
//! Everything deterministic merges; everything wall-clock is quarantined.
//! That split is what lets the default campaign reports stay byte-identical
//! across worker counts while still measuring overhead when asked.

#![forbid(unsafe_code)]

pub mod ndjson;
pub mod run;
pub mod sink;
pub mod span;

pub use ndjson::{check_run_log_line, RunLogRecord, RunLogWriter};
pub use run::RunMetrics;
pub use sink::TelemetrySink;
pub use span::{Span, SpanEvent, SpanSet, SpanTimings};
