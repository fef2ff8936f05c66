//! # mtt-obs — the campaign flight recorder
//!
//! Cross-process observability for campaigns: while `mtt-telemetry`
//! observes a single run from inside its process, this crate records what
//! a whole campaign *did* into durable state another process can read —
//! the result-bookkeeping discipline large testing campaigns live or die
//! on (Lascu & Donaldson's CK-framework integration; DESIGN.md S21).
//!
//! Three layers, all over one artifact:
//!
//! - [`journal`] — the append-only NDJSON campaign journal (schema v4):
//!   one `campaign` header, `start`/`done` records per cell keyed by a
//!   [`content_address`] of `(program, canonical tool_spec, seed, runtime
//!   version)`, and an `end` marker. The [`JournalSink`] flushes per
//!   record, so a crash can only truncate the final line — which readers
//!   discard, and [`truncate_partial_tail`] repairs before a resumed
//!   command appends. The [`ResumeCache`] turns the journal into a
//!   content-addressed result cache: resumed commands skip completed cells
//!   and still produce byte-identical reports.
//! - [`status`] — [`StatusSummary`]: progress, failure/timeout counts,
//!   per-worker utilization and ETA, folded permutation-invariantly from
//!   the record set (so `mtt status` can watch a live campaign written by
//!   another process, in any order).
//! - [`chrome`] — [`ChromeTrace`]: a `chrome://tracing`-loadable timeline
//!   of campaign phases, pool workers, and cells, plus the structural
//!   checker behind CI's load-check.

pub mod chrome;
pub mod journal;
pub mod status;

pub use chrome::{check_chrome_trace, ChromeTrace};
pub use journal::{
    check_journal_line, content_address, load_journal, parse_journal, truncate_partial_tail,
    CampaignEnd, CampaignMeta, CellDone, CellStart, JobDone, JournalRecord, JournalSink,
    MetricScalars, ParsedJournal, ResumeCache, JOURNAL_VERSION, KILL_AFTER_ENV,
};
pub use status::{StatusSummary, WorkerUse};
