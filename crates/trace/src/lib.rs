//! # mtt-trace — the standard annotated trace format
//!
//! §4 of the PADTAD 2003 paper asks the benchmark to ship, alongside the
//! buggy programs, *"sample traces of executions using the standard format
//! for race detection and replay"*, where each record carries the program
//! location, the operation, the variable, the thread, read-vs-write, and
//! *"if this location is involved in a bug"* — so that, e.g., "race
//! detection algorithms may be evaluated using the traces without any work
//! on the programs themselves", and so the ratio between real bugs and
//! false warnings can be measured mechanically.
//!
//! This crate provides:
//!
//! * [`Trace`] / [`TraceRecord`] / [`TraceMeta`] — the format, with name
//!   tables for threads/variables/locks and per-record bug-involvement
//!   annotations.
//! * [`TraceCollector`] — an [`mtt_instrument::EventSink`] that records a
//!   live execution into a `Trace`.
//! * [`annotate()`](annotate::annotate) — marks which records are involved in which documented
//!   bugs, given the bug's variable/lock footprint.
//! * Two codecs: human-readable **JSON lines** ([`json`]) and a compact
//!   varint **binary** ([`binary`]) — the storage halves of the paper's
//!   on-line/off-line trade-off experiment (E8).
//! * [`Trace::feed`] — replays a stored trace through any sink, which is
//!   how offline detectors run "without any work on the programs".

pub mod annotate;
pub mod binary;
pub mod json;
pub mod record;

pub use annotate::{annotate, BugFootprint};
pub use record::{intern_static, Trace, TraceCollector, TraceMeta, TraceRecord, THREAD_ID_BOUND};
