//! # mtt-causal — causal annotation of execution traces
//!
//! The execution-level observability layer over `mtt-trace`: given a
//! recorded event stream, compute per-event **vector clocks** and
//! **happens-before edges** from the model's synchronization operations
//! (thread create/join, lock acquire/release, wait/notify, semaphores,
//! barriers, atomic RMW), and surface them three ways:
//!
//! * [`annotated`] — a versioned NDJSON *annotated trace* extension of the
//!   standard trace format, declared by [`AnnotatedHeader`] and
//!   [`AnnotatedRecord`]: the writer prints each line through them, and
//!   the validator ([`check_annotated`]) parses each line back into them,
//!   checking beyond the types only the schema tag and version, the
//!   writing thread's own clock component, a present `hb_from` being
//!   non-empty, and the first-failure marker.
//! * [`timeline`] — a human-readable per-thread schedule timeline (aligned
//!   columns, lock-hold bars, cross-thread HB arrows, first-failure
//!   highlight) in text and CSV.
//! * [`diff`] — an LCS alignment of a failing against a passing trace of
//!   the same program, reporting the *divergence window* and the critical
//!   events between divergence and failure.
//! * [`fingerprint`] — a canonical 128-bit hash of the HB partial order
//!   ([`TraceFingerprint`]), equal for two executions iff they are the
//!   same Mazurkiewicz trace; the unit of schedule-coverage counting.
//! * [`sync`] — [`SyncClocks`], the one release→acquire table and the
//!   per-thread and per-resource clocks it advances; the annotator, the
//!   fingerprint and `mtt-race`'s FastTrack detector all run on it.
//!
//! [`IdTable`] holds per-thread, per-variable and per-resource state by id
//! (dense below 2^16); the fingerprint, [`SyncClocks`] and `mtt-race`'s
//! detectors key on it.
//!
//! [`clock::VectorClock`] is the canonical vector-clock implementation;
//! `mtt-race`'s FastTrack detector re-exports and reuses it. All renderings
//! are pure functions of their input traces, so every default output is
//! byte-deterministic.

pub mod annotated;
pub mod clock;
pub mod diff;
pub mod fingerprint;
pub mod hb;
pub mod sync;
mod table;
pub mod timeline;

pub use annotated::{
    annotated_to_string, check_annotated, check_annotated_header, check_annotated_record,
    write_annotated, AnnotatedHeader, AnnotatedRecord, ANNOTATED_SCHEMA, ANNOTATED_VERSION,
};
pub use clock::VectorClock;
pub use diff::{TraceDiff, DIFF_LCS_CAP};
pub use fingerprint::{fingerprint_trace, Fingerprinter, TraceFingerprint};
pub use hb::{
    annotate_trace, concurrent, first_failure_seq, happens_before, CausalAnnotations, CausalNote,
    HbAnnotator,
};
pub use sync::SyncClocks;
pub use table::IdTable;
pub use timeline::{op_label, render_timeline, thread_label, timeline_csv};
