//! The annotated-trace NDJSON format: the standard trace format plus
//! per-event causal annotations.
//!
//! Layout (one JSON object per line), declared by [`AnnotatedHeader`] and
//! [`AnnotatedRecord`]:
//!
//! * **line 1 — header**: `{"schema":"mtt-annotated-trace","version":1,
//!   "first_failure":<seq|null>,"meta":{…TraceMeta…}}`.
//! * **every further line — one record**: all [`TraceRecord`] fields
//!   exactly as the plain JSON-lines codec emits them, plus `clock` (the
//!   event's vector-clock components), `hb_from` (incoming sync-edge
//!   source sequence numbers; omitted when empty, like `bug_tags`) and
//!   `first_failure:true` on the single first-failure record.
//!
//! The format is a strict extension: stripping the extra keys yields plain
//! trace records. `version` bumps on any removal or retyping of a field;
//! *adding* optional fields is allowed within a version (the checker
//! ignores unknown keys). Everything is emitted in canonical order, so the
//! bytes are deterministic for a deterministic trace.
//!
//! The writer prints each line through its type, and the checker parses
//! each line back into it; beyond the types, the checker holds the rules
//! they cannot state: the schema tag and version, the writing thread's own
//! clock component being at least 1, a present `hb_from` being non-empty,
//! and `first_failure` being literally `true` on exactly the record the
//! header names.

use crate::hb::CausalAnnotations;
use mtt_json::{json_struct, FromJson, Json, ToJson};
use mtt_trace::{Trace, TraceMeta, TraceRecord};
use std::io::{self, Write};

/// The `schema` tag of the header line.
pub const ANNOTATED_SCHEMA: &str = "mtt-annotated-trace";
/// Current schema version.
pub const ANNOTATED_VERSION: u64 = 1;

/// The header line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AnnotatedHeader {
    /// Always [`ANNOTATED_SCHEMA`].
    pub schema: String,
    /// Always [`ANNOTATED_VERSION`].
    pub version: u64,
    /// Sequence number of the first-failure record, `null` for a passing
    /// trace.
    pub first_failure: Option<u64>,
    /// The trace's header.
    pub meta: TraceMeta,
}

json_struct!(AnnotatedHeader {
    schema,
    version,
    first_failure,
    meta,
});

/// One record line: a trace record and its causal note.
#[derive(Clone, Debug, PartialEq)]
pub struct AnnotatedRecord {
    /// The plain trace record, printed as members of the line.
    pub record: TraceRecord,
    /// The executing thread's vector clock after the event.
    pub clock: Vec<u32>,
    /// Release-side events this event acquired from; left out when empty.
    pub hb_from: Vec<u64>,
    /// Whether this is the first-failure record; printed only when true.
    pub first_failure: bool,
}

json_struct!(AnnotatedRecord {
    #[flatten]
    record,
    clock,
    #[optional]
    hb_from,
    #[optional]
    first_failure,
});

/// Stream the annotated trace as NDJSON, propagating I/O errors.
pub fn write_annotated<W: Write>(
    trace: &Trace,
    ann: &CausalAnnotations,
    w: &mut W,
) -> io::Result<()> {
    let mut line = String::new();
    let mut emit = |value: &dyn ToJson| {
        line.clear();
        value.write_json(&mut line);
        line.push('\n');
        w.write_all(line.as_bytes())
    };
    emit(&AnnotatedHeader {
        schema: ANNOTATED_SCHEMA.to_string(),
        version: ANNOTATED_VERSION,
        first_failure: ann.first_failure,
        meta: trace.meta.clone(),
    })?;
    debug_assert_eq!(trace.records.len(), ann.notes.len(), "one note per record");
    for (rec, note) in trace.records.iter().zip(&ann.notes) {
        emit(&AnnotatedRecord {
            record: rec.clone(),
            clock: note.clock.components().to_vec(),
            hb_from: note.hb_from.clone(),
            first_failure: ann.first_failure == Some(rec.seq),
        })?;
    }
    Ok(())
}

/// Render the annotated trace to a string.
pub fn annotated_to_string(trace: &Trace, ann: &CausalAnnotations) -> String {
    let mut out = Vec::new();
    write_annotated(trace, ann, &mut out).expect("string write cannot fail");
    String::from_utf8(out).expect("JSON is UTF-8")
}

/// Validate the header line and decode it.
pub fn check_annotated_header(line: &str) -> Result<AnnotatedHeader, String> {
    let v = Json::parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
    let schema = v
        .get("schema")
        .and_then(|s| s.as_str())
        .ok_or("header is missing the `schema` string")?;
    if schema != ANNOTATED_SCHEMA {
        return Err(format!(
            "header schema is `{schema}`, expected `{ANNOTATED_SCHEMA}`"
        ));
    }
    let version = v
        .get("version")
        .and_then(|x| x.as_u64())
        .ok_or("header is missing the `version` number")?;
    if version != ANNOTATED_VERSION {
        return Err(format!(
            "unsupported annotated-trace version {version} (this reader understands {ANNOTATED_VERSION})"
        ));
    }
    AnnotatedHeader::from_json(&v).map_err(|e| format!("header: {e}"))
}

/// Validate one record line and decode it.
pub fn check_annotated_record(line: &str) -> Result<AnnotatedRecord, String> {
    let v = Json::parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
    let Json::Obj(_) = v else {
        return Err("record line is not a JSON object".into());
    };
    let rec = AnnotatedRecord::from_json(&v).map_err(|e| e.to_string())?;
    let thread = rec.record.thread;
    if rec.clock.get(thread as usize).is_none_or(|&own| own == 0) {
        return Err(format!(
            "clock has no positive component for the executing thread {thread}"
        ));
    }
    if v.get("hb_from").is_some() && rec.hb_from.is_empty() {
        return Err(
            "`hb_from`, when present, must be a non-empty array of sequence numbers".into(),
        );
    }
    if v.get("first_failure").is_some() && !rec.first_failure {
        return Err("`first_failure` on a record must be literally true".into());
    }
    Ok(rec)
}

/// Validate a whole annotated NDJSON document: header, every record, and
/// the header/record agreement on the first-failure marker. Returns the
/// number of record lines.
pub fn check_annotated(text: &str) -> Result<u64, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let Some((_, header)) = lines.next() else {
        return Err("empty document: expected an annotated-trace header line".into());
    };
    let declared = check_annotated_header(header)
        .map_err(|e| format!("line 1: {e}"))?
        .first_failure;
    let mut records = 0u64;
    let mut flagged = None;
    for (i, line) in lines {
        let rec = check_annotated_record(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if rec.first_failure {
            if flagged.is_some() {
                return Err(format!("line {}: second `first_failure` record", i + 1));
            }
            flagged = Some(rec.record.seq);
        }
        records += 1;
    }
    if declared != flagged {
        return Err(format!(
            "header declares first_failure {declared:?} but the records mark {flagged:?}"
        ));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hb::annotate_trace;
    use mtt_instrument::{Event, EventSink, Loc, LockId, Op, ThreadId, VarId};
    use mtt_trace::TraceCollector;
    use std::sync::Arc;

    fn sample_trace(fail: bool) -> Trace {
        let mut c = TraceCollector::new();
        let ops = [
            (0u32, Op::ThreadStart),
            (0, Op::Spawn { child: ThreadId(1) }),
            (1, Op::ThreadStart),
            (
                1,
                Op::VarWrite {
                    var: VarId(0),
                    value: 1,
                },
            ),
            (
                1,
                if fail {
                    Op::AssertFail { label: 0 }
                } else {
                    Op::Yield
                },
            ),
            (1, Op::ThreadExit),
        ];
        for (seq, (t, op)) in ops.into_iter().enumerate() {
            c.on_event(&Event {
                seq: seq as u64,
                time: seq as u64,
                thread: ThreadId(t),
                loc: Loc::new("p", seq as u32 + 1),
                op,
                locks_held: Arc::from(Vec::<LockId>::new()),
            });
        }
        let mut t = c.into_trace();
        t.meta.program = "sample".into();
        t
    }

    #[test]
    fn roundtrip_validates() {
        let trace = sample_trace(true);
        let ann = annotate_trace(&trace);
        assert_eq!(ann.first_failure, Some(4));
        let text = annotated_to_string(&trace, &ann);
        assert_eq!(check_annotated(&text), Ok(trace.records.len() as u64));
        assert!(text.lines().next().unwrap().contains(ANNOTATED_SCHEMA));
        assert!(text.contains("\"first_failure\":true"));
        assert!(
            text.contains("\"hb_from\":[1]"),
            "start acquired from spawn"
        );
    }

    #[test]
    fn passing_trace_has_null_first_failure() {
        let trace = sample_trace(false);
        let ann = annotate_trace(&trace);
        assert_eq!(ann.first_failure, None);
        let text = annotated_to_string(&trace, &ann);
        assert_eq!(check_annotated(&text), Ok(6));
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains("\"first_failure\":null"));
    }

    #[test]
    fn checker_rejects_malformed_documents() {
        assert!(check_annotated("").is_err());
        assert!(check_annotated("not json\n").is_err());
        assert!(check_annotated("{\"schema\":\"other\"}\n").is_err());
        let trace = sample_trace(true);
        let ann = annotate_trace(&trace);
        let good = annotated_to_string(&trace, &ann);
        // Wrong version.
        let bad = good.replacen("\"version\":1", "\"version\":99", 1);
        assert!(check_annotated(&bad).unwrap_err().contains("version"));
        // Drop a record's clock.
        let bad = good.replace("\"clock\":", "\"clokk\":");
        assert!(check_annotated(&bad).unwrap_err().contains("clock"));
        // Header/record disagreement on the failure marker.
        let bad = good.replacen("\"first_failure\":4", "\"first_failure\":null", 1);
        assert!(check_annotated(&bad).unwrap_err().contains("declares"));
        // The rules beyond the types.
        let bad = good.replace("\"first_failure\":true", "\"first_failure\":false");
        assert!(check_annotated(&bad)
            .unwrap_err()
            .contains("literally true"));
        let bad = good.replace("\"hb_from\":[1]", "\"hb_from\":[]");
        assert!(check_annotated(&bad).unwrap_err().contains("non-empty"));
        // The first record's clock, zeroed.
        let at = good.find("\"clock\":[").unwrap() + "\"clock\":[".len();
        let end = at + good[at..].find(']').unwrap();
        let bad = format!("{}0{}", &good[..at], &good[end..]);
        assert!(check_annotated(&bad)
            .unwrap_err()
            .contains("positive component"));
        let bad = good.replacen("\"schema\":\"mtt-annotated-trace\"", "\"schema\":\"x\"", 1);
        assert!(check_annotated(&bad).unwrap_err().contains("header schema"));
    }

    #[test]
    fn write_propagates_io_errors() {
        struct FullDisk;
        impl std::io::Write for FullDisk {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "disk full",
                ))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let trace = sample_trace(true);
        let ann = annotate_trace(&trace);
        assert!(write_annotated(&trace, &ann, &mut FullDisk).is_err());
    }
}
