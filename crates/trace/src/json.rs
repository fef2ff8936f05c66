//! JSON-lines codec: the human-readable, tool-agnostic "standard format".
//!
//! Layout: line 1 is the [`TraceMeta`] object; every following line is one
//! [`TraceRecord`]. JSON-lines streams (a detector can process a trace
//! larger than memory) and diffs cleanly in review.

use crate::record::{Trace, TraceMeta, TraceRecord};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from reading a JSON trace.
#[derive(Debug)]
pub enum JsonTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line failed to parse.
    Parse {
        line: usize,
        source: mtt_json::JsonError,
    },
    /// The stream had no meta line.
    MissingMeta,
    /// A record names a thread id that is not below
    /// [`crate::THREAD_ID_BOUND`].
    ThreadId { line: usize, id: u32 },
}

impl std::fmt::Display for JsonTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonTraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            JsonTraceError::Parse { line, source } => {
                write!(f, "trace parse error on line {line}: {source}")
            }
            JsonTraceError::MissingMeta => write!(f, "trace stream is empty (no meta line)"),
            JsonTraceError::ThreadId { line, id } => write!(
                f,
                "trace line {line}: thread id {id} is not below {}",
                crate::THREAD_ID_BOUND
            ),
        }
    }
}

impl std::error::Error for JsonTraceError {}

impl From<io::Error> for JsonTraceError {
    fn from(e: io::Error) -> Self {
        JsonTraceError::Io(e)
    }
}

/// Serialize `trace` as JSON lines into `w`, propagating every I/O error
/// (a full disk or a closed pipe is an error to report, not a panic).
pub fn write<W: Write>(trace: &Trace, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    mtt_json::to_writer(&trace.meta, &mut w)?;
    w.write_all(b"\n")?;
    for r in &trace.records {
        mtt_json::to_writer(r, &mut w)?;
        w.write_all(b"\n")?;
    }
    w.flush()
}

/// Serialize to an in-memory string (small traces, tests, goldens).
/// Builds the lines directly — no fallible I/O anywhere on this path.
pub fn to_string(trace: &Trace) -> String {
    let mut out = mtt_json::to_string(&trace.meta);
    out.push('\n');
    for r in &trace.records {
        out.push_str(&mtt_json::to_string(r));
        out.push('\n');
    }
    out
}

/// Deserialize a JSON-lines trace from `r`.
pub fn read<R: Read>(r: R) -> Result<Trace, JsonTraceError> {
    let mut lines = BufReader::new(r).lines();
    let meta_line = lines.next().ok_or(JsonTraceError::MissingMeta)??;
    let meta: TraceMeta = mtt_json::from_str(&meta_line)
        .map_err(|source| JsonTraceError::Parse { line: 1, source })?;
    let mut records = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let rec: TraceRecord =
            mtt_json::from_str(&line).map_err(|source| JsonTraceError::Parse {
                line: i + 2,
                source,
            })?;
        if let Some(id) = rec.thread_out_of_bound() {
            return Err(JsonTraceError::ThreadId { line: i + 2, id });
        }
        records.push(rec);
    }
    Ok(Trace { meta, records })
}

/// Parse from a string.
pub fn from_str(s: &str) -> Result<Trace, JsonTraceError> {
    read(s.as_bytes())
}

/// Write a trace to `path`.
pub fn save(trace: &Trace, path: impl AsRef<Path>) -> io::Result<()> {
    write(trace, std::fs::File::create(path)?)
}

/// Read a trace from `path`.
pub fn load(path: impl AsRef<Path>) -> Result<Trace, JsonTraceError> {
    read(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtt_instrument::{Op, VarId};

    fn sample() -> Trace {
        let mut t = Trace::default();
        t.meta.program = "demo".into();
        t.meta.var_names = vec!["x".into()];
        for i in 0..5 {
            t.records.push(TraceRecord {
                seq: i,
                time: i,
                thread: (i % 2) as u32,
                file: "demo.rs".into(),
                line: 10 + i as u32,
                op: Op::VarWrite {
                    var: VarId(0),
                    value: i as i64,
                },
                locks_held: vec![],
                bug_tags: if i == 2 { vec!["b1".into()] } else { vec![] },
            });
        }
        t
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let s = to_string(&t);
        let back = from_str(&s).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn format_is_one_json_object_per_line() {
        let s = to_string(&sample());
        let lines: Vec<&str> = s.trim_end().lines().collect();
        assert_eq!(lines.len(), 6); // meta + 5 records
        for l in lines {
            assert!(mtt_json::Json::parse(l).is_ok());
        }
    }

    #[test]
    fn empty_bug_tags_are_omitted_from_json() {
        let s = to_string(&sample());
        let lines: Vec<&str> = s.trim_end().lines().collect();
        assert!(!lines[1].contains("bug_tags"));
        assert!(lines[3].contains("bug_tags"));
    }

    #[test]
    fn empty_stream_is_an_error() {
        match from_str("") {
            Err(JsonTraceError::MissingMeta) => {}
            other => panic!("expected MissingMeta, got {other:?}"),
        }
    }

    #[test]
    fn bad_record_line_reports_line_number() {
        let mut s = to_string(&sample());
        s.push_str("{not json\n");
        match from_str(&s) {
            Err(JsonTraceError::Parse { line, .. }) => assert_eq!(line, 7),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn a_thread_id_past_the_bound_fails_to_load() {
        use crate::THREAD_ID_BOUND;
        use mtt_instrument::ThreadId;
        let mut t = sample();
        t.records[4].thread = THREAD_ID_BOUND - 1;
        assert_eq!(from_str(&to_string(&t)).unwrap(), t);
        let huge = 1u32 << 31;
        for (i, op) in [
            None,
            Some(Op::Spawn {
                child: ThreadId(huge),
            }),
            Some(Op::JoinRequest {
                target: ThreadId(huge),
            }),
            Some(Op::Join {
                target: ThreadId(huge),
            }),
        ]
        .into_iter()
        .enumerate()
        {
            let mut t = sample();
            match op {
                Some(op) => t.records[i].op = op,
                None => t.records[i].thread = huge,
            }
            match from_str(&to_string(&t)) {
                Err(JsonTraceError::ThreadId { line, id }) => {
                    assert_eq!((line, id), (i + 2, huge));
                }
                other => panic!("expected a thread id error, got {other:?}"),
            }
        }
        let mut t = sample();
        t.records[0].thread = THREAD_ID_BOUND;
        let err = from_str(&to_string(&t)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "trace line 2: thread id 65536 is not below 65536"
        );
    }

    #[test]
    fn blank_lines_are_skipped() {
        let s = to_string(&sample()).replace('\n', "\n\n");
        let back = from_str(&s).unwrap();
        assert_eq!(back.records.len(), 5);
    }

    #[test]
    fn write_propagates_io_errors() {
        struct FullDisk;
        impl Write for FullDisk {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WriteZero, "disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        assert!(write(&sample(), FullDisk).is_err());
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let dir = std::env::temp_dir().join(format!("mtt-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let t = sample();
        save(&t, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_dir_all(&dir).ok();
    }
}
