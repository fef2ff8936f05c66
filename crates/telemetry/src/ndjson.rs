//! The NDJSON structured run log: one JSON object per run.
//!
//! Layout: every line is a flat object with the run's coordinates
//! (`experiment`, `program`, `tool`, `tool_spec`, `run`, `seed`), its
//! judged outcome (`outcome` tag + `failed` flag), the optional `backend`
//! and `fingerprint`, and the run's twelve [`MetricScalars`] counters. The
//! schema is [`RunLogRecord`]'s declaration: the writer prints a record
//! through it and [`check_run_log_line`] parses a line back into it. The
//! default record is a pure function of the run's seed, so a log written at
//! `--jobs 8` is byte-identical to the serial one — a campaign passes each
//! line on in canonical (program, tool, run) order as soon as every earlier
//! run has finished, and the writer prints lines in the order it gets them.
//! No line carries a wall-clock duration: per-run time stays in the
//! explicitly non-deterministic outputs (`mtt profile --timing` and the
//! journal's `wall_us`).
//!
//! A record's strings other than its fingerprint are `Arc<str>`: a campaign
//! builds each once (per campaign, cell or outcome tag) and every line of
//! a cell shares them.
//!
//! All writes propagate `io::Result` — a full disk or a closed pipe is an
//! error the campaign reports, not a panic.

use mtt_json::{json_struct, FromJson, Json, ToJson};
use mtt_obs::MetricScalars;
use std::io::{self, BufWriter, Write};
use std::sync::Arc;

/// One run-log line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunLogRecord {
    /// Experiment key (`e1`, `profile`, …).
    pub experiment: Arc<str>,
    /// Program under test.
    pub program: Arc<str>,
    /// Tool configuration name.
    pub tool: Arc<str>,
    /// Canonical tool-spec string the run can be re-created from
    /// (`mtt tools validate` accepts it; see `mtt-tools`).
    pub tool_spec: Arc<str>,
    /// Run index within the (program, tool) cell.
    pub run: u64,
    /// The seed that defined the execution.
    pub seed: u64,
    /// Outcome tag (`completed`, `deadlock`, `step-limit`, `panic`,
    /// `assert-stop`).
    pub outcome: Arc<str>,
    /// Did the program's oracle judge the run as having manifested a bug?
    pub failed: bool,
    /// Execution-backend tag (`"native"`), present only when the run
    /// executed on a non-model backend. Optional so every log written by a
    /// model campaign — which is all of them before the native backend
    /// existed — stays byte-identical.
    pub backend: Option<Arc<str>>,
    /// Canonical Mazurkiewicz-trace fingerprint of the run's HB partial
    /// order (32 hex digits), when the campaign computed one. Optional so
    /// logs written by fingerprint-less producers stay schema-valid.
    pub fingerprint: Option<String>,
    /// The run's deterministic counters, printed as members of the line.
    pub metrics: MetricScalars,
}

json_struct!(RunLogRecord {
    experiment,
    program,
    tool,
    tool_spec,
    run,
    seed,
    outcome,
    failed,
    #[optional]
    backend,
    #[optional]
    fingerprint,
    #[flatten]
    metrics,
});

/// Streaming NDJSON writer over any `io::Write`.
pub struct RunLogWriter<W: Write> {
    w: BufWriter<W>,
    /// The line being printed, reused across records.
    line: String,
    lines: u64,
}

impl<W: Write> RunLogWriter<W> {
    /// Wrap `w`.
    pub fn new(w: W) -> Self {
        RunLogWriter {
            w: BufWriter::new(w),
            line: String::new(),
            lines: 0,
        }
    }

    /// Append one record as one line.
    pub fn write_record(&mut self, rec: &RunLogRecord) -> io::Result<()> {
        self.line.clear();
        rec.write_json(&mut self.line);
        self.line.push('\n');
        self.w.write_all(self.line.as_bytes())?;
        self.lines += 1;
        Ok(())
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flush buffered lines to the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }

    /// Flush and return the underlying writer.
    pub fn into_inner(self) -> io::Result<W> {
        self.w.into_inner().map_err(|e| e.into_error())
    }
}

/// Validate one NDJSON run-log line and decode it: the line must parse back
/// into a [`RunLogRecord`], and a `backend` it carries must name a known
/// execution backend (`null` included: the writer leaves an absent
/// `backend` or `fingerprint` out). Returns a description of the first
/// violation.
pub fn check_run_log_line(line: &str) -> Result<RunLogRecord, String> {
    let v = Json::parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
    let Json::Obj(_) = v else {
        return Err("line is not a JSON object".into());
    };
    let rec = RunLogRecord::from_json(&v).map_err(|e| e.to_string())?;
    for key in ["backend", "fingerprint"] {
        if v.get(key) == Some(&Json::Null) {
            return Err(format!("field `{key}`: expected string, found null"));
        }
    }
    match rec.backend.as_deref() {
        None | Some("model" | "native") => Ok(rec),
        Some(other) => Err(format!("unknown backend `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(run: u64) -> RunLogRecord {
        RunLogRecord {
            experiment: "e1".into(),
            program: "lost_update".into(),
            tool: "none".into(),
            tool_spec: "sticky:0.9+name=none".into(),
            run,
            seed: 0x5eed + run,
            outcome: "completed".into(),
            failed: run.is_multiple_of(2),
            backend: None,
            fingerprint: (run > 0).then(|| format!("{:032x}", 0xabad1dea_u128 + u128::from(run))),
            metrics: MetricScalars {
                events: 10 + run,
                sched_points: 20,
                ..Default::default()
            },
        }
    }

    #[test]
    fn default_log_is_deterministic_and_schema_valid() {
        let mut buf = Vec::new();
        {
            let mut w = RunLogWriter::new(&mut buf);
            w.write_record(&record(0)).unwrap();
            w.write_record(&record(1)).unwrap();
            assert_eq!(w.lines(), 2);
            w.flush().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            check_run_log_line(line).unwrap();
            assert!(!line.contains("wall_us"), "no wall clock in the run log");
        }
        assert!(text.contains("\"experiment\":\"e1\""));
        assert!(text.contains("\"steps_to_first_bug\":null"));
        // The optional fingerprint appears exactly on the run that has one.
        let mut lines = text.lines();
        assert!(!lines.next().unwrap().contains("fingerprint"));
        assert!(lines
            .next()
            .unwrap()
            .contains("\"fingerprint\":\"000000000000000000000000abad1deb\""));
    }

    #[test]
    fn fingerprint_when_present_must_be_a_string() {
        let mut buf = Vec::new();
        let mut w = RunLogWriter::new(&mut buf);
        w.write_record(&record(1)).unwrap();
        w.flush().unwrap();
        drop(w);
        let line = String::from_utf8(buf).unwrap();
        check_run_log_line(line.trim_end()).unwrap();
        let broken = line.trim_end().replace(
            "\"fingerprint\":\"000000000000000000000000abad1deb\"",
            "\"fingerprint\":7",
        );
        assert!(check_run_log_line(&broken)
            .unwrap_err()
            .contains("fingerprint"));
        let null = broken.replace("\"fingerprint\":7", "\"fingerprint\":null");
        assert!(check_run_log_line(&null)
            .unwrap_err()
            .contains("fingerprint"));
    }

    #[test]
    fn backend_field_is_optional_and_validated() {
        // Model runs never emit the field (byte-identity with old logs).
        let mut buf = Vec::new();
        let mut w = RunLogWriter::new(&mut buf);
        w.write_record(&record(0)).unwrap();
        w.write_record(&RunLogRecord {
            backend: Some("native".into()),
            ..record(1)
        })
        .unwrap();
        w.flush().unwrap();
        drop(w);
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        let model_line = lines.next().unwrap();
        let native_line = lines.next().unwrap();
        assert!(!model_line.contains("backend"), "{model_line}");
        assert!(
            native_line.contains("\"backend\":\"native\""),
            "{native_line}"
        );
        check_run_log_line(model_line).unwrap();
        check_run_log_line(native_line).unwrap();
        // An unknown backend tag is a schema violation.
        let broken = native_line.replace("\"backend\":\"native\"", "\"backend\":\"jvm\"");
        assert!(check_run_log_line(&broken)
            .unwrap_err()
            .contains("unknown backend"));
        let broken = native_line.replace("\"backend\":\"native\"", "\"backend\":3");
        assert!(check_run_log_line(&broken).unwrap_err().contains("backend"));
        let broken = native_line.replace("\"backend\":\"native\"", "\"backend\":null");
        assert!(check_run_log_line(&broken).unwrap_err().contains("backend"));
    }

    #[test]
    fn shared_strings_with_escapes_round_trip() {
        let rec = RunLogRecord {
            experiment: "e1 \"quoted\"".into(),
            program: "tab\there".into(),
            tool: "back\\slash".into(),
            tool_spec: "sticky:0.9+name=n\u{1}é😀".into(),
            outcome: "line\nbreak".into(),
            backend: Some("native".into()),
            ..record(3)
        };
        let line = mtt_json::to_string(&rec);
        assert!(line.contains(r#""program":"tab\there""#), "{line}");
        assert!(line.contains(r#""tool_spec":"sticky:0.9+name=n\u0001é😀""#));
        assert_eq!(check_run_log_line(&line).unwrap(), rec);
        // An absent field is left out, never printed as `null`.
        let fingerprint = format!("\"{}\"", rec.fingerprint.as_deref().unwrap());
        for (key, value) in [("backend", "\"native\""), ("fingerprint", &fingerprint)] {
            let null = line.replace(&format!("\"{key}\":{value}"), &format!("\"{key}\":null"));
            assert_ne!(null, line);
            let err = check_run_log_line(&null).unwrap_err();
            assert!(err.contains(key) && err.contains("null"), "{err}");
        }
    }

    #[test]
    fn checker_rejects_bad_lines() {
        assert!(check_run_log_line("not json").is_err());
        assert!(check_run_log_line("[1,2]").is_err());
        assert!(check_run_log_line("{\"experiment\":\"e1\"}")
            .unwrap_err()
            .contains("missing field `program`"));
        // Right fields, wrong type.
        let mut buf = Vec::new();
        let mut w = RunLogWriter::new(&mut buf);
        w.write_record(&record(0)).unwrap();
        w.flush().unwrap();
        drop(w);
        let line = String::from_utf8(buf).unwrap();
        let broken = line.trim_end().replace("\"run\":0", "\"run\":\"zero\"");
        assert!(check_run_log_line(&broken)
            .unwrap_err()
            .contains("field `run`: expected unsigned integer, found string"));
    }

    #[test]
    fn write_errors_propagate_not_panic() {
        struct FullDisk;
        impl Write for FullDisk {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WriteZero, "disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = RunLogWriter::new(FullDisk);
        // BufWriter may absorb the first write; flush must surface the error.
        let r = w.write_record(&record(0)).and_then(|_| w.flush());
        assert!(r.is_err());
    }

    #[test]
    fn into_inner_surfaces_buffered_write_errors() {
        #[derive(Debug)]
        struct FullDisk;
        impl Write for FullDisk {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WriteZero, "disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // The record sits in the BufWriter; into_inner's final flush must
        // report the failure instead of silently dropping the bytes.
        let mut w = RunLogWriter::new(FullDisk);
        w.write_record(&record(0)).expect("buffered write succeeds");
        assert_eq!(w.lines(), 1);
        let err = w.into_inner().expect_err("into_inner must flush and fail");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);

        // And on a healthy writer it hands the bytes back intact.
        let mut w = RunLogWriter::new(Vec::new());
        w.write_record(&record(0)).unwrap();
        let buf = w.into_inner().expect("in-memory writer cannot fail");
        let line = String::from_utf8(buf).unwrap();
        check_run_log_line(line.trim_end()).expect("flushed line conforms to schema");
    }
}
